package rtcore

import "sync/atomic"

// MissMaterial is the material index reported for rays that hit
// nothing; the megakernel dispatches its miss shader on it.
const MissMaterial = -1

// RayGen produces the ray for a given ray ID. Workloads bind camera
// rays and stochastically scattered bounce rays to IDs so the TRACE
// instruction's operand (a ray ID register) fully determines the ray.
type RayGen func(id uint32) Ray

// HitTable memoizes the traversals of one (BVH, RayGen) pair over the
// ray IDs [0, Len()). Each slot packs steps<<8 | (material+2), with 0
// meaning "not yet traced"; the SM needs only the material and the
// step count, so T and Tri are not kept.
//
// A table is safe to share between every Core, and every concurrent
// run, whose BVH and RayGen are built from the same inputs: a ray's
// traversal is a pure function of those inputs, so racing writers
// store the same value and a reader sees either 0 or that value.
type HitTable struct {
	slots []atomic.Uint32
}

// Packing limits: steps (at most one per node) must fit the upper 24
// bits and material+2 the low byte, leaving 0 for "not yet traced".
const (
	maxPackedNodes    = 1 << 24
	maxPackedMaterial = 253
)

// NewHitTable returns an empty table for ray IDs [0, rays) over bvh, or
// nil when bvh's traversal results do not fit the packing (too many
// nodes, or a material outside [0, 253]) or rays is not positive.
func NewHitTable(bvh *BVH, rays int) *HitTable {
	if rays <= 0 || bvh.NumNodes() >= maxPackedNodes {
		return nil
	}
	for i := range bvh.tris {
		if m := bvh.tris[i].Material; m < 0 || m > maxPackedMaterial {
			return nil
		}
	}
	return &HitTable{slots: make([]atomic.Uint32, rays)}
}

// Len returns the number of ray IDs the table covers.
func (t *HitTable) Len() int { return len(t.slots) }

// Core models one SM's RT-core: the SM enqueues TraceRay operations and
// the core answers after a latency proportional to the number of BVH
// nodes the traversal visits. Traversal results come from the kernel's
// shared HitTable when it has one and the ray ID is in range; any other
// ray is traversed directly.
type Core struct {
	bvh     *BVH
	gen     RayGen
	table   *HitTable // nil: every ray is traversed directly
	base    int64     // fixed overhead per trace (SM<->RT-core round trip)
	perStep int64     // cycles per BVH node visit
}

// NewCore builds an RT-core over the given hierarchy and ray generator.
// table, which may be nil, must have been built for the same BVH and
// RayGen inputs. baseLatency is the fixed round-trip cost and
// stepLatency the cycles charged per traversal step.
func NewCore(bvh *BVH, gen RayGen, table *HitTable, baseLatency, stepLatency int64) *Core {
	return &Core{
		bvh:     bvh,
		gen:     gen,
		table:   table,
		base:    baseLatency,
		perStep: stepLatency,
	}
}

// Trace performs the traversal for rayID and returns the hit material
// (MissMaterial on a miss), the traversal step count, and the modeled
// latency in cycles.
func (c *Core) Trace(rayID uint32) (material, steps int, latency int64) {
	if c.table != nil && int64(rayID) < int64(len(c.table.slots)) {
		slot := &c.table.slots[rayID]
		packed := slot.Load()
		if packed == 0 {
			hit := c.bvh.Traverse(c.gen(rayID), 1e-4, InfinityT)
			packed = uint32(hit.Steps)<<8 | uint32(hit.Material+2)
			slot.Store(packed)
		}
		material, steps = int(packed&0xFF)-2, int(packed>>8)
	} else {
		hit := c.bvh.Traverse(c.gen(rayID), 1e-4, InfinityT)
		material, steps = hit.Material, hit.Steps
	}
	return material, steps, c.base + c.perStep*int64(steps)
}
