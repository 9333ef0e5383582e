package sm

import (
	"context"
	"fmt"
	"math"
	"strings"

	"subwarpsim/internal/bits"
	"subwarpsim/internal/config"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/rtcore"
	"subwarpsim/internal/stats"
	"subwarpsim/internal/tst"
)

// Kernel is one launch: a program, its warp count, and the functional
// resources it executes against.
type Kernel struct {
	Program *isa.Program
	// NumWarps is the total warps in the launch; warps beyond the
	// occupancy limit queue for freed slots (persistent waves).
	NumWarps int
	// WarpsPerCTA sizes the cooperative thread array for S2R special
	// registers.
	WarpsPerCTA int
	// Memory is the functional global/texture backing store.
	Memory *mem.Memory
	// BVH and RayGen configure the RT core; nil unless the program uses
	// TRACE.
	BVH    *rtcore.BVH
	RayGen rtcore.RayGen
	// Hits, when non-nil, is the traversal memo shared by every SM's RT
	// core; it must come from the same BVH and RayGen inputs (see
	// rtcore.HitTable). Nil traverses every ray directly.
	Hits *rtcore.HitTable
	// Budget, when non-nil, gas-meters the launch: each SM independently
	// enforces the limits and kills the run with a *BudgetError at a
	// deterministic point (see Budget). Nil means unmetered.
	Budget *Budget
}

// CTASize returns threads per CTA.
func (k *Kernel) CTASize() int { return k.WarpsPerCTA * bits.WarpSize }

// Validate reports the first kernel configuration error.
func (k *Kernel) Validate() error {
	if k.Program == nil {
		return fmt.Errorf("sm: kernel has no program")
	}
	if err := k.Program.Validate(); err != nil {
		return err
	}
	if k.NumWarps <= 0 {
		return fmt.Errorf("sm: kernel %q has no warps", k.Program.Name)
	}
	if k.WarpsPerCTA <= 0 {
		return fmt.Errorf("sm: kernel %q has non-positive WarpsPerCTA", k.Program.Name)
	}
	if k.Memory == nil {
		return fmt.Errorf("sm: kernel %q has no memory", k.Program.Name)
	}
	usesTrace := false
	for _, in := range k.Program.Code {
		if in.Op == isa.TRACE {
			usesTrace = true
			break
		}
	}
	if usesTrace && (k.BVH == nil || k.RayGen == nil) {
		return fmt.Errorf("sm: kernel %q uses TRACE but has no BVH/RayGen", k.Program.Name)
	}
	if maxSB := k.Program.MaxScoreboard(); maxSB >= 0 {
		// Scoreboard IDs must fit the per-warp file; checked at launch
		// against the configured NSB.
		_ = maxSB
	}
	return nil
}

// SM is one streaming multiprocessor: processing blocks sharing an L1
// instruction cache, an L1 data cache, and an RT core.
type SM struct {
	id     int
	cfg    config.Config
	prog   *isa.Program
	kernel *Kernel

	l1i    *mem.Cache
	l1d    *mem.Cache
	rt     *rtcore.Core
	blocks []*Block

	// cops is the program's pre-decoded operation stream when
	// cfg.Compiled is set (nil in interpreted mode); blocks dispatch
	// through it instead of decoding each cycle. ffLen enables
	// basic-block fast-forward: per-PC simple-run lengths, nil when
	// fast-forward is off (interpreted mode, or a trace recorder is
	// attached — compiled dispatch then still runs cycle by cycle so
	// the event stream is produced exactly).
	cops  []isa.COp
	ffLen []int32

	// mem is the SM's private copy-on-write view of the kernel's
	// functional memory image; it is what makes SMs safe to simulate
	// concurrently (see mem.View).
	mem *mem.View
	// deferPublish suppresses the automatic view publication at the end
	// of Run; gpu.Run sets it and publishes every SM's view itself, in
	// SM order, after all SMs finish.
	deferPublish bool

	// budget is the kernel's gas limit (nil when unmetered); checked at
	// the top of each RunContext iteration, never inside Block.step.
	budget *Budget
}

// NewSM builds an SM for the given kernel. The configuration must be
// valid (see config.Config.Validate).
func NewSM(id int, cfg config.Config, kernel *Kernel) (*SM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := kernel.Validate(); err != nil {
		return nil, err
	}
	if maxSB := kernel.Program.MaxScoreboard(); maxSB >= cfg.ScoreboardsPerWarp {
		return nil, fmt.Errorf("sm: program %q uses sb%d but config has %d scoreboards/warp",
			kernel.Program.Name, maxSB, cfg.ScoreboardsPerWarp)
	}
	s := &SM{
		id:     id,
		cfg:    cfg,
		prog:   kernel.Program,
		kernel: kernel,
		l1i:    mem.NewCache("L1I", cfg.L1InstrBytes, 8, cfg.CacheLineBytes),
		l1d:    mem.NewCache("L1D", cfg.L1DataBytes, 8, cfg.CacheLineBytes),
		mem:    kernel.Memory.NewView(),
	}
	if kernel.Budget.Enabled() {
		s.budget = kernel.Budget
	}
	if kernel.BVH != nil && kernel.RayGen != nil {
		s.rt = rtcore.NewCore(kernel.BVH, kernel.RayGen, kernel.Hits,
			int64(cfg.RTBaseLatency), int64(cfg.RTStepLatency))
	}
	if cfg.Compiled {
		cp := kernel.Program.Compiled()
		s.cops = cp.Ops
		if cfg.Trace == nil {
			if cfg.SI.Enabled && cfg.SI.Yield {
				s.ffLen = cp.FFLen
			} else {
				// YIELD is architecturally inert in this configuration, so
				// it may sit inside fast-forward runs.
				s.ffLen = cp.FFLenYieldInert
			}
		}
	}
	for b := 0; b < cfg.BlocksPerSM; b++ {
		s.blocks = append(s.blocks, newBlock(b, cfg, s))
	}
	return s, nil
}

// ResidentWarpsPerBlock returns the occupancy limit: warp slots capped
// by register-file pressure (Section II-B), at least one.
func (s *SM) ResidentWarpsPerBlock() int {
	regsPerWarp := s.prog.RegsPerThread * bits.WarpSize
	byRegs := s.cfg.RegFilePerBlock / regsPerWarp
	n := s.cfg.WarpSlotsPerBlock
	if byRegs < n {
		n = byRegs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Admit assigns a warp to one of the SM's blocks (round-robin by
// sequence number).
func (s *SM) Admit(seq int, id, ctaID, warpInCTA int) {
	blk := s.blocks[seq%len(s.blocks)]
	blk.admit(warpSpec{id: id, ctaID: ctaID, warpInCTA: warpInCTA}, s.ResidentWarpsPerBlock())
}

// Blocks exposes the SM's processing blocks (for tests/inspection).
func (s *SM) Blocks() []*Block { return s.blocks }

// DeferMemoryPublish suppresses the automatic publication of the SM's
// memory view when Run finishes. gpu.Run uses it to run SMs
// concurrently and then publish every view itself in SM order, keeping
// the final memory image deterministic.
func (s *SM) DeferMemoryPublish() { s.deferPublish = true }

// PublishMemory folds the SM's private stores into the kernel's shared
// memory image. It must not race with other SMs still simulating or
// publishing against the same image.
func (s *SM) PublishMemory() { s.mem.Publish() }

// Run simulates until every admitted warp completes or maxCycles
// elapses, returning the merged per-block counters. It is shorthand
// for RunContext with a background context.
func (s *SM) Run(maxCycles int64) (stats.Counters, error) {
	return s.RunContext(context.Background(), maxCycles)
}

// cancelCheckStride bounds how many simulated cycles may elapse
// between context-cancellation checks: frequent enough that a
// cancelled simulation returns within microseconds of wall time, rare
// enough that the per-cycle hot loop never touches the context.
const cancelCheckStride = 4096

// RunContext simulates until every admitted warp completes, maxCycles
// elapses, or ctx is cancelled, returning the merged per-block
// counters. The run loop steps all blocks in lock-step and
// fast-forwards through provably idle regions to the next scheduled
// event; cancellation is observed at least every cancelCheckStride
// loop iterations, so a cancelled run returns promptly with
// ctx.Err() wrapped in the error.
//
// The SM executes loads and stores against its private copy-on-write
// view of the kernel memory; unless DeferMemoryPublish was called, the
// view is published to the shared image when Run returns (including on
// error or cancellation, matching how far the simulation got).
func (s *SM) RunContext(ctx context.Context, maxCycles int64) (stats.Counters, error) {
	if !s.deferPublish {
		defer s.mem.Publish()
	}
	for _, blk := range s.blocks {
		if len(blk.warps) == 0 && len(blk.pending) == 0 {
			blk.done = true
		}
	}
	if err := ctx.Err(); err != nil {
		return s.merge(), fmt.Errorf("sm %d: cancelled before cycle 0: %w", s.id, err)
	}
	now := int64(0)
	sinceCheck := 0
	for {
		if sinceCheck++; sinceCheck >= cancelCheckStride {
			sinceCheck = 0
			if err := ctx.Err(); err != nil {
				return s.merge(), fmt.Errorf("sm %d: cancelled at cycle %d: %w", s.id, now, err)
			}
		}
		if s.budget != nil {
			// Gas metering: checked before stepping so the kill point
			// depends only on committed simulation state, which is
			// bit-identical across engines and worker counts.
			if be := s.budgetExceeded(now); be != nil {
				return s.merge(), be
			}
		}
		allDone := true
		anyIssued := false
		next := int64(math.MaxInt64)
		for _, blk := range s.blocks {
			if blk.done {
				continue
			}
			allDone = false
			issued, n := blk.step(now)
			if issued {
				anyIssued = true
			}
			if n < next {
				next = n
			}
		}
		if allDone {
			break
		}
		switch {
		case anyIssued || next <= now+1:
			h := s.ffHorizon(now, next, anyIssued)
			if s.budget != nil && h > now+1 {
				// Shrink the window so no budget limit can be crossed
				// inside it; crossings then surface at stepped cycles,
				// identically in both engines (see clampBudgetHorizon).
				h = s.clampBudgetHorizon(now, h)
			}
			if h > now+1 {
				// Basic-block fast-forward: every issuing block retires its
				// warp's straight-line simple run in bulk and every idle
				// block accounts the same window as idle cycles; nothing
				// observable can occur before h (see compiled.go).
				gap := h - now - 1
				for _, blk := range s.blocks {
					if blk.done {
						continue
					}
					if blk.lastPick >= 0 {
						blk.ffCommit(gap, h)
					} else {
						blk.skipIdle(gap, h)
					}
				}
				now = h
			} else {
				now++
			}
		case next == math.MaxInt64:
			return s.merge(), &DeadlockError{SM: s.id, Cycle: now, State: s.dumpState()}
		default:
			// Cycles now+1 .. next-1 are provably idle everywhere.
			gap := next - now - 1
			for _, blk := range s.blocks {
				blk.skipIdle(gap, next)
			}
			now = next
		}
		if now > maxCycles {
			return s.merge(), fmt.Errorf("sm %d: exceeded %d cycles", s.id, maxCycles)
		}
	}
	return s.merge(), nil
}

func (s *SM) merge() stats.Counters {
	var total stats.Counters
	for _, blk := range s.blocks {
		total.Merge(blk.counters)
	}
	return total
}

// dumpState renders a per-warp diagnostic for deadlock reports.
func (s *SM) dumpState() string {
	var b strings.Builder
	for _, blk := range s.blocks {
		fmt.Fprintf(&b, "block %d (done=%v pending=%d):\n", blk.id, blk.done, len(blk.pending))
		for _, w := range blk.warps {
			if w.exited {
				fmt.Fprintf(&b, "  warp %d: exited\n", w.ID)
				continue
			}
			fmt.Fprintf(&b, "  warp %d: pc=%d active=%v ready=%v blocked=%v stalled=%v pendingSel=%v\n",
				w.ID, w.activePC, w.active,
				w.tab.Mask(tst.Ready), w.tab.Mask(tst.Blocked), w.tab.Mask(tst.Stalled),
				w.pendingSelect)
		}
	}
	return b.String()
}
