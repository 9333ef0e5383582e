package workload

import (
	"reflect"
	"sync"
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/gpu"
	"subwarpsim/internal/rtcore"
	"subwarpsim/internal/scene"
)

// hitTableVariants returns every catalogue profile under the shapes the
// experiments run it in: as catalogued, the Quick one-wave trim (see
// experiments.quickProfile), and each bounce count the experiments use.
func hitTableVariants() []AppProfile {
	var out []AppProfile
	for _, p := range Apps() {
		out = append(out, p)
		oneWave := p
		resident := 512 / p.RegsPerThread
		if resident > 8 {
			resident = 8
		}
		oneWave.NumWarps = 8 * resident
		oneWave.Iterations = 2
		out = append(out, oneWave)
		for _, iters := range []int{2, 3, 4} {
			v := p
			v.Iterations = iters
			out = append(out, v)
		}
	}
	return out
}

// Soundness of the shared table: for every ray ID a megakernel can
// issue, tracing through its (possibly already filled) shared table
// gives the same material, hit/miss, steps and latency as a fresh
// traversal of an independently generated scene, camera and generator.
func TestSharedHitTableSound(t *testing.T) {
	cfg := config.Default()
	base, step := int64(cfg.RTBaseLatency), int64(cfg.RTStepLatency)
	for _, p := range hitTableVariants() {
		k, err := Megakernel(p)
		if err != nil {
			t.Fatal(err)
		}
		rays := p.NumWarps * 32 * p.Iterations
		if k.Hits == nil || k.Hits.Len() < rays {
			t.Fatalf("%s warps=%d iters=%d: no shared table covering %d rays", p.Name, p.NumWarps, p.Iterations, rays)
		}
		again, err := Megakernel(p)
		if err != nil {
			t.Fatal(err)
		}
		if again.Hits != k.Hits {
			t.Fatalf("%s warps=%d iters=%d: rebuilt kernel got a different table", p.Name, p.NumWarps, p.Iterations)
		}

		sc, err := scene.Generate(scene.Params{
			Seed: p.Seed, Triangles: p.SceneTris, Materials: p.Shaders,
			Clusters: p.SceneClusters, Extent: 60, MaterialSkew: p.MaterialSkew,
		})
		if err != nil {
			t.Fatal(err)
		}
		gen := sc.RayGen(scene.NewCamera(sc.BVH.Bounds(), 32, p.NumWarps))

		wants := make([]rtcore.Hit, rays)
		for id := range wants {
			wants[id] = sc.BVH.Traverse(gen(uint32(id)), 1e-4, rtcore.InfinityT)
		}
		// Trace every ID twice: the first pass may fill slots, the
		// second reads them back.
		core := rtcore.NewCore(k.BVH, k.RayGen, k.Hits, base, step)
		for pass := 0; pass < 2; pass++ {
			for id, want := range wants {
				mat, steps, lat := core.Trace(uint32(id))
				if ok := mat != rtcore.MissMaterial; ok != want.Ok || mat != want.Material ||
					steps != want.Steps || lat != base+step*int64(want.Steps) {
					t.Fatalf("%s warps=%d iters=%d ray %d pass %d: got (mat %d, steps %d, lat %d), want %+v",
						p.Name, p.NumWarps, p.Iterations, id, pass, mat, steps, lat, want)
				}
			}
		}
	}
}

// Two concurrent multi-SM runs of the same app race on the slots of one
// fresh shared table; both must reproduce, counter for counter, a
// sequential run that traverses every ray directly.
func TestSharedHitTableConcurrentRuns(t *testing.T) {
	p, err := ProfileByName("BFV1")
	if err != nil {
		t.Fatal(err)
	}
	// A seed no other test uses, so the table starts empty.
	p.Seed += 7919
	p.NumWarps = 16
	p.Iterations = 2
	cfg := config.Default()
	cfg.NumSMs = 4

	ref, err := Megakernel(p)
	if err != nil {
		t.Fatal(err)
	}
	ref.Hits = nil
	want, err := gpu.RunWorkers(cfg, ref, 1)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	results := make([]gpu.Result, 2)
	errs := make([]error, 2)
	for i := range results {
		k, err := Megakernel(p)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = gpu.RunWorkers(cfg, k, 0)
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got.Counters, want.Counters) {
			t.Errorf("concurrent run %d counters differ from the sequential direct-traversal run:\n got %+v\nwant %+v",
				i, got.Counters, want.Counters)
		}
	}
	if want.Counters.RTTraces == 0 {
		t.Error("reference run traced no rays")
	}
}

// The index builds no table for a range over its bound, serves a
// shorter range from the table it holds and replaces it for a longer
// one, and once the tables it holds would exceed the bound it drops
// them all and starts again.
func TestSharedHitTableBound(t *testing.T) {
	bvh := rtcore.BuildBVH([]rtcore.Triangle{{V1: rtcore.V(1, 0, 0), V2: rtcore.V(0, 1, 0)}})
	key := func(seed int64) hitKey {
		return hitKey{scene: scene.Params{Seed: -seed}, camW: 1, camH: 1}
	}
	if tbl := sharedHitTable(key(1), hitIndexMaxSlots+1, bvh); tbl != nil {
		t.Errorf("built a %d-slot table over the %d-slot bound", tbl.Len(), hitIndexMaxSlots)
	}
	hitIndex.Lock()
	hitIndex.tables, hitIndex.slots = nil, 0
	hitIndex.Unlock()
	quarter := hitIndexMaxSlots / 4
	short := sharedHitTable(key(1), quarter, bvh)
	a := sharedHitTable(key(1), 2*quarter, bvh)
	if short == nil || a == nil || a == short || a.Len() != 2*quarter {
		t.Fatal("a longer range should replace the shorter table")
	}
	if sharedHitTable(key(1), quarter, bvh) != a {
		t.Error("a shorter range should reuse the longer table")
	}
	b := sharedHitTable(key(2), 2*quarter, bvh)
	if b == nil || b == a || sharedHitTable(key(1), 2*quarter, bvh) != a {
		t.Fatal("two half-bound tables should both be built and kept")
	}
	if c := sharedHitTable(key(3), quarter, bvh); c == nil {
		t.Fatal("third table not built")
	}
	if sharedHitTable(key(1), 2*quarter, bvh) == a {
		t.Error("index kept its tables past the bound instead of resetting")
	}
}
