package subwarpsim

// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment and
// reports its headline metric alongside wall-clock cost:
//
//	go test -bench=. -benchmem
//
// Benchmarks use the experiments' Quick mode (fewer waves/bounces) so a
// full -bench=. pass stays in the tens of seconds; cmd/experiments
// regenerates the full-size artifacts.

import (
	"testing"

	"subwarpsim/internal/experiments"
	"subwarpsim/internal/rtcore"
	"subwarpsim/internal/server"
	"subwarpsim/internal/workload"
)

func benchExperiment(b *testing.B, id string, metrics map[string]string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	opts := experiments.Options{Quick: true}
	for i := 0; i < b.N; i++ {
		r, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		for key, unit := range metrics {
			b.ReportMetric(r.Values[key]*100, unit)
		}
	}
}

// BenchmarkFig3 regenerates the baseline stall characterisation.
func BenchmarkFig3(b *testing.B) {
	benchExperiment(b, "fig3", map[string]string{
		"mean/total":     "mean-stall-%",
		"mean/divergent": "mean-divstall-%",
	})
}

// BenchmarkTable3 regenerates the microbenchmark divergence sweep.
func BenchmarkTable3(b *testing.B) {
	benchExperiment(b, "table3", map[string]string{
		"speedup_16": "speedup16x-x100",
		"speedup_32": "speedup32x-x100",
	})
}

// BenchmarkFig12a regenerates the per-application policy sweep.
func BenchmarkFig12a(b *testing.B) {
	benchExperiment(b, "fig12a", map[string]string{
		"mean/Both,N>=0.5": "mean-speedup-%",
		"BFV2/Both,N>=0.5": "bfv2-speedup-%",
	})
}

// BenchmarkFig12b regenerates the stall-reduction analysis.
func BenchmarkFig12b(b *testing.B) {
	benchExperiment(b, "fig12b", map[string]string{
		"mean/divergent": "divstall-reduction-%",
		"mean/total":     "stall-reduction-%",
	})
}

// BenchmarkFig13 regenerates the L1 miss latency sensitivity.
func BenchmarkFig13(b *testing.B) {
	benchExperiment(b, "fig13", map[string]string{
		"lat300/BestOf": "best300-%",
		"lat900/BestOf": "best900-%",
	})
}

// BenchmarkFig14 regenerates the warp-slot sensitivity.
func BenchmarkFig14(b *testing.B) {
	benchExperiment(b, "fig14", map[string]string{
		"mean/warps8":  "warps8-%",
		"mean/warps32": "warps32-%",
	})
}

// BenchmarkFig15 regenerates the TST-size sensitivity.
func BenchmarkFig15(b *testing.B) {
	benchExperiment(b, "fig15", map[string]string{
		"mean/tst2":  "tst2-%",
		"mean/tst32": "unlimited-%",
	})
}

// BenchmarkICacheSizing regenerates the Section V-C4 study.
func BenchmarkICacheSizing(b *testing.B) {
	benchExperiment(b, "icache", map[string]string{
		"mean/big":   "big-caches-%",
		"mean/small": "small-caches-%",
	})
}

// BenchmarkOrderAblation regenerates the activation-order ablation.
func BenchmarkOrderAblation(b *testing.B) {
	benchExperiment(b, "order", map[string]string{
		"taken-first": "taken-first-%",
		"random":      "random-%",
	})
}

// BenchmarkYieldAblation regenerates the yield-threshold ablation.
func BenchmarkYieldAblation(b *testing.B) {
	benchExperiment(b, "yield", map[string]string{
		"threshold1": "threshold1-%",
		"threshold8": "threshold8-%",
	})
}

// BenchmarkSimulationRate measures raw simulator throughput: simulated
// cycles per wall second on one application baseline. Kernel assembly
// and BVH construction happen with the timer stopped, so the reported
// rate covers simulation alone (benchjson derives
// sim_cycles_per_wall_second from the sim-cycles/op metric and ns/op).
// Each op traces its rays into an empty hit table (coldHits).
func BenchmarkSimulationRate(b *testing.B) {
	app, err := Application("Ctrl")
	if err != nil {
		b.Fatal(err)
	}
	app.NumWarps = 32
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k, err := BuildMegakernel(app)
		if err != nil {
			b.Fatal(err)
		}
		coldHits(k, nil)
		b.StartTimer()
		res, err := Run(DefaultConfig(), k)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Counters.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
}

// benchEngine times one execution engine on the paper's divergence
// microbenchmark scaled to 256 warps: a scheduler-bound workload with
// no RT-core functional work, so what is measured is instruction
// dispatch and scheduling — exactly what the compiled engine and
// basic-block fast-forward accelerate. Kernel assembly happens with
// the timer stopped; program lowering (Program.Compiled) is left
// inside the timed region because a real run pays it too.
func benchEngine(b *testing.B, compiled bool) {
	p := DefaultMicrobenchmark(4)
	p.NumWarps = 256
	cfg := DefaultConfig()
	cfg.Compiled = compiled
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k, err := BuildMicrobenchmark(p)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := Run(cfg, k)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Counters.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
}

// BenchmarkGPURunCompiled times the pre-decoded engine with basic-block
// fast-forward (the Config.Compiled default).
func BenchmarkGPURunCompiled(b *testing.B) { benchEngine(b, true) }

// BenchmarkGPURunInterpreted times the per-cycle decoding interpreter
// (the tests' reference engine) on the same workload; both engines
// retire identical cycle counts, so the sim-cycles/op metrics match and
// only wall time differs.
func BenchmarkGPURunInterpreted(b *testing.B) { benchEngine(b, false) }

// benchGenerator times one synthetic workload family end to end at its
// default full-occupancy size. Kernel construction happens with the
// timer stopped so the reported rate covers simulation alone; the
// sim-cycles/op metric lets benchjson derive throughput per family
// (irregular BFS simulates slower per cycle than divergence-free GEMM).
func benchGenerator(b *testing.B, name string) {
	var cycles int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		k, err := BuildWorkload(name)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := Run(DefaultConfig(), k)
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Counters.Cycles
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "sim-cycles/op")
}

// BenchmarkGPURunGEMM times the divergence-free tiled-GEMM family: the
// compute-regular end of the workload spectrum, where basic-block
// fast-forward sees its longest straight-line windows.
func BenchmarkGPURunGEMM(b *testing.B) { benchGenerator(b, "gemm") }

// BenchmarkGPURunBFS times the irregular frontier-traversal family: the
// divergence-heavy SI stress case, dominated by data-dependent branch
// splits and reconvergence work.
func BenchmarkGPURunBFS(b *testing.B) { benchGenerator(b, "bfs") }

// BenchmarkGPURunTexture times the mixed-latency graphics family:
// texture-path loads interleaved with ALU work.
func BenchmarkGPURunTexture(b *testing.B) { benchGenerator(b, "texture") }

// coldMixDeck returns one 100-job pass of the serving benchmark's
// jobs-cold mix: every app under base, SI, SI and DWS (40 jobs), every
// generator family under three base, four SI and three DWS runs (30)
// and every microbenchmark size under base, three SI and DWS (30),
// interleaved in ten rounds of 4 app, 3 generator and 3 microbenchmark
// jobs. The per-job knobs cycle deterministically over the same ranges
// the serving benchmark draws from.
func coldMixDeck() []server.JobSpec {
	type slot struct {
		spec server.JobSpec
		mode string
	}
	var apps, gens, micros []slot
	for _, mode := range []string{"base", "si", "si", "dws"} {
		for _, name := range workload.AppNames() {
			apps = append(apps, slot{server.JobSpec{App: name}, mode})
		}
	}
	for _, mode := range []string{"base", "base", "base", "si", "si", "si", "si", "dws", "dws", "dws"} {
		for _, name := range workload.GeneratorNames() {
			gens = append(gens, slot{server.JobSpec{Workload: name}, mode})
		}
	}
	for _, mode := range []string{"base", "si", "si", "si", "dws"} {
		for _, size := range []int{1, 2, 4, 8, 16, 32} {
			micros = append(micros, slot{server.JobSpec{Microbench: size}, mode})
		}
	}
	var deck []server.JobSpec
	for r := 0; r < 10; r++ {
		round := append(append(append([]slot(nil), apps[4*r:4*r+4]...), gens[3*r:3*r+3]...), micros[3*r:3*r+3]...)
		for _, sl := range round {
			i, sp := len(deck), sl.spec
			switch sl.mode {
			case "si":
				sp.SI = true
				sp.Trigger = []string{"any", "half", "all"}[i%3]
				sp.Yield = i%2 == 0
			case "dws":
				sp.DWS = true
			}
			sp.Policy = []string{"lrr", "gto", "wasp"}[i/3%3]
			sp.WarpSlots = []int{4, 8}[i/2%2]
			sp.LatencyCycles = 500 + i*37%201
			deck = append(deck, sp)
		}
	}
	return deck
}

// coldHits swaps a megakernel's process-wide hit table for a fresh,
// empty one, so a benchmark op traces its rays as the process's first
// job of that scene does, whatever earlier ops and benchmarks in the
// process traced. Kernels whose shared tables are the same get the
// same fresh table through fresh, which may be nil when nothing is to
// be shared.
func coldHits(k *Kernel, fresh map[*rtcore.HitTable]*rtcore.HitTable) {
	if k.Hits == nil {
		return
	}
	t, ok := fresh[k.Hits]
	if !ok {
		t = rtcore.NewHitTable(k.BVH, k.Hits.Len())
		if fresh != nil {
			fresh[k.Hits] = t
		}
	}
	k.Hits = t
}

// BenchmarkGPURunColdMix times what a stream of distinct /v1/jobs
// requests costs below the HTTP layer: one op is one pass of
// coldMixDeck, each job building its kernel (inside the timer, as a
// cold job pays for it) and simulating all its SMs on one goroutine. It
// reports warp-instructions simulated per wall second, the serving
// benchmark's sim_warp_instrs_per_s without the server around it. The
// jobs of one op share hit tables as a server process does, but every
// op starts from empty tables, so each op does the same work.
func BenchmarkGPURunColdMix(b *testing.B) {
	deck := coldMixDeck()
	cfgs := make([]Config, len(deck))
	for i, sp := range deck {
		cfg, err := sp.Config()
		if err != nil {
			b.Fatalf("%+v: %v", sp, err)
		}
		cfgs[i] = cfg
	}
	var instrs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := make(map[*rtcore.HitTable]*rtcore.HitTable)
		for j, sp := range deck {
			k, err := sp.BuildKernel()
			if err != nil {
				b.Fatal(err)
			}
			coldHits(k, fresh)
			res, err := RunWorkers(cfgs[j], k, 1)
			if err != nil {
				b.Fatal(err)
			}
			instrs += res.Counters.IssuedInstrs
		}
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "warp-instrs/s")
}

// benchGPURun measures one whole-device simulation at a fixed worker
// count, on an 8-SM device so SM-level parallelism has work to spread.
// Each op traces its rays into an empty hit table (coldHits), so the
// parallel run does not read what the sequential one traced.
func benchGPURun(b *testing.B, workers int) {
	app, err := Application("Ctrl")
	if err != nil {
		b.Fatal(err)
	}
	app.NumWarps = 256
	cfg := DefaultConfig()
	cfg.NumSMs = 8
	for i := 0; i < b.N; i++ {
		k, err := BuildMegakernel(app)
		if err != nil {
			b.Fatal(err)
		}
		coldHits(k, nil)
		if _, err := RunWorkers(cfg, k, workers); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGPURunSequential simulates all SMs on one goroutine; the
// baseline BenchmarkGPURunParallel is compared against.
func BenchmarkGPURunSequential(b *testing.B) { benchGPURun(b, 1) }

// BenchmarkGPURunParallel simulates one SM per goroutine, up to
// GOMAXPROCS at a time. Results are bit-identical to the sequential
// run; only wall-clock changes (no speedup on a single-core host).
func BenchmarkGPURunParallel(b *testing.B) { benchGPURun(b, 0) }

// benchSweep measures a whole experiment sweep at a fixed
// simulation-level worker count.
func benchSweep(b *testing.B, workers int) {
	e, ok := experiments.ByID("fig12a")
	if !ok {
		b.Fatal("unknown experiment fig12a")
	}
	opts := experiments.Options{Quick: true, Workers: workers}
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExperimentsSweepSequential runs the Fig. 12a policy sweep
// one simulation at a time.
func BenchmarkExperimentsSweepSequential(b *testing.B) { benchSweep(b, 1) }

// BenchmarkExperimentsSweepParallel runs the same sweep on the bounded
// worker pool (GOMAXPROCS simulations in flight).
func BenchmarkExperimentsSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkDWSComparison regenerates the SI-vs-DWS extension study.
func BenchmarkDWSComparison(b *testing.B) {
	benchExperiment(b, "dws", map[string]string{
		"mean/dws": "dws-mean-%",
		"mean/si":  "si-mean-%",
	})
}
