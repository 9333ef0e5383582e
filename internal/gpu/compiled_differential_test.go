package gpu

import (
	"testing"

	"subwarpsim/internal/config"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/trace"
	"subwarpsim/internal/workload"
)

// The two-mode differential layer: the compiled engine (pre-decoded
// operation stream + basic-block fast-forward) must be bit-identical
// to the per-cycle interpreter on every workload, configuration, and
// observable — counters, derived metrics, final memory images, and
// trace streams. These tests are the proof obligation behind
// Config.Compiled being excluded from the result-cache key.

// engineConfigs are the policy points the two-mode comparison quantifies
// over: the baseline, both SI modes (yield exercises the FFLen vs
// FFLenYieldInert table split), DWS (eager selection stresses the
// ffStable gate), and randomized activation order (per-divergence RNG
// draws must happen on identical cycles in both modes).
func engineConfigs() map[string]config.Config {
	rnd := config.Default().WithSI(true, config.TriggerHalfStalled)
	rnd.Order = config.OrderRandom
	return map[string]config.Config{
		"baseline": config.Default(),
		"sos":      config.Default().WithSI(false, config.TriggerAnyStalled),
		"both":     config.Default().WithSI(true, config.TriggerHalfStalled),
		"dws":      config.Default().WithDWS(),
		"random":   rnd,
	}
}

// interpreted returns the configuration with the compiled engine
// disabled: the per-cycle interpreter, the reference these tests hold
// the compiled engine to.
func interpreted(cfg config.Config) config.Config {
	cfg.Compiled = false
	return cfg
}

// TestCompiledMatchesInterpreted runs every differential workload under
// every engine configuration in both execution modes and requires
// bit-identical counters, derived metrics, and final memory images.
func TestCompiledMatchesInterpreted(t *testing.T) {
	for _, w := range diffWorkloads(t) {
		for cname, cfg := range engineConfigs() {
			w, cfg := w, cfg
			t.Run(w.name+"/"+cname, func(t *testing.T) {
				t.Parallel()
				cfg.Compiled = true
				cRes, cFP := runWith(t, w, cfg, 0)
				iRes, iFP := runWith(t, w, interpreted(cfg), 0)
				if cRes.Counters != iRes.Counters {
					t.Errorf("counters diverge:\n  compiled    %+v\n  interpreted %+v",
						cRes.Counters, iRes.Counters)
				}
				if cRes.Derived() != iRes.Derived() {
					t.Errorf("derived metrics diverge:\n  compiled    %+v\n  interpreted %+v",
						cRes.Derived(), iRes.Derived())
				}
				if cFP != iFP {
					t.Errorf("final memory images diverge: compiled %#x, interpreted %#x",
						cFP, iFP)
				}
			})
		}
	}
}

// TestCompiledMatchesInterpretedProperty extends the comparison to the
// randomized divergent corpus (the deterministic property-test
// generator behind FuzzRun): generated kernels full of BSSY/BSYNC
// regions, lane-divergent loops, BRX dispatches, and scoreboarded
// loads must retire identically in both modes under every SI policy.
func TestCompiledMatchesInterpretedProperty(t *testing.T) {
	cfgs := siConfigs()
	cfgs["baseline"] = config.Default()
	cfgs["dws"] = config.Default().WithDWS()
	for seed := int64(0); seed < 6; seed++ {
		data := propBytes(seed, 48, true)
		prog, err := fuzzProgram(data[1:])
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for cname, cfg := range cfgs {
			cfg.Compiled = true
			cRes := propRun(t, cfg, prog, data[0], 0)
			iRes := propRun(t, interpreted(cfg), prog, data[0], 0)
			if cRes.Counters != iRes.Counters {
				t.Errorf("seed %d %s: counters diverge:\n  compiled    %+v\n  interpreted %+v",
					seed, cname, cRes.Counters, iRes.Counters)
			}
		}
	}
}

// TestCompiledTraceMatchesInterpreted asserts the exported trace
// stream — event sequence, drop count, histogram set — is identical in
// both modes. With a recorder attached the compiled engine disables
// fast-forward and steps cycle by cycle, so every KindIssue/KindStall
// event is emitted at exactly the interpreter's cycle.
func TestCompiledTraceMatchesInterpreted(t *testing.T) {
	mk := func() (*sm.Kernel, error) { return workload.Microbench(workload.DefaultMicrobench(4)) }
	traced := func(compiled bool) *trace.Recorder {
		rec := trace.NewRecorder()
		cfg := config.Default().WithSI(true, config.TriggerHalfStalled)
		cfg.Compiled = compiled
		cfg.Trace = rec
		k, err := mk()
		if err != nil {
			t.Fatalf("build kernel: %v", err)
		}
		if _, err := RunWorkers(cfg, k, 0); err != nil {
			t.Fatalf("RunWorkers(compiled=%v): %v", compiled, err)
		}
		return rec
	}
	comp := traced(true)
	interp := traced(false)

	if comp.Len() == 0 {
		t.Fatal("compiled run recorded no events; trace comparison is vacuous")
	}
	if comp.Len() != interp.Len() {
		t.Fatalf("event counts diverge: compiled %d, interpreted %d", comp.Len(), interp.Len())
	}
	if comp.Dropped() != interp.Dropped() {
		t.Errorf("dropped counts diverge: compiled %d, interpreted %d",
			comp.Dropped(), interp.Dropped())
	}
	ce, ie := comp.Events(), interp.Events()
	for i := range ce {
		if ce[i] != ie[i] {
			t.Fatalf("event %d diverges:\n  compiled    %s\n  interpreted %s", i, ce[i], ie[i])
		}
	}
	ch, ih := comp.Histograms(), interp.Histograms()
	if len(ch) != len(ih) {
		t.Fatalf("histogram counts diverge: compiled %d, interpreted %d", len(ch), len(ih))
	}
	for i := range ch {
		if ch[i].String() != ih[i].String() {
			t.Errorf("histogram %d diverges:\n  compiled:\n%s\n  interpreted:\n%s",
				i, ch[i], ih[i])
		}
	}
}

// TestCompiledOncePerRun asserts the compile pass is cached at the
// Program: a whole-device run across multiple SMs (each SM constructs
// its own execution state from the same kernel) lowers the program
// exactly once.
func TestCompiledOncePerRun(t *testing.T) {
	k, err := workload.Microbench(workload.DefaultMicrobench(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default() // 2 SMs, compiled by default
	if got := k.Program.CompileCount(); got != 0 {
		t.Fatalf("program pre-compiled: CompileCount = %d before the run", got)
	}
	if _, err := RunWorkers(cfg, k, 0); err != nil {
		t.Fatal(err)
	}
	if got := k.Program.CompileCount(); got != 1 {
		t.Errorf("CompileCount after a %d-SM run = %d, want 1", cfg.NumSMs, got)
	}
}
