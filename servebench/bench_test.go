package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"subwarpsim/internal/admission"
	"subwarpsim/internal/server"
)

// repoRoot is the repository root as seen from this package's tests.
const repoRoot = ".."

func testCorpus(t *testing.T) *corpus {
	t.Helper()
	c, err := loadCorpus(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// requestList renders a generator's set-up requests and its first n
// timed requests as JSON.
func requestList(t *testing.T, workload string, seed int64, n int) []byte {
	t.Helper()
	g, err := newGenerator(workload, seed, testCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	reqs := g.warm()
	for i := 0; i < n; i++ {
		req := g.next()
		req.Index = i
		reqs = append(reqs, req)
	}
	return mustJSON(reqs)
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, wl := range workloadNames {
		if !bytes.Equal(requestList(t, wl, 7, 300), requestList(t, wl, 7, 300)) {
			t.Errorf("%s: seed 7 gave two different request lists", wl)
		}
	}
}

func TestDifferentSeedDifferentRequests(t *testing.T) {
	for _, wl := range workloadNames {
		if bytes.Equal(requestList(t, wl, 7, 300), requestList(t, wl, 8, 300)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request list", wl)
		}
	}
}

func TestColdSpecsDistinct(t *testing.T) {
	g, _ := newGenerator(wlJobsCold, 3, nil)
	seen := map[server.JobSpec]bool{}
	for _, req := range g.warm() {
		seen[*req.Entries[0].Job] = true
	}
	families := map[string]int{}
	const n = 3000
	for i := 0; i < n; i++ {
		sp := *g.next().Entries[0].Job
		if seen[sp] {
			t.Fatalf("request %d repeats spec %+v", i, sp)
		}
		seen[sp] = true
		if !sp.SI && (sp.Trigger != "" || sp.Yield) {
			t.Fatalf("spec %+v sets SI knobs without SI, which would alias another spec's key", sp)
		}
		families[family(sp)]++
	}
	// Every 100 requests hold 40 apps, 30 generator and 30 microbench
	// specs.
	if families["app"] != 40*n/100 || families["gen"] != 30*n/100 || families["micro"] != 30*n/100 {
		t.Errorf("family mix %v, want 40/30/30 per 100", families)
	}
}

func TestHotWorkingSetFitsLRU(t *testing.T) {
	g, _ := newGenerator(wlJobsHot, 5, nil)
	hot := g.(*hotGen)
	if len(hot.set) != hotSetSize {
		t.Fatalf("working set has %d specs, want %d", len(hot.set), hotSetSize)
	}
	distinct := map[server.JobSpec]bool{}
	for _, sp := range hot.set {
		distinct[sp] = true
	}
	// A run adds one drift spec per driftEvery requests; even a long
	// run's worth must fit beside the working set.
	const requests = 100_000
	hits := 0
	for i := 0; i < requests; i++ {
		e := g.next().Entries[0]
		distinct[*e.Job] = true
		if e.Class == classHit {
			hits++
		}
	}
	if len(distinct) > lruEntries {
		t.Errorf("%d distinct specs do not fit the %d-entry LRU", len(distinct), lruEntries)
	}
	if frac := float64(hits) / requests; frac < 0.99 {
		t.Errorf("only %.4f of requests target the warmed working set, want >= 0.99", frac)
	}
}

func TestHostileEntriesHaveExpectedStatus(t *testing.T) {
	c := testCorpus(t)
	for _, h := range c.hostile {
		if h.want != 400 && h.want != 422 {
			t.Errorf("%s: expected status %d, want 400 or 422", h.name, h.want)
		}
	}
	g, _ := newGenerator(wlSubmitMix, 11, c)
	hostile := 0
	for i := 0; i < 800; i++ {
		e := g.next().Entries[0]
		if e.Hostile == "" {
			if e.Want != 200 {
				t.Fatalf("request %d: well-formed program expects %d", i, e.Want)
			}
			continue
		}
		hostile++
		if want, ok := hostileWant[e.Hostile]; !ok || e.Want != want {
			t.Fatalf("request %d: hostile %s expects %d, recorded %d (%v)", i, e.Hostile, e.Want, want, ok)
		}
	}
	if hostile != 800/hostileEach {
		t.Errorf("%d hostile requests in 800, want %d", hostile, 800/hostileEach)
	}
}

// TestTemplatesPassAdmission checks that every new program the
// submit-mix generator writes is accepted by production admission, so
// its expected 200 is right.
func TestTemplatesPassAdmission(t *testing.T) {
	g, _ := newGenerator(wlSubmitMix, 13, testCorpus(t))
	for i := 0; i < 400; i++ {
		e := g.next().Entries[0]
		if e.Hostile != "" {
			continue
		}
		sp := e.Submit
		if _, err := admission.ValidateSource(sp.Name, sp.Assembly, admission.Limits{MemFootprintBytes: sp.MemFootprintBytes}); err != nil {
			t.Fatalf("request %d (%s) rejected: %v\n%s", i, sp.Name, err, sp.Assembly)
		}
	}
}

func resultBody(t *testing.T, key string, instrs, idle int64) []byte {
	t.Helper()
	res := server.JobResult{Key: key, Workload: "micro/8", Blocks: 8}
	res.Counters.IssuedInstrs = instrs
	res.Counters.IdleCycles = idle
	res.Counters.IdleLoadCycles = idle
	return mustJSON(res)
}

func TestOracleFailsOnWrongCounter(t *testing.T) {
	key := strings.Repeat("ab", 32)
	sp := server.JobSpec{Microbench: 8}
	req := request{Path: "/v1/jobs", Entries: []entry{{Job: &sp, Class: classAny, Want: 200}}}

	o := newOracle(1)
	if ok, bad := o.check(req, 200, resultBody(t, key, 100, 10)); ok != 1 || bad != 0 {
		t.Fatalf("first result rejected: %v", o.failures)
	}
	if ok, bad := o.check(req, 200, resultBody(t, key, 100, 10)); ok != 1 || bad != 0 {
		t.Fatalf("identical result rejected: %v", o.failures)
	}
	if ok, bad := o.check(req, 200, resultBody(t, key, 101, 10)); ok != 0 || bad != 1 {
		t.Fatal("a result whose counters differ from the first for its key passed")
	}

	broken := server.JobResult{Key: key, Workload: "micro/8", Blocks: 8}
	broken.Counters.IdleCycles = 10
	broken.Counters.IdleLoadCycles = 9
	if ok, bad := newOracle(1).check(req, 200, mustJSON(broken)); ok != 0 || bad != 1 {
		t.Fatal("a result whose idle buckets do not sum to IdleCycles passed")
	}
	if ok, bad := newOracle(1).check(req, 500, []byte(`{"error":"x"}`)); ok != 0 || bad != 1 {
		t.Fatal("a 500 passed")
	}
}

// runCommand runs the whole command for one short window.
func runCommand(t *testing.T, workload string, corrupt func(*server.JobResult)) (int, map[string]any) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "1", "--seconds", "1", "--root", repoRoot},
		&out, &errOut, corrupt)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not JSON: %v\nstdout:\n%s\nstderr:\n%s", err, out.String(), errOut.String())
	}
	return code, last
}

func TestRunPassesOnCleanRun(t *testing.T) {
	code, last := runCommand(t, wlSubmitMix, nil)
	if code != 0 || last["correct"] != true {
		t.Fatalf("exit %d, result %v", code, last)
	}
	metrics := last["metrics"].(map[string]any)
	for _, name := range []string{"throughput_rps", "latency_p50_ms", "latency_p95_ms", "sim_warp_instrs_per_s",
		"sim_block_cycles_per_s", "setup_s", "peak_rss_mb"} {
		if _, ok := metrics[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
}

func TestRunExitsNonzeroOnInjectedMismatch(t *testing.T) {
	// One extra issued instruction on every result: hits still equal
	// their misses, so only the re-simulation can catch it.
	code, last := runCommand(t, wlSubmitMix, func(r *server.JobResult) { r.Counters.IssuedInstrs++ })
	if code == 0 || last["correct"] != false {
		t.Fatalf("injected wrong counter: exit %d, result %v", code, last)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope", "--root", repoRoot}, &out, &errOut, nil); code == 0 {
		t.Error("unknown workload accepted")
	}
	if code := run([]string{"--workload", wlJobsCold, "--root", t.TempDir()}, &out, &errOut, nil); code == 0 {
		t.Error("a directory without the repository accepted")
	}
	if out.Len() != 0 {
		t.Errorf("refused runs printed a result: %s", out.String())
	}
}

// TestTracedRunReportsEveryLayerMetric runs the traced mode and checks
// its metrics against BENCHMARK.json's per-layer list, name and unit.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", wlClusterBatch, "--seed", "2", "--seconds", "1", "--trace", "1",
		"--root", repoRoot}, &out, &errOut, nil)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct bool
		Metrics map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || code != 0 || !last.Correct {
		t.Fatalf("exit %d, %v\n%s\n%s", code, err, out.String(), errOut.String())
	}
	if len(last.Metrics) != len(spec.PerLayer) {
		t.Errorf("%d metrics reported, BENCHMARK.json lists %d", len(last.Metrics), len(spec.PerLayer))
	}
	for _, m := range spec.PerLayer {
		if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
}
