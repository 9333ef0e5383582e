// Command servebench is the serving benchmark: it drives the real
// server and cluster Handlers in process with seeded closed-loop
// workloads, checks every response, and prints end-to-end metrics (an
// untraced run) or per-layer metrics (a traced run). See README.md.
//
//	servebench --workload jobs-cold --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every response and every check was correct.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"subwarpsim/internal/server"
)

// workloadClients is each workload's closed-loop client count.
var workloadClients = map[string]int{
	wlJobsCold:     2,
	wlJobsHot:      2,
	wlSubmitMix:    2, // one per tenant
	wlClusterBatch: 1,
}

// setupReps is how many times a run builds and warms its servers; it
// reports the median as setup_s and times the last build.
const setupReps = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type bench struct {
	workload string
	seed     int64
	seconds  int
	clients  int
	root     string
	corpus   *corpus
	out      io.Writer
	corrupt  func(*server.JobResult)

	attempted, failed int
	notes             []string
	metrics           map[string]metric
}

func (b *bench) set(name string, v float64, unit string) { b.metrics[name] = metric{v, unit} }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil)) }

// run is the whole command; corrupt, when set, is handed to every
// oracle (the tests inject a wrong counter through it).
func run(args []string, stdout, stderr io.Writer, corrupt func(*server.JobResult)) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	root := fs.String("root", ".", "repository root (holds examples/ and internal/)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	clients, ok := workloadClients[*wl]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "servebench: unknown workload %q (want one of %s)\n", *wl, strings.Join(workloadNames, ", "))
		return 2
	case *seconds < 1 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(stderr, "servebench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	case clients > runtime.NumCPU():
		fmt.Fprintf(stderr, "servebench: %s needs %d clients but nproc is %d; refusing to oversubscribe\n",
			*wl, clients, runtime.NumCPU())
		return 2
	}
	c, err := loadCorpus(*root)
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 2
	}
	b := &bench{workload: *wl, seed: *seed, seconds: *seconds, clients: clients, root: *root, corpus: c,
		out: stdout, corrupt: corrupt, metrics: map[string]metric{}}
	env := stamp(*root, *seed)
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envJSON)
	fmt.Fprintf(stdout, "workload %s: closed loop, %d client(s), seed %d, %ds window, trace=%d\n",
		*wl, clients, *seed, *seconds, *trace)

	if *trace == 1 {
		err = b.perLayer()
	} else {
		_, err = b.endToEnd(false)
	}
	if err != nil {
		fmt.Fprintf(stderr, "servebench: %v\n", err)
		return 2
	}
	correct := b.failed == 0
	for _, n := range b.notes {
		fmt.Fprintf(stdout, "MISMATCH %s\n", n)
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %-32s %16.6f %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	final, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": b.attempted,
		"failed":    b.failed,
		"metrics":   b.metrics,
	})
	fmt.Fprintln(stdout, string(final))
	if !correct {
		return 1
	}
	return 0
}

// absorb adds an oracle's notes and any extra failures (post-window
// checks, shutdown) to the run's verdict.
func (b *bench) absorb(o *oracle, extra int, notes []string) {
	b.failed += extra + len(notes)
	b.notes = append(b.notes, o.failures...)
	b.notes = append(b.notes, notes...)
	o.failures = nil
}

// warm sends a generator's set-up requests. Their failures count
// against the run like any other mismatch.
func (b *bench) warm(t *target, g generator, o *oracle, tr *tracer, traceOf func(request) string) {
	reqs := g.warm()
	for i := range reqs {
		reqs[i].Index = -1 - i
	}
	results, _ := window(t.handler, b.clients, replayOf(reqs), o.check, traceOf, tr, false)
	b.failed += countFailed(results)
}

// setUp builds and warms the workload's servers setupReps times,
// keeping the last build, and returns it with the median set-up time.
func (b *bench) setUp() (*target, generator, *oracle, float64, error) {
	var times []float64
	var t *target
	var g generator
	var o *oracle
	for rep := 0; rep < setupReps; rep++ {
		if t != nil {
			b.absorb(o, 0, t.shutdown())
		}
		start := time.Now()
		var err error
		if g, err = newGenerator(b.workload, b.seed, b.corpus); err != nil {
			return nil, nil, nil, 0, err
		}
		o = newOracle(b.seed)
		o.corrupt = b.corrupt
		t = newTarget(b.workload, 64, nil)
		b.warm(t, g, o, nil, nil)
		times = append(times, time.Since(start).Seconds())
	}
	return t, g, o, median(times), nil
}

// e2e is what an untraced window measured.
type e2e struct {
	requests   []request
	ok, failed int
	wall       time.Duration
	rt         [2]runtimeSample // Go runtime counters at the window's start and end
}

// endToEnd runs the untraced window and records the end-to-end
// metrics. keep retains the requests sent, for a replay.
func (b *bench) endToEnd(keep bool) (e2e, error) {
	t, g, o, setup, err := b.setUp()
	if err != nil {
		return e2e{}, err
	}
	fmt.Fprintf(b.out, "set-up: median %.3fs over %d builds; peak RSS so far %.1f MB\n", setup, setupReps, peakRSSMB())
	o.resetWork()
	var res e2e
	res.rt[0] = readRuntime()
	results, wall := window(t.handler, b.clients, streamFor(g, time.Now().Add(time.Duration(b.seconds)*time.Second)),
		o.check, nil, nil, keep)
	res.rt[1] = readRuntime()
	res.wall = wall

	var lat []float64
	for _, r := range results {
		res.ok += r.ok
		res.failed += r.failed
		res.requests = append(res.requests, r.req)
		lat = append(lat, ms(r.dur))
	}
	sort.Slice(res.requests, func(i, j int) bool { return res.requests[i].Index < res.requests[j].Index })
	secs := wall.Seconds()
	b.set("throughput_rps", float64(res.ok)/secs, "1/s")
	b.set("latency_p50_ms", quantile(lat, 0.50), "ms")
	b.set("latency_p95_ms", quantile(lat, 0.95), "ms")
	b.set("sim_warp_instrs_per_s", float64(o.simInstrs)/secs, "1/s")
	b.set("sim_block_cycles_per_s", float64(o.simBlockCycles)/secs, "1/s")
	b.set("setup_s", setup, "s")
	fmt.Fprintf(b.out, "window: %d requests, %d operations (%d ok, %d failed) in %.3fs; latency samples %d; cache hits %d, coalesced %d, simulated %d\n",
		len(results), res.ok+res.failed, res.ok, res.failed, secs, len(lat), o.hits, o.coalesced, o.entries-o.hits-o.coalesced)
	fmt.Fprintf(b.out, "failed_frac %.6f\n", ratio(float64(res.failed), float64(res.ok+res.failed)))

	verified := len(o.sample)
	bad := o.verify()
	fmt.Fprintf(b.out, "oracle: re-derived the key and re-simulated %d of %d distinct results\n", verified, len(o.seen))
	b.absorb(o, bad, t.shutdown())
	b.attempted += res.ok + res.failed
	b.failed += res.failed
	b.set("peak_rss_mb", peakRSSMB(), "MB")
	return res, nil
}

func countFailed(results []result) int {
	n := 0
	for _, r := range results {
		n += r.failed
	}
	return n
}

// env is the environment stamp printed with every result.
type env struct {
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
	Seed       int64  `json:"seed"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
}

func stamp(root string, seed int64) env {
	return env{
		Commit:     vcsRevision(),
		SourceSHA:  sourceHash(root),
		Seed:       seed,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
	}
}
