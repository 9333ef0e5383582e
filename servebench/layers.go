package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"subwarpsim/internal/admission"
	"subwarpsim/internal/cluster"
	"subwarpsim/internal/gpu"
	"subwarpsim/internal/isa"
	"subwarpsim/internal/obs"
	"subwarpsim/internal/server"
	"subwarpsim/internal/simcache"
	"subwarpsim/internal/sm"
)

// span is one interval recorded by the benchmark, or copied from a
// server trace, kept in memory until the run ends.
type span struct {
	Name    string `json:"name"`
	Trace   string `json:"trace_id"`
	Parent  string `json:"parent,omitempty"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
}

type hopRecord struct {
	parent, id, peer string
	spec             server.JobSpec
	iv               interval
}

// tracer keeps the benchmark's own spans: one per client call and one
// per peer hop. A nil tracer records nothing.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
	hops  []hopRecord
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) enabled() bool { return t != nil }

func (t *tracer) span(name, id, parent string, start, end time.Time) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Trace: id, Parent: parent,
		StartUS: start.Sub(t.origin).Microseconds(), DurUS: end.Sub(start).Microseconds()})
	t.mu.Unlock()
}

func (t *tracer) hop(parent, id, peer string, spec server.JobSpec, start, end time.Time) {
	t.span("hop "+peer, id, parent, start, end)
	t.mu.Lock()
	t.hops = append(t.hops, hopRecord{parent: parent, id: id, peer: peer, spec: spec, iv: interval{start, end}})
	t.mu.Unlock()
}

// hopsOf groups the recorded hops by the client trace that caused them.
func (t *tracer) hopsOf() map[string][]hopRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]hopRecord{}
	for _, h := range t.hops {
		out[h.parent] = append(out[h.parent], h)
	}
	return out
}

// snap is a reading of the servers' own counters, taken before and
// after a traced window.
type snap struct {
	jobs, coalesced, rejected, limited int64
	hits, misses                       int64
	stages                             map[string]int64
	steals, reroutes, fallbacks        float64
}

func (t *target) snapshot() snap {
	s := snap{stages: map[string]int64{}}
	for i, srv := range t.servers {
		m := srv.MetricsSnapshot()
		s.jobs += m.JobsTotal
		s.coalesced += m.Coalesced
		s.rejected += m.Rejected
		s.limited += m.RateLimited
		cs := t.caches[i].Stats()
		s.hits += cs.Hits
		s.misses += cs.Misses
		for _, st := range obs.Stages {
			s.stages[st] += t.observer[i].StageHistogram(st).Count()
		}
	}
	if t.coordObs != nil {
		ns := server.MetricsNamespace
		s.steals = promValue(t.coordObs.Reg, ns+"_cluster_steals_total")
		s.reroutes = promValue(t.coordObs.Reg, ns+"_cluster_reroutes_total")
		s.fallbacks = promValue(t.coordObs.Reg, ns+"_cluster_local_fallback_total")
	}
	return s
}

func traceID(r request) string {
	if r.Index < 0 {
		return fmt.Sprintf("sb-w%d", -r.Index)
	}
	return fmt.Sprintf("sb-%d", r.Index)
}

// perLayer is the traced run: an untraced window first (its throughput
// is the base of the tracing overhead, and it yields the request list
// and the runtime counters), then a replay of the same requests with
// spans recorded, then the layer probes.
func (b *bench) perLayer() error {
	un, err := b.endToEnd(true)
	if err != nil {
		return err
	}
	untraced := b.metrics
	b.metrics = map[string]metric{}
	for _, n := range []string{"throughput_rps", "latency_p50_ms", "latency_p95_ms"} {
		fmt.Fprintf(b.out, "untraced %s %.6f %s\n", n, untraced[n].Value, untraced[n].Unit)
	}
	ops := float64(un.ok + un.failed)
	b.set("failed_frac", ratio(float64(un.failed), ops), "ratio")
	b.set("runtime.alloc_kb_per_op", ratio(un.rt[1].allocBytes-un.rt[0].allocBytes, ops)/1024, "KB")
	b.set("runtime.gc_cpu_frac", ratio(un.rt[1].gcCPU-un.rt[0].gcCPU, un.rt[1].totalCPU-un.rt[0].totalCPU), "ratio")

	tr := newTracer()
	g, err := newGenerator(b.workload, b.seed, b.corpus)
	if err != nil {
		return err
	}
	o := newOracle(b.seed)
	o.corrupt = b.corrupt
	perReq := 1
	if b.workload == wlClusterBatch {
		perReq = batchSize
	}
	t := newTarget(b.workload, (len(un.requests)+64)*perReq+64, tr)
	b.warm(t, g, o, tr, traceID)
	before := t.snapshot()
	o.resetWork()
	results, wall := window(t.handler, b.clients, replayOf(un.requests), o.check, traceID, tr, true)
	after := t.snapshot()
	ok, failed := 0, countFailed(results)
	for _, r := range results {
		ok += r.ok
	}
	b.attempted += ok + failed
	b.failed += failed
	b.set("obs.tracing_overhead_frac", 1-ratio(float64(ok)/wall.Seconds(), untraced["throughput_rps"].Value), "ratio")
	fmt.Fprintf(b.out, "traced replay: %d requests in %.3fs\n", len(results), wall.Seconds())

	self := b.serverLayers(t, tr, results, before, after)
	if b.workload == wlClusterBatch {
		b.clusterLayers(tr, results, before, after)
	}
	b.absorb(o, o.verify(), t.shutdown())

	b.probeLayers(un.requests)
	if b.workload != wlClusterBatch {
		b.clusterProbe()
	}
	b.writeTrace(tr, self)
	return nil
}

// serverLayers reads each replayed request's server-side trace (the
// spans Server records per stage, retained in Observer.Traces under
// the X-Trace-ID the benchmark sent) and reports the stage latencies
// and the fraction counters. The stage histograms hold the same
// samples in power-of-two buckets; the traces give them at microsecond
// resolution, and their counts must agree.
func (b *bench) serverLayers(t *target, tr *tracer, results []result, before, after snap) map[string]float64 {
	stages := map[string][]float64{}
	var clientSelf, requestSelf []float64
	hops := tr.hopsOf()
	peerObs := map[string]*obs.Observer{}
	for i, name := range peerNames {
		if i < len(t.observer) {
			peerObs[name] = t.observer[i]
		}
	}
	// readServer copies one server trace into the tracer and returns
	// its request interval.
	readServer := func(o *obs.Observer, id, parent string) (interval, bool) {
		st := o.Traces.Get(id)
		if st == nil {
			return interval{}, false
		}
		var req interval
		var kids []interval
		for _, sp := range st.Spans() {
			iv := interval{st.Start.Add(time.Duration(sp.StartUS) * time.Microsecond),
				st.Start.Add(time.Duration(sp.StartUS+sp.DurUS) * time.Microsecond)}
			tr.span(sp.Name, id, parent, iv.start, iv.end)
			if strings.HasPrefix(sp.Name, "request ") || strings.HasPrefix(sp.Name, "coordinator ") {
				req = iv
				continue
			}
			if strings.HasPrefix(sp.Name, "peer ") {
				continue
			}
			stages[sp.Name] = append(stages[sp.Name], float64(sp.DurUS))
			kids = append(kids, iv)
		}
		if req.end.IsZero() {
			return interval{}, false
		}
		if len(kids) > 0 {
			requestSelf = append(requestSelf, us(req.end.Sub(req.start)-covered(req, kids)))
		}
		return req, true
	}
	missing := 0
	for _, r := range results {
		id := traceID(r.req)
		client := interval{r.start, r.start.Add(r.dur)}
		var req interval
		var found bool
		if t.coordObs != nil {
			req, found = readServer(t.coordObs, id, "")
			for _, h := range hops[id] {
				if _, ok := readServer(peerObs[h.peer], h.id, id); !ok {
					missing++
				}
			}
		} else {
			req, found = readServer(t.observer[0], id, "")
		}
		if !found {
			missing++
			continue
		}
		clientSelf = append(clientSelf, us(client.end.Sub(client.start)-covered(client, []interval{req})))
	}
	for _, st := range obs.Stages {
		if got, want := len(stages[st]), after.stages[st]-before.stages[st]; int64(got) != want {
			fmt.Fprintf(b.out, "note: stage %s: %d spans in retained traces, %d histogram samples\n", st, got, want)
		}
	}
	if missing > 0 {
		fmt.Fprintf(b.out, "note: %d server traces were not retained\n", missing)
	}
	for _, st := range []string{"admit", "cache", "queue", "exec", "respond"} {
		b.set("server."+st+"_us_p50", wholeUSQuantile(stages[st], 0.5), "us")
	}
	b.set("server.queue_us_p95", wholeUSQuantile(stages["queue"], 0.95), "us")
	b.set("server.request_self_us_p50", wholeUSQuantile(requestSelf, 0.5), "us")
	b.set("bench.client_self_us_p50", median(clientSelf), "us")
	jobs := float64(after.jobs - before.jobs)
	limited := float64(after.limited - before.limited)
	b.set("server.coalesced_frac", ratio(float64(after.coalesced-before.coalesced), jobs), "ratio")
	b.set("server.rejected_frac", ratio(float64(after.rejected-before.rejected)+limited, jobs+limited), "ratio")
	hits, misses := float64(after.hits-before.hits), float64(after.misses-before.misses)
	b.set("simcache.hit_ratio", ratio(hits, hits+misses), "ratio")
	fmt.Fprintf(b.out, "server stage samples: admit %d, cache %d, queue %d, exec %d, respond %d\n",
		len(stages["admit"]), len(stages["cache"]), len(stages["queue"]), len(stages["exec"]), len(stages["respond"]))
	return map[string]float64{
		"bench.client":   median(clientSelf),
		"server.request": median(requestSelf),
	}
}

// clusterLayers reports the coordinator's layer: peer hops timed in the
// benchmark's RoundTripper, coordinator self time (the client's wall
// time minus the part peer hops cover), ring affinity, and the steal,
// reroute and fallback counters from the coordinator's registry.
func (b *bench) clusterLayers(tr *tracer, results []result, before, after snap) {
	hops := tr.hopsOf()
	ring := cluster.NewRing(peerNames, 64)
	owner := map[server.JobSpec]string{}
	var hopMS, selfMS []float64
	affine, total := 0, 0
	for _, r := range results {
		client := interval{r.start, r.start.Add(r.dur)}
		var ivs []interval
		for _, h := range hops[traceID(r.req)] {
			ivs = append(ivs, h.iv)
			hopMS = append(hopMS, ms(h.iv.end.Sub(h.iv.start)))
			o, ok := owner[h.spec]
			if !ok {
				if key, err := h.spec.CacheKey(); err == nil {
					o = ring.Preference(key.RouteHash())[0]
				}
				owner[h.spec] = o
			}
			total++
			if o == h.peer {
				affine++
			}
		}
		selfMS = append(selfMS, ms(client.end.Sub(client.start)-covered(client, ivs)))
	}
	b.set("cluster.peer_hop_ms_p50", median(hopMS), "ms")
	b.set("cluster.coord_self_ms_p50", median(selfMS), "ms")
	b.set("cluster.affinity_hit_ratio", ratio(float64(affine), float64(total)), "ratio")
	b.set("cluster.steals", after.steals-before.steals, "count")
	b.set("cluster.reroutes", after.reroutes-before.reroutes, "count")
	b.set("cluster.fallbacks", after.fallbacks-before.fallbacks, "count")
	fmt.Fprintf(b.out, "cluster: %d peer hops over %d batches\n", total, len(results))
}

// clusterProbe gives the cluster layer metrics a value on workloads
// that do not route through the coordinator: two batches of the probe
// kit (the second all repeats) through a fresh two-peer cluster.
func (b *bench) clusterProbe() {
	tr := newTracer()
	t := newTarget(wlClusterBatch, 256, tr)
	specs := append(probeKit(), server.JobSpec{Microbench: 16, LatencyCycles: kitLatency})
	first := batchRequest(specs, []string{classMiss, classMiss, classMiss, classMiss})
	second := batchRequest(specs, []string{classAny, classAny, classAny, classAny})
	second.Index = 1
	o := newOracle(b.seed)
	o.corrupt = b.corrupt
	before := t.snapshot()
	results, _ := window(t.handler, 1, replayOf([]request{first, second}), o.check, traceID, tr, true)
	after := t.snapshot()
	b.failed += countFailed(results)
	b.clusterLayers(tr, results, before, after)
	b.absorb(o, 0, t.shutdown())
}

// probeSample bounds how many of a run's distinct requests the layer
// probes simulate; the cheaper layers are timed on every distinct
// request.
const probeSample = 24

// layerAcc accumulates probe timings.
type layerAcc struct {
	config, keyof, get, compile, encode, assemble, validate, killMS []float64
	buildMS, buildKB, runMS                                         map[string][]float64
	runNS, instrs, blockCycles                                      float64
	validated, accepted                                             int
}

func family(sp server.JobSpec) string {
	switch {
	case sp.App != "":
		return "app"
	case sp.Workload != "":
		return "gen"
	}
	return "micro"
}

// probeLayers times the public layer calls one by one for each distinct
// request of the run, and for a fixed probe kit: Config, BuildKernel,
// KeyOf, Cache.Get and Program.Compiled for jobs; Assemble,
// ValidateSource and Compiled for submissions. RunWorkers and JSON
// encode run on the kit and a seeded sample of probeSample requests.
// This splits the server's admit stage into config, build and key, and
// its exec stage into compile and simulate.
func (b *bench) probeLayers(reqs []request) {
	seen := map[string]bool{}
	var distinct []entry
	for _, r := range reqs {
		for _, e := range r.Entries {
			k := string(mustJSON(e))
			if !seen[k] {
				seen[k] = true
				distinct = append(distinct, e)
			}
		}
	}
	simulate := make([]bool, len(distinct))
	r := rand.New(rand.NewSource(b.seed ^ 0x9a0be))
	for _, i := range r.Perm(len(distinct))[:min(probeSample, len(distinct))] {
		simulate[i] = true
	}
	for _, sp := range probeKit() {
		sp := sp
		distinct = append(distinct, entry{Job: &sp})
		simulate = append(simulate, true)
	}
	for _, n := range b.corpus.examples[:1] {
		distinct = append(distinct, entry{Submit: &server.SubmitSpec{Name: n.name, Assembly: n.src, Warps: 32, WarpsPerCTA: 2,
			MaxCycles: subMaxCycles, MaxInstrs: subMaxInstrs, MemFootprintBytes: subFootprint}})
		simulate = append(simulate, true)
	}
	for _, h := range b.corpus.hostile {
		if h.name == "infinite_loop.asm" || h.name == "brx.asm" {
			distinct = append(distinct, entry{Submit: &server.SubmitSpec{Name: h.name, Assembly: h.src, Warps: 8, WarpsPerCTA: 2,
				MaxCycles: hostileMaxCycles, MaxInstrs: hostileMaxInstrs, MemFootprintBytes: hostileFootprint}, Hostile: h.name})
			simulate = append(simulate, true)
		}
	}
	acc := &layerAcc{buildMS: map[string][]float64{}, buildKB: map[string][]float64{}, runMS: map[string][]float64{}}
	for i, e := range distinct {
		var err error
		if e.Job != nil {
			err = acc.probeJob(*e.Job, simulate[i])
		} else {
			err = acc.probeSubmit(*e.Submit, simulate[i])
		}
		if err != nil {
			b.failed++
			b.notes = append(b.notes, "probe: "+err.Error())
		}
	}
	for _, f := range []string{"app", "gen", "micro"} {
		b.set("workload.build_ms."+f, median(acc.buildMS[f]), "ms")
		b.set("workload.build_alloc_kb."+f, median(acc.buildKB[f]), "KB")
		b.set("gpu.run_ms."+f, median(acc.runMS[f]), "ms")
	}
	b.set("server.config_us_p50", median(acc.config), "us")
	b.set("server.encode_us_p50", median(acc.encode), "us")
	b.set("simcache.keyof_us_p50", median(acc.keyof), "us")
	b.set("simcache.get_us_p50", median(acc.get), "us")
	b.set("isa.assemble_us_p50", median(acc.assemble), "us")
	b.set("isa.compile_us_p50", median(acc.compile), "us")
	b.set("admission.validate_us_p50", median(acc.validate), "us")
	b.set("admission.accept_ratio", ratio(float64(acc.accepted), float64(acc.validated)), "ratio")
	b.set("gpu.ns_per_warp_instr", ratio(acc.runNS, acc.instrs), "ns")
	b.set("gpu.ns_per_block_cycle", ratio(acc.runNS, acc.blockCycles), "ns")
	b.set("gpu.budget_kill_ms", median(acc.killMS), "ms")
	simulated := 0
	for _, sim := range simulate {
		if sim {
			simulated++
		}
	}
	fmt.Fprintf(b.out, "probes: %d distinct requests with the kit, %d of them simulated\n", len(distinct), simulated)
}

func (a *layerAcc) addRun(d time.Duration, res gpu.Result) {
	a.runNS += float64(d)
	a.instrs += float64(res.Counters.IssuedInstrs)
	a.blockCycles += float64(res.Counters.Cycles) * float64(res.Blocks)
}

func (a *layerAcc) probeJob(sp server.JobSpec, simulate bool) error {
	const configReps, getReps, encodeReps = 100, 1000, 20
	start := time.Now()
	for i := 0; i < configReps; i++ {
		if _, err := sp.Config(); err != nil {
			return err
		}
	}
	a.config = append(a.config, us(time.Since(start))/configReps)
	cfg, _ := sp.Config()

	fam := family(sp)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start = time.Now()
	k, err := sp.BuildKernel()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	a.buildMS[fam] = append(a.buildMS[fam], ms(d))
	a.buildKB[fam] = append(a.buildKB[fam], float64(m1.TotalAlloc-m0.TotalAlloc)/1024)

	start = time.Now()
	key := simcache.KeyOf(cfg, k, sp.WorkloadID())
	a.keyof = append(a.keyof, us(time.Since(start)))

	c := simcache.NewMemory(16)
	c.Put(key, simcache.Entry{})
	start = time.Now()
	for i := 0; i < getReps; i++ {
		c.Get(key)
	}
	a.get = append(a.get, us(time.Since(start))/getReps)

	if k.Program.CompileCount() == 0 {
		start = time.Now()
		k.Program.Compiled()
		a.compile = append(a.compile, us(time.Since(start)))
	}
	if !simulate {
		return nil
	}

	start = time.Now()
	res, err := gpu.RunWorkers(cfg, k, 1)
	d = time.Since(start)
	if err != nil {
		return fmt.Errorf("%s: %v", sp.WorkloadID(), err)
	}
	a.runMS[fam] = append(a.runMS[fam], ms(d))
	a.addRun(d, res)

	jr := server.JobResult{Key: key.String(), Workload: sp.WorkloadID(), Policy: res.Config.PolicyName(),
		Blocks: res.Blocks, Counters: res.Counters, Derived: res.Derived()}
	start = time.Now()
	for i := 0; i < encodeReps; i++ {
		if _, err := json.MarshalIndent(jr, "", "  "); err != nil {
			return err
		}
	}
	a.encode = append(a.encode, us(time.Since(start))/encodeReps)
	return nil
}

func (a *layerAcc) probeSubmit(sp server.SubmitSpec, simulate bool) error {
	start := time.Now()
	_, asmErr := isa.Assemble(sp.Name, sp.Assembly)
	a.assemble = append(a.assemble, us(time.Since(start)))

	start = time.Now()
	_, err := admission.ValidateSource(sp.Name, sp.Assembly, admission.Limits{MemFootprintBytes: sp.MemFootprintBytes})
	a.validate = append(a.validate, us(time.Since(start)))
	a.validated++
	if asmErr != nil || err != nil {
		return nil
	}
	a.accepted++

	fresh, _ := isa.Assemble(sp.Name, sp.Assembly)
	start = time.Now()
	fresh.Compiled()
	a.compile = append(a.compile, us(time.Since(start)))
	if !simulate {
		return nil
	}

	cfg, k, err := submitKernel(sp)
	if err != nil {
		return err
	}
	start = time.Now()
	res, err := gpu.RunWorkers(cfg, k, 1)
	d := time.Since(start)
	var be *sm.BudgetError
	var de *sm.DeadlockError
	switch {
	case errors.As(err, &be):
		a.killMS = append(a.killMS, ms(d))
	case errors.As(err, &de):
	case err != nil:
		return fmt.Errorf("%s: %v", sp.Name, err)
	default:
		a.addRun(d, res)
	}
	return nil
}

// writeTrace writes the run's spans and layer self times under
// .bench_build/traces once the run has ended.
func (b *bench) writeTrace(tr *tracer, self map[string]float64) {
	dir := filepath.Join(b.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(b.out, "note: cannot write spans: %v\n", err)
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
	tr.mu.Lock()
	body := mustJSON(map[string]any{
		"workload":     b.workload,
		"seed":         b.seed,
		"self_us_p50":  self,
		"layer_metric": b.metrics,
		"spans":        tr.spans,
	})
	tr.mu.Unlock()
	if err := os.WriteFile(path, body, 0o644); err != nil {
		fmt.Fprintf(b.out, "note: cannot write spans: %v\n", err)
		return
	}
	fmt.Fprintf(b.out, "spans: %d written to %s\n", len(tr.spans), path)
}
