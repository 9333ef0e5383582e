package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"subwarpsim/internal/server"
	"subwarpsim/internal/workload"
)

// Request classes: what the oracle expects an entry's result to be.
const (
	classMiss = "miss" // 200, simulated now (cached=false)
	classHit  = "hit"  // 200, served from the cache (cached=true)
	classAny  = "any"  // 200, hit or miss
)

// entry is one operation inside a request: a catalogued job or an
// untrusted submission, with the outcome the oracle expects.
type entry struct {
	Job    *server.JobSpec    `json:"job,omitempty"`
	Submit *server.SubmitSpec `json:"submit,omitempty"`
	Class  string             `json:"class"`
	// Want is the expected HTTP status of a submission (200, 400 or
	// 422); job entries always expect 200.
	Want int `json:"want"`
	// Hostile names the corpus file a hostile submission came from.
	Hostile string `json:"hostile,omitempty"`
}

// request is one client call: the HTTP path and tenant, the exact body
// bytes, and the entries the body carries (one, or a whole batch).
type request struct {
	Index   int             `json:"index"`
	Path    string          `json:"path"`
	Tenant  string          `json:"tenant,omitempty"`
	Body    json.RawMessage `json:"body"`
	Entries []entry         `json:"entries"`
}

// generator produces a workload's inputs from its seed. warm returns
// the set-up requests sent before the timed window; next returns the
// timed stream, one request per call, and is called under a lock.
type generator interface {
	warm() []request
	next() request
}

// Workload names.
const (
	wlJobsCold     = "jobs-cold"
	wlJobsHot      = "jobs-hot"
	wlSubmitMix    = "submit-mix"
	wlClusterBatch = "cluster-batch"
)

var workloadNames = []string{wlJobsCold, wlJobsHot, wlSubmitMix, wlClusterBatch}

// Knob ranges. Timed specs draw latency_cycles from [latLo, latHi];
// set-up specs that must never collide with them sit outside it.
const (
	latLo       = 500
	latHi       = 700
	kitLatency  = 1000 // the probe kit (jobs-cold warm-up, traced-run probes)
	driftLatLo  = 2000 // jobs-hot drift specs count up from here
	driftEvery  = 128  // jobs-hot: every 128th request is a new spec
	hotSetSize  = 48   // jobs-hot working set
	hotZipfS    = 1.1  // jobs-hot popularity skew over the working set
	lruEntries  = 4096 // every server's memory LRU
	batchSize   = 16   // cluster-batch entries per request
	batchNew    = 8    // ... of which new specs
	hostileEach = 8    // submit-mix: every 8th request is hostile
)

var (
	appNames   = workload.AppNames()
	genNames   = workload.GeneratorNames()
	microSizes = []int{1, 2, 4, 8, 16, 32}
)

// slot is one deck position: which kernel to build and which
// divergence mode to run it under. The knobs are drawn per use.
type slot struct {
	family string // "app", "gen" or "micro"
	name   string
	micro  int
	mode   string // "base", "si" or "dws"
}

// latin deals every (name, mode) pair of a family once, as len(modes)
// cycles that each visit every name once in a seeded order. Name i
// takes modes[(c+off[i]) % len(modes)] in cycle c, with seeded offsets,
// so every cycle mixes the modes as well as the names.
func latin(r *rand.Rand, names, modes int) [][2]int {
	off := r.Perm(names)
	var out [][2]int
	for c := 0; c < modes; c++ {
		for _, i := range r.Perm(names) {
			out = append(out, [2]int{i, (c + off[i]) % modes})
		}
	}
	return out
}

// coldDeck deals one 100-slot pass of new specs: 40 app slots (each
// trace under base, SI, SI and DWS), 30 generator slots and 30
// microbench slots, in ten rounds of 4 app, 3 generator and 3
// microbench slots. Within a family the slots come in whole cycles over
// its names (latin), so any stretch of the stream, not just a whole
// pass, holds close to the same kernel mix. The seed picks the order
// and the knobs; the amount of work a run holds hardly depends on it.
func coldDeck(r *rand.Rand) []slot {
	appModes := []string{"base", "si", "si", "dws"}
	genModes := []string{"base", "base", "base", "si", "si", "si", "si", "dws", "dws", "dws"}
	microModes := []string{"base", "si", "si", "si", "dws"}
	var apps, gens, micros []slot
	for _, p := range latin(r, len(appNames), len(appModes)) {
		apps = append(apps, slot{family: "app", name: appNames[p[0]], mode: appModes[p[1]]})
	}
	for _, p := range latin(r, len(genNames), len(genModes)) {
		gens = append(gens, slot{family: "gen", name: genNames[p[0]], mode: genModes[p[1]]})
	}
	for _, p := range latin(r, len(microSizes), len(microModes)) {
		micros = append(micros, slot{family: "micro", micro: microSizes[p[0]], mode: microModes[p[1]]})
	}
	var d []slot
	for j := 0; j < 10; j++ {
		round := append(append(append([]slot(nil), apps[4*j:4*j+4]...), gens[3*j:3*j+3]...), micros[3*j:3*j+3]...)
		r.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		d = append(d, round...)
	}
	return d
}

func pick[T any](r *rand.Rand, xs ...T) T { return xs[r.Intn(len(xs))] }

// specFor draws the knobs for one slot. Every knob is set explicitly
// and only where it changes the configuration, so two distinct specs
// always have distinct cache keys.
func specFor(s slot, r *rand.Rand, lat int) server.JobSpec {
	var sp server.JobSpec
	switch s.family {
	case "app":
		sp.App = s.name
	case "gen":
		sp.Workload = s.name
	default:
		sp.Microbench = s.micro
	}
	switch s.mode {
	case "si":
		sp.SI = true
		sp.Trigger = pick(r, "any", "half", "all")
		sp.Yield = r.Intn(2) == 0
	case "dws":
		sp.DWS = true
	}
	sp.Policy = pick(r, "lrr", "gto", "wasp")
	sp.WarpSlots = pick(r, 4, 8)
	sp.LatencyCycles = lat
	return sp
}

// coldStream deals distinct specs from successive coldDeck passes.
type coldStream struct {
	r    *rand.Rand
	deck []slot
	pos  int
	seen map[server.JobSpec]bool
}

func newColdStream(r *rand.Rand) *coldStream {
	return &coldStream{r: r, seen: make(map[server.JobSpec]bool)}
}

func (c *coldStream) next() server.JobSpec {
	if c.pos == len(c.deck) {
		c.deck, c.pos = coldDeck(c.r), 0
	}
	s := c.deck[c.pos]
	c.pos++
	for {
		sp := specFor(s, c.r, latLo+c.r.Intn(latHi-latLo+1))
		if !c.seen[sp] {
			c.seen[sp] = true
			return sp
		}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func jobRequest(sp server.JobSpec, class string) request {
	return request{
		Path:    "/v1/jobs",
		Body:    mustJSON(sp),
		Entries: []entry{{Job: &sp, Class: class, Want: 200}},
	}
}

// probeKit is one default-knob spec per family. jobs-cold warms up
// with it (at a latency outside the timed range), and every traced run
// probes it so each layer metric has a value on every workload.
func probeKit() []server.JobSpec {
	return []server.JobSpec{
		{App: "Ctrl", LatencyCycles: kitLatency},
		{Workload: "texture", LatencyCycles: kitLatency},
		{Microbench: 8, LatencyCycles: kitLatency},
	}
}

// ---- jobs-cold ----

type coldGen struct {
	cs *coldStream
}

func (g *coldGen) warm() []request {
	var out []request
	for _, sp := range probeKit() {
		out = append(out, jobRequest(sp, classMiss))
	}
	return out
}

func (g *coldGen) next() request { return jobRequest(g.cs.next(), classMiss) }

// ---- jobs-hot ----

// hotGen serves a Zipf-skewed stream over a fixed working set. Rank r
// of the working set always holds the same kind of kernel (families in
// the repeating order app, gen, micro, app, gen, micro, ..., names
// cycling within each family); the seed draws the knobs and the
// request order. Kernel-build cost therefore has the same distribution
// for every seed. Every driftEvery-th request is a new microbench spec,
// a slow drift of the working set that keeps the miss path in use.
type hotGen struct {
	set   []server.JobSpec
	zipf  *rand.Zipf
	n     int
	drift int
}

func hotWorkingSet(r *rand.Rand) []server.JobSpec {
	pattern := "agmagmagma"
	next := map[byte]int{}
	seen := map[server.JobSpec]bool{}
	set := make([]server.JobSpec, 0, hotSetSize)
	for rank := 0; rank < hotSetSize; rank++ {
		f := pattern[rank%len(pattern)]
		k := next[f]
		next[f]++
		var s slot
		switch f {
		case 'a':
			s = slot{family: "app", name: appNames[k%len(appNames)]}
		case 'g':
			s = slot{family: "gen", name: genNames[k%len(genNames)]}
		default:
			s = slot{family: "micro", micro: microSizes[k%len(microSizes)]}
		}
		for {
			s.mode = pick(r, "base", "si", "dws")
			sp := specFor(s, r, latLo+r.Intn(latHi-latLo+1))
			if !seen[sp] {
				seen[sp] = true
				set = append(set, sp)
				break
			}
		}
	}
	return set
}

func (g *hotGen) warm() []request {
	out := make([]request, len(g.set))
	for i, sp := range g.set {
		out[i] = jobRequest(sp, classMiss)
	}
	return out
}

func (g *hotGen) next() request {
	g.n++
	if g.n%driftEvery == 0 {
		sp := server.JobSpec{Microbench: 32, Policy: "lrr", LatencyCycles: driftLatLo + g.drift}
		g.drift++
		return jobRequest(sp, classMiss)
	}
	return jobRequest(g.set[g.zipf.Uint64()], classHit)
}

// ---- cluster-batch ----

// batchGen sends batches of batchSize: batchNew new specs and the rest
// repeats of specs from earlier batches, in seeded positions.
type batchGen struct {
	r    *rand.Rand
	cs   *coldStream
	pool []server.JobSpec
}

func batchRequest(specs []server.JobSpec, classes []string) request {
	req := request{Path: "/v1/batch", Body: mustJSON(map[string]any{"jobs": specs})}
	for i := range specs {
		req.Entries = append(req.Entries, entry{Job: &specs[i], Class: classes[i], Want: 200})
	}
	return req
}

func (g *batchGen) warm() []request {
	specs := make([]server.JobSpec, batchSize)
	classes := make([]string, batchSize)
	for i := range specs {
		specs[i] = g.cs.next()
		classes[i] = classMiss
	}
	g.pool = append(g.pool, specs...)
	return []request{batchRequest(specs, classes)}
}

func (g *batchGen) next() request {
	specs := make([]server.JobSpec, 0, batchSize)
	classes := make([]string, 0, batchSize)
	for i := 0; i < batchNew; i++ {
		specs = append(specs, g.cs.next())
		classes = append(classes, classMiss)
	}
	for _, i := range g.r.Perm(len(g.pool))[:batchSize-batchNew] {
		specs = append(specs, g.pool[i])
		classes = append(classes, classAny)
	}
	g.pool = append(g.pool, specs[:batchNew]...)
	g.r.Shuffle(len(specs), func(i, j int) {
		specs[i], specs[j] = specs[j], specs[i]
		classes[i], classes[j] = classes[j], classes[i]
	})
	return batchRequest(specs, classes)
}

// ---- submit-mix ----

// corpus holds the assembly the submit-mix workload draws on: the
// repository's example submissions and its hostile admission corpus,
// each hostile program with the status the server must answer.
type corpus struct {
	examples []named
	hostile  []named
}

type named struct {
	name, src string
	want      int
}

// hostileWant records, for every file of the hostile corpus, the
// status /v1/submit must return under the small hostile budget: 400
// for a static admission reject, 422 for a budget kill or deadlock.
var hostileWant = map[string]int{
	"brx.asm":                 400,
	"falls_off_end.asm":       400,
	"infinite_loop.asm":       422,
	"mismatched_bsync.asm":    400,
	"negative_offset.asm":     400,
	"oob_load.asm":            400,
	"rearmed_barrier.asm":     400,
	"register_overflow.asm":   400,
	"scoreboard_overflow.asm": 400,
	"store_bomb.asm":          422,
	"trace_no_rtcore.asm":     400,
	"twin_bsync.asm":          422,
	"unstructured_branch.asm": 400,
	"zero_body.asm":           400,
}

// loadCorpus reads the assembly files from the repository root.
func loadCorpus(root string) (*corpus, error) {
	read := func(dir string) ([]named, error) {
		files, err := filepath.Glob(filepath.Join(root, dir, "*.asm"))
		if err != nil {
			return nil, err
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("no assembly files under %s", dir)
		}
		sort.Strings(files)
		var out []named
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			out = append(out, named{name: filepath.Base(f), src: string(b)})
		}
		return out, nil
	}
	c := &corpus{}
	var err error
	if c.examples, err = read("examples/submissions"); err != nil {
		return nil, err
	}
	if c.hostile, err = read("internal/admission/testdata/hostile"); err != nil {
		return nil, err
	}
	for i, h := range c.hostile {
		want, ok := hostileWant[h.name]
		if !ok {
			return nil, fmt.Errorf("hostile corpus file %s has no recorded expected status", h.name)
		}
		c.hostile[i].want = want
	}
	return c, nil
}

// Submission budgets. Well-formed programs get the server's default
// budget; hostile ones a small one, so a kill costs milliseconds.
const (
	subMaxCycles     = 2_000_000
	subMaxInstrs     = 8_000_000
	subFootprint     = 1 << 20
	hostileMaxCycles = 20_000
	hostileMaxInstrs = 40_000
	hostileFootprint = 1 << 16
)

// submitGen mixes templated and example programs from two tenants.
// Each run of hostileEach requests holds one hostile program (at the
// last position), two repeats of earlier programs (25%) and new
// programs for the rest. New programs are dealt from latin cycles over
// program kind and launch size, hostile ones from shuffled passes over
// the corpus, so every stretch of the stream has the same mix.
type submitGen struct {
	r        *rand.Rand
	c        *corpus
	n        int
	pool     []server.SubmitSpec
	serial   int
	programs [][2]int // pending (kind, warps) pairs
	hostile  []int    // pending corpus indices
}

// Program kinds and launch sizes of new submissions.
var (
	programKinds = []string{"example", "straight", "divergent", "loop"}
	launchWarps  = []int{8, 16, 32, 64, 128, 256}
)

func tenantOf(i int) string {
	if i%2 == 0 {
		return "tenant-a"
	}
	return "tenant-b"
}

func submitRequest(sp server.SubmitSpec, tenant string, want int, hostile string) request {
	return request{
		Path:    "/v1/submit",
		Tenant:  tenant,
		Body:    mustJSON(sp),
		Entries: []entry{{Submit: &sp, Class: classAny, Want: want, Hostile: hostile}},
	}
}

// warm sends every example once and then one program of every (kind,
// launch size) pair, which seed the pool later requests repeat. The
// set-up programs come from a fixed seed, so every run sets up the
// same work.
func (g *submitGen) warm() []request {
	var out []request
	for i, ex := range g.c.examples {
		sp := server.SubmitSpec{Name: "warm-" + ex.name, Assembly: ex.src, Warps: 4, WarpsPerCTA: 1,
			MaxCycles: subMaxCycles, MaxInstrs: subMaxInstrs, MemFootprintBytes: subFootprint}
		out = append(out, submitRequest(sp, tenantOf(i), 200, ""))
	}
	w := &submitGen{r: rand.New(rand.NewSource(0)), c: g.c}
	for i := 0; i < len(programKinds)*len(launchWarps); i++ {
		out = append(out, submitRequest(w.newProgram(), tenantOf(i), 200, ""))
	}
	g.pool = append(g.pool, w.pool...)
	return out
}

func (g *submitGen) next() request {
	i := g.n
	g.n++
	tenant := tenantOf(i)
	switch i % hostileEach {
	case hostileEach - 1:
		if len(g.hostile) == 0 {
			g.hostile = g.r.Perm(len(g.c.hostile))
		}
		h := g.c.hostile[g.hostile[0]]
		g.hostile = g.hostile[1:]
		sp := server.SubmitSpec{Name: h.name, Assembly: h.src, Warps: 8, WarpsPerCTA: 2,
			MaxCycles: hostileMaxCycles, MaxInstrs: hostileMaxInstrs, MemFootprintBytes: hostileFootprint}
		return submitRequest(sp, tenant, h.want, h.name)
	case 2, 5:
		return submitRequest(g.pool[g.r.Intn(len(g.pool))], tenant, 200, "")
	}
	return submitRequest(g.newProgram(), tenant, 200, "")
}

// newProgram draws a new well-formed submission and adds it to the
// pool of programs later requests may repeat.
func (g *submitGen) newProgram() server.SubmitSpec {
	if len(g.programs) == 0 {
		g.programs = latin(g.r, len(programKinds), len(launchWarps))
	}
	p := g.programs[0]
	g.programs = g.programs[1:]
	name, src := g.program(programKinds[p[0]])
	sp := server.SubmitSpec{
		Name: name, Assembly: src,
		Warps: launchWarps[p[1]], WarpsPerCTA: pick(g.r, 1, 2, 4),
		MaxCycles: subMaxCycles, MaxInstrs: subMaxInstrs, MemFootprintBytes: subFootprint,
		SI: g.r.Intn(2) == 0, Policy: pick(g.r, "lrr", "gto", "wasp"),
	}
	g.pool = append(g.pool, sp)
	return sp
}

// program returns a new well-formed kernel: one of the example
// submissions, or a templated straight-line, divergent or looping
// program.
func (g *submitGen) program(kind string) (string, string) {
	g.serial++
	switch kind {
	case "example":
		ex := g.c.examples[g.r.Intn(len(g.c.examples))]
		return ex.name, ex.src
	case "straight":
		return fmt.Sprintf("straight-%d", g.serial), straightLine(g.r)
	case "divergent":
		return fmt.Sprintf("divergent-%d", g.serial), divergent(g.r)
	default:
		return fmt.Sprintf("loop-%d", g.serial), looping(g.r)
	}
}

// aluOps is the filler the templates draw from; each reads and writes
// only R4..R6, so any sequence of them is well-formed.
var aluOps = []string{
	"IADD R4, R4, R5",
	"IADD R5, R5, R4",
	"SHL R6, R4, 1",
	"IXOR R4, R4, R6",
	"IADDI R5, R5, 3",
	"IAND R6, R6, R5",
	"IMULI R4, R4, 5",
}

func filler(r *rand.Rand, b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		fmt.Fprintf(b, "    %s\n", aluOps[r.Intn(len(aluOps))])
	}
}

// prologue loads x[tid] into R4 and y[tid] into R5.
const prologue = `.regs 8
    S2R R0, SR3
    SHL R1, R0, 2
    LDG R4, [R1+0] &wr=sb0
    LDG R5, [R1+65536] &wr=sb1
    IADD R4, R4, 1 &req=sb0
    IADD R5, R5, 1 &req=sb1
`

func straightLine(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString(prologue)
	filler(r, &b, 4+r.Intn(60))
	b.WriteString("    STG [R1+131072], R4\n    EXIT\n")
	return b.String()
}

func divergent(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString(prologue)
	fmt.Fprintf(&b, "    S2R R2, SR0\n    ISETP.LT P0, R2, %d\n    BSSY B0, join\n    @P0 BRA other\n",
		pick(r, 4, 8, 16, 24))
	filler(r, &b, 1+r.Intn(24))
	b.WriteString("    LDG R6, [R1+65536] &wr=sb2\n    IADD R4, R4, R6 &req=sb2\n    BRA join\nother:\n")
	filler(r, &b, 1+r.Intn(24))
	b.WriteString("join:\n    BSYNC B0\n    STG [R1+131072], R4\n    EXIT\n")
	return b.String()
}

func looping(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString(prologue)
	b.WriteString("    MOVI R3, 0\n    BSSY B0, done\nloop:\n")
	filler(r, &b, 1+r.Intn(8))
	b.WriteString("    LDG R6, [R1+0] &wr=sb2\n    IADD R4, R4, R6 &req=sb2\n    IADDI R3, R3, 1\n")
	fmt.Fprintf(&b, "    ISETP.LT P0, R3, %d\n    @P0 BRA loop\ndone:\n    BSYNC B0\n", 2+r.Intn(30))
	b.WriteString("    STG [R1+131072], R4\n    EXIT\n")
	return b.String()
}

// newGenerator builds a workload's generator from its seed.
func newGenerator(name string, seed int64, c *corpus) (generator, error) {
	r := rand.New(rand.NewSource(seed))
	switch name {
	case wlJobsCold:
		return &coldGen{cs: newColdStream(r)}, nil
	case wlJobsHot:
		set := hotWorkingSet(r)
		return &hotGen{set: set, zipf: rand.NewZipf(r, hotZipfS, 1, uint64(len(set)-1))}, nil
	case wlClusterBatch:
		return &batchGen{r: r, cs: newColdStream(r)}, nil
	case wlSubmitMix:
		if c == nil {
			return nil, fmt.Errorf("submit-mix needs the assembly corpus")
		}
		return &submitGen{r: r, c: c}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}
