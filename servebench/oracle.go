package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"sync"

	"subwarpsim/internal/admission"
	"subwarpsim/internal/config"
	"subwarpsim/internal/gpu"
	"subwarpsim/internal/mem"
	"subwarpsim/internal/server"
	"subwarpsim/internal/simcache"
	"subwarpsim/internal/sm"
	"subwarpsim/internal/stats"
)

// oracle checks every response, remembers the first result seen for
// each content key, and sums the simulation work of fresh results.
type oracle struct {
	mu       sync.Mutex
	seed     int64
	seen     map[string]digest // key -> first result's blocks and counters
	sample   map[string]entry  // the keys verify re-derives
	failures []string          // the first maxFailureNotes mismatch notes

	// Work of the responses that simulated (cached=false and
	// coalesced=false) since the last reset.
	simInstrs      int64
	simBlockCycles int64
	entries        int64
	hits           int64
	coalesced      int64

	// corrupt, when set, mutates every decoded result before it is
	// checked; the benchmark's tests use it to inject a wrong counter.
	corrupt func(*server.JobResult)
}

// digest is the SHA-256 of a result's canonical blocks and counters;
// equal digests stand for byte-equal counters.
type digest [sha256.Size]byte

const maxFailureNotes = 20

func newOracle(seed int64) *oracle {
	return &oracle{seed: seed, seen: make(map[string]digest), sample: make(map[string]entry)}
}

// sampled reports whether verify re-derives key: a seeded one in
// sixteen of all keys.
func (o *oracle) sampled(key string) bool {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", o.seed, key)
	return h.Sum64()%16 == 0
}

func (o *oracle) fail(format string, args ...any) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.failures) < maxFailureNotes {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// resetWork zeroes the simulation-work sums at the start of a window.
func (o *oracle) resetWork() {
	o.mu.Lock()
	o.simInstrs, o.simBlockCycles, o.entries, o.hits, o.coalesced = 0, 0, 0, 0, 0
	o.mu.Unlock()
}

// check verifies one reply and returns how many of the request's
// entries had the expected outcome and how many did not.
func (o *oracle) check(req request, status int, body []byte) (ok, failed int) {
	n := len(req.Entries)
	switch req.Path {
	case "/v1/batch":
		if status != http.StatusOK {
			o.fail("request %d: batch status %d, want 200: %.200s", req.Index, status, body)
			return 0, n
		}
		var br struct {
			Results []server.JobResult `json:"results"`
		}
		if err := json.Unmarshal(body, &br); err != nil || len(br.Results) != n {
			o.fail("request %d: batch body has %d results, want %d (%v)", req.Index, len(br.Results), n, err)
			return 0, n
		}
		for i := range br.Results {
			if o.checkResult(req.Index, req.Entries[i], &br.Results[i]) {
				ok++
			} else {
				failed++
			}
		}
		return ok, failed
	default:
		e := req.Entries[0]
		if status != e.Want {
			o.fail("request %d (%s %s): status %d, want %d: %.200s", req.Index, req.Path, e.Hostile, status, e.Want, body)
			return 0, 1
		}
		if status != http.StatusOK {
			if o.checkReject(req.Index, e, status, body) {
				return 1, 0
			}
			return 0, 1
		}
		var res server.JobResult
		if err := json.Unmarshal(body, &res); err != nil {
			o.fail("request %d: undecodable result: %v", req.Index, err)
			return 0, 1
		}
		if o.checkResult(req.Index, e, &res) {
			return 1, 0
		}
		return 0, 1
	}
}

// checkReject verifies the structured body of an expected 400 or 422.
func (o *oracle) checkReject(idx int, e entry, status int, body []byte) bool {
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil || m["error"] == nil {
		o.fail("request %d: %d without a structured error body: %.200s", idx, status, body)
		return false
	}
	switch status {
	case http.StatusBadRequest:
		if _, ok := m["reason"]; !ok {
			o.fail("request %d (%s): 400 without an admission reason: %.200s", idx, e.Hostile, body)
			return false
		}
	case http.StatusUnprocessableEntity:
		_, budget := m["budget_exhausted"]
		_, deadlock := m["deadlock"]
		if !budget && !deadlock {
			o.fail("request %d (%s): 422 without budget_exhausted or deadlock: %.200s", idx, e.Hostile, body)
			return false
		}
	}
	return true
}

func workloadIDOf(e entry) string {
	if e.Job != nil {
		return e.Job.WorkloadID()
	}
	return "submit"
}

func canonicalCounters(blocks int, c stats.Counters) digest {
	return sha256.Sum256(mustJSON(struct {
		Blocks   int
		Counters stats.Counters
	}{blocks, c}))
}

// checkResult verifies one successful result: its key, workload and
// class, the idle-cycle invariant, and that its counters equal the
// first result recorded for the same key.
func (o *oracle) checkResult(idx int, e entry, res *server.JobResult) bool {
	if o.corrupt != nil {
		o.corrupt(res)
	}
	if res.Error != "" {
		o.fail("request %d: entry failed: %d %s", idx, res.ErrorStatus, res.Error)
		return false
	}
	if _, err := simcache.ParseKey(res.Key); err != nil {
		o.fail("request %d: bad key %q: %v", idx, res.Key, err)
		return false
	}
	if want := workloadIDOf(e); res.Workload != want {
		o.fail("request %d: workload %q, want %q", idx, res.Workload, want)
		return false
	}
	switch {
	case e.Class == classMiss && res.Cached:
		o.fail("request %d: %s answered from the cache; every spec of this class is new", idx, res.Key)
		return false
	case e.Class == classHit && !res.Cached:
		o.fail("request %d: %s missed the cache; the working set was warmed", idx, res.Key)
		return false
	}
	c := res.Counters
	if sum := c.IdleLoadCycles + c.IdleFetchCycles + c.IdleSwitchCycles + c.IdleBarrierCycles + c.IdleNoWarpCycles; sum != c.IdleCycles {
		o.fail("request %d: idle buckets sum to %d, IdleCycles is %d", idx, sum, c.IdleCycles)
		return false
	}
	canon := canonicalCounters(res.Blocks, res.Counters)
	o.mu.Lock()
	defer o.mu.Unlock()
	o.entries++
	switch {
	case res.Coalesced:
		o.coalesced++
	case res.Cached:
		o.hits++
	default:
		o.simInstrs += c.IssuedInstrs
		o.simBlockCycles += c.Cycles * int64(res.Blocks)
	}
	if prev, ok := o.seen[res.Key]; ok {
		if prev != canon {
			if len(o.failures) < maxFailureNotes {
				o.failures = append(o.failures, fmt.Sprintf("request %d: counters for %s differ from the first result for that key", idx, res.Key))
			}
			return false
		}
		return true
	}
	o.seen[res.Key] = canon
	if len(o.sample) < 2 || o.sampled(res.Key) {
		o.sample[res.Key] = e
	}
	return true
}

// submitKernel rebuilds the kernel the server runs for a submission,
// the way Server.SubmitKernel does: production admission, then the
// launch shape and the gas budget. Every benchmark submission requests
// all three budget limits, each under the server's maximum, so the
// request is the budget.
func submitKernel(sp server.SubmitSpec) (config.Config, *sm.Kernel, error) {
	cfg, err := sp.Config()
	if err != nil {
		return cfg, nil, err
	}
	prog, err := admission.ValidateSource(sp.Name, sp.Assembly, admission.Limits{MemFootprintBytes: sp.MemFootprintBytes})
	if err != nil {
		return cfg, nil, err
	}
	budget := sm.Budget{MaxCycles: sp.MaxCycles, MaxInstrs: sp.MaxInstrs, MaxMemBytes: sp.MemFootprintBytes}
	return cfg, &sm.Kernel{Program: prog, NumWarps: sp.Warps, WarpsPerCTA: sp.WarpsPerCTA,
		Memory: mem.NewMemory(), Budget: &budget}, nil
}

// rebuild returns a fresh configuration and kernel for an entry, and
// its content key computed outside the server.
func rebuild(e entry) (config.Config, *sm.Kernel, simcache.Key, error) {
	if e.Job != nil {
		cfg, err := e.Job.Config()
		if err != nil {
			return cfg, nil, simcache.Key{}, err
		}
		k, err := e.Job.BuildKernel()
		if err != nil {
			return cfg, nil, simcache.Key{}, err
		}
		return cfg, k, simcache.KeyOf(cfg, k, e.Job.WorkloadID()), nil
	}
	cfg, k, err := submitKernel(*e.Submit)
	if err != nil {
		return cfg, nil, simcache.Key{}, err
	}
	return cfg, k, simcache.KeyOf(cfg, k, "submit"), nil
}

// verify re-derives the sampled keys (about one in sixteen of the
// distinct keys seen, and at least the first two): the served key must
// equal simcache.KeyOf(config, fresh kernel), and a fresh single-worker
// gpu.RunWorkers must reproduce the recorded counters exactly. It
// returns the number of mismatches.
func (o *oracle) verify() (bad int) {
	o.mu.Lock()
	keys := make([]string, 0, len(o.sample))
	for k := range o.sample {
		keys = append(keys, k)
	}
	o.mu.Unlock()
	sort.Strings(keys)
	for _, key := range keys {
		o.mu.Lock()
		e, want := o.sample[key], o.seen[key]
		o.mu.Unlock()
		cfg, k, got, err := rebuild(e)
		if err != nil {
			bad++
			o.fail("verify %s: rebuild: %v", key, err)
			continue
		}
		if got.String() != key {
			bad++
			o.fail("verify: server key %s, KeyOf gives %s", key, got)
			continue
		}
		res, err := gpu.RunWorkers(cfg, k, 1)
		if err != nil {
			bad++
			o.fail("verify %s: re-simulation failed: %v", key, err)
			continue
		}
		if canonicalCounters(res.Blocks, res.Counters) != want {
			bad++
			o.fail("verify %s: re-simulated counters differ from the served ones", key)
		}
	}
	return bad
}
