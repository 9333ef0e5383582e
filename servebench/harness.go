package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"subwarpsim/internal/cluster"
	"subwarpsim/internal/obs"
	"subwarpsim/internal/server"
	"subwarpsim/internal/simcache"
)

// peerNames are the in-process cluster peers. The coordinator sees
// them as http://peer-a and http://peer-b; the benchmark's RoundTripper
// delivers those requests straight to the peers' Handlers.
var peerNames = []string{"peer-a", "peer-b"}

// target is the system under test for one run: the Handler the clients
// call and the servers behind it. Every server keeps its results in a
// memory LRU only, and no request touches a socket.
type target struct {
	handler  http.Handler
	servers  []*server.Server
	caches   []simcache.Cache
	observer []*obs.Observer // one per server, in servers order
	coordObs *obs.Observer   // the coordinator's, on cluster-batch only
}

// newTarget builds the servers a workload runs against. traceCap sizes
// each observer's retained-trace store: the default 64 for untraced
// runs, enough for every request of a traced one.
func newTarget(workload string, traceCap int, tr *tracer) *target {
	newObs := func() *obs.Observer { return obs.New(server.MetricsNamespace, 256, traceCap, nil) }
	t := &target{}
	add := func(opts server.Options) *server.Server {
		o := newObs()
		c := simcache.NewMemory(lruEntries)
		opts.Obs, opts.Cache = o, c
		s := server.New(opts)
		t.servers = append(t.servers, s)
		t.caches = append(t.caches, c)
		t.observer = append(t.observer, o)
		return s
	}
	switch workload {
	case wlClusterBatch:
		peers := map[string]http.Handler{}
		var urls []string
		for _, name := range peerNames {
			peers[name] = add(server.Options{Workers: 1}).Handler()
			urls = append(urls, "http://"+name)
		}
		t.coordObs = newObs()
		coord, err := cluster.New(cluster.Options{
			Peers:  urls,
			Local:  t.servers[0],
			Obs:    t.coordObs,
			Client: &http.Client{Transport: &hopTransport{peers: peers, tr: tr}, Timeout: 2 * time.Minute},
		})
		if err != nil {
			panic(err) // static options; cannot fail
		}
		t.handler = coord.Handler()
	case wlSubmitMix:
		s := add(server.Options{TenantWeights: map[string]int{"tenant-a": 2, "tenant-b": 1}})
		t.handler = s.Handler()
	default:
		t.handler = add(server.Options{}).Handler()
	}
	return t
}

// call performs one request against h and returns the status, the full
// response body and the wall time from the call to the body.
func call(h http.Handler, method, path, tenant, traceID string, body []byte) (int, []byte, time.Time, time.Duration) {
	start := time.Now()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	if traceID != "" {
		req.Header.Set("X-Trace-ID", traceID)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	out := rec.Body.Bytes()
	return rec.Code, out, start, time.Since(start)
}

// shutdown checks /healthz on every Handler and drains every server.
// It returns one message per failure.
func (t *target) shutdown() []string {
	var bad []string
	handlers := []http.Handler{t.handler}
	for _, s := range t.servers {
		handlers = append(handlers, s.Handler())
	}
	for i, h := range handlers {
		if code, body, _, _ := call(h, http.MethodGet, "/healthz", "", "", nil); code != http.StatusOK {
			bad = append(bad, fmt.Sprintf("healthz on handler %d: status %d: %s", i, code, body))
		}
	}
	for i, s := range t.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if err := s.Drain(ctx); err != nil {
			bad = append(bad, fmt.Sprintf("drain server %d: %v", i, err))
		}
		cancel()
	}
	return bad
}

// result is one completed client call.
type result struct {
	req    request
	start  time.Time
	dur    time.Duration
	ok     int // entries with the expected outcome
	failed int // entries without it
}

// window runs a closed loop: each of clients goroutines takes the next
// request from src and sends the following one only after the reply.
// src returns false when the loop should stop. check runs on every
// reply; its counts feed the result. traceOf, when set, names each
// request's trace ID. Unless keep is set, results drop the request
// bodies, so the benchmark's own memory stays flat over a window.
func window(h http.Handler, clients int, src func() (request, bool),
	check func(request, int, []byte) (int, int), traceOf func(request) string,
	tr *tracer, keep bool) ([]result, time.Duration) {
	var mu sync.Mutex
	var out []result
	var wg sync.WaitGroup
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []result
			for {
				req, ok := src()
				if !ok {
					break
				}
				id := ""
				if traceOf != nil {
					id = traceOf(req)
				}
				status, body, start, dur := call(h, http.MethodPost, req.Path, req.Tenant, id, req.Body)
				tr.span("client POST "+req.Path, id, "", start, start.Add(dur))
				good, bad := check(req, status, body)
				if !keep {
					req = request{Index: req.Index, Path: req.Path}
				}
				mine = append(mine, result{req: req, start: start, dur: dur, ok: good, failed: bad})
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, time.Since(begin)
}

// streamFor hands out g's timed requests until the deadline, numbering
// them in the order they are taken.
func streamFor(g generator, deadline time.Time) func() (request, bool) {
	var mu sync.Mutex
	n := 0
	return func() (request, bool) {
		if time.Now().After(deadline) {
			return request{}, false
		}
		mu.Lock()
		defer mu.Unlock()
		req := g.next()
		req.Index = n
		n++
		return req, true
	}
}

// replayOf hands out a recorded request list in order.
func replayOf(reqs []request) func() (request, bool) {
	var mu sync.Mutex
	n := 0
	return func() (request, bool) {
		mu.Lock()
		defer mu.Unlock()
		if n == len(reqs) {
			return request{}, false
		}
		n++
		return reqs[n-1], true
	}
}

// hopTransport is the coordinator's peer client: it serves each
// request with the named peer's Handler in process, so peer hops cost
// what the program does and nothing of the kernel's network stack. In
// a traced run it times every hop and gives it its own trace ID
// (parent ID + "." + hop number), so the peer-side trace is retained
// separately from the coordinator's.
type hopTransport struct {
	peers map[string]http.Handler
	tr    *tracer

	mu   sync.Mutex
	hops int
}

func (h *hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		defer req.Body.Close()
	}
	peer, ok := h.peers[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no in-process peer %q", req.URL.Host)
	}
	sreq := req.Clone(req.Context())
	sreq.RequestURI = req.URL.RequestURI()
	parent := req.Header.Get("X-Trace-ID")
	id := ""
	if h.tr.enabled() && parent != "" {
		h.mu.Lock()
		h.hops++
		id = fmt.Sprintf("%s.%d", parent, h.hops)
		h.mu.Unlock()
		sreq.Header.Set("X-Trace-ID", id)
	}
	var spec server.JobSpec
	if id != "" {
		payload, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		_ = json.Unmarshal(payload, &spec) // an undecodable spec only leaves the hop without a ring owner
		sreq.Body = io.NopCloser(bytes.NewReader(payload))
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	peer.ServeHTTP(rec, sreq)
	end := time.Now()
	if id != "" {
		h.tr.hop(parent, id, req.URL.Host, spec, start, end)
	}
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}
