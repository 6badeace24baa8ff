package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/diskstore"
	"repro/internal/fingerprint"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/simcache"
)

const (
	// serveTier1 bounds the in-memory result cache below the key space,
	// so repeats are answered by tier 1 or, after eviction, tier 2.
	serveTier1 = 64
	// serveZipfS is the request mix's Zipf exponent.
	serveZipfS = 0.9
	// serveNewShare is the share of requests that ask for a key for the
	// first time.
	serveNewShare = 0.005
	// serveClients is how many closed-loop clients drive the server. With
	// one, each request's CPU time is exactly the process's CPU time
	// while it is in flight, client, server and simulation included.
	// With two, a request of some 60 µs of CPU shares its interval with
	// the other client's, and how much of the other's CPU time it is
	// charged depends on how the host schedules the vCPUs: the hits'
	// median moved by a quarter between runs as the host's steal moved.
	serveClients = 1
	// serveWarmups is how many catalogue requests warm the server up.
	serveWarmups = 200
	// serveHitTailP and serveMissTailP are the percentiles of the
	// /v1/run hit/miss split's tails, fixed like workloadDef.tailP (about
	// 49k hits and 260 misses in the untraced half of a traced run on
	// the development seed).
	serveHitTailP  = 99.9
	serveMissTailP = 95
	// tmpRoot holds each set-up's disk store, inside the checkout.
	tmpRoot = ".bench_build/tmp"

	opHeader   = "X-Bench-Op"
	spanHeader = "X-Bench-Span"
)

// serveLimits are 1.5k to 36k instructions in 1.5k steps. They make the
// universe (4 backends × 33 workloads × 24 limits) large enough that
// first requests last through a run even if hits get twice as fast.
var serveLimits = func() []uint64 {
	var ls []uint64
	for k := uint64(1); k <= 24; k++ {
		ls = append(ls, 1_500*k)
	}
	return ls
}()

// serveKey is one /v1/run request: backend × builtin workload × limit.
type serveKey struct {
	backend, workload string
	limit             uint64
}

func (k serveKey) path() string {
	return "/v1/run?" + url.Values{
		"machine":  {k.backend},
		"workload": {k.workload},
		"limit":    {strconv.FormatUint(k.limit, 10)},
	}.Encode()
}

func (k serveKey) oracleKey() string { return opKey("run", k.backend, k.workload, k.limit) }

// serveUniverse is every key the request mix can draw, in a canonical
// order.
func serveUniverse(workloads []string) []serveKey {
	var ks []serveKey
	for _, b := range gridBackends {
		for _, w := range workloads {
			for _, l := range serveLimits {
				ks = append(ks, serveKey{b, w, l})
			}
		}
	}
	return ks
}

// firstRequestOrder is the order in which the universe's keys are first
// requested. It runs in rounds: each round asks for every backend ×
// workload pair once, pair i at the (round+i)-th limit, in an order the
// seed shuffles. Every round mixes short and long limits alike, and the
// first round, the reference pass, is the same set of keys for every
// seed.
func firstRequestOrder(seed uint64, workloads []string) []serveKey {
	r := newRand(seed, streamServeRanks)
	var order []serveKey
	for round := range serveLimits {
		start := len(order)
		i := 0
		for _, b := range gridBackends {
			for _, w := range workloads {
				order = append(order, serveKey{b, w, serveLimits[(round+i)%len(serveLimits)]})
				i++
			}
		}
		r.Shuffle(len(order)-start, func(a, b int) { order[start+a], order[start+b] = order[start+b], order[start+a] })
	}
	return order
}

// requestStream is the seeded request sequence. Each request is, with
// probability serveNewShare, the first request for the next key in
// firstRequestOrder, and otherwise a Zipf draw over the keys requested
// so far, ranked by when they were first requested. First requests are
// the simulated misses, so their share stays the same through a run
// until the universe is used up. Clients take requests from the stream
// in turn, so the sequence does not depend on which client sends which.
type requestStream struct {
	mu      sync.Mutex
	order   []serveKey
	touched int // order[:touched] have been requested
	z       *zipf
	r       *rand.Rand
}

func newRequestStream(seed uint64, workloads []string) *requestStream {
	order := firstRequestOrder(seed, workloads)
	return &requestStream{order: order, z: newZipf(len(order), serveZipfS), r: newRand(seed, streamServeRequests)}
}

// firstRequests reports how many keys have been requested so far.
func (s *requestStream) firstRequests() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.touched
}

func (s *requestStream) next() serveKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.touched == 0 || (s.touched < len(s.order) && s.r.Float64() < serveNewShare) {
		s.touched++
		return s.order[s.touched-1]
	}
	return s.order[s.z.draw(s.r, s.touched)]
}

type servedBody struct {
	body  []byte
	insts uint64
}

// serve is an in-process service.Server with a timed diskstore second
// tier, behind a loopback listener.
type serve struct {
	workloads []string
	reqs      *requestStream
	ref       []serveKey
	dir       string
	store     *timedStore
	srv       *http.Server
	served    chan error
	base      string
	client    *http.Client
	cur       atomic.Pointer[phase] // the phase being measured, for the handler spans

	mu       sync.Mutex
	bodies   map[serveKey]servedBody  // first body per key
	handlers map[int]string           // handler span ID → cache key
	seen     []string                 // /v1/run requests the server received
	works    map[string]core.Workload // for replays
}

func setupServe(seed uint64, _ *phase, _ map[string]float64) (inst instance, err error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	s := &serve{
		served:   make(chan error, 1),
		bodies:   map[serveKey]servedBody{},
		handlers: map[int]string{},
		works:    map[string]core.Workload{},
	}
	if s.dir, err = os.MkdirTemp(tmpRoot, "serve-"); err != nil {
		return nil, err
	}
	st, err := diskstore.Open(s.dir)
	if err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	s.store = &timedStore{Store: st}
	svc := service.New(service.Config{CacheEntries: serveTier1, MaxConcurrent: workers, Tier2: s.store})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(s.dir)
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{Handler: s.wrap(svc.Handler())}
	go func() { s.served <- s.srv.Serve(ln) }()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()

	// Warm-up: the connections and the handler path, with catalogue
	// requests that leave the result cache empty; then the catalogue the
	// request mix draws from.
	for i := 0; i < serveWarmups; i++ {
		if _, err := s.get("/v1/machines"); err != nil {
			return nil, err
		}
	}
	body, err := s.get("/v1/workloads")
	if err != nil {
		return nil, err
	}
	var listed []struct {
		Name      string `json:"name"`
		Generated bool   `json:"generated"`
	}
	if err := json.Unmarshal(body, &listed); err != nil {
		return nil, fmt.Errorf("/v1/workloads: %w", err)
	}
	var names []string
	for _, w := range listed {
		if !w.Generated {
			names = append(names, w.Name)
		}
	}
	s.workloads = names
	s.reqs = newRequestStream(seed, names)
	// The reference pass in a canonical order, so its digest and CPI
	// error read the same for every seed.
	s.ref = slices.Clone(s.reqs.order[:len(gridBackends)*len(names)])
	slices.SortFunc(s.ref, func(a, b serveKey) int { return strings.Compare(a.oracleKey(), b.oracleKey()) })
	return s, nil
}

func (s *serve) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// wrap times the service's handler for each request, as a child of the
// client's span for it.
func (s *serve) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var tr *tracer
		if p := s.cur.Load(); p != nil {
			tr = p.tr
		}
		op, _ := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		parent, err := strconv.Atoi(r.Header.Get(spanHeader))
		if err != nil {
			parent = -1
		}
		id := tr.begin(op, parent, "service.handler")
		h.ServeHTTP(w, r)
		tr.end(id)
		s.mu.Lock()
		if id >= 0 {
			s.handlers[id] = w.Header().Get("X-Simcache-Key")
		}
		if r.URL.Path == "/v1/run" {
			s.seen = append(s.seen, r.URL.RequestURI())
		}
		s.mu.Unlock()
	})
}

// measure drives the server with serveClients closed-loop clients until the
// deadline, and at least until the reference pass has been requested.
func (s *serve) measure(p *phase) error {
	s.cur.Store(p)
	defer s.cur.Store(nil)
	before, err := s.cacheStats()
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	for i := 0; i < serveClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !p.expired() || s.reqs.firstRequests() < len(s.ref) {
				p.record(s.request(p, s.reqs.next()))
			}
		}()
	}
	wg.Wait()
	after, err := s.cacheStats()
	if err != nil {
		return err
	}
	for _, n := range []string{"hits", "misses", "tier2_hits", "evictions"} {
		p.acc["simcache."+n] = after["cache_"+n+"_total"] - before["cache_"+n+"_total"]
	}
	if n := s.store.CorruptReads(); n > 0 {
		p.failf("diskstore: %d corrupt reads", n)
	}
	s.tally(p, s.store.drain())
	return nil
}

// cacheStats reads the service's cache counters from /metrics.
func (s *serve) cacheStats() (map[string]float64, error) {
	body, err := s.get("/metrics?format=json")
	if err != nil {
		return nil, err
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	out := map[string]float64{}
	for k, v := range m {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

func (s *serve) request(p *phase, k serveKey) opResult {
	op := p.newOp()
	root := p.tr.begin(op, -1, "op")
	o := opResult{served: true}
	req, err := http.NewRequest(http.MethodGet, s.base+k.path(), nil)
	if err != nil {
		p.endOp(op)
		p.tr.end(root)
		p.failf("%s: %v", k.path(), err)
		o.failed = true
		return o
	}
	req.Header.Set(opHeader, strconv.FormatInt(op, 10))
	req.Header.Set(spanHeader, strconv.Itoa(root))
	start := time.Now()
	resp, err := s.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	o.lat = time.Since(start)
	o.cpu = p.endOp(op)
	p.tr.end(root)
	switch {
	case err != nil:
		p.failf("%s: %v", k.path(), err)
		o.failed = true
		return o
	case resp.StatusCode != http.StatusOK:
		p.add("service.non200", 1)
		p.failf("%s: %s: %s", k.path(), resp.Status, bytes.TrimSpace(body))
		o.failed = true
		return o
	}
	o.hit = resp.Header.Get("X-Simcache") == "hit"
	insts, ok := s.verify(p, k, body)
	o.failed = !ok
	if !o.hit {
		o.insts = insts
	}
	if p.tr != nil && !o.failed {
		o.failed = !s.replay(p, op, k, resp.Header.Get("X-Simcache-Key"), insts, !o.hit)
	}
	return o
}

// verify checks a response body: the first body for a key against the
// oracle, every later one byte for byte against the first.
func (s *serve) verify(p *phase, k serveKey, body []byte) (uint64, bool) {
	s.mu.Lock()
	first, seen := s.bodies[k]
	s.mu.Unlock()
	if !seen {
		var rr service.RunResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			p.failf("%s: decode: %v", k.path(), err)
			return 0, false
		}
		if !p.check(k.oracleKey(), fromResponse(rr)) {
			return 0, false
		}
		s.mu.Lock()
		if first, seen = s.bodies[k]; !seen {
			first = servedBody{body, rr.Instructions}
			s.bodies[k] = first
		}
		s.mu.Unlock()
	}
	if !bytes.Equal(body, first.body) {
		p.failf("%s: body differs from the first body for the key", k.path())
		return 0, false
	}
	return first.insts, true
}

// replay times, outside the request, the service's cache keying for it
// and, for a simulated miss, the program load and functional stream. The
// key is built as the service builds it, from the backend's config and
// the workload's name, fast-forward, instruction budget clamped to the
// limit, and category; it must equal the key the service reported in
// X-Simcache-Key. replay reports whether it did.
func (s *serve) replay(p *phase, op int64, k serveKey, served string, insts uint64, miss bool) bool {
	desc, err := model.ByName(k.backend)
	if err != nil {
		p.failf("%s: %v", k.backend, err)
		return false
	}
	s.mu.Lock()
	w, ok := s.works[k.workload]
	s.mu.Unlock()
	if !ok {
		if w, ok = repro.WorkloadByName(k.workload); !ok {
			p.failf("%s: no such workload", k.workload)
			return false
		}
		s.mu.Lock()
		s.works[k.workload] = w
		s.mu.Unlock()
	}
	budget := w.MaxInstructions
	if budget == 0 || budget > k.limit {
		budget = k.limit
	}
	root := p.tr.begin(op, -1, "replay")
	sp := p.tr.begin(op, root, "fingerprint.key")
	key := simcache.KeyOf("run/v1", fingerprint.Of(desc.Config), fingerprint.Of(struct {
		Name        string
		FastForward uint64
		Max         uint64
		Category    string
	}{w.Name, w.FastForward, budget, w.Category}))
	p.tr.end(sp)
	p.tr.end(root)
	if got := key.String(); got != served {
		p.failf("%s: replayed cache key %s, service reported %s", k.path(), got, served)
		return false
	}
	if miss {
		p.replay(op, w.Prog, insts)
	}
	return true
}

// tally turns the second tier's calls into per-layer counts and, in a
// traced run, into spans under the handler span that made them.
func (s *serve) tally(p *phase, calls []tierCall) {
	type handler struct {
		id    int
		op    int64
		start time.Time
		end   time.Time
	}
	byKey := map[string][]handler{}
	if p.tr != nil {
		spans := p.tr.snapshot()
		s.mu.Lock()
		for _, sp := range spans {
			if key, ok := s.handlers[sp.ID]; ok && sp.Name == "service.handler" {
				byKey[key] = append(byKey[key], handler{sp.ID, sp.Op,
					p.tr.epoch.Add(sp.Start), p.tr.epoch.Add(sp.End)})
			}
		}
		s.mu.Unlock()
	}
	for _, c := range calls {
		name := "diskstore.get"
		if c.put {
			name = "diskstore.put"
			p.acc["diskstore.puts"]++
			p.acc["diskstore.put_bytes"] += float64(c.bytes)
		} else {
			p.acc["diskstore.gets"]++
			if c.hit {
				p.acc["diskstore.get_hits"]++
			}
		}
		if p.tr == nil {
			continue
		}
		op, parent := int64(0), -1
		for _, h := range byKey[c.key.String()] {
			if !c.start.Before(h.start) && !c.end.After(h.end) {
				op, parent = h.op, h.id
				break
			}
		}
		p.tr.add(op, parent, name, c.start, c.end)
	}
}

func (s *serve) refKeys() []string {
	var ks []string
	for _, k := range s.ref {
		ks = append(ks, k.oracleKey())
	}
	return ks
}

// cpiErr is the mean |CPI error| against native-ds10l at the same
// workload and limit, over the reference pass's other keys.
func (s *serve) cpiErr(res map[string]simResult, oracle map[string]outcome) (float64, error) {
	var sum float64
	var n int
	for _, k := range s.ref {
		if k.backend == "native-ds10l" {
			continue
		}
		ref, ok := oracle[serveKey{"native-ds10l", k.workload, k.limit}.oracleKey()]
		sim, ok2 := res[k.oracleKey()]
		if !ok || !ok2 {
			return 0, fmt.Errorf("%s: no reference or result", k.oracleKey())
		}
		sum += pctErr(ref.cpi(), sim.cpi())
		n++
	}
	if n == 0 {
		return 0, errors.New("no simulated key in the reference pass")
	}
	return sum / float64(n), nil
}

func (s *serve) layers(p *phase, out map[string]float64) {
	for _, n := range []string{"hits", "misses", "tier2_hits", "evictions"} {
		out["simcache."+n] = p.acc["simcache."+n]
	}
	out["simcache.hit_ratio"] = ratio(out["simcache.hits"], out["simcache.hits"]+out["simcache.misses"])
	out["diskstore.gets"] = p.acc["diskstore.gets"]
	out["diskstore.get_hit_ratio"] = ratio(p.acc["diskstore.get_hits"], p.acc["diskstore.gets"])
	out["diskstore.puts"] = p.acc["diskstore.puts"]
	out["diskstore.put_mb"] = p.acc["diskstore.put_bytes"] / 1e6
	out["diskstore.corrupt_reads"] = float64(s.store.CorruptReads())
	out["service.requests"] = float64(len(p.ops))
	out["service.non200"] = p.acc["service.non200"]
}

func (s *serve) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}
