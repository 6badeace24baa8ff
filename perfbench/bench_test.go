package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/diskstore"
	"repro/internal/simcache"
	"repro/internal/workgen"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 50, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{100, 90, true}, {199, 90, true}, {200, 95, true}, {1000, 99, true}, {10000, 99.9, true},
	} {
		if p, ok := tailPercentile(c.n); p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

// TestFixedTail checks that a tail stays at the percentile it is given
// and is flagged, not moved, when too few samples lie beyond it.
func TestFixedTail(t *testing.T) {
	ds := func(n int) []time.Duration {
		var xs []time.Duration
		for i := 1; i <= n; i++ {
			xs = append(xs, time.Duration(i)*time.Millisecond)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		tail float64
		ok   bool
	}{
		{85, 75, 64, true}, {30, 75, 22.75, false}, {1801, 95, 1711, true}, {10000, 99.9, 9990.001, true}, {9999, 99.9, 9989.002, false},
	} {
		l := summarise(ds(c.n), c.p)
		if l.tailP != c.p || math.Abs(l.tail-c.tail) > 1e-6 || l.tailOK != c.ok {
			t.Errorf("summarise(%d samples, p%g) = p%g %g ok=%v; want p%g %g ok=%v", c.n, c.p, l.tailP, l.tail, l.tailOK, c.p, c.tail, c.ok)
		}
	}
	for _, w := range workloads {
		if !slices.Contains(tailTenths, int(math.Round(w.tailP*10))) {
			t.Errorf("%s: tail p%g is not a candidate percentile", w.name, w.tailP)
		}
	}
}

func TestHostDrift(t *testing.T) {
	ms := time.Millisecond
	steady := driftOf([]time.Duration{5 * ms, 5 * ms, 5 * ms, 5 * ms})
	if steady.drift != 0 || !steady.resolved() || steady.medianMS != 5 {
		t.Errorf("steady host: %+v", steady)
	}
	slowed := driftOf([]time.Duration{4 * ms, 4 * ms, 6 * ms, 8 * ms, 8 * ms})
	if slowed.drift != 1 || slowed.resolved() || slowed.medianMS != 6 {
		t.Errorf("slowed host: %+v", slowed)
	}
	if none := driftOf([]time.Duration{5 * ms}); none.n != 0 || !none.resolved() {
		t.Errorf("one calibration: %+v", none)
	}
}

// TestCPUMeterSharesOverlap checks that CPU time used while two
// operations overlap is split between them, and time used by one alone
// goes to it.
func TestCPUMeterSharesOverlap(t *testing.T) {
	ms := time.Millisecond
	var m cpuMeter
	m.startAt(1, 100*ms)
	m.startAt(2, 110*ms)
	// Op 1: 10 alone and half of 20 shared; op 2: half of 20 and 10 alone.
	if got := m.stopAt(1, 130*ms); got != 20*ms {
		t.Errorf("op 1: %v, want 20ms", got)
	}
	if got := m.stopAt(2, 140*ms); got != 20*ms {
		t.Errorf("op 2: %v, want 20ms", got)
	}
	// Time with no operation in flight goes to none.
	m.startAt(3, 500*ms)
	if got := m.stopAt(3, 505*ms); got != 5*ms {
		t.Errorf("op 3: %v, want 5ms", got)
	}
}

func TestProcessCPUCountsWork(t *testing.T) {
	start := processCPU()
	for processCPU()-start < 20*time.Millisecond {
		calibrate()
	}
	if d := calibrate(); d <= 0 {
		t.Errorf("calibration op took %v of CPU time", d)
	}
}

func TestStealPct(t *testing.T) {
	a, b := cpuTicks{total: 1000, steal: 10}, cpuTicks{total: 1400, steal: 30}
	if got := stealPct(a, b); math.Abs(got-5) > 1e-12 {
		t.Errorf("stealPct = %g, want 5", got)
	}
	if got := stealPct(cpuTicks{}, cpuTicks{}); got != 0 {
		t.Errorf("stealPct of unreadable ticks = %g, want 0", got)
	}
}

func TestTracingOverhead(t *testing.T) {
	ops := func(ms ...int) []opResult {
		var os []opResult
		for _, m := range ms {
			os = append(os, opResult{lat: time.Duration(m) * time.Millisecond})
		}
		return os
	}
	// Only the operations both phases reached count: 10+30 against 11+33.
	if got := tracingOverhead(ops(10, 30, 50), ops(11, 33)); math.Abs(got-10) > 1e-9 {
		t.Errorf("overhead = %g%%, want 10%%", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {75, 4}, {90, 4.6}, {100, 5}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
}

// TestZipfDistribution draws many ranks and compares each rank's share
// with 1/(k+1)^s normalised, within five standard errors.
func TestZipfDistribution(t *testing.T) {
	const n, draws, s = 40, 400_000, 0.9
	z := newZipf(n, s)
	r := newRand(1, 99)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.draw(r, n)]++
	}
	var h float64
	for k := 1; k <= n; k++ {
		h += 1 / math.Pow(float64(k), s)
	}
	for k, c := range counts {
		p := 1 / math.Pow(float64(k+1), s) / h
		se := math.Sqrt(p * (1 - p) / draws)
		if got := float64(c) / draws; math.Abs(got-p) > 5*se {
			t.Errorf("rank %d: share %.5f, want %.5f ± %.5f", k, got, p, 5*se)
		}
	}
	if counts[0] <= counts[1] || counts[1] <= counts[n-1] {
		t.Errorf("shares not decreasing with rank: %v", counts)
	}
}

func TestTimedStorePassesThrough(t *testing.T) {
	st, err := diskstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ts := &timedStore{Store: st}
	present, absent := simcache.KeyOf("present"), simcache.KeyOf("absent")
	val := []byte(`{"cycles":42}`)
	ts.Put(present, val)
	for _, k := range []simcache.Key{present, absent} {
		gotB, gotOK := ts.Get(k)
		wantB, wantOK := st.Get(k)
		if gotOK != wantOK || !slices.Equal(gotB, wantB) {
			t.Errorf("Get(%s) = %q, %v; store gives %q, %v", k, gotB, gotOK, wantB, wantOK)
		}
	}
	if b, ok := ts.Get(present); !ok || string(b) != string(val) {
		t.Errorf("Get(present) = %q, %v; want %q, true", b, ok, val)
	}
	calls := ts.drain()
	if len(calls) != 4 || !calls[0].put || calls[0].bytes != len(val) || !calls[1].hit || calls[2].hit {
		t.Errorf("calls = %+v", calls)
	}
	if len(ts.drain()) != 0 {
		t.Error("drain did not forget the calls")
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Op: 1, ID: 0, Parent: -1, Name: "op", Start: 0, End: 100 * ms},
		{Op: 1, ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 30 * ms},
		{Op: 1, ID: 2, Parent: 0, Name: "b", Start: 20 * ms, End: 50 * ms},
		{Op: 1, ID: 3, Parent: 0, Name: "c", Start: 90 * ms, End: 120 * ms},
		{Op: 1, ID: 4, Parent: 2, Name: "d", Start: 25 * ms, End: 35 * ms},
		{Op: 1, ID: 5, Parent: -1, Name: "replay", Start: 200 * ms, End: 300 * ms},
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100] of the root: 50 ms.
	for id, want := range map[int]time.Duration{0: 50 * ms, 1: 20 * ms, 2: 20 * ms, 3: 30 * ms, 4: 10 * ms, 5: 100 * ms} {
		if self[id] != want {
			t.Errorf("self(%d) = %v, want %v", id, self[id], want)
		}
	}
	if got := covered(0, 10*ms, nil); got != 0 {
		t.Errorf("covered with no intervals = %v", got)
	}
}

func specNames(seed uint64) []string {
	var ns []string
	for _, s := range gridSpecs(seed) {
		ns = append(ns, s.Name())
	}
	return ns
}

// gridSequence is the cell order of the first passes of grid-short.
func gridSequence(seed uint64, passes int) []string {
	g := &grid{rng: newRand(seed, streamGridOrder)}
	for _, n := range specNames(seed) {
		for _, b := range gridBackends {
			g.cells = append(g.cells, gridCell{backend: b, key: opKey("run", b, n, gridLimit)})
		}
	}
	var seq []string
	for i := 0; i < passes; i++ {
		for _, c := range g.nextOrder() {
			seq = append(seq, c.key)
		}
	}
	return seq
}

func requestSequence(seed uint64, n int) []string {
	rs := newRequestStream(seed, []string{"C-Ca", "gcc", "mesa", "E-I"})
	var seq []string
	for i := 0; i < n; i++ {
		seq = append(seq, rs.next().path())
	}
	return seq
}

func TestSeedDeterminesInputs(t *testing.T) {
	for name, seq := range map[string]func(uint64) []string{
		"grid specs":       specNames,
		"grid cell order":  func(s uint64) []string { return gridSequence(s, 3) },
		"request sequence": func(s uint64) []string { return requestSequence(s, 500) },
	} {
		if a, b := seq(1), seq(1); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two sequences", name)
		}
		if a, b := seq(1), seq(2); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", name)
		}
	}
	for _, s := range gridSpecs(3) {
		if err := s.Check(); err != nil {
			t.Errorf("generated spec %s: %v", s.Name(), err)
		}
		if s.Seed < 1 || s.Seed > gridGenSeeds {
			t.Errorf("spec %s outside the recorded generation streams", s.Name())
		}
	}
}

// TestFirstRequestOrder checks that the first requests cover the
// universe once each, and that the reference pass (the first round) is
// the same set of keys for every seed.
func TestFirstRequestOrder(t *testing.T) {
	names := []string{"C-Ca", "gcc", "mesa", "E-I", "art"}
	universe := serveUniverse(names)
	round := len(gridBackends) * len(names)
	var firstRound []serveKey
	for _, seed := range []uint64{1, 2, 3} {
		order := firstRequestOrder(seed, names)
		got := append([]serveKey(nil), order...)
		sortKeys(got)
		want := append([]serveKey(nil), universe...)
		sortKeys(want)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: first requests do not cover the universe once each", seed)
		}
		head := append([]serveKey(nil), order[:round]...)
		sortKeys(head)
		if firstRound == nil {
			firstRound = head
		} else if !slices.Equal(head, firstRound) {
			t.Errorf("seed %d: first round differs from seed 1's", seed)
		}
	}
}

func sortKeys(ks []serveKey) {
	slices.SortFunc(ks, func(a, b serveKey) int { return strings.Compare(a.path(), b.path()) })
}

// TestServerSeesOnlyGeneratedRequests drives serve-mixed briefly and
// checks that the service received exactly the generated requests, and
// that every response matched the oracle.
func TestServerSeesOnlyGeneratedRequests(t *testing.T) {
	oracle, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 5
	inst, err := setupServe(seed, newPhase(oracle, nil), map[string]float64{})
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*serve)
	p := newPhase(oracle, nil)
	p.deadline = time.Now().Add(300 * time.Millisecond)
	if err := s.measure(p); err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	if len(p.failures) > 0 {
		t.Fatalf("failures: %v", p.failures[:min(5, len(p.failures))])
	}
	got := append([]string(nil), s.seen...)
	if len(got) != len(p.ops) || len(got) == 0 {
		t.Fatalf("server saw %d run requests for %d operations", len(got), len(p.ops))
	}
	var gen []string
	rs := newRequestStream(seed, s.workloads)
	for range got {
		gen = append(gen, rs.next().path())
	}
	slices.Sort(got)
	slices.Sort(gen)
	if !slices.Equal(got, gen) {
		t.Error("the server received requests other than the generated ones")
	}
}

// TestServeReplayedKeys drives serve-mixed briefly under the tracer,
// whose replays rebuild each request's cache key and fail the request
// when it differs from the key the service reported.
func TestServeReplayedKeys(t *testing.T) {
	oracle, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := setupServe(7, newPhase(oracle, nil), map[string]float64{})
	if err != nil {
		t.Fatal(err)
	}
	s := inst.(*serve)
	p := newPhase(oracle, newTracer())
	p.deadline = time.Now().Add(300 * time.Millisecond)
	if err := s.measure(p); err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	if len(p.failures) > 0 {
		t.Fatalf("failures: %v", p.failures[:min(5, len(p.failures))])
	}
	keys := 0
	for _, sp := range p.tr.snapshot() {
		if sp.Name == "fingerprint.key" {
			keys++
		}
	}
	if keys != len(p.ops) || keys == 0 {
		t.Errorf("%d replayed keys for %d requests", keys, len(p.ops))
	}
}

func TestTracedRunSimulatesTheSame(t *testing.T) {
	oracle, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	s := workgen.DefaultSpec()
	s.WorkingSetKB, s.Seed = 128, 2
	ws, _, err := gridPrograms([]workgen.Spec{s}, map[string]float64{})
	if err != nil {
		t.Fatal(err)
	}
	w := ws[len(ws)-1]
	w.MaxInstructions = gridLimit
	key := opKey("run", "sim-alpha", w.Name, gridLimit)
	plain, traced := newPhase(oracle, nil), newPhase(oracle, newTracer())
	plain.simulate("sim-alpha", w, key)
	traced.simulate("sim-alpha", w, key)
	if len(plain.failures)+len(traced.failures) > 0 {
		t.Fatal(plain.failures, traced.failures)
	}
	if !reflect.DeepEqual(plain.results[key], traced.results[key]) {
		t.Error("traced and untraced results differ")
	}
	names := map[string]bool{}
	for _, sp := range traced.tr.snapshot() {
		names[sp.Name] = true
	}
	for _, n := range []string{"op", "run.alpha", "replay", "cpu.load", "cpu.next"} {
		if !names[n] {
			t.Errorf("no %s span", n)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics the program prints.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range spec.Workloads {
		ws = append(ws, w.Name)
	}
	if want := strings.Split(workloadNames(), ", "); !slices.Equal(ws, want) {
		t.Errorf("workloads %v, program has %v", ws, want)
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: %d metrics, program prints %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			if c.got[i].Name != m.name || c.got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s %s, program prints %s %s", c.kind, i, c.got[i].Name, c.got[i].Unit, m.name, m.unit)
			}
		}
	}
}
