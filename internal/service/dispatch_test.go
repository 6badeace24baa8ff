package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/workgen"
)

// newWorker boots a worker-shaped server (a full Server; the
// dispatcher only ever posts /v1/cell at it) and returns both halves.
func newWorker(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		CacheEntries:   64,
		MaxConcurrent:  4,
		RequestTimeout: 60 * time.Second,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// newCoordinator boots a server dispatching cells to the workers.
func newCoordinator(t *testing.T, stealAfter time.Duration, workers ...string) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{
		CacheEntries:   64,
		MaxConcurrent:  4,
		RequestTimeout: 60 * time.Second,
		Parallelism:    2,
		Workers:        workers,
		StealAfter:     stealAfter,
	})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestCellEndpoint(t *testing.T) {
	_, ts := newWorker(t)
	body := `{"machine": "sim-alpha", "workload": "C-Ca", "limit": 3000,
		"axes": [{"name": "rob", "field": "ROB", "values": [20]}]}`
	resp, err := http.Post(ts.URL+"/v1/cell", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/cell = %d", resp.StatusCode)
	}
	var res struct {
		Machine      string `json:"machine"`
		Workload     string `json:"workload"`
		Instructions uint64 `json:"instructions"`
		Cycles       uint64 `json:"cycles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Workload != "C-Ca" || res.Instructions == 0 || res.Cycles == 0 {
		t.Fatalf("cell result = %+v", res)
	}

	// Bad cells are rejected, not simulated.
	for name, bad := range map[string]string{
		"unknown machine":  `{"machine": "sim-nope", "workload": "C-Ca"}`,
		"unknown workload": `{"machine": "sim-alpha", "workload": "nope"}`,
		"multi-value axis": `{"machine": "sim-alpha", "workload": "C-Ca", "axes": [{"name": "rob", "field": "ROB", "values": [20, 40]}]}`,
		"bad field path":   `{"machine": "sim-alpha", "workload": "C-Ca", "axes": [{"name": "x", "field": "NoSuchKnob", "values": [1]}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/cell", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDistributedSweepByteIdentical is the tier's core guarantee: a
// sweep sharded over two workers returns byte-for-byte the result a
// single node computes.
func TestDistributedSweepByteIdentical(t *testing.T) {
	_, solo := newTestServer(t)
	w1, wts1 := newWorker(t)
	w2, wts2 := newWorker(t)
	coord, cts := newCoordinator(t, 30*time.Second, wts1.URL, wts2.URL)

	_, info := postSweep(t, solo.URL, tinySweepBody)
	want := waitSweep(t, solo.URL, info.ID)
	if want.Status != sweepDone {
		t.Fatalf("single-node job = %q (%s)", want.Status, want.Error)
	}

	_, dinfo := postSweep(t, cts.URL, tinySweepBody)
	got := waitSweep(t, cts.URL, dinfo.ID)
	if got.Status != sweepDone {
		t.Fatalf("distributed job = %q (%s)", got.Status, got.Error)
	}

	a, _ := json.Marshal(want.Result.Points)
	b, _ := json.Marshal(got.Result.Points)
	if !bytes.Equal(a, b) {
		t.Fatalf("distributed sweep diverged from single-node:\n%s\nvs\n%s", a, b)
	}

	// Every cell was dispatched, none fell back to local simulation,
	// and the shards actually spread over both workers.
	m := coord.Metrics()
	dispatched := m.Counter("dispatch_cells_total").Value()
	if dispatched != 8 {
		t.Fatalf("dispatch_cells_total = %d, want 8", dispatched)
	}
	if n := m.Counter("dispatch_local_fallback_total").Value(); n != 0 {
		t.Fatalf("dispatch_local_fallback_total = %d, want 0", n)
	}
	if n := m.Counter("cells_simulated_total").Value(); n != 0 {
		t.Fatalf("coordinator simulated %d cells itself, want 0", n)
	}
	c1 := w1.Metrics().Counter("cells_simulated_total").Value()
	c2 := w2.Metrics().Counter("cells_simulated_total").Value()
	if c1+c2 != 8 {
		t.Fatalf("workers simulated %d+%d cells, want 8 total", c1, c2)
	}
	if c1 == 0 || c2 == 0 {
		t.Fatalf("shards did not spread: worker cells %d and %d", c1, c2)
	}
}

// TestDispatchWorkerLoss kills one worker before the sweep: the
// dispatcher must mark it lost, retry its shards on the survivor, and
// still produce the single-node result.
func TestDispatchWorkerLoss(t *testing.T) {
	_, solo := newTestServer(t)
	_, wts1 := newWorker(t)
	_, wts2 := newWorker(t)
	coord, cts := newCoordinator(t, 30*time.Second, wts1.URL, wts2.URL)
	wts2.Close() // one worker is gone before any cell lands

	_, info := postSweep(t, solo.URL, tinySweepBody)
	want := waitSweep(t, solo.URL, info.ID)

	_, dinfo := postSweep(t, cts.URL, tinySweepBody)
	got := waitSweep(t, cts.URL, dinfo.ID)
	if got.Status != sweepDone {
		t.Fatalf("job = %q (%s), want done despite worker loss", got.Status, got.Error)
	}
	a, _ := json.Marshal(want.Result.Points)
	b, _ := json.Marshal(got.Result.Points)
	if !bytes.Equal(a, b) {
		t.Fatal("sweep result changed after losing a worker")
	}
	m := coord.Metrics()
	if n := m.Counter("dispatch_worker_losses_total").Value(); n != 1 {
		t.Fatalf("dispatch_worker_losses_total = %d, want 1", n)
	}
	// The dead worker's shards were retried on the survivor (unless
	// hashing happened to give it nothing, which 8 cells make unlikely
	// but a zero retry count with zero losses would).
	if n := m.Counter("dispatch_retries_total").Value(); n == 0 {
		t.Fatalf("dispatch_retries_total = 0 after a worker loss")
	}
	if n := m.Counter("dispatch_local_fallback_total").Value(); n != 0 {
		t.Fatalf("dispatch_local_fallback_total = %d, want 0 (survivor covers)", n)
	}
}

// TestDispatchAllWorkersLost drops the whole tier: every cell falls
// back to local execution and the sweep still matches single-node.
func TestDispatchAllWorkersLost(t *testing.T) {
	_, solo := newTestServer(t)
	_, wts1 := newWorker(t)
	coord, cts := newCoordinator(t, 30*time.Second, wts1.URL)
	wts1.Close()

	_, info := postSweep(t, solo.URL, tinySweepBody)
	want := waitSweep(t, solo.URL, info.ID)

	_, dinfo := postSweep(t, cts.URL, tinySweepBody)
	got := waitSweep(t, cts.URL, dinfo.ID)
	if got.Status != sweepDone {
		t.Fatalf("job = %q (%s), want done via local fallback", got.Status, got.Error)
	}
	a, _ := json.Marshal(want.Result.Points)
	b, _ := json.Marshal(got.Result.Points)
	if !bytes.Equal(a, b) {
		t.Fatal("local-fallback sweep diverged from single-node")
	}
	m := coord.Metrics()
	if n := m.Counter("dispatch_local_fallback_total").Value(); n != 8 {
		t.Fatalf("dispatch_local_fallback_total = %d, want all 8 cells", n)
	}
	if n := m.Counter("dispatch_fallback_total").Value(); n != 8 {
		t.Fatalf("dispatch_fallback_total = %d, want all 8 cells", n)
	}
	if n := m.Counter("dispatch_worker_losses_total").Value(); n != 1 {
		t.Fatalf("dispatch_worker_losses_total = %d, want 1", n)
	}
}

// TestDispatchGarbageBody puts a worker in the tier that answers
// every cell with a body that is not a result: each sweep cell and
// each /v1/run must fall back to local execution, match single-node,
// and be counted — and no garbage body may reach the cache.
func TestDispatchGarbageBody(t *testing.T) {
	_, solo := newTestServer(t)
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte("\x00not a result"))
	}))
	t.Cleanup(garbage.Close)
	coord, cts := newCoordinator(t, 30*time.Second, garbage.URL)

	_, info := postSweep(t, solo.URL, tinySweepBody)
	want := waitSweep(t, solo.URL, info.ID)
	_, dinfo := postSweep(t, cts.URL, tinySweepBody)
	got := waitSweep(t, cts.URL, dinfo.ID)
	if got.Status != sweepDone {
		t.Fatalf("job = %q (%s), want done via local fallback", got.Status, got.Error)
	}
	a, _ := json.Marshal(want.Result.Points)
	b, _ := json.Marshal(got.Result.Points)
	if !bytes.Equal(a, b) {
		t.Fatal("fallback sweep diverged from single-node")
	}
	q := "/v1/run?machine=sim-alpha&workload=C-Ca&limit=3000"
	_, _, wantRun := get(t, solo.URL+q)
	if code, _, gotRun := get(t, cts.URL+q); code != http.StatusOK || !bytes.Equal(gotRun, wantRun) {
		t.Fatalf("dispatched GET %s = %d, diverged:\n%s\nvs\n%s", q, code, wantRun, gotRun)
	}
	m := coord.Metrics()
	for name, want := range map[string]uint64{
		"dispatch_cells_total":          9,
		"dispatch_fallback_total":       9, // every body failed to decode
		"dispatch_local_fallback_total": 0, // the worker stayed reachable
		"dispatch_worker_losses_total":  0,
		"cells_simulated_total":         1, // the run; sweep cells run inside the engine
	} {
		if n := m.Counter(name).Value(); n != want {
			t.Errorf("%s = %d, want %d", name, n, want)
		}
	}
	resp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var text bytes.Buffer
	text.ReadFrom(resp.Body)
	if !strings.Contains(text.String(), "dispatch_fallback_total 9\n") {
		t.Errorf("/metrics lacks dispatch_fallback_total 9:\n%s", text.String())
	}
}

// TestDispatchSteal puts a deliberately slow proxy in front of one
// worker: with a tiny steal timer, its cells must be speculatively
// re-launched on the fast worker and the first result wins.
func TestDispatchSteal(t *testing.T) {
	_, wts1 := newWorker(t)
	_, wts2 := newWorker(t)

	u1, _ := url.Parse(wts1.URL)
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		httputil.NewSingleHostReverseProxy(u1).ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)

	coord, cts := newCoordinator(t, 20*time.Millisecond, slow.URL, wts2.URL)

	_, dinfo := postSweep(t, cts.URL, tinySweepBody)
	got := waitSweep(t, cts.URL, dinfo.ID)
	if got.Status != sweepDone {
		t.Fatalf("job = %q (%s)", got.Status, got.Error)
	}
	m := coord.Metrics()
	if n := m.Counter("dispatch_steals_total").Value(); n == 0 {
		t.Fatal("no steals recorded against a straggling worker")
	}
	if n := m.Counter("dispatch_local_fallback_total").Value(); n != 0 {
		t.Fatalf("dispatch_local_fallback_total = %d, want 0", n)
	}
}

// TestRunDispatch checks /v1/run rides the tier too, byte-identical
// to a single-node response, including sampled runs.
func TestRunDispatch(t *testing.T) {
	_, solo := newTestServer(t)
	w1, wts1 := newWorker(t)
	coord, cts := newCoordinator(t, 30*time.Second, wts1.URL)

	for _, q := range []string{
		"/v1/run?machine=sim-alpha&workload=C-Ca&limit=3000",
		"/v1/run?machine=sim-alpha&workload=M-D&limit=30000&sample=true&sample_period=3000&sample_warmup=300&sample_measure=300",
	} {
		code, _, want := get(t, solo.URL+q)
		if code != http.StatusOK {
			t.Fatalf("single-node GET %s = %d: %s", q, code, want)
		}
		code, _, got := get(t, cts.URL+q)
		if code != http.StatusOK {
			t.Fatalf("dispatched GET %s = %d: %s", q, code, got)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("dispatched %s diverged:\n%s\nvs\n%s", q, want, got)
		}
	}
	if n := coord.Metrics().Counter("cells_simulated_total").Value(); n != 0 {
		t.Fatalf("coordinator simulated %d cells itself", n)
	}
	if n := w1.Metrics().Counter("cells_simulated_total").Value(); n != 2 {
		t.Fatalf("worker simulated %d cells, want 2", n)
	}
	// The worker recorded its own simulation events; sampled-run
	// metrics live on the coordinator that served the response.
	if n := coord.Metrics().Counter("sample_runs_total").Value(); n != 1 {
		t.Fatalf("coordinator sample_runs_total = %d, want 1", n)
	}
}

// TestDispatchGeneratedCell checks minted workloads ride the worker
// tier: the worker has no minted catalogue, so the cell carries the
// generation spec and the worker rebuilds the program from it,
// byte-identical to the coordinator running it alone.
func TestDispatchGeneratedCell(t *testing.T) {
	_, solo := newTestServer(t)
	w1, wts1 := newWorker(t)
	coord, cts := newCoordinator(t, 30*time.Second, wts1.URL)

	spec := workgen.DefaultSpec()
	spec.Iters = 300
	body := specBody(t, spec)
	for _, u := range []string{solo.URL, cts.URL} {
		if code, _ := postGenerate(t, u, body); code != http.StatusCreated {
			t.Fatalf("mint on %s = %d", u, code)
		}
	}

	q := "/v1/run?machine=sim-alpha&workload=" + spec.Name() + "&limit=3000"
	code, _, want := get(t, solo.URL+q)
	if code != http.StatusOK {
		t.Fatalf("single-node GET %s = %d: %s", q, code, want)
	}
	code, _, got := get(t, cts.URL+q)
	if code != http.StatusOK {
		t.Fatalf("dispatched GET %s = %d: %s", q, code, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("dispatched generated run diverged:\n%s\nvs\n%s", want, got)
	}
	if n := coord.Metrics().Counter("cells_simulated_total").Value(); n != 0 {
		t.Fatalf("coordinator simulated %d cells itself", n)
	}
	if n := w1.Metrics().Counter("cells_simulated_total").Value(); n != 1 {
		t.Fatalf("worker simulated %d cells, want 1", n)
	}

	// A raw cell with a spec but no prior mint works too (the worker
	// path), and a name mismatch is rejected.
	sb, _ := json.Marshal(spec)
	cell := `{"machine": "sim-alpha", "workload": "` + spec.Name() + `", "limit": 3000, "generate": ` + string(sb) + `}`
	resp, err := http.Post(wts1.URL+"/v1/cell", "application/json", strings.NewReader(cell))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cell with generate spec = %d", resp.StatusCode)
	}
	bad := `{"machine": "sim-alpha", "workload": "wg-wrong-name", "limit": 3000, "generate": ` + string(sb) + `}`
	resp, err = http.Post(wts1.URL+"/v1/cell", "application/json", strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("cell accepted a generate spec under the wrong workload name")
	}
}
