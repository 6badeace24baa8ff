// The distributed tier: a coordinator shards simulation cells over
// registered workers by content hash and serves their results; every
// worker is just a simd/simw serving POST /v1/cell.
//
// A cell is the unit of distribution: one (machine config × workload
// × budget) simulation, optionally under a sampling plan, described
// by name and axis values rather than by Go config structs so it
// crosses the wire as plain JSON. The worker rebuilds the exact
// config through the same sweep mutation path the coordinator would
// use locally, so local and remote cells produce identical result
// bytes — which is what lets the coordinator fall back to local
// execution at any point without changing results.
//
// Failure model: a transport error marks the worker lost and retries
// the cell on the next worker in shard order (the cell is
// deterministic and its caches are content-addressed, so re-running
// is always safe); a cell that outlives the steal timer is
// additionally launched on another worker and the first result wins
// (work-stealing on stragglers); when every worker has failed, the
// caller runs the cell locally. Lost workers are re-probed
// optimistically after a cooldown, so a restarted worker rejoins
// without coordinator restarts.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sweep"
	"repro/internal/workgen"
)

// cellRequest is the POST /v1/cell body: one simulation cell by
// machine name, axis assignments (each axis carries exactly one
// value — the cell's coordinate), workload name, and budget.
type cellRequest struct {
	Machine  string           `json:"machine"`
	Workload string           `json:"workload"`
	Limit    uint64           `json:"limit,omitempty"`
	Sample   *core.SamplePlan `json:"sample,omitempty"`
	Axes     []sweepAxis      `json:"axes,omitempty"`
	// Generate carries a minted workload's generation spec: the worker
	// regenerates the program deterministically from the spec (minted
	// catalogues are per-process, so the name alone would not resolve
	// remotely — and generation is cheaper than shipping programs).
	Generate *workgen.Spec `json:"generate,omitempty"`
}

// handleCell is POST /v1/cell, the worker side of the distributed
// tier: rebuild the cell's config, run it through the local
// content-addressed cache, and return the marshaled core.RunResult.
func (s *Server) handleCell(w http.ResponseWriter, r *http.Request) {
	var req cellRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	spec, ok := s.byMachine[req.Machine]
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown machine %q", req.Machine)
		return
	}
	var wl workloadSpec
	if req.Generate != nil {
		if err := req.Generate.Check(); err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		wk, err := workgen.Generate(*req.Generate)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "generate: %v", err)
			return
		}
		if req.Workload != "" && req.Workload != wk.Name {
			s.fail(w, http.StatusBadRequest, "workload %q does not match generated name %q",
				req.Workload, wk.Name)
			return
		}
		wl = workloadSpec{w: wk, suite: "generated", gen: req.Generate}
	} else {
		var ok bool
		s.wlMu.RLock()
		wl, ok = s.byWork[req.Workload]
		s.wlMu.RUnlock()
		if !ok {
			s.fail(w, http.StatusNotFound, "unknown workload %q", req.Workload)
			return
		}
	}
	cfg := spec.Config
	if len(req.Axes) > 0 {
		axes := make([]sweep.Axis, len(req.Axes))
		for i, a := range req.Axes {
			if len(a.Values) != 1 {
				s.fail(w, http.StatusBadRequest, "cell axis %q carries %d values, want exactly 1", a.Name, len(a.Values))
				return
			}
			axes[i] = sweep.Axis{Name: a.Name, Field: a.Field, Values: a.Values}
		}
		space := &sweep.Space{Base: spec.Config, Axes: axes}
		pointCfg, err := space.Config(space.Origin())
		if err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		cfg = pointCfg
	}
	work := wl.w
	if req.Limit > 0 && (work.MaxInstructions == 0 || work.MaxInstructions > req.Limit) {
		work.MaxInstructions = req.Limit
	}
	if req.Sample != nil {
		if err := req.Sample.Check(); err != nil {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		work.Sample = req.Sample
	}

	// The same key the coordinator's sweep engine derives for this
	// cell, so worker caches line up shard-by-shard with sweeps.
	key := sweep.CellKey(cfg, work)
	s.serveCached(w, r, key, func() ([]byte, error) {
		s.acquire()
		defer s.release()
		s.metrics.Counter("cells_simulated_total").Inc()
		// An unmutated cell runs the registered constructor (which
		// covers composite identities like the reference machine); a
		// swept cell rebuilds from the mutated config through the
		// registry's builder.
		var m core.Machine
		if len(req.Axes) == 0 {
			m = spec.New()
		} else {
			var err error
			m, err = model.Build(cfg)
			if err != nil {
				return nil, err
			}
		}
		res, err := m.Run(work)
		if err != nil {
			return nil, err
		}
		s.recordSimEvents(res)
		return json.Marshal(res)
	}, "application/json")
}

// runCell produces one cell's result: dispatched to the worker tier
// when one is configured — falling back to local execution on any
// dispatch failure — and simulated locally otherwise. The response is
// identical either way; only sim_event_* attribution moves (each
// process records the events it simulated itself).
func (s *Server) runCell(spec model.Descriptor, work core.Workload) (core.RunResult, error) {
	if s.dispatch != nil {
		req := cellRequest{
			Machine:  spec.Name,
			Workload: work.Name,
			Limit:    work.MaxInstructions,
			Sample:   work.Sample,
		}
		// A minted workload travels as its generation spec so the
		// worker can rebuild it without sharing our catalogue.
		s.wlMu.RLock()
		if wl, ok := s.byWork[work.Name]; ok && wl.gen != nil {
			req.Generate = wl.gen
		}
		s.wlMu.RUnlock()
		// context.Background: like a local computation, a dispatched
		// cell outlives its request deadline to populate the cache.
		if res, _, err := s.dispatch.run(context.Background(), req); err == nil {
			return res, nil
		}
	}
	s.metrics.Counter("cells_simulated_total").Inc()
	res, err := spec.New().Run(work)
	if err != nil {
		return core.RunResult{}, err
	}
	s.recordSimEvents(res)
	return res, nil
}

// workerRef is one registered worker with its liveness state.
type workerRef struct {
	idx  int
	base string
	// down marks a worker lost after a transport error; lost workers
	// are optimistically re-probed after probeCooldown.
	down      atomic.Bool
	downSince atomic.Int64 // unix nanos
	// cells is the shard counter mirrored to dispatch_worker_<i>_cells_total.
	cells *metrics.Counter
}

const probeCooldown = 15 * time.Second

// dispatcher shards cells over the worker tier.
type dispatcher struct {
	client     *http.Client
	reg        *metrics.Registry
	stealAfter time.Duration
	workers    []*workerRef
}

func newDispatcher(workers []string, stealAfter time.Duration, reg *metrics.Registry) *dispatcher {
	if stealAfter <= 0 {
		stealAfter = 15 * time.Second
	}
	d := &dispatcher{
		client:     &http.Client{Timeout: 5 * time.Minute},
		reg:        reg,
		stealAfter: stealAfter,
	}
	for i, base := range workers {
		base = strings.TrimRight(base, "/")
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		d.workers = append(d.workers, &workerRef{
			idx:   i,
			base:  base,
			cells: reg.Counter(fmt.Sprintf("dispatch_worker_%d_cells_total", i)),
		})
	}
	reg.Gauge("dispatch_workers").Set(int64(len(d.workers)))
	return d
}

// order returns the workers to try for a cell, home worker first:
// shard affinity is a SHA-256 over the cell's request bytes reduced
// modulo the worker count, so identical cells always land on the same
// worker (maximizing its local cache) and distinct cells spread.
// (Not FNV: its low bits are a parity of the input's low bits, and
// cell bodies differing only in even digits all land on one worker.)
// Lost workers sort last and are included only when their cooldown
// has expired.
func (d *dispatcher) order(body []byte) []*workerRef {
	sum := sha256.Sum256(body)
	n := len(d.workers)
	home := int(binary.BigEndian.Uint32(sum[:4]) % uint32(n))
	var live, retry []*workerRef
	for i := 0; i < n; i++ {
		w := d.workers[(home+i)%n]
		if !w.down.Load() {
			live = append(live, w)
		} else if time.Since(time.Unix(0, w.downSince.Load())) > probeCooldown {
			retry = append(retry, w)
		}
	}
	return append(live, retry...)
}

// lose marks a worker lost after a transport error.
func (d *dispatcher) lose(w *workerRef) {
	if !w.down.Swap(true) {
		d.reg.Counter("dispatch_worker_losses_total").Inc()
	}
	w.downSince.Store(time.Now().UnixNano())
}

// errStatus is a non-retryable worker response: the worker is alive
// and rejected the cell, so every worker (and a local run) would too.
type errStatus struct {
	code int
	msg  string
}

func (e *errStatus) Error() string { return fmt.Sprintf("worker returned %d: %s", e.code, e.msg) }

// attempt posts the cell to one worker and returns the result bytes.
func (d *dispatcher) attempt(ctx context.Context, w *workerRef, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/cell", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &errStatus{code: resp.StatusCode, msg: strings.TrimSpace(string(out))}
	}
	return out, nil
}

// run dispatches one cell and returns the worker's result, decoded
// and as the body it arrived in. An error return means the caller
// falls back to local simulation: unless ctx ended, it is counted in
// dispatch_fallback_total, whatever its cause — no worker reachable
// (also counted in dispatch_local_fallback_total), a worker rejecting
// the cell, or a body that does not decode as a result, which must
// never reach a cache.
func (d *dispatcher) run(ctx context.Context, req cellRequest) (core.RunResult, []byte, error) {
	var res core.RunResult
	body, err := d.send(ctx, req)
	if err == nil {
		if err = json.Unmarshal(body, &res); err != nil {
			err = fmt.Errorf("dispatch: worker body is not a result: %w", err)
		}
	}
	if err != nil && ctx.Err() == nil {
		d.reg.Counter("dispatch_fallback_total").Inc()
	}
	return res, body, err
}

// send dispatches one cell: home worker by shard affinity, steal to
// the next worker if the home straggles past the timer, retry down
// the shard order on transport errors, and an error return once
// every worker has failed. First successful result wins; duplicate
// executions are harmless because cells are deterministic and
// content-addressed.
func (d *dispatcher) send(ctx context.Context, req cellRequest) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	order := d.order(body)
	if len(order) == 0 {
		d.reg.Counter("dispatch_local_fallback_total").Inc()
		return nil, fmt.Errorf("dispatch: no live workers")
	}
	d.reg.Counter("dispatch_cells_total").Inc()

	type outcome struct {
		body []byte
		err  error
		w    *workerRef
	}
	resc := make(chan outcome, len(order))
	launched := 0
	launch := func() {
		w := order[launched]
		launched++
		w.cells.Inc()
		go func() {
			out, err := d.attempt(ctx, w, body)
			resc <- outcome{out, err, w}
		}()
	}
	launch()
	steal := time.NewTimer(d.stealAfter)
	defer steal.Stop()

	pending := 1
	var lastErr error
	for pending > 0 {
		select {
		case o := <-resc:
			pending--
			if o.err == nil {
				return o.body, nil
			}
			lastErr = o.err
			if st, ok := o.err.(*errStatus); ok {
				// The worker is alive; its rejection is the cell's answer.
				return nil, st
			}
			d.lose(o.w)
			if launched < len(order) {
				d.reg.Counter("dispatch_retries_total").Inc()
				launch()
				pending++
			}
		case <-steal.C:
			if launched < len(order) {
				d.reg.Counter("dispatch_steals_total").Inc()
				launch()
				pending++
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	d.reg.Counter("dispatch_local_fallback_total").Inc()
	return nil, fmt.Errorf("dispatch: all %d workers failed: %w", len(order), lastErr)
}
