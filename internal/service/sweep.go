// Sweep jobs: the asynchronous face of internal/sweep. A design-space
// exploration visits hundreds of (point × workload) cells, far past
// any sane request deadline, so /v1/sweep is a job API rather than a
// blocking route: POST validates the whole request synchronously
// (space check, point budget, workload names) and returns 202 with a
// job ID; GET polls status and, on completion, the full result;
// DELETE cancels. Jobs share the server's content-addressed cache, so
// a re-POSTed sweep — or one overlapping an earlier sweep's cells —
// is answered almost entirely from memory.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/sweep"
	"repro/internal/workgen"
)

// sweepAxis is one requested axis: a name, a dot-path into the
// machine's config struct, and the candidate values (the first is the
// baseline by convention).
type sweepAxis struct {
	Name   string `json:"name"`
	Field  string `json:"field"`
	Values []any  `json:"values"`
}

// sweepRequest is the POST /v1/sweep body.
type sweepRequest struct {
	// Machine is the swept base config (default "sim-alpha"; for a
	// calibration with no axes, "sim-initial"). The reference machine
	// is not sweepable: its config is an identity, not a buildable one.
	Machine string      `json:"machine"`
	Axes    []sweepAxis `json:"axes"`
	// Strategy picks the enumeration: "grid" (default), "random"
	// (Seed + Samples), or "ofat". Ignored by the calibration
	// analysis, which does its own coordinate descent.
	Strategy string `json:"strategy,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	Samples  int    `json:"samples,omitempty"`
	// Workloads names the suite (default: the 21 microbenchmarks).
	Workloads []string `json:"workloads,omitempty"`
	// Generate expands a workgen family into additional suite members
	// for this job only: the members are synthesized inline, not minted
	// into the catalogue (POST /v1/workloads/generate does that). They
	// may coexist with named Workloads in the same sweep.
	Generate *workgen.Family `json:"generate,omitempty"`
	// Limit caps dynamic instructions per cell (0 = workload length).
	Limit uint64 `json:"limit,omitempty"`
	// Analysis is "" (raw point results), "sensitivity", or
	// "calibration". The analyses run against Reference (default
	// "native-ds10l").
	Analysis  string `json:"analysis,omitempty"`
	Reference string `json:"reference,omitempty"`
	// MaxRounds bounds calibration's coordinate descent (0 = 10).
	MaxRounds int `json:"max_rounds,omitempty"`
}

// sweepCell is one workload's result at one point.
type sweepCell struct {
	Workload     string  `json:"workload"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`
	CPI          float64 `json:"cpi"`
}

// sweepPointOut is one explored point in a raw sweep result.
type sweepPointOut struct {
	Label string      `json:"label"`
	Cells []sweepCell `json:"cells"`
}

// sweepJobResult is the completed job's payload: exactly one of
// Points / Sensitivity / Calibration is populated, per Analysis.
type sweepJobResult struct {
	Points      []sweepPointOut          `json:"points,omitempty"`
	Sensitivity *sweep.SensitivityResult `json:"sensitivity,omitempty"`
	Calibration *sweep.CalibrationResult `json:"calibration,omitempty"`
	// Trace is the calibration convergence trace, pre-rendered (the
	// same text cmd/validate prints).
	Trace string      `json:"trace,omitempty"`
	Stats sweep.Stats `json:"stats"`
}

// Job states. queued → running → done|failed|canceled.
const (
	sweepQueued   = "queued"
	sweepRunning  = "running"
	sweepDone     = "done"
	sweepFailed   = "failed"
	sweepCanceled = "canceled"
)

// sweepJob is one submitted sweep with its lifecycle state.
type sweepJob struct {
	id      string
	created time.Time
	cancel  context.CancelFunc

	mu        sync.Mutex
	status    string
	errMsg    string
	result    *sweepJobResult
	machine   string
	analysis  string
	strategy  string
	points    int
	cells     int
	cacheHits int
}

func (j *sweepJob) setStatus(st string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalSweepStatus(j.status) {
		return // a cancel that already landed wins over a late transition
	}
	j.status = st
}

func (j *sweepJob) finish(res *sweepJobResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminalSweepStatus(j.status) {
		return
	}
	switch {
	case err == nil:
		j.status = sweepDone
		j.result = res
	case errors.Is(err, context.Canceled):
		j.status = sweepCanceled
	default:
		j.status = sweepFailed
		j.errMsg = err.Error()
	}
}

func terminalSweepStatus(st string) bool {
	return st == sweepDone || st == sweepFailed || st == sweepCanceled
}

// sweepJobInfo is the wire rendering of a job's state.
type sweepJobInfo struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Machine  string `json:"machine"`
	Analysis string `json:"analysis,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	// Points is the planned point count at submit, replaced by the
	// executed count (with Cells and CacheHits) once the job is done.
	Points    int       `json:"points"`
	Cells     int       `json:"cells,omitempty"`
	CacheHits int       `json:"cache_hits,omitempty"`
	Created   time.Time `json:"created"`
	Error     string    `json:"error,omitempty"`
	// Result is present only on status "done".
	Result *sweepJobResult `json:"result,omitempty"`
}

func (j *sweepJob) info(withResult bool) sweepJobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := sweepJobInfo{
		ID:        j.id,
		Status:    j.status,
		Machine:   j.machine,
		Analysis:  j.analysis,
		Strategy:  j.strategy,
		Points:    j.points,
		Cells:     j.cells,
		CacheHits: j.cacheHits,
		Created:   j.created,
		Error:     j.errMsg,
	}
	if withResult {
		out.Result = j.result
	}
	return out
}

// sweepPlan is a validated request, ready to execute.
type sweepPlan struct {
	req       sweepRequest
	space     *sweep.Space
	pts       []sweep.Point // nil for calibration (descent enumerates)
	strategy  string
	workloads []core.Workload
	// gen maps workload name → generation spec for suite members the
	// job synthesized inline (req.Generate) or resolved to minted
	// catalogue entries, so remote cells can rebuild them by spec.
	gen    map[string]*workgen.Spec
	refNew func() core.Machine // nil unless an analysis needs it
	points int                 // planned point count (budget accounting)
}

// planSweep validates a request into an executable plan. Every error
// here is the client's fault (HTTP 400/404); nothing has run yet.
func (s *Server) planSweep(req sweepRequest) (sweepPlan, int, error) {
	plan := sweepPlan{req: req}

	switch req.Analysis {
	case "", "sensitivity", "calibration":
	default:
		return plan, http.StatusBadRequest,
			fmt.Errorf("unknown analysis %q (want sensitivity, calibration, or empty)", req.Analysis)
	}

	// The space: explicit axes over a named machine's config, or the
	// canonical sim-initial bug space for an axis-less calibration.
	machine := req.Machine
	if len(req.Axes) == 0 {
		if req.Analysis != "calibration" {
			return plan, http.StatusBadRequest, fmt.Errorf("at least one axis is required")
		}
		if machine == "" || machine == "sim-initial" {
			machine = "sim-initial"
			plan.space = sweep.SimInitialBugSpace()
		} else {
			return plan, http.StatusBadRequest,
				fmt.Errorf("calibration without axes implies the sim-initial bug space; machine %q needs explicit axes", machine)
		}
	} else {
		if machine == "" {
			machine = "sim-alpha"
		}
		spec, ok := s.byMachine[machine]
		if !ok {
			return plan, http.StatusNotFound, fmt.Errorf("unknown machine %q (have: %s)",
				machine, strings.Join(s.machineNames(), ", "))
		}
		if _, err := model.Build(spec.Config); err != nil {
			return plan, http.StatusBadRequest, fmt.Errorf("machine %q is not sweepable: %w", machine, err)
		}
		axes := make([]sweep.Axis, len(req.Axes))
		for i, a := range req.Axes {
			axes[i] = sweep.Axis{Name: a.Name, Field: a.Field, Values: a.Values}
		}
		plan.space = &sweep.Space{Base: spec.Config, Axes: axes}
	}
	if err := plan.space.Check(); err != nil {
		return plan, http.StatusBadRequest, err
	}

	// The suite: named workloads in request order (or the full
	// microbenchmark suite), plus any generated family expanded inline.
	plan.gen = make(map[string]*workgen.Spec)
	seen := make(map[string]bool, len(req.Workloads))
	s.wlMu.RLock()
	if len(req.Workloads) == 0 && req.Generate == nil {
		for _, name := range s.wlOrder {
			if spec := s.byWork[name]; spec.suite == "micro" {
				plan.workloads = append(plan.workloads, spec.w)
			}
		}
	} else {
		for _, name := range req.Workloads {
			spec, ok := s.byWork[name]
			if !ok {
				s.wlMu.RUnlock()
				return plan, http.StatusNotFound, fmt.Errorf("unknown workload %q (see /v1/workloads)", name)
			}
			if seen[name] {
				s.wlMu.RUnlock()
				return plan, http.StatusBadRequest, fmt.Errorf("duplicate workload %q", name)
			}
			seen[name] = true
			plan.workloads = append(plan.workloads, spec.w)
			if spec.gen != nil {
				plan.gen[name] = spec.gen
			}
		}
	}
	s.wlMu.RUnlock()
	if req.Generate != nil {
		f := *req.Generate
		if err := f.Check(); err != nil {
			return plan, http.StatusBadRequest, fmt.Errorf("generate: %w", err)
		}
		specs, err := f.Specs()
		if err != nil {
			return plan, http.StatusBadRequest, fmt.Errorf("generate: %w", err)
		}
		for _, sp := range specs {
			wk, err := workgen.Generate(sp)
			if err != nil {
				return plan, http.StatusBadRequest, fmt.Errorf("generate %s: %w", sp.Name(), err)
			}
			if seen[wk.Name] {
				return plan, http.StatusBadRequest, fmt.Errorf("duplicate workload %q (named and generated)", wk.Name)
			}
			seen[wk.Name] = true
			sp := sp
			plan.workloads = append(plan.workloads, wk)
			plan.gen[wk.Name] = &sp
		}
	}

	// The reference machine, for analyses only.
	if req.Analysis != "" {
		ref := req.Reference
		if ref == "" {
			ref = "native-ds10l"
		}
		spec, ok := s.byMachine[ref]
		if !ok {
			return plan, http.StatusNotFound, fmt.Errorf("unknown reference machine %q (have: %s)",
				ref, strings.Join(s.machineNames(), ", "))
		}
		plan.refNew = spec.New
	}

	// The point budget. Calibration enumerates per round, so its
	// budget is the worst case the descent can visit.
	maxPts := s.cfg.MaxSweepPoints
	switch req.Analysis {
	case "calibration":
		rounds := req.MaxRounds
		if rounds <= 0 {
			rounds = 10
		}
		perRound := 0
		for _, a := range plan.space.Axes {
			perRound += len(a.Values)
		}
		plan.points = 1 + rounds*perRound
	default:
		var strat sweep.Strategy
		switch req.Strategy {
		case "", "grid":
			strat = sweep.Grid{}
		case "random":
			strat = sweep.Random{Seed: req.Seed, N: req.Samples}
		case "ofat":
			strat = sweep.OneFactorAtATime{}
		default:
			return plan, http.StatusBadRequest,
				fmt.Errorf("unknown strategy %q (want grid, random, or ofat)", req.Strategy)
		}
		if req.Analysis == "sensitivity" {
			// Sensitivity is OFAT by construction; the strategy field
			// is ignored rather than an error so clients can omit it.
			strat = sweep.OneFactorAtATime{}
		}
		plan.strategy = strat.Name()
		pts, err := strat.Enumerate(plan.space)
		if err != nil {
			return plan, http.StatusBadRequest, err
		}
		plan.pts = pts
		plan.points = len(pts)
	}
	if plan.points > maxPts {
		return plan, http.StatusBadRequest,
			fmt.Errorf("sweep visits up to %d points, server bound is %d (shrink the space, sample with strategy=random, or lower max_rounds)",
				plan.points, maxPts)
	}
	plan.req.Machine = machine
	return plan, 0, nil
}

// handleSweepSubmit is POST /v1/sweep: validate, enqueue, 202.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req sweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, http.StatusBadRequest, "invalid JSON body: %v", err)
		return
	}
	plan, code, err := s.planSweep(req)
	if err != nil {
		s.fail(w, code, "%v", err)
		return
	}

	s.sweepMu.Lock()
	active := 0
	for _, j := range s.sweeps {
		j.mu.Lock()
		if !terminalSweepStatus(j.status) {
			active++
		}
		j.mu.Unlock()
	}
	if active >= s.cfg.MaxSweepJobs*sweepQueueFactor {
		s.sweepMu.Unlock()
		s.fail(w, http.StatusTooManyRequests,
			"%d sweep jobs already queued or running (bound %d); retry after one finishes",
			active, s.cfg.MaxSweepJobs*sweepQueueFactor)
		return
	}
	s.sweepSeq++
	ctx, cancel := context.WithCancel(context.Background())
	job := &sweepJob{
		id:       fmt.Sprintf("s-%06d", s.sweepSeq),
		created:  time.Now().UTC(),
		cancel:   cancel,
		status:   sweepQueued,
		machine:  plan.req.Machine,
		analysis: plan.req.Analysis,
		strategy: plan.strategy,
		points:   plan.points,
	}
	s.sweeps[job.id] = job
	s.sweepOrder = append(s.sweepOrder, job.id)
	s.evictSweepHistoryLocked()
	s.sweepMu.Unlock()

	go s.runSweepJob(ctx, job, plan)

	w.Header().Set("Location", "/v1/sweep/"+job.id)
	writeJSON(w, http.StatusAccepted, job.info(false))
}

// sweepQueueFactor bounds queued-but-not-running jobs as a multiple
// of the concurrency bound.
const sweepQueueFactor = 4

// evictSweepHistoryLocked drops the oldest terminal jobs beyond the
// history bound. Live jobs are never evicted, so the map can briefly
// exceed the bound while everything in it is still running.
func (s *Server) evictSweepHistoryLocked() {
	for len(s.sweepOrder) > s.cfg.SweepHistory {
		evicted := false
		for i, id := range s.sweepOrder {
			j := s.sweeps[id]
			j.mu.Lock()
			terminal := terminalSweepStatus(j.status)
			j.mu.Unlock()
			if terminal {
				delete(s.sweeps, id)
				s.sweepOrder = append(s.sweepOrder[:i], s.sweepOrder[i+1:]...)
				s.metrics.Counter("sweep_jobs_evicted_total").Inc()
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// runSweepJob executes one job: waits for a slot, runs the engine,
// records the outcome and its metrics. The engine shares the server's
// result cache, so identical resubmissions are nearly free.
func (s *Server) runSweepJob(ctx context.Context, job *sweepJob, plan sweepPlan) {
	defer job.cancel() // release the context once the job is terminal
	select {
	case s.sweepSem <- struct{}{}:
	case <-ctx.Done():
		job.finish(nil, ctx.Err())
		s.recordSweepOutcome(job, sweep.Stats{})
		return
	}
	defer func() { <-s.sweepSem }()
	job.setStatus(sweepRunning)

	eng := &sweep.Engine{
		Workloads:   plan.workloads,
		Limit:       plan.req.Limit,
		Parallelism: s.cfg.Parallelism,
		Cache:       s.cache,
	}
	if s.dispatch != nil {
		// Shard the sweep's cells over the worker tier: each cell
		// crosses the wire as its machine name plus single-value axes,
		// and the worker rebuilds the identical config. A dispatch
		// failure falls back to local execution inside the engine.
		eng.Remote = func(ctx context.Context, sp *sweep.Space, p sweep.Point, w core.Workload) ([]byte, error) {
			axes := make([]sweepAxis, len(sp.Axes))
			for i, a := range sp.Axes {
				axes[i] = sweepAxis{Name: a.Name, Field: a.Field, Values: []any{a.Values[p[i]]}}
			}
			_, body, err := s.dispatch.run(ctx, cellRequest{
				Machine:  plan.req.Machine,
				Workload: w.Name,
				Limit:    w.MaxInstructions,
				Sample:   w.Sample,
				Axes:     axes,
				// Generated members travel as their spec: the worker's
				// catalogue has no minted entries, so it rebuilds the
				// program deterministically from the spec.
				Generate: plan.gen[w.Name],
			})
			return body, err
		}
	}

	var ref []core.RunResult
	if plan.refNew != nil {
		rs, err := eng.Reference(ctx, plan.refNew)
		if err != nil {
			job.finish(nil, err)
			s.recordSweepOutcome(job, sweep.Stats{})
			return
		}
		ref = rs
	}

	var (
		res *sweepJobResult
		err error
	)
	switch plan.req.Analysis {
	case "calibration":
		cal, cerr := sweep.Calibrate(ctx, eng, plan.space, nil, ref, plan.req.MaxRounds)
		if cerr != nil {
			err = cerr
			break
		}
		res = &sweepJobResult{Calibration: cal, Trace: cal.Trace(), Stats: cal.Stats}
	case "sensitivity":
		sens, serr := sweep.Sensitivity(ctx, eng, plan.space, nil, ref)
		if serr != nil {
			err = serr
			break
		}
		res = &sweepJobResult{Sensitivity: sens, Stats: sens.Stats}
	default:
		prs, st, rerr := eng.Run(ctx, plan.space, plan.pts)
		if rerr != nil {
			err = rerr
			break
		}
		out := make([]sweepPointOut, len(prs))
		for i, pr := range prs {
			cells := make([]sweepCell, len(pr.Results))
			for wi, rr := range pr.Results {
				cells[wi] = sweepCell{
					Workload:     rr.Workload,
					Instructions: rr.Instructions,
					Cycles:       rr.Cycles,
					IPC:          rr.IPC(),
					CPI:          rr.CPI(),
				}
			}
			out[i] = sweepPointOut{Label: pr.Label, Cells: cells}
		}
		res = &sweepJobResult{Points: out, Stats: st}
	}

	job.finish(res, err)
	var st sweep.Stats
	if res != nil {
		st = res.Stats
	}
	s.recordSweepOutcome(job, st)
}

// recordSweepOutcome folds a terminal job into the metrics registry:
// sweep_jobs_total partitions by outcome, and the point/cell/hit
// counters aggregate the exploration volume the cache amortized.
func (s *Server) recordSweepOutcome(job *sweepJob, st sweep.Stats) {
	job.mu.Lock()
	if st.Points > 0 { // keep the planned count on cancel-before-start
		job.points, job.cells, job.cacheHits = st.Points, st.Cells, st.CacheHits
	}
	status := job.status
	job.mu.Unlock()

	s.metrics.Counter("sweep_jobs_total").Inc()
	switch status {
	case sweepFailed:
		s.metrics.Counter("sweep_failures_total").Inc()
	case sweepCanceled:
		s.metrics.Counter("sweep_cancels_total").Inc()
	}
	if st.Points > 0 {
		s.metrics.Counter("sweep_points_total").Add(uint64(st.Points))
	}
	if st.Cells > 0 {
		s.metrics.Counter("sweep_cells_total").Add(uint64(st.Cells))
	}
	if st.CacheHits > 0 {
		s.metrics.Counter("sweep_cache_hits_total").Add(uint64(st.CacheHits))
	}
}

// handleSweepList is GET /v1/sweep: every retained job, oldest first,
// without result bodies.
func (s *Server) handleSweepList(w http.ResponseWriter, _ *http.Request) {
	s.sweepMu.Lock()
	out := make([]sweepJobInfo, 0, len(s.sweepOrder))
	for _, id := range s.sweepOrder {
		out = append(out, s.sweeps[id].info(false))
	}
	s.sweepMu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

// handleSweepGet is GET /v1/sweep/{id}: full status, including the
// result once the job is done.
func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.sweepMu.Lock()
	job, ok := s.sweeps[id]
	s.sweepMu.Unlock()
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown sweep job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, job.info(true))
}

// handleSweepCancel is DELETE /v1/sweep/{id}: cancel a queued or
// running job (idempotent on terminal jobs).
func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.sweepMu.Lock()
	job, ok := s.sweeps[id]
	s.sweepMu.Unlock()
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown sweep job %q", id)
		return
	}
	job.cancel()
	writeJSON(w, http.StatusOK, job.info(false))
}
