package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"repro"
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/workgen"
)

// recordJob computes one oracle entry.
type recordJob struct {
	key string
	run func() (simResult, error)
}

func runJob(key, backend string, w core.Workload) recordJob {
	return recordJob{key, func() (simResult, error) {
		m, err := model.New(backend)
		if err != nil {
			return simResult{}, err
		}
		res, err := m.Run(w)
		return fromRun(res), err
	}}
}

// recordOracle runs every operation any seed of any workload can run and
// writes the outcomes to path.
func recordOracle(path string) error {
	var jobs []recordJob
	seen := map[string]bool{}
	add := func(js ...recordJob) {
		for _, j := range js {
			if !seen[j.key] {
				seen[j.key] = true
				jobs = append(jobs, j)
			}
		}
	}

	// grid-short: every generation stream of every working-set level.
	var specs []workgen.Spec
	for _, kb := range gridWorkingSetsKB {
		for seed := uint64(1); seed <= gridGenSeeds; seed++ {
			s := workgen.DefaultSpec()
			s.WorkingSetKB, s.Seed = kb, seed
			specs = append(specs, s)
		}
	}
	ws, _, err := gridPrograms(specs, map[string]float64{})
	if err != nil {
		return err
	}
	progs := map[string]core.Workload{}
	for _, w := range ws {
		progs[w.Name] = w
		w.MaxInstructions = gridLimit
		for _, b := range gridBackends {
			add(runJob(opKey("run", b, w.Name, gridLimit), b, w))
		}
	}

	// long-detailed, its warm-up, and its native references.
	for _, r := range longRuns {
		w := progs[r.workload]
		add(runJob(opKey("run", r.backend, w.Name, 0), r.backend, w),
			runJob(opKey("run", "native-ds10l", w.Name, 0), "native-ds10l", w))
		w.MaxInstructions = gridLimit
		add(runJob(opKey("run", r.backend, w.Name, gridLimit), r.backend, w))
	}

	// sampled-gcc and its full-run reference.
	gcc := progs["gcc"]
	gcc.MaxInstructions = sampledLimit
	add(runJob(opKey("run", sampledMachine, gcc.Name, sampledLimit), sampledMachine, gcc))
	inst, err := setupSampled(1, nil, map[string]float64{})
	if err != nil {
		return err
	}
	s := inst.(*sampled)
	for _, path := range samplePaths {
		path := path
		add(recordJob{s.key(path), func() (simResult, error) {
			m := model.MustNew(sampledMachine)
			var est repro.SampledEstimates
			var err error
			if path == "smarts" {
				est, err = repro.RunSampled(m, s.w, smartsPlan)
			} else {
				est, err = repro.RunCheckpointSampled(m, s.w, s.lib, s.libPlan, 1)
			}
			return fromSampled(est), err
		}})
	}

	// serve-mixed: the whole key universe, run the way the service runs a
	// request (the request's limit caps the workload's own budget).
	names, err := catalogue()
	if err != nil {
		return err
	}
	for _, k := range serveUniverse(names) {
		w, ok := repro.WorkloadByName(k.workload)
		if !ok {
			return fmt.Errorf("no workload %q", k.workload)
		}
		if w.MaxInstructions == 0 || w.MaxInstructions > k.limit {
			w.MaxInstructions = k.limit
		}
		add(runJob(k.oracleKey(), k.backend, w))
	}

	res, err := runner.Map(workers, jobs, func(_ int, j recordJob) (simResult, error) { return j.run() })
	if err != nil {
		return err
	}
	m := map[string]outcome{}
	for i, j := range jobs {
		m[j.key] = res[i].outcome
	}
	fmt.Printf("recorded %d outcomes\n", len(m))
	return writeOracle(path, m)
}

// catalogue lists the service's builtin workloads.
func catalogue() ([]string, error) {
	rec := httptest.NewRecorder()
	service.New(service.Config{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/workloads", nil))
	var listed []struct {
		Name      string `json:"name"`
		Generated bool   `json:"generated"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listed); err != nil {
		return nil, err
	}
	var names []string
	for _, w := range listed {
		if !w.Generated {
			names = append(names, w.Name)
		}
	}
	return names, nil
}
