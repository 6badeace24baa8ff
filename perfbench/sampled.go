package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/model"
)

// sampledLimit is the sampled run's stream length.
const sampledLimit = 750_000

// smartsPlan is the continuous sampling schedule: per 7.5k-instruction
// period, 750 warm-up and 750 measured instructions in detail.
var smartsPlan = core.SamplePlan{Period: 7_500, Warmup: 750, Measure: 750}

const sampledMachine = "sim-alpha"

// sampled alternates SMARTS sampling (functional fast-forward between
// short detailed windows) with checkpointed sampling (a checkpoint
// restore per window) against a library built during set-up.
type sampled struct {
	w       core.Workload
	libPlan core.SamplePlan
	lib     *checkpoint.Library
	first   int // the seed picks where in sampleCycle a run starts
}

var samplePaths = []string{"smarts", "ckpt"}

// sampleCycle runs a checkpointed sample twice per SMARTS sample. With
// unequal counts the median falls inside the checkpointed runs and the
// tail inside the SMARTS runs, instead of in the gap between the two.
var sampleCycle = []string{"smarts", "ckpt", "ckpt"}

func setupSampled(seed uint64, _ *phase, build map[string]float64) (instance, error) {
	ws, err := macroPrograms(build, "gcc")
	if err != nil {
		return nil, err
	}
	w := ws[0]
	build["asm.image_mb"] = imageMB(ws)
	w.MaxInstructions = sampledLimit
	s := &sampled{w: w, libPlan: repro.CheckpointLibraryPlan(sampledLimit), first: newRand(seed, streamSampledOrder).IntN(len(sampleCycle))}
	start := time.Now()
	lib, err := repro.BuildCheckpointLibrary(model.MustNew(sampledMachine), w, s.libPlan)
	if err != nil {
		return nil, fmt.Errorf("checkpoint library: %w", err)
	}
	build["checkpoint.library_build_ms"] = msOf(time.Since(start))
	s.lib = lib
	return s, nil
}

func (s *sampled) key(path string) string { return opKey(path, sampledMachine, s.w.Name, sampledLimit) }

// measure runs whole cycles until the deadline, so the paths keep their
// proportions, with a calibration op between cycles.
func (s *sampled) measure(p *phase) error {
	for cycle := 0; cycle == 0 || !p.expired(); cycle++ {
		p.maybeCalibrate()
		for j := range sampleCycle {
			p.record(s.run(p, sampleCycle[(s.first+j)%len(sampleCycle)]))
		}
	}
	return nil
}

func (s *sampled) run(p *phase, path string) opResult {
	op := p.newOp()
	root := p.tr.begin(op, -1, "op")
	start := time.Now()
	sp := p.tr.begin(op, root, "sample."+path)
	m, err := model.New(sampledMachine)
	var est repro.SampledEstimates
	if err == nil {
		if path == "smarts" {
			est, err = repro.RunSampled(m, s.w, smartsPlan)
		} else {
			est, err = repro.RunCheckpointSampled(m, s.w, s.lib, s.libPlan, workers)
		}
	}
	p.tr.end(sp)
	o := opResult{lat: time.Since(start), cpu: p.endOp(op)}
	p.tr.end(root)
	key := s.key(path)
	if err != nil {
		p.failf("%s: %v", key, err)
		o.failed = true
		return o
	}
	r := fromSampled(est)
	o.insts = r.detailed
	o.failed = !p.check(key, r)
	// A SMARTS run loads the program once and streams it functionally;
	// a checkpointed one restores page images instead.
	if p.tr != nil && path == "smarts" {
		p.replay(op, s.w.Prog, r.stream)
	}
	return o
}

func (s *sampled) refKeys() []string {
	return []string{s.key(samplePaths[0]), s.key(samplePaths[1])}
}

// cpiErr is the mean |CPI error| of the two sampled estimates against
// the full run, whose outcome expected.json holds.
func (s *sampled) cpiErr(res map[string]simResult, oracle map[string]outcome) (float64, error) {
	full, ok := oracle[opKey("run", sampledMachine, s.w.Name, sampledLimit)]
	if !ok {
		return 0, fmt.Errorf("no full-run outcome")
	}
	var sum float64
	for _, path := range samplePaths {
		r, ok := res[s.key(path)]
		if !ok {
			return 0, fmt.Errorf("%s missing from the reference pass", path)
		}
		sum += pctErr(full.cpi(), r.cpi())
	}
	return sum / 2, nil
}

func (s *sampled) layers(p *phase, out map[string]float64) {
	var n int
	for _, st := range s.lib.States {
		b, err := checkpoint.Encode(st)
		if err != nil {
			p.failf("encode checkpoint at %d: %v", st.Position, err)
		}
		n += len(b)
	}
	out["checkpoint.library_mb"] = float64(n) / 1e6
	var detailed, stream uint64
	for _, path := range samplePaths {
		r := p.results[s.key(path)]
		detailed += r.detailed
		stream += r.stream
	}
	out["sample.detailed_insts"] = float64(detailed)
	out["sample.speedup"] = ratio(float64(stream), float64(detailed))
}

func (s *sampled) close() error { return nil }
