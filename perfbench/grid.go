package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/macrobench"
	"repro/internal/runner"
	"repro/internal/workgen"
)

// gridLimit is the grid's per-cell instruction limit. At this length
// program load is a large share of a cell, as in every experiment,
// golden and test that runs short cells.
const gridLimit = 15_000

// gridBackends are the grid's machines: the reference, the validated
// model, and the two simpler tiers.
var gridBackends = []string{"native-ds10l", "sim-alpha", "sim-outorder", "sim-interval"}

// gridWorkingSetsKB step the generated programs' working sets across
// the modelled 64 KB L1 and 2 MB L2: below, at and above each edge.
var gridWorkingSetsKB = []int{32, 64, 128, 1024, 2048, 4096}

// gridGenSeeds is how many generation streams the seed picks from per
// working-set level; expected.json covers all of them.
const gridGenSeeds = 4

// Random streams, one per purpose, so adding draws to one leaves the
// others unchanged.
const (
	streamGridSpecs = iota + 1
	streamGridOrder
	streamLongOrder
	streamSampledOrder
	streamServeRanks
	streamServeRequests
)

type gridCell struct {
	backend string
	w       core.Workload
	key     string
}

type grid struct {
	cells  []gridCell
	macros []string
	rng    *rand.Rand
}

// gridSpecs returns the generated programs' specs the seed picks.
func gridSpecs(seed uint64) []workgen.Spec {
	r := newRand(seed, streamGridSpecs)
	var specs []workgen.Spec
	for _, kb := range gridWorkingSetsKB {
		s := workgen.DefaultSpec()
		s.WorkingSetKB = kb
		s.Seed = 1 + r.Uint64N(gridGenSeeds)
		specs = append(specs, s)
	}
	return specs
}

// macroPrograms generates the named macro proxies (all ten when none
// are named) with macrobench.Generate, which builds afresh on every
// call, so each set-up pays for program generation.
func macroPrograms(build map[string]float64, names ...string) ([]core.Workload, error) {
	start := time.Now()
	var ws []core.Workload
	for _, p := range macrobench.Profiles() {
		if len(names) == 0 || slices.Contains(names, p.Name) {
			ws = append(ws, macrobench.Generate(p))
		}
	}
	build["macrobench.suite_ms"] = msOf(time.Since(start))
	if len(names) > 0 && len(ws) != len(names) {
		return nil, fmt.Errorf("macro proxies %v: found %d", names, len(ws))
	}
	return ws, nil
}

func gridPrograms(specs []workgen.Spec, build map[string]float64) ([]core.Workload, []string, error) {
	ws, err := macroPrograms(build)
	if err != nil {
		return nil, nil, err
	}
	var macros []string
	for _, w := range ws {
		macros = append(macros, w.Name)
	}
	start := time.Now()
	for _, s := range specs {
		w, err := workgen.Generate(s)
		if err != nil {
			return nil, nil, fmt.Errorf("generate %s: %w", s.Name(), err)
		}
		ws = append(ws, w)
	}
	build["workgen.generate_ms"] = msOf(time.Since(start))
	build["asm.image_mb"] = imageMB(ws)
	return ws, macros, nil
}

// imageMB is the programs' code and initialised data, in MB.
func imageMB(ws []core.Workload) float64 {
	var n int
	for _, w := range ws {
		n += 4 * len(w.Prog.Code)
		for _, s := range w.Prog.Segments {
			n += len(s.Bytes)
		}
	}
	return float64(n) / 1e6
}

func setupGrid(seed uint64, warm *phase, build map[string]float64) (instance, error) {
	ws, macros, err := gridPrograms(gridSpecs(seed), build)
	if err != nil {
		return nil, err
	}
	g := &grid{macros: macros, rng: newRand(seed, streamGridOrder)}
	for _, w := range ws {
		w.MaxInstructions = gridLimit
		for _, b := range gridBackends {
			g.cells = append(g.cells, gridCell{b, w, opKey("run", b, w.Name, gridLimit)})
		}
	}
	// Warm-up: one cell per backend.
	for _, c := range g.cells[:len(gridBackends)] {
		warm.record(warm.simulate(c.backend, c.w, c.key))
	}
	return g, nil
}

// nextOrder returns the next pass's cell order.
func (g *grid) nextOrder() []gridCell {
	order := append([]gridCell(nil), g.cells...)
	g.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// measure runs whole grids through runner.Map until the deadline, with a
// calibration op between passes. Cells not started by the deadline are
// skipped, except in the first pass.
func (g *grid) measure(p *phase) error {
	for pass := 0; pass == 0 || !p.expired(); pass++ {
		p.maybeCalibrate()
		order := g.nextOrder()
		lat := make([]time.Duration, len(order))
		ran := make([]bool, len(order))
		sp := p.tr.begin(0, -1, "runner.map")
		start := time.Now()
		_, err := runner.Map(workers, order, func(i int, c gridCell) (struct{}, error) {
			if pass > 0 && p.expired() {
				return struct{}{}, nil
			}
			o := p.simulate(c.backend, c.w, c.key)
			lat[i], ran[i] = o.lat, true
			p.record(o)
			return struct{}{}, nil
		})
		wall := time.Since(start)
		p.tr.end(sp)
		if err != nil {
			return err
		}
		var busy, crit time.Duration
		cells := 0
		for i, d := range lat {
			if ran[i] {
				cells++
				busy += d
				crit = max(crit, d)
			}
		}
		p.add("runner.cells", float64(cells))
		if cells == len(order) {
			p.add("runner.passes", 1)
			p.add("runner.busy_s", busy.Seconds())
			p.add("runner.wall_s", wall.Seconds())
			p.add("runner.critical_cell_ms", msOf(crit))
		}
	}
	return nil
}

func (g *grid) refKeys() []string {
	var ks []string
	for _, c := range g.cells {
		ks = append(ks, c.key)
	}
	return ks
}

// cpiErr is the Table 3 quantity at the grid's length: the mean |CPI
// error| of sim-alpha against native-ds10l over the macro proxies.
func (g *grid) cpiErr(res map[string]simResult, _ map[string]outcome) (float64, error) {
	var sum float64
	for _, w := range g.macros {
		ref, ok1 := res[opKey("run", "native-ds10l", w, gridLimit)]
		sim, ok2 := res[opKey("run", "sim-alpha", w, gridLimit)]
		if !ok1 || !ok2 {
			return 0, fmt.Errorf("%s missing from the reference pass", w)
		}
		sum += pctErr(ref.cpi(), sim.cpi())
	}
	return sum / float64(len(g.macros)), nil
}

// pctErr is the paper's |CPI error| in percent against a reference.
func pctErr(refCPI, simCPI float64) float64 {
	e := 100 * ratio(refCPI-simCPI, refCPI)
	if e < 0 {
		return -e
	}
	return e
}

func (g *grid) layers(p *phase, out map[string]float64) {
	passes := p.acc["runner.passes"]
	out["runner.cells"] = p.acc["runner.cells"]
	out["runner.busy_s"] = ratio(p.acc["runner.busy_s"], passes)
	out["runner.parallel_eff"] = ratio(p.acc["runner.busy_s"], workers*p.acc["runner.wall_s"])
	out["runner.critical_cell_ms"] = ratio(p.acc["runner.critical_cell_ms"], passes)
}

func (g *grid) close() error { return nil }
