package main

import (
	"fmt"

	"repro/internal/core"
)

// longOp is one full-length run of long-detailed.
type longOp struct {
	backend string
	w       core.Workload
	key     string
}

// long runs full-length programs one at a time in a fixed round-robin.
// Every data segment is 250 KB or less, so program load is a small
// share of each run and the timing cores do nearly all the work. The
// round has an odd number of runs of different lengths, so the median
// and the p75 tail fall inside one kind of run instead of in the gap
// between two.
type long struct {
	ops    []longOp
	offset int // the seed picks where the round-robin starts
}

var longRuns = []struct{ backend, workload string }{
	{"sim-alpha", "gcc"},
	{"sim-alpha", "eon"},
	{"sim-alpha", "parser"},
	{"sim-alpha-ddr", "gcc"},
	{"sim-outorder", "gcc"},
}

func setupLong(seed uint64, warm *phase, build map[string]float64) (instance, error) {
	l := &long{offset: newRand(seed, streamLongOrder).IntN(len(longRuns))}
	ws, err := macroPrograms(build, "gcc", "eon", "parser")
	if err != nil {
		return nil, err
	}
	build["asm.image_mb"] = imageMB(ws)
	progs := map[string]core.Workload{}
	for _, w := range ws {
		progs[w.Name] = w
	}
	for _, r := range longRuns {
		w := progs[r.workload]
		l.ops = append(l.ops, longOp{r.backend, w, opKey("run", r.backend, w.Name, 0)})
	}
	// Warm-up: a short run on each backend.
	for _, b := range []string{"sim-alpha", "sim-alpha-ddr", "sim-outorder"} {
		w := progs["gcc"]
		w.MaxInstructions = gridLimit
		warm.record(warm.simulate(b, w, opKey("run", b, w.Name, gridLimit)))
	}
	return l, nil
}

// measure runs whole rounds until the deadline, so every run kind
// appears equally often, with a calibration op between rounds.
func (l *long) measure(p *phase) error {
	for round := 0; round == 0 || !p.expired(); round++ {
		p.maybeCalibrate()
		for j := range l.ops {
			o := l.ops[(l.offset+j)%len(l.ops)]
			p.record(p.simulate(o.backend, o.w, o.key))
		}
	}
	return nil
}

func (l *long) refKeys() []string {
	var ks []string
	for j := range l.ops {
		ks = append(ks, l.ops[(l.offset+j)%len(l.ops)].key)
	}
	return ks
}

// cpiErr is the mean |CPI error| of the runs against native-ds10l on
// the same program, whose full-length outcome expected.json holds.
func (l *long) cpiErr(res map[string]simResult, oracle map[string]outcome) (float64, error) {
	var sum float64
	for _, o := range l.ops {
		ref, ok := oracle[opKey("run", "native-ds10l", o.w.Name, 0)]
		sim, ok2 := res[o.key]
		if !ok || !ok2 {
			return 0, fmt.Errorf("%s: no reference or result", o.key)
		}
		sum += pctErr(ref.cpi(), sim.cpi())
	}
	return sum / float64(len(l.ops)), nil
}

func (l *long) layers(*phase, map[string]float64) {}

func (l *long) close() error { return nil }
