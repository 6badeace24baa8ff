package main

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// The calibration op is a fixed piece of host work that uses none of the
// repository's code: a dependent walk over a 1 MB table, like the
// simulators' mix of integer work and cache misses. The batch workloads
// run it between rounds, outside the measured time, and time it in CPU
// time like the operations, so a run shows whether the host's speed per
// CPU-second moved while it was measured (a neighbour contending for
// caches and memory, a change of clock speed). A change to the
// repository cannot move it.
const (
	calibEntries = 1 << 17 // 1 MB of uint64
	calibSteps   = 400_000
	// calibEvery is the least time between two calibration ops.
	calibEvery = time.Second
	// calibBound is how far the calibration op's speed may move between
	// the two halves of a run before the run's host-time metrics are
	// reported as unresolved. It is the end-to-end metrics' bound.
	calibBound = 0.25
)

var calibTable = sync.OnceValue(func() []uint64 {
	t := make([]uint64, calibEntries)
	x := uint64(1)
	for i := range t {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		t[i] = z ^ z>>31
	}
	return t
})

var calibSink uint64

// calibrate runs the calibration op once and returns the process CPU
// time it took. It allocates nothing once the table is built.
func calibrate() time.Duration {
	t := calibTable()
	start := processCPU()
	var idx, acc uint64
	for i := 0; i < calibSteps; i++ {
		v := t[idx]
		acc += v ^ uint64(i)
		idx = (v ^ acc) & (calibEntries - 1)
	}
	d := processCPU() - start
	calibSink += acc
	return d
}

// maybeCalibrate runs the calibration op if calibEvery has passed since
// the phase's last one. Call it between rounds, when no operation runs.
func (p *phase) maybeCalibrate() {
	if !p.lastCalib.IsZero() && time.Since(p.lastCalib) < calibEvery {
		return
	}
	start := time.Now()
	d := calibrate()
	p.lastCalib = time.Now()
	p.mu.Lock()
	p.calib = append(p.calib, d)
	p.calibWall += p.lastCalib.Sub(start)
	p.mu.Unlock()
}

// calibCPU is the phase's total CPU time in calibration ops, which the
// measured CPU time leaves out.
func (p *phase) calibCPU() time.Duration {
	var sum time.Duration
	for _, d := range p.calib {
		sum += d
	}
	return sum
}

// hostDrift summarises calibration ops in run order: their median in
// milliseconds, and how far the median of the second half moved from
// that of the first, as a share. n is 0 when the run made fewer than
// two.
type hostDrift struct {
	n        int
	medianMS float64
	drift    float64
}

func driftOf(ds []time.Duration) hostDrift {
	if len(ds) < 2 {
		return hostDrift{}
	}
	ms := func(ds []time.Duration) []float64 {
		var xs []float64
		for _, d := range ds {
			xs = append(xs, msOf(d))
		}
		return xs
	}
	h := len(ds) / 2
	first, second := median(ms(ds[:h])), median(ms(ds[len(ds)-h:]))
	return hostDrift{n: len(ds), medianMS: median(ms(ds)), drift: ratio(second-first, first)}
}

func (h hostDrift) resolved() bool { return h.drift <= calibBound && h.drift >= -calibBound }

func (h hostDrift) report(out io.Writer) {
	if h.n == 0 {
		return
	}
	fmt.Fprintf(out, "host calibration op: median %.3f ms over %d; the second half's median moved %+.1f%% from the first's\n",
		h.medianMS, h.n, 100*h.drift)
	if !h.resolved() {
		fmt.Fprintf(out, "host speed moved by more than %.0f%% within the run: its host-time metrics are unresolved\n", 100*calibBound)
	}
}
