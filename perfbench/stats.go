package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile, so a tail is never one or two outliers.
const minBeyond = 10

// tailTenths are the candidate tail percentiles in tenths of a
// percent, highest first.
var tailTenths = []int{999, 990, 950, 900, 750, 500}

// tailPercentile returns the highest candidate percentile that leaves at
// least minBeyond of n samples above it. ok is false when even the
// median leaves fewer; the median is returned then. A workload's tail
// percentile is fixed once, by this rule applied to half the sample
// count its development seed gives (workloadDef.tailP), so a run compares
// the same statistic as its parent even when throughput moves, and the
// percentile stays resolved if throughput halves.
func tailPercentile(n int) (p float64, ok bool) {
	for _, t := range tailTenths {
		if n*(1000-t) >= minBeyond*1000 {
			return float64(t) / 10, true
		}
	}
	return 50, false
}

// percentile interpolates linearly between the order statistics of
// sorted, for p in [0, 100]. It returns 0 for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := p / 100 * float64(n-1)
	lo := int(math.Floor(r))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (r-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// latencies summarises a set of durations in milliseconds, with the
// tail at a fixed percentile. tailOK is false when fewer than minBeyond
// samples lie above that percentile; the tail is then unresolved, and
// still reported at the same percentile.
type latencies struct {
	n      int
	p50    float64
	tail   float64
	tailP  float64
	tailOK bool
}

func (l latencies) String() string {
	s := fmt.Sprintf("p%g of %d samples", l.tailP, l.n)
	if !l.tailOK {
		s += fmt.Sprintf(", fewer than %d beyond it: unresolved", minBeyond)
	}
	return s
}

// summarise reports ds at the fixed tail percentile tailP.
func summarise(ds []time.Duration, tailP float64) latencies {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d.Nanoseconds()) / 1e6
	}
	sort.Float64s(ms)
	tenths := int(math.Round(tailP * 10))
	ok := len(ms)*(1000-tenths) >= minBeyond*1000
	return latencies{n: len(ms), p50: percentile(ms, 50), tail: percentile(ms, tailP), tailP: tailP, tailOK: ok}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
