package main

import (
	"math"
	"math/rand/v2"
	"sort"
)

// zipf draws ranks 0..n-1 with P(k) proportional to 1/(k+1)^s, by
// inverse transform over the cumulative weights.
type zipf struct {
	cum []float64 // cum[k] is the weight of ranks 0..k
}

func newZipf(n int, s float64) *zipf {
	cum := make([]float64, n)
	sum := 0.0
	for k := range cum {
		sum += 1 / math.Pow(float64(k+1), s)
		cum[k] = sum
	}
	return &zipf{cum: cum}
}

// draw returns a rank below n, for 0 < n <= the zipf's size.
func (z *zipf) draw(r *rand.Rand, n int) int {
	u := r.Float64() * z.cum[n-1]
	return min(sort.SearchFloat64s(z.cum[:n], u), n-1)
}

// newRand returns the benchmark's random stream for one purpose: the
// same seed and stream name always give the same draws.
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}
