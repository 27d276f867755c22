package dist

import (
	"math"

	"fbdcnet/internal/rng"
)

// Zipf samples ranks in [0, N) with probability proportional to
// 1/(rank+1)^S. It models cache object popularity: a small number of hot
// objects receive most requests, the mechanism behind the paper's
// hot-object replication discussion (§5.2).
//
// Sampling inverts a precomputed cumulative table, which is exact for
// the catalog sizes the simulator uses (up to a few million entries),
// through a guide table (Chen and Asau's indexed search): the draw picks
// a guide slot, which names the first rank that can hold it, and a short
// forward scan finds the rank. It returns the rank a binary search of
// the table would.
type Zipf struct {
	cum []float64
	// guide[j] is the smallest rank whose cumulative probability is at
	// least j/len(guide). len(guide) is a power of two, so u*len(guide)
	// and j/len(guide) are exact and slot j's ranks start at guide[j].
	guide []int32
}

// NewZipf builds a Zipf sampler over n ranks with exponent s > 0.
// It panics if n <= 0 or s <= 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 || s <= 0 {
		panic("dist: Zipf requires n > 0 and s > 0")
	}
	cum := make([]float64, n)
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += 1 / math.Pow(float64(i+1), s)
		cum[i] = acc
	}
	for i := range cum {
		cum[i] /= acc
	}
	cum[n-1] = 1
	m := 1
	for m < n {
		m <<= 1
	}
	guide := make([]int32, m)
	i := 0
	for j := range guide {
		for cum[i] < float64(j)/float64(m) {
			i++
		}
		guide[j] = int32(i)
	}
	return &Zipf{cum: cum, guide: guide}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cum) }

// Rank draws a rank in [0, N) with Zipfian probability.
func (z *Zipf) Rank(r *rng.Source) int { return z.rank(r.Float64()) }

// rank returns the smallest rank whose cumulative probability is at
// least u, for u in [0, 1).
func (z *Zipf) rank(u float64) int {
	i := int(z.guide[int(u*float64(len(z.guide)))])
	for z.cum[i] < u {
		i++
	}
	return i
}

// Prob returns the probability of rank i.
func (z *Zipf) Prob(i int) float64 {
	if i < 0 || i >= len(z.cum) {
		return 0
	}
	if i == 0 {
		return z.cum[0]
	}
	return z.cum[i] - z.cum[i-1]
}
