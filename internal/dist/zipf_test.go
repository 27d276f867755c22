package dist

import (
	"math"
	"testing"

	"fbdcnet/internal/rng"
)

// searchRank is Zipf.Rank as it was before the guide table: a binary
// search of the cumulative table for the first entry at least u. It is
// the oracle of the indexed search.
func searchRank(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfRankMatchesBinarySearch requires the guide-table search to
// return the binary search's rank for 10⁶ draws over catalogs of one
// rank, of sizes on and off a power of two (one with a long tail of tiny
// ranks), and of the popularity simulation's 4096 slots; for u equal to
// every table entry and to its neighbours above and below; and for u on
// every guide slot boundary and just below it. Rank must also draw
// exactly one number per call.
func TestZipfRankMatchesBinarySearch(t *testing.T) {
	for _, c := range []struct {
		n int
		s float64
	}{{1, 1}, {7, 1.3}, {1000, 1.0}, {4096, 0.99}, {5000, 0.5}, {20000, 1.5}} {
		z := NewZipf(c.n, c.s)
		check := func(u float64) {
			if u < 0 || u >= 1 {
				return
			}
			if got, want := z.rank(u), searchRank(z.cum, u); got != want {
				t.Fatalf("n=%d s=%v: rank(%v) = %d, want %d", c.n, c.s, u, got, want)
			}
		}
		for _, x := range z.cum {
			check(x)
			check(math.Nextafter(x, 0))
			check(math.Nextafter(x, 1))
		}
		m := float64(len(z.guide))
		for j := range z.guide {
			check(float64(j) / m)
			check(math.Nextafter(float64(j)/m, 0))
		}
		r, ref := rng.New(uint64(c.n)), rng.New(uint64(c.n))
		for i := 0; i < 1_000_000/6; i++ {
			if got, want := z.Rank(r), searchRank(z.cum, ref.Float64()); got != want {
				t.Fatalf("n=%d s=%v: draw %d: rank %d, want %d", c.n, c.s, i, got, want)
			}
		}
		if r.Uint64() != ref.Uint64() {
			t.Fatalf("n=%d s=%v: Rank does not draw exactly one number", c.n, c.s)
		}
	}
}
