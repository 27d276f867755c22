package packet

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestSortByTimeMatchesStableSort pins SortByTime to sort.SliceStable on
// Time, ties included: many headers share a timestamp, and each carries
// its input position in Size so a reordered tie shows.
func TestSortByTimeMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 17, 1000} {
		hs := make([]Header, n)
		for i := range hs {
			hs[i] = Header{Time: r.Int63n(int64(n/4 + 1)), Size: uint32(i), Key: FlowKey{Src: Addr(r.Uint32())}}
		}
		want := slices.Clone(hs)
		sort.SliceStable(want, func(i, j int) bool { return want[i].Time < want[j].Time })
		SortByTime(hs)
		if !slices.Equal(hs, want) {
			t.Fatalf("n=%d: SortByTime differs from a stable sort on Time", n)
		}
		SortByTime(hs) // already sorted: must be left as is
		if !slices.Equal(hs, want) {
			t.Fatalf("n=%d: SortByTime reordered a sorted slice", n)
		}
	}
}
