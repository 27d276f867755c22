package packet

import (
	"cmp"
	"slices"
)

// timeKey is a header's sort key: its timestamp, ties broken by its
// position in the input.
type timeKey struct {
	t int64
	i int
}

// SortByTime sorts hs by Time, keeping headers with equal timestamps in
// their input order: the same result as sort.SliceStable on Time. It
// sorts 16-byte (time, position) keys and gathers the headers once,
// instead of moving whole headers through an in-place stable merge.
func SortByTime(hs []Header) {
	if slices.IsSortedFunc(hs, func(a, b Header) int { return cmp.Compare(a.Time, b.Time) }) {
		return
	}
	keys := make([]timeKey, len(hs))
	for i, h := range hs {
		keys[i] = timeKey{h.Time, i}
	}
	slices.SortFunc(keys, func(a, b timeKey) int {
		if c := cmp.Compare(a.t, b.t); c != 0 {
			return c
		}
		return cmp.Compare(a.i, b.i)
	})
	sorted := make([]Header, len(hs))
	for i, k := range keys {
		sorted[i] = hs[k.i]
	}
	copy(hs, sorted)
}
