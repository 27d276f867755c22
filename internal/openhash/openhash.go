// Package openhash is a small open-addressing hash table keyed by packed
// uint64 keys, built for the hot packet-analysis loops. Compared to a Go
// map[struct]V it avoids per-operation hashing of composite keys, never
// allocates on the lookup path, and — crucially for windowed analyses —
// can be Reset and refilled without releasing its backing arrays, so a
// steady-state bin roll performs zero allocations.
//
// Tables remember insertion order: Range visits entries in the order their
// keys were first seen, which keeps replay-order-dependent consumers
// deterministic without a sort.
//
// The key value ^uint64(0) is reserved as the empty-slot sentinel; every
// packed-key layout in this repo leaves at least one high bit clear, so
// the sentinel is unreachable.
package openhash

// sentinel marks an empty slot. No packed key produced by this repo can
// equal it (all layouts keep the top bits below 2^63).
const sentinel = ^uint64(0)

// Table is an open-addressing map from packed uint64 keys to V.
// The zero value is ready to use.
type Table[V any] struct {
	keys  []uint64 // slot -> key, or sentinel
	vals  []V      // slot -> value, parallel to keys
	used  []int32  // slots in insertion order
	mask  uint64   // len(keys)-1
	grows int32    // cumulative grow() calls, for observability
}

// hash finalizes a packed key (splitmix64 finalizer): packed keys are
// bit-fields whose low bits barely vary, so identity hashing would cluster.
func hash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

// Len reports the number of live entries.
func (t *Table[V]) Len() int { return len(t.used) }

// Get returns a pointer to the value stored under k, or nil when absent.
// The pointer is invalidated by the next Slot that grows the table.
func (t *Table[V]) Get(k uint64) *V {
	if len(t.keys) == 0 {
		return nil
	}
	for i := hash(k) & t.mask; ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case k:
			return &t.vals[i]
		case sentinel:
			return nil
		}
	}
}

// Slot returns a pointer to the value stored under k, inserting a zero
// value first when absent. The pointer is invalidated by the next Slot
// that grows the table; callers must not retain it across insertions.
func (t *Table[V]) Slot(k uint64) *V {
	if len(t.used) >= len(t.keys)-len(t.keys)>>2 { // load factor 3/4
		t.grow()
	}
	for i := hash(k) & t.mask; ; i = (i + 1) & t.mask {
		switch t.keys[i] {
		case k:
			return &t.vals[i]
		case sentinel:
			t.keys[i] = k
			t.used = append(t.used, int32(i))
			return &t.vals[i]
		}
	}
}

// grow doubles the slot arrays and rehashes, preserving insertion order.
func (t *Table[V]) grow() {
	t.grows++
	t.resize(max(2*len(t.keys), 16))
}

// Reserve sizes the table so that it holds n entries, and takes Slot
// calls on them, without another rehash. It is a no-op when the table
// already has the room, and unlike a growth-driven rehash it does not
// count toward Grows: a caller that knows its entry count up front
// allocates the slot arrays once.
func (t *Table[V]) Reserve(n int) {
	if n == 0 || n < len(t.keys)-len(t.keys)>>2 {
		return
	}
	size := max(len(t.keys), 16)
	for size-size>>2 <= n { // Slot grows once len(used) reaches 3/4
		size *= 2
	}
	t.resize(size)
}

// resize rehashes into n slots (a power of two), preserving insertion
// order.
func (t *Table[V]) resize(n int) {
	ok, ov, ou := t.keys, t.vals, t.used
	t.keys = make([]uint64, n)
	t.vals = make([]V, n)
	t.used = make([]int32, 0, n-n>>2)
	t.mask = uint64(n - 1)
	for i := range t.keys {
		t.keys[i] = sentinel
	}
	for _, s := range ou {
		k := ok[s]
		for i := hash(k) & t.mask; ; i = (i + 1) & t.mask {
			if t.keys[i] == sentinel {
				t.keys[i] = k
				t.vals[i] = ov[s]
				t.used = append(t.used, int32(i))
				break
			}
		}
	}
}

// Reset empties the table without releasing its backing arrays: only the
// slots actually used are cleared, so resetting a sparsely filled large
// table is proportional to its entry count, not its capacity.
func (t *Table[V]) Reset() {
	var zero V
	for _, s := range t.used {
		t.keys[s] = sentinel
		t.vals[s] = zero
	}
	t.used = t.used[:0]
}

// Range calls f for every entry in insertion order. f must not insert.
func (t *Table[V]) Range(f func(k uint64, v *V)) {
	for _, s := range t.used {
		f(t.keys[s], &t.vals[s])
	}
}

// Cap returns the current slot-array capacity (0 before first insert).
func (t *Table[V]) Cap() int { return len(t.keys) }

// Grows returns how many times the table has rehashed since creation —
// Reset keeps the count, so it reflects lifetime churn, the number the
// observability layer reports to spot under-sized steady-state tables.
func (t *Table[V]) Grows() int { return int(t.grows) }

// Key returns the i'th inserted key, 0 <= i < Len().
func (t *Table[V]) Key(i int) uint64 { return t.keys[t.used[i]] }

// Val returns a pointer to the i'th inserted value, 0 <= i < Len().
func (t *Table[V]) Val(i int) *V { return &t.vals[t.used[i]] }
