package openhash

import (
	"math/rand"
	"testing"
)

func TestTableBasics(t *testing.T) {
	var tb Table[int]
	if tb.Len() != 0 || tb.Get(7) != nil {
		t.Fatal("zero table should be empty")
	}
	*tb.Slot(7) = 70
	*tb.Slot(9) = 90
	*tb.Slot(7) += 1
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	if v := tb.Get(7); v == nil || *v != 71 {
		t.Fatalf("Get(7) = %v, want 71", v)
	}
	if v := tb.Get(9); v == nil || *v != 90 {
		t.Fatalf("Get(9) = %v, want 90", v)
	}
	if tb.Get(8) != nil {
		t.Fatal("Get(8) should miss")
	}
}

func TestTableAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var tb Table[uint64]
	ref := map[uint64]uint64{}
	var order []uint64
	for i := 0; i < 20000; i++ {
		k := uint64(r.Intn(4096)) // force plenty of collisions and hits
		if _, ok := ref[k]; !ok {
			order = append(order, k)
		}
		ref[k] += k + 1
		*tb.Slot(k) += k + 1
	}
	if tb.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tb.Len(), len(ref))
	}
	for k, want := range ref {
		if v := tb.Get(k); v == nil || *v != want {
			t.Fatalf("Get(%d) = %v, want %d", k, v, want)
		}
	}
	// Insertion order must survive growth.
	i := 0
	tb.Range(func(k uint64, v *uint64) {
		if k != order[i] {
			t.Fatalf("Range[%d] key = %d, want %d", i, k, order[i])
		}
		if *v != ref[k] {
			t.Fatalf("Range[%d] val = %d, want %d", i, *v, ref[k])
		}
		if tb.Key(i) != k || tb.Val(i) != v {
			t.Fatalf("Key/Val(%d) disagree with Range", i)
		}
		i++
	})
	if i != len(order) {
		t.Fatalf("Range visited %d entries, want %d", i, len(order))
	}
}

func TestTableReset(t *testing.T) {
	var tb Table[float64]
	for k := uint64(0); k < 1000; k++ {
		*tb.Slot(k) = float64(k)
	}
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatalf("Len after Reset = %d", tb.Len())
	}
	for k := uint64(0); k < 1000; k++ {
		if tb.Get(k) != nil {
			t.Fatalf("Get(%d) should miss after Reset", k)
		}
	}
	// Refill must not allocate: capacity is retained.
	allocs := testing.AllocsPerRun(10, func() {
		tb.Reset()
		for k := uint64(0); k < 1000; k++ {
			*tb.Slot(k) = 1
		}
	})
	if allocs != 0 {
		t.Fatalf("refill after Reset allocated %.1f times", allocs)
	}
	if v := tb.Get(999); v == nil || *v != 1 {
		t.Fatal("refilled value missing")
	}
}

func TestTableHighBitKeys(t *testing.T) {
	var tb Table[int]
	keys := []uint64{0, 1, 1 << 62, (1 << 63) - 1, 0x7ffffffffffffffe}
	for i, k := range keys {
		*tb.Slot(k) = i + 1
	}
	for i, k := range keys {
		if v := tb.Get(k); v == nil || *v != i+1 {
			t.Fatalf("Get(%#x) = %v, want %d", k, v, i+1)
		}
	}
}

// TestTableReserve pins Reserve's contract: n entries then fit, and take
// Slot calls, without a rehash or allocation; insertion order survives
// a reserve of a non-empty table; the sizing does not count as growth.
func TestTableReserve(t *testing.T) {
	for _, n := range []int{1, 12, 13, 100, 1000} {
		var tb Table[int]
		tb.Reserve(n)
		allocs := testing.AllocsPerRun(1, func() {
			tb.Reset()
			for i := 0; i < n; i++ {
				*tb.Slot(uint64(i) * 7919) = i
			}
			for i := 0; i < n; i++ {
				*tb.Slot(uint64(i) * 7919) += 0
			}
		})
		if allocs != 0 || tb.Grows() != 0 || tb.Len() != n {
			t.Fatalf("Reserve(%d): %v allocs, %d grows, len %d", n, allocs, tb.Grows(), tb.Len())
		}
		tb.Reserve(4 * n)
		for i := 0; i < n; i++ {
			if tb.Key(i) != uint64(i)*7919 || *tb.Val(i) != i {
				t.Fatalf("Reserve(%d) lost insertion order at %d", 4*n, i)
			}
		}
	}
	var empty Table[int]
	if empty.Reserve(0); empty.Cap() != 0 {
		t.Fatalf("Reserve(0) allocated %d slots", empty.Cap())
	}
}
