package stats

import (
	"math"
	"testing"
	"testing/quick"

	"fbdcnet/internal/rng"
)

func TestMomentsBasics(t *testing.T) {
	var m Moments
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if math.Abs(m.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", m.Mean())
	}
	if math.Abs(m.Std()-2) > 1e-12 {
		t.Fatalf("std = %v", m.Std())
	}
}

func TestMomentsEmpty(t *testing.T) {
	var m Moments
	if m.Mean() != 0 || m.Var() != 0 || m.Std() != 0 {
		t.Fatal("empty moments not zero")
	}
}

func TestMomentsMatchesNaive(t *testing.T) {
	r := rng.New(1)
	err := quick.Check(func(seed uint64) bool {
		n := int(seed%100) + 2
		var m Moments
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.Float64() * 1000
			m.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		variance := 0.0
		for _, x := range xs {
			variance += (x - mean) * (x - mean)
		}
		variance /= float64(n)
		return math.Abs(m.Mean()-mean) < 1e-6 && math.Abs(m.Var()-variance) < 1e-4
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSampleQuantiles(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if q := s.Quantile(0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Errorf("q1 = %v", q)
	}
	if q := s.Median(); math.Abs(q-50.5) > 1e-9 {
		t.Errorf("median = %v", q)
	}
	if q1, q5, q9 := s.Quantile(0.1), s.Quantile(0.5), s.Quantile(0.9); q1 >= q5 || q5 >= q9 {
		t.Errorf("quantiles not increasing: %v %v %v", q1, q5, q9)
	}
}

func TestSampleEmptyQuantile(t *testing.T) {
	s := NewSample(0)
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty sample should return 0")
	}
}

func TestSampleAddAfterQuery(t *testing.T) {
	s := NewSample(0)
	s.Add(5)
	_ = s.Median()
	s.Add(1) // must re-sort on next query
	if s.Quantile(0) != 1 {
		t.Fatal("sample not re-sorted after Add")
	}
}

func TestSampleFracBelow(t *testing.T) {
	s := NewSample(0)
	for i := 0; i < 10; i++ {
		s.Add(float64(i))
	}
	if f := s.FracBelow(5); math.Abs(f-0.5) > 1e-12 {
		t.Fatalf("FracBelow(5) = %v", f)
	}
	if f := s.FracBelow(0); f != 0 {
		t.Fatalf("FracBelow(0) = %v", f)
	}
	if f := s.FracBelow(100); f != 1 {
		t.Fatalf("FracBelow(100) = %v", f)
	}
}

func TestSampleQuantileProperty(t *testing.T) {
	r := rng.New(2)
	s := NewSample(0)
	for i := 0; i < 1000; i++ {
		s.Add(r.Float64() * 100)
	}
	err := quick.Check(func(a, b float64) bool {
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		return s.Quantile(pa) <= s.Quantile(pb)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCounterSortedDeterministic(t *testing.T) {
	c := NewCounter()
	c.Add("x", 5)
	c.Add("y", 5)
	c.Add("z", 5)
	first := c.Sorted()
	for i := 0; i < 5; i++ {
		again := c.Sorted()
		for j := range first {
			if first[j] != again[j] {
				t.Fatal("Sorted not deterministic under ties")
			}
		}
	}
}

func TestTimeSeriesBinning(t *testing.T) {
	ts := NewTimeSeries(0, 1.0)
	ts.Add(0.5, 10)
	ts.Add(0.9, 5)
	ts.Add(1.1, 7)
	ts.Add(3.0, 2)
	bins := ts.Bins()
	want := []float64{15, 7, 0, 2}
	if len(bins) != len(want) {
		t.Fatalf("bins = %v", bins)
	}
	for i := range want {
		if bins[i] != want[i] {
			t.Fatalf("bin %d = %v, want %v", i, bins[i], want[i])
		}
	}
}

func TestTimeSeriesBeforeStart(t *testing.T) {
	ts := NewTimeSeries(10, 1)
	ts.Add(5, 3) // before start folds into bin 0
	if ts.Bins()[0] != 3 {
		t.Fatal("pre-start value lost")
	}
}

func TestTimeSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive bin width")
		}
	}()
	NewTimeSeries(0, 0)
}

func BenchmarkCounterAdd(b *testing.B) {
	c := NewCounter()
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	for i := 0; i < b.N; i++ {
		c.Add(keys[i%len(keys)], 1)
	}
}

func BenchmarkSampleQuantile(b *testing.B) {
	s := NewSample(0)
	r := rng.New(1)
	for i := 0; i < 100000; i++ {
		s.Add(r.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Quantile(0.99)
	}
}
