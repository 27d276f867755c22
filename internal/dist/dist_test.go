package dist

import (
	"math"
	"testing"
	"testing/quick"

	"fbdcnet/internal/rng"
)

// sampleMean draws n samples and returns their mean.
func sampleMean(d Dist, r *rng.Source, n int) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

func TestConstant(t *testing.T) {
	c := Constant{V: 42}
	r := rng.New(1)
	for i := 0; i < 10; i++ {
		if c.Sample(r) != 42 {
			t.Fatal("constant varied")
		}
	}
	if c.Mean() != 42 {
		t.Fatal("constant mean wrong")
	}
}

func TestExponentialMean(t *testing.T) {
	e := Exponential{Rate: 4}
	r := rng.New(4)
	m := sampleMean(e, r, 200000)
	if math.Abs(m-0.25) > 0.005 {
		t.Fatalf("exp mean %v, want 0.25", m)
	}
}

func TestLogNormalMedian(t *testing.T) {
	l := LogNormalFromMedian(200, 1.0)
	r := rng.New(5)
	const n = 100001
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = l.Sample(r)
	}
	// median of samples should be near 200
	cnt := 0
	for _, x := range xs {
		if x < 200 {
			cnt++
		}
	}
	frac := float64(cnt) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Fatalf("fraction below median = %v, want 0.5", frac)
	}
}

func TestLogNormalMean(t *testing.T) {
	l := LogNormal{Mu: 1, Sigma: 0.5}
	r := rng.New(6)
	m := sampleMean(l, r, 300000)
	if math.Abs(m-l.Mean())/l.Mean() > 0.02 {
		t.Fatalf("lognormal mean %v, want %v", m, l.Mean())
	}
}

func TestParetoTail(t *testing.T) {
	p := Pareto{Xm: 1, Alpha: 2}
	r := rng.New(7)
	for i := 0; i < 10000; i++ {
		if v := p.Sample(r); v < 1 {
			t.Fatalf("pareto sample %v below scale", v)
		}
	}
	m := sampleMean(p, r, 500000)
	if math.Abs(m-2) > 0.1 {
		t.Fatalf("pareto mean %v, want 2", m)
	}
}

func TestParetoInfiniteMean(t *testing.T) {
	p := Pareto{Xm: 1, Alpha: 0.9}
	if !math.IsInf(p.Mean(), 1) {
		t.Fatal("expected +Inf mean for alpha <= 1")
	}
}

func TestBoundedParetoBounds(t *testing.T) {
	p := BoundedPareto{Lo: 64, Hi: 1500, Alpha: 1.2}
	r := rng.New(8)
	for i := 0; i < 50000; i++ {
		v := p.Sample(r)
		if v < 64-1e-9 || v > 1500+1e-9 {
			t.Fatalf("bounded pareto out of range: %v", v)
		}
	}
}

func TestBoundedParetoMean(t *testing.T) {
	p := BoundedPareto{Lo: 1, Hi: 100, Alpha: 1.5}
	r := rng.New(9)
	m := sampleMean(p, r, 500000)
	if math.Abs(m-p.Mean())/p.Mean() > 0.02 {
		t.Fatalf("bounded pareto mean %v, want %v", m, p.Mean())
	}
}

func TestMixtureBimodal(t *testing.T) {
	// 60% ACK-sized, 40% MTU-sized: the Hadoop packet model.
	m := NewMixture(
		[]float64{0.6, 0.4},
		[]Dist{Constant{V: 66}, Constant{V: 1500}},
	)
	r := rng.New(10)
	small, large := 0, 0
	const n = 100000
	for i := 0; i < n; i++ {
		switch m.Sample(r) {
		case 66:
			small++
		case 1500:
			large++
		default:
			t.Fatal("mixture produced a non-component value")
		}
	}
	if frac := float64(small) / n; math.Abs(frac-0.6) > 0.01 {
		t.Fatalf("small fraction %v, want 0.6", frac)
	}
	_ = large
	want := 0.6*66 + 0.4*1500
	if math.Abs(m.Mean()-want) > 1e-9 {
		t.Fatalf("mixture mean %v, want %v", m.Mean(), want)
	}
}

func TestMixturePanics(t *testing.T) {
	cases := []func(){
		func() { NewMixture(nil, nil) },
		func() { NewMixture([]float64{1}, []Dist{Constant{}, Constant{}}) },
		func() { NewMixture([]float64{-1, 2}, []Dist{Constant{}, Constant{}}) },
		func() { NewMixture([]float64{0, 0}, []Dist{Constant{}, Constant{}}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestEmpiricalQuantile(t *testing.T) {
	e := MustEmpirical(
		[]float64{0, 0.5, 1},
		[]float64{0, 10, 100},
	)
	cases := []struct{ p, want float64 }{
		{0, 0}, {0.25, 5}, {0.5, 10}, {0.75, 55}, {1, 100},
		{-1, 0}, {2, 100},
	}
	for _, c := range cases {
		if got := e.Quantile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestEmpiricalMean(t *testing.T) {
	e := MustEmpirical([]float64{0, 1}, []float64{0, 10})
	if math.Abs(e.Mean()-5) > 1e-9 {
		t.Fatalf("mean %v, want 5", e.Mean())
	}
	r := rng.New(11)
	m := sampleMean(e, r, 200000)
	if math.Abs(m-5) > 0.05 {
		t.Fatalf("sample mean %v, want 5", m)
	}
}

func TestEmpiricalValidation(t *testing.T) {
	if _, err := NewEmpirical([]float64{0, 1}, []float64{1}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := NewEmpirical([]float64{0.1, 1}, []float64{1, 2}); err == nil {
		t.Error("quantiles not starting at 0 accepted")
	}
	if _, err := NewEmpirical([]float64{0, 0.9}, []float64{1, 2}); err == nil {
		t.Error("quantiles not ending at 1 accepted")
	}
	if _, err := NewEmpirical([]float64{0, 0.6, 0.5, 1}, []float64{1, 2, 3, 4}); err == nil {
		t.Error("unsorted quantiles accepted")
	}
	if _, err := NewEmpirical([]float64{0, 1}, []float64{2, 1}); err == nil {
		t.Error("decreasing values accepted")
	}
}

func TestEmpiricalMonotone(t *testing.T) {
	e := MustEmpirical(
		[]float64{0, 0.1, 0.5, 0.9, 1},
		[]float64{1, 2, 50, 900, 10000},
	)
	err := quick.Check(func(a, b float64) bool {
		pa := math.Abs(math.Mod(a, 1))
		pb := math.Abs(math.Mod(b, 1))
		if pa > pb {
			pa, pb = pb, pa
		}
		return e.Quantile(pa) <= e.Quantile(pb)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(1000, 1.0)
	r := rng.New(13)
	counts := make([]int, 1000)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Rank(r)]++
	}
	if counts[0] <= counts[10] {
		t.Fatalf("rank 0 (%d) should dominate rank 10 (%d)", counts[0], counts[10])
	}
	// Analytic check: empirical frequency of rank 0 near Prob(0).
	frac := float64(counts[0]) / n
	if math.Abs(frac-z.Prob(0)) > 0.01 {
		t.Fatalf("rank-0 frequency %v, want %v", frac, z.Prob(0))
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z := NewZipf(50, 0.8)
	sum := 0.0
	for i := 0; i < z.N(); i++ {
		sum += z.Prob(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	if z.Prob(-1) != 0 || z.Prob(50) != 0 {
		t.Fatal("out-of-range Prob should be 0")
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(0, 1) did not panic")
		}
	}()
	NewZipf(0, 1)
}

func TestZipfRankBounds(t *testing.T) {
	z := NewZipf(7, 1.3)
	r := rng.New(14)
	for i := 0; i < 10000; i++ {
		if k := z.Rank(r); k < 0 || k >= 7 {
			t.Fatalf("rank out of bounds: %d", k)
		}
	}
}

func BenchmarkLogNormalSample(b *testing.B) {
	l := LogNormalFromMedian(200, 1)
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		_ = l.Sample(r)
	}
}

func BenchmarkZipfRank(b *testing.B) {
	z := NewZipf(100000, 1)
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		_ = z.Rank(r)
	}
}
