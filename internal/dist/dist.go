// Package dist provides samplable probability distributions used by the
// workload generators.
//
// Each distribution implements Dist: a Sample method drawing a variate from
// an explicit rng.Source. Distributions are immutable after construction,
// so a single value may be shared by many generators, each sampling with
// its own Source.
//
// The menagerie matches what datacenter traffic modeling needs: exponential
// interarrivals, log-normal sizes and on/off periods (Benson et al.),
// (bounded) Pareto heavy tails, Zipf object popularity, empirical
// piecewise-linear CDFs fitted to the paper's figures, and mixtures for
// bimodal packet sizes.
package dist

import (
	"fmt"
	"math"
	"sort"

	"fbdcnet/internal/rng"
)

// Dist is a samplable distribution over float64.
type Dist interface {
	// Sample draws one variate using r.
	Sample(r *rng.Source) float64
	// Mean returns the analytic mean of the distribution.
	Mean() float64
}

// Constant is a degenerate distribution that always returns V.
type Constant struct{ V float64 }

// Sample implements Dist.
func (c Constant) Sample(*rng.Source) float64 { return c.V }

// Mean implements Dist.
func (c Constant) Mean() float64 { return c.V }

// Exponential is the exponential distribution with the given Rate (λ).
type Exponential struct{ Rate float64 }

// Sample implements Dist.
func (e Exponential) Sample(r *rng.Source) float64 { return r.Exp() / e.Rate }

// Mean implements Dist.
func (e Exponential) Mean() float64 { return 1 / e.Rate }

// LogNormal is the log-normal distribution: exp(N(Mu, Sigma^2)).
type LogNormal struct{ Mu, Sigma float64 }

// Sample implements Dist.
func (l LogNormal) Sample(r *rng.Source) float64 {
	return math.Exp(l.Mu + l.Sigma*r.Norm())
}

// Mean implements Dist.
func (l LogNormal) Mean() float64 { return math.Exp(l.Mu + l.Sigma*l.Sigma/2) }

// LogNormalFromMedian constructs a LogNormal with the given median and
// sigma; the median of a log-normal is exp(mu).
func LogNormalFromMedian(median, sigma float64) LogNormal {
	return LogNormal{Mu: math.Log(median), Sigma: sigma}
}

// Pareto is the (unbounded) Pareto distribution with scale Xm and shape
// Alpha. Heavy tailed: infinite variance for Alpha <= 2.
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample implements Dist.
func (p Pareto) Sample(r *rng.Source) float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return p.Xm / math.Pow(u, 1/p.Alpha)
		}
	}
}

// Mean implements Dist. It returns +Inf for Alpha <= 1.
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}

// BoundedPareto is a Pareto distribution truncated to [Lo, Hi].
type BoundedPareto struct {
	Lo, Hi float64
	Alpha  float64
}

// Sample implements Dist using inverse-transform sampling of the truncated
// CDF.
func (p BoundedPareto) Sample(r *rng.Source) float64 {
	u := r.Float64()
	la := math.Pow(p.Lo, p.Alpha)
	ha := math.Pow(p.Hi, p.Alpha)
	x := -(u*ha - u*la - ha) / (ha * la)
	return math.Pow(1/x, 1/p.Alpha)
}

// Mean implements Dist.
func (p BoundedPareto) Mean() float64 {
	a := p.Alpha
	if a == 1 {
		return p.Lo * p.Hi / (p.Hi - p.Lo) * math.Log(p.Hi/p.Lo)
	}
	la := math.Pow(p.Lo, a)
	return la / (1 - math.Pow(p.Lo/p.Hi, a)) * a / (a - 1) *
		(1/math.Pow(p.Lo, a-1) - 1/math.Pow(p.Hi, a-1))
}

// Mixture is a weighted mixture of component distributions; used e.g. for
// the bimodal Hadoop packet size (ACK-or-MTU).
type Mixture struct {
	components []Dist
	cum        []float64 // cumulative normalized weights
}

// NewMixture builds a mixture from parallel slices of weights and
// components. It panics if the slices mismatch, are empty, or the total
// weight is not positive.
func NewMixture(weights []float64, components []Dist) *Mixture {
	if len(weights) != len(components) || len(weights) == 0 {
		panic("dist: mixture weights/components mismatch")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("dist: negative mixture weight")
		}
		total += w
	}
	if total <= 0 {
		panic("dist: mixture total weight must be positive")
	}
	m := &Mixture{components: components, cum: make([]float64, len(weights))}
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		m.cum[i] = acc
	}
	m.cum[len(m.cum)-1] = 1 // avoid FP shortfall
	return m
}

// Sample implements Dist.
func (m *Mixture) Sample(r *rng.Source) float64 {
	u := r.Float64()
	i := sort.SearchFloat64s(m.cum, u)
	if i >= len(m.components) {
		i = len(m.components) - 1
	}
	return m.components[i].Sample(r)
}

// Mean implements Dist.
func (m *Mixture) Mean() float64 {
	mean := 0.0
	prev := 0.0
	for i, c := range m.components {
		w := m.cum[i] - prev
		prev = m.cum[i]
		mean += w * c.Mean()
	}
	return mean
}

// Empirical is a piecewise-linear inverse CDF defined by (quantile, value)
// knots; it reproduces a distribution "read off" a published figure.
type Empirical struct {
	q []float64 // ascending quantiles in [0,1]
	v []float64 // non-decreasing values
}

// NewEmpirical builds an Empirical from knots. Quantiles must start at 0,
// end at 1, and both slices must be sorted ascending.
func NewEmpirical(quantiles, values []float64) (*Empirical, error) {
	if len(quantiles) != len(values) || len(quantiles) < 2 {
		return nil, fmt.Errorf("dist: need >= 2 matching knots, got %d/%d", len(quantiles), len(values))
	}
	if quantiles[0] != 0 || quantiles[len(quantiles)-1] != 1 {
		return nil, fmt.Errorf("dist: quantile knots must span [0,1]")
	}
	for i := 1; i < len(quantiles); i++ {
		if quantiles[i] < quantiles[i-1] {
			return nil, fmt.Errorf("dist: quantiles not sorted at %d", i)
		}
		if values[i] < values[i-1] {
			return nil, fmt.Errorf("dist: values not sorted at %d", i)
		}
	}
	e := &Empirical{q: append([]float64(nil), quantiles...), v: append([]float64(nil), values...)}
	return e, nil
}

// MustEmpirical is NewEmpirical that panics on error; for package-level
// fitted constants.
func MustEmpirical(quantiles, values []float64) *Empirical {
	e, err := NewEmpirical(quantiles, values)
	if err != nil {
		panic(err)
	}
	return e
}

// Quantile returns the value at quantile p in [0,1] by linear
// interpolation.
func (e *Empirical) Quantile(p float64) float64 {
	if p <= 0 {
		return e.v[0]
	}
	if p >= 1 {
		return e.v[len(e.v)-1]
	}
	i := sort.SearchFloat64s(e.q, p)
	if i == 0 {
		return e.v[0]
	}
	q0, q1 := e.q[i-1], e.q[i]
	v0, v1 := e.v[i-1], e.v[i]
	if q1 == q0 {
		return v1
	}
	t := (p - q0) / (q1 - q0)
	return v0 + t*(v1-v0)
}

// Sample implements Dist via inverse-transform sampling.
func (e *Empirical) Sample(r *rng.Source) float64 { return e.Quantile(r.Float64()) }

// Mean implements Dist; it integrates the piecewise-linear inverse CDF
// exactly.
func (e *Empirical) Mean() float64 {
	mean := 0.0
	for i := 1; i < len(e.q); i++ {
		w := e.q[i] - e.q[i-1]
		mean += w * (e.v[i] + e.v[i-1]) / 2
	}
	return mean
}
