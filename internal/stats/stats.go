// Package stats provides the streaming and batch statistics used by the
// analysis pipeline: moment accumulators, exact quantile samples and
// their CDFs, time-binned series, and top-k byte counters.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Moments accumulates count, mean and variance online (Welford's method).
// The zero value is ready to use.
type Moments struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (m *Moments) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// Mean returns the running mean (0 for an empty accumulator).
func (m *Moments) Mean() float64 { return m.mean }

// Var returns the population variance.
func (m *Moments) Var() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n)
}

// Std returns the population standard deviation.
func (m *Moments) Std() float64 { return math.Sqrt(m.Var()) }

// Sample collects raw observations for exact quantiles. Use for bounded
// datasets (per-experiment analyses).
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a Sample with capacity hint n.
func NewSample(n int) *Sample { return &Sample{xs: make([]float64, 0, n)} }

// Add appends an observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 {
	t := 0.0
	for _, x := range s.xs {
		t += x
	}
	return t
}

// Mean returns the sample mean, or 0 if empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	return s.Sum() / float64(len(s.xs))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the p-quantile (0 <= p <= 1) using linear interpolation
// between closest ranks. Returns 0 for an empty sample.
func (s *Sample) Quantile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.xs[0]
	}
	if p >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := p * float64(len(s.xs)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s.xs) {
		return s.xs[len(s.xs)-1]
	}
	return s.xs[i]*(1-frac) + s.xs[i+1]*frac
}

// Median returns the 0.5 quantile.
func (s *Sample) Median() float64 { return s.Quantile(0.5) }

// FracBelow returns the fraction of observations strictly less than x.
func (s *Sample) FracBelow(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	i := sort.SearchFloat64s(s.xs, x)
	return float64(i) / float64(len(s.xs))
}

// Values returns the (sorted) raw observations. The returned slice is
// owned by the Sample; callers must not modify it.
func (s *Sample) Values() []float64 {
	s.sort()
	return s.xs
}

// Counter tracks per-key byte (or packet) totals; keys are generic strings
// formatted by the caller (flow/host/rack identifiers).
type Counter struct {
	m map[string]float64
}

// NewCounter returns an empty Counter.
func NewCounter() *Counter { return &Counter{m: make(map[string]float64)} }

// Add accumulates v against key.
func (c *Counter) Add(key string, v float64) { c.m[key] += v }

// Len returns the number of distinct keys.
func (c *Counter) Len() int { return len(c.m) }

// KV is one key with its accumulated value.
type KV struct {
	Key string
	Val float64
}

// Sorted returns all entries in descending value order, ties broken by key
// for determinism.
func (c *Counter) Sorted() []KV {
	out := make([]KV, 0, len(c.m))
	for k, v := range c.m {
		out = append(out, KV{k, v})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Val != out[j].Val {
			return out[i].Val > out[j].Val
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// TimeSeries bins (time, value) observations into fixed-width bins,
// summing values per bin. Times are float64 seconds.
type TimeSeries struct {
	binWidth float64
	start    float64
	bins     []float64
}

// NewTimeSeries creates a series starting at start with the given bin
// width in seconds.
func NewTimeSeries(start, binWidth float64) *TimeSeries {
	if binWidth <= 0 {
		panic("stats: TimeSeries bin width must be positive")
	}
	return &TimeSeries{binWidth: binWidth, start: start}
}

// Add accumulates v into the bin containing t. Times before start are
// folded into bin 0.
func (ts *TimeSeries) Add(t, v float64) {
	i := 0
	if t > ts.start {
		i = int((t - ts.start) / ts.binWidth)
	}
	if i >= len(ts.bins) {
		grown := make([]float64, i+1)
		copy(grown, ts.bins)
		ts.bins = grown
	}
	ts.bins[i] += v
}

// Bins returns the accumulated per-bin sums.
func (ts *TimeSeries) Bins() []float64 { return ts.bins }

// String renders a short summary, mainly for debugging.
func (ts *TimeSeries) String() string {
	return fmt.Sprintf("TimeSeries{bins=%d, width=%gs}", len(ts.bins), ts.binWidth)
}
