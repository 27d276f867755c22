package sketch

import (
	"math"
	"slices"
)

// centroid is one (mean, weight) cluster of a t-digest.
type centroid struct {
	mean   float64
	weight float64
}

// TDigest is Dunning's merging t-digest: a fixed-size quantile summary
// whose accuracy concentrates at the tails (the k1 arcsin scale
// function), replacing the exact all-values stats.Sample retention for
// size/duration/rate quantiles in sketch mode.
//
// Determinism: Add and Quantile are pure functions of the insertion
// sequence (buffered points sort with a total (mean, weight) order
// before every compaction), and Merge is a pure function of the two
// operand states — so the parallel engine's fixed merge order yields
// worker-count-invariant digests.
type TDigest struct {
	compression float64
	centroids   []centroid // compacted, sorted by mean
	buf         []centroid // uncompacted recent additions
	merged      []centroid // compaction scratch, swapped with centroids
	total       float64    // total weight across centroids + buf
	min, max    float64
}

// NewTDigest returns a digest with the given compression δ (≤0 selects
// the default 100: ~1% mid-quantile error, far tighter at the tails).
func NewTDigest(compression float64) *TDigest {
	if compression <= 0 {
		compression = 100
	}
	capC := 4 * int(compression)
	return &TDigest{
		compression: compression,
		centroids:   make([]centroid, 0, capC),
		buf:         make([]centroid, 0, 8*int(compression)),
		merged:      make([]centroid, 0, capC),
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// Add observes value x with weight w (w <= 0 is ignored).
func (t *TDigest) Add(x, w float64) {
	if w <= 0 || math.IsNaN(x) {
		return
	}
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
	t.total += w
	t.buf = append(t.buf, centroid{mean: x, weight: w})
	if len(t.buf) == cap(t.buf) {
		t.compress()
	}
}

// Count returns the total weight observed since the last Reset.
func (t *TDigest) Count() float64 { return t.total }

// k1 is the arcsin scale function, normalized so one k-unit is the
// maximum span of a merged centroid.
func (t *TDigest) k1(q float64) float64 {
	return t.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

// compress folds the buffer into the centroid list via the standard
// merge pass: walk both sorted sequences, merging neighbours while the
// combined cluster spans at most one k-unit.
func (t *TDigest) compress() {
	if len(t.buf) == 0 {
		return
	}
	slices.SortFunc(t.buf, func(a, b centroid) int {
		if a.mean != b.mean {
			if a.mean < b.mean {
				return -1
			}
			return 1
		}
		if a.weight != b.weight {
			if a.weight < b.weight {
				return -1
			}
			return 1
		}
		return 0
	})
	t.merged = t.merged[:0]
	i, j := 0, 0 // cursors into centroids, buf
	next := func() (centroid, bool) {
		switch {
		case i < len(t.centroids) && (j >= len(t.buf) || t.centroids[i].mean <= t.buf[j].mean):
			c := t.centroids[i]
			i++
			return c, true
		case j < len(t.buf):
			c := t.buf[j]
			j++
			return c, true
		}
		return centroid{}, false
	}
	cur, ok := next()
	if !ok {
		return
	}
	wSoFar := 0.0
	qLimit := t.total * kInv(t.k1(0)+1, t)
	for {
		c, ok := next()
		if !ok {
			break
		}
		if wSoFar+cur.weight+c.weight <= qLimit {
			// Merge c into cur: weighted-mean update, deterministic order.
			cur.weight += c.weight
			cur.mean += c.weight * (c.mean - cur.mean) / cur.weight
			continue
		}
		t.merged = append(t.merged, cur)
		wSoFar += cur.weight
		qLimit = t.total * kInv(t.k1(wSoFar/t.total)+1, t)
		cur = c
	}
	t.merged = append(t.merged, cur)
	t.centroids, t.merged = t.merged, t.centroids
	t.buf = t.buf[:0]
}

// kInv inverts k1, clamped to [0, 1].
func kInv(k float64, t *TDigest) float64 {
	x := k * 2 * math.Pi / t.compression
	if x <= -math.Pi/2 {
		return 0
	}
	if x >= math.Pi/2 {
		return 1
	}
	return (math.Sin(x) + 1) / 2
}

// Quantile returns the estimated q-quantile (q clamped to [0, 1]).
// It compacts pending additions first.
func (t *TDigest) Quantile(q float64) float64 {
	t.compress()
	cs := t.centroids
	if len(cs) == 0 {
		return 0
	}
	if q <= 0 {
		return t.min
	}
	if q >= 1 {
		return t.max
	}
	target := q * t.total
	// Centroid i is centered at cumulative weight cum_i - w_i/2.
	cum := 0.0
	prevMean, prevCenter := t.min, 0.0
	for i := range cs {
		center := cum + cs[i].weight/2
		if target <= center {
			span := center - prevCenter
			if span <= 0 {
				return cs[i].mean
			}
			frac := (target - prevCenter) / span
			return lerp(prevMean, cs[i].mean, frac)
		}
		cum += cs[i].weight
		prevMean, prevCenter = cs[i].mean, center
	}
	span := t.total - prevCenter
	if span <= 0 {
		return t.max
	}
	frac := (target - prevCenter) / span
	return lerp(prevMean, t.max, frac)
}

// lerp interpolates between segment endpoints a and b, f in [0, 1].
// The two-product form is exact at both endpoints (the one-product form
// a+f*(b-a) cancels catastrophically when |a| >> |b|, e.g. rounding to 0
// between a huge and a denormal value), and the segment clamp keeps
// rounding from escaping [a, b] — which is what keeps quantiles monotone
// in q and inside the observed data range.
func lerp(a, b, f float64) float64 {
	v := (1-f)*a + f*b
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Merge folds o into t. Both digests are compacted first (a
// deterministic operation), so the result depends only on the operands'
// logical contents.
func (t *TDigest) Merge(o *TDigest) {
	if o == nil || o.total == 0 {
		return
	}
	o.compress()
	if o.min < t.min {
		t.min = o.min
	}
	if o.max > t.max {
		t.max = o.max
	}
	for _, c := range o.centroids {
		t.total += c.weight
		t.buf = append(t.buf, c)
		if len(t.buf) == cap(t.buf) {
			t.compress()
		}
	}
}

// Reset clears the digest without releasing its backing arrays.
func (t *TDigest) Reset() {
	t.centroids = t.centroids[:0]
	t.buf = t.buf[:0]
	t.total = 0
	t.min = math.Inf(1)
	t.max = math.Inf(-1)
}

// Bytes returns the fixed memory footprint of the centroid arrays.
func (t *TDigest) Bytes() int {
	return 16 * (cap(t.centroids) + cap(t.buf) + cap(t.merged))
}
