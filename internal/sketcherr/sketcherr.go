// Package sketcherr is the conformance harness of sketch mode: it runs
// the exact and sketch analysis pipelines over the identical packet
// stream (same rng seeds, same generator) and scores the sketch side
// against declared per-window error bounds — heavy-hitter rank error,
// HLL distinct-count relative error, and t-digest quantile drift — plus
// the memory contract (fixed sketch footprint vs the exact tables'
// population-proportional one).
//
// It is both a go test suite (sketcherr_test.go asserts Default bounds
// at small scale; CI's sketch-accuracy job re-runs it at -scale large)
// and a benchdiff-gated report (BenchmarkSketchErr reports each error
// metric, baselined in BENCH_PR7.json, so accuracy regressions fail the
// bench gate like performance regressions do).
package sketcherr

import (
	"fmt"
	"math"
	"slices"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/core"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/openhash"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/services"
	"fbdcnet/internal/sketch"
	"fbdcnet/internal/stats"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// Bounds are the per-window error ceilings the harness enforces.
type Bounds struct {
	// HHRankErr is the maximum fraction of a bin's exact heavy-hitter set
	// missing from the sketch heavy-hitter set, averaged per window.
	HHRankErr float64
	// HLLRelErr is the maximum relative error of the per-window distinct
	// flow count estimate.
	HLLRelErr float64
	// QuantileDrift is the maximum |sketch − exact| quantile difference as
	// a fraction of the window's observed value range, over the probe
	// quantiles.
	QuantileDrift float64
	// MemRatioMin, when positive, requires exact/sketch tracker memory of
	// at least this ratio (asserted at scales where the exact tables have
	// grown; meaningless at tiny scale, where fixed sketch state dominates).
	MemRatioMin float64
}

// Default returns the bounds the acceptance criteria pin: ≤1% heavy-
// hitter rank error, HLL within 3 standard errors of its precision, 5%
// t-digest drift, and ≥2× memory advantage where MemRatioMin is applied.
func Default() Bounds {
	return Bounds{
		HHRankErr:     0.01,
		HLLRelErr:     3 * 1.04 / math.Sqrt(1<<12),
		QuantileDrift: 0.05,
		MemRatioMin:   2,
	}
}

// Config selects the dual run's workload.
type Config struct {
	Scale   topology.Scale
	Seed    uint64
	Seconds int         // trace duration; one report window per second
	Bin     netsim.Time // heavy-hitter bin width
	Role    topology.Role
}

// DefaultConfig returns a small-scale dual run: 10 seconds of a web
// host's mirror trace, 10-ms heavy-hitter bins.
func DefaultConfig() Config {
	return Config{
		Scale:   topology.ScaleSmall,
		Seed:    42,
		Seconds: 10,
		Bin:     10 * netsim.Millisecond,
		Role:    topology.RoleWeb,
	}
}

// WindowErr scores one window (one second) of the dual run.
type WindowErr struct {
	Window        int
	Bins          int     // non-empty heavy-hitter bins in the window
	HHRankErr     float64 // mean per-bin rank error
	ExactDistinct int     // exact distinct flows
	HLLDistinct   float64 // HLL estimate
	HLLRelErr     float64
	QuantileDrift float64 // max over probe quantiles, fraction of range
}

// Report is the outcome of one dual run.
type Report struct {
	Cfg     Config
	Windows []WindowErr
	// Packets processed (sanity: both pipelines saw the same stream).
	Packets int64
	// Analysis-table memory after the run, summed over the real
	// analysis.HeavyTracker pair at every aggregation level: the exact
	// trackers' tables grow with the key population, the sketch trackers'
	// state is fixed at construction.
	ExactBytes  int
	SketchBytes int
	MemRatio    float64
}

// MaxHHRankErr returns the worst per-window rank error.
func (r *Report) MaxHHRankErr() float64 {
	m := 0.0
	for _, w := range r.Windows {
		m = math.Max(m, w.HHRankErr)
	}
	return m
}

// MaxHLLRelErr returns the worst per-window distinct-count error.
func (r *Report) MaxHLLRelErr() float64 {
	m := 0.0
	for _, w := range r.Windows {
		m = math.Max(m, w.HLLRelErr)
	}
	return m
}

// MaxQuantileDrift returns the worst per-window quantile drift.
func (r *Report) MaxQuantileDrift() float64 {
	m := 0.0
	for _, w := range r.Windows {
		m = math.Max(m, w.QuantileDrift)
	}
	return m
}

// Check asserts every window against b and the memory contract; the
// returned error lists every violation.
func (r *Report) Check(b Bounds) error {
	var errs []string
	for _, w := range r.Windows {
		if w.HHRankErr > b.HHRankErr {
			errs = append(errs, fmt.Sprintf(
				"window %d: HH rank error %.4f exceeds bound %.4f", w.Window, w.HHRankErr, b.HHRankErr))
		}
		if w.HLLRelErr > b.HLLRelErr {
			errs = append(errs, fmt.Sprintf(
				"window %d: HLL relative error %.4f exceeds bound %.4f", w.Window, w.HLLRelErr, b.HLLRelErr))
		}
		if w.QuantileDrift > b.QuantileDrift {
			errs = append(errs, fmt.Sprintf(
				"window %d: quantile drift %.4f exceeds bound %.4f", w.Window, w.QuantileDrift, b.QuantileDrift))
		}
	}
	if b.MemRatioMin > 0 && r.MemRatio < b.MemRatioMin {
		errs = append(errs, fmt.Sprintf(
			"memory ratio exact/sketch %.2f below required %.2f (exact %d B, sketch %d B)",
			r.MemRatio, b.MemRatioMin, r.ExactBytes, r.SketchBytes))
	}
	if len(errs) == 0 {
		return nil
	}
	msg := errs[0]
	for _, e := range errs[1:] {
		msg += "; " + e
	}
	return fmt.Errorf("sketcherr: %s", msg)
}

// Run executes the dual pipeline and scores it: the error duals see the
// stream through the harness's own accumulators, while a full exact and
// sketch tracker pair at every aggregation level measures the memory
// contract on the real analysis implementations.
func Run(cfg Config) (*Report, error) {
	sys, err := core.NewSystem(core.Config{
		Scale:  cfg.Scale,
		Seed:   cfg.Seed,
		Params: services.DefaultParams(),
	})
	if err != nil {
		return nil, err
	}
	host := sys.Monitored(cfg.Role)
	d := newDual(sys.Topo.Addr(host), cfg.Bin)
	sinks := workload.Fanout{d}
	var exacts, sketches []analysis.HeavyTracker
	for _, lvl := range analysis.Levels {
		e := analysis.NewHeavyTracker(sys.Topo, host, lvl, cfg.Bin, false)
		sk := analysis.NewHeavyTracker(sys.Topo, host, lvl, cfg.Bin, true)
		exacts, sketches = append(exacts, e), append(sketches, sk)
		sinks = append(sinks, e, sk)
	}
	tr := services.NewTrace(sys.Pick, host, cfg.Seed^uint64(cfg.Role)<<8^uint64(cfg.Seconds),
		sys.Cfg.Params, sinks)
	tr.Run(netsim.Time(cfg.Seconds) * netsim.Second)
	d.finish()
	rep := &Report{
		Cfg:     cfg,
		Windows: d.windows,
		Packets: d.packets,
	}
	for i := range exacts {
		exacts[i].Finish()
		sketches[i].Finish()
		rep.ExactBytes += exacts[i].MemoryBytes()
		rep.SketchBytes += sketches[i].MemoryBytes()
	}
	if rep.SketchBytes > 0 {
		rep.MemRatio = float64(rep.ExactBytes) / float64(rep.SketchBytes)
	}
	return rep, nil
}

// probeQuantiles are where the size digest is compared to the exact
// sample.
var probeQuantiles = [...]float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99}

// dual feeds each outbound packet of the monitored host into the exact
// accumulators and their sketch counterparts, scoring them against each
// other at bin and second rolls. Keys are packed flow identities (same
// fields the analysis layer packs).
type dual struct {
	addr packet.Addr
	bin  netsim.Time

	packets int64

	// Per-bin heavy-hitter dual: exact table vs space-saving + count-min.
	exact  openhash.Table[int64]
	ss     *sketch.SpaceSaving
	cm     *sketch.CountMin
	curBin int64

	// Per-window (second) duals: distinct flows and size quantiles.
	seen  openhash.Table[int64] // exact distinct flow keys this window
	hll   *sketch.HLL
	sizes *stats.Sample
	td    *sketch.TDigest
	secNo int64

	// Window accumulation.
	bins       int
	rankErrSum float64
	windows    []WindowErr

	scratch []hhItem
	top     []sketch.Entry
	sketchS map[uint64]struct{}
}

type hhItem struct {
	k uint64
	v int64
}

func newDual(addr packet.Addr, bin netsim.Time) *dual {
	// The error dual runs at exactly the dimensions the analysis layer
	// deploys, so the bounds proven here transfer to sketch mode proper.
	ssCap, cmWidth := analysis.SketchDims(analysis.LevelFlow)
	return &dual{
		addr:    addr,
		bin:     bin,
		ss:      sketch.NewSpaceSaving(ssCap),
		cm:      sketch.NewCountMin(4, cmWidth),
		hll:     sketch.NewHLL(12),
		sizes:   stats.NewSample(0),
		td:      sketch.NewTDigest(100),
		sketchS: make(map[uint64]struct{}, ssCap),
	}
}

// packKey packs the flow identity the way analysis does (dst, ports,
// proto — src is fixed to the monitored host).
func packKey(k packet.FlowKey) uint64 {
	proto := uint64(0)
	if k.Proto != packet.TCP {
		proto = 1
	}
	return uint64(k.Dst)<<33 | uint64(k.SrcPort)<<17 | uint64(k.DstPort)<<1 | proto
}

// Packet implements the collector interface.
func (d *dual) Packet(h packet.Header) {
	if h.Key.Src != d.addr {
		return
	}
	binNo := h.Time / int64(d.bin)
	if binNo != d.curBin {
		d.rollBin(binNo)
	}
	secNo := h.Time / int64(netsim.Second)
	if secNo != d.secNo {
		d.rollWindow(secNo)
	}
	d.packets++
	k := packKey(h.Key)
	size := int64(h.Size)
	*d.exact.Slot(k) += size
	d.ss.Update(k, size)
	d.cm.Add(k, size)
	*d.seen.Slot(k) = 1
	d.hll.Add(k)
	d.sizes.Add(float64(h.Size))
	d.td.Add(float64(h.Size), 1)
}

// Packets implements the batch collector interface.
func (d *dual) Packets(hs []packet.Header) {
	for _, h := range hs {
		d.Packet(h)
	}
}

// heavySet extracts the exact heavy prefix (bytes desc, key asc, minimum
// prefix covering HeavyFrac of total) into d.scratch and returns its
// length.
func (d *dual) heavySet() int {
	items := d.scratch[:0]
	var total int64
	for i, n := 0, d.exact.Len(); i < n; i++ {
		v := *d.exact.Val(i)
		items = append(items, hhItem{d.exact.Key(i), v})
		total += v
	}
	d.scratch = items
	slices.SortFunc(items, func(a, b hhItem) int {
		if a.v != b.v {
			if a.v > b.v {
				return -1
			}
			return 1
		}
		if a.k < b.k {
			return -1
		}
		return 1
	})
	var acc int64
	m := 0
	for _, it := range items {
		m++
		acc += it.v
		if float64(acc) >= analysis.HeavyFrac*float64(total) {
			break
		}
	}
	return m
}

// rollBin scores the finished bin: the fraction of the exact heavy set
// absent from the sketch heavy set (rank/membership error).
func (d *dual) rollBin(next int64) {
	if d.exact.Len() > 0 {
		m := d.heavySet()

		// Sketch heavy set from the space-saving candidates with count-min
		// refinement — the same extraction analysis.SketchHeavyHitters runs.
		d.top = d.ss.Top(d.top[:0])
		type se struct {
			k   uint64
			est int64
		}
		ests := make([]se, 0, len(d.top))
		for _, e := range d.top {
			est := e.Count
			if c := d.cm.Estimate(e.Key); c < est {
				est = c
			}
			ests = append(ests, se{e.Key, est})
		}
		slices.SortFunc(ests, func(a, b se) int {
			if a.est != b.est {
				if a.est > b.est {
					return -1
				}
				return 1
			}
			if a.k < b.k {
				return -1
			}
			return 1
		})
		total := float64(d.ss.Total())
		clear(d.sketchS)
		acc := 0.0
		for _, e := range ests {
			d.sketchS[e.k] = struct{}{}
			acc += float64(e.est)
			if acc >= analysis.HeavyFrac*total {
				break
			}
		}
		missing := 0
		for i := 0; i < m; i++ {
			if _, ok := d.sketchS[d.scratch[i].k]; !ok {
				missing++
			}
		}
		d.rankErrSum += float64(missing) / float64(m)
		d.bins++

		d.exact.Reset()
		d.ss.Reset()
		d.cm.Reset()
	}
	d.curBin = next
}

// rollWindow closes one report window: distinct-count error and size
// quantile drift, plus the window's accumulated rank error.
func (d *dual) rollWindow(next int64) {
	if d.seen.Len() > 0 {
		w := WindowErr{
			Window:        int(d.secNo),
			Bins:          d.bins,
			ExactDistinct: d.seen.Len(),
			HLLDistinct:   d.hll.Estimate(),
		}
		if d.bins > 0 {
			w.HHRankErr = d.rankErrSum / float64(d.bins)
		}
		w.HLLRelErr = math.Abs(w.HLLDistinct-float64(w.ExactDistinct)) / float64(w.ExactDistinct)
		lo, hi := d.sizes.Quantile(0), d.sizes.Quantile(1)
		if span := hi - lo; span > 0 {
			for _, q := range probeQuantiles {
				drift := math.Abs(d.td.Quantile(q)-d.sizes.Quantile(q)) / span
				w.QuantileDrift = math.Max(w.QuantileDrift, drift)
			}
		}
		d.windows = append(d.windows, w)
	}
	d.seen.Reset()
	d.hll.Reset()
	d.sizes = stats.NewSample(0)
	d.td.Reset()
	d.bins = 0
	d.rankErrSum = 0
	d.secNo = next
}

// finish flushes the last open bin and window.
func (d *dual) finish() {
	d.rollBin(d.curBin + 1)
	d.rollWindow(d.secNo + 1)
}
