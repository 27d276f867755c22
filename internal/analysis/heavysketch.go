package analysis

import (
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/sketch"
	"fbdcnet/internal/stats"
	"fbdcnet/internal/topology"
)

// HeavyTracker is the interface the engine consumes for windowed
// heavy-hitter statistics: the exact openhash-backed HeavyHitters and the
// bounded-memory SketchHeavyHitters both implement it, so core selects
// one per Config.SketchMode without the tables, figures, or obs folding
// caring which.
type HeavyTracker interface {
	Packet(packet.Header)
	Packets([]packet.Header)
	Finish()
	// heavyResults: Counts, Rates, Persistence, Intersection and
	// FoldAudit, which both implementations share through heavyStats.
	heavyResults
	TableStats() []TableStats
	// MemoryBytes estimates the tracker's table-state footprint — the
	// state sketch mode replaces: for the exact tracker it grows with the
	// key population, for the sketch tracker it is fixed at construction.
	// The sketcherr harness compares the two.
	MemoryBytes() int
}

// heavyResults is the read side of a heavy-hitter tracker: the four
// output samples and their audit fold.
type heavyResults interface {
	Counts() *stats.Sample
	Rates() *stats.Sample
	Persistence() *stats.Sample
	Intersection() *stats.Sample
	FoldAudit(*audit.Hash)
}

// NewHeavyTracker returns a stand-alone heavy-hitter tracker for one
// (level, bin) pair, fed directly: by default the exact implementation
// (a HeavyGroup of one tracker, see NewHeavyHitters), the fixed-memory
// sketch implementation when sketchMode is set. To track several pairs
// of one host exactly, attach one NewHeavyGroup instead.
func NewHeavyTracker(topo *topology.Topology, host topology.HostID, level Level, bin netsim.Time, sketchMode bool) HeavyTracker {
	if sketchMode {
		return NewSketchHeavyHitters(topo, host, level, bin)
	}
	return NewHeavyHitters(topo, host, level, bin)
}

// SketchDims sizes the per-bin summaries by aggregation level: the flow
// key space is unbounded (sketches are why sketch mode exists), the host
// and rack spaces are progressively smaller, so their candidate sets and
// count-min rows shrink with them. The widths are deliberately tight —
// the memory contract (sketcherr asserts ≥2× below the exact tables at
// large scale) matters as much as the error bound, and the harness shows
// heavy-hitter rank error stays well under 1% at these sizes.
func SketchDims(level Level) (ssCap, cmWidth int) {
	switch level {
	case LevelFlow:
		return 192, 512
	case LevelHost:
		return 96, 256
	default:
		return 32, 128
	}
}

// SketchHeavyHitters is the bounded-memory implementation of
// HeavyTracker: per-bin and per-second space-saving summaries nominate
// heavy-hitter candidates while paired count-min sketches refine their
// byte estimates (both structures over-approximate, so the pointwise
// minimum is the tighter upper bound). The exact stream total comes for
// free (space-saving tracks it as a scalar), so the HeavyFrac prefix cut
// is made against true total bytes — only membership and per-member
// bytes are approximate.
//
// Unlike the exact HeavyGroup, one tracker serves one (level, bin) pair
// and sees every packet: space-saving's evictions depend on arrival
// order, so a bin's summary cannot be folded from finer ones.
//
// Memory is fixed at construction regardless of how many distinct
// aggregates the stream carries; every accumulator is Reset-reused at
// bin/second rolls, so the steady-state packet path allocates nothing —
// the contract the endless serve mode depends on.
//
// Determinism: every structure is a pure function of the packet
// sequence, so results are bit-identical across runs and worker counts
// (bundle generation is single-goroutine; the parallel engine only
// schedules whole bundles).
type SketchHeavyHitters struct {
	heavyStats
	topo  *topology.Topology
	addr  packet.Addr
	level Level

	cur    *sketch.SpaceSaving
	curCM  *sketch.CountMin
	curBin int64

	// Enclosing-second summaries for the intersection metric.
	sec   *sketch.SpaceSaving
	secCM *sketch.CountMin
	secNo int64

	top     []sketch.Entry // Top() drain buffer
	scratch []hhItem       // refined-estimate sort buffer
	setBuf  []uint64
	secBuf  []uint64
}

// NewSketchHeavyHitters creates a sketch-backed tracker at the given
// level and bin width.
func NewSketchHeavyHitters(topo *topology.Topology, host topology.HostID, level Level, bin netsim.Time) *SketchHeavyHitters {
	if bin <= 0 {
		panic("analysis: heavy-hitter bin width must be positive")
	}
	ssCap, cmWidth := SketchDims(level)
	return &SketchHeavyHitters{
		heavyStats: newHeavyStats(bin),
		topo:       topo,
		addr:       topo.Addr(host),
		level:      level,
		cur:        sketch.NewSpaceSaving(ssCap),
		curCM:      sketch.NewCountMin(4, cmWidth),
		sec:        sketch.NewSpaceSaving(ssCap),
		secCM:      sketch.NewCountMin(4, cmWidth),
		top:        make([]sketch.Entry, 0, ssCap),
		scratch:    make([]hhItem, 0, ssCap),
	}
}

// keyFor maps a header to its packed aggregate identity at the tracker's
// level: the full packed flow key, the destination address, or the
// destination rack ID (0 for a destination outside the topology) — the
// keys the exact HeavyGroup derives at bin roll.
func (hh *SketchHeavyHitters) keyFor(h packet.Header) uint64 {
	switch hh.level {
	case LevelFlow:
		return packHostFlowKey(h.Key)
	case LevelHost:
		return uint64(h.Key.Dst)
	default:
		rack := 0
		if d, ok := hh.topo.HostByAddr(h.Key.Dst); ok {
			rack = hh.topo.HostRack(d)
		}
		return uint64(rack)
	}
}

// Packet implements the collector interface.
func (hh *SketchHeavyHitters) Packet(h packet.Header) {
	if h.Key.Src != hh.addr {
		return
	}
	binNo := h.Time / int64(hh.bin)
	if binNo != hh.curBin {
		hh.rollBin(binNo)
	}
	secNo := h.Time / int64(netsim.Second)
	if secNo != hh.secNo {
		hh.rollSecond(secNo)
	}
	k := hh.keyFor(h)
	size := int64(h.Size)
	hh.cur.Update(k, size)
	hh.curCM.Add(k, size)
	hh.sec.Update(k, size)
	hh.secCM.Add(k, size)
}

// Packets implements the batch collector interface.
func (hh *SketchHeavyHitters) Packets(hs []packet.Header) {
	for _, h := range hs {
		hh.Packet(h)
	}
}

// heavyPrefix drains the summary's candidates, refines each count to
// min(space-saving count, count-min estimate), and returns the heavy set
// against the exact total (see heavySet).
func (hh *SketchHeavyHitters) heavyPrefix(ss *sketch.SpaceSaving, cm *sketch.CountMin) []hhItem {
	hh.top = ss.Top(hh.top[:0])
	items := hh.scratch[:0]
	for _, e := range hh.top {
		est := e.Count
		if c := cm.Estimate(e.Key); c < est {
			est = c
		}
		items = append(items, hhItem{e.Key, float64(est)})
	}
	hh.scratch = items
	return heavySet(items, float64(ss.Total()))
}

// rollBin finalizes the current bin, as the exact tracker does: Table 4
// statistics, persistence versus the previous bin, and the stashed set
// for the enclosing-second intersection.
func (hh *SketchHeavyHitters) rollBin(next int64) {
	if hh.cur.Len() > 0 {
		heavy := hh.heavyPrefix(hh.cur, hh.curCM)
		hh.setBuf = sortedKeys(heavy, hh.setBuf)
		hh.addBin(hh.curBin, heavy, hh.setBuf)
		hh.cur.Reset()
		hh.curCM.Reset()
	}
	hh.curBin = next
}

// rollSecond finalizes the enclosing second.
func (hh *SketchHeavyHitters) rollSecond(next int64) {
	var set []uint64
	if hh.sec.Len() > 0 && len(hh.subEnds) > 0 {
		hh.secBuf = sortedKeys(hh.heavyPrefix(hh.sec, hh.secCM), hh.secBuf)
		set = hh.secBuf
	}
	hh.addSecond(set)
	hh.sec.Reset()
	hh.secCM.Reset()
	hh.secNo = next
}

// Finish flushes the last open bin and second.
func (hh *SketchHeavyHitters) Finish() {
	hh.rollBin(hh.curBin + 1)
	hh.rollSecond(hh.secNo + 1)
}

// TableStats reports the candidate summaries in the same shape as the
// exact tables so the obs folding stays uniform. Grows is always zero:
// the structures never rehash.
func (hh *SketchHeavyHitters) TableStats() []TableStats {
	return []TableStats{
		{Name: "heavy.cur.sketch", Rows: hh.cur.Len(), Cap: hh.cur.Cap()},
		{Name: "heavy.sec.sketch", Rows: hh.sec.Len(), Cap: hh.sec.Cap()},
	}
}

// MemoryBytes returns the fixed table-state footprint: the sketches and
// their extraction buffers. The persistence bookkeeping (previous heavy
// set, per-second subset arena) is excluded from both implementations —
// it is byte-for-byte the same structure in either mode, and the memory
// contract is about the state sketch mode replaces.
func (hh *SketchHeavyHitters) MemoryBytes() int {
	return hh.cur.Bytes() + hh.curCM.Bytes() + hh.sec.Bytes() + hh.secCM.Bytes() +
		24*cap(hh.top) + 16*cap(hh.scratch)
}
