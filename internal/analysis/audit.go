package analysis

import (
	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/stats"
	"fbdcnet/internal/topology"
)

// Determinism-checkpoint hash points: each analysis folds a canonical
// summary of its finished state into an audit.Hash, so a trace bundle's
// ledger localizes which analysis diverged rather than just which
// bundle. Canonicalization rules (DESIGN.md §16):
//
//   - Insertion-ordered structures (slabs, openhash tables, series
//     bins) fold in their deterministic iteration order.
//   - Unordered structures (the Flows spill map) fold as an XOR of
//     per-entry sub-hashes — a commutative combine, so map iteration
//     order cannot leak into the sum.
//   - Enumerations (roles, localities) fold in their numeric order.
//
// Every method is a no-op on a nil hash.

// foldSample folds a stats.Sample as (N, Sum): cheap, and any change to
// the underlying values moves the float sum bit-for-bit because the
// accumulation order of Sum is the recorded order.
func foldSample(h *audit.Hash, s *stats.Sample) {
	if s == nil {
		h.I64(-1)
		return
	}
	h.I64(int64(s.N()))
	h.F64(s.Sum())
}

// foldSeries folds a time series' bins in order.
func foldSeries(h *audit.Hash, ts *stats.TimeSeries) {
	if ts == nil {
		h.I64(-1)
		return
	}
	bins := ts.Bins()
	h.I64(int64(len(bins)))
	for _, v := range bins {
		h.F64(v)
	}
}

// FoldAudit folds the size distribution.
func (ps *PacketSizes) FoldAudit(h *audit.Hash) {
	if !h.Enabled() {
		return
	}
	foldSample(h, ps.sample)
}

// FoldAudit folds the per-role byte mix in role order.
func (sm *ServiceMix) FoldAudit(h *audit.Hash) {
	if !h.Enabled() {
		return
	}
	h.F64(sm.total)
	for role := topology.Role(0); role <= topology.RoleMisc; role++ {
		h.F64(sm.bytes[role])
	}
}

// FoldAudit folds every locality tier's per-second series.
func (ls *LocalitySeries) FoldAudit(h *audit.Hash) {
	if !h.Enabled() {
		return
	}
	for _, l := range topology.Localities {
		foldSeries(h, ls.bins[l])
	}
}

// FoldAudit folds the assembled flow set: the slab in insertion order,
// the spill map as an XOR of per-flow sub-hashes.
func (fl *Flows) FoldAudit(h *audit.Hash) {
	if !h.Enabled() {
		return
	}
	h.I64(int64(fl.Count()))
	for i := range fl.slab {
		f := &fl.slab[i]
		h.I64(int64(f.Start))
		h.I64(int64(f.End))
		h.I64(f.Bytes)
		h.I64(f.Packets)
		h.U64(uint64(f.Locality))
	}
	var x uint64
	for _, f := range fl.spill {
		var sub audit.Hash
		sub.I64(int64(f.Start))
		sub.I64(int64(f.End))
		sub.I64(f.Bytes)
		sub.I64(f.Packets)
		x ^= sub.Sum()
	}
	h.U64(x)
}

// FoldAudit folds the per-destination-rack rate series in insertion
// order.
func (rs *RateSeries) FoldAudit(h *audit.Hash) {
	if !h.Enabled() {
		return
	}
	h.I64(int64(rs.perRack.Len()))
	rs.perRack.Range(func(k uint64, v **stats.TimeSeries) {
		h.U64(k)
		foldSeries(h, *v)
	})
}

// FoldAudit folds the SYN arrival record: gap distribution, SYN count,
// and each bin-width series.
func (a *Arrivals) FoldAudit(h *audit.Hash) {
	if !h.Enabled() {
		return
	}
	foldSample(h, a.synGaps)
	h.I64(int64(len(a.synTimes)))
	for _, b := range a.binned {
		h.I64(int64(b.w))
		foldSeries(h, b.ts)
	}
}

// FoldAudit folds a heavy-hitter tracker's four samples (exact and
// sketch trackers alike): set sizes, member rates, persistence and
// intersection. Call after Finish.
func (s *heavyStats) FoldAudit(h *audit.Hash) {
	if !h.Enabled() {
		return
	}
	foldSample(h, s.counts)
	foldSample(h, s.rates)
	foldSample(h, s.persist)
	foldSample(h, s.intersect)
}

// FoldAudit folds the finished concurrency windows: the aggregate and
// per-locality samples in locality order. Call after Finish.
func (c *Concurrency) FoldAudit(h *audit.Hash) {
	if !h.Enabled() {
		return
	}
	foldSample(h, c.countAll)
	foldSample(h, c.hhAll)
	foldSample(h, c.flowCnt)
	foldSample(h, c.hostCnt)
	for _, l := range topology.Localities {
		foldSample(h, c.counts[l])
		foldSample(h, c.hh[l])
	}
}
