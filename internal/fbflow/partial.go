package fbflow

import (
	"fmt"
	"slices"

	"fbdcnet/internal/openhash"
	"fbdcnet/internal/topology"
)

// Partial is a shard-local columnar accumulator for the parallel fleet
// collector: the same aggregates a Dataset holds, in fixed arrays,
// rack-pair rows and open-addressing tables, for one (window, shard)
// cell. A Partial is
// single-goroutine (no mutex — each collection task owns one), reusable
// via Reset, and folded into the shared Dataset with MergePartial.
//
// Bit-identity: within a cell, Add folds records in arrival order, so
// every per-key partial sum is the float64 that adding that cell's
// records one by one would build. MergePartial then adds those sums key
// by key. No arithmetic ever crosses keys, so only the per-key sequence
// of additions matters — fixed by merging cells in task order — and the
// iteration order over keys within one partial is immaterial.
type Partial struct {
	totalBytes float64

	// locality[clusterType][locality] and byClusterType are dense: both
	// dimensions are tiny closed enums.
	locality      [numClusterTypes][numLocalities]float64
	byClusterType [numClusterTypes]float64

	// rackPair holds the rack-pair sums as rows, one per source rack
	// (rows.go). open is the scratch of the row Add is building, nil when
	// no row is open, and openSrc is that row's source rack.
	rackPair rackRows
	open     *rowScratch
	openSrc  int32

	// The other pair and sparse-key aggregates live in packed-key tables.
	// Cluster and minute indexes fit in 32 bits by construction (bounded
	// by fleet size and windows), so two of them pack into one uint64
	// without collision.
	clusterPair  openhash.Table[float64] // src<<32 | dst
	perMinute    openhash.Table[float64] // uint64(minute)
	hostOut      openhash.Table[float64] // uint64(HostID)
	rackCross    openhash.Table[float64] // uint64(rack)
	clusterCross openhash.Table[float64] // uint64(cluster)

	// Memos of the last slot Add used in the four tables keyed by source
	// or minute. A cell's records arrive grouped by source host, so runs
	// of records hit the same key and skip the probe. A memo holds the
	// pointer its table's most recent Slot returned, so it stays valid
	// until Reset, which clears it; only Add and DecodeBinary (which
	// Resets first) insert into these tables.
	minuteMemo, hostMemo, rackCrossMemo, clusterCrossMemo slotMemo

	// card, when enabled, tracks distinct flow/host/rack populations
	// alongside the byte aggregates (sketch mode). Nil costs one
	// predicted branch per record.
	card *Cardinality
}

// NewPartial returns an empty Partial.
func NewPartial() *Partial { return &Partial{} }

// EnableCardinality attaches HLL distinct counters to the partial
// (idempotent). Call before the first Add; the fleet engine enables it
// on every pooled partial when Config.SketchMode is set.
func (p *Partial) EnableCardinality() {
	if p.card == nil {
		p.card = NewCardinality()
	}
}

// slotMemo remembers one (key, slot) pair of a table.
type slotMemo struct {
	key  uint64
	slot *float64
}

// in returns t's slot for k, probing t only when k differs from the
// remembered key. A hit skips Slot on a key t already holds, which
// changes neither the table nor its insertion order.
func (m *slotMemo) in(t *openhash.Table[float64], k uint64) *float64 {
	if m.slot == nil || m.key != k {
		m.key, m.slot = k, t.Slot(k)
	}
	return m.slot
}

// packPair packs an ordered (src, dst) index pair into one table key.
func packPair(src, dst int32) uint64 { return uint64(uint32(src))<<32 | uint64(uint32(dst)) }

// unpackPair inverts packPair.
func unpackPair(k uint64) (src, dst int) { return int(int32(k >> 32)), int(int32(uint32(k))) }

// Add folds one record into every aggregate it touches, without locks:
// a Partial belongs to one goroutine.
func (p *Partial) Add(r Record) {
	p.totalBytes += r.Bytes
	p.locality[r.SrcClusterType][r.Locality] += r.Bytes
	p.byClusterType[r.SrcClusterType] += r.Bytes
	p.addRackPair(r.SrcRack, r.DstRack, r.Bytes)
	*p.clusterPair.Slot(packPair(r.SrcCluster, r.DstCluster)) += r.Bytes
	*p.minuteMemo.in(&p.perMinute, uint64(r.Minute)) += r.Bytes
	*p.hostMemo.in(&p.hostOut, uint64(r.Src)) += r.Bytes
	if r.Locality != topology.SameHost && r.Locality != topology.IntraRack {
		*p.rackCrossMemo.in(&p.rackCross, uint64(r.SrcRack)) += r.Bytes
		if r.Locality != topology.IntraCluster {
			*p.clusterCrossMemo.in(&p.clusterCross, uint64(r.SrcCluster)) += r.Bytes
		}
	}
	if p.card != nil {
		p.card.Add(r)
	}
}

// Reset clears every aggregate while keeping table and row capacity, so
// a pooled Partial's steady-state Add path allocates nothing.
func (p *Partial) Reset() {
	p.totalBytes = 0
	p.locality = [numClusterTypes][numLocalities]float64{}
	p.byClusterType = [numClusterTypes]float64{}
	p.seal()
	p.rackPair.reset()
	p.clusterPair.Reset()
	p.perMinute.Reset()
	p.hostOut.Reset()
	p.rackCross.Reset()
	p.clusterCross.Reset()
	p.minuteMemo, p.hostMemo, p.rackCrossMemo, p.clusterCrossMemo = slotMemo{}, slotMemo{}, slotMemo{}, slotMemo{}
	if p.card != nil {
		p.card.Reset()
	}
}

// CheckIDs reports the first key of p that names a host, rack, or
// cluster outside a fleet of the given size. The Dataset indexes dense
// storage by these IDs, so a partial decoded off the wire must pass this
// check before MergePartial: a corrupt key would otherwise index out of
// range or drive a multi-GiB grow. The error names the table and key.
func (p *Partial) CheckIDs(hosts, racks, clusters int) error {
	p.seal()
	rows := &p.rackPair
	for i := range rows.src {
		src, dst, _ := rows.row(i)
		for _, d := range dst {
			if src < 0 || int(src) >= racks || d < 0 || int(d) >= racks {
				return fmt.Errorf("fbflow: partial rackPair key (%d,%d) outside %d IDs", src, d, racks)
			}
		}
	}
	for _, c := range [...]struct {
		name string
		t    *openhash.Table[float64]
		n    int
		pair bool
	}{
		{"clusterPair", &p.clusterPair, clusters, true},
		{"hostOut", &p.hostOut, hosts, false},
		{"rackCross", &p.rackCross, racks, false},
		{"clusterCross", &p.clusterCross, clusters, false},
	} {
		n := uint64(c.n)
		for i := 0; i < c.t.Len(); i++ {
			k := c.t.Key(i)
			switch {
			case c.pair && (k>>32 >= n || uint64(uint32(k)) >= n):
				return fmt.Errorf("fbflow: partial %s key (%d,%d) outside %d IDs", c.name, k>>32, uint32(k), c.n)
			case !c.pair && k >= n:
				return fmt.Errorf("fbflow: partial %s key %d outside %d IDs", c.name, k, c.n)
			}
		}
	}
	return nil
}

// MergePartial folds a cell's Partial into d: every table and row entry
// becomes one add into the matching column or row. The caller serializes
// MergePartial calls in task order, which fixes the per-key addition
// sequence and so the merged bits. Locality and cluster-type sums of
// zero are skipped, like keys no record touched. A partial whose keys d
// already holds merges without allocating.
func (d *Dataset) MergePartial(p *Partial) {
	if p == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.totalBytes += p.totalBytes
	for ct := range p.locality {
		for l, b := range p.locality[ct] {
			if b != 0 {
				d.addLocality(ct, l, b)
			}
		}
	}
	for ct, b := range p.byClusterType {
		if b != 0 {
			d.addClusterType(ct, b)
		}
	}
	p.seal()
	rows := &p.rackPair
	if len(rows.dst) > 0 {
		d.fitPos(int(slices.Max(rows.dst)) + 1)
	}
	for i := range rows.src {
		src, dst, val := rows.row(i)
		d.mergeRow(int(src), dst, val)
	}
	for i := 0; i < p.clusterPair.Len(); i++ {
		*d.clusterPair.Slot(p.clusterPair.Key(i)) += *p.clusterPair.Val(i)
	}
	for i := 0; i < p.perMinute.Len(); i++ {
		*d.perMinute.Slot(p.perMinute.Key(i)) += *p.perMinute.Val(i)
	}
	for _, c := range [...]struct {
		t   *openhash.Table[float64]
		dst *IDVec
	}{{&p.hostOut, &d.hostOut}, {&p.rackCross, &d.rackCross}, {&p.clusterCross, &d.clusterCross}} {
		for i := 0; i < c.t.Len(); i++ {
			c.dst.add(int(c.t.Key(i)), *c.t.Val(i))
		}
	}
	if p.card != nil {
		if d.card == nil {
			d.card = NewCardinality()
		}
		d.card.Merge(p.card)
	}
}
