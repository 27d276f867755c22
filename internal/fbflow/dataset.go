package fbflow

import (
	"math/bits"
	"sync"

	"fbdcnet/internal/openhash"
	"fbdcnet/internal/topology"
)

// The two closed enums the dense Table 3 aggregates are indexed by.
const (
	numClusterTypes = int(topology.ClusterDB) + 1
	numLocalities   = int(topology.InterDatacenter) + 1
)

// Dataset is the analytics store at the end of the pipeline (the
// Scuba/Hive stage of Figure 3): thread-safe aggregation of the tagged
// records merged into it from Partials, along the dimensions the paper's
// fleet analyses query. Raw records are not retained; memory stays
// bounded at matrix-of-racks scale.
//
// The layout is columnar, like Partial's: the enum-keyed aggregates are
// dense arrays, the per-host/rack/cluster ones are ID-indexed vectors,
// the rack pairs are one compact row per source rack, and only the
// sparse keys (cluster pairs and minutes) live in open-addressing
// tables. Every aggregate keeps key presence apart from value, so a key
// added with zero bytes is still reported and archived, exactly as a map
// entry would be.
type Dataset struct {
	mu sync.Mutex

	totalBytes float64

	// locality[clusterType][locality] accumulates bytes for Table 3;
	// byClusterType accumulates bytes for Table 3's share row.
	locality         [numClusterTypes][numLocalities]float64
	localitySet      [numClusterTypes][numLocalities]bool
	byClusterType    [numClusterTypes]float64
	byClusterTypeSet [numClusterTypes]bool
	// rackPair accumulates the Figure 5a/5b matrices as one compact row
	// per source rack (rows.go), indexed by source rack: MergePartial
	// copies or extends a row without hashing, and RackMatrix reads only
	// the rows of the cluster it is asked for.
	rackPair []rackRow
	// clusterPair accumulates the Figure 5c matrix (src<<32 | dst).
	clusterPair openhash.Table[float64]
	// perMinute accumulates fleet bytes per capture minute (diurnal).
	perMinute openhash.Table[float64]
	// hostOut / rackCross / clusterCross feed §4.1 tier utilization:
	// bytes leaving each host, each rack, and each cluster.
	hostOut, rackCross, clusterCross IDVec

	// card holds merged distinct-population sketches when the partials
	// that built this dataset had cardinality enabled; nil otherwise.
	card *Cardinality

	// pos is MergePartial's dense position index over destination racks,
	// all zero between merges (see mergeRow).
	pos []int32
}

// NewDataset returns an empty Dataset.
func NewDataset() *Dataset { return &Dataset{} }

// IDVec is a dense ID-indexed byte aggregate (per host, rack, or
// cluster) with presence bits: the columnar stand-in for a map keyed by
// small non-negative IDs. The zero value is empty. A view returned by a
// Dataset accessor aliases the dataset's storage, so read it only once
// merging into that dataset is done.
type IDVec struct {
	v   []float64
	set []uint64 // presence bit per ID
}

// add folds b into id's sum, growing the vector by doubling.
func (x *IDVec) add(id int, b float64) {
	if id >= len(x.v) {
		n := max(id+1, 2*len(x.v), 64)
		v := make([]float64, n)
		copy(v, x.v)
		set := make([]uint64, (n+63)/64)
		copy(set, x.set)
		x.v, x.set = v, set
	}
	x.v[id] += b
	x.set[id>>6] |= 1 << (id & 63)
}

// At returns id's byte sum and whether any record touched it.
func (x IDVec) At(id int) (float64, bool) {
	if id < 0 || id >= len(x.v) || x.set[id>>6]&(1<<(id&63)) == 0 {
		return 0, false
	}
	return x.v[id], true
}

// forEach calls f for every present ID in ascending order, skipping
// empty 64-ID words.
func (x *IDVec) forEach(f func(id int, b float64)) {
	for w, word := range x.set {
		for ; word != 0; word &= word - 1 {
			id := w<<6 | bits.TrailingZeros64(word)
			f(id, x.v[id])
		}
	}
}

// The add path. MergePartial folds a partial's per-key sums through
// these, one function per aggregate.

func (d *Dataset) addLocality(ct, l int, b float64) {
	d.locality[ct][l] += b
	d.localitySet[ct][l] = true
}

func (d *Dataset) addClusterType(ct int, b float64) {
	d.byClusterType[ct] += b
	d.byClusterTypeSet[ct] = true
}

// Cardinality returns the merged distinct-population sketches, or nil
// when the collection ran without them (exact mode).
func (d *Dataset) Cardinality() *Cardinality {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.card
}

// TotalBytes returns the estimated fleet-wide bytes ingested.
func (d *Dataset) TotalBytes() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.totalBytes
}

// LocalityShare returns, for one cluster type, the fraction of its
// traffic per locality tier — one column of Table 3.
func (d *Dataset) LocalityShare(ct topology.ClusterType) map[topology.Locality]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[topology.Locality]float64)
	if int(ct) >= numClusterTypes {
		return out
	}
	total := d.byClusterType[ct]
	if total == 0 {
		return out
	}
	for l, b := range d.locality[ct] {
		if d.localitySet[ct][l] {
			out[topology.Locality(l)] = b / total
		}
	}
	return out
}

// LocalityShareAll returns the fleet-wide locality fractions — Table 3's
// "All" column. Cluster types are folded in declaration order: per-
// locality sums must accumulate in a fixed sequence for the result to be
// bit-identical run-to-run (the determinism contract the parallel
// engine's regression test asserts).
func (d *Dataset) LocalityShareAll() map[topology.Locality]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[topology.Locality]float64)
	if d.totalBytes == 0 {
		return out
	}
	for _, ct := range topology.ClusterTypes {
		for l, b := range d.locality[ct] {
			if d.localitySet[ct][l] {
				out[topology.Locality(l)] += b / d.totalBytes
			}
		}
	}
	return out
}

// TrafficShare returns each cluster type's share of total traffic —
// Table 3's last row.
func (d *Dataset) TrafficShare() map[topology.ClusterType]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[topology.ClusterType]float64)
	if d.totalBytes == 0 {
		return out
	}
	for ct, b := range d.byClusterType {
		if d.byClusterTypeSet[ct] {
			out[topology.ClusterType(ct)] = b / d.totalBytes
		}
	}
	return out
}

// RackMatrix returns the rack-to-rack byte matrix restricted to the racks
// of one cluster, indexed by rack position within the cluster (Fig 5a/b).
// Only that cluster's source rows are read.
func (d *Dataset) RackMatrix(topo *topology.Topology, cluster int) [][]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	racks := topo.Clusters[cluster].Racks
	m := make([][]float64, len(racks))
	for i := range m {
		m[i] = make([]float64, len(racks))
	}
	d.eachClusterRow(racks, func(si int, row []rackCell) {
		for _, c := range row {
			m[si][c.pos] += c.bytes
		}
	})
	return m
}

// RackDiag returns the byte fraction on the diagonal of RackMatrix(topo,
// cluster), 0 when the cluster carries no bytes, without building the
// n² matrix: each source row is scattered into one reused dense row and
// read back through its presence bits. That adds the entries in
// RackMatrix's row-major order (source rows in cluster order, each
// row's columns ascending), and the zeros it skips add nothing, so the
// result is bit-identical to summing the dense matrix.
func (d *Dataset) RackDiag(topo *topology.Topology, cluster int) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	racks := topo.Clusters[cluster].Racks
	row := make([]float64, len(racks))
	set := make([]uint64, (len(racks)+63)/64)
	var diag, total float64
	d.eachClusterRow(racks, func(si int, cells []rackCell) {
		for _, c := range cells {
			row[c.pos] += c.bytes
			set[c.pos>>6] |= 1 << (c.pos & 63)
		}
		for w, word := range set {
			for ; word != 0; word &= word - 1 {
				di := w<<6 | bits.TrailingZeros64(word)
				total += row[di]
				if di == si {
					diag += row[di]
				}
				row[di] = 0
			}
			set[w] = 0
		}
	})
	if total == 0 {
		return 0
	}
	return diag / total
}

// rackCell is one entry of a cluster's rack matrix row: the destination
// rack's position in the cluster and the bytes sent to it.
type rackCell struct {
	pos   int32
	bytes float64
}

// eachClusterRow calls f for every source rack of racks (one cluster's,
// in cluster order) that has a row, with its position si and the row's
// destinations inside the cluster, in insertion order. The row slice is
// reused across calls.
func (d *Dataset) eachClusterRow(racks []int, f func(si int, row []rackCell)) {
	if len(racks) == 0 {
		return
	}
	lo, hi := racks[0], racks[0]
	for _, r := range racks {
		lo, hi = min(lo, r), max(hi, r)
	}
	// pos[r-lo] is rack r's position in the cluster, -1 for racks of
	// other clusters inside the [lo, hi] span.
	pos := make([]int32, hi-lo+1)
	for i := range pos {
		pos[i] = -1
	}
	for i, r := range racks {
		pos[r-lo] = int32(i)
	}
	var row []rackCell
	for si, r := range racks {
		if r >= len(d.rackPair) {
			continue
		}
		src := &d.rackPair[r]
		row = row[:0]
		for j, dst := range src.dst {
			if int(dst) < lo || int(dst) > hi {
				continue
			}
			if di := pos[int(dst)-lo]; di >= 0 {
				row = append(row, rackCell{di, src.val[j]})
			}
		}
		f(si, row)
	}
}

// ClusterMatrix returns the cluster-to-cluster byte matrix over the given
// clusters (Fig 5c).
func (d *Dataset) ClusterMatrix(clusters []int) [][]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	pos := make(map[int]int, len(clusters))
	for i, c := range clusters {
		pos[c] = i
	}
	m := make([][]float64, len(clusters))
	for i := range m {
		m[i] = make([]float64, len(clusters))
	}
	for i := 0; i < d.clusterPair.Len(); i++ {
		src, dst := unpackPair(d.clusterPair.Key(i))
		si, ok1 := pos[src]
		di, ok2 := pos[dst]
		if ok1 && ok2 {
			m[si][di] += *d.clusterPair.Val(i)
		}
	}
	return m
}

// PerMinute returns the fleet byte series by capture minute.
func (d *Dataset) PerMinute() map[int64]float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[int64]float64, d.perMinute.Len())
	for i := 0; i < d.perMinute.Len(); i++ {
		out[int64(d.perMinute.Key(i))] = *d.perMinute.Val(i)
	}
	return out
}

// HostOut returns bytes sent per host (edge-link accounting), indexed by
// HostID.
func (d *Dataset) HostOut() IDVec {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hostOut
}

// RackCross returns bytes leaving each rack (RSW uplink accounting).
func (d *Dataset) RackCross() IDVec {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rackCross
}

// ClusterCross returns bytes leaving each cluster (CSW uplink
// accounting).
func (d *Dataset) ClusterCross() IDVec {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.clusterCross
}
