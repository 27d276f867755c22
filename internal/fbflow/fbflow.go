// Package fbflow reproduces the fleet-wide monitoring pipeline of §3.3.1:
// per-machine agents sample packet headers (production rate 1:30,000),
// taggers annotate each sample with topology metadata (rack, cluster,
// datacenter, role), and the annotated records are summed in an
// aggregation store queried at per-minute granularity — the source of
// Table 3, Figure 5, and the utilization numbers of §4.1.
//
// Records reach a Dataset by one path: a Tagger annotates each
// observation, Partial.Add folds the record into a single-goroutine
// accumulator, and Dataset.MergePartial folds the partials in a fixed
// order. Observations come in two granularities:
//
//   - Agent: true packet sampling of a host's header stream, used when
//     packet streams exist (and to validate the sampling math).
//   - Tagger.Flow: flow-granularity observations for day-long fleet
//     experiments, where generating every packet only to discard 29,999
//     of every 30,000 would be waste.
package fbflow

import (
	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
)

// Record is one tagged sample: the unit stored for analysis. Rack,
// cluster and datacenter IDs are int32 (Load caps rack IDs below 2^17 and
// cluster IDs below 2^12), which keeps the record at 64 bytes: the fleet
// collector copies one per sampled flow.
type Record struct {
	Minute                 int64
	Src, Dst               topology.HostID
	SrcRack, DstRack       int32
	SrcCluster, DstCluster int32
	SrcDC, DstDC           int32
	SrcRole, DstRole       topology.Role
	SrcClusterType         topology.ClusterType
	Locality               topology.Locality
	Bytes                  float64 // estimated on-wire bytes (weight applied)
	Packets                float64 // estimated packets
}

// FoldAudit folds the record's canonical content into a determinism
// checkpoint hash: the identifying coordinates plus the estimated
// volumes, enough that any divergence in sampling, tagging, or
// accumulation order flips the cell's sum. The derived topology fields
// (rack, cluster, DC, roles) are pure functions of Src/Dst and fold
// implicitly through them. No-op on a nil hash — the audit-off fast
// path of the fleet emit loop.
func (r *Record) FoldAudit(h *audit.Hash) {
	if !h.Enabled() {
		return
	}
	h.I64(r.Minute)
	h.U64(uint64(r.Src))
	h.U64(uint64(r.Dst))
	h.U64(uint64(r.Locality))
	h.F64(r.Bytes)
	h.F64(r.Packets)
}

// Tagger annotates observations with topology metadata — the tagger stage
// of Figure 3. Callers tag inline: the parallel fleet engine runs one
// logical tagger per shard worker and tags synchronously, which keeps
// record order (and hence float accumulation order) deterministic. A
// Tagger is stateless and safe for concurrent use.
type Tagger struct {
	topo *topology.Topology
}

// NewTagger returns a tagger over topo.
func NewTagger(topo *topology.Topology) *Tagger { return &Tagger{topo: topo} }

// Header annotates one sampled packet header carrying the given inverse
// sampling weight. It reports false when either endpoint is unknown to
// the topology (the production pipeline drops such samples too).
func (t *Tagger) Header(minute int64, hdr packet.Header, weight float64) (Record, bool) {
	src, ok := t.topo.HostByAddr(hdr.Key.Src)
	if !ok {
		return Record{}, false
	}
	dst, ok := t.topo.HostByAddr(hdr.Key.Dst)
	if !ok {
		return Record{}, false
	}
	// Annotate straight from the columnar topology: two rack-column loads
	// and the rack/cluster element rows, no Host struct materialization.
	topo := t.topo
	srcRack, dstRack := topo.HostRack(src), topo.HostRack(dst)
	sr, dr := &topo.Racks[srcRack], &topo.Racks[dstRack]
	srcDC := topo.Clusters[sr.Cluster].Datacenter
	dstDC := topo.Clusters[dr.Cluster].Datacenter
	loc := topology.InterDatacenter
	switch {
	case src == dst:
		loc = topology.SameHost
	case srcRack == dstRack:
		loc = topology.IntraRack
	case sr.Cluster == dr.Cluster:
		loc = topology.IntraCluster
	case srcDC == dstDC:
		loc = topology.IntraDatacenter
	}
	return Record{
		Minute:         minute,
		Src:            src,
		Dst:            dst,
		SrcRack:        int32(srcRack),
		DstRack:        int32(dstRack),
		SrcCluster:     int32(sr.Cluster),
		DstCluster:     int32(dr.Cluster),
		SrcDC:          int32(srcDC),
		DstDC:          int32(dstDC),
		SrcRole:        sr.Role,
		DstRole:        dr.Role,
		SrcClusterType: topo.Clusters[sr.Cluster].Type,
		Locality:       loc,
		Bytes:          weight * float64(hdr.Size),
		Packets:        weight,
	}, true
}

// Flow annotates one flow-granularity observation: bytes from src to dst
// during the given capture minute.
func (t *Tagger) Flow(minute int64, src, dst packet.Addr, bytes float64) (Record, bool) {
	return t.Header(minute, packet.Header{Key: packet.FlowKey{Src: src, Dst: dst}, Size: 1}, bytes)
}

// Agent samples a host's packet stream at 1:rate, tags each sample
// inline and folds it into a caller-supplied Partial. It implements the
// workload Collector interface. Each agent has its own deterministic
// sampling source.
type Agent struct {
	tagger *Tagger
	into   *Partial
	rate   uint64
	left   uint64
	r      *rng.Source
	minute func() int64
}

// NewAgent creates an agent sampling at 1:rate, tagging with tagger and
// adding the records to into; minute supplies the current capture minute
// (production tags with wall-clock capture time).
func NewAgent(tagger *Tagger, into *Partial, rate uint64, seed uint64, minute func() int64) *Agent {
	if rate == 0 {
		rate = 1
	}
	a := &Agent{tagger: tagger, into: into, rate: rate, r: rng.New(seed), minute: minute}
	a.left = a.r.Uint64n(rate) + 1
	return a
}

// Packet implements the collector interface: count-based sampling with a
// random phase, statistically equivalent to per-packet Bernoulli at the
// same rate but cheaper — exactly the nflog configuration. A sample
// whose endpoints the topology does not know is dropped.
func (a *Agent) Packet(h packet.Header) {
	a.left--
	if a.left > 0 {
		return
	}
	a.left = a.rate
	if r, ok := a.tagger.Header(a.minute(), h, float64(a.rate)); ok {
		a.into.Add(r)
	}
}

// Packets implements the batch collector interface. At production-style
// rates (1:30,000) nearly every batch falls entirely inside the countdown
// gap and is skipped with two integer updates instead of a per-packet
// walk.
func (a *Agent) Packets(hs []packet.Header) {
	n := uint64(len(hs))
	if a.left > n {
		a.left -= n
		return
	}
	for _, h := range hs {
		a.Packet(h)
	}
}
