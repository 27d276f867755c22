// Package fbflow reproduces the fleet-wide monitoring pipeline of §3.3.1:
// per-machine agents sample packet headers (production rate 1:30,000), a
// Scribe-like stream carries them to tagger processes that annotate each
// sample with topology metadata (rack, cluster, datacenter, role), and the
// annotated records land in an aggregation store queried at per-minute
// granularity — the source of Table 3, Figure 5, and the utilization
// numbers of §4.1.
//
// Two ingestion paths produce identical records:
//
//   - Agent: true packet sampling, used when packet streams exist (and to
//     validate the sampling math).
//   - Pipeline.AddFlow: flow-granularity ingestion for day-long fleet
//     experiments, where generating every packet only to discard 29,999
//     of every 30,000 would be waste.
package fbflow

import (
	"sync"

	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
)

// sample is what an agent ships into the stream: a raw header plus
// capture metadata, before tagging.
type sample struct {
	minute int64
	hdr    packet.Header
	weight float64 // inverse sampling probability, in packets
}

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
// of Figure 3, factored out of Pipeline so callers can tag inline. The
// parallel fleet engine runs one logical tagger per shard worker and tags
// synchronously, which keeps record order (and hence float accumulation
// order) deterministic; the streaming Pipeline path wraps the same logic
// in goroutines. A Tagger is stateless and safe for concurrent use.
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

// Pipeline wires agents through the tagging stage into a sink. Taggers
// run concurrently, as in production; Close drains them.
type Pipeline struct {
	tagger *Tagger
	in     chan sample
	wg     sync.WaitGroup
}

// NewPipeline starts taggers goroutines annotating samples and delivering
// records to sink, which must be safe for concurrent use.
func NewPipeline(topo *topology.Topology, taggers int, sink func(Record)) *Pipeline {
	if taggers <= 0 {
		taggers = 1
	}
	p := &Pipeline{tagger: NewTagger(topo), in: make(chan sample, 4096)}
	for i := 0; i < taggers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for s := range p.in {
				if r, ok := p.tagger.Header(s.minute, s.hdr, s.weight); ok {
					sink(r)
				}
			}
		}()
	}
	return p
}

// AddFlow ingests one flow-granularity observation directly (the fast
// path): bytes from src to dst during the given capture minute.
func (p *Pipeline) AddFlow(minute int64, src, dst packet.Addr, bytes float64) {
	p.in <- sample{
		minute: minute,
		hdr:    packet.Header{Key: packet.FlowKey{Src: src, Dst: dst}, Size: 1},
		weight: bytes, // Size 1 × weight bytes = bytes; packets approximate
	}
}

// Close stops ingestion and waits for taggers to drain.
func (p *Pipeline) Close() {
	close(p.in)
	p.wg.Wait()
}

// Agent samples a host's packet stream at 1:rate and ships samples into
// the pipeline. It implements the workload Collector interface. Each
// agent has its own deterministic sampling source.
type Agent struct {
	p      *Pipeline
	rate   uint64
	left   uint64
	r      *rng.Source
	minute func() int64
}

// NewAgent creates an agent sampling at 1:rate; minute supplies the
// current capture minute (production tags with wall-clock capture time).
func NewAgent(p *Pipeline, rate uint64, seed uint64, minute func() int64) *Agent {
	if rate == 0 {
		rate = 1
	}
	a := &Agent{p: p, rate: rate, r: rng.New(seed), minute: minute}
	a.left = a.r.Uint64n(rate) + 1
	return a
}

// Packet implements the collector interface: count-based sampling with a
// random phase, statistically equivalent to per-packet Bernoulli at the
// same rate but cheaper — exactly the nflog configuration.
func (a *Agent) Packet(h packet.Header) {
	a.left--
	if a.left > 0 {
		return
	}
	a.left = a.rate
	a.p.in <- sample{minute: a.minute(), hdr: h, weight: float64(a.rate)}
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
