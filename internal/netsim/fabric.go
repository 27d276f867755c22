package netsim

import (
	"fmt"

	"fbdcnet/internal/packet"
	"fbdcnet/internal/telemetry"
	"fbdcnet/internal/topology"
)

// Tier names a layer of links in the fabric for utilization reporting
// (§4.1 reports per-tier utilization distributions).
type Tier int

// Fabric link tiers, edge outward.
const (
	TierHostRSW Tier = iota // access links: host NIC → top-of-rack switch
	TierRSWCSW              // rack uplinks: RSW → cluster switch
	TierCSWFC               // cluster uplinks: CSW → Fat Cat
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierHostRSW:
		return "Host-RSW"
	case TierRSWCSW:
		return "RSW-CSW"
	case TierCSWFC:
		return "CSW-FC"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// FabricConfig sets link rates, buffer sizes, and propagation delays for
// a built fabric. Defaults follow §3.1: 10-Gbps edge and rack uplinks,
// 40-Gbps aggregation.
type FabricConfig struct {
	HostLinkBps int64 // host NIC and RSW-to-host ports
	RSWUpBps    int64 // RSW ↔ CSW
	CSWUpBps    int64 // CSW ↔ FC
	CoreBps     int64 // FC ↔ DC router ↔ site agg ↔ backbone

	RSWBufBytes  int64 // shared buffer in each top-of-rack switch
	CSWBufBytes  int64
	CoreBufBytes int64

	WireDelay      Time // per-hop delay within a datacenter
	InterDCDelay   Time // DC router ↔ site aggregator
	InterSiteDelay Time // site aggregator ↔ backbone
}

// DefaultFabricConfig returns production-flavored defaults: 10G edge,
// shallow (a few MB) shared ToR buffers — the combination behind §6.3's
// high occupancy at ~1% utilization.
func DefaultFabricConfig() FabricConfig {
	return FabricConfig{
		HostLinkBps:    10_000_000_000,
		RSWUpBps:       10_000_000_000,
		CSWUpBps:       40_000_000_000,
		CoreBps:        100_000_000_000,
		RSWBufBytes:    4 << 20,
		CSWBufBytes:    16 << 20,
		CoreBufBytes:   64 << 20,
		WireDelay:      2 * Microsecond,
		InterDCDelay:   50 * Microsecond,
		InterSiteDelay: 5 * Millisecond,
	}
}

const postsPerCluster = 4 // the "4-post" in the cluster design

// Fabric is a fully wired 4-post Clos instance over a Topology. Create
// with NewFabric, drive with Inject, advance with the Engine.
type Fabric struct {
	Eng  *Engine
	Topo *topology.Topology
	Cfg  FabricConfig

	rsws  []*Switch   // per rack
	csws  [][]*Switch // per cluster, postsPerCluster each
	fcs   [][]*Switch // per datacenter, postsPerCluster each
	dcrs  []*Switch   // per datacenter
	aggs  []*Switch   // per site
	bb    *Switch     // global backbone
	sinks []*Sink     // per host

	hostUp       []*Link // per host access link (edge accounting)
	hostPort     []int   // port index on the host's RSW leading to it
	rswUpPort    [][]int // [rack][post] port on RSW toward CSW
	cswDownPort  [][][]int
	cswUpPort    [][]int // [cluster][post] port toward FC
	fcDownPort   [][][]int
	fcUpPort     [][]int // [dc][post] port toward DC router
	dcrDownPort  [][]int // [dc][post] port toward FC
	dcrUpPort    []int   // [dc] port toward site agg
	aggDownPort  [][]int // [site][dcPos] toward DCR
	aggUpPort    []int   // [site] toward backbone
	bbDownPort   []int   // [site] toward agg
	rackPosInCl  []int   // rack ID → position within its cluster
	clPosInDC    []int   // cluster ID → position within its datacenter
	dcPosInSite  []int   // dc ID → position within its site
	injectedPkts int64

	// Fault-injection state (see faults.go). The *Down arrays mirror the
	// switches' and ports' down flags so ECMP viability checks are O(1)
	// array reads on the injection hot path.
	rswDown      []bool
	cswDown      [][]bool // [cluster][post]
	fcDown       [][]bool // [dc][post]
	uplinkDown   [][]bool // [rack][post]
	hostLinkDown []bool   // per host access link
	faultsActive int
	faults       FaultStats
	faultElems   []topology.Element // elements named by fault events
	retries      []packet.Header    // headers awaiting retransmission, by slot
	freeRetries  []int32            // free slots of retries
	// telem, when attached, samples flows for in-band path records and
	// receives the per-port occupancy series (see AttachTelemetry).
	telem *telemetry.Sink
	// DisableReroute turns off ECMP re-hashing around dead paths: packets
	// keep their hash-preferred post even when it is down, so they drop
	// and retransmit into the same dead path. This is the ablation arm
	// that shows what the 4-post redundancy buys.
	DisableReroute bool
}

// NewFabric builds and wires the full switch graph for topo. It installs
// the fabric's event handler (fault transitions, retransmissions) on eng,
// and Inject as its header handler, so eng serves this fabric alone.
func NewFabric(eng *Engine, topo *topology.Topology, cfg FabricConfig) *Fabric {
	f := &Fabric{Eng: eng, Topo: topo, Cfg: cfg}
	nRacks, nClusters, nDCs, nSites := len(topo.Racks), len(topo.Clusters), len(topo.Datacenters), len(topo.Sites)

	f.sinks = make([]*Sink, topo.NumHosts())
	f.hostUp = make([]*Link, topo.NumHosts())
	f.hostPort = make([]int, topo.NumHosts())
	for i := range f.sinks {
		f.sinks[i] = NewSink(fmt.Sprintf("host%d", i))
		f.sinks[i].eng = eng
		f.hostUp[i] = &Link{RateBps: cfg.HostLinkBps, Delay: cfg.WireDelay}
	}

	f.rackPosInCl = make([]int, nRacks)
	f.clPosInDC = make([]int, nClusters)
	f.dcPosInSite = make([]int, nDCs)
	for _, cl := range topo.Clusters {
		for pos, r := range cl.Racks {
			f.rackPosInCl[r] = pos
		}
	}
	for _, dc := range topo.Datacenters {
		for pos, c := range dc.Clusters {
			f.clPosInDC[c] = pos
		}
	}
	for _, s := range topo.Sites {
		for pos, d := range s.Datacenters {
			f.dcPosInSite[d] = pos
		}
	}

	// Rack switches with host-facing ports.
	f.rsws = make([]*Switch, nRacks)
	f.rswUpPort = make([][]int, nRacks)
	for ri, rack := range topo.Racks {
		sw := NewSwitch(eng, fmt.Sprintf("rsw%d", ri), cfg.RSWBufBytes)
		for i := 0; i < int(rack.NumHosts); i++ {
			h := rack.Host(i)
			f.hostPort[h] = sw.AddPort(&Link{RateBps: cfg.HostLinkBps, Delay: cfg.WireDelay}, f.sinks[h])
		}
		f.rsws[ri] = sw
		f.rswUpPort[ri] = make([]int, postsPerCluster)
	}

	// Cluster switches; wire RSW ↔ CSW.
	f.csws = make([][]*Switch, nClusters)
	f.cswDownPort = make([][][]int, nClusters)
	f.cswUpPort = make([][]int, nClusters)
	for ci, cl := range topo.Clusters {
		f.csws[ci] = make([]*Switch, postsPerCluster)
		f.cswDownPort[ci] = make([][]int, postsPerCluster)
		f.cswUpPort[ci] = make([]int, postsPerCluster)
		for p := 0; p < postsPerCluster; p++ {
			sw := NewSwitch(eng, fmt.Sprintf("csw%d.%d", ci, p), cfg.CSWBufBytes)
			f.csws[ci][p] = sw
			f.cswDownPort[ci][p] = make([]int, len(cl.Racks))
			for pos, r := range cl.Racks {
				f.rswUpPort[r][p] = f.rsws[r].AddPort(&Link{RateBps: cfg.RSWUpBps, Delay: cfg.WireDelay}, sw)
				f.cswDownPort[ci][p][pos] = sw.AddPort(&Link{RateBps: cfg.RSWUpBps, Delay: cfg.WireDelay}, f.rsws[r])
			}
		}
	}

	// Fat Cats per datacenter; wire CSW ↔ FC, FC ↔ DCR.
	f.fcs = make([][]*Switch, nDCs)
	f.fcDownPort = make([][][]int, nDCs)
	f.fcUpPort = make([][]int, nDCs)
	f.dcrs = make([]*Switch, nDCs)
	f.dcrDownPort = make([][]int, nDCs)
	f.dcrUpPort = make([]int, nDCs)
	for di, dc := range topo.Datacenters {
		f.dcrs[di] = NewSwitch(eng, fmt.Sprintf("dcr%d", di), cfg.CoreBufBytes)
		f.fcs[di] = make([]*Switch, postsPerCluster)
		f.fcDownPort[di] = make([][]int, postsPerCluster)
		f.fcUpPort[di] = make([]int, postsPerCluster)
		f.dcrDownPort[di] = make([]int, postsPerCluster)
		for p := 0; p < postsPerCluster; p++ {
			sw := NewSwitch(eng, fmt.Sprintf("fc%d.%d", di, p), cfg.CSWBufBytes)
			f.fcs[di][p] = sw
			f.fcDownPort[di][p] = make([]int, len(dc.Clusters))
			for pos, c := range dc.Clusters {
				f.cswUpPort[c][p] = f.csws[c][p].AddPort(&Link{RateBps: cfg.CSWUpBps, Delay: cfg.WireDelay}, sw)
				f.fcDownPort[di][p][pos] = sw.AddPort(&Link{RateBps: cfg.CSWUpBps, Delay: cfg.WireDelay}, f.csws[c][p])
			}
			f.fcUpPort[di][p] = sw.AddPort(&Link{RateBps: cfg.CoreBps, Delay: cfg.WireDelay}, f.dcrs[di])
			f.dcrDownPort[di][p] = f.dcrs[di].AddPort(&Link{RateBps: cfg.CoreBps, Delay: cfg.WireDelay}, sw)
		}
	}

	// Site aggregators and the backbone.
	f.aggs = make([]*Switch, nSites)
	f.aggDownPort = make([][]int, nSites)
	f.aggUpPort = make([]int, nSites)
	f.bb = NewSwitch(eng, "backbone", cfg.CoreBufBytes)
	f.bbDownPort = make([]int, nSites)
	for si, site := range topo.Sites {
		agg := NewSwitch(eng, fmt.Sprintf("agg%d", si), cfg.CoreBufBytes)
		f.aggs[si] = agg
		f.aggDownPort[si] = make([]int, len(site.Datacenters))
		for pos, d := range site.Datacenters {
			f.dcrUpPort[d] = f.dcrs[d].AddPort(&Link{RateBps: cfg.CoreBps, Delay: cfg.InterDCDelay}, agg)
			f.aggDownPort[si][pos] = agg.AddPort(&Link{RateBps: cfg.CoreBps, Delay: cfg.InterDCDelay}, f.dcrs[d])
		}
		f.aggUpPort[si] = agg.AddPort(&Link{RateBps: cfg.CoreBps, Delay: cfg.InterSiteDelay}, f.bb)
		f.bbDownPort[si] = f.bb.AddPort(&Link{RateBps: cfg.CoreBps, Delay: cfg.InterSiteDelay}, agg)
	}

	// Fault state and the retransmission hook on every switch.
	f.rswDown = make([]bool, nRacks)
	f.uplinkDown = make([][]bool, nRacks)
	for i := range f.uplinkDown {
		f.uplinkDown[i] = make([]bool, postsPerCluster)
	}
	f.cswDown = make([][]bool, nClusters)
	for i := range f.cswDown {
		f.cswDown[i] = make([]bool, postsPerCluster)
	}
	f.fcDown = make([][]bool, nDCs)
	for i := range f.fcDown {
		f.fcDown[i] = make([]bool, postsPerCluster)
	}
	f.hostLinkDown = make([]bool, topo.NumHosts())
	for _, sw := range f.allSwitches() {
		sw.OnFaultDrop = f.handleFaultDrop
	}
	eng.SetEventHandler(f.handle)
	eng.SetHeaderHandler(f.Inject)
	return f
}

// allSwitches iterates every switch in the fabric, edge outward.
func (f *Fabric) allSwitches() []*Switch {
	out := append([]*Switch(nil), f.rsws...)
	for _, post := range f.csws {
		out = append(out, post...)
	}
	for _, post := range f.fcs {
		out = append(out, post...)
	}
	out = append(out, f.dcrs...)
	out = append(out, f.aggs...)
	out = append(out, f.bb)
	return out
}

// AttachTelemetry wires an in-band telemetry sink into the fabric:
// every switch registers its identity (in a fixed edge-outward order, so
// IDs are stable across runs and across the per-window fabrics of one
// experiment), host sinks finalize records at delivery, and Inject opens
// a record for each sampled flow's packets. Attach before injecting any
// traffic; a fabric without telemetry pays only nil checks.
func (f *Fabric) AttachTelemetry(ts *telemetry.Sink) {
	f.telem = ts
	for _, sw := range f.rsws {
		sw.setTelemetry(ts, telemetry.TierRSW)
	}
	for _, post := range f.csws {
		for _, sw := range post {
			sw.setTelemetry(ts, telemetry.TierCSW)
		}
	}
	for _, post := range f.fcs {
		for _, sw := range post {
			sw.setTelemetry(ts, telemetry.TierFC)
		}
	}
	for _, sw := range f.dcrs {
		sw.setTelemetry(ts, telemetry.TierDCR)
	}
	for _, sw := range f.aggs {
		sw.setTelemetry(ts, telemetry.TierAGG)
	}
	f.bb.setTelemetry(ts, telemetry.TierBB)
	for _, sk := range f.sinks {
		sk.Telem = ts
	}
}

// StartQueueSampling schedules fixed-interval reads of every switch
// port's queued bytes into the attached telemetry sink's pooled columnar
// buffers, from one interval after the current time until the given
// horizon. No-op without an attached sink or with a non-positive
// interval.
func (f *Fabric) StartQueueSampling(interval, until Time) {
	if f.telem == nil || interval <= 0 {
		return
	}
	for _, sw := range f.allSwitches() {
		os := f.telem.NewOccSeries(sw.telemID, len(sw.ports))
		f.Eng.every(interval, until, func() {
			row := os.Extend(int64(f.Eng.Now()))
			for pi, pt := range sw.ports {
				row[pi] = pt.queued
			}
		})
	}
}

// Sink returns the receiving endpoint for host h.
func (f *Fabric) Sink(h topology.HostID) *Sink { return f.sinks[h] }

// RSW returns the top-of-rack switch of rack r.
func (f *Fabric) RSW(r int) *Switch { return f.rsws[r] }

// RSWOfHost returns the top-of-rack switch serving host h.
func (f *Fabric) RSWOfHost(h topology.HostID) *Switch {
	return f.rsws[f.Topo.HostRack(h)]
}

// Injected returns the number of packets injected so far.
func (f *Fabric) Injected() int64 { return f.injectedPkts }

// FabricStats is a point-in-time aggregate of the fabric's switch
// counters, taken for observability. Collecting it walks every switch,
// so it is meant for end-of-run folding, not per-packet paths.
type FabricStats struct {
	Injected   int64 // packets injected at hosts
	Enqueues   int64 // packets accepted into switch buffers (all hops)
	Forwarded  int64 // packets transmitted from switch egresses
	Drops      int64 // packets lost to buffer exhaustion
	FaultDrops int64 // packets lost to down switches or links
}

// Stats aggregates counters across every switch in the fabric.
func (f *Fabric) Stats() FabricStats {
	st := FabricStats{Injected: f.injectedPkts}
	for _, sw := range f.allSwitches() {
		st.Enqueues += sw.Enqueues()
		st.Forwarded += sw.Forwarded()
		st.Drops += sw.Drops()
		st.FaultDrops += sw.FaultDrops()
	}
	return st
}

// Inject routes one packet from its source host into the fabric at the
// current engine time, following the ECMP path selected by the flow hash.
// Packets addressed to the sending host itself are ignored (loopback).
// When faults are active the hash is re-applied over the surviving posts
// (unless DisableReroute); a packet with no live path is held back and
// retransmitted on the fault layer's RTO schedule.
func (f *Fabric) Inject(hdr packet.Header) { f.inject(hdr, 0) }

// InjectSorted schedules the injection of every header of hdrs at its
// timestamp plus offset, with offset added to the injected header's
// Time: the same events, in the same order and with the same sequence
// numbers, as calling Eng.At(h.Time, func() { f.Inject(h) }) for each
// shifted header in turn, but without a closure per header: one typed
// run holding a reserved block of len(hdrs) sequence numbers. hdrs must
// be sorted by Time. It is read, never written, while the engine runs,
// so the caller may reuse it for another fabric. InjectStreams injects
// several sorted streams without merging them.
func (f *Fabric) InjectSorted(hdrs []packet.Header, offset Time) {
	f.Eng.atSorted(hdrs, offset)
}

// InjectStreams injects several time-sorted streams, one InjectSorted
// run each, in slice order. Back-to-back calls reserve contiguous
// sequence blocks, so same-time headers of different streams run in
// stream order: the dispatch order of InjectSorted over the streams'
// concatenation after a stable sort by Time, without building or
// sorting that slice. That holds only when no header is clamped to the
// engine's current time (clamped headers would tie in stream order, not
// in sorted order), so InjectStreams panics if a stream's first header
// plus offset is earlier than Eng.Now().
func (f *Fabric) InjectStreams(streams [][]packet.Header, offset Time) {
	for _, hdrs := range streams {
		if len(hdrs) > 0 && hdrs[0].Time+offset < f.Eng.Now() {
			panic("netsim: injected stream starts before the engine's current time")
		}
	}
	for _, hdrs := range streams {
		f.InjectSorted(hdrs, offset)
	}
}

// inject is Inject plus the delivery-attempt count used by the
// retransmission budget.
func (f *Fabric) inject(hdr packet.Header, tries uint8) {
	srcID, srcOK := f.Topo.HostByAddr(hdr.Key.Src)
	dstID, dstOK := f.Topo.HostByAddr(hdr.Key.Dst)
	if !srcOK || !dstOK {
		panic(fmt.Sprintf("netsim: inject with unknown host: %v", hdr.Key))
	}
	if srcID == dstID {
		return
	}
	src, dst := f.Topo.Host(srcID), f.Topo.Host(dstID)
	if tries == 0 {
		f.injectedPkts++
	}

	hash := hdr.Key.FastHash()
	post := int(hash % postsPerCluster)
	rs, rd := src.Rack, dst.Rack
	cs, cd := src.Cluster, dst.Cluster
	ds, dd := src.Datacenter, dst.Datacenter
	ss, sd := src.Site, dst.Site
	rerouted := false

	if f.faultsActive > 0 {
		// A dead source access link or source RSW blocks transmission
		// outright — there is no alternate first hop to re-hash onto.
		if f.hostLinkDown[src.ID] || f.rswDown[rs] {
			f.faults.FaultDrops++
			f.telemDeadEnd(hdr, tries)
			f.scheduleRetry(hdr, tries)
			return
		}
		if !f.DisableReroute {
			// Destination-side dead ends are equally post-independent.
			if f.rswDown[rd] || f.hostLinkDown[dst.ID] {
				f.faults.FaultDrops++
				f.telemDeadEnd(hdr, tries)
				f.scheduleRetry(hdr, tries)
				return
			}
			if rs != rd {
				chosen := f.pickPost(hash, rs, rd, cs, cd, ds, dd)
				if chosen < 0 {
					f.faults.FaultDrops++
					f.telemDeadEnd(hdr, tries)
					f.scheduleRetry(hdr, tries)
					return
				}
				if chosen != post {
					f.faults.ReroutedPkts++
					f.faults.ReroutedBytes += int64(hdr.Size)
					rerouted = true
				}
				post = chosen
			}
		}
	}

	f.hostUp[src.ID].bytesTx += int64(hdr.Size)
	p := f.Eng.newPacket()
	p.Hdr, p.Tries = hdr, tries
	if f.telem != nil && f.telem.Sampled(hdr.Key) {
		p.Rec = f.telem.Start(hdr.Key, hdr.Size, tries, uint8(post), rerouted, int64(f.Eng.Now()))
	}

	switch {
	case rs == rd:
		p.addHop(f.rsws[rs], f.hostPort[dst.ID])
	case cs == cd:
		p.addHop(f.rsws[rs], f.rswUpPort[rs][post])
		p.addHop(f.csws[cs][post], f.cswDownPort[cs][post][f.rackPosInCl[rd]])
		p.addHop(f.rsws[rd], f.hostPort[dst.ID])
	case ds == dd:
		p.addHop(f.rsws[rs], f.rswUpPort[rs][post])
		p.addHop(f.csws[cs][post], f.cswUpPort[cs][post])
		p.addHop(f.fcs[ds][post], f.fcDownPort[ds][post][f.clPosInDC[cd]])
		p.addHop(f.csws[cd][post], f.cswDownPort[cd][post][f.rackPosInCl[rd]])
		p.addHop(f.rsws[rd], f.hostPort[dst.ID])
	default:
		p.addHop(f.rsws[rs], f.rswUpPort[rs][post])
		p.addHop(f.csws[cs][post], f.cswUpPort[cs][post])
		p.addHop(f.fcs[ds][post], f.fcUpPort[ds][post])
		p.addHop(f.dcrs[ds], f.dcrUpPort[ds])
		if ss != sd {
			p.addHop(f.aggs[ss], f.aggUpPort[ss])
			p.addHop(f.bb, f.bbDownPort[sd])
		}
		p.addHop(f.aggs[sd], f.aggDownPort[sd][f.dcPosInSite[dd]])
		p.addHop(f.dcrs[dd], f.dcrDownPort[dd][post])
		p.addHop(f.fcs[dd][post], f.fcDownPort[dd][post][f.clPosInDC[cd]])
		p.addHop(f.csws[cd][post], f.cswDownPort[cd][post][f.rackPosInCl[rd]])
		p.addHop(f.rsws[rd], f.hostPort[dst.ID])
	}
	deliver(nil, p, 0) // to the first hop, the source RSW
}

// telemDeadEnd records a sampled packet lost to a fault dead end at
// injection: no live ECMP path exists, so no hop ever sees the packet.
func (f *Fabric) telemDeadEnd(hdr packet.Header, tries uint8) {
	if f.telem != nil && f.telem.Sampled(hdr.Key) {
		f.telem.Drop(hdr.Key, hdr.Size, tries, telemetry.ReasonNoLivePath, int64(f.Eng.Now()))
	}
}

// pickPost returns the ECMP post for a non-intra-rack path under faults:
// the flow hash applied over the posts whose full path (uplinks, CSWs,
// FCs on both sides as the locality requires) is alive, or -1 when no
// post survives. With all four posts alive it returns hash % 4, i.e. the
// fault-free choice — rerouting only ever moves traffic off dead paths.
func (f *Fabric) pickPost(hash uint64, rs, rd, cs, cd, ds, dd int) int {
	var viable [postsPerCluster]int
	n := 0
	for p := 0; p < postsPerCluster; p++ {
		ok := !f.uplinkDown[rs][p] && !f.cswDown[cs][p]
		if ok && cs != cd {
			ok = !f.fcDown[ds][p] && !f.cswDown[cd][p]
			if ok && ds != dd {
				ok = !f.fcDown[dd][p]
			}
		}
		if ok {
			ok = !f.uplinkDown[rd][p]
		}
		if ok {
			viable[n] = p
			n++
		}
	}
	if n == 0 {
		return -1
	}
	return viable[hash%uint64(n)]
}

// LinksByTier returns all links in the given tier for utilization
// reporting. TierHostRSW returns host uplinks (outbound edge traffic);
// TierRSWCSW and TierCSWFC return the uplink direction of those layers.
func (f *Fabric) LinksByTier(t Tier) []*Link {
	var out []*Link
	switch t {
	case TierHostRSW:
		out = append(out, f.hostUp...)
	case TierRSWCSW:
		for ri := range f.rsws {
			for p := 0; p < postsPerCluster; p++ {
				out = append(out, f.rsws[ri].Port(f.rswUpPort[ri][p]).Link)
			}
		}
	case TierCSWFC:
		for ci := range f.csws {
			for p := 0; p < postsPerCluster; p++ {
				out = append(out, f.csws[ci][p].Port(f.cswUpPort[ci][p]).Link)
			}
		}
	}
	return out
}

// SampleOccupancy schedules periodic reads of sw's shared-buffer
// occupancy every interval until the given time, invoking fn with each
// (time, occupiedBytes) sample — the §6.3 collection at 10 µs
// granularity.
func SampleOccupancy(eng *Engine, sw *Switch, interval, until Time, fn func(t Time, occ int64)) {
	eng.every(interval, until, func() { fn(eng.Now(), sw.Occupancy()) })
}
