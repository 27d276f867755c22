// Package analysis implements the paper's measurement analyses as
// streaming consumers of packet-header traces and Fbflow datasets: flow
// assembly and size/duration distributions (§5.1, Figs. 6–9), locality
// breakdowns (§4.2, Fig. 4, Table 3), heavy-hitter dynamics (§5.3,
// Table 4, Figs. 10–11), packet sizes and arrival processes (§6.1–6.2,
// Figs. 12–14), switch buffer statistics (§6.3, Fig. 15), concurrent-flow
// windows (§6.4, Figs. 16–17), and tiered utilization (§4.1).
//
// Consumers implement the same Packet(packet.Header) method as the
// collection layer, so a generator can feed any number of analyses,
// a mirror trace file, and an Fbflow agent in one pass.
package analysis

import (
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/openhash"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/stats"
	"fbdcnet/internal/topology"
)

// Level selects the aggregation granularity of flow-oriented analyses:
// the paper evaluates 5-tuple flows, destination hosts, and destination
// racks (§5.3).
type Level int

// Aggregation levels.
const (
	LevelFlow Level = iota
	LevelHost
	LevelRack
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelFlow:
		return "Flows"
	case LevelHost:
		return "Hosts"
	case LevelRack:
		return "Racks"
	default:
		return "Level?"
	}
}

// Flow is one assembled 5-tuple flow observed at the monitored host.
type Flow struct {
	Key      packet.FlowKey
	Start    netsim.Time
	End      netsim.Time
	Bytes    int64
	Packets  int64
	SawSYN   bool
	Locality topology.Locality
	Outbound bool // first packet left the monitored host
}

// Duration returns the observed flow duration (capped by the capture).
func (f *Flow) Duration() netsim.Time { return f.End - f.Start }

// Flows assembles 5-tuple flows from a monitored host's bidirectional
// trace. Both directions of a connection are merged under the
// host-outbound orientation of the key, matching how the paper reports
// per-flow sizes at a monitored server.
//
// Flow state lives in a dense slab indexed through an open-addressing
// table on packed uint64 keys, so the per-packet hot path does one
// integer-keyed probe and no allocation. Packets whose oriented key
// cannot be packed (a foreign trace where neither address is the
// monitored host, or an address above 2^31) take a spill map, keeping
// the assembler correct on arbitrary input.
type Flows struct {
	topo  *topology.Topology
	host  topology.HostID
	addr  packet.Addr
	idx   openhash.Table[int32] // packed key -> slab index + 1
	slab  []Flow
	spill map[packet.FlowKey]*Flow // unpackable keys; nil until needed
}

// NewFlows creates a flow assembler for the monitored host.
func NewFlows(topo *topology.Topology, host topology.HostID) *Flows {
	return &Flows{
		topo: topo,
		host: host,
		addr: topo.Addr(host),
	}
}

// Packet implements the collector interface.
func (fl *Flows) Packet(h packet.Header) { fl.packet(h) }

// Packets implements the batch collector interface.
func (fl *Flows) Packets(hs []packet.Header) {
	for _, h := range hs {
		fl.packet(h)
	}
}

func (fl *Flows) packet(h packet.Header) {
	key := h.Key
	outbound := key.Src == fl.addr
	if !outbound {
		key = key.Reverse()
	}
	var f *Flow
	if key.Src == fl.addr && canPackAddr(key.Dst) {
		p := fl.idx.Slot(packHostFlowKey(key))
		if *p == 0 {
			fl.slab = append(fl.slab, fl.newFlow(key, h.Time, outbound))
			*p = int32(len(fl.slab))
		}
		f = &fl.slab[*p-1]
	} else {
		f = fl.spill[key]
		if f == nil {
			if fl.spill == nil {
				fl.spill = make(map[packet.FlowKey]*Flow)
			}
			nf := fl.newFlow(key, h.Time, outbound)
			f = &nf
			fl.spill[key] = f
		}
	}
	f.End = h.Time
	f.Bytes += int64(h.Size)
	f.Packets++
	if h.SYN() {
		f.SawSYN = true
	}
}

// newFlow initializes the record for a newly observed oriented key.
func (fl *Flows) newFlow(key packet.FlowKey, t netsim.Time, outbound bool) Flow {
	peer, ok := fl.topo.HostByAddr(key.Dst)
	loc := topology.InterDatacenter
	if ok {
		loc = fl.topo.Locality(fl.host, peer)
	}
	return Flow{Key: key, Start: t, Locality: loc, Outbound: outbound}
}

// each visits every assembled flow: slab flows in first-seen order, then
// any spilled flows.
func (fl *Flows) each(f func(*Flow)) {
	for i := range fl.slab {
		f(&fl.slab[i])
	}
	for _, sp := range fl.spill {
		f(sp)
	}
}

// Count returns the number of distinct flows.
func (fl *Flows) Count() int { return len(fl.slab) + len(fl.spill) }

// SizeCDF returns the flow size distribution in kilobytes, per locality
// tier and overall — Figure 6. Tiers with no flows are omitted.
func (fl *Flows) SizeCDF() (perLocality map[topology.Locality]*stats.Sample, all *stats.Sample) {
	perLocality = make(map[topology.Locality]*stats.Sample)
	all = stats.NewSample(fl.Count())
	fl.each(func(f *Flow) {
		kb := float64(f.Bytes) / 1024
		all.Add(kb)
		s, ok := perLocality[f.Locality]
		if !ok {
			s = stats.NewSample(0)
			perLocality[f.Locality] = s
		}
		s.Add(kb)
	})
	return perLocality, all
}

// DurationCDF returns the flow duration distribution in milliseconds,
// per locality tier and overall — Figure 7.
func (fl *Flows) DurationCDF() (perLocality map[topology.Locality]*stats.Sample, all *stats.Sample) {
	perLocality = make(map[topology.Locality]*stats.Sample)
	all = stats.NewSample(fl.Count())
	fl.each(func(f *Flow) {
		ms := float64(f.Duration()) / float64(netsim.Millisecond)
		all.Add(ms)
		s, ok := perLocality[f.Locality]
		if !ok {
			s = stats.NewSample(0)
			perLocality[f.Locality] = s
		}
		s.Add(ms)
	})
	return perLocality, all
}

// PerHostSizeCDF aggregates flow bytes by destination host and returns
// the per-host total size distribution in kilobytes — Figure 9, where
// load balancing collapses the wide 5-tuple distribution into a tight
// per-host one. The overall distribution and a per-locality split are
// both returned: the tight mode lives in the dominant locality tier
// (intra-cluster for a cache follower).
func (fl *Flows) PerHostSizeCDF() (perLocality map[topology.Locality]*stats.Sample, all *stats.Sample) {
	type hostAgg struct {
		bytes float64
		loc   topology.Locality
	}
	byHost := make(map[packet.Addr]*hostAgg)
	fl.each(func(f *Flow) {
		a, ok := byHost[f.Key.Dst]
		if !ok {
			a = &hostAgg{loc: f.Locality}
			byHost[f.Key.Dst] = a
		}
		a.bytes += float64(f.Bytes)
	})
	perLocality = make(map[topology.Locality]*stats.Sample)
	all = stats.NewSample(len(byHost))
	for _, a := range byHost {
		kb := a.bytes / 1024
		all.Add(kb)
		s, ok := perLocality[a.loc]
		if !ok {
			s = stats.NewSample(0)
			perLocality[a.loc] = s
		}
		s.Add(kb)
	}
	return perLocality, all
}
