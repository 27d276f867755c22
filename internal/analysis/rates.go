package analysis

import (
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/openhash"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/stats"
	"fbdcnet/internal/topology"
)

// RateSeries tracks a monitored host's outbound bytes per destination
// rack per second — the substrate of Figure 8: per-second rate CDFs
// (8a/8b) and per-rack stability relative to the rack's median (8c), plus
// the Benson-style "significant change" test of §5.2.
type RateSeries struct {
	topo    *topology.Topology
	addr    packet.Addr
	perRack openhash.Table[*stats.TimeSeries] // keyed by destination rack

	// Filter, when set, restricts tracking to matching destinations.
	// Figure 8b/8c consider only the cache follower's response traffic
	// toward Web-server racks; set Filter before feeding packets.
	Filter func(dst topology.HostID) bool
}

// NewRateSeries creates a per-destination-rack rate tracker for host.
func NewRateSeries(topo *topology.Topology, host topology.HostID) *RateSeries {
	return &RateSeries{
		topo: topo,
		addr: topo.Addr(host),
	}
}

// Packet implements the collector interface.
func (rs *RateSeries) Packet(h packet.Header) {
	if h.Key.Src != rs.addr {
		return
	}
	dst, ok := rs.topo.HostByAddr(h.Key.Dst)
	if !ok {
		return
	}
	if rs.Filter != nil && !rs.Filter(dst) {
		return
	}
	slot := rs.perRack.Slot(uint64(rs.topo.HostRack(dst)))
	if *slot == nil {
		*slot = stats.NewTimeSeries(0, 1.0)
	}
	(*slot).Add(float64(h.Time)/float64(netsim.Second), float64(h.Size))
}

// Packets implements the batch collector interface.
func (rs *RateSeries) Packets(hs []packet.Header) {
	for _, h := range hs {
		rs.Packet(h)
	}
}

// Racks returns the number of destination racks observed.
func (rs *RateSeries) Racks() int { return rs.perRack.Len() }

// seconds returns the number of whole seconds covered.
func (rs *RateSeries) seconds() int {
	n := 0
	rs.perRack.Range(func(_ uint64, ts **stats.TimeSeries) {
		if len((*ts).Bins()) > n {
			n = len((*ts).Bins())
		}
	})
	return n
}

// SecondCDF returns the distribution of per-rack rates (KB/s) within
// second s — one curve of Fig. 8a/8b. Racks silent in that second are
// excluded, as a flow-rate CDF only covers active flows.
func (rs *RateSeries) SecondCDF(s int) *stats.Sample {
	out := stats.NewSample(rs.perRack.Len())
	rs.perRack.Range(func(_ uint64, ts **stats.TimeSeries) {
		bins := (*ts).Bins()
		if s < len(bins) && bins[s] > 0 {
			out.Add(bins[s] / 1024)
		}
	})
	return out
}

// SpreadAcrossSeconds summarizes how similar one second's CDF is to the
// next: for each second, the p90/p10 ratio of per-rack rates; stable
// load-balanced traffic (cache) gives small, consistent ratios while
// Hadoop spans orders of magnitude (§5.2).
func (rs *RateSeries) SpreadAcrossSeconds() *stats.Sample {
	n := rs.seconds()
	out := stats.NewSample(n)
	for s := 0; s < n; s++ {
		cdf := rs.SecondCDF(s)
		if cdf.N() < 2 {
			continue
		}
		p10, p90 := cdf.Quantile(0.1), cdf.Quantile(0.9)
		if p10 > 0 {
			out.Add(p90 / p10)
		}
	}
	return out
}

// StabilityCDF returns, across all (rack, second) pairs, the rate
// normalized to that rack's median rate — Fig. 8c. A near-vertical CDF
// about 1.0 is the load-balanced cache pattern.
func (rs *RateSeries) StabilityCDF() *stats.Sample {
	out := stats.NewSample(0)
	rs.perRack.Range(func(_ uint64, ts **stats.TimeSeries) {
		bins := (*ts).Bins()
		med := stats.NewSample(len(bins))
		for _, v := range bins {
			if v > 0 {
				med.Add(v)
			}
		}
		if med.N() < 2 {
			return
		}
		m := med.Median()
		if m <= 0 {
			return
		}
		for _, v := range bins {
			if v > 0 {
				out.Add(v / m)
			}
		}
	})
	return out
}

// FracWithinFactor returns the fraction of active (rack, second) samples
// whose rate is within a multiplicative factor of the rack median — §5.2
// reports ≈90% within 2× for cache.
func (rs *RateSeries) FracWithinFactor(factor float64) float64 {
	cdf := rs.StabilityCDF()
	if cdf.N() == 0 {
		return 0
	}
	within := 0
	for _, v := range cdf.Values() {
		if v >= 1/factor && v <= factor {
			within++
		}
	}
	return float64(within) / float64(cdf.N())
}

// SignificantChangeFrac applies Benson et al.'s 20% deviation cutoff:
// the fraction of consecutive-second pairs where a rack's rate changes by
// more than 20% (§5.2 reports the median cache flow changes significantly
// in only 45% of 1-second intervals).
func (rs *RateSeries) SignificantChangeFrac() float64 {
	changed, total := 0, 0
	rs.perRack.Range(func(_ uint64, ts **stats.TimeSeries) {
		bins := (*ts).Bins()
		for i := 1; i < len(bins); i++ {
			if bins[i-1] == 0 {
				continue
			}
			total++
			dev := bins[i]/bins[i-1] - 1
			if dev > 0.2 || dev < -0.2 {
				changed++
			}
		}
	})
	if total == 0 {
		return 0
	}
	return float64(changed) / float64(total)
}
