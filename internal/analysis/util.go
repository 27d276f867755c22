package analysis

import (
	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/stats"
	"fbdcnet/internal/topology"
)

// Utilization derives per-tier link utilization distributions (§4.1) from
// an Fbflow dataset: every host's access link, every rack's four RSW→CSW
// uplinks, and every cluster's four CSW→FC uplinks, assuming ECMP spreads
// tier-crossing bytes evenly over a tier's uplinks. Links that carried no
// traffic are included at zero — the paper's "99% of links under 10%"
// counts idle links too.
func Utilization(ds *fbflow.Dataset, topo *topology.Topology, durSec float64, cfg netsim.FabricConfig) map[netsim.Tier]*stats.Sample {
	out := map[netsim.Tier]*stats.Sample{
		netsim.TierHostRSW: stats.NewSample(topo.NumHosts()),
		netsim.TierRSWCSW:  stats.NewSample(len(topo.Racks) * 4),
		netsim.TierCSWFC:   stats.NewSample(len(topo.Clusters) * 4),
	}
	util := func(bytes float64, rate int64) float64 {
		return bytes * 8 / (float64(rate) * durSec)
	}

	hostOut := ds.HostOut()
	for i := 0; i < topo.NumHosts(); i++ {
		b, _ := hostOut.At(i)
		out[netsim.TierHostRSW].Add(util(b, cfg.HostLinkBps))
	}
	rackCross := ds.RackCross()
	for r := range topo.Racks {
		b, _ := rackCross.At(r)
		per := b / 4
		for i := 0; i < 4; i++ {
			out[netsim.TierRSWCSW].Add(util(per, cfg.RSWUpBps))
		}
	}
	clusterCross := ds.ClusterCross()
	for c := range topo.Clusters {
		b, _ := clusterCross.At(c)
		per := b / 4
		for i := 0; i < 4; i++ {
			out[netsim.TierCSWFC].Add(util(per, cfg.CSWUpBps))
		}
	}
	return out
}

// ClusterEdgeLoad returns the mean edge-link (host→RSW) utilization per
// cluster type, the §4.1 "heaviest clusters (Hadoop) ≈5× light ones
// (Frontend)" comparison.
func ClusterEdgeLoad(ds *fbflow.Dataset, topo *topology.Topology, durSec float64, cfg netsim.FabricConfig) map[topology.ClusterType]float64 {
	hostOut := ds.HostOut()
	// Each type's sum accumulates in host-ID order: the same addition
	// sequence, and so the same bits, as a map keyed by type.
	var sum [topology.ClusterDB + 1]float64
	var n [topology.ClusterDB + 1]int
	for i := 0; i < topo.NumHosts(); i++ {
		ct := topo.Clusters[topo.HostCluster(topology.HostID(i))].Type
		b, _ := hostOut.At(i)
		sum[ct] += b * 8 / (float64(cfg.HostLinkBps) * durSec)
		n[ct]++
	}
	out := make(map[topology.ClusterType]float64, len(sum))
	for ct, s := range sum {
		if n[ct] > 0 {
			out[topology.ClusterType(ct)] = s / float64(n[ct])
		}
	}
	return out
}

// BufferStats turns a stream of shared-buffer occupancy samples into the
// per-second median and maximum series of Figure 15a, normalized to the
// buffer capacity. Feed it from netsim.SampleOccupancy and call Finish.
type BufferStats struct {
	capBytes float64
	secNo    int64
	cur      *stats.Sample
	med, max []float64
}

// NewBufferStats creates a tracker for a switch with the given shared
// buffer capacity in bytes.
func NewBufferStats(capBytes int64) *BufferStats {
	return &BufferStats{capBytes: float64(capBytes), cur: stats.NewSample(0)}
}

// Sample ingests one occupancy reading at simulation time t.
func (b *BufferStats) Sample(t netsim.Time, occ int64) {
	sec := t / int64(netsim.Second)
	if sec != b.secNo {
		b.roll(sec)
	}
	b.cur.Add(float64(occ) / b.capBytes)
}

func (b *BufferStats) roll(next int64) {
	if b.cur.N() > 0 {
		b.med = append(b.med, b.cur.Median())
		b.max = append(b.max, b.cur.Quantile(1))
		b.cur = stats.NewSample(0)
	}
	b.secNo = next
}

// Finish flushes the last second.
func (b *BufferStats) Finish() { b.roll(b.secNo + 1) }

// Median returns the per-second median normalized occupancy series.
func (b *BufferStats) Median() []float64 { return b.med }

// Max returns the per-second maximum normalized occupancy series.
func (b *BufferStats) Max() []float64 { return b.max }
