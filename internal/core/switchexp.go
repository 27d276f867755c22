package core

import (
	"fmt"
	"strings"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/render"
	"fbdcnet/internal/services"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// Figure15Config sizes the switch-buffer experiment: a sequence of
// diurnally modulated windows of packet-level simulation through the
// top-of-rack switches of one Web rack and one cache rack, with
// shared-buffer occupancy sampled every 10 µs (§6.3).
type Figure15Config struct {
	Windows     int     // diurnal points simulated (the "day")
	WindowSec   int     // seconds of packet-level traffic per window
	LoadBoost   float64 // rate multiplier putting the rack at stressed load
	BufBytes    int64   // RSW shared buffer for the experiment
	SampleEvery netsim.Time
}

// DefaultFigure15Config returns the standard shape: 12 windows across the
// diurnal cycle, one second each. BufBytes models the dynamic per-port-
// group threshold of a shared-memory ToR ASIC (the "configured limit" of
// §6.3), not the chip's full packet memory, which is why bursts can
// approach it at percent-level link utilization.
func DefaultFigure15Config() Figure15Config {
	return Figure15Config{
		Windows:     12,
		WindowSec:   1,
		LoadBoost:   10,
		BufBytes:    32 << 10,
		SampleEvery: 10 * netsim.Microsecond,
	}
}

// Figure15Result carries the buffer, utilization, and drop series of the
// two monitored racks.
type Figure15Result struct {
	// Per-second normalized occupancy (median and max of 10-µs samples).
	WebMedian, WebMax     []float64
	CacheMedian, CacheMax []float64
	// Per-window average edge utilization of the rack's hosts.
	WebUtil, CacheUtil []float64
	// Per-window egress drops at each rack's RSW.
	WebDrops, CacheDrops []int64
	// Load is the diurnal multiplier per window.
	Load []float64
}

// Figure15 runs the packet-level switch experiment. Traffic for every
// host in the two racks is synthesized per window (each host's mirror
// stream), merged in time order, and injected into a full Clos fabric;
// the racks' RSWs are sampled at 10-µs granularity.
func (s *System) Figure15(cfg Figure15Config) *Figure15Result {
	eng := &netsim.Engine{}
	fcfg := netsim.DefaultFabricConfig()
	fcfg.RSWBufBytes = cfg.BufBytes
	fabric := netsim.NewFabric(eng, s.Topo, fcfg)

	webHost := s.Monitored(topology.RoleWeb)
	cacheHost := s.Monitored(topology.RoleCacheFollower)
	webRack := s.Topo.HostRack(webHost)
	cacheRack := s.Topo.HostRack(cacheHost)

	webRSW := fabric.RSW(webRack)
	cacheRSW := fabric.RSW(cacheRack)
	webBuf := analysis.NewBufferStats(cfg.BufBytes)
	cacheBuf := analysis.NewBufferStats(cfg.BufBytes)

	res := &Figure15Result{}
	winDur := netsim.Time(cfg.WindowSec) * netsim.Second
	var prevWebDrops, prevCacheDrops int64

	for w := 0; w < cfg.Windows; w++ {
		load := DiurnalFactor(float64(w) / float64(cfg.Windows))
		res.Load = append(res.Load, load)
		params := s.Cfg.Params.Scaled(load * cfg.LoadBoost)
		start := netsim.Time(w) * winDur

		// Synthesize each rack host's mirror stream for this window and
		// inject the streams, shifted to the window's start.
		fabric.InjectStreams(s.rackMirror([]int{webRack, cacheRack}, winDur, params, 0xf15<<20^uint64(w)), start)

		// Reset edge counters so per-window utilization is clean.
		for _, l := range fabric.LinksByTier(netsim.TierHostRSW) {
			l.ResetCounters()
		}
		netsim.SampleOccupancy(eng, webRSW, cfg.SampleEvery, start+winDur,
			func(t netsim.Time, occ int64) { webBuf.Sample(t, occ) })
		netsim.SampleOccupancy(eng, cacheRSW, cfg.SampleEvery, start+winDur,
			func(t netsim.Time, occ int64) { cacheBuf.Sample(t, occ) })
		eng.Run(start + winDur)

		res.WebUtil = append(res.WebUtil, rackEdgeUtil(fabric, s.Topo, webRack, winDur))
		res.CacheUtil = append(res.CacheUtil, rackEdgeUtil(fabric, s.Topo, cacheRack, winDur))
		res.WebDrops = append(res.WebDrops, webRSW.Drops()-prevWebDrops)
		res.CacheDrops = append(res.CacheDrops, cacheRSW.Drops()-prevCacheDrops)
		prevWebDrops, prevCacheDrops = webRSW.Drops(), cacheRSW.Drops()
	}
	webBuf.Finish()
	cacheBuf.Finish()
	res.WebMedian, res.WebMax = webBuf.Median(), webBuf.Max()
	res.CacheMedian, res.CacheMax = cacheBuf.Median(), cacheBuf.Max()
	return res
}

// rackMirror synthesizes the mirror stream of every host in racks over
// dur: one stream per host, in rack then host order, each in time order
// as its Gen emits it. Fabric.InjectStreams injects them in the order a
// stable time sort of their concatenation would give. Host h's trace is
// seeded Seed ^ salt ^ h<<8; each experiment passes its own salt.
// One Trace, reset for each host, generates every stream, so the hosts
// share one engine and its queues.
func (s *System) rackMirror(racks []int, dur netsim.Time, params services.Params, salt uint64) [][]packet.Header {
	var streams [][]packet.Header
	var hdrs []packet.Header
	collect := workload.CollectorFunc(func(h packet.Header) { hdrs = append(hdrs, h) })
	var tr *services.Trace
	for _, rack := range racks {
		rk := &s.Topo.Racks[rack]
		for i := 0; i < int(rk.NumHosts); i++ {
			h := rk.Host(i)
			hdrs = nil
			if seed := s.Cfg.Seed ^ salt ^ uint64(h)<<8; tr == nil {
				tr = services.NewTrace(s.Pick, h, seed, params, collect)
			} else {
				tr.Reset(h, seed, collect)
			}
			tr.Run(dur)
			streams = append(streams, hdrs)
		}
	}
	return streams
}

// rackEdgeUtil returns the mean utilization of a rack's host uplinks over
// the window.
func rackEdgeUtil(f *netsim.Fabric, topo *topology.Topology, rack int, dur netsim.Time) float64 {
	links := f.LinksByTier(netsim.TierHostRSW)
	total := 0.0
	rk := &topo.Racks[rack]
	for i := 0; i < int(rk.NumHosts); i++ {
		total += links[rk.Host(i)].Utilization(dur)
	}
	return total / float64(rk.NumHosts)
}

// MaxOf returns the maximum of a series (0 for empty).
func MaxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// Render prints the Figure 15 reproduction.
func (f *Figure15Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 15: ToR buffer occupancy / utilization / drops over the synthetic day\n")
	fmt.Fprintf(&b, "  load:            %s\n", render.Sparkline(f.Load))
	fmt.Fprintf(&b, "  web   occ max:   %s (peak %.3f of buffer)\n", render.Sparkline(f.WebMax), MaxOf(f.WebMax))
	fmt.Fprintf(&b, "  web   occ med:   %s\n", render.Sparkline(f.WebMedian))
	fmt.Fprintf(&b, "  cache occ max:   %s (peak %.3f of buffer)\n", render.Sparkline(f.CacheMax), MaxOf(f.CacheMax))
	fmt.Fprintf(&b, "  cache occ med:   %s\n", render.Sparkline(f.CacheMedian))
	fmt.Fprintf(&b, "  web   edge util: %s (peak %.4f)\n", render.Sparkline(f.WebUtil), MaxOf(f.WebUtil))
	fmt.Fprintf(&b, "  cache edge util: %s (peak %.4f)\n", render.Sparkline(f.CacheUtil), MaxOf(f.CacheUtil))
	drops := make([]float64, len(f.WebDrops))
	var totalDrops int64
	for i, d := range f.WebDrops {
		drops[i] = float64(d)
		totalDrops += d
	}
	fmt.Fprintf(&b, "  web egress drops:%s (total %d)\n", render.Sparkline(drops), totalDrops)
	return b.String()
}
