package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/core"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/services"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// The fabric workload is the Figure 15 ToR-buffer experiment
// (System.Figure15): every host of one Web rack and one cache rack
// synthesizes its mirror stream, the streams are time-ordered and injected
// into the packet-level Clos fabric, and both RSWs' shared buffers are
// sampled every 10 µs. It is the simulator that dominates the suite, and
// it bypasses the analysis tables and fbflow.

func fabricConfigs(r *runner) (core.Config, core.Figure15Config) {
	cfg := core.DefaultConfig()
	cfg.Scale = topology.ScaleTiny
	cfg.Seed = r.seed
	cfg.Parallelism, cfg.Taggers = r.workers, r.workers
	fc := core.DefaultFigure15Config()
	fc.Windows = 1
	fc.LoadBoost = 1
	if r.smoke {
		fc.LoadBoost = 0.2
	}
	return cfg, fc
}

func runFabric(r *runner) {
	cfg, fc := fabricConfigs(r)
	var first *core.Figure15Result
	r.loop(func() (trial, error) {
		ss, err := newCopies(cfg, r.workers)
		if err != nil {
			return trial{}, err
		}
		res := make([]*core.Figure15Result, len(ss))
		return trial{
			run: func() error {
				eachCopy(len(ss), func(i int) { res[i] = ss[i].Figure15(fc) })
				return nil
			},
			verify: func() error {
				for _, got := range res {
					if first == nil {
						first = got
					} else if !reflect.DeepEqual(got, first) {
						return fmt.Errorf("repeat call or copy differs")
					}
				}
				return nil
			},
		}, nil
	}, func() error { _, err := newCopies(cfg, r.workers); return err })
	if first == nil {
		return
	}

	// Oracle: the replica reproduces Figure15's per-window series exactly,
	// and every injected packet is delivered, dropped, or still in flight.
	var rep fabricRun
	untraced := timed(func() { rep = fabricReplica(nil, cfg, fc) })
	r.work = float64(rep.injected) * float64(r.workers)
	checkFabric(r, rep, first)
	if !r.trace {
		return
	}
	t := NewTracer()
	timed(func() { rep = fabricReplica(t, cfg, fc) })
	checkFabric(r, rep, first)
	untraced = (untraced + timed(func() { fabricReplica(nil, cfg, fc) })) / 2
	r.setLayer(t, rep.root, untraced, func(l map[string]float64) {
		for _, role := range []topology.Role{topology.RoleWeb, topology.RoleCacheFollower} {
			name := roleMetric[role]
			l["services.gen_s"] += l["services.gen_s/"+name]
			if n := rep.rolePkts[role]; n > 0 {
				l["services.ns_per_pkt."+name] = l["services.gen_s/"+name] * 1e9 / float64(n)
			}
		}
		inj := float64(rep.injected)
		l["services.allocs_per_pkt"] = float64(rep.genAllocs) / float64(rep.generated)
		l["netsim.allocs_per_pkt"] = float64(rep.simAllocs) / inj
		l["netsim.events_per_pkt"] = l["netsim.events"] / inj
		if l["netsim.events"] > 0 {
			l["netsim.ns_per_event"] = l["netsim.run_s"] * 1e9 / l["netsim.events"]
		}
	})
}

func checkFabric(r *runner, rep fabricRun, want *core.Figure15Result) {
	r.check(reflect.DeepEqual(rep.res, want), "replica occupancy/utilisation/drops differ from Figure15")
	r.check(rep.inflight >= 0 && rep.injected == rep.delivered+rep.dropped+rep.inflight,
		"conservation: injected %d != delivered %d + dropped %d + in flight %d",
		rep.injected, rep.delivered, rep.dropped, rep.inflight)
	r.check(rep.injected == rep.drainedDelivered+rep.drainedDropped,
		"after draining, injected %d != delivered %d + dropped %d", rep.injected, rep.drainedDelivered, rep.drainedDropped)
}

// fabricRun is the outcome of one replica pass.
type fabricRun struct {
	root                 int
	res                  *core.Figure15Result
	injected, generated  int64
	delivered, dropped   int64 // at the end of the last window
	inflight             int64
	drainedDelivered     int64 // after running the engine dry
	drainedDropped       int64
	rolePkts             map[topology.Role]int64
	genAllocs, simAllocs uint64
}

// fabricReplica re-runs Figure15 from the layers' public functions with a
// span around each phase of each window: per-host generation, the
// time-ordering sort, event scheduling, and the engine run.
func fabricReplica(t *Tracer, cfg core.Config, fc core.Figure15Config) fabricRun {
	out := fabricRun{root: t.Begin(-1, "core.residual_s", "fabric-replica"), rolePkts: map[topology.Role]int64{}}
	sp := t.Begin(out.root, "topology.build_s", "topology.Build+services.NewPicker")
	topo, err := topology.Build(topology.Preset(cfg.Scale))
	if err != nil {
		panic(err)
	}
	pick := services.NewPicker(topo)
	if err := pick.Validate(); err != nil {
		panic(err)
	}
	t.End(sp)

	sp = t.Begin(out.root, "netsim.build_s", "netsim.NewFabric")
	eng := &netsim.Engine{}
	fcfg := netsim.DefaultFabricConfig()
	fcfg.RSWBufBytes = fc.BufBytes
	fabric := netsim.NewFabric(eng, topo, fcfg)
	webRack := topo.HostRack(topo.HostsByRole(topology.RoleWeb)[0])
	cacheRack := topo.HostRack(topo.HostsByRole(topology.RoleCacheFollower)[0])
	webRSW, cacheRSW := fabric.RSW(webRack), fabric.RSW(cacheRack)
	webBuf := analysis.NewBufferStats(fc.BufBytes)
	cacheBuf := analysis.NewBufferStats(fc.BufBytes)
	t.End(sp)

	res := &core.Figure15Result{}
	winDur := netsim.Time(fc.WindowSec) * netsim.Second
	var prevWeb, prevCache int64
	var samples float64
	for w := 0; w < fc.Windows; w++ {
		load := core.DiurnalFactor(float64(w) / float64(fc.Windows))
		res.Load = append(res.Load, load)
		params := cfg.Params.Scaled(load * fc.LoadBoost)
		start := netsim.Time(w) * winDur

		var hdrs []packet.Header
		collect := workload.CollectorFunc(func(h packet.Header) { hdrs = append(hdrs, h) })
		a0 := allocObjects()
		for _, rack := range []int{webRack, cacheRack} {
			for i := 0; i < int(topo.Racks[rack].NumHosts); i++ {
				h := topo.Racks[rack].Host(i)
				role := topo.HostRole(h)
				n0 := len(hdrs)
				sp := t.Begin(out.root, "services.gen_s/"+roleMetric[role], "services.Trace "+roleMetric[role])
				tr := services.NewTrace(pick, h, cfg.Seed^0xf15<<20^uint64(h)<<8^uint64(w), params, collect)
				tr.Run(winDur)
				t.End(sp)
				out.rolePkts[role] += int64(len(hdrs) - n0)
			}
		}
		out.genAllocs += allocObjects() - a0
		out.generated += int64(len(hdrs))

		sp := t.Begin(out.root, "core.sort_s", "sort.SliceStable")
		sort.SliceStable(hdrs, func(i, j int) bool { return hdrs[i].Time < hdrs[j].Time })
		t.End(sp)

		a0 = allocObjects()
		sp = t.Begin(out.root, "netsim.schedule_s", "netsim.Engine.At")
		for _, h := range hdrs {
			h := h
			h.Time += int64(start)
			eng.At(h.Time, func() { fabric.Inject(h) })
		}
		for _, l := range fabric.LinksByTier(netsim.TierHostRSW) {
			l.ResetCounters()
		}
		netsim.SampleOccupancy(eng, webRSW, fc.SampleEvery, start+winDur,
			func(t netsim.Time, occ int64) { webBuf.Sample(t, occ); samples++ })
		netsim.SampleOccupancy(eng, cacheRSW, fc.SampleEvery, start+winDur,
			func(t netsim.Time, occ int64) { cacheBuf.Sample(t, occ); samples++ })
		t.End(sp)
		t.Max("netsim.pending_peak", float64(eng.Pending()))
		hdrs = nil

		sp = t.Begin(out.root, "netsim.run_s", "netsim.Engine.Run")
		events := eng.Run(start + winDur)
		t.End(sp)
		out.simAllocs += allocObjects() - a0
		t.Count("netsim.events", float64(events))

		res.WebUtil = append(res.WebUtil, rackEdgeUtil(fabric, topo, webRack, winDur))
		res.CacheUtil = append(res.CacheUtil, rackEdgeUtil(fabric, topo, cacheRack, winDur))
		res.WebDrops = append(res.WebDrops, webRSW.Drops()-prevWeb)
		res.CacheDrops = append(res.CacheDrops, cacheRSW.Drops()-prevCache)
		prevWeb, prevCache = webRSW.Drops(), cacheRSW.Drops()
	}
	sp = t.Begin(out.root, "analysis.finish_s", "analysis.BufferStats.Finish")
	webBuf.Finish()
	cacheBuf.Finish()
	res.WebMedian, res.WebMax = webBuf.Median(), webBuf.Max()
	res.CacheMedian, res.CacheMax = cacheBuf.Median(), cacheBuf.Max()
	t.End(sp)
	t.End(out.root)
	out.res = res

	st := fabric.Stats()
	out.injected = fabric.Injected()
	out.delivered = delivered(fabric, topo)
	out.dropped = st.Drops + st.FaultDrops
	out.inflight = out.injected - out.delivered - out.dropped
	t.Count("netsim.forwarded", float64(st.Forwarded))
	t.Count("analysis.buffer_samples", samples)
	var drops int64
	for i := range res.WebDrops {
		drops += res.WebDrops[i] + res.CacheDrops[i]
	}
	t.Count("netsim.rsw_drops", float64(drops))
	t.Count("netsim.occ_peak_frac", math.Max(core.MaxOf(res.WebMax), core.MaxOf(res.CacheMax)))

	eng.Run(math.MaxInt64)
	st = fabric.Stats()
	out.drainedDelivered = delivered(fabric, topo)
	out.drainedDropped = st.Drops + st.FaultDrops
	return out
}

// delivered sums the packets every host sink has absorbed.
func delivered(f *netsim.Fabric, topo *topology.Topology) int64 {
	var n int64
	for h := 0; h < topo.NumHosts(); h++ {
		n += f.Sink(topology.HostID(h)).Packets
	}
	return n
}

// rackEdgeUtil is the mean utilisation of a rack's host uplinks over the
// window, as Figure15 computes it.
func rackEdgeUtil(f *netsim.Fabric, topo *topology.Topology, rack int, dur netsim.Time) float64 {
	links := f.LinksByTier(netsim.TierHostRSW)
	total := 0.0
	rk := &topo.Racks[rack]
	for i := 0; i < int(rk.NumHosts); i++ {
		total += links[rk.Host(i)].Utilization(dur)
	}
	return total / float64(rk.NumHosts)
}
