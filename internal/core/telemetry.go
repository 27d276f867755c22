package core

import (
	"fmt"
	"log/slog"
	"strings"
	"sync"

	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/render"
	"fbdcnet/internal/telemetry"
	"fbdcnet/internal/topology"
)

// In-fabric telemetry experiment: deterministically sampled flows carry
// INT-style per-hop path records through a packet-level fabric while
// every switch port emits a fixed-interval queue-occupancy time series.
// The experiment contrasts a Web rack against a Hadoop rack across a
// diurnal sequence of one-second windows — the Figure 16/17 contrast at
// queue granularity. Each (arm, window) task owns its engine, fabric,
// and telemetry sink; sinks park at completion and fold strictly in task
// order, so results are bit-identical at any Config.Parallelism.

// TelemetryConfig sizes the telemetry experiment.
type TelemetryConfig struct {
	Windows   int         // diurnal points simulated
	Window    netsim.Time // packet-level traffic per window
	LoadBoost float64     // rate multiplier putting the racks at stressed load
	BufBytes  int64       // RSW shared buffer for the experiment
	Rate      float64     // flow sampling fraction (Config.TraceSample)
	Interval  netsim.Time
}

// telemetryOccBudget caps the total occupancy samples one window may
// emit across every switch series, so large topologies stretch the
// sampling interval instead of exploding memory.
const telemetryOccBudget = 1 << 21

// telemetryMaxRecords caps how many verbatim path records the merged
// result retains (in task order) for rendering and -paths-out export.
const telemetryMaxRecords = 128

// telemetryArmRoles are the contrasted racks: the paper's stable
// frontend traffic versus Hadoop's bursty all-to-all shuffle.
var telemetryArmRoles = []topology.Role{topology.RoleWeb, topology.RoleHadoop}

// telemetryConfig derives the experiment shape from the system config,
// clamping the occupancy interval to the per-window sample budget.
func (s *System) telemetryConfig() TelemetryConfig {
	tc := TelemetryConfig{
		Windows:   6,
		Window:    500 * netsim.Millisecond,
		LoadBoost: 6,
		BufBytes:  32 << 10,
		Rate:      s.Cfg.TraceSample,
		Interval:  s.Cfg.QueueInterval,
	}
	// One series per switch: racks + 4 CSWs per cluster + (4 FCs + 1 DCR)
	// per datacenter + 1 AGG per site + the backbone.
	nSwitches := len(s.Topo.Racks) + 4*len(s.Topo.Clusters) +
		5*len(s.Topo.Datacenters) + len(s.Topo.Sites) + 1
	if minIv := netsim.Time(int64(tc.Window) * int64(nSwitches) / telemetryOccBudget); tc.Interval < minIv {
		// Round up to a whole microsecond so timestamps stay on a clean grid.
		tc.Interval = (minIv + netsim.Microsecond - 1) / netsim.Microsecond * netsim.Microsecond
	}
	return tc
}

// TelemetryArm is one monitored rack's side of the contrast: per-window
// diurnal load and focus-RSW occupancy quantiles, plus the arm's share
// of the path-record aggregate.
type TelemetryArm struct {
	Role topology.Role
	Rack int

	// Per-window series, in window order.
	Load   []float64
	OccP50 []float64
	OccP99 []float64
	OccMax []float64

	Agg telemetry.Agg
}

// TelemetryResult is the merged output of the telemetry experiment.
type TelemetryResult struct {
	Rate     float64
	Interval netsim.Time
	BufBytes int64

	Arms     []TelemetryArm
	Agg      telemetry.Agg // both arms merged
	Hotspots []telemetry.PortHotspot
	Switches []telemetry.SwitchInfo
	Records  []*telemetry.PathRecord
}

// Telemetry runs (and memoizes) the in-fabric telemetry experiment; nil
// when Config.TraceSample is zero — the disabled path costs nothing and
// renders nothing.
func (s *System) Telemetry() *TelemetryResult {
	if s.Cfg.TraceSample <= 0 {
		return nil
	}
	s.telemOnce.Do(func() { s.telemRes = s.runTelemetry() })
	return s.telemRes
}

// runTelemetry fans the (arm, window) grid across the parallel engine.
// Completed sinks park at the same merge frontier as fleet cells and
// fold strictly in task index order, so the merged aggregate, occupancy quantiles, hotspot ranking, and
// retained records are independent of completion order.
func (s *System) runTelemetry() *TelemetryResult {
	sp := s.Cfg.Obs.StartSpan("telemetry")
	defer sp.End()
	tcfg := s.telemetryConfig()
	res := &TelemetryResult{Rate: tcfg.Rate, Interval: tcfg.Interval, BufBytes: tcfg.BufBytes}
	for _, role := range telemetryArmRoles {
		res.Arms = append(res.Arms, TelemetryArm{
			Role: role,
			Rack: s.Topo.HostRack(s.Monitored(role)),
		})
	}

	n := len(res.Arms) * tcfg.Windows
	pool := telemetry.NewBufferPool()
	byPort := map[uint64]int64{}
	var scratch []int64
	prog := s.Cfg.Obs.NewProgress("telemetry-windows", int64(n))
	front := newFrontier(n, func(i int, snk *telemetry.Sink, _ bool) {
		arm := &res.Arms[i/tcfg.Windows]
		w := i % tcfg.Windows
		arm.Load = append(arm.Load, DiurnalFactor(float64(w)/float64(tcfg.Windows)))
		var p50, p99, max float64
		if id, ok := snk.SwitchByName(fmt.Sprintf("rsw%d", arm.Rack)); ok {
			for _, os := range snk.Occ {
				if os.Switch == id {
					p50, p99, max, scratch = telemetry.OccQuantiles(os, tcfg.BufBytes, scratch)
					break
				}
			}
		}
		arm.OccP50 = append(arm.OccP50, p50)
		arm.OccP99 = append(arm.OccP99, p99)
		arm.OccMax = append(arm.OccMax, max)
		arm.Agg.Merge(&snk.Agg)
		telemetry.Hotspots(snk, byPort)
		for _, r := range snk.Records {
			if len(res.Records) < telemetryMaxRecords {
				res.Records = append(res.Records, r)
			}
		}
		if res.Switches == nil {
			res.Switches = snk.Switches()
		}
		snk.Release()
		prog.Set(int64(i + 1))
	})
	var mu sync.Mutex
	streams := make([][][]packet.Header, s.Cfg.Workers()) // each worker's last window
	runParallelWorkers(s.Cfg.Workers(), n, func(worker, i int) {
		sink := s.runTelemetryWindow(tcfg, res.Arms[i/tcfg.Windows].Role, i%tcfg.Windows, pool, &streams[worker])
		mu.Lock()
		defer mu.Unlock()
		front.park(i, sink)
	})
	for i := range res.Arms {
		res.Agg.Merge(&res.Arms[i].Agg)
	}
	res.Hotspots = telemetry.RankHotspots(byPort, 5)
	s.foldTelemetry(res)
	s.auditTelemetry(res)
	if res.Agg.Sampled == 0 {
		slog.Warn("telemetry: sampling selected zero flows; the telemetry section will be empty",
			"trace_sample", tcfg.Rate)
	}
	return res
}

// runTelemetryWindow simulates one (arm, window) task: the mirror
// streams of every host in the monitored rack, diurnally scaled, through
// a fresh fabric with a telemetry sink attached and every port's queue
// sampled on the fixed interval. When a fault scenario is configured the
// same schedule runs inside each window, so path records exercise the
// fault reason codes. The window's mirror streams reuse *streams, and
// are left there for the worker's next window.
func (s *System) runTelemetryWindow(tcfg TelemetryConfig, role topology.Role, w int, pool *telemetry.BufferPool, streams *[][]packet.Header) *telemetry.Sink {
	eng := &netsim.Engine{}
	fcfg := netsim.DefaultFabricConfig()
	fcfg.RSWBufBytes = tcfg.BufBytes
	fab := netsim.NewFabric(eng, s.Topo, fcfg)
	sink := telemetry.NewSink(s.Cfg.Seed, tcfg.Rate)
	sink.Buffers = pool
	fab.AttachTelemetry(sink)

	winDur := tcfg.Window
	focus := s.Monitored(role)
	if s.Cfg.FaultScenario != "" {
		sched, err := netsim.NewFaultSchedule(s.Cfg.FaultScenario, s.Topo, focus, s.Cfg.Seed, winDur)
		if err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
		fab.ApplyFaults(sched)
	}

	load := DiurnalFactor(float64(w) / float64(tcfg.Windows))
	params := s.Cfg.Params.Scaled(load * tcfg.LoadBoost)
	*streams = s.rackMirror(*streams, []int{s.Topo.HostRack(focus)}, winDur, params, 0x7e1e<<24^uint64(w))
	fab.InjectStreams(*streams, 0)
	fab.StartQueueSampling(tcfg.Interval, winDur)
	eng.Run(winDur + faultDrainGrace)
	s.foldFabricStats(fab)
	return sink
}

// Render prints the telemetry section: the path-record digest (per-hop
// latency by tier, drop attribution by cause and tier, hotspot ports)
// and the per-arm occupancy timelines.
func (r *TelemetryResult) Render() string {
	var b strings.Builder
	b.WriteString("In-fabric telemetry: INT-style path records + per-port queue occupancy\n")
	fmt.Fprintf(&b, "  sampling: rate %.3f of flows, occupancy every %dµs, ToR buffer %s\n",
		r.Rate, int64(r.Interval/netsim.Microsecond), render.SI(float64(r.BufBytes)))
	a := &r.Agg
	if a.Sampled == 0 {
		b.WriteString("  no flows sampled at this rate; raise -trace-sample\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  sampled attempts %d: delivered %s%%, rerouted %d, retransmits %d, hops %d, e2e mean %.1fµs\n",
		a.Sampled, render.Pct(a.DeliveredFrac()), a.Rerouted, a.Retransmit,
		a.HopsTotal, a.MeanDeliverNs()/1e3)
	var rows [][]string
	for t := telemetry.Tier(0); t < telemetry.NumTiers; t++ {
		ts := &a.Tiers[t]
		if ts.Hops == 0 {
			continue
		}
		rows = append(rows, []string{
			t.String(),
			fmt.Sprintf("%d", ts.Hops),
			fmt.Sprintf("%.1f", ts.MeanQDelay()/1e3),
			fmt.Sprintf("%.1f", ts.QDelayQuantile(0.99)/1e3),
			fmt.Sprintf("%.1f", float64(ts.QDelayMax)/1e3),
			render.SI(ts.MeanQDepth()),
			render.SI(float64(ts.QDepthMax)),
		})
	}
	b.WriteString(render.Table(
		[]string{"tier", "hops", "qdelay mean µs", "p99 µs", "max µs", "qdepth mean B", "max B"}, rows))
	if a.Dropped > 0 {
		fmt.Fprintf(&b, "  drops %d of %d:", a.Dropped, a.Sampled)
		for rc := telemetry.ReasonBufferDrop; rc < telemetry.NumReasons; rc++ {
			n := a.DropsByReason[rc]
			if n == 0 {
				continue
			}
			fmt.Fprintf(&b, " %s=%d", rc, n)
			var tiers []string
			for t := telemetry.Tier(0); t < telemetry.NumTiers; t++ {
				if c := a.DropMatrix[rc][t]; c > 0 {
					tiers = append(tiers, fmt.Sprintf("%s %d", t, c))
				}
			}
			if len(tiers) > 0 {
				fmt.Fprintf(&b, " (%s)", strings.Join(tiers, ", "))
			}
		}
		b.WriteByte('\n')
	} else {
		b.WriteString("  drops: none among sampled attempts\n")
	}
	if len(r.Hotspots) > 0 {
		b.WriteString("  hotspot ports (peak queued bytes):")
		for _, h := range r.Hotspots {
			name := fmt.Sprintf("sw%d", h.Switch)
			if int(h.Switch) < len(r.Switches) {
				name = r.Switches[h.Switch].Name
			}
			fmt.Fprintf(&b, " %s:%d=%s", name, h.Port, render.SI(float64(h.PeakBytes)))
		}
		b.WriteByte('\n')
	}
	for i := range r.Arms {
		arm := &r.Arms[i]
		fmt.Fprintf(&b, "  %-6s rack %-3d load %s  occ p99 %s (peak %.3f)  occ max %s (peak %.3f)\n",
			strings.ToLower(arm.Role.String()), arm.Rack, render.Sparkline(arm.Load),
			render.Sparkline(arm.OccP99), MaxOf(arm.OccP99),
			render.Sparkline(arm.OccMax), MaxOf(arm.OccMax))
	}
	return b.String()
}
