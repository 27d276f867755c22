package core

import (
	"fmt"
	"strings"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/topology"
)

// Degraded-mode experiments: re-run the paper's locality and heavy-hitter
// analyses over traffic that actually crossed a fabric with injected
// faults, instead of over the idealized mirror stream. The comparison is
// always against a baseline arm of the identical workload on a healthy
// fabric, so every difference is attributable to the fault scenario.
//
// The workload is the packet-level one Figure 15 uses — the mirror
// streams of every host in the monitored Web rack and the monitored cache
// rack — synthesized once per System and shared by all arms, which keeps
// the arms' offered load bit-identical and the experiment affordable.

// faultDrainGrace is how long the engine keeps running past the trace
// horizon so in-flight retransmissions can complete: the RTO backoff
// chain spans at most ~30 ms, so 200 ms drains every packet that can
// still be delivered.
const faultDrainGrace = 200 * netsim.Millisecond

// DegradedMetrics are the analyses of one arm, computed over delivered
// packets only.
type DegradedMetrics struct {
	DeliveredPkts  int64   `json:"delivered_pkts"`
	DeliveredBytes int64   `json:"delivered_bytes"`
	DeliveredFrac  float64 `json:"delivered_frac"` // of offered bytes
	// LocalityBytes is the delivered byte share per locality tier
	// (Table 3's cut, restricted to delivered traffic).
	LocalityBytes map[string]float64 `json:"locality_bytes"`
	// Heavy-hitter medians at the monitored Web host over delivered
	// traffic: rack- and flow-level counts per 1 ms bin (Table 4's cut).
	HHRackP50 float64 `json:"hh_rack_p50"`
	HHFlowP50 float64 `json:"hh_flow_p50"`
}

// DegradedResult is one fault scenario's degraded arm next to the shared
// healthy baseline, plus the fault layer's own accounting.
type DegradedResult struct {
	Scenario     string            `json:"scenario"`
	Seconds      int               `json:"seconds"`
	OfferedPkts  int64             `json:"offered_pkts"`
	OfferedBytes int64             `json:"offered_bytes"`
	Baseline     DegradedMetrics   `json:"baseline"`
	Degraded     DegradedMetrics   `json:"degraded"`
	Faults       netsim.FaultStats `json:"faults"`
}

// degradedSeconds sizes the packet-level fault runs: an eighth of the
// short trace, clamped to [2,4] seconds — long enough for every scenario's
// onset and recovery to land inside the run, short enough to keep seven
// packet-level arms cheap.
func (s *System) degradedSeconds() int {
	sec := s.Cfg.ShortTraceSec / 8
	if sec < 2 {
		sec = 2
	}
	if sec > 4 {
		sec = 4
	}
	return sec
}

// degradedStreams synthesizes (once per System) the shared workload of
// every fault arm: the mirror streams of all hosts in the monitored Web
// and cache racks, one per host (see rackMirror). Offered totals exclude
// loopback headers, which the fabric ignores.
func (s *System) degradedStreams() [][]packet.Header {
	s.degradedOnce.Do(func() {
		horizon := netsim.Time(s.degradedSeconds()) * netsim.Second
		webRack := s.Topo.HostRack(s.Monitored(topology.RoleWeb))
		cacheRack := s.Topo.HostRack(s.Monitored(topology.RoleCacheFollower))
		s.degradedWork = s.rackMirror(nil, []int{webRack, cacheRack}, horizon, s.Cfg.Params, 0xfa17<<24)
		for _, hdrs := range s.degradedWork {
			for _, h := range hdrs {
				if h.Key.Src == h.Key.Dst {
					continue
				}
				s.degradedOffPkts++
				s.degradedOffBytes += int64(h.Size)
			}
		}
	})
	return s.degradedWork
}

// runDegradedArm injects the shared workload into a fresh fabric under
// one scenario (empty = healthy baseline) and computes the delivered-side
// analyses. disableReroute is the ablation arm: ECMP keeps its
// hash-preferred post even when that path is dead.
func (s *System) runDegradedArm(scenario string, disableReroute bool) (DegradedMetrics, netsim.FaultStats) {
	armName := scenario
	if armName == "" {
		armName = "baseline"
	}
	if disableReroute {
		armName += ":noreroute"
	}
	sp := s.Cfg.Obs.StartSpan("degraded:" + armName)
	defer sp.End()

	streams := s.degradedStreams()
	horizon := netsim.Time(s.degradedSeconds()) * netsim.Second
	focus := s.Monitored(topology.RoleWeb)

	eng := &netsim.Engine{}
	fab := netsim.NewFabric(eng, s.Topo, netsim.DefaultFabricConfig())
	fab.DisableReroute = disableReroute
	if scenario != "" {
		sched, err := netsim.NewFaultSchedule(scenario, s.Topo, focus, s.Cfg.Seed, horizon)
		if err != nil {
			panic(fmt.Sprintf("core: %v", err))
		}
		fab.ApplyFaults(sched)
	}

	var delivered []packet.Header
	keep := func(hs []packet.Header) { delivered = append(delivered, hs...) }
	for id := 0; id < s.Topo.NumHosts(); id++ {
		fab.Sink(topology.HostID(id)).OnBatch = keep
	}
	fab.InjectStreams(streams, 0)
	runSpan := s.Cfg.Obs.StartSpan("netsim-run")
	eng.Run(horizon + faultDrainGrace)
	runSpan.End()
	for id := 0; id < s.Topo.NumHosts(); id++ {
		fab.Sink(topology.HostID(id)).Flush()
	}
	s.foldFabricStats(fab)

	// The delivered stream is ordered by delivery time; the analyses bin
	// by the header timestamp, so restore that order first.
	packet.SortByTime(delivered)

	m := DegradedMetrics{LocalityBytes: map[string]float64{}}
	hh := analysis.NewHeavyGroup(s.Topo, focus,
		[]analysis.Level{analysis.LevelFlow, analysis.LevelRack}, []netsim.Time{netsim.Millisecond})
	locBytes := make(map[topology.Locality]float64)
	for _, h := range delivered {
		m.DeliveredPkts++
		m.DeliveredBytes += int64(h.Size)
		src, srcOK := s.Topo.HostByAddr(h.Key.Src)
		dst, dstOK := s.Topo.HostByAddr(h.Key.Dst)
		if srcOK && dstOK {
			locBytes[s.Topo.Locality(src, dst)] += float64(h.Size)
		}
		hh.Packet(h)
	}
	hh.Finish()
	if s.degradedOffBytes > 0 {
		m.DeliveredFrac = float64(m.DeliveredBytes) / float64(s.degradedOffBytes)
	}
	for _, l := range topology.Localities {
		if m.DeliveredBytes > 0 {
			m.LocalityBytes[l.String()] = locBytes[l] / float64(m.DeliveredBytes)
		}
	}
	m.HHRackP50 = hh.Tracker(analysis.LevelRack, netsim.Millisecond).Counts().Quantile(0.5)
	m.HHFlowP50 = hh.Tracker(analysis.LevelFlow, netsim.Millisecond).Counts().Quantile(0.5)
	return m, fab.Faults()
}

// degradedBaseline runs (once per System) the healthy arm every scenario
// compares against.
func (s *System) degradedBaseline() DegradedMetrics {
	s.baselineOnce.Do(func() {
		s.baselineMetrics, _ = s.runDegradedArm("", false)
	})
	return s.baselineMetrics
}

// DegradedFor runs the degraded experiment for one named scenario.
func (s *System) DegradedFor(scenario string) *DegradedResult {
	base := s.degradedBaseline()
	deg, faults := s.runDegradedArm(scenario, false)
	s.degradedStreams() // ensure offered totals are populated
	return &DegradedResult{
		Scenario:     scenario,
		Seconds:      s.degradedSeconds(),
		OfferedPkts:  s.degradedOffPkts,
		OfferedBytes: s.degradedOffBytes,
		Baseline:     base,
		Degraded:     deg,
		Faults:       faults,
	}
}

// Degraded runs (and memoizes) the degraded experiment for
// Config.FaultScenario; nil when no scenario is configured.
func (s *System) Degraded() *DegradedResult {
	if s.Cfg.FaultScenario == "" {
		return nil
	}
	s.faultOnce.Do(func() { s.faultRes = s.DegradedFor(s.Cfg.FaultScenario) })
	return s.faultRes
}

// DegradedScenarios runs the degraded experiment for every built-in
// scenario against the shared baseline.
func (s *System) DegradedScenarios() []*DegradedResult {
	var out []*DegradedResult
	for _, sc := range netsim.FaultScenarios() {
		out = append(out, s.DegradedFor(sc))
	}
	return out
}

// AblationFaultResilience is the 4-post Clos survivability ablation: the
// delivered byte fraction under csw-down with ECMP rerouting on
// (production: the hash re-applies over surviving posts) versus off
// (flows pinned to the dead post retransmit into it until lost).
func (s *System) AblationFaultResilience() *AblationResult {
	on, _ := s.runDegradedArm(netsim.ScenarioCSWDown, false)
	off, _ := s.runDegradedArm(netsim.ScenarioCSWDown, true)
	return &AblationResult{
		Name:           "ecmp-reroute",
		Metric:         "delivered byte frac under csw-down",
		On:             on.DeliveredFrac,
		Off:            off.DeliveredFrac,
		HigherIsBetter: true,
	}
}

// Render prints one scenario's comparison.
func (d *DegradedResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario %-10s (%ds, offered %d pkts): delivered %.4f of bytes (baseline %.4f)\n",
		d.Scenario, d.Seconds, d.OfferedPkts, d.Degraded.DeliveredFrac, d.Baseline.DeliveredFrac)
	fmt.Fprintf(&b, "  faults: events=%d recoveries=%d rerouted=%d pkts/%d B drops=%d retx=%d lost=%d (intra-rack %d)\n",
		d.Faults.FaultEvents, d.Faults.Recoveries, d.Faults.ReroutedPkts, d.Faults.ReroutedBytes,
		d.Faults.FaultDrops, d.Faults.Retransmits, d.Faults.LostPkts,
		d.Faults.LostByLocality[topology.IntraRack])
	fmt.Fprintf(&b, "  locality of delivered bytes:")
	for _, l := range topology.Localities {
		fmt.Fprintf(&b, " %s=%.3f", l, d.Degraded.LocalityBytes[l.String()])
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "  web HH per 1ms bin p50: racks %.1f (baseline %.1f), flows %.1f (baseline %.1f)\n",
		d.Degraded.HHRackP50, d.Baseline.HHRackP50, d.Degraded.HHFlowP50, d.Baseline.HHFlowP50)
	return b.String()
}

// RenderDegraded prints the scenario sweep.
func RenderDegraded(rs []*DegradedResult) string {
	var b strings.Builder
	b.WriteString("Degraded-mode sweep: paper analyses over delivered traffic under injected faults\n")
	for _, r := range rs {
		b.WriteString(r.Render())
	}
	return b.String()
}
