// Benchmark harness: one bench per table and figure of the paper's
// evaluation, plus the DESIGN.md ablations and the Table 1
// literature-baseline contrasts. Each bench prints the reproduced
// rows/series once (the same rows the paper reports) and publishes its
// headline scalar via b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates the whole evaluation.
package fbdcnet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/baseline"
	"fbdcnet/internal/core"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/services"
	"fbdcnet/internal/telemetry"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

var (
	sysOnce  sync.Once
	benchSys *core.System
)

// benchSystem memoizes one System for the whole bench run: trace bundles
// and the fleet dataset are shared across benches exactly as the paper's
// datasets were shared across analyses.
func benchSystem() *core.System {
	sysOnce.Do(func() {
		cfg := core.DefaultConfig()
		cfg.Scale = topology.ScaleTiny
		cfg.ShortTraceSec = 30
		cfg.LongTraceSec = 60
		benchSys = core.MustNewSystem(cfg)
	})
	return benchSys
}

var printed sync.Map

// printOnce emits an experiment's rendition a single time per run.
func printOnce(key, text string) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

func BenchmarkTable2_ServiceMix(b *testing.B) {
	s := benchSystem()
	var res *core.Table2Result
	for i := 0; i < b.N; i++ {
		res = s.Table2()
	}
	printOnce("table2", res.Render())
	b.ReportMetric(100*res.Share[topology.RoleWeb][topology.RoleCacheFollower], "web-to-cache-%")
	b.ReportMetric(100*res.Share[topology.RoleHadoop][topology.RoleHadoop], "hadoop-to-hadoop-%")
}

func BenchmarkTable3_Locality(b *testing.B) {
	s := benchSystem()
	var res *core.Table3Result
	for i := 0; i < b.N; i++ {
		res = s.Table3()
	}
	printOnce("table3", res.Render())
	b.ReportMetric(100*res.All[topology.IntraCluster], "all-intra-cluster-%")
	b.ReportMetric(100*res.All[topology.IntraRack], "all-intra-rack-%")
}

func BenchmarkTable4_HeavyHitters(b *testing.B) {
	s := benchSystem()
	var res *core.Table4Result
	for i := 0; i < b.N; i++ {
		res = s.Table4()
	}
	printOnce("table4", res.Render())
	for _, r := range res.Rows {
		if r.Role == topology.RoleCacheFollower && r.Level == analysis.LevelFlow {
			b.ReportMetric(r.NumP50, "cache-f-flow-HH-p50")
		}
	}
}

func BenchmarkSection41_Utilization(b *testing.B) {
	s := benchSystem()
	var res *core.Section41Result
	for i := 0; i < b.N; i++ {
		res = s.Section41()
	}
	printOnce("section41", res.Render())
	b.ReportMetric(100*res.Tiers[netsim.TierHostRSW].Mean(), "edge-util-%")
	b.ReportMetric(res.DiurnalSwing, "diurnal-swing-x")
}

func BenchmarkFigure4_LocalityTimeseries(b *testing.B) {
	s := benchSystem()
	var res *core.Figure4Result
	for i := 0; i < b.N; i++ {
		res = s.Figure4()
	}
	printOnce("figure4", res.Render())
	b.ReportMetric(100*res.Share[topology.RoleWeb][topology.IntraCluster], "web-intra-cluster-%")
}

func BenchmarkFigure5_TrafficMatrix(b *testing.B) {
	s := benchSystem()
	var res *core.Figure5Result
	for i := 0; i < b.N; i++ {
		res = s.Figure5()
	}
	printOnce("figure5", res.Render())
	b.ReportMetric(100*res.HadoopDiag, "hadoop-diag-%")
	b.ReportMetric(100*res.FrontendDiag, "frontend-diag-%")
}

func BenchmarkFigure6_FlowSizes(b *testing.B) {
	s := benchSystem()
	var res *core.FlowDistResult
	for i := 0; i < b.N; i++ {
		res = s.Figure6()
	}
	printOnce("figure6", res.Render())
	b.ReportMetric(res.All[topology.RoleHadoop].Quantile(0.5), "hadoop-flow-p50-KB")
}

func BenchmarkFigure7_FlowDurations(b *testing.B) {
	s := benchSystem()
	var res *core.FlowDistResult
	for i := 0; i < b.N; i++ {
		res = s.Figure7()
	}
	printOnce("figure7", res.Render())
	b.ReportMetric(res.All[topology.RoleCacheFollower].Quantile(0.5)/1000, "cache-dur-p50-s")
	b.ReportMetric(res.All[topology.RoleHadoop].Quantile(0.5)/1000, "hadoop-dur-p50-s")
}

func BenchmarkFigure8_RateStability(b *testing.B) {
	s := benchSystem()
	var res *core.Figure8Result
	for i := 0; i < b.N; i++ {
		res = s.Figure8()
	}
	printOnce("figure8", res.Render())
	b.ReportMetric(100*res.CacheWithin2x, "cache-within-2x-%")
	b.ReportMetric(100*res.CacheSignificantChange, "cache-sig-change-%")
}

func BenchmarkFigure9_PerHostFlowSize(b *testing.B) {
	s := benchSystem()
	var res *core.Figure9Result
	for i := 0; i < b.N; i++ {
		res = s.Figure9()
	}
	printOnce("figure9", res.Render())
	b.ReportMetric(res.TightnessRatio, "per-host-p90/p10")
	b.ReportMetric(res.FlowP90P10, "per-flow-p90/p10")
}

func BenchmarkFigure10_HHStability(b *testing.B) {
	s := benchSystem()
	var res *core.HHDynamicsResult
	for i := 0; i < b.N; i++ {
		res = s.Figure10And11()
	}
	printOnce("figure1011", res.Render())
	cf := res.Persistence[topology.RoleCacheFollower]
	b.ReportMetric(cf[analysis.LevelRack][100*netsim.Millisecond], "cache-rack-100ms-persist-%")
	b.ReportMetric(cf[analysis.LevelFlow][netsim.Millisecond], "cache-flow-1ms-persist-%")
}

func BenchmarkFigure11_HHIntersection(b *testing.B) {
	s := benchSystem()
	var res *core.HHDynamicsResult
	for i := 0; i < b.N; i++ {
		res = s.Figure10And11()
	}
	printOnce("figure1011", res.Render())
	web := res.Intersection[topology.RoleWeb]
	b.ReportMetric(web[analysis.LevelRack][100*netsim.Millisecond], "web-rack-100ms-intersect-%")
}

func BenchmarkFigure12_PacketSizes(b *testing.B) {
	s := benchSystem()
	var res *core.Figure12Result
	for i := 0; i < b.N; i++ {
		res = s.Figure12()
	}
	printOnce("figure12", res.Render())
	b.ReportMetric(res.Sizes[topology.RoleWeb].Quantile(0.5), "web-pkt-p50-B")
	b.ReportMetric(100*res.BimodalFrac[topology.RoleHadoop], "hadoop-bimodal-%")
}

func BenchmarkFigure13_OnOff(b *testing.B) {
	s := benchSystem()
	var res *core.Figure13Result
	for i := 0; i < b.N; i++ {
		res = s.Figure13()
	}
	printOnce("figure13", res.Render())
	b.ReportMetric(100*res.FacebookScore15, "fb-empty-bins-%")
	b.ReportMetric(100*res.BaselineScore15, "baseline-empty-bins-%")
}

func BenchmarkFigure14_FlowInterarrival(b *testing.B) {
	s := benchSystem()
	var res *core.Figure14Result
	for i := 0; i < b.N; i++ {
		res = s.Figure14()
	}
	printOnce("figure14", res.Render())
	b.ReportMetric(res.Gaps[topology.RoleWeb].Quantile(0.5)/1000, "web-syn-gap-p50-ms")
	b.ReportMetric(res.Gaps[topology.RoleCacheFollower].Quantile(0.5)/1000, "cache-syn-gap-p50-ms")
}

func BenchmarkFigure15_BufferOccupancy(b *testing.B) {
	s := benchSystem()
	cfg := core.DefaultFigure15Config()
	cfg.Windows = 8
	var res *core.Figure15Result
	for i := 0; i < b.N; i++ {
		res = s.Figure15(cfg)
	}
	printOnce("figure15", res.Render())
	b.ReportMetric(core.MaxOf(res.WebMax), "web-occ-peak-frac")
	b.ReportMetric(100*core.MaxOf(res.WebUtil), "web-edge-util-%")
}

func BenchmarkFigure16_ConcurrentRacks(b *testing.B) {
	s := benchSystem()
	var res *core.ConcurrencyResult
	for i := 0; i < b.N; i++ {
		res = s.Figure16And17()
	}
	printOnce("figure1617", res.Render())
	b.ReportMetric(res.RacksAll[topology.RoleCacheFollower].Quantile(0.5), "cache-racks-5ms-p50")
	b.ReportMetric(res.RacksAll[topology.RoleWeb].Quantile(0.5), "web-racks-5ms-p50")
}

func BenchmarkFigure17_ConcurrentHHRacks(b *testing.B) {
	s := benchSystem()
	var res *core.ConcurrencyResult
	for i := 0; i < b.N; i++ {
		res = s.Figure16And17()
	}
	printOnce("figure1617", res.Render())
	b.ReportMetric(res.HHAll[topology.RoleCacheFollower].Quantile(0.5), "cache-HH-racks-p50")
}

func BenchmarkAblation_LoadBalancing(b *testing.B) {
	s := benchSystem()
	var res *core.AblationResult
	for i := 0; i < b.N; i++ {
		res = s.AblationLoadBalancing()
	}
	printOnce("abl-lb", res.Render())
	b.ReportMetric(res.On, "on")
	b.ReportMetric(res.Off, "off")
}

func BenchmarkAblation_ConnectionPooling(b *testing.B) {
	s := benchSystem()
	var res *core.AblationResult
	for i := 0; i < b.N; i++ {
		res = s.AblationConnectionPooling()
	}
	printOnce("abl-pool", res.Render())
	b.ReportMetric(res.On, "on")
	b.ReportMetric(res.Off, "off")
}

func BenchmarkAblation_HotObjectMitigation(b *testing.B) {
	s := benchSystem()
	var res *core.AblationResult
	for i := 0; i < b.N; i++ {
		res = s.AblationHotObjectMitigation()
	}
	printOnce("abl-hot", res.Render())
	b.ReportMetric(res.On, "on")
	b.ReportMetric(res.Off, "off")
}

func BenchmarkAblation_RackPlacement(b *testing.B) {
	s := benchSystem()
	var res *core.AblationResult
	for i := 0; i < b.N; i++ {
		res = s.AblationRackPlacement()
	}
	printOnce("abl-place", res.Render())
	b.ReportMetric(res.On, "on")
	b.ReportMetric(res.Off, "off")
}

// BenchmarkBaseline_Literature runs the Table 1 contrast: the literature
// workload through the same analyses as the Facebook-style workload.
func BenchmarkBaseline_Literature(b *testing.B) {
	s := benchSystem()
	host := s.Monitored(topology.RoleHadoop)
	var onoff float64
	var concurrent float64
	for i := 0; i < b.N; i++ {
		arr := analysis.NewArrivals(s.Topo.Addr(host), 15*netsim.Millisecond)
		conc := analysis.NewConcurrency(s.Topo, host, analysis.ConcurrencyWindow)
		baseline.Generate(s.Topo, host, 1, baseline.DefaultOnOffParams(),
			5*netsim.Second, workload.Fanout{workload.CollectorFunc(arr.Packet), workload.CollectorFunc(conc.Packet)})
		conc.Finish()
		onoff = arr.OnOffScore(15 * netsim.Millisecond)
		concurrent = conc.Hosts().Quantile(0.5)
	}
	printOnce("baseline", fmt.Sprintf(
		"Literature baseline: on/off empty-bin fraction %.2f, median concurrent hosts %.0f (<5 per [8])",
		onoff, concurrent))
	b.ReportMetric(100*onoff, "empty-bins-%")
	b.ReportMetric(concurrent, "concurrent-hosts-p50")
}

// BenchmarkTraceGeneration measures raw generator throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	s := benchSystem()
	n := int64(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bundle := s.Trace(topology.RoleWeb, s.Cfg.ShortTraceSec)
		n = bundle.Packets
	}
	b.ReportMetric(float64(n), "pkts-per-trace")
}

// BenchmarkExtension_Incast sweeps synchronized fan-in through the ToR —
// the microburst experiment the paper's methodology could not run (§7).
func BenchmarkExtension_Incast(b *testing.B) {
	s := benchSystem()
	var res *core.IncastResult
	for i := 0; i < b.N; i++ {
		res = s.ExtensionIncast([]int{1, 4, 16}, 64<<10, 256<<10)
	}
	printOnce("ext-incast", res.Render())
	last := res.Points[len(res.Points)-1]
	b.ReportMetric(last.QueuePeak, "peak-buffer-frac")
	b.ReportMetric(float64(last.Dropped), "drops")
}

// BenchmarkExtension_Oversubscription quantifies §4.4's "variable degrees
// of oversubscription" implication.
func BenchmarkExtension_Oversubscription(b *testing.B) {
	s := benchSystem()
	var res *core.OversubResult
	for i := 0; i < b.N; i++ {
		res = s.ExtensionOversubscription(topology.RoleHadoop, []float64{1, 10, 40}, 2)
	}
	printOnce("ext-oversub", res.Render())
	b.ReportMetric(res.Points[len(res.Points)-1].DropFrac, "drop-frac-at-40x")
}

// BenchmarkExtension_Fabric checks §4.3's claim that Fabric pods carry
// the same Frontend traffic structure as 4-post clusters.
func BenchmarkExtension_Fabric(b *testing.B) {
	s := benchSystem()
	var res *core.FabricResult
	for i := 0; i < b.N; i++ {
		res = s.ExtensionFabric()
	}
	printOnce("ext-fabric", res.Render())
	b.ReportMetric(res.Similarity, "matrix-cosine")
}

// BenchmarkSection52_HotObjects runs the §5.2 object-popularity model:
// top-50 stability across servers with minutes-scale membership churn.
func BenchmarkSection52_HotObjects(b *testing.B) {
	s := benchSystem()
	var res *core.Section52Result
	for i := 0; i < b.N; i++ {
		res = s.Section52()
	}
	printOnce("section52", res.Render())
	b.ReportMetric(res.MedianLifespanSec, "top50-lifespan-s")
	b.ReportMetric(res.CrossServerSimilarity, "cross-server-sim")
}

// BenchmarkBaseline_PacketTrains contrasts train lengths (Kapoor et al.
// [27]): literature traffic sends long same-destination trains; request
// multiplexing keeps Facebook-style trains short.
func BenchmarkBaseline_PacketTrains(b *testing.B) {
	s := benchSystem()
	host := s.Monitored(topology.RoleCacheFollower)
	addr := s.Topo.Addr(host)
	var fb, lit float64
	for i := 0; i < b.N; i++ {
		fbT := analysis.NewTrains(addr, netsim.Millisecond)
		litT := analysis.NewTrains(s.Topo.Addr(s.Monitored(topology.RoleHadoop)), netsim.Millisecond)
		baseline.Generate(s.Topo, s.Monitored(topology.RoleHadoop), 3,
			baseline.DefaultOnOffParams(), 3*netsim.Second, workload.CollectorFunc(litT.Packet))
		litT.Finish()
		// Short live window for the Facebook side.
		genTraceInto(s, topology.RoleCacheFollower, 3, fbT)
		fbT.Finish()
		fb = fbT.Lengths().Quantile(0.9)
		lit = litT.Lengths().Quantile(0.9)
	}
	printOnce("trains", fmt.Sprintf(
		"Packet trains (p90 length, 1-ms gap): Facebook-style %.0f vs literature %.0f pkts", fb, lit))
	b.ReportMetric(fb, "fb-train-p90")
	b.ReportMetric(lit, "lit-train-p90")
}

// BenchmarkEngineScheduling measures the event engine's schedule/dispatch
// hot path: batches of events pushed and drained through the heap. With
// the typed inlined heap this runs at zero heap allocations per event
// (the boxed container/heap implementation paid one interface{} box per
// Push); allocs/op verifies that.
func BenchmarkEngineScheduling(b *testing.B) {
	const batch = 1024
	var e netsim.Engine
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := e.Now()
		for j := 0; j < batch; j++ {
			// Reverse-sorted inserts with same-time ties: the worst case
			// for sift-up and a determinism stress for the seq tie-break.
			e.At(base+netsim.Time((batch-j)%97), fn)
		}
		e.Run(base + 100)
	}
	b.ReportMetric(batch, "events/op")
}

// BenchmarkFleetDataset_Parallel measures the sharded fleet collector at
// several worker widths. The output is bit-identical at every width (see
// TestFleetDatasetWorkerInvariance); only wall-clock may differ, and on a
// single-core host the widths should be within noise of each other — the
// scheduling layer must not cost anything when it cannot help.
func BenchmarkFleetDataset_Parallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.QuickConfig()
			cfg.Taggers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// Fresh System each iteration: FleetDataset memoizes.
				core.MustNewSystem(cfg).FleetDataset()
			}
		})
	}
}

var (
	pipeOnce    sync.Once
	pipeBatches [][]packet.Header
	pipeHost    topology.HostID
	pipeCount   int
)

// pipelineStream synthesizes (once per run) a canned ~1M-header monitored
// web-host stream, pre-split into collector-sized batches, so the analysis
// benchmark measures consumption only, never generation.
func pipelineStream(s *core.System) [][]packet.Header {
	pipeOnce.Do(func() {
		const batchLen = 512
		pipeHost = s.Monitored(topology.RoleWeb)
		var hdrs []packet.Header
		// ~15.5k headers/s at tiny scale: 65 s lands just over 2^20.
		genTraceInto(s, topology.RoleWeb, 65, workload.CollectorFunc(func(h packet.Header) {
			hdrs = append(hdrs, h)
		}))
		pipeCount = len(hdrs)
		for len(hdrs) > 0 {
			n := min(batchLen, len(hdrs))
			pipeBatches = append(pipeBatches, hdrs[:n])
			hdrs = hdrs[n:]
		}
	})
	return pipeBatches
}

// BenchmarkAnalysisPipeline measures the batched analysis consumers —
// packed-key flow table, heavy-hitter bins, locality series — over the
// canned million-header stream. This is the per-packet hot path the
// profile showed dominating the suite; allocs/op is the zero-allocation
// regression gate for it.
func BenchmarkAnalysisPipeline(b *testing.B) {
	s := benchSystem()
	batches := pipelineStream(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flows := analysis.NewFlows(s.Topo, pipeHost)
		hh := analysis.NewHeavyHitters(s.Topo, pipeHost, analysis.LevelFlow, netsim.Millisecond)
		loc := analysis.NewLocalitySeries(s.Topo, pipeHost)
		for _, batch := range batches {
			flows.Packets(batch)
			hh.Packets(batch)
			loc.Packets(batch)
		}
		hh.Finish()
	}
	b.ReportMetric(float64(pipeCount), "pkts/op")
}

// BenchmarkTelemetryFabric measures the fabric delivery hot path with
// telemetry detached — the nil-sink fast path every non-telemetry
// experiment rides — and with a rate-1 sink attached (full per-hop
// recording). The off arm is the regression gate (BENCH_PR5.json): the
// fabric must not pay for instrumentation it does not use; the sampled
// arm is reported for scale only.
func BenchmarkTelemetryFabric(b *testing.B) {
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	hosts := topo.NumHosts()
	run := func(b *testing.B, rate float64) {
		const pkts = 4096
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := &netsim.Engine{}
			f := netsim.NewFabric(eng, topo, netsim.DefaultFabricConfig())
			if rate > 0 {
				f.AttachTelemetry(telemetry.NewSink(42, rate))
			}
			for j := 0; j < pkts; j++ {
				src := topology.HostID(j % hosts)
				dst := topology.HostID((j*31 + 17) % hosts)
				if src == dst {
					dst = (dst + 1) % topology.HostID(hosts)
				}
				f.Inject(packet.Header{
					Key: packet.FlowKey{
						Src: topo.Addr(src), Dst: topo.Addr(dst),
						SrcPort: uint16(1024 + j), DstPort: 80, Proto: packet.TCP,
					},
					Size: 1500,
				})
			}
			eng.Run(netsim.Second)
		}
		b.ReportMetric(pkts, "pkts/op")
	}
	b.Run("off", func(b *testing.B) { run(b, 0) })
	b.Run("sampled", func(b *testing.B) { run(b, 1) })
}

// BenchmarkSuite_ParallelSpeedup times the full dataset prewarm (every
// trace bundle plus the fleet dataset — the dominant cost of the suite)
// sequentially and at GOMAXPROCS width, and reports the ratio. On a
// multi-core host this is the headline speedup; on one core it reports
// ~1.0, confirming the parallel path has no sequential regression.
func BenchmarkSuite_ParallelSpeedup(b *testing.B) {
	cfgSeq := core.QuickConfig()
	cfgSeq.Parallelism, cfgSeq.Taggers = 1, 1
	cfgPar := core.QuickConfig()
	cfgPar.Parallelism, cfgPar.Taggers = 0, 0 // GOMAXPROCS
	var seq, par time.Duration
	for i := 0; i < b.N; i++ {
		start := time.Now()
		core.MustNewSystem(cfgSeq).Prewarm()
		seq += time.Since(start)
		start = time.Now()
		core.MustNewSystem(cfgPar).Prewarm()
		par += time.Since(start)
	}
	if par > 0 {
		b.ReportMetric(seq.Seconds()/par.Seconds(), "speedup-x")
	}
	b.ReportMetric(float64(cfgPar.Workers()), "workers")
}

// genTraceInto synthesizes a short fresh trace of one role into sink.
func genTraceInto(s *core.System, role topology.Role, seconds int64, sink workload.Collector) {
	host := s.Monitored(role)
	tr := services.NewTrace(s.Pick, host, 77, services.DefaultParams(), sink)
	tr.Run(netsim.Time(seconds) * netsim.Second)
}

// BenchmarkExtension_DayOverDay checks §4.3's day-over-day stability with
// an independently seeded second day.
func BenchmarkExtension_DayOverDay(b *testing.B) {
	s := benchSystem()
	var res *core.DayOverDayResult
	for i := 0; i < b.N; i++ {
		res = s.DayOverDay()
	}
	printOnce("dayoverday", res.Render())
	b.ReportMetric(100*res.MaxLocalityDelta, "max-locality-delta-%")
	b.ReportMetric(res.MatrixSimilarity, "matrix-cosine")
}

// BenchmarkBaseline_AllToAll contrasts the literature's uniform
// worst-case model against the measured workloads: no locality at all.
func BenchmarkBaseline_AllToAll(b *testing.B) {
	s := benchSystem()
	host := s.Monitored(topology.RoleHadoop)
	var rackFrac float64
	for i := 0; i < b.N; i++ {
		var rackB, total float64
		baseline.GenerateAllToAll(s.Topo, host, 5, baseline.DefaultAllToAllParams(),
			2*netsim.Second, workload.CollectorFunc(func(h packet.Header) {
				dst, ok := s.Topo.HostByAddr(h.Key.Dst)
				total += float64(h.Size)
				if ok && s.Topo.HostRack(dst) == s.Topo.HostRack(host) {
					rackB += float64(h.Size)
				}
			}))
		rackFrac = rackB / total
	}
	printOnce("alltoall", fmt.Sprintf(
		"All-to-all baseline: %.1f%% rack-local (vs 39%%+ for measured Hadoop, 0%% for Web) — no locality to exploit",
		100*rackFrac))
	b.ReportMetric(100*rackFrac, "rack-local-%")
}

// BenchmarkSketchPipeline gates the sketch-mode packet path: one second
// of a web host's mirror trace is captured into a slab, then pushed
// through the sketch-backed flow tracker per iteration. Steady-state
// throughput and the fixed table-state footprint both ride in the
// BENCH_PR7.json benchdiff gate; the exact tracker's footprint over the
// same slab is reported alongside for the memory-ratio narrative (the
// enforced ≥2x bound lives in internal/sketcherr at large scale).
func BenchmarkSketchPipeline(b *testing.B) {
	s := benchSystem()
	host := s.Monitored(topology.RoleWeb)
	var slab []packet.Header
	tr := services.NewTrace(s.Pick, host, 7, s.Cfg.Params,
		workload.CollectorFunc(func(h packet.Header) { slab = append(slab, h) }))
	tr.Run(netsim.Second)
	if len(slab) == 0 {
		b.Fatal("capture produced no packets")
	}
	hh := analysis.NewHeavyTracker(s.Topo, host, analysis.LevelFlow, netsim.Millisecond, true)
	hh.Packets(slab) // warm: all bin rolls and buffer growth happen here
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hh.Packets(slab)
	}
	b.StopTimer()
	hh.Finish()
	exact := analysis.NewHeavyTracker(s.Topo, host, analysis.LevelFlow, netsim.Millisecond, false)
	exact.Packets(slab)
	exact.Finish()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(slab)), "ns/pkt")
	b.ReportMetric(float64(hh.MemoryBytes()), "sketch-bytes")
	b.ReportMetric(float64(exact.MemoryBytes()), "exact-bytes-info")
}
