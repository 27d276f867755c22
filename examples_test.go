package fbdcnet_test

import (
	"fmt"
	"strings"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/baseline"
	"fbdcnet/internal/core"
	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/render"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/services"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// Example_quickstart builds a small synthetic Facebook-style datacenter,
// captures ten seconds of one Web server's traffic, and prints where its
// bytes go: the smallest end-to-end use of the library.
func Example_quickstart() {
	// 1. Build the datacenter: sites → buildings → clusters → racks.
	sys := core.MustNewSystem(core.QuickConfig())
	fmt.Printf("built fleet: %d hosts in %d racks, %d clusters, %d datacenters\n",
		sys.Topo.NumHosts(), len(sys.Topo.Racks), len(sys.Topo.Clusters), len(sys.Topo.Datacenters))

	// 2. Pick a monitored Web server and attach streaming analyses, the
	// way the paper attached a port mirror plus offline analysis.
	web := sys.Monitored(topology.RoleWeb)
	mix := analysis.NewServiceMix(sys.Topo, web)
	loc := analysis.NewLocalitySeries(sys.Topo, web)
	sizes := analysis.NewPacketSizes()

	// 3. Generate ten seconds of the Web server's bidirectional traffic.
	tr := services.NewTrace(sys.Pick, web, 1, services.DefaultParams(),
		workload.Fanout{mix, loc, sizes})
	tr.Run(10 * netsim.Second)
	fmt.Printf("captured %d packet headers from Web host %d\n\n", tr.Emitted(), web)

	// 4. Report: destination service mix (Table 2 style) ...
	fmt.Println("outbound bytes by destination service:")
	for _, role := range topology.Roles {
		if share := mix.Share()[role]; share > 0.001 {
			fmt.Printf("  %-8s %5s%%\n", role, render.Pct(share))
		}
	}

	// ... and locality (Figure 4 style).
	fmt.Println("outbound bytes by locality:")
	for _, l := range topology.Localities {
		fmt.Printf("  %-17s %5s%%\n", l, render.Pct(loc.Share()[l]))
	}
	fmt.Printf("median packet size: %.0f bytes (the paper's <200 B finding)\n",
		sizes.Sample().Quantile(0.5))

	// Output:
	// built fleet: 486 hosts in 81 racks, 15 clusters, 3 datacenters
	// captured 156324 packet headers from Web host 0
	//
	// outbound bytes by destination service:
	//   Cache-f   59.4%
	//   MF        13.0%
	//   SLB        4.3%
	//   Rest      23.3%
	// outbound bytes by locality:
	//   Intra-Rack          0.0%
	//   Intra-Cluster      76.7%
	//   Intra-Datacenter   16.8%
	//   Inter-Datacenter    6.5%
	// median packet size: 74 bytes (the paper's <200 B finding)
}

// Example_webfrontend walks the life of an HTTP request through a
// Frontend cluster (Figure 2 of the paper): SLB → Web server →
// cache/Multifeed fan-out → reply toward the edge, and shows how the
// cluster's bipartite Web↔cache traffic matrix (Figure 5b) emerges from
// role-homogeneous rack placement.
func Example_webfrontend() {
	sys := core.MustNewSystem(core.QuickConfig())
	topo := sys.Topo
	fe := topo.ClustersOfType(topology.ClusterFrontend)[0]

	// The cluster's composition: mostly Web racks, some cache racks, a
	// few Multifeed and SLB racks (§3.1: racks hold one role).
	counts := map[topology.Role]int{}
	for _, rid := range topo.Clusters[fe].Racks {
		counts[topo.Racks[rid].Role]++
	}
	var comp []string
	for _, r := range topology.Roles {
		if counts[r] > 0 {
			comp = append(comp, fmt.Sprintf("%v=%d", r, counts[r]))
		}
	}
	fmt.Printf("Frontend cluster %d racks by role: %s\n", fe, strings.Join(comp, " "))

	// Trace one Web server and one cache follower for 15 seconds and
	// reproduce their Table 2 rows.
	for _, role := range []topology.Role{topology.RoleWeb, topology.RoleCacheFollower} {
		host := sys.Monitored(role)
		mix := analysis.NewServiceMix(topo, host)
		arr := analysis.NewArrivals(topo.Addr(host))
		tr := services.NewTrace(sys.Pick, host, 7, services.DefaultParams(), workload.Fanout{mix, arr})
		tr.Run(15 * netsim.Second)
		fmt.Printf("\n%s host %d: %d packets, %d new flows\n", role, host, tr.Emitted(), arr.SYNCount())
		for _, dst := range topology.Roles {
			if share := mix.Share()[dst]; share > 0.005 {
				fmt.Printf("  → %-8s %5s%%\n", dst, render.Pct(share))
			}
		}
	}

	// Build the cluster's rack-to-rack matrix from fleet-mode flows,
	// tagged into a Partial and merged into a Dataset as the fleet
	// collector does: the bipartite Web↔cache pattern.
	tagger := fbflow.NewTagger(topo)
	part := fbflow.NewPartial()
	r := rng.New(1)
	prog := services.NewFleetProgram(sys.Pick, services.DefaultParams())
	for _, rid := range topo.Clusters[fe].Racks {
		for i := 0; i < int(topo.Racks[rid].NumHosts); i++ {
			h := topo.Racks[rid].Host(i)
			prog.Flows(r, h, 60, 1.0, 8,
				func(dst topology.HostID, bytes float64) {
					if rec, ok := tagger.Flow(0, topo.Addr(h), topo.Addr(dst), bytes); ok {
						part.Add(rec)
					}
				})
		}
	}
	ds := fbflow.NewDataset()
	ds.MergePartial(part)
	fmt.Println()
	heat := render.Heatmap("Frontend rack-to-rack demand (Fig. 5b style; rows=src, cols=dst):",
		ds.RackMatrix(topo, fe))
	for _, line := range strings.Split(strings.TrimSuffix(heat, "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Println("note the off-diagonal bands: Web racks talk to cache racks and vice versa,")
	fmt.Println("so almost nothing stays inside a rack — the paper's anti-rack-locality finding.")

	// Output:
	// Frontend cluster 0 racks by role: Web=8 Cache-f=2 MF=1 SLB=1
	//
	// Web host 0: 230799 packets, 5306 new flows
	//   → Cache-f   59.3%
	//   → MF        12.3%
	//   → SLB        4.3%
	//   → Rest      24.1%
	//
	// Cache-f host 48: 413625 packets, 2937 new flows
	//   → Web       91.5%
	//   → Cache-l    4.2%
	//   → Rest       4.3%
	//
	// Frontend rack-to-rack demand (Fig. 5b style; rows=src, cols=dst):
	//         #*+:
	//         #*+:
	//         #*+:
	//         *#+:
	//         #*+:
	//         *#+:
	//         #*+:
	//         #*+:
	// %=##%*##
	// =*#%@*%*
	// *++++*#*
	// :...:.::
	// scale: min>0 14.2M  max 387.6M (log shading)
	// note the off-diagonal bands: Web racks talk to cache racks and vice versa,
	// so almost nothing stays inside a rack — the paper's anti-rack-locality finding.
}

// Example_hadoopsort watches a Hadoop node across job phases: quiet
// computation with only control traffic, then busy shuffle/output
// periods of short heavy-tailed transfers that stay inside the rack and
// cluster — the one workload in the paper that matches the prior
// literature (§4.2, Figs. 4a, 6c, 12, 13).
func Example_hadoopsort() {
	sys := core.MustNewSystem(core.QuickConfig())
	host := sys.Monitored(topology.RoleHadoop)

	loc := analysis.NewLocalitySeries(sys.Topo, host)
	flows := analysis.NewFlows(sys.Topo, host)
	sizes := analysis.NewPacketSizes()
	arr := analysis.NewArrivals(sys.Topo.Addr(host), 100*netsim.Millisecond)

	p := services.DefaultParams()
	// Shorter phases so a 40-second run shows several busy/quiet cycles.
	p.HadoopBusyMeanSec, p.HadoopQuietMeanSec = 5, 7
	tr := services.NewTrace(sys.Pick, host, 3, p, workload.Fanout{loc, flows, sizes, arr})
	tr.Run(40 * netsim.Second)
	fmt.Printf("hadoop host %d: %d packets, %d flows over 40s\n\n", host, tr.Emitted(), flows.Count())

	fmt.Println("per-100ms packet arrivals (phases visible as quiet stretches):")
	fmt.Printf("  %s\n\n", render.Sparkline(arr.Bins(100*netsim.Millisecond)))

	fmt.Println("outbound locality (the paper's only rack-heavy service):")
	for _, l := range topology.Localities {
		fmt.Printf("  %-17s %5s%%\n", l, render.Pct(loc.Share()[l]))
	}

	_, sizeAll := flows.SizeCDF()
	_, durAll := flows.DurationCDF()
	fmt.Printf("\nflow sizes (KB):     %s\n", render.Quantiles(sizeAll))
	fmt.Printf("flow durations (ms): %s\n", render.Quantiles(durAll))
	fmt.Printf("flows under 10 KB: %.0f%% (paper: ≈70%%)\n", 100*sizeAll.FracBelow(10))

	s := sizes.Sample()
	bimodal := s.FracBelow(100) + (1 - s.FracBelow(1400))
	fmt.Printf("packet sizes: %.0f%% are ACK- or MTU-sized (the paper's bimodal Fig. 12)\n",
		100*bimodal)

	// Output:
	// hadoop host 72: 4512895 packets, 5352 flows over 40s
	//
	// per-100ms packet arrivals (phases visible as quiet stretches):
	//   ▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▁▂▂▁▂▂▁▂▃▄▃▃▃▅▆▅▅▅▅▄▄▄▄▄▃▄▄▃▄▃▃▃▃▃▃▂▂▃▃▂▂▂▂▂▂▂▂▂▂▂▂▂▂▃▄▄▅▅▅▄▅▅▄▄▅▅▆▆▅▆▆▆▇▇▇▆▆▇▇▇▇▇▆▆▇▆▆▆▇▇▆▆▆▆▇▆▇█▆▆▅▅▄▅▄▃▃▃▄▄▃▃▄▃▃▃▃▃▃▃▃▃▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▁▁▁▁▂▂▁▁▁▁▂▁▂▁▁▁▁▁▂▁▂▂▂▂▃▃▃▄▄▄▄▄▄▄▄▅▆▅▅▅▆▅▄▄▃▃▃▃▃▃▃▃▃▃▄▄▅▅▅▅▆▅▅▆▅▆▅▆▆▆▆▆▅▅▅▅▅▅▅▅▅▆▆▅▆▆▆▆▆▆▅▅▅▅▆▆▆▆▆▆▆▆▆▆▇▆▆▆▇▇▇▇▆▇▆▆▆▆▆▆▅▆▅▅▅▄▄▄▄▄▄▃▄▃▃▄▃▄▄▃▃▃▃▃▃▃▃▃▃▃▃▃▃▃▃▄▃▃▃▃▃▃▃▃▃▃▃▃▃▃▃▃▃▃▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂▂
	//
	// outbound locality (the paper's only rack-heavy service):
	//   Intra-Rack         60.1%
	//   Intra-Cluster      39.9%
	//   Intra-Datacenter    0.0%
	//   Inter-Datacenter    0.0%
	//
	// flow sizes (KB):     n=5352 p10=0.6 p50=1.3 p90=83.6 p99=21.5k
	// flow durations (ms): n=5352 p10=0.4 p50=1.8 p90=9.4 p99=2.6k
	// flows under 10 KB: 81% (paper: ≈70%)
	// packet sizes: 98% are ACK- or MTU-sized (the paper's bimodal Fig. 12)
}

// Example_trafficeng asks the question of §5: can a traffic engineering
// system that identifies heavy hitters and treats them specially work on
// this workload? It measures heavy-hitter persistence at three
// aggregation levels and bin widths on a cache follower, compares
// against the literature's on/off workload where heavy hitters ARE
// stable, and prints the §5.4 verdict.
func Example_trafficeng() {
	sys := core.MustNewSystem(core.QuickConfig())
	host := sys.Monitored(topology.RoleCacheFollower)
	const seconds = 20

	// One heavy-hitter sink tracks every (level, bin) pair.
	levels := analysis.Levels
	bins := []netsim.Time{netsim.Millisecond, 10 * netsim.Millisecond, 100 * netsim.Millisecond}
	hh := analysis.NewHeavyGroup(sys.Topo, host, levels, bins)
	services.NewTrace(sys.Pick, host, 11, services.DefaultParams(), hh).
		Run(seconds * netsim.Second)
	hh.Finish()

	fmt.Println("cache follower: median % of heavy hitters persisting into the next interval")
	fmt.Printf("%-8s %10s %10s %10s\n", "level", "1ms", "10ms", "100ms")
	for _, lvl := range levels {
		fmt.Printf("%-8s", lvl)
		for _, bin := range bins {
			fmt.Printf(" %9.0f%%", hh.Tracker(lvl, bin).Persistence().Quantile(0.5))
		}
		fmt.Println()
	}

	rack100 := hh.Tracker(analysis.LevelRack, 100*netsim.Millisecond).Persistence().Quantile(0.5)
	flow1 := hh.Tracker(analysis.LevelFlow, netsim.Millisecond).Persistence().Quantile(0.5)
	fmt.Printf("\nonly rack-level 100-ms heavy hitters (%.0f%%) clear the 35%% predictability\n", rack100)
	fmt.Printf("bar prior work set for TE; flow-level 1-ms heavy hitters (%.0f%%) do not.\n\n", flow1)

	// Contrast: the literature's workload, where a handful of large
	// stable flows make heavy hitters trivially predictable.
	bl := analysis.NewHeavyHitters(sys.Topo, host, analysis.LevelFlow, 100*netsim.Millisecond)
	baseline.Generate(sys.Topo, host, 11, baseline.DefaultOnOffParams(),
		seconds/2*netsim.Second, workload.CollectorFunc(bl.Packet))
	bl.Finish()
	fmt.Printf("literature baseline flow-level persistence @100ms: %.0f%% — the regime\n",
		bl.Persistence().Quantile(0.5))
	fmt.Println("Hedera/MicroTE-style schemes were designed for. Facebook's load-balanced")
	fmt.Println("cache traffic removes that signal: heavy hitters are barely heavier than")
	fmt.Println("the median flow and churn every interval (§5.4).")

	// Output:
	// cache follower: median % of heavy hitters persisting into the next interval
	// level           1ms       10ms      100ms
	// Flows            0%         0%        24%
	// Hosts            0%        14%        37%
	// Racks            0%        33%        50%
	//
	// only rack-level 100-ms heavy hitters (50%) clear the 35% predictability
	// bar prior work set for TE; flow-level 1-ms heavy hitters (0%) do not.
	//
	// literature baseline flow-level persistence @100ms: 100% — the regime
	// Hedera/MicroTE-style schemes were designed for. Facebook's load-balanced
	// cache traffic removes that signal: heavy hitters are barely heavier than
	// the median flow and churn every interval (§5.4).
}
