// Webfrontend walks the life of an HTTP request through a Frontend
// cluster (Figure 2 of the paper): SLB → Web server → cache/Multifeed
// fan-out → reply toward the edge, and shows how the cluster's bipartite
// Web↔cache traffic matrix (Figure 5b) emerges from role-homogeneous rack
// placement.
package main

import (
	"fmt"
	"log"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/core"
	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/render"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/services"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

func main() {
	sys, err := core.NewSystem(core.QuickConfig())
	if err != nil {
		log.Fatal(err)
	}
	topo := sys.Topo
	fe := topo.ClustersOfType(topology.ClusterFrontend)[0]

	// The cluster's composition: mostly Web racks, some cache racks, a
	// few Multifeed and SLB racks (§3.1: racks hold one role).
	counts := map[topology.Role]int{}
	for _, rid := range topo.Clusters[fe].Racks {
		counts[topo.Racks[rid].Role]++
	}
	fmt.Printf("Frontend cluster %d racks by role: ", fe)
	for _, r := range topology.Roles {
		if counts[r] > 0 {
			fmt.Printf("%v=%d ", r, counts[r])
		}
	}
	fmt.Println()

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

	// Build the cluster's rack-to-rack matrix from fleet-mode flows
	// through the Fbflow pipeline: the bipartite Web↔cache pattern.
	ds := fbflow.NewDataset()
	pipe := fbflow.NewPipeline(topo, 2, ds.Add)
	r := rng.New(1)
	prog := services.NewFleetProgram(sys.Pick, services.DefaultParams())
	for _, rid := range topo.Clusters[fe].Racks {
		for i := 0; i < int(topo.Racks[rid].NumHosts); i++ {
			h := topo.Racks[rid].Host(i)
			prog.Flows(r, h, 60, 1.0, 8,
				func(dst topology.HostID, bytes float64) {
					pipe.AddFlow(0, topo.Addr(h), topo.Addr(dst), bytes)
				})
		}
	}
	pipe.Close()
	fmt.Println()
	fmt.Print(render.Heatmap("Frontend rack-to-rack demand (Fig. 5b style; rows=src, cols=dst):",
		ds.RackMatrix(topo, fe)))
	fmt.Println("note the off-diagonal bands: Web racks talk to cache racks and vice versa,")
	fmt.Println("so almost nothing stays inside a rack — the paper's anti-rack-locality finding.")
}
