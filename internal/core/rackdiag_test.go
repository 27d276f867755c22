package core

import (
	"fmt"
	"math"
	"testing"

	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/topology"
)

// TestRackDiagMatchesMatrixDiag: the digest's sparse diagonal,
// Dataset.RackDiag, equals matrixDiag over the dense RackMatrix bit for
// bit for every cluster: on fleet datasets at three scales in both
// collection modes, on an empty dataset, and on a dataset where every
// cluster but one has no source rows.
func TestRackDiagMatchesMatrixDiag(t *testing.T) {
	carried := 0
	check := func(name string, topo *topology.Topology, ds *fbflow.Dataset) {
		for c := range topo.Clusters {
			got, want := ds.RackDiag(topo, c), matrixDiag(ds.RackMatrix(topo, c))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s cluster %d: RackDiag %v (%#x), matrixDiag %v (%#x)",
					name, c, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if got != 0 {
				carried++
			}
		}
	}
	for _, sc := range []topology.Scale{topology.ScaleTiny, topology.ScaleSmall, topology.ScaleMedium} {
		for _, matrix := range []bool{false, true} {
			cfg := QuickConfig()
			cfg.Scale = sc
			cfg.FleetMatrix = matrix
			cfg.FleetWindows = 2
			s := MustNewSystem(cfg)
			check(fmt.Sprintf("%v matrix=%v", sc, matrix), s.Topo, s.FleetDataset())
		}
	}
	if carried == 0 {
		t.Fatal("no cluster had a non-zero diagonal; the comparison is vacuous")
	}

	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	check("empty", topo, fbflow.NewDataset())
	// One intra-rack flow in the first Hadoop cluster: its diagonal is 1,
	// and every other cluster has no source rows.
	rack := &topo.Racks[topo.Clusters[topo.ClustersOfType(topology.ClusterHadoop)[0]].Racks[0]]
	rec, ok := fbflow.NewTagger(topo).Flow(0, topo.Addr(rack.Host(0)), topo.Addr(rack.Host(1)), 700)
	if !ok {
		t.Fatal("intra-rack flow not tagged")
	}
	p := fbflow.NewPartial()
	p.Add(rec)
	ds := fbflow.NewDataset()
	ds.MergePartial(p)
	carried = 0
	check("one rack", topo, ds)
	if carried != 1 {
		t.Fatalf("%d clusters carry a diagonal, want 1", carried)
	}
}
