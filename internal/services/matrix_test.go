package services

import (
	"slices"
	"testing"

	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
)

func matrixFixture(t testing.TB, sc topology.Scale) (*topology.Topology, *MatrixProgram) {
	t.Helper()
	topo, err := topology.Build(topology.Preset(sc))
	if err != nil {
		t.Fatal(err)
	}
	return topo, NewMatrixProgram(NewPicker(topo), DefaultParams())
}

// TestMatrixSynthDeterministic pins the determinism contract: the same
// (seed, rack block) stream produces an identical cell sequence — keys
// and values — on every run, including runs against a freshly built
// matrix versus a Reset-reused one.
func TestMatrixSynthDeterministic(t *testing.T) {
	topo, mp := matrixFixture(t, topology.ScaleSmall)
	type cell struct {
		k uint64
		v float64
	}
	collect := func(m *DemandMatrix) []cell {
		r := rng.NewKeyed(7, 0, 0)
		m.Reset()
		mp.Synth(r, 0, len(topo.Racks), 10, 1.0, m)
		var cs []cell
		var flows []cell
		mp.DrawFlows(r, m, func(src, dst topology.HostID, bytes float64) {
			flows = append(flows, cell{uint64(src)<<32 | uint64(dst), bytes})
		})
		m.cells.Range(func(k uint64, v *float64) { cs = append(cs, cell{k, *v}) })
		return append(cs, flows...)
	}
	fresh := collect(NewDemandMatrix())
	if len(fresh) == 0 {
		t.Fatal("synthesis produced no demand cells")
	}
	reused := NewDemandMatrix()
	collect(reused) // dirty it, then rely on Reset inside collect
	again := collect(reused)
	if len(again) != len(fresh) {
		t.Fatalf("cell count %d on reused matrix, want %d", len(again), len(fresh))
	}
	for i := range fresh {
		if fresh[i] != again[i] {
			t.Fatalf("cell %d: %+v on reused matrix, want %+v", i, again[i], fresh[i])
		}
	}
}

// TestMatrixSelfFlowRedirect checks DrawFlows never emits a loopback
// flow from a multi-host rack.
func TestMatrixSelfFlowRedirect(t *testing.T) {
	topo, mp := matrixFixture(t, topology.ScaleTiny)
	r := rng.NewKeyed(3, 1, 0)
	m := NewDemandMatrix()
	mp.Synth(r, 0, len(topo.Racks), 10, 1.0, m)
	n := 0
	mp.DrawFlows(r, m, func(src, dst topology.HostID, bytes float64) {
		n++
		if src == dst {
			t.Fatalf("self flow emitted for host %d", src)
		}
		if bytes <= 0 {
			t.Fatalf("non-positive flow %v from %d to %d", bytes, src, dst)
		}
	})
	if n == 0 {
		t.Fatal("no flows drawn")
	}
}

// TestMatrixSteadyStateAllocs pins the buffer-reuse contract: once the
// demand matrix has grown to its steady-state capacity, a full
// Reset+Synth+DrawFlows cycle allocates nothing.
func TestMatrixSteadyStateAllocs(t *testing.T) {
	topo, mp := matrixFixture(t, topology.ScaleSmall)
	m := NewDemandMatrix()
	r := rng.NewKeyed(11, 0, 0)
	cycle := func() {
		m.Reset()
		mp.Synth(r, 0, len(topo.Racks), 10, 1.0, m)
		mp.DrawFlows(r, m, func(src, dst topology.HostID, bytes float64) {})
	}
	cycle() // warm-up growth
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("steady-state matrix cycle allocates %v times per run, want 0", allocs)
	}
}

// drawTopos returns the topologies the packing draws are checked on: the
// small preset, whose three datacenters give the remote scope two rack
// ranges from the middle one, and a three-datacenter config whose racks
// differ in size within every role, so the position lookup takes its
// binary search and packing reads each rack's own capacity.
func drawTopos(t *testing.T) map[string]*topology.Topology {
	t.Helper()
	dc := func(hpr int) topology.DatacenterSpec {
		return topology.DatacenterSpec{Clusters: []topology.ClusterSpec{
			{Type: topology.ClusterFrontend, Racks: 4, HostsPerRack: hpr},
			{Type: topology.ClusterHadoop, Racks: 3, HostsPerRack: hpr + 1},
			{Type: topology.ClusterService, Racks: 2, HostsPerRack: hpr},
			{Type: topology.ClusterCache, Racks: 2, HostsPerRack: hpr + 2},
			{Type: topology.ClusterDB, Racks: 2, HostsPerRack: hpr},
		}}
	}
	mixed := topology.Config{Sites: []topology.SiteSpec{
		{Datacenters: []topology.DatacenterSpec{dc(3), dc(5)}},
		{Datacenters: []topology.DatacenterSpec{dc(2)}},
	}}
	return map[string]*topology.Topology{
		"small": topology.MustBuild(topology.Preset(topology.ScaleSmall)),
		"mixed": topology.MustBuild(mixed),
	}
}

// refDrawRack is drawRack as a binary search over the range's own rack
// subrange of RoleCum, the form the position lookup replaced.
func refDrawRack(topo *topology.Topology, r *rng.Source, rr *rackRange) int {
	cum := topo.RoleCum(rr.role)
	u := int32(r.Uint64n(uint64(rr.totalHosts())))
	var pos int32
	lo, hi := rr.lo1, rr.hi1
	if u < rr.hosts1 {
		pos = cum[rr.lo1] + u
	} else {
		pos = cum[rr.lo2] + (u - rr.hosts1)
		lo, hi = rr.lo2, rr.hi2
	}
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if cum[mid] <= pos {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// TestMatrixDrawRackMatchesSearch: seeded drawRack draws equal the
// reference binary search for every scope, role and source rack,
// including the two-range remote scope, and leave the stream at the same
// position.
func TestMatrixDrawRackMatchesSearch(t *testing.T) {
	const draws = 64
	for name, topo := range drawTopos(t) {
		mp := NewMatrixProgram(NewPicker(topo), DefaultParams())
		twoRange := 0
		for _, scope := range []dstScope{scopeRack, scopeCluster, scopeDC, scopeRemote, scopeFleet} {
			for _, role := range topology.Roles {
				for rk := range topo.Racks {
					rr := mp.resolve(scope, role, &topo.Racks[rk])
					if rr.totalHosts() == 0 {
						continue
					}
					if rr.hosts1 > 0 && rr.hosts2 > 0 {
						twoRange++
					}
					ra, rb := rng.NewKeyed(5, uint64(rk), uint64(scope)), rng.NewKeyed(5, uint64(rk), uint64(scope))
					for d := 0; d < draws; d++ {
						if got, want := mp.drawRack(ra, &rr), refDrawRack(topo, rb, &rr); got != want {
							t.Fatalf("%s scope %d %v from rack %d, draw %d: rack index %d, reference %d",
								name, scope, role, rk, d, got, want)
						}
					}
					if ra.Uint64() != rb.Uint64() {
						t.Fatalf("%s scope %d %v from rack %d: streams diverge", name, scope, role, rk)
					}
				}
			}
		}
		if twoRange == 0 {
			t.Fatalf("%s: no remote range has two rack subranges", name)
		}
	}
}

// TestMatrixReuseAcrossWindows: synthesizing window after window into
// one Reset matrix gives the cells a fresh matrix gets for each window,
// so Reset clears the packing residuals as well as the cells.
func TestMatrixReuseAcrossWindows(t *testing.T) {
	type cell struct {
		src, dst int32
		bytes    float64
	}
	synth := func(topo *topology.Topology, mp *MatrixProgram, w uint64, m *DemandMatrix) []cell {
		m.Reset()
		mp.Synth(rng.NewKeyed(9, w, 0), 0, len(topo.Racks), 10, 1.0, m)
		var cs []cell
		m.EachCell(func(src, dst int32, bytes float64) { cs = append(cs, cell{src, dst, bytes}) })
		return cs
	}
	for name, topo := range drawTopos(t) {
		mp := NewMatrixProgram(NewPicker(topo), DefaultParams())
		reused := NewDemandMatrix()
		for w := uint64(0); w < 4; w++ {
			fresh := synth(topo, mp, w, NewDemandMatrix())
			got := synth(topo, mp, w, reused)
			if len(fresh) == 0 {
				t.Fatalf("%s window %d: no demand cells", name, w)
			}
			if !slices.Equal(got, fresh) {
				t.Fatalf("%s window %d: reused matrix has %d cells, fresh %d, or they differ", name, w, len(got), len(fresh))
			}
		}
	}
}
