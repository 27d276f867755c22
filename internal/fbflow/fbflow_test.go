package fbflow

import (
	"bytes"
	"math"
	"testing"

	"fbdcnet/internal/packet"
	"fbdcnet/internal/topology"
)

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	return topology.MustBuild(topology.Preset(topology.ScaleTiny))
}

// flow is one flow-granularity observation: bytes from src to dst
// during a capture minute.
type flow struct {
	minute   int64
	src, dst packet.Addr
	bytes    float64
}

// ingest tags each observation with Tagger.Flow, folds the records into
// one Partial and merges it into a fresh Dataset: the fleet collector's
// record path. Observations the tagger rejects are dropped.
func ingest(topo *topology.Topology, obs ...flow) *Dataset {
	tagger := NewTagger(topo)
	p := NewPartial()
	for _, o := range obs {
		if r, ok := tagger.Flow(o.minute, o.src, o.dst, o.bytes); ok {
			p.Add(r)
		}
	}
	ds := NewDataset()
	ds.MergePartial(p)
	return ds
}

func TestAgentSamplingRate(t *testing.T) {
	topo := testTopo(t)
	p := NewPartial()
	a := NewAgent(NewTagger(topo), p, 100, 42, func() int64 { return 0 })

	h := packet.Header{
		Key:  packet.FlowKey{Src: topo.Addr(0), Dst: topo.Addr(5), Proto: packet.TCP},
		Size: 200,
	}
	const n = 1_000_000
	for i := 0; i < n; i++ {
		a.Packet(h)
	}
	ds := NewDataset()
	ds.MergePartial(p)

	// Each 1:100 sample carries weight 100, so the estimate is within 5%
	// exactly when the sampled count is, and it must be unbiased.
	est := ds.TotalBytes()
	trueBytes := float64(n) * 200
	if math.Abs(est-trueBytes) > trueBytes*0.05 {
		t.Fatalf("byte estimate %v, want ≈%v", est, trueBytes)
	}
}

func TestTaggerAnnotation(t *testing.T) {
	topo := testTopo(t)
	src, dst := topo.Host(0), topo.Host(5)
	r, ok := NewTagger(topo).Flow(7, src.Addr, dst.Addr, 1234)
	if !ok {
		t.Fatal("tagger rejected an in-topology flow")
	}
	if int(r.SrcRack) != src.Rack || int(r.DstRack) != dst.Rack {
		t.Error("rack annotation wrong")
	}
	if int(r.SrcCluster) != src.Cluster || int(r.SrcDC) != src.Datacenter {
		t.Error("cluster/DC annotation wrong")
	}
	if r.SrcRole != src.Role || r.DstRole != dst.Role {
		t.Error("role annotation wrong")
	}
	if r.SrcClusterType != topo.Clusters[src.Cluster].Type {
		t.Error("cluster type annotation wrong")
	}
	if r.Locality != topo.Locality(src.ID, dst.ID) {
		t.Error("locality annotation wrong")
	}
	if r.Bytes != 1234 || r.Minute != 7 {
		t.Errorf("bytes/minute wrong: %+v", r)
	}
}

func TestUnknownAddressDropped(t *testing.T) {
	topo := testTopo(t)
	tagger := NewTagger(topo)
	unknown := packet.Addr(1 << 30)
	if _, ok := tagger.Flow(0, unknown, topo.Addr(0), 100); ok {
		t.Fatal("tagger accepted an unknown source address")
	}
	if _, ok := tagger.Flow(0, topo.Addr(0), unknown, 100); ok {
		t.Fatal("tagger accepted an unknown destination address")
	}
	// An agent sampling every packet drops what the tagger rejects.
	p := NewPartial()
	a := NewAgent(tagger, p, 1, 1, func() int64 { return 0 })
	a.Packet(packet.Header{Key: packet.FlowKey{Src: unknown, Dst: topo.Addr(0)}, Size: 100})
	ds := NewDataset()
	ds.MergePartial(p)
	if ds.TotalBytes() != 0 {
		t.Fatal("record with unknown address not dropped")
	}
}

func TestDatasetLocalityShares(t *testing.T) {
	topo := testTopo(t)
	// One intra-rack and one inter-DC flow from the same Hadoop host.
	hadoop := topo.HostsByRole(topology.RoleHadoop)[0]
	rack := topo.Racks[topo.HostRack(hadoop)]
	same := rack.Host(1)
	far := topo.Host(topology.HostID(topo.NumHosts() - 1)) // other site
	ds := ingest(topo, flow{0, topo.Addr(hadoop), topo.Addr(same), 300}, flow{0, topo.Addr(hadoop), far.Addr, 700})

	share := ds.LocalityShare(topology.ClusterHadoop)
	if math.Abs(share[topology.IntraRack]-0.3) > 1e-9 {
		t.Errorf("intra-rack share %v", share[topology.IntraRack])
	}
	if math.Abs(share[topology.InterDatacenter]-0.7) > 1e-9 {
		t.Errorf("inter-DC share %v", share[topology.InterDatacenter])
	}
	all := ds.LocalityShareAll()
	sum := 0.0
	for _, v := range all {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("all shares sum to %v", sum)
	}
	ts := ds.TrafficShare()
	if math.Abs(ts[topology.ClusterHadoop]-1) > 1e-9 {
		t.Errorf("traffic share %v", ts)
	}
}

func TestDatasetRackMatrix(t *testing.T) {
	topo := testTopo(t)
	cl := topo.ClustersOfType(topology.ClusterHadoop)[0]
	racks := topo.Clusters[cl].Racks
	src := topo.Racks[racks[0]].Host(0)
	dst := topo.Racks[racks[1]].Host(0)
	ds := ingest(topo, flow{0, topo.Addr(src), topo.Addr(dst), 500})

	m := ds.RackMatrix(topo, cl)
	if m[0][1] != 500 {
		t.Fatalf("matrix[0][1] = %v", m[0][1])
	}
	if m[1][0] != 0 {
		t.Fatal("matrix should be directional")
	}
}

func TestDatasetClusterMatrixAndCrossCounters(t *testing.T) {
	topo := testTopo(t)
	dc := topo.Datacenters[0]
	c0, c1 := dc.Clusters[0], dc.Clusters[1]
	src := topo.Racks[topo.Clusters[c0].Racks[0]].Host(0)
	dst := topo.Racks[topo.Clusters[c1].Racks[0]].Host(0)
	ds := ingest(topo, flow{0, topo.Addr(src), topo.Addr(dst), 800})

	m := ds.ClusterMatrix([]int{c0, c1})
	if m[0][1] != 800 {
		t.Fatalf("cluster matrix = %v", m)
	}
	if got, _ := ds.HostOut().At(int(src)); got != 800 {
		t.Fatalf("host out = %v", got)
	}
	if got, _ := ds.RackCross().At(topo.HostRack(src)); got != 800 {
		t.Fatalf("rack cross = %v", got)
	}
	if got, _ := ds.ClusterCross().At(c0); got != 800 {
		t.Fatalf("cluster cross = %v", got)
	}
}

func TestIntraRackNotCountedAsCross(t *testing.T) {
	topo := testTopo(t)
	rack := topo.Racks[0]
	ds := ingest(topo, flow{0, topo.Host(rack.Host(0)).Addr, topo.Host(rack.Host(1)).Addr, 100})
	if rc := ds.RackCross(); present(&rc) != 0 {
		t.Fatal("intra-rack traffic counted as rack-crossing")
	}
	if cc := ds.ClusterCross(); present(&cc) != 0 {
		t.Fatal("intra-rack traffic counted as cluster-crossing")
	}
}

func TestPerMinuteSeries(t *testing.T) {
	topo := testTopo(t)
	var obs []flow
	for m := int64(0); m < 5; m++ {
		obs = append(obs, flow{m, topo.Addr(0), topo.Addr(5), float64(100 * (m + 1))})
	}
	ds := ingest(topo, obs...)
	series := ds.PerMinute()
	if len(series) != 5 {
		t.Fatalf("minutes %d", len(series))
	}
	if series[2] != 300 {
		t.Fatalf("minute 2 = %v", series[2])
	}
}

func TestEmptyDatasetQueries(t *testing.T) {
	ds := NewDataset()
	if len(ds.LocalityShareAll()) != 0 || len(ds.TrafficShare()) != 0 {
		t.Fatal("empty dataset returned shares")
	}
	if len(ds.LocalityShare(topology.ClusterHadoop)) != 0 {
		t.Fatal("empty dataset returned per-type shares")
	}
}

func TestDatasetSaveLoadRoundTrip(t *testing.T) {
	topo := testTopo(t)
	// Build a dataset with every aggregate populated.
	hadoop := topo.HostsByRole(topology.RoleHadoop)[0]
	rackPeer := topo.Racks[topo.HostRack(hadoop)].Host(1)
	far := topo.Host(topology.HostID(topo.NumHosts() - 1))
	var obs []flow
	for m := int64(0); m < 3; m++ {
		obs = append(obs, flow{m, topo.Addr(hadoop), topo.Addr(rackPeer), 100}, flow{m, topo.Addr(hadoop), far.Addr, 900})
	}
	ds := ingest(topo, obs...)

	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalBytes() != ds.TotalBytes() {
		t.Fatalf("total %v vs %v", got.TotalBytes(), ds.TotalBytes())
	}
	a, b := ds.LocalityShareAll(), got.LocalityShareAll()
	for l, v := range a {
		if math.Abs(b[l]-v) > 1e-12 {
			t.Fatalf("locality %v diverged: %v vs %v", l, b[l], v)
		}
	}
	am, bm := ds.PerMinute(), got.PerMinute()
	if len(am) != len(bm) {
		t.Fatalf("minutes %d vs %d", len(bm), len(am))
	}
	for k, v := range am {
		if bm[k] != v {
			t.Fatalf("minute %d: %v vs %v", k, bm[k], v)
		}
	}
	ra, rb := ds.RackMatrix(topo, topo.HostCluster(hadoop)), got.RackMatrix(topo, topo.HostCluster(hadoop))
	for i := range ra {
		for j := range ra[i] {
			if ra[i][j] != rb[i][j] {
				t.Fatalf("rack matrix [%d][%d] diverged", i, j)
			}
		}
	}
	ha, _ := got.HostOut().At(int(hadoop))
	hb, _ := ds.HostOut().At(int(hadoop))
	if ha != hb {
		t.Fatal("host out diverged")
	}
	ra2, _ := got.RackCross().At(topo.HostRack(hadoop))
	rb2, _ := ds.RackCross().At(topo.HostRack(hadoop))
	if ra2 != rb2 {
		t.Fatal("rack cross diverged")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not json"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"version": 99}`))); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := Load(bytes.NewReader([]byte(`{"version":1,"rack_pair":{"bad":1}}`))); err == nil {
		t.Fatal("bad pair key accepted")
	}
}
