package services

import (
	"slices"
	"testing"

	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

func testTopo(t *testing.T) (*topology.Topology, *Picker) {
	t.Helper()
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	pk := NewPicker(topo)
	if err := pk.Validate(); err != nil {
		t.Fatal(err)
	}
	return topo, pk
}

// firstOfRole finds a monitored host of the given role.
func firstOfRole(t *testing.T, topo *topology.Topology, r topology.Role) topology.HostID {
	t.Helper()
	hs := topo.HostsByRole(r)
	if len(hs) == 0 {
		t.Fatalf("no hosts of role %v", r)
	}
	return hs[0]
}

type trace struct {
	hdrs []packet.Header
}

func (tr *trace) Packet(h packet.Header) { tr.hdrs = append(tr.hdrs, h) }

// runTrace generates dur seconds of traffic for one host of role r.
func runTrace(t *testing.T, r topology.Role, seconds int64, p Params) (*trace, *topology.Topology, topology.HostID) {
	t.Helper()
	topo, pk := testTopo(t)
	host := firstOfRole(t, topo, r)
	tr := &trace{}
	NewTrace(pk, host, 12345, p, tr).Run(seconds * netsim.Second)
	if len(tr.hdrs) == 0 {
		t.Fatalf("role %v generated no packets", r)
	}
	return tr, topo, host
}

type cachedTrace struct {
	tr   *trace
	topo *topology.Topology
	host topology.HostID
}

var defaultTraces = map[topology.Role]*cachedTrace{}

// defaultTrace memoizes one default-parameter trace per role so the many
// shape assertions share a single generation pass.
func defaultTrace(t *testing.T, r topology.Role, seconds int64) (*trace, *topology.Topology, topology.HostID) {
	t.Helper()
	if c, ok := defaultTraces[r]; ok {
		return c.tr, c.topo, c.host
	}
	tr, topo, host := runTrace(t, r, seconds, DefaultParams())
	defaultTraces[r] = &cachedTrace{tr, topo, host}
	return tr, topo, host
}

// outboundMix computes the fraction of outbound bytes per destination
// role (the Table 2 statistic).
func outboundMix(tr *trace, topo *topology.Topology, host topology.HostID) map[topology.Role]float64 {
	byRole := map[topology.Role]float64{}
	total := 0.0
	addr := topo.Addr(host)
	for _, h := range tr.hdrs {
		if h.Key.Src != addr {
			continue
		}
		dst, _ := topo.HostByAddr(h.Key.Dst)
		byRole[topo.HostRole(dst)] += float64(h.Size)
		total += float64(h.Size)
	}
	for k := range byRole {
		byRole[k] /= total
	}
	return byRole
}

// localityMix computes the outbound byte fraction per locality tier.
func localityMix(tr *trace, topo *topology.Topology, host topology.HostID) map[topology.Locality]float64 {
	byLoc := map[topology.Locality]float64{}
	total := 0.0
	addr := topo.Addr(host)
	for _, h := range tr.hdrs {
		if h.Key.Src != addr {
			continue
		}
		dst, _ := topo.HostByAddr(h.Key.Dst)
		loc := topo.Locality(host, dst)
		byLoc[loc] += float64(h.Size)
		total += float64(h.Size)
	}
	for k := range byLoc {
		byLoc[k] /= total
	}
	return byLoc
}

func TestWebOutboundMixMatchesTable2(t *testing.T) {
	tr, topo, host := defaultTrace(t, topology.RoleWeb, 20)
	mix := outboundMix(tr, topo, host)
	// Table 2 Web row: Cache 63.1, MF 15.2, SLB 5.6, Rest 16.1.
	if c := mix[topology.RoleCacheFollower]; c < 0.45 || c > 0.80 {
		t.Errorf("web→cache share %.2f, want ≈0.63", c)
	}
	if m := mix[topology.RoleMultifeed]; m < 0.05 || m > 0.30 {
		t.Errorf("web→MF share %.2f, want ≈0.15", m)
	}
	if s := mix[topology.RoleSLB]; s > 0.15 {
		t.Errorf("web→SLB share %.2f, want small ≈0.06", s)
	}
	if mix[topology.RoleCacheFollower] <= mix[topology.RoleMultifeed] {
		t.Error("cache share must dominate MF share")
	}
}

func TestCacheFollowerMixMatchesTable2(t *testing.T) {
	tr, topo, host := defaultTrace(t, topology.RoleCacheFollower, 10)
	mix := outboundMix(tr, topo, host)
	// Table 2 Cache-f row: Web 88.7, Cache 5.8, Rest 5.5.
	if w := mix[topology.RoleWeb]; w < 0.75 {
		t.Errorf("cache-f→web share %.2f, want ≈0.89", w)
	}
	lead := mix[topology.RoleCacheLeader]
	if lead > 0.20 {
		t.Errorf("cache-f→leader share %.2f, want ≈0.06", lead)
	}
}

func TestCacheLeaderMixMatchesTable2(t *testing.T) {
	tr, topo, host := defaultTrace(t, topology.RoleCacheLeader, 10)
	mix := outboundMix(tr, topo, host)
	// Table 2 Cache-l row: Cache 86.6, MF 5.9, Rest 7.5.
	cache := mix[topology.RoleCacheFollower] + mix[topology.RoleCacheLeader]
	if cache < 0.70 {
		t.Errorf("leader→cache share %.2f, want ≈0.87", cache)
	}
}

func TestHadoopMixMatchesTable2(t *testing.T) {
	tr, topo, host := defaultTrace(t, topology.RoleHadoop, 60)
	mix := outboundMix(tr, topo, host)
	// Table 2 Hadoop row: Hadoop 99.8, Rest 0.2.
	if h := mix[topology.RoleHadoop]; h < 0.99 {
		t.Errorf("hadoop→hadoop share %.3f, want ≈0.998", h)
	}
}

func TestWebLocalityClusterHeavy(t *testing.T) {
	tr, topo, host := defaultTrace(t, topology.RoleWeb, 20)
	loc := localityMix(tr, topo, host)
	// §4.2: 68% of web traffic stays in the cluster; rack-local minimal.
	if c := loc[topology.IntraCluster]; c < 0.5 {
		t.Errorf("web intra-cluster %.2f, want ≥0.5", c)
	}
	if r := loc[topology.IntraRack]; r > 0.10 {
		t.Errorf("web intra-rack %.2f, want ≈0", r)
	}
	if loc[topology.InterDatacenter] <= 0 {
		t.Error("web should have some inter-datacenter traffic")
	}
}

func TestHadoopLocalityRackHeavy(t *testing.T) {
	tr, topo, host := defaultTrace(t, topology.RoleHadoop, 60)
	loc := localityMix(tr, topo, host)
	// Fig 4a / §4.2: busy-node traffic is mostly rack+cluster local.
	if rc := loc[topology.IntraRack] + loc[topology.IntraCluster]; rc < 0.95 {
		t.Errorf("hadoop rack+cluster %.2f, want ≈1", rc)
	}
	if loc[topology.IntraRack] < 0.3 {
		t.Errorf("hadoop intra-rack %.2f, want substantial", loc[topology.IntraRack])
	}
}

func TestCacheLeaderLocalityDCHeavy(t *testing.T) {
	tr, topo, host := defaultTrace(t, topology.RoleCacheLeader, 10)
	loc := localityMix(tr, topo, host)
	// Fig 4d / Table 3 Cache column: intra- and inter-DC dominate,
	// rack-local ≈ 0.
	if dc := loc[topology.IntraDatacenter] + loc[topology.InterDatacenter]; dc < 0.4 {
		t.Errorf("leader DC+interDC %.2f, want dominant", dc)
	}
	if loc[topology.IntraRack] > 0.05 {
		t.Errorf("leader intra-rack %.2f, want ≈0", loc[topology.IntraRack])
	}
}

func TestPacketSizesMedian(t *testing.T) {
	// Fig 12: non-Hadoop median < 200 B (driven by ACKs and small
	// requests); Hadoop bimodal with most bytes in MTU packets.
	for _, r := range []topology.Role{topology.RoleWeb, topology.RoleCacheFollower} {
		tr, _, _ := defaultTrace(t, r, 10)
		sizes := make([]int, 0, len(tr.hdrs))
		for _, h := range tr.hdrs {
			sizes = append(sizes, int(h.Size))
		}
		med := medianInt(sizes)
		if med >= 400 {
			t.Errorf("%v median packet %d, want small (<400)", r, med)
		}
	}
	tr, _, _ := defaultTrace(t, topology.RoleHadoop, 60)
	var ack, mtu, other int
	for _, h := range tr.hdrs {
		switch {
		case h.Size <= 80:
			ack++
		case h.Size >= 1400:
			mtu++
		default:
			other++
		}
	}
	total := ack + mtu + other
	if frac := float64(ack+mtu) / float64(total); frac < 0.75 {
		t.Errorf("hadoop bimodal fraction %.2f, want ≥0.75", frac)
	}
}

func TestSYNRatesOrdering(t *testing.T) {
	p := DefaultParams()
	rate := func(r topology.Role, sec int64) float64 {
		tr, _, _ := runTrace(t, r, sec, p)
		syn := 0
		for _, h := range tr.hdrs {
			if h.SYN() && h.Flags&packet.FlagACK == 0 {
				syn++
			}
		}
		return float64(syn) / float64(sec)
	}
	web := rate(topology.RoleWeb, 10)
	cacheF := rate(topology.RoleCacheFollower, 10)
	if web <= cacheF {
		t.Errorf("web SYN rate (%.0f/s) should exceed cache follower's (%.0f/s)", web, cacheF)
	}
}

func TestConnectionPoolingAblation(t *testing.T) {
	p := DefaultParams()
	pooled, _, _ := runTrace(t, topology.RoleCacheFollower, 5, p)
	p.DisableConnectionPooling = true
	unpooled, _, _ := runTrace(t, topology.RoleCacheFollower, 5, p)
	count := func(tr *trace) int {
		n := 0
		for _, h := range tr.hdrs {
			if h.SYN() && h.Flags&packet.FlagACK == 0 {
				n++
			}
		}
		return n
	}
	if count(unpooled) < 5*count(pooled) {
		t.Errorf("disabling pooling should multiply SYNs: pooled=%d unpooled=%d",
			count(pooled), count(unpooled))
	}
}

func TestHotObjectMitigationAblation(t *testing.T) {
	p := DefaultParams()
	p.HotObjectPerSec = 0.1
	// Fraction of seconds whose outbound rate exceeds 1.5× the median:
	// mitigation clips hot objects within ~200 ms, so elevated seconds
	// should be rare; without it, multi-second hot periods appear (§5.2).
	elevated := func(mitigated bool) float64 {
		p.DisableHotObjectMitigation = !mitigated
		const seconds = 40
		tr, topo, host := runTrace(t, topology.RoleCacheFollower, seconds, p)
		addr := topo.Addr(host)
		perSec := make([]float64, seconds)
		for _, h := range tr.hdrs {
			if h.Key.Src != addr {
				continue
			}
			s := int(h.Time / netsim.Second)
			if s < len(perSec) {
				perSec[s] += float64(h.Size)
			}
		}
		med := medianFloat(perSec)
		n := 0
		for _, v := range perSec {
			if v > 1.5*med {
				n++
			}
		}
		return float64(n) / seconds
	}
	m := elevated(true)
	u := elevated(false)
	if u <= m {
		t.Errorf("unmitigated elevated-second fraction (%.2f) should exceed mitigated (%.2f)", u, m)
	}
}

func medianFloat(xs []float64) float64 {
	c := slices.Clone(xs)
	slices.Sort(c)
	return c[len(c)/2]
}

func TestAllRolesGenerate(t *testing.T) {
	topo, pk := testTopo(t)
	for _, r := range topology.Roles {
		host := firstOfRole(t, topo, r)
		tr := &trace{}
		NewTrace(pk, host, 7, DefaultParams(), tr).Run(2 * netsim.Second)
		if len(tr.hdrs) == 0 {
			t.Errorf("role %v generated no packets", r)
		}
		for i := 1; i < len(tr.hdrs); i++ {
			if tr.hdrs[i].Time < tr.hdrs[i-1].Time {
				t.Errorf("role %v: non-monotone trace", r)
				break
			}
		}
		// Every packet involves the monitored host.
		addr := topo.Addr(host)
		for _, h := range tr.hdrs {
			if h.Key.Src != addr && h.Key.Dst != addr {
				t.Errorf("role %v: packet not involving monitored host: %v", r, h.Key)
				break
			}
		}
	}
}

func TestFleetRatesPositive(t *testing.T) {
	p := DefaultParams()
	for _, r := range topology.Roles {
		if rate := FleetRate(p, r); rate <= 0 {
			t.Errorf("role %v fleet rate %.0f", r, rate)
		}
	}
	// Hadoop should be the heaviest per-host source (§4.1: Hadoop
	// clusters ≈5× Frontend edge load).
	if FleetRate(p, topology.RoleHadoop) <= FleetRate(p, topology.RoleWeb) {
		t.Error("hadoop per-host rate should exceed web's")
	}
}

func TestFleetFlowsConserveBytes(t *testing.T) {
	topo, pk := testTopo(t)
	p := DefaultParams()
	r := rng.New(5)
	src := firstOfRole(t, topo, topology.RoleWeb)
	total := 0.0
	n := 0
	NewFleetProgram(pk, p).Flows(r, src, 60, 1.0, 8, func(dst topology.HostID, bytes float64) {
		if dst == src {
			t.Fatal("fleet flow to self")
		}
		if bytes <= 0 {
			t.Fatal("non-positive flow bytes")
		}
		total += bytes
		n++
	})
	want := FleetRate(p, topology.RoleWeb) * 60
	if total < want*0.5 || total > want*1.5 {
		t.Errorf("fleet flow bytes %.0f, want ≈%.0f", total, want)
	}
	if n == 0 {
		t.Fatal("no fleet flows emitted")
	}
}

func TestFleetLocalityWebClusterHeavy(t *testing.T) {
	topo, pk := testTopo(t)
	p := DefaultParams()
	r := rng.New(6)
	src := firstOfRole(t, topo, topology.RoleWeb)
	prog := NewFleetProgram(pk, p)
	byLoc := map[topology.Locality]float64{}
	total := 0.0
	for i := 0; i < 50; i++ {
		prog.Flows(r, src, 60, 1.0, 8, func(dst topology.HostID, bytes float64) {
			byLoc[topo.Locality(src, dst)] += bytes
			total += bytes
		})
	}
	if frac := byLoc[topology.IntraCluster] / total; frac < 0.5 {
		t.Errorf("fleet web intra-cluster %.2f, want ≥0.5", frac)
	}
}

func TestPickerScopes(t *testing.T) {
	topo, pk := testTopo(t)
	r := rng.New(9)
	web := firstOfRole(t, topo, topology.RoleWeb)
	for i := 0; i < 100; i++ {
		c := pk.ClusterPeer(r, web, topology.RoleCacheFollower)
		if topo.HostCluster(c) != topo.HostCluster(web) {
			t.Fatal("ClusterPeer left the cluster")
		}
		if topo.HostRole(c) != topology.RoleCacheFollower {
			t.Fatal("ClusterPeer wrong role")
		}
		d := pk.DCPeer(r, web, topology.RoleDB)
		if topo.HostDC(d) != topo.HostDC(web) {
			t.Fatal("DCPeer left the datacenter")
		}
		rem := pk.RemotePeer(r, web, topology.RoleMisc)
		if topo.HostDC(rem) == topo.HostDC(web) {
			t.Fatal("RemotePeer stayed in the datacenter")
		}
		rp := pk.RackPeer(r, web)
		if rp == web || topo.HostRack(rp) != topo.HostRack(web) {
			t.Fatal("RackPeer wrong")
		}
	}
}

func TestHadoopPeerRackFraction(t *testing.T) {
	topo, pk := testTopo(t)
	r := rng.New(10)
	h := firstOfRole(t, topo, topology.RoleHadoop)
	rackLocal := 0
	const n = 5000
	for i := 0; i < n; i++ {
		peer := pk.HadoopPeer(r, h, 0.7)
		if topo.HostRack(peer) == topo.HostRack(h) {
			rackLocal++
		}
	}
	frac := float64(rackLocal) / n
	if frac < 0.6 || frac > 0.8 {
		t.Errorf("hadoop rack-local fraction %.2f, want ≈0.7", frac)
	}
}

func TestPoissonCount(t *testing.T) {
	topo, _ := testTopo(t)
	g := workload.NewGen(topo, 0, 3, workload.CollectorFunc(func(packet.Header) {}))
	sum := 0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += poissonCount(g, 3.5)
	}
	mean := float64(sum) / n
	if mean < 3.3 || mean > 3.7 {
		t.Errorf("poisson mean %.2f, want 3.5", mean)
	}
	if poissonCount(g, 0) != 0 {
		t.Error("zero-mean poisson should be 0")
	}
}

func medianInt(xs []int) int {
	if len(xs) == 0 {
		return 0
	}
	c := slices.Clone(xs)
	slices.Sort(c)
	return c[len(c)/2]
}

func TestCacheFlowsLongLived(t *testing.T) {
	// §5.1: many cache flows are long-lived; a large share of observed
	// flows should persist to the end of the capture while Hadoop's
	// transfers finish in milliseconds.
	tr, topo, host := defaultTrace(t, topology.RoleCacheFollower, 10)
	const capNs = 10 * int64(netsim.Second)
	type span struct{ first, last int64 }
	flows := map[packet.FlowKey]*span{}
	addr := topo.Addr(host)
	for _, h := range tr.hdrs {
		k := h.Key
		if k.Src != addr {
			k = k.Reverse()
		}
		sp, ok := flows[k]
		if !ok {
			flows[k] = &span{h.Time, h.Time}
			continue
		}
		sp.last = h.Time
	}
	longLived := 0
	for _, sp := range flows {
		if sp.last > capNs*8/10 { // active in the final fifth of capture
			longLived++
		}
	}
	frac := float64(longLived) / float64(len(flows))
	if frac < 0.3 {
		t.Fatalf("long-lived cache flow fraction %.2f, want ≥0.3", frac)
	}
}

func TestChurnKeepsSYNRate(t *testing.T) {
	// The churn model must not change the SYN arrival rate: pool
	// replenishment connections still open with a handshake.
	tr, _, _ := defaultTrace(t, topology.RoleCacheFollower, 10)
	syn := 0
	for _, h := range tr.hdrs {
		if h.SYN() && h.Flags&packet.FlagACK == 0 {
			syn++
		}
	}
	rate := float64(syn) / 10
	p := DefaultParams()
	if rate < p.CacheEphemeralPerSec*0.6 || rate > p.CacheEphemeralPerSec*1.6 {
		t.Fatalf("SYN rate %.0f/s, want ≈%.0f/s", rate, p.CacheEphemeralPerSec)
	}
}

func TestScaledParams(t *testing.T) {
	p := DefaultParams()
	q := p.Scaled(2)
	if q.WebUserReqPerSec != 2*p.WebUserReqPerSec ||
		q.CacheReadPerSec != 2*p.CacheReadPerSec ||
		q.HadoopBusyFlowPerSec != 2*p.HadoopBusyFlowPerSec {
		t.Fatal("rates not scaled")
	}
	if q.HadoopRackLocalFrac != p.HadoopRackLocalFrac || q.CatalogObjects != p.CatalogObjects {
		t.Fatal("structural knobs must not scale")
	}
}

func TestLoadBalancingAblationDestabilizes(t *testing.T) {
	p := DefaultParams()
	measure := func(disable bool) float64 {
		p.DisableLoadBalancing = disable
		tr, topo, host := runTrace(t, topology.RoleCacheFollower, 12, p)
		perRackSec := map[int]map[int]float64{}
		addr := topo.Addr(host)
		for _, h := range tr.hdrs {
			if h.Key.Src != addr {
				continue
			}
			dst, dok := topo.HostByAddr(h.Key.Dst)
			if !dok || topo.HostRole(dst) != topology.RoleWeb {
				continue
			}
			sec := int(h.Time / int64(netsim.Second))
			m, ok := perRackSec[topo.HostRack(dst)]
			if !ok {
				m = map[int]float64{}
				perRackSec[topo.HostRack(dst)] = m
			}
			m[sec] += float64(h.Size)
		}
		// Coefficient of variation of per-second rates, averaged over racks.
		total, n := 0.0, 0
		for _, secs := range perRackSec {
			var mean, m2 float64
			cnt := 0.0
			for _, v := range secs {
				cnt++
				d := v - mean
				mean += d / cnt
				m2 += d * (v - mean)
			}
			if cnt > 1 && mean > 0 {
				variance := m2 / cnt
				total += sqrtf(variance) / mean
				n++
			}
		}
		return total / float64(n)
	}
	balanced := measure(false)
	skewed := measure(true)
	if skewed <= balanced {
		t.Fatalf("skewed CV (%.2f) should exceed balanced CV (%.2f)", skewed, balanced)
	}
}

func sqrtf(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func TestObjectPopularityDeterministic(t *testing.T) {
	cfg := DefaultObjectChurnConfig(DefaultParams())
	cfg.Servers, cfg.Epochs = 3, 4
	cfg.ReadsPerSec = 500
	a := SimulateObjectPopularity(cfg, rng.New(1))
	b := SimulateObjectPopularity(cfg, rng.New(1))
	if a != b {
		t.Fatal("object popularity simulation not deterministic")
	}
}

func TestObjectPopularityChurnScales(t *testing.T) {
	cfg := DefaultObjectChurnConfig(DefaultParams())
	cfg.Servers, cfg.Epochs = 3, 8
	cfg.ReadsPerSec = 1000
	cfg.SlotChurnProb = 0.1
	slow := SimulateObjectPopularity(cfg, rng.New(2))
	cfg.SlotChurnProb = 0.7
	fast := SimulateObjectPopularity(cfg, rng.New(2))
	if fast.MedianLifespanSec >= slow.MedianLifespanSec {
		t.Fatalf("higher churn should shorten lifespans: %.0f vs %.0f",
			fast.MedianLifespanSec, slow.MedianLifespanSec)
	}
}

func TestObjectPopularityPanicsOnDegenerate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("degenerate config accepted")
		}
	}()
	SimulateObjectPopularity(ObjectChurnConfig{Servers: 1}, rng.New(1))
}
