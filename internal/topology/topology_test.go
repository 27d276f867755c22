package topology

import (
	"sort"
	"testing"
	"testing/quick"

	"fbdcnet/internal/packet"
)

func tiny(t *testing.T) *Topology {
	t.Helper()
	top, err := Build(Preset(ScaleTiny))
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Build(Config{Sites: []SiteSpec{{}}}); err == nil {
		t.Error("site without datacenters accepted")
	}
	if _, err := Build(Config{Sites: []SiteSpec{{Datacenters: []DatacenterSpec{{}}}}}); err == nil {
		t.Error("datacenter without clusters accepted")
	}
	bad := Config{Sites: []SiteSpec{{Datacenters: []DatacenterSpec{{
		Clusters: []ClusterSpec{{Type: ClusterHadoop, Racks: 0, HostsPerRack: 4}},
	}}}}}
	if _, err := Build(bad); err == nil {
		t.Error("zero-rack cluster accepted")
	}
}

func TestCrossReferencesConsistent(t *testing.T) {
	top := tiny(t)
	for i := 0; i < top.NumHosts(); i++ {
		h := top.Host(HostID(i))
		rack := top.Racks[h.Rack]
		if rack.Cluster != h.Cluster {
			t.Fatalf("host %d: rack cluster %d != host cluster %d", h.ID, rack.Cluster, h.Cluster)
		}
		cl := top.Clusters[h.Cluster]
		if cl.Datacenter != h.Datacenter {
			t.Fatalf("host %d: cluster dc mismatch", h.ID)
		}
		dc := top.Datacenters[h.Datacenter]
		if dc.Site != h.Site {
			t.Fatalf("host %d: dc site mismatch", h.ID)
		}
		if h.ID < rack.FirstHost || h.ID >= rack.FirstHost+HostID(rack.NumHosts) {
			t.Fatalf("host %d outside its rack's span [%d, %d)", h.ID, rack.FirstHost, rack.FirstHost+HostID(rack.NumHosts))
		}
	}
}

func TestRacksAreRoleHomogeneous(t *testing.T) {
	top := tiny(t)
	for _, rack := range top.Racks {
		for i := 0; i < int(rack.NumHosts); i++ {
			id := rack.Host(i)
			if top.HostRole(id) != rack.Role {
				t.Fatalf("rack %d declared %v but host %d has %v",
					rack.ID, rack.Role, id, top.HostRole(id))
			}
		}
	}
}

func TestHostsHaveExactlyOneRoleEntry(t *testing.T) {
	top := tiny(t)
	count := 0
	for _, r := range Roles {
		count += len(top.HostsByRole(r))
	}
	if count != top.NumHosts() {
		t.Fatalf("role index covers %d hosts, fleet has %d", count, top.NumHosts())
	}
}

func TestAddrAssignmentDense(t *testing.T) {
	top := tiny(t)
	for i := 0; i < top.NumHosts(); i++ {
		h := HostID(i)
		if top.Addr(h) != packet.Addr(i) {
			t.Fatalf("host %d has addr %d", i, top.Addr(h))
		}
		got, ok := top.HostByAddr(top.Addr(h))
		if !ok || got != h {
			t.Fatalf("HostByAddr round trip failed for %d", i)
		}
	}
	if _, ok := top.HostByAddr(packet.Addr(top.NumHosts())); ok {
		t.Fatal("out-of-range addr resolved")
	}
}

func TestLocalityTiers(t *testing.T) {
	top := tiny(t)
	// pick a host and known relatives
	h := top.Host(0)
	if top.Locality(h.ID, h.ID) != SameHost {
		t.Error("self locality wrong")
	}
	// same rack
	rack := top.Racks[h.Rack]
	if int(rack.NumHosts) > 1 {
		other := rack.Host(1)
		if top.Locality(h.ID, other) != IntraRack {
			t.Error("intra-rack locality wrong")
		}
	}
	// same cluster different rack
	cl := top.Clusters[h.Cluster]
	otherRack := top.Racks[cl.Racks[1]]
	if got := top.Locality(h.ID, otherRack.Host(0)); got != IntraCluster {
		t.Errorf("intra-cluster locality = %v", got)
	}
	// same DC different cluster
	dc := top.Datacenters[h.Datacenter]
	otherCl := top.Clusters[dc.Clusters[1]]
	dst := top.Racks[otherCl.Racks[0]].Host(0)
	if got := top.Locality(h.ID, dst); got != IntraDatacenter {
		t.Errorf("intra-dc locality = %v", got)
	}
	// different site
	lastHost := top.Host(HostID(top.NumHosts() - 1))
	if lastHost.Site == h.Site {
		t.Fatal("preset should span sites")
	}
	if got := top.Locality(h.ID, lastHost.ID); got != InterDatacenter {
		t.Errorf("inter-dc locality = %v", got)
	}
}

func TestLocalitySymmetricProperty(t *testing.T) {
	top := tiny(t)
	n := top.NumHosts()
	err := quick.Check(func(a, b uint32) bool {
		x, y := HostID(int(a)%n), HostID(int(b)%n)
		return top.Locality(x, y) == top.Locality(y, x)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFrontendComposition(t *testing.T) {
	top := tiny(t)
	fes := top.ClustersOfType(ClusterFrontend)
	if len(fes) == 0 {
		t.Fatal("no frontend clusters in preset")
	}
	for _, c := range fes {
		var web, cache, mf, slb int
		for _, rid := range top.Clusters[c].Racks {
			switch top.Racks[rid].Role {
			case RoleWeb:
				web++
			case RoleCacheFollower:
				cache++
			case RoleMultifeed:
				mf++
			case RoleSLB:
				slb++
			default:
				t.Fatalf("unexpected role %v in frontend cluster", top.Racks[rid].Role)
			}
		}
		if web == 0 || cache == 0 || mf == 0 || slb == 0 {
			t.Fatalf("frontend cluster %d missing a role: web=%d cache=%d mf=%d slb=%d", c, web, cache, mf, slb)
		}
		if web <= cache {
			t.Fatalf("web racks (%d) should dominate cache racks (%d)", web, cache)
		}
	}
}

func TestFrontendRackRoleFractions(t *testing.T) {
	roles := frontendRackRoles(100)
	counts := map[Role]int{}
	for _, r := range roles {
		counts[r]++
	}
	if counts[RoleWeb] != 75 || counts[RoleCacheFollower] != 20 {
		t.Fatalf("100-rack frontend: web=%d cache=%d", counts[RoleWeb], counts[RoleCacheFollower])
	}
}

func TestHostsByRoleInClusterAndDC(t *testing.T) {
	top := tiny(t)
	fe := top.ClustersOfType(ClusterFrontend)[0]
	webs := top.RoleSetInCluster(RoleWeb, fe).AppendTo(nil)
	if len(webs) == 0 {
		t.Fatal("no web hosts in frontend cluster")
	}
	for _, h := range webs {
		if top.HostCluster(h) != fe || top.HostRole(h) != RoleWeb {
			t.Fatal("RoleSetInCluster holds a wrong host")
		}
	}
	dc := top.Clusters[fe].Datacenter
	webDC := top.RoleSetInDC(RoleWeb, dc).AppendTo(nil)
	if len(webDC) < len(webs) {
		t.Fatal("DC-wide web hosts fewer than cluster's")
	}
}

func TestPresetScalesMonotone(t *testing.T) {
	a := MustBuild(Preset(ScaleTiny)).NumHosts()
	b := MustBuild(Preset(ScaleSmall)).NumHosts()
	c := MustBuild(Preset(ScaleMedium)).NumHosts()
	if !(a < b && b < c) {
		t.Fatalf("scales not monotone: %d %d %d", a, b, c)
	}
}

func TestPresetHasFabricPod(t *testing.T) {
	top := MustBuild(Preset(ScaleSmall))
	fabric := false
	for _, c := range top.Clusters {
		if c.Fabric {
			fabric = true
		}
	}
	if !fabric {
		t.Fatal("preset should include at least one Fabric pod (§4.3)")
	}
}

func TestStringers(t *testing.T) {
	for _, r := range Roles {
		if r.String() == "" {
			t.Errorf("role %d has empty string", r)
		}
	}
	for _, c := range ClusterTypes {
		if c.String() == "" {
			t.Errorf("cluster type %d has empty string", c)
		}
	}
	for _, l := range Localities {
		if l.String() == "" {
			t.Errorf("locality %d has empty string", l)
		}
	}
	if Role(200).String() == "" || ClusterType(200).String() == "" || Locality(200).String() == "" {
		t.Error("unknown enum values should still render")
	}
}

// refHost is the old array-of-structs host row, rebuilt independently
// from the rack table for the columnar-equivalence property test.
type refHost struct {
	rack, cluster, dc, site int
	role                    Role
}

// refBuild reconstructs the pre-columnar AoS host slice by walking racks
// in ID order — the exact construction the old Build used — without
// touching any of the SoA accessors under test.
func refBuild(top *Topology) []refHost {
	var hosts []refHost
	for ri := range top.Racks {
		rack := &top.Racks[ri]
		cl := &top.Clusters[rack.Cluster]
		dc := &top.Datacenters[cl.Datacenter]
		for i := 0; i < int(rack.NumHosts); i++ {
			hosts = append(hosts, refHost{
				rack: rack.ID, cluster: rack.Cluster,
				dc: cl.Datacenter, site: dc.Site, role: rack.Role,
			})
		}
	}
	return hosts
}

// mixedRackConfig holds two Frontend clusters with 3 and 5 hosts per
// rack, so every Frontend role mixes rack sizes, beside uniform Hadoop,
// Cache and DB clusters.
func mixedRackConfig() Config {
	return Config{Sites: []SiteSpec{{Datacenters: []DatacenterSpec{
		{Clusters: []ClusterSpec{
			{Type: ClusterFrontend, Racks: 8, HostsPerRack: 3},
			{Type: ClusterHadoop, Racks: 3, HostsPerRack: 4},
		}},
		{Clusters: []ClusterSpec{
			{Type: ClusterFrontend, Racks: 6, HostsPerRack: 5},
			{Type: ClusterCache, Racks: 2, HostsPerRack: 2},
			{Type: ClusterDB, Racks: 1, HostsPerRack: 7},
		}},
	}}}}
}

type namedConfig struct {
	name string
	cfg  Config
}

// columnarCases are the configs the columnar tests cover: two presets,
// whose roles all have uniform rack sizes, and the mixed config.
func columnarCases() []namedConfig {
	return []namedConfig{
		{"tiny", Preset(ScaleTiny)},
		{"small", Preset(ScaleSmall)},
		{"mixed", mixedRackConfig()},
	}
}

// TestColumnarMatchesReferenceAoS is the property test of the columnar
// refactor: every SoA accessor and role set must agree host-for-host
// with a reference array-of-structs build on the tiny and small presets
// and on a config with mixed rack sizes. Role sets are checked on the
// topology as built (O(1) indexing for uniform roles, binary search for
// mixed ones) and again with the shared rack sizes cleared, which forces
// the binary search for every role.
func TestColumnarMatchesReferenceAoS(t *testing.T) {
	for _, tc := range columnarCases() {
		sc := tc.name
		top := MustBuild(tc.cfg)
		ref := refBuild(top)
		if len(ref) != top.NumHosts() {
			t.Fatalf("%v: reference has %d hosts, topology %d", sc, len(ref), top.NumHosts())
		}
		for i, rh := range ref {
			h := HostID(i)
			if got := top.HostRack(h); got != rh.rack {
				t.Fatalf("%v host %d: rack %d, want %d", sc, i, got, rh.rack)
			}
			if got := top.HostCluster(h); got != rh.cluster {
				t.Fatalf("%v host %d: cluster %d, want %d", sc, i, got, rh.cluster)
			}
			if got := top.HostDC(h); got != rh.dc {
				t.Fatalf("%v host %d: dc %d, want %d", sc, i, got, rh.dc)
			}
			if got := top.Datacenters[top.HostDC(h)].Site; got != rh.site {
				t.Fatalf("%v host %d: site %d, want %d", sc, i, got, rh.site)
			}
			if got := top.HostRole(h); got != rh.role {
				t.Fatalf("%v host %d: role %v, want %v", sc, i, got, rh.role)
			}
			v := top.Host(h)
			if v.ID != h || v.Rack != rh.rack || v.Cluster != rh.cluster ||
				v.Datacenter != rh.dc || v.Site != rh.site || v.Role != rh.role {
				t.Fatalf("%v host %d: materialized view %+v disagrees with reference %+v", sc, i, v, rh)
			}
		}
		checkRoleSets(t, sc+" as built", top, ref)
		searched := *top
		searched.roleHPR = [numRoles]int32{}
		checkRoleSets(t, sc+" binary search", &searched, ref)
	}
}

// checkRoleSets asserts that the role sets of top — fleet-wide, per
// cluster, per DC — enumerate the same ascending host IDs a brute-force
// scan of the reference does.
func checkRoleSets(t *testing.T, sc string, top *Topology, ref []refHost) {
	t.Helper()
	for _, role := range Roles {
		var brute []HostID
		for i, rh := range ref {
			if rh.role == role {
				brute = append(brute, HostID(i))
			}
		}
		checkSet(t, sc, role, "fleet", top.RoleSet(role), brute)
		for c := range top.Clusters {
			var want []HostID
			for _, h := range brute {
				if ref[h].cluster == c {
					want = append(want, h)
				}
			}
			checkSet(t, sc, role, "cluster", top.RoleSetInCluster(role, c), want)
		}
		for d := range top.Datacenters {
			var want []HostID
			for _, h := range brute {
				if ref[h].dc == d {
					want = append(want, h)
				}
			}
			checkSet(t, sc, role, "dc", top.RoleSetInDC(role, d), want)
		}
	}
}

func checkSet(t *testing.T, sc string, role Role, scope string, set HostSet, want []HostID) {
	t.Helper()
	if set.Len() != len(want) {
		t.Fatalf("%v %v %s set: %d hosts, want %d", sc, role, scope, set.Len(), len(want))
	}
	for i := range want {
		if got := set.At(i); got != want[i] {
			t.Fatalf("%v %v %s set at %d: host %d, want %d", sc, role, scope, i, got, want[i])
		}
	}
	if got := set.AppendTo(nil); len(got) != len(want) {
		t.Fatalf("%v %v %s AppendTo: %d hosts, want %d", sc, role, scope, len(got), len(want))
	}
}

// TestRoleRackSize: roleHPR is the rack size a role's racks share, and 0
// exactly for roles whose racks differ in size (or that have no racks),
// which is what sends HostSet.At to the binary search.
func TestRoleRackSize(t *testing.T) {
	mixed := 0
	for _, tc := range columnarCases() {
		top := MustBuild(tc.cfg)
		for _, role := range Roles {
			sizes := map[int32]bool{}
			want := int32(0)
			for _, rid := range top.RoleRacks(role) {
				want = top.Racks[rid].NumHosts
				sizes[want] = true
			}
			if len(sizes) > 1 {
				want = 0
				mixed++
			}
			if got := top.roleHPR[role]; got != want {
				t.Errorf("%s %v: roleHPR %d, want %d (rack sizes %v)", tc.name, role, got, want, sizes)
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no role mixes rack sizes; the binary-search path goes untested")
	}
}

// TestRoleRackAtMatchesSearch: for every role and every position of its
// host order, RoleRackAt names the rack a reference binary search over
// RoleCum finds, and HostSet.At the host at the position's offset in
// that rack, on the presets (uniform racks, the division path) and on
// the mixed config (the search path for its mixed roles).
func TestRoleRackAtMatchesSearch(t *testing.T) {
	for _, tc := range columnarCases() {
		top := MustBuild(tc.cfg)
		for _, role := range Roles {
			cum, racks := top.RoleCum(role), top.RoleRacks(role)
			set := top.RoleSet(role)
			for pos := int32(0); pos < cum[len(cum)-1]; pos++ {
				want := sort.Search(len(cum), func(j int) bool { return cum[j] > pos }) - 1
				if got := top.RoleRackAt(role, pos); got != want {
					t.Fatalf("%s %v position %d: RoleRackAt %d, reference %d", tc.name, role, pos, got, want)
				}
				host := top.Racks[racks[want]].FirstHost + HostID(pos-cum[want])
				if got := set.At(int(pos)); got != host {
					t.Fatalf("%s %v position %d: HostSet.At %d, reference %d", tc.name, role, pos, got, host)
				}
			}
		}
	}
}
