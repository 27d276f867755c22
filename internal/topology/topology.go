// Package topology models the physical organization of Facebook's
// datacenters as described in §3.1 of the paper: machines in racks behind
// top-of-rack switches (RSWs), racks grouped into clusters behind four
// cluster switches (CSWs, the "4-post" design), clusters aggregated by
// Fat Cat switches (FCs) within a datacenter, and datacenters grouped
// into sites joined by a backbone.
//
// Two properties of the real deployment matter to every analysis and are
// encoded here: machines have exactly one role (§3.1), and racks contain
// only servers of the same role — the placement decision behind the
// bipartite Web↔cache traffic pattern of Figure 5b.
package topology

import (
	"fmt"

	"fbdcnet/internal/packet"
)

// Role is the single function a machine performs (§3.1).
type Role uint8

// Machine roles. Misc stands in for the long tail of smaller services
// ("Rest" in Table 2).
const (
	RoleWeb Role = iota
	RoleCacheFollower
	RoleCacheLeader
	RoleHadoop
	RoleMultifeed
	RoleSLB
	RoleDB
	RoleMisc
	numRoles
)

// Roles lists every role once, in declaration order.
var Roles = []Role{
	RoleWeb, RoleCacheFollower, RoleCacheLeader, RoleHadoop,
	RoleMultifeed, RoleSLB, RoleDB, RoleMisc,
}

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleWeb:
		return "Web"
	case RoleCacheFollower:
		return "Cache-f"
	case RoleCacheLeader:
		return "Cache-l"
	case RoleHadoop:
		return "Hadoop"
	case RoleMultifeed:
		return "MF"
	case RoleSLB:
		return "SLB"
	case RoleDB:
		return "DB"
	case RoleMisc:
		return "Rest"
	default:
		return fmt.Sprintf("Role(%d)", uint8(r))
	}
}

// ClusterType identifies the deployment unit's purpose (Table 3's five
// top cluster types).
type ClusterType uint8

// Cluster types, matching Table 3's taxonomy.
const (
	ClusterHadoop ClusterType = iota
	ClusterFrontend
	ClusterService
	ClusterCache
	ClusterDB
)

// ClusterTypes lists every cluster type once, in Table 3's column order.
var ClusterTypes = []ClusterType{
	ClusterHadoop, ClusterFrontend, ClusterService, ClusterCache, ClusterDB,
}

// String implements fmt.Stringer.
func (c ClusterType) String() string {
	switch c {
	case ClusterHadoop:
		return "Hadoop"
	case ClusterFrontend:
		return "FE"
	case ClusterService:
		return "Svc."
	case ClusterCache:
		return "Cache"
	case ClusterDB:
		return "DB"
	default:
		return fmt.Sprintf("ClusterType(%d)", uint8(c))
	}
}

// Locality classifies where a packet's destination lies relative to its
// source — the unit of every locality analysis in the paper.
type Locality uint8

// Locality tiers, innermost first.
const (
	SameHost Locality = iota
	IntraRack
	IntraCluster
	IntraDatacenter
	InterDatacenter
)

// Localities lists the four inter-host tiers in the order the paper's
// tables and figure legends use (SameHost excluded: loopback traffic is
// not network traffic).
var Localities = []Locality{IntraRack, IntraCluster, IntraDatacenter, InterDatacenter}

// String implements fmt.Stringer.
func (l Locality) String() string {
	switch l {
	case SameHost:
		return "Same-Host"
	case IntraRack:
		return "Intra-Rack"
	case IntraCluster:
		return "Intra-Cluster"
	case IntraDatacenter:
		return "Intra-Datacenter"
	case InterDatacenter:
		return "Inter-Datacenter"
	default:
		return fmt.Sprintf("Locality(%d)", uint8(l))
	}
}

// HostID indexes a machine within a Topology.
type HostID int32

// Host is a materialized view of one machine: exactly one role, one rack.
// The topology does not store Host structs — per-host state lives in
// columnar form (see Topology) — so Host is assembled on demand by
// Topology.Host for cold paths that want every attribute at once.
type Host struct {
	ID         HostID
	Addr       packet.Addr
	Role       Role
	Rack       int
	Cluster    int
	Datacenter int
	Site       int
}

// Rack is a set of same-role machines behind one RSW. Host IDs are
// assigned densely rack by rack, so a rack's members are the contiguous
// span [FirstHost, FirstHost+NumHosts) — a 8-byte description instead of
// a per-host slice.
type Rack struct {
	ID        int
	Cluster   int
	Role      Role
	FirstHost HostID
	NumHosts  int32
}

// Host returns the i-th member of the rack.
func (r *Rack) Host(i int) HostID { return r.FirstHost + HostID(i) }

// Cluster is the deployment unit: racks behind four CSWs (or a Fabric pod).
type Cluster struct {
	ID         int
	Type       ClusterType
	Datacenter int
	Fabric     bool // next-generation Fabric pod rather than 4-post
	Racks      []int
}

// Datacenter is one building containing multiple clusters.
type Datacenter struct {
	ID       int
	Site     int
	Clusters []int
}

// Site is a datacenter site: one or more buildings on a campus.
type Site struct {
	ID          int
	Datacenters []int
}

// Topology is the fully wired datacenter model in struct-of-arrays form.
// Rack/cluster/datacenter/site element structs are O(racks) and stay as
// slices of structs; per-host state — the part that must scale to million-
// host fleets — is a single int32 column mapping host → rack, from which
// every other host attribute (role, cluster, datacenter, site, address)
// derives in O(1). Role membership is stored at rack granularity: for each
// role, the sorted list of racks hosting it plus a prefix-sum of member
// counts, so any (role × cluster/datacenter/fleet) peer set is a HostSet
// view over a contiguous position range rather than a materialized slice.
// The whole structure costs ≈5 bytes/host versus ≈69 for the old
// array-of-structs layout. It is immutable after Build.
type Topology struct {
	Racks       []Rack
	Clusters    []Cluster
	Datacenters []Datacenter
	Sites       []Site

	// hostRack is the only per-host column: host → rack index.
	hostRack []int32

	// Role membership at rack granularity. roleRacks[r] lists the racks
	// hosting role r in ascending rack order; roleCum[r] is the exclusive
	// prefix sum of their host counts (len = len(roleRacks[r])+1), so
	// position p in role order lives in rack roleRacks[r][j] where j is
	// the greatest index with roleCum[r][j] <= p. Because racks of one
	// cluster are contiguous in rack order and clusters of one datacenter
	// likewise, roleClusterOff[r][c] / roleDCOff[r][d] delimit the
	// subranges of roleRacks[r] belonging to cluster c / datacenter d.
	// roleHPR[r] is the host count every rack of role r shares, or 0 when
	// their sizes differ (or the role has no racks). roleBase[r][j] is
	// the FirstHost of rack roleRacks[r][j] minus roleCum[r][j], so
	// position p in that rack is host roleBase[r][j] + p.
	roleRacks      [numRoles][]int32
	roleCum        [numRoles][]int32
	roleClusterOff [numRoles][]int32
	roleDCOff      [numRoles][]int32
	roleHPR        [numRoles]int32
	roleBase       [numRoles][]HostID
}

// NumHosts returns the fleet size.
func (t *Topology) NumHosts() int { return len(t.hostRack) }

// HostRack returns the rack of host h.
func (t *Topology) HostRack(h HostID) int { return int(t.hostRack[h]) }

// HostCluster returns the cluster of host h.
func (t *Topology) HostCluster(h HostID) int { return t.Racks[t.hostRack[h]].Cluster }

// HostDC returns the datacenter of host h.
func (t *Topology) HostDC(h HostID) int {
	return t.Clusters[t.Racks[t.hostRack[h]].Cluster].Datacenter
}

// HostRole returns the role of host h.
func (t *Topology) HostRole(h HostID) Role { return t.Racks[t.hostRack[h]].Role }

// Addr returns the network address of host h. Addresses are assigned
// densely: Addr(h) == packet.Addr(h).
func (t *Topology) Addr(h HostID) packet.Addr { return packet.Addr(h) }

// Host materializes the full attribute view of host h, for cold paths.
func (t *Topology) Host(h HostID) Host {
	rk := &t.Racks[t.hostRack[h]]
	dc := t.Clusters[rk.Cluster].Datacenter
	return Host{
		ID:         h,
		Addr:       packet.Addr(h),
		Role:       rk.Role,
		Rack:       rk.ID,
		Cluster:    rk.Cluster,
		Datacenter: dc,
		Site:       t.Datacenters[dc].Site,
	}
}

// HostByAddr resolves an address to its host ID. Addresses are assigned
// densely: Addr(h) belongs to host h.
func (t *Topology) HostByAddr(a packet.Addr) (HostID, bool) {
	if int(a) >= len(t.hostRack) {
		return 0, false
	}
	return HostID(a), true
}

// Locality classifies dst relative to src.
func (t *Topology) Locality(src, dst HostID) Locality {
	if src == dst {
		return SameHost
	}
	ra, rb := t.hostRack[src], t.hostRack[dst]
	if ra == rb {
		return IntraRack
	}
	ca, cb := t.Racks[ra].Cluster, t.Racks[rb].Cluster
	if ca == cb {
		return IntraCluster
	}
	if t.Clusters[ca].Datacenter == t.Clusters[cb].Datacenter {
		return IntraDatacenter
	}
	return InterDatacenter
}

// HostSet is a read-only view of a contiguous range of one role's host
// order — the columnar replacement for materialized []HostID peer sets.
// When every rack of the role holds the same number of hosts (as in every
// preset) indexing is O(1): a division by that rack size. Otherwise it
// falls back to a binary search over the role's rack prefix sums
// (O(log racks-of-role)). Build picks the path from the rack sizes of its
// Config; both enumerate the same hosts. The set itself is four words
// regardless of member count.
type HostSet struct {
	t     *Topology
	role  Role
	start int32 // absolute position offset within the role's host order
	n     int32
}

// Len returns the number of hosts in the set.
func (s HostSet) Len() int { return int(s.n) }

// At returns the i-th host of the set.
func (s HostSet) At(i int) HostID {
	pos := s.start + int32(i)
	return s.t.roleBase[s.role][s.t.RoleRackAt(s.role, pos)] + HostID(pos)
}

// Slice returns the subset covering positions [lo, hi) of the set.
func (s HostSet) Slice(lo, hi int) HostSet {
	return HostSet{t: s.t, role: s.role, start: s.start + int32(lo), n: int32(hi - lo)}
}

// AppendTo materializes the set into dst, in position order.
func (s HostSet) AppendTo(dst []HostID) []HostID {
	for i := 0; i < int(s.n); i++ {
		dst = append(dst, s.At(i))
	}
	return dst
}

// RoleSet returns the fleet-wide set of hosts with the given role.
func (t *Topology) RoleSet(r Role) HostSet {
	cum := t.roleCum[r]
	return HostSet{t: t, role: r, start: 0, n: cum[len(cum)-1]}
}

// RoleSetInCluster returns the set of hosts with role r inside cluster c.
func (t *Topology) RoleSetInCluster(r Role, c int) HostSet {
	off, cum := t.roleClusterOff[r], t.roleCum[r]
	lo, hi := cum[off[c]], cum[off[c+1]]
	return HostSet{t: t, role: r, start: lo, n: hi - lo}
}

// RoleSetInDC returns the set of hosts with role r inside datacenter dc.
func (t *Topology) RoleSetInDC(r Role, dc int) HostSet {
	off, cum := t.roleDCOff[r], t.roleCum[r]
	lo, hi := cum[off[dc]], cum[off[dc+1]]
	return HostSet{t: t, role: r, start: lo, n: hi - lo}
}

// RoleRacks returns the racks hosting role r, in ascending rack order.
// The slice is owned by the topology; callers must not mutate it.
func (t *Topology) RoleRacks(r Role) []int32 { return t.roleRacks[r] }

// RoleCum returns the exclusive prefix sum of host counts over
// RoleRacks(r): RoleCum(r)[j] hosts of role r live in racks before the
// j-th. Its length is len(RoleRacks(r))+1; the final entry is the role's
// fleet-wide host count. The slice is owned by the topology.
func (t *Topology) RoleCum(r Role) []int32 { return t.roleCum[r] }

// RoleRackAt returns the index j into RoleRacks(r) of the rack holding
// position pos of role r's host order: the j with RoleCum(r)[j] <= pos <
// RoleCum(r)[j+1]. When every rack of the role holds the same number of
// hosts (as in every preset) that is a division; otherwise a binary
// search over RoleCum(r).
func (t *Topology) RoleRackAt(r Role, pos int32) int {
	if u := t.roleHPR[r]; u > 0 {
		return int(pos / u)
	}
	return t.roleRackSearch(r, pos)
}

// roleRackSearch is RoleRackAt's path for roles with mixed rack sizes.
// It stays out of line so that RoleRackAt inlines, and with it the
// uniform path of HostSet.At.
//
//go:noinline
func (t *Topology) roleRackSearch(r Role, pos int32) int {
	cum := t.roleCum[r]
	lo, hi := 0, len(cum)-1 // invariant: cum[lo] <= pos < cum[hi]
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

// RoleHostsPerRack returns the host count every rack of role r shares,
// or 0 when their sizes differ or the role has no racks.
func (t *Topology) RoleHostsPerRack(r Role) int32 { return t.roleHPR[r] }

// RoleRackRangeInCluster returns the subrange [lo, hi) of RoleRacks(r)
// whose racks belong to cluster c.
func (t *Topology) RoleRackRangeInCluster(r Role, c int) (lo, hi int) {
	off := t.roleClusterOff[r]
	return int(off[c]), int(off[c+1])
}

// RoleRackRangeInDC returns the subrange [lo, hi) of RoleRacks(r) whose
// racks belong to datacenter dc.
func (t *Topology) RoleRackRangeInDC(r Role, dc int) (lo, hi int) {
	off := t.roleDCOff[r]
	return int(off[dc]), int(off[dc+1])
}

// HostsByRole materializes all hosts with the given role, fleet-wide, in
// ascending host order. Cold-path convenience; hot paths use RoleSet.
func (t *Topology) HostsByRole(r Role) []HostID {
	return t.RoleSet(r).AppendTo(nil)
}

// ClustersOfType returns the IDs of all clusters with the given type.
func (t *Topology) ClustersOfType(ct ClusterType) []int {
	var out []int
	for _, c := range t.Clusters {
		if c.Type == ct {
			out = append(out, c.ID)
		}
	}
	return out
}

// ClusterSpec describes one cluster to build.
type ClusterSpec struct {
	Type         ClusterType
	Racks        int
	HostsPerRack int
	Fabric       bool
}

// DatacenterSpec describes one building.
type DatacenterSpec struct {
	Clusters []ClusterSpec
}

// SiteSpec describes one site.
type SiteSpec struct {
	Datacenters []DatacenterSpec
}

// Config is the whole-network build specification.
type Config struct {
	Sites []SiteSpec
}

// frontendRackRoles reproduces the Frontend cluster composition of
// Figure 5b: roughly 75% Web server racks, 20% cache-follower racks, and a
// few Multifeed and SLB racks. Assignment is deterministic in rack index.
func frontendRackRoles(n int) []Role {
	roles := make([]Role, n)
	nCache := n * 20 / 100
	nMF := n * 3 / 100
	nSLB := n * 2 / 100
	if n >= 4 {
		if nCache == 0 {
			nCache = 1
		}
		if nMF == 0 {
			nMF = 1
		}
		if nSLB == 0 {
			nSLB = 1
		}
	}
	i := 0
	for ; i < n-nCache-nMF-nSLB; i++ {
		roles[i] = RoleWeb
	}
	for j := 0; j < nCache && i < n; j++ {
		roles[i] = RoleCacheFollower
		i++
	}
	for j := 0; j < nMF && i < n; j++ {
		roles[i] = RoleMultifeed
		i++
	}
	for ; i < n; i++ {
		roles[i] = RoleSLB
	}
	return roles
}

// serviceRackRoles cycles the long-tail roles through a Service cluster.
func serviceRackRoles(n int) []Role {
	roles := make([]Role, n)
	cycle := []Role{RoleMisc, RoleMisc, RoleMultifeed, RoleMisc}
	for i := range roles {
		roles[i] = cycle[i%len(cycle)]
	}
	return roles
}

// rackRoles returns the role of each rack in a cluster of the given type.
func rackRoles(ct ClusterType, n int) []Role {
	switch ct {
	case ClusterHadoop:
		roles := make([]Role, n)
		for i := range roles {
			roles[i] = RoleHadoop
		}
		return roles
	case ClusterFrontend:
		return frontendRackRoles(n)
	case ClusterCache:
		roles := make([]Role, n)
		for i := range roles {
			roles[i] = RoleCacheLeader
		}
		return roles
	case ClusterDB:
		roles := make([]Role, n)
		for i := range roles {
			roles[i] = RoleDB
		}
		return roles
	case ClusterService:
		return serviceRackRoles(n)
	default:
		panic(fmt.Sprintf("topology: unknown cluster type %v", ct))
	}
}

// Build wires a Topology from cfg. It validates that every cluster has at
// least one rack and every rack at least one host.
func Build(cfg Config) (*Topology, error) {
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("topology: config has no sites")
	}
	t := &Topology{}
	for si, ss := range cfg.Sites {
		if len(ss.Datacenters) == 0 {
			return nil, fmt.Errorf("topology: site %d has no datacenters", si)
		}
		site := Site{ID: len(t.Sites)}
		for _, ds := range ss.Datacenters {
			if len(ds.Clusters) == 0 {
				return nil, fmt.Errorf("topology: datacenter in site %d has no clusters", si)
			}
			dc := Datacenter{ID: len(t.Datacenters), Site: site.ID}
			for _, cs := range ds.Clusters {
				if cs.Racks <= 0 || cs.HostsPerRack <= 0 {
					return nil, fmt.Errorf("topology: cluster spec needs positive racks and hosts, got %+v", cs)
				}
				cl := Cluster{ID: len(t.Clusters), Type: cs.Type, Datacenter: dc.ID, Fabric: cs.Fabric}
				roles := rackRoles(cs.Type, cs.Racks)
				for ri := 0; ri < cs.Racks; ri++ {
					rack := Rack{
						ID:        len(t.Racks),
						Cluster:   cl.ID,
						Role:      roles[ri],
						FirstHost: HostID(len(t.hostRack)),
						NumHosts:  int32(cs.HostsPerRack),
					}
					for hi := 0; hi < cs.HostsPerRack; hi++ {
						t.hostRack = append(t.hostRack, int32(rack.ID))
					}
					t.roleRacks[rack.Role] = append(t.roleRacks[rack.Role], int32(rack.ID))
					cl.Racks = append(cl.Racks, rack.ID)
					t.Racks = append(t.Racks, rack)
				}
				dc.Clusters = append(dc.Clusters, cl.ID)
				t.Clusters = append(t.Clusters, cl)
			}
			site.Datacenters = append(site.Datacenters, dc.ID)
			t.Datacenters = append(t.Datacenters, dc)
		}
		t.Sites = append(t.Sites, site)
	}
	t.buildRoleIndex()
	return t, nil
}

// buildRoleIndex derives the role prefix sums, shared rack sizes, rack
// host bases and cluster/datacenter subrange offsets from roleRacks. It
// relies on two Build invariants: rack IDs are assigned in cluster order
// (so each role's rack list is partitioned into contiguous per-cluster
// runs) and cluster IDs in datacenter order (likewise per-datacenter
// runs).
func (t *Topology) buildRoleIndex() {
	for role := Role(0); role < numRoles; role++ {
		rr := t.roleRacks[role]
		cum := make([]int32, len(rr)+1)
		base := make([]HostID, len(rr))
		hpr := int32(0)
		for j, rid := range rr {
			n := t.Racks[rid].NumHosts
			cum[j+1] = cum[j] + n
			base[j] = t.Racks[rid].FirstHost - HostID(cum[j])
			switch {
			case j == 0:
				hpr = n
			case n != hpr:
				hpr = -1
			}
		}
		t.roleCum[role] = cum
		t.roleBase[role] = base
		t.roleHPR[role] = max(hpr, 0)

		cOff := make([]int32, len(t.Clusters)+1)
		j := 0
		for c := range t.Clusters {
			cOff[c] = int32(j)
			for j < len(rr) && t.Racks[rr[j]].Cluster == c {
				j++
			}
		}
		cOff[len(t.Clusters)] = int32(len(rr))
		t.roleClusterOff[role] = cOff

		dOff := make([]int32, len(t.Datacenters)+1)
		j = 0
		for d := range t.Datacenters {
			dOff[d] = int32(j)
			for j < len(rr) && t.Clusters[t.Racks[rr[j]].Cluster].Datacenter == d {
				j++
			}
		}
		dOff[len(t.Datacenters)] = int32(len(rr))
		t.roleDCOff[role] = dOff
	}
}

// MustBuild is Build that panics on error, for fixed internal configs.
func MustBuild(cfg Config) *Topology {
	t, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return t
}
