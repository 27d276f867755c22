package services

import (
	"fmt"

	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
)

// Picker selects communication peers for a given source host following
// the placement and balancing rules of §3–§4: Web servers talk to the
// cache followers, Multifeed, and SLB machines of their own cluster; cache
// followers answer the cluster's Web servers and sync with leaders across
// datacenters; leaders spread coherency traffic over every cluster;
// Hadoop prefers its own rack, then its cluster.
//
// Peer sets are topology.HostSet views over the columnar role index —
// four words per set, resolved in O(1) from the topology's prefix sums —
// so the Picker holds no per-host state of its own and costs nothing to
// build at any fleet size. Sets are read-only and the Picker is safe to
// share across the parallel engine's trace-bundle and fleet-shard
// workers. Selection is O(1) per draw when the role's racks share one
// size (every preset), since HostSet indexing is then a division by that
// size; with mixed rack sizes each index is a binary search over the
// role's rack prefix sums, O(log racks-of-role).
//
// The selection logic and its rng consumption are identical to the
// pre-columnar picker: every draw happens in the same order against a set
// enumerating the same hosts in the same (ascending host ID) order, so
// collected datasets are bit-identical across the layout change.
type Picker struct {
	Topo *topology.Topology
}

// NewPicker builds a Picker over topo.
func NewPicker(topo *topology.Topology) *Picker {
	return &Picker{Topo: topo}
}

// InCluster returns the hosts of the given role within cluster c.
func (p *Picker) InCluster(r topology.Role, c int) topology.HostSet {
	return p.Topo.RoleSetInCluster(r, c)
}

// InDC returns the hosts of the given role within datacenter dc.
func (p *Picker) InDC(r topology.Role, dc int) topology.HostSet {
	return p.Topo.RoleSetInDC(r, dc)
}

// Fleet returns all hosts of the given role.
func (p *Picker) Fleet(r topology.Role) topology.HostSet {
	return p.Topo.RoleSet(r)
}

// pick returns a uniform element of hosts other than self, falling back
// to self only if it is the sole member. It panics on an empty set — a
// topology too small for the requesting service model.
func pick(r *rng.Source, hosts topology.HostSet, self topology.HostID) topology.HostID {
	n := hosts.Len()
	if n == 0 {
		panic("services: empty peer set; topology lacks a required role")
	}
	for i := 0; i < 4; i++ {
		h := hosts.At(r.Intn(n))
		if h != self {
			return h
		}
	}
	return hosts.At(r.Intn(n))
}

// ClusterPeer picks a same-cluster host with the given role, falling back
// to datacenter scope then fleet scope when the cluster has none.
func (p *Picker) ClusterPeer(r *rng.Source, self topology.HostID, role topology.Role) topology.HostID {
	if set := p.InCluster(role, p.Topo.HostCluster(self)); set.Len() > 0 {
		return pick(r, set, self)
	}
	if set := p.InDC(role, p.Topo.HostDC(self)); set.Len() > 0 {
		return pick(r, set, self)
	}
	return pick(r, p.Fleet(role), self)
}

// DCPeer picks a host of the given role in the same datacenter (any
// cluster), falling back to fleet scope.
func (p *Picker) DCPeer(r *rng.Source, self topology.HostID, role topology.Role) topology.HostID {
	if set := p.InDC(role, p.Topo.HostDC(self)); set.Len() > 0 {
		return pick(r, set, self)
	}
	return pick(r, p.Fleet(role), self)
}

// FleetPeer picks a host of the given role anywhere, preferring the local
// datacenter with probability localBias.
func (p *Picker) FleetPeer(r *rng.Source, self topology.HostID, role topology.Role, localBias float64) topology.HostID {
	if r.Bool(localBias) {
		return p.DCPeer(r, self, role)
	}
	return pick(r, p.Fleet(role), self)
}

// RemotePeer picks a host of the given role in a *different* datacenter
// when one exists, otherwise anywhere.
func (p *Picker) RemotePeer(r *rng.Source, self topology.HostID, role topology.Role) topology.HostID {
	set := p.Fleet(role)
	dc := p.Topo.HostDC(self)
	n := set.Len()
	for i := 0; i < 16; i++ {
		h := set.At(r.Intn(n))
		if p.Topo.HostDC(h) != dc {
			return h
		}
	}
	return pick(r, set, self)
}

// RackPeer picks a same-rack host, falling back to the cluster when the
// rack has a single machine.
func (p *Picker) RackPeer(r *rng.Source, self topology.HostID) topology.HostID {
	rack := &p.Topo.Racks[p.Topo.HostRack(self)]
	if rack.NumHosts > 1 {
		for {
			h := rack.Host(r.Intn(int(rack.NumHosts)))
			if h != self {
				return h
			}
		}
	}
	return p.ClusterPeer(r, self, p.Topo.HostRole(self))
}

// HadoopPeer picks a transfer peer for a Hadoop node: same rack with
// probability rackFrac, otherwise elsewhere in the cluster.
func (p *Picker) HadoopPeer(r *rng.Source, self topology.HostID, rackFrac float64) topology.HostID {
	if r.Bool(rackFrac) {
		return p.RackPeer(r, self)
	}
	return p.ClusterPeer(r, self, topology.RoleHadoop)
}

// MiscPeer picks a long-tail service peer with the Service-cluster
// locality mix of Table 3 (miscDst): mostly cluster-scoped with
// datacenter and cross-datacenter components.
func (p *Picker) MiscPeer(r *rng.Source, self topology.HostID) topology.HostID {
	return p.sample(r, self, miscDst)
}

// sample draws one destination from a dst term distribution. Only with
// more than one term does it spend a Float64, choosing the first term
// whose running frac sum exceeds it; the term's scope then names the
// Picker method that draws the host.
func (p *Picker) sample(r *rng.Source, self topology.HostID, terms []dstTerm) topology.HostID {
	t := &terms[0]
	if len(terms) > 1 {
		u, sum := r.Float64(), 0.0
		for i := range terms {
			t = &terms[i]
			if sum += t.frac; u < sum {
				break
			}
		}
	}
	switch t.scope {
	case scopeRack:
		return p.RackPeer(r, self)
	case scopeCluster:
		return p.ClusterPeer(r, self, t.role)
	case scopeDC:
		return p.DCPeer(r, self, t.role)
	case scopeRemote:
		return p.RemotePeer(r, self, t.role)
	default:
		return p.FleetPeer(r, self, t.role, t.localBias)
	}
}

// Validate checks that the topology can satisfy every role the service
// models need.
func (p *Picker) Validate() error {
	for _, role := range topology.Roles {
		if p.Fleet(role).Len() == 0 {
			return fmt.Errorf("services: topology has no %v hosts", role)
		}
	}
	return nil
}
