package services

import (
	"fbdcnet/internal/topology"
)

// The background roles below are not monitored in any of the paper's
// figures, but they must exist and behave plausibly: they are the far
// ends of monitored hosts' conversations, the constituents of the Service
// and DB columns of Table 3, and the request sources of the examples.

// installMultifeed serves aggregation requests from the cluster's Web
// tier and receives pushes from cache leaders (news-feed assembly, §3.1).
func (t *Trace) installMultifeed() {
	g, p := t.G, t.P
	self := g.Host
	g.Poisson(p.MFReqPerSec, func() {
		web := t.pk.ClusterPeer(g.R, self, topology.RoleWeb)
		t.rpcIn(web, PortMF, mfReqBytes, replyMF)
	})
	g.Poisson(p.LeaderMFPerSec, func() {
		leader := t.pk.FleetPeer(g.R, self, topology.RoleCacheLeader, 0.7)
		c := t.conn(leader, PortMF, true)
		c.RecvMsg(int(leaderFillBytes.Sample(g.R)))
	})
	g.Poisson(p.MiscFlowPerSec/4, func() {
		t.ephemeralRPC(t.pk.MiscPeer(g.R, self))
	})
}

// installSLB forwards user requests to the cluster's Web servers and
// exchanges health/control traffic; page payloads return to users
// directly, so the SLB's own byte volume is modest (Table 2's small SLB
// share).
func (t *Trace) installSLB() {
	g, p := t.G, t.P
	self := g.Host
	g.Poisson(p.SLBReqPerSec, func() {
		web := t.pk.ClusterPeer(g.R, self, topology.RoleWeb)
		t.rpcOut(web, PortWeb, slbRequestBytes, replySLBControl)
	})
	// Ingress from the edge (misc hosts stand in for routers).
	g.Poisson(p.SLBReqPerSec/2, func() {
		edge := t.pk.FleetPeer(g.R, self, topology.RoleMisc, 0.5)
		c := t.conn(edge, PortSLB, true)
		c.RecvMsg(int(slbRequestBytes.Sample(g.R)))
	})
}

// installDB serves queries from cache leaders and replicates writes to
// sibling databases in the same cluster, the same datacenter, and across
// the backbone in roughly equal parts (the most uniform locality row of
// Table 3).
func (t *Trace) installDB() {
	g, p := t.G, t.P
	self := g.Host
	g.Poisson(p.DBQueryPerSec, func() {
		leader := t.pk.FleetPeer(g.R, self, topology.RoleCacheLeader, 0.5)
		t.rpcIn(leader, PortDB, dbQueryBytes, replyDBResult)
	})
	g.Poisson(p.DBReplPerSec, func() {
		var peer topology.HostID
		switch g.R.Intn(3) {
		case 0:
			peer = t.pk.ClusterPeer(g.R, self, topology.RoleDB)
		case 1:
			peer = t.pk.DCPeer(g.R, self, topology.RoleDB)
		default:
			peer = t.pk.RemotePeer(g.R, self, topology.RoleDB)
		}
		t.conn(peer, PortDB, false).SendMsg(int(dbReplBytes.Sample(g.R)))
	})
}

// installMisc models the long tail of supporting services: RPC chatter
// with the Service-cluster locality mix.
func (t *Trace) installMisc() {
	g, p := t.G, t.P
	self := g.Host
	g.Poisson(p.MiscFlowPerSec, func() {
		peer := t.pk.MiscPeer(g.R, self)
		if g.R.Bool(0.5) {
			t.rpcOut(peer, PortMisc, miscReqBytes, replyMisc)
		} else {
			t.rpcIn(peer, PortMisc, miscReqBytes, replyMisc)
		}
	})
}
