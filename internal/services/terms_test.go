package services

import (
	"fmt"
	"sort"
	"testing"

	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
)

// This file keeps the fleet workload as it was written before the dst
// term table became its only declaration: one hand-written destination
// closure per mix entry, and MiscPeer's hand-written branch. They are the
// reference oracle that Picker.sample and MatrixProgram.resolve are
// checked against, draw for draw and scope for scope.

// refMixEntry is a mix entry with its destination sampler as a closure.
type refMixEntry struct {
	bytesPerSec float64
	pickDst     func(r *rng.Source, src topology.HostID) topology.HostID
}

// refMiscPeer is the hand-written Service-cluster locality mix.
func refMiscPeer(p *Picker, r *rng.Source, self topology.HostID) topology.HostID {
	u := r.Float64()
	switch {
	case u < 0.55:
		return p.ClusterPeer(r, self, topology.RoleMisc)
	case u < 0.80:
		return p.DCPeer(r, self, topology.RoleMisc)
	default:
		return p.FleetPeer(r, self, topology.RoleMisc, 0)
	}
}

// refFleetMix is the closure form of fleetMix.
func refFleetMix(pk *Picker, p Params, role topology.Role) []refMixEntry {
	switch role {
	case topology.RoleWeb:
		return []refMixEntry{
			{p.WebUserReqPerSec * (p.WebCacheReadsPerReq*cacheReadReqBytes.Mean() + p.WebCacheWritesPerReq*cacheWriteBytes.Mean()),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.ClusterPeer(r, src, topology.RoleCacheFollower)
				}},
			{p.WebUserReqPerSec * p.WebMFOpsPerReq * mfReqBytes.Mean(),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.ClusterPeer(r, src, topology.RoleMultifeed)
				}},
			{p.WebUserReqPerSec * slbControlBytes.Mean(),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.ClusterPeer(r, src, topology.RoleSLB)
				}},
			{p.WebUserReqPerSec * egressReplyBytes.Mean(),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					if r.Bool(0.7) {
						return pk.RemotePeer(r, src, topology.RoleMisc)
					}
					return pk.DCPeer(r, src, topology.RoleMisc)
				}},
			{p.WebEphemeralPerSec * miscReqBytes.Mean(),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return refMiscPeer(pk, r, src)
				}},
		}
	case topology.RoleCacheFollower:
		return []refMixEntry{
			{p.CacheReadPerSec*cacheReadRespBytes.Mean() + p.CacheWritePerSec*cacheWriteAckBytes.Mean(),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.ClusterPeer(r, src, topology.RoleWeb)
				}},
			{p.CacheLeaderSyncPerSec * leaderSyncReqBytes.Mean(),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.FleetPeer(r, src, topology.RoleCacheLeader, 0.6)
				}},
			{p.CacheEphemeralPerSec * miscReqBytes.Mean(),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return refMiscPeer(pk, r, src)
				}},
		}
	case topology.RoleCacheLeader:
		fillOut := p.LeaderFillPerSec * (0.6*leaderFillBytes.Mean() + 0.4*leaderInvalBytes.Mean())
		missOut := p.LeaderMissInPerSec * leaderFillBytes.Mean()
		return []refMixEntry{
			{fillOut + missOut,
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.FleetPeer(r, src, topology.RoleCacheFollower, 0.6)
				}},
			{p.LeaderPeerSyncPerSec * leaderPeerBytes.Mean(),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.ClusterPeer(r, src, topology.RoleCacheLeader)
				}},
			{p.LeaderDBOpsPerSec * dbQueryBytes.Mean(),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.FleetPeer(r, src, topology.RoleDB, 0.5)
				}},
			{p.LeaderMFPerSec * leaderFillBytes.Mean(),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.DCPeer(r, src, topology.RoleMultifeed)
				}},
			{p.LeaderEphemeralPerSec * miscReqBytes.Mean(),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return refMiscPeer(pk, r, src)
				}},
		}
	case topology.RoleHadoop:
		duty := p.HadoopBusyMeanSec / (p.HadoopBusyMeanSec + p.HadoopQuietMeanSec)
		// hadoopFleetDamp converts the busy monitored node of trace mode
		// into a day-long fleet average: across a production Hadoop
		// cluster most nodes at any instant are in map/compute phases or
		// waiting for task assignment, so the fleet mean sits well below
		// a busy node's rate while still ≈5x a Frontend host's (§4.1).
		const hadoopFleetDamp = 0.24
		dataOut := hadoopFleetDamp * duty * p.HadoopBusyFlowPerSec * 0.5 * hadoopFlowBytes.Mean()
		// Fleet-average rack fraction (Table 3: 13.3% rack, 80.9%
		// cluster): day-long averages include cross-job HDFS reads with
		// far less read locality than the busy shuffle a short trace
		// catches (§4.3).
		return []refMixEntry{
			{dataOut * 0.14,
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.RackPeer(r, src)
				}},
			{dataOut * 0.835,
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.ClusterPeer(r, src, topology.RoleHadoop)
				}},
			{dataOut * 0.017,
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.FleetPeer(r, src, topology.RoleMisc, 0.55)
				}},
			{p.HadoopQuietFlowPerSec * hadoopControlBytes.Mean() * 0.5,
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.ClusterPeer(r, src, topology.RoleHadoop)
				}},
		}
	case topology.RoleMultifeed:
		return []refMixEntry{
			{p.MFReqPerSec * mfRespBytes.Mean(),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.ClusterPeer(r, src, topology.RoleWeb)
				}},
			{p.MiscFlowPerSec / 4 * miscReqBytes.Mean(),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return refMiscPeer(pk, r, src)
				}},
		}
	case topology.RoleSLB:
		return []refMixEntry{
			{p.SLBReqPerSec * slbRequestBytes.Mean(),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.ClusterPeer(r, src, topology.RoleWeb)
				}},
			{p.SLBReqPerSec / 2 * slbControlBytes.Mean(),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.FleetPeer(r, src, topology.RoleMisc, 0.5)
				}},
		}
	case topology.RoleDB:
		return []refMixEntry{
			{p.DBQueryPerSec * dbResultBytes.Mean(),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.FleetPeer(r, src, topology.RoleCacheLeader, 0.5)
				}},
			{p.DBReplPerSec * dbReplBytes.Mean() / 3,
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.ClusterPeer(r, src, topology.RoleDB)
				}},
			{p.DBReplPerSec * dbReplBytes.Mean() / 3,
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.DCPeer(r, src, topology.RoleDB)
				}},
			{p.DBReplPerSec * dbReplBytes.Mean() / 3,
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return pk.RemotePeer(r, src, topology.RoleDB)
				}},
		}
	case topology.RoleMisc:
		return []refMixEntry{
			{p.MiscFlowPerSec * 0.5 * (miscReqBytes.Mean() + miscRespBytes.Mean()),
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return refMiscPeer(pk, r, src)
				}},
			// Bulk service-to-service synchronization (index shards,
			// feature stores, log shipping): the reason Service clusters
			// carry the third-largest traffic share in Table 3.
			{p.MiscBulkBytesPerSec,
				func(r *rng.Source, src topology.HostID) topology.HostID {
					return refMiscPeer(pk, r, src)
				}},
		}
	default:
		return nil
	}
}

// termTestTopos returns the topologies the term table is checked on: the
// tiny and small presets, and a single-datacenter fleet with one-host
// racks, mixed rack sizes within a role and two clusters of several
// types, so every Picker fallback (rack → cluster, cluster → DC → fleet,
// remote → fleet) and HostSet's mixed-size search are exercised.
func termTestTopos(t *testing.T) map[string]*topology.Topology {
	t.Helper()
	custom := topology.Config{Sites: []topology.SiteSpec{{Datacenters: []topology.DatacenterSpec{{Clusters: []topology.ClusterSpec{
		{Type: topology.ClusterFrontend, Racks: 5, HostsPerRack: 2},
		{Type: topology.ClusterFrontend, Racks: 4, HostsPerRack: 1},
		{Type: topology.ClusterHadoop, Racks: 3, HostsPerRack: 1},
		{Type: topology.ClusterHadoop, Racks: 2, HostsPerRack: 4},
		{Type: topology.ClusterService, Racks: 4, HostsPerRack: 1},
		{Type: topology.ClusterService, Racks: 2, HostsPerRack: 3},
		{Type: topology.ClusterCache, Racks: 2, HostsPerRack: 3},
		{Type: topology.ClusterDB, Racks: 1, HostsPerRack: 1},
		{Type: topology.ClusterDB, Racks: 2, HostsPerRack: 2},
	}}}}}}
	topos := map[string]*topology.Topology{
		"tiny":   topology.MustBuild(topology.Preset(topology.ScaleTiny)),
		"small":  topology.MustBuild(topology.Preset(topology.ScaleSmall)),
		"custom": topology.MustBuild(custom),
	}
	for name, topo := range topos {
		if err := NewPicker(topo).Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return topos
}

// TestTermSamplerMatchesClosures checks that Picker.sample over each mix
// entry's dst terms makes the same draws as the entry's reference closure:
// same rates, the same destination on every draw, and the same stream
// position afterwards. MiscPeer is checked against its hand-written form
// from every host, since trace mode calls it from most roles.
func TestTermSamplerMatchesClosures(t *testing.T) {
	const draws = 200
	p := DefaultParams()
	for name, topo := range termTestTopos(t) {
		pk := NewPicker(topo)
		same := func(what string, h topology.HostID, key uint64,
			ref func(*rng.Source) topology.HostID, got func(*rng.Source) topology.HostID) {
			ra, rb := rng.NewKeyed(11, uint64(h), key), rng.NewKeyed(11, uint64(h), key)
			for d := 0; d < draws; d++ {
				if a, b := ref(ra), got(rb); a != b {
					t.Fatalf("%s: %s from host %d, draw %d: sample %d, reference %d", name, what, h, d, b, a)
				}
			}
			if a, b := ra.Uint64(), rb.Uint64(); a != b {
				t.Fatalf("%s: %s from host %d: streams diverge after %d draws", name, what, h, draws)
			}
		}
		for _, role := range topology.Roles {
			ref, got := refFleetMix(pk, p, role), fleetMix(p, role)
			if len(ref) != len(got) {
				t.Fatalf("%s: %v has %d entries, reference %d", name, role, len(got), len(ref))
			}
			for i := range ref {
				if got[i].bytesPerSec != ref[i].bytesPerSec {
					t.Fatalf("%s: %v entry %d rate %v, reference %v", name, role, i, got[i].bytesPerSec, ref[i].bytesPerSec)
				}
			}
			for _, h := range topo.HostsByRole(role) {
				for i := range ref {
					same(fmt.Sprintf("%v entry %d", role, i), h, uint64(i),
						func(r *rng.Source) topology.HostID { return ref[i].pickDst(r, h) },
						func(r *rng.Source) topology.HostID { return pk.sample(r, h, got[i].dst) })
				}
			}
		}
		for h := topology.HostID(0); int(h) < topo.NumHosts(); h++ {
			same("MiscPeer", h, 99, func(r *rng.Source) topology.HostID { return refMiscPeer(pk, r, h) },
				func(r *rng.Source) topology.HostID { return pk.MiscPeer(r, h) })
		}
	}
}

// TestMatrixScopesMatchPicker checks, for every scope × role × source
// rack, that the racks matrix mode packs a term onto are the racks the
// matching Picker method draws from, fallbacks included. Both sides are
// unions of whole racks, so comparing rack sets compares host sets. The
// Picker side is sampled until each rack of the matrix range is all but
// certain to be hit (20 draws per host). RemotePeer's escape — 16 draws
// in a row from the source's own datacenter — happens with probability
// (local share)^16 and is not modelled by matrix mode; at most one such
// draw per case is tolerated. A source alone in its rack is drawn only
// when pick's self-avoiding retries run out, so that rack need not be hit.
func TestMatrixScopesMatchPicker(t *testing.T) {
	scopes := map[dstScope]string{scopeRack: "rack", scopeCluster: "cluster", scopeDC: "dc", scopeRemote: "remote", scopeFleet: "fleet"}
	for name, topo := range termTestTopos(t) {
		pk := NewPicker(topo)
		mp := NewMatrixProgram(pk, DefaultParams())
		r := rng.New(23)
		for scope := dstScope(0); int(scope) < len(scopes); scope++ {
			for _, role := range topology.Roles {
				for rk := range topo.Racks {
					src := &topo.Racks[rk]
					want := map[int]bool{}
					hosts := int32(0)
					if scope == scopeRack && src.NumHosts > 1 {
						// Synth keeps the bytes in the rack itself.
						want[rk] = true
						hosts = src.NumHosts
					} else {
						rr := mp.resolve(scope, role, src)
						racks := topo.RoleRacks(rr.role)
						for _, span := range [][2]int{{rr.lo1, rr.hi1}, {rr.lo2, rr.hi2}} {
							for _, rid := range racks[span[0]:span[1]] {
								want[int(rid)] = true
								hosts += topo.Racks[rid].NumHosts
							}
						}
						if hosts != rr.totalHosts() {
							t.Fatalf("%s: %s scope, %v, from rack %d: range counts %d hosts, racks hold %d",
								name, scopes[scope], role, rk, rr.totalHosts(), hosts)
						}
					}
					terms := []dstTerm{{1, scope, role, 0}}
					self := src.FirstHost
					got, escapes := map[int]bool{}, 0
					for d := 0; d < 20*int(hosts)+100; d++ {
						dst := topo.HostRack(pk.sample(r, self, terms))
						switch {
						case want[dst]:
							got[dst] = true
						case scope == scopeRemote && topo.HostDC(topo.Racks[dst].FirstHost) == topo.HostDC(self):
							escapes++
						default:
							t.Fatalf("%s: %s scope, %v, from rack %d: Picker drew rack %d outside the matrix range %v",
								name, scopes[scope], role, rk, dst, rackList(want))
						}
					}
					if src.NumHosts == 1 && want[rk] && !got[rk] {
						// The source is its rack's only host, and pick
						// returns it only after five self draws in a row.
						got[rk] = true
					}
					if len(got) != len(want) || escapes > 1 {
						t.Fatalf("%s: %s scope, %v, from rack %d: Picker hit %d of %d matrix racks (%d escapes)",
							name, scopes[scope], role, rk, len(got), len(want), escapes)
					}
				}
			}
		}
	}
}

func rackList(m map[int]bool) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
