package services

import (
	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
)

// Fleet mode produces flow-granularity outbound traffic for every host in
// the fleet over long windows — hours to a day — which is what the
// Fbflow-based analyses (Table 3, Figure 5, §4.1 utilization) consume.
// Every packet in the network is outbound from exactly one host, so
// generating each host's outbound flows covers total traffic exactly once.
//
// The destination logic is shared with trace mode through Picker; the
// byte volumes are derived from the same Params and message-size models,
// so the two modes describe one workload at two resolutions.

// wireOverhead inflates application bytes to on-wire bytes (headers and
// ACK traffic).
const wireOverhead = 1.18

// dstScope names the locality tier a traffic component targets; each
// scope is served by one Picker method (see Picker.sample).
type dstScope uint8

const (
	scopeRack dstScope = iota
	scopeCluster
	scopeDC
	scopeFleet
	scopeRemote
)

// dstTerm is one component of a mix entry's destination distribution: a
// fraction of the entry's bytes addressed to hosts of one role at one
// locality scope. A fleet term carries FleetPeer's local-datacenter
// preference in localBias; a rack term's role is the source's own. The
// terms of an entry sum to 1. Sampling mode draws from them with
// Picker.sample; matrix mode packs each term's share of the bytes.
type dstTerm struct {
	frac      float64
	scope     dstScope
	role      topology.Role
	localBias float64
}

// to is the single-term distribution "every byte to role at scope".
func to(scope dstScope, role topology.Role) []dstTerm {
	return []dstTerm{{1, scope, role, 0}}
}

// fleetDst is the distribution of Picker.FleetPeer(role, localBias).
func fleetDst(role topology.Role, localBias float64) []dstTerm {
	return []dstTerm{{1, scopeFleet, role, localBias}}
}

// miscDst is the Service-cluster locality mix of Picker.MiscPeer.
var miscDst = []dstTerm{
	{0.55, scopeCluster, topology.RoleMisc, 0},
	{0.25, scopeDC, topology.RoleMisc, 0},
	{0.20, scopeFleet, topology.RoleMisc, 0},
}

// mixEntry is one component of a role's outbound traffic: a mean byte
// rate and its destination distribution.
type mixEntry struct {
	bytesPerSec float64
	dst         []dstTerm
}

// fleetMix returns the outbound traffic composition of one role,
// mirroring the trace-mode loops (and hence Table 2).
func fleetMix(p Params, role topology.Role) []mixEntry {
	switch role {
	case topology.RoleWeb:
		return []mixEntry{
			{p.WebUserReqPerSec * (p.WebCacheReadsPerReq*cacheReadReqBytes.Mean() + p.WebCacheWritesPerReq*cacheWriteBytes.Mean()),
				to(scopeCluster, topology.RoleCacheFollower)},
			{p.WebUserReqPerSec * p.WebMFOpsPerReq * mfReqBytes.Mean(), to(scopeCluster, topology.RoleMultifeed)},
			{p.WebUserReqPerSec * slbControlBytes.Mean(), to(scopeCluster, topology.RoleSLB)},
			{p.WebUserReqPerSec * egressReplyBytes.Mean(),
				[]dstTerm{{0.7, scopeRemote, topology.RoleMisc, 0}, {0.3, scopeDC, topology.RoleMisc, 0}}},
			{p.WebEphemeralPerSec * miscReqBytes.Mean(), miscDst},
		}
	case topology.RoleCacheFollower:
		return []mixEntry{
			{p.CacheReadPerSec*cacheReadRespBytes.Mean() + p.CacheWritePerSec*cacheWriteAckBytes.Mean(),
				to(scopeCluster, topology.RoleWeb)},
			{p.CacheLeaderSyncPerSec * leaderSyncReqBytes.Mean(), fleetDst(topology.RoleCacheLeader, 0.6)},
			{p.CacheEphemeralPerSec * miscReqBytes.Mean(), miscDst},
		}
	case topology.RoleCacheLeader:
		fillOut := p.LeaderFillPerSec * (0.6*leaderFillBytes.Mean() + 0.4*leaderInvalBytes.Mean())
		missOut := p.LeaderMissInPerSec * leaderFillBytes.Mean()
		return []mixEntry{
			{fillOut + missOut, fleetDst(topology.RoleCacheFollower, 0.6)},
			{p.LeaderPeerSyncPerSec * leaderPeerBytes.Mean(), to(scopeCluster, topology.RoleCacheLeader)},
			{p.LeaderDBOpsPerSec * dbQueryBytes.Mean(), fleetDst(topology.RoleDB, 0.5)},
			{p.LeaderMFPerSec * leaderFillBytes.Mean(), to(scopeDC, topology.RoleMultifeed)},
			{p.LeaderEphemeralPerSec * miscReqBytes.Mean(), miscDst},
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
		return []mixEntry{
			{dataOut * 0.14, to(scopeRack, topology.RoleHadoop)},
			{dataOut * 0.835, to(scopeCluster, topology.RoleHadoop)},
			{dataOut * 0.017, fleetDst(topology.RoleMisc, 0.55)},
			{p.HadoopQuietFlowPerSec * hadoopControlBytes.Mean() * 0.5, to(scopeCluster, topology.RoleHadoop)},
		}
	case topology.RoleMultifeed:
		return []mixEntry{
			{p.MFReqPerSec * mfRespBytes.Mean(), to(scopeCluster, topology.RoleWeb)},
			{p.MiscFlowPerSec / 4 * miscReqBytes.Mean(), miscDst},
		}
	case topology.RoleSLB:
		return []mixEntry{
			{p.SLBReqPerSec * slbRequestBytes.Mean(), to(scopeCluster, topology.RoleWeb)},
			{p.SLBReqPerSec / 2 * slbControlBytes.Mean(), fleetDst(topology.RoleMisc, 0.5)},
		}
	case topology.RoleDB:
		return []mixEntry{
			{p.DBQueryPerSec * dbResultBytes.Mean(), fleetDst(topology.RoleCacheLeader, 0.5)},
			{p.DBReplPerSec * dbReplBytes.Mean() / 3, to(scopeCluster, topology.RoleDB)},
			{p.DBReplPerSec * dbReplBytes.Mean() / 3, to(scopeDC, topology.RoleDB)},
			{p.DBReplPerSec * dbReplBytes.Mean() / 3, to(scopeRemote, topology.RoleDB)},
		}
	case topology.RoleMisc:
		return []mixEntry{
			{p.MiscFlowPerSec * 0.5 * (miscReqBytes.Mean() + miscRespBytes.Mean()), miscDst},
			// Bulk service-to-service synchronization (index shards,
			// feature stores, log shipping): the reason Service clusters
			// carry the third-largest traffic share in Table 3.
			{p.MiscBulkBytesPerSec, miscDst},
		}
	default:
		return nil
	}
}

// FleetRate returns the mean outbound on-wire bytes per second for one
// host of the given role.
func FleetRate(p Params, role topology.Role) float64 {
	total := 0.0
	for _, m := range fleetMix(p, role) {
		total += m.bytesPerSec
	}
	return total * wireOverhead
}

// mixTable is the compiled fleet workload shared by FleetProgram and
// MatrixProgram: every role's mix under one Params, built once at
// configuration time instead of once per (host, window) call.
type mixTable struct {
	pk    *Picker
	mixes [topology.RoleMisc + 1][]mixEntry
}

func newMixTable(pk *Picker, p Params) mixTable {
	mt := mixTable{pk: pk}
	for role := topology.Role(0); role <= topology.RoleMisc; role++ {
		mt.mixes[role] = fleetMix(p, role)
	}
	return mt
}

// FleetProgram is the sampling-mode fleet workload: per host and window,
// samplesPerComponent Picker.sample draws from each mix entry's dst
// terms. Safe for concurrent use; Flows allocates nothing.
type FleetProgram struct {
	mixTable
}

// NewFleetProgram compiles the mixes of every role under params p.
func NewFleetProgram(pk *Picker, p Params) *FleetProgram {
	return &FleetProgram{newMixTable(pk, p)}
}

// Flows synthesizes flow-granularity outbound traffic of host src over a
// window of windowSec seconds with an overall load multiplier (diurnal
// modulation), invoking emit for each (dst, bytes) flow record.
// samplesPerComponent controls the dispersion resolution per mix entry.
// The burst-noise draw is consumed even for zero-rate entries, so the
// stream position is a pure function of the entry count.
func (fp *FleetProgram) Flows(r *rng.Source, src topology.HostID,
	windowSec, loadFactor float64, samplesPerComponent int, emit func(dst topology.HostID, bytes float64)) {
	if samplesPerComponent <= 0 {
		samplesPerComponent = 8
	}
	mix := fp.mixes[fp.pk.Topo.HostRole(src)]
	for i := range mix {
		m := &mix[i]
		total := m.bytesPerSec * wireOverhead * windowSec * loadFactor
		// Host-level burst noise: windows are not identical.
		total *= 0.8 + 0.4*r.Float64()
		if total <= 0 {
			continue
		}
		per := total / float64(samplesPerComponent)
		for i := 0; i < samplesPerComponent; i++ {
			dst := fp.pk.sample(r, src, m.dst)
			if dst == src {
				continue
			}
			emit(dst, per)
		}
	}
}
