// Package services implements the behavioural traffic models of the
// services §3.2 describes: software load balancers, the stateless Web
// tier, the cache tier (followers serving reads inside Frontend clusters,
// leaders keeping clusters coherent), Hadoop's offline analysis, Multifeed
// news-feed assembly, and the MySQL database tier.
//
// Each role gets two views of the same model:
//
//   - Trace mode (Generate): an event-driven synthesis of the complete
//     bidirectional packet-header stream a port mirror of one host would
//     capture — the input for every per-packet and sub-second analysis.
//   - Fleet mode (FleetProgram): a flow-granularity sample of a host's
//     outbound traffic over long windows — the input for the Fbflow-style
//     fleet analyses (locality tables, traffic matrices, utilization).
//
// Both views share the destination-selection logic in Picker, so the
// locality structure (the paper's central observation) has a single
// source of truth.
package services

// Params holds the tunable knobs of every service model plus the ablation
// switches called out in DESIGN.md. Zero value is not useful; start from
// DefaultParams.
type Params struct {
	// Web tier.
	WebUserReqPerSec     float64 // user HTTP requests hitting one Web server
	WebCacheReadsPerReq  float64 // mean cache reads in a request's fan-out
	WebCacheWritesPerReq float64
	WebMFOpsPerReq       float64 // mean Multifeed ops per request
	WebEphemeralPerSec   float64 // short-lived misc connections per second

	// Cache follower.
	CacheReadPerSec       float64 // read requests served per second
	CacheWritePerSec      float64
	CacheLeaderSyncPerSec float64 // coherency ops with leaders
	CacheEphemeralPerSec  float64
	HotObjectPerSec       float64 // rate at which objects go hot (§5.2)
	HotObjectMultiplier   float64 // read-rate multiplier while hot

	// Cache leader.
	LeaderFillPerSec      float64 // fills + invalidations toward followers
	LeaderMissInPerSec    float64 // miss requests arriving from followers
	LeaderDBOpsPerSec     float64
	LeaderMFPerSec        float64
	LeaderPeerSyncPerSec  float64 // intra-cluster leader coordination
	LeaderEphemeralPerSec float64

	// Hadoop.
	HadoopBusyFlowPerSec  float64 // flow arrivals during shuffle/output
	HadoopQuietFlowPerSec float64 // control traffic during compute
	HadoopBusyMeanSec     float64
	HadoopQuietMeanSec    float64
	HadoopRackLocalFrac   float64 // probability a transfer stays in rack
	HadoopChunkBytes      int     // application write size per burst
	HadoopChunkGapMs      float64 // mean pause between chunks of a flow

	// Background roles.
	MFReqPerSec    float64
	SLBReqPerSec   float64
	DBQueryPerSec  float64
	DBReplPerSec   float64
	MiscFlowPerSec float64
	// MiscBulkBytesPerSec is the long-tail services' bulk data-plane
	// volume per host (index/feature/log shipping), visible only in
	// fleet mode.
	MiscBulkBytesPerSec float64

	// Ablation switches (§4 of DESIGN.md). All default off: the paper's
	// production behaviour.
	DisableLoadBalancing       bool // skew request spread across peers
	DisableConnectionPooling   bool // open a fresh connection per transaction
	DisableHotObjectMitigation bool // let hot objects stay hot for tens of seconds
	PartitionUsers             bool // concentrate a web host's cache working set

	// CatalogObjects is the cache object catalog size used for popularity
	// draws.
	CatalogObjects int
}

// Scaled returns a copy of p with every per-second rate multiplied by f,
// used for diurnal load modulation and stress experiments. Structural
// knobs (fan-out degrees, fractions, ablations) are unchanged.
func (p Params) Scaled(f float64) Params {
	q := p
	q.WebUserReqPerSec *= f
	q.WebEphemeralPerSec *= f
	q.CacheReadPerSec *= f
	q.CacheWritePerSec *= f
	q.CacheLeaderSyncPerSec *= f
	q.CacheEphemeralPerSec *= f
	q.LeaderFillPerSec *= f
	q.LeaderMissInPerSec *= f
	q.LeaderDBOpsPerSec *= f
	q.LeaderMFPerSec *= f
	q.LeaderPeerSyncPerSec *= f
	q.LeaderEphemeralPerSec *= f
	q.HadoopBusyFlowPerSec *= f
	q.HadoopQuietFlowPerSec *= f
	q.MFReqPerSec *= f
	q.SLBReqPerSec *= f
	q.DBQueryPerSec *= f
	q.DBReplPerSec *= f
	q.MiscFlowPerSec *= f
	return q
}

// DefaultParams returns the calibrated baseline: rates scaled so that
// single-host traces run quickly at test scale while preserving every
// shape the paper reports (see EXPERIMENTS.md for the calibration table).
func DefaultParams() Params {
	return Params{
		WebUserReqPerSec:     100,
		WebCacheReadsPerReq:  17,
		WebCacheWritesPerReq: 2,
		WebMFOpsPerReq:       1.5,
		WebEphemeralPerSec:   350,

		CacheReadPerSec:       4000,
		CacheWritePerSec:      300,
		CacheLeaderSyncPerSec: 600,
		CacheEphemeralPerSec:  200,
		HotObjectPerSec:       0.25,
		HotObjectMultiplier:   3,

		LeaderFillPerSec:      1400,
		LeaderMissInPerSec:    950,
		LeaderDBOpsPerSec:     250,
		LeaderMFPerSec:        120,
		LeaderPeerSyncPerSec:  700,
		LeaderEphemeralPerSec: 220,

		HadoopBusyFlowPerSec:  300,
		HadoopQuietFlowPerSec: 15,
		HadoopBusyMeanSec:     15,
		HadoopQuietMeanSec:    25,
		HadoopRackLocalFrac:   0.72,
		HadoopChunkBytes:      64 << 10,
		HadoopChunkGapMs:      8,

		MFReqPerSec:         900,
		SLBReqPerSec:        800,
		DBQueryPerSec:       500,
		DBReplPerSec:        60,
		MiscFlowPerSec:      200,
		MiscBulkBytesPerSec: 2_200_000,

		CatalogObjects: 100_000,
	}
}
