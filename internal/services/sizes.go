package services

import "fbdcnet/internal/dist"

// Application message size models, calibrated so the emergent per-packet
// distributions reproduce Figure 12 (median non-Hadoop packet < 200 B,
// Hadoop bimodal ACK/MTU) and the outbound byte mixes of Table 2. Sizes
// are application payload bytes; the workload layer segments them into
// wire packets.
var (
	// Web ↔ SLB: user HTTP requests in, small control/ack bytes back
	// (responses return to users directly, not through the L4 SLB).
	slbRequestBytes = dist.LogNormalFromMedian(500, 0.5)
	slbControlBytes = dist.LogNormalFromMedian(600, 0.4)

	// Web → edge: the compressed page/JSON payload leaving the cluster.
	egressReplyBytes = dist.LogNormalFromMedian(650, 0.9)

	// Web ↔ cache: small keyed reads with small-but-variable values, and
	// larger writes carrying serialized objects.
	cacheReadReqBytes  = dist.LogNormalFromMedian(230, 0.35)
	cacheReadRespBytes = dist.LogNormalFromMedian(580, 1.05)
	cacheWriteBytes    = dist.LogNormalFromMedian(1400, 0.8)
	cacheWriteAckBytes = dist.Constant{V: 110}

	// Web ↔ Multifeed: aggregation requests with story payload replies.
	mfReqBytes  = dist.LogNormalFromMedian(1100, 0.6)
	mfRespBytes = dist.LogNormalFromMedian(1900, 0.9)

	// Cache coherency plane.
	leaderSyncReqBytes = dist.LogNormalFromMedian(280, 0.5)
	leaderFillBytes    = dist.LogNormalFromMedian(950, 1.0)
	leaderInvalBytes   = dist.Constant{V: 150}
	leaderPeerBytes    = dist.LogNormalFromMedian(480, 0.7)
	dbQueryBytes       = dist.LogNormalFromMedian(420, 0.5)
	dbResultBytes      = dist.LogNormalFromMedian(1500, 1.0)
	dbReplBytes        = dist.LogNormalFromMedian(5000, 1.0)

	// Ephemeral RPC traffic to long-tail services.
	miscReqBytes  = dist.LogNormalFromMedian(150, 0.8)
	miscRespBytes = dist.LogNormalFromMedian(650, 1.0)

	// Hadoop transfer sizes: a light-tailed body of control/metadata
	// flows with a heavy-tailed minority of shuffle/HDFS transfers.
	// Shape targets (Fig. 6c): median < 1 KB, ≈70% under 10 KB, < 5%
	// above 1 MB.
	hadoopFlowBytes = dist.NewMixture(
		[]float64{0.68, 0.32},
		[]dist.Dist{
			dist.LogNormalFromMedian(420, 1.3),
			dist.BoundedPareto{Lo: 2 << 10, Hi: 1 << 28, Alpha: 0.3},
		},
	)
	hadoopControlBytes = dist.LogNormalFromMedian(300, 0.8)
)

// reply names a response size model, so that a response event can
// carry it.
type reply uint8

const (
	replyCacheRead reply = iota
	replyCacheWriteAck
	replyMF
	replyLeaderFill
	replyLeaderPeer
	replyDBResult
	replySLBControl
	replyMisc
	replyHeartbeat
)

// replies are the response size models by reply.
var replies = [...]dist.Dist{
	replyCacheRead:     cacheReadRespBytes,
	replyCacheWriteAck: cacheWriteAckBytes,
	replyMF:            mfRespBytes,
	replyLeaderFill:    leaderFillBytes,
	replyLeaderPeer:    leaderPeerBytes,
	replyDBResult:      dbResultBytes,
	replySLBControl:    slbControlBytes,
	replyMisc:          miscRespBytes,
	replyHeartbeat:     dist.Constant{V: heartbeatMsgBytes},
}
