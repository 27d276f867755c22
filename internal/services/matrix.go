package services

import (
	"fbdcnet/internal/openhash"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
)

// Traffic-matrix synthesis: the bulk alternative to per-host destination
// sampling. Instead of drawing samplesPerComponent destinations for every
// host of every rack (O(hosts × samples) rng draws and tagger calls), the
// matrix mode works at rack granularity, in the style of DCT²Gen-style
// traffic generators and the vectorised packing of Parsonson et al.
// (arXiv:2302.09970): for each (source rack, mix term) it computes the
// term's aggregate bytes for the window, packs them onto a bounded set of
// destination racks selected by residual capacity, and accumulates the
// result into a per-(src rack, dst rack) demand matrix keyed by packed
// uint64 pairs. Flows are then drawn from the matrix — one record per
// non-zero cell — so the record count scales with racks, not hosts.
//
// Determinism contract: synthesis for one (window, rack-block) task
// consumes a single rng stream in a fixed order (racks ascending, mix
// entries in declaration order, terms in declaration order), and the
// demand matrix is drained in insertion order, so the produced record
// sequence is a pure function of (seed, window, block) — bit-identical
// at any worker count, exactly like the sampling mode's shard streams.

// matrixFanout bounds the destination racks one (source rack, term) pair
// spreads onto. Residual-capacity rotation across consecutive source
// racks keeps long-run per-rack inbound shares proportional to capacity
// even though each source touches at most this many destinations.
const matrixFanout = 8

// matrixDrain is the multiplicative residual decay applied to a
// destination rack each time packing selects it. Selected racks sink to
// the bottom of the sort order until the renewal floor below restores
// them, rotating load across the candidate range.
const matrixDrain = 0.5

// matrixRenewFrac is the renewal floor: when a rack's residual falls
// under this fraction of its capacity it is restored to full capacity.
const matrixRenewFrac = 0.05

// packPair packs two non-negative 32-bit indices into one uint64 key.
// The high bit stays clear, so the openhash sentinel is unreachable.
func packPair(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// DemandMatrix accumulates one task's rack-to-rack demand plus the
// packing residuals. Both keep their backing arrays across Reset, so a
// matrix reused window after window performs zero steady-state
// allocations (the pooling contract of fbflow.Partial).
type DemandMatrix struct {
	// cells maps packPair(srcRack, dstRack) -> bytes.
	cells openhash.Table[float64]
	// residual[rack] is the rack's remaining packing capacity in host
	// units, 0 until packing first touches it in this window; touched
	// lists those racks, for Reset. A rack hosts exactly one role, so
	// the rack alone keys it.
	residual []float64
	touched  []int32
}

// NewDemandMatrix returns an empty matrix.
func NewDemandMatrix() *DemandMatrix { return &DemandMatrix{} }

// Reset empties the matrix and the packing residuals without releasing
// their backing arrays.
func (m *DemandMatrix) Reset() {
	m.cells.Reset()
	for _, rid := range m.touched {
		m.residual[rid] = 0
	}
	m.touched = m.touched[:0]
}

// Cells reports the number of non-zero (src rack, dst rack) entries.
func (m *DemandMatrix) Cells() int { return m.cells.Len() }

// EachCell visits every demand cell in insertion order — deterministic
// for a fixed rng stream, which is what lets the determinism flight
// recorder hash a synthesized matrix as canonical output.
func (m *DemandMatrix) EachCell(f func(srcRack, dstRack int32, bytes float64)) {
	m.cells.Range(func(k uint64, v *float64) {
		f(int32(k>>32), int32(uint32(k)), *v)
	})
}

// add accumulates bytes from srcRack to dstRack.
func (m *DemandMatrix) add(srcRack, dstRack int32, bytes float64) {
	*m.cells.Slot(packPair(srcRack, dstRack)) += bytes
}

// MatrixProgram is the matrix-mode counterpart of FleetProgram: the same
// compiled mix table, read as rack-granularity byte shares of each dst
// term instead of per-host draws. Safe for concurrent use; all per-task
// mutable state lives in the DemandMatrix.
type MatrixProgram struct {
	mixTable
}

// NewMatrixProgram compiles the mixes of every role under params p.
func NewMatrixProgram(pk *Picker, p Params) *MatrixProgram {
	return &MatrixProgram{newMixTable(pk, p)}
}

// rackRange is a candidate destination range: one or two contiguous
// subranges of a role's rack list (two for the remote scope, which
// excludes the local datacenter from the middle of the fleet range).
type rackRange struct {
	role           topology.Role
	lo1, hi1       int // first subrange of RoleRacks(role)
	lo2, hi2       int // second subrange, empty unless remote scope
	hosts1, hosts2 int32
}

func (rr *rackRange) totalHosts() int32 { return rr.hosts1 + rr.hosts2 }

// resolve maps (scope, role, source rack) to the destination rack range,
// applying the same fallbacks as the Picker methods: rack → cluster of
// the source's own role (a single-host rack; Synth keeps a multi-host
// rack's bytes in the rack itself), cluster → datacenter → fleet,
// datacenter → fleet, remote → fleet when only one datacenter holds the
// role.
func (mp *MatrixProgram) resolve(scope dstScope, role topology.Role, srcRack *topology.Rack) rackRange {
	topo := mp.pk.Topo
	if scope == scopeRack {
		role = srcRack.Role
	}
	cum := topo.RoleCum(role)
	span := func(lo, hi int) rackRange {
		return rackRange{role: role, lo1: lo, hi1: hi, hosts1: cum[hi] - cum[lo]}
	}
	fleet := span(0, len(cum)-1)
	switch scope {
	case scopeRack, scopeCluster:
		if lo, hi := topo.RoleRackRangeInCluster(role, srcRack.Cluster); lo < hi {
			return span(lo, hi)
		}
		fallthrough
	case scopeDC:
		dc := topo.Clusters[srcRack.Cluster].Datacenter
		if lo, hi := topo.RoleRackRangeInDC(role, dc); lo < hi {
			return span(lo, hi)
		}
		return fleet
	case scopeRemote:
		dc := topo.Clusters[srcRack.Cluster].Datacenter
		lo, hi := topo.RoleRackRangeInDC(role, dc)
		out := rackRange{
			role: role,
			lo1:  0, hi1: lo, hosts1: cum[lo] - cum[0],
			lo2: hi, hi2: len(cum) - 1, hosts2: cum[len(cum)-1] - cum[hi],
		}
		if out.totalHosts() == 0 {
			return fleet
		}
		return out
	default: // scopeFleet
		return fleet
	}
}

// drawRack picks one destination rack index (into RoleRacks) from the
// range, weighted by rack host counts: a uniform host position of the
// range, mapped to its rack by the topology's position lookup.
func (mp *MatrixProgram) drawRack(r *rng.Source, rr *rackRange) int {
	cum := mp.pk.Topo.RoleCum(rr.role)
	u := int32(r.Uint64n(uint64(rr.totalHosts())))
	pos := cum[rr.lo1] + u
	if u >= rr.hosts1 {
		pos = cum[rr.lo2] + (u - rr.hosts1)
	}
	return mp.pk.Topo.RoleRackAt(rr.role, pos)
}

// packTerm distributes total bytes from srcRack across up to matrixFanout
// racks of the (scope, role) range that resolve names: propose 2×fanout
// capacity-weighted candidates, sort the deduplicated set by residual
// capacity descending, keep the top fanout, fill proportionally to
// residual, then apply the residual decay in one batch — the
// propose/sort/fill/update steps of the vectorised packing algorithm, on
// fixed-size stacks.
func (mp *MatrixProgram) packTerm(r *rng.Source, srcRack *topology.Rack, scope dstScope, role topology.Role,
	total float64, m *DemandMatrix) {
	rr := mp.resolve(scope, role, srcRack)
	if rr.totalHosts() == 0 {
		return
	}
	topo := mp.pk.Topo
	racks := topo.RoleRacks(rr.role)
	if len(m.residual) < len(topo.Racks) {
		m.residual = append(m.residual, make([]float64, len(topo.Racks)-len(m.residual))...)
	}
	uniform := float64(topo.RoleHostsPerRack(rr.role))

	var cand [2 * matrixFanout]int32
	var res [2 * matrixFanout]float64
	n := 0
	proposals := 2 * matrixFanout
	if int32(proposals) > rr.totalHosts() {
		proposals = int(rr.totalHosts())
	}
propose:
	for i := 0; i < proposals; i++ {
		rid := racks[mp.drawRack(r, &rr)]
		for j := 0; j < n; j++ {
			if cand[j] == rid {
				continue propose
			}
		}
		capacity := uniform
		if capacity == 0 {
			capacity = float64(topo.Racks[rid].NumHosts)
		}
		slot := &m.residual[rid]
		if *slot == 0 {
			m.touched = append(m.touched, rid)
		}
		if *slot == 0 || *slot < capacity*matrixRenewFrac {
			*slot = capacity
		}
		cand[n], res[n] = rid, *slot
		n++
	}
	if n == 0 {
		return
	}
	// Insertion sort by residual descending, ties to the lower rack ID:
	// a fixed total order keeps the packed output independent of proposal
	// arrival order beyond what the rng stream already fixes.
	for i := 1; i < n; i++ {
		ci, ri := cand[i], res[i]
		j := i - 1
		for j >= 0 && (res[j] < ri || (res[j] == ri && cand[j] > ci)) {
			cand[j+1], res[j+1] = cand[j], res[j]
			j--
		}
		cand[j+1], res[j+1] = ci, ri
	}
	if n > matrixFanout {
		n = matrixFanout
	}
	var sum float64
	for i := 0; i < n; i++ {
		sum += res[i]
	}
	for i := 0; i < n; i++ {
		m.add(int32(srcRack.ID), cand[i], total*res[i]/sum)
	}
	// Batched residual update: decay every selected rack once.
	for i := 0; i < n; i++ {
		m.residual[cand[i]] = res[i] * matrixDrain
	}
}

// Synth fills m with the demand of source racks [rackLo, rackHi) for one
// window. The rng stream is consumed in a fixed order: one burst-noise
// draw per (rack, mix entry) — the rack-granularity analogue of
// FleetProgram.Flows' per-host draw — then the packing proposals per
// term. A fleet term with a local bias packs as FleetPeer samples: its
// datacenter share (frac × localBias) first, then its fleet share
// (frac × (1 − localBias)).
func (mp *MatrixProgram) Synth(r *rng.Source, rackLo, rackHi int,
	windowSec, loadFactor float64, m *DemandMatrix) {
	topo := mp.pk.Topo
	for rk := rackLo; rk < rackHi; rk++ {
		rack := &topo.Racks[rk]
		mix := mp.mixes[rack.Role]
		hosts := float64(rack.NumHosts)
		for i := range mix {
			e := &mix[i]
			total := e.bytesPerSec * wireOverhead * windowSec * loadFactor * hosts
			// Rack-level burst noise, consumed even for zero-rate
			// entries so the stream position is a pure function of the
			// entry count, as in FleetProgram.Flows.
			total *= 0.8 + 0.4*r.Float64()
			if total <= 0 {
				continue
			}
			for ti := range e.dst {
				term := &e.dst[ti]
				bytes := total * term.frac
				switch {
				case term.scope == scopeRack && rack.NumHosts > 1:
					m.add(int32(rk), int32(rk), bytes)
				case term.scope == scopeFleet && term.localBias > 0:
					mp.packTerm(r, rack, scopeDC, term.role, bytes*term.localBias, m)
					mp.packTerm(r, rack, scopeFleet, term.role, bytes*(1-term.localBias), m)
				default:
					mp.packTerm(r, rack, term.scope, term.role, bytes, m)
				}
			}
		}
	}
}

// DrawFlows drains the matrix in insertion order, emitting one flow per
// non-zero cell between concrete hosts of the cell's rack pair. Endpoint
// hosts are drawn uniformly within each rack; an intra-rack cell redirects
// a self-flow to the next host so loopback traffic is never emitted from
// racks with more than one machine.
func (mp *MatrixProgram) DrawFlows(r *rng.Source, m *DemandMatrix,
	emit func(src, dst topology.HostID, bytes float64)) {
	topo := mp.pk.Topo
	m.cells.Range(func(k uint64, v *float64) {
		srcRack := &topo.Racks[int32(k>>32)]
		dstRack := &topo.Racks[int32(uint32(k))]
		src := srcRack.Host(r.Intn(int(srcRack.NumHosts)))
		dst := dstRack.Host(r.Intn(int(dstRack.NumHosts)))
		if dst == src {
			if dstRack.NumHosts <= 1 {
				return
			}
			off := (int32(dst-dstRack.FirstHost) + 1) % dstRack.NumHosts
			dst = dstRack.FirstHost + topology.HostID(off)
		}
		emit(src, dst, *v)
	})
}
