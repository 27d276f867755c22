// Package telemetry implements in-band network telemetry for the
// simulated fabric: deterministically sampled packets carry a per-hop
// path record appended at each switch (queue depth at enqueue, queuing
// delay, ECMP choice, and a drop/reroute/fault reason code), while every
// switch port emits a fixed-interval queue-occupancy time series into
// pooled columnar buffers.
//
// Sampling is a pure function of (seed, flow key): a flow is selected via
// rng.NewKeyed(seed, StreamKey("telemetry"), key.FastHash()), so the set
// of traced packets is identical at any worker count — the same contract
// every other subsystem honors. The package is a leaf: it imports only
// packet and rng, and netsim attaches to it, never the reverse.
package telemetry

import (
	"fbdcnet/internal/packet"
	"fbdcnet/internal/rng"
)

// Tier classifies a switch by its layer in the Clos fabric, edge outward.
// (netsim.Tier names link layers; this type names switch layers, which is
// what per-hop attribution needs.)
type Tier uint8

// Switch tiers, edge outward.
const (
	TierRSW Tier = iota // top-of-rack
	TierCSW             // cluster switch
	TierFC              // Fat Cat (datacenter aggregation)
	TierDCR             // datacenter router
	TierAGG             // site aggregator
	TierBB              // backbone
	NumTiers
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierRSW:
		return "RSW"
	case TierCSW:
		return "CSW"
	case TierFC:
		return "FC"
	case TierDCR:
		return "DCR"
	case TierAGG:
		return "AGG"
	case TierBB:
		return "BB"
	default:
		return "?"
	}
}

// Reason codes how a hop (or the packet as a whole) was disposed of. The
// same code space serves per-hop records and terminal packet status, so
// drop attribution can join the two directly.
type Reason uint8

// Disposal reason codes.
const (
	ReasonForwarded  Reason = iota // hop accepted the packet and transmitted it
	ReasonDelivered                // terminal: reached the destination host
	ReasonBufferDrop               // shared buffer pool exhausted at enqueue
	ReasonSwitchDown               // switch fault, at receive or at departure
	ReasonLinkDown                 // link fault, at receive or at departure
	ReasonNoLivePath               // no viable ECMP post at injection (fault dead end)
	NumReasons
)

// String implements fmt.Stringer.
func (r Reason) String() string {
	switch r {
	case ReasonForwarded:
		return "forwarded"
	case ReasonDelivered:
		return "delivered"
	case ReasonBufferDrop:
		return "buffer-drop"
	case ReasonSwitchDown:
		return "switch-down"
	case ReasonLinkDown:
		return "link-down"
	case ReasonNoLivePath:
		return "no-live-path"
	default:
		return "?"
	}
}

// StreamKey folds a name into a key for rng.NewKeyed, so named telemetry
// streams stay decorrelated from every other keyed stream (FNV-1a, the
// same fold the fault scheduler uses for scenario names).
func StreamKey(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// telemetryKey tags the sampling stream: the "telemetry" in
// rng.NewKeyed(seed, "telemetry", flowKey).
var telemetryKey = StreamKey("telemetry")

// MaxHops is the longest possible path through the fabric: an inter-site
// route touches eleven switches. Records preallocate this capacity so
// AddHop never allocates on a Clos path.
const MaxHops = 11

// Hop is one switch traversal of a sampled packet.
type Hop struct {
	Switch uint32 // dense switch ID assigned by RegisterSwitch
	Tier   Tier
	Reason Reason
	Port   uint16 // egress port the hop queued the packet on
	QDepth int64  // shared-buffer bytes already held at enqueue
	QDelay int64  // ns spent waiting behind earlier departures
	At     int64  // engine time of the hop, ns
}

// PathRecord is the full trace of one sampled delivery attempt. Each
// retransmission attempt gets its own record, so Tries distinguishes
// first transmissions from fault-layer retries.
type PathRecord struct {
	Key      packet.FlowKey
	Size     uint32
	Tries    uint8
	Post     uint8 // ECMP post the flow hash (possibly rerouted) selected
	Rerouted bool  // true when a fault moved the packet off its hash post
	Status   Reason
	Injected int64 // ns
	Done     int64 // ns: delivery or drop instant
	Hops     []Hop
}

// AddHop appends one switch traversal. Within MaxHops capacity — every
// Clos path — it does not allocate.
func (r *PathRecord) AddHop(sw uint32, tier Tier, port uint16, reason Reason, qdepth, qdelay, at int64) {
	r.Hops = append(r.Hops, Hop{
		Switch: sw, Tier: tier, Port: port, Reason: reason,
		QDepth: qdepth, QDelay: qdelay, At: at,
	})
}

// FailLastHop rewrites the final hop's reason code: a packet that queued
// successfully but was lost at its departure instant (a fault firing
// mid-queue) is attributed to the hop that held it.
func (r *PathRecord) FailLastHop(reason Reason) {
	if n := len(r.Hops); n > 0 {
		r.Hops[n-1].Reason = reason
	}
}

// reset clears a record for reuse, keeping the Hops capacity.
func (r *PathRecord) reset() {
	*r = PathRecord{Hops: r.Hops[:0]}
}

// SwitchInfo describes one registered switch of the traced fabric.
type SwitchInfo struct {
	Name  string
	Tier  Tier
	Ports int
}

// Sink collects path records and occupancy series for one fabric run. It
// is single-goroutine, like the Engine driving it; parallel experiments
// give each task its own Sink and fold them at the task-order frontier.
type Sink struct {
	seed uint64
	rate float64

	switches []SwitchInfo
	byName   map[string]uint32

	// sampled memoizes the per-flow keyed-rng decision so the per-packet
	// check is one map probe (and allocation-free after the flow's first
	// packet).
	sampled map[uint64]bool

	// MaxRecords caps how many finished records are retained verbatim for
	// export and rendering; aggregates in Agg always cover every record.
	MaxRecords int
	Records    []*PathRecord
	free       []*PathRecord

	// Buffers, when non-nil, supplies pooled occupancy series; otherwise
	// NewOccSeries allocates fresh ones.
	Buffers *BufferPool
	Occ     []*OccSeries

	Agg Agg
}

// DefaultMaxRecords bounds per-sink verbatim record retention.
const DefaultMaxRecords = 64

// NewSink creates a sink sampling the given fraction of flows. The seed
// must be the experiment seed: sampling decisions are a pure function of
// (seed, flow key) and nothing else.
func NewSink(seed uint64, rate float64) *Sink {
	return &Sink{
		seed:       seed,
		rate:       rate,
		byName:     make(map[string]uint32),
		sampled:    make(map[uint64]bool),
		MaxRecords: DefaultMaxRecords,
	}
}

// RegisterSwitch assigns the next dense switch ID. Fabrics register their
// switches in a fixed order, so IDs are stable across runs and across the
// per-window fabrics of one experiment.
func (s *Sink) RegisterSwitch(name string, tier Tier, ports int) uint32 {
	id := uint32(len(s.switches))
	s.switches = append(s.switches, SwitchInfo{Name: name, Tier: tier, Ports: ports})
	s.byName[name] = id
	return id
}

// Switches returns the registration table (shared, do not mutate).
func (s *Sink) Switches() []SwitchInfo { return s.switches }

// SwitchByName resolves a switch name to its registered ID.
func (s *Sink) SwitchByName(name string) (uint32, bool) {
	id, ok := s.byName[name]
	return id, ok
}

// Sampled reports whether the flow carries path records. The decision is
// drawn once per flow from rng.NewKeyed(seed, "telemetry", flowHash) and
// memoized; repeat calls are a single map probe.
func (s *Sink) Sampled(key packet.FlowKey) bool {
	h := key.FastHash()
	if v, ok := s.sampled[h]; ok {
		return v
	}
	v := rng.NewKeyed(s.seed, telemetryKey, h).Float64() < s.rate
	s.sampled[h] = v
	return v
}

// Start opens a path record for one sampled delivery attempt, reusing a
// pooled record when one is free.
func (s *Sink) Start(key packet.FlowKey, size uint32, tries, post uint8, rerouted bool, now int64) *PathRecord {
	var r *PathRecord
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		r = &PathRecord{Hops: make([]Hop, 0, MaxHops)}
	}
	r.Key, r.Size, r.Tries, r.Post, r.Rerouted = key, size, tries, post, rerouted
	r.Injected = now
	s.Agg.Sampled++
	if tries > 0 {
		s.Agg.Retransmit++
	}
	if rerouted {
		s.Agg.Rerouted++
	}
	return r
}

// Finish closes a record with its terminal status, folds it into the
// aggregate, and either retains it (up to MaxRecords) or returns it to
// the pool.
func (s *Sink) Finish(r *PathRecord, status Reason, now int64) {
	r.Status, r.Done = status, now
	s.Agg.fold(r)
	if len(s.Records) < s.MaxRecords {
		s.Records = append(s.Records, r)
		return
	}
	r.reset()
	s.free = append(s.free, r)
}

// Drop records a sampled packet lost before entering the fabric — the
// no-live-path dead end of the fault layer, where no hop ever sees it.
func (s *Sink) Drop(key packet.FlowKey, size uint32, tries uint8, reason Reason, now int64) {
	r := s.Start(key, size, tries, 0, false, now)
	s.Finish(r, reason, now)
}

// NewOccSeries opens a columnar occupancy series for one switch, drawing
// from the buffer pool when attached, and tracks it on the sink.
func (s *Sink) NewOccSeries(sw uint32, ports int) *OccSeries {
	var os *OccSeries
	if s.Buffers != nil {
		os = s.Buffers.Get()
	} else {
		os = new(OccSeries)
	}
	os.Switch, os.Ports = sw, ports
	s.Occ = append(s.Occ, os)
	return os
}

// Release returns every pooled resource — occupancy buffers and retained
// records' free list — after a fold. Call at the task-order frontier once
// the sink's data has been merged.
func (s *Sink) Release() {
	if s.Buffers != nil {
		for _, os := range s.Occ {
			s.Buffers.Put(os)
		}
	}
	s.Occ = nil
	s.free = nil
}
