package fbflow

import "fbdcnet/internal/sketch"

// Cardinality tracks distinct-population estimates over the tagged
// record stream with fixed-size HLL sketches: communicating host pairs
// ("flows" at fleet granularity), active hosts, and active racks.
// Exact distinct counts would need one table entry per key — the very
// growth sketch mode exists to avoid — while three HLLs cost ~24 KiB
// total regardless of fleet size.
//
// HLL merge is register-wise max (commutative, idempotent), so shard
// cardinalities merged at the fleet engine's task-order frontier are
// bit-identical to a single-stream sketch at any worker count.
type Cardinality struct {
	flows *sketch.HLL // packed (src, dst) host pair
	hosts *sketch.HLL // either endpoint
	racks *sketch.HLL // either endpoint's rack
}

// NewCardinality returns an empty tracker. Flow pairs get the highest
// precision (they dominate the key population); racks the lowest.
func NewCardinality() *Cardinality {
	return &Cardinality{
		flows: sketch.NewHLL(14),
		hosts: sketch.NewHLL(12),
		racks: sketch.NewHLL(10),
	}
}

// Add observes one record's endpoints.
func (c *Cardinality) Add(r Record) {
	c.flows.Add(uint64(uint32(r.Src))<<32 | uint64(uint32(r.Dst)))
	c.hosts.Add(uint64(r.Src))
	c.hosts.Add(uint64(r.Dst))
	c.racks.Add(uint64(r.SrcRack))
	c.racks.Add(uint64(r.DstRack))
}

// Merge folds other into c.
func (c *Cardinality) Merge(other *Cardinality) {
	if other == nil {
		return
	}
	c.flows.Merge(other.flows)
	c.hosts.Merge(other.hosts)
	c.racks.Merge(other.racks)
}

// Reset clears the sketches without releasing their registers.
func (c *Cardinality) Reset() {
	c.flows.Reset()
	c.hosts.Reset()
	c.racks.Reset()
}

// Flows estimates the number of distinct communicating host pairs.
func (c *Cardinality) Flows() float64 { return c.flows.Estimate() }

// Hosts estimates the number of distinct active hosts.
func (c *Cardinality) Hosts() float64 { return c.hosts.Estimate() }

// Racks estimates the number of distinct active racks.
func (c *Cardinality) Racks() float64 { return c.racks.Estimate() }
