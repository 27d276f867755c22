package obs

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Wire form of the observability layer — the payloads distributed fleet
// agents send the aggregator inside fbwire frames. Two shapes exist:
//
//   - Delta: the counter and histogram increments of exactly one
//     (window, shard) cell, encoded straight out of the agent's
//     worker-local Shard before it folds and carried in the cell's CELL
//     frame. The aggregator parks the delta next to the cell's
//     fbflow.Partial and folds it into its own registry only when the
//     task-order merge frontier consumes the cell, so federated counters
//     are a pure function of the merged cell set: reproducible at any
//     agent count, and a cell whose partial never merged (a coverage
//     gap) contributes no metrics either.
//
//   - AgentReport: the per-process ephemera an agent ships once, on its
//     FIN frame — gauges, labeled series, stage timing totals, and the
//     span event ledger that the unified run timeline (obs/export) lays
//     onto the shared clock. Reports describe processes, not cells; they
//     are never folded into federated counters.
//
// Both directions follow the fbwire codec rules: little-endian, every
// length and count bounds-checked against hard caps, corrupt input
// errors — it never panics and never drives an unbounded allocation.
// Delta encode and decode are allocation-free in the steady state:
// encode appends into a caller-reused buffer, decode aliases names into
// the frame payload and reuses the Delta's entry capacity.

// obsWireVersion identifies the obs payload layout.
const obsWireVersion = 1

// Wire caps: a corrupt count must fail fast, not allocate.
const (
	maxWireEntries = 4096
	maxWireName    = 256
	maxWireEvents  = 1 << 16
)

// DeltaCounter is one counter increment in a decoded Delta. Name aliases
// the decode buffer and is valid only until the next Decode.
type DeltaCounter struct {
	Name []byte
	V    int64
}

// DeltaHist is one histogram increment in a decoded Delta.
type DeltaHist struct {
	Name    []byte
	Buckets [histBuckets]int64
	Sum     int64
	Count   int64
}

// Delta is one cell's decoded metric increments. Reuse one Delta across
// frames: Decode resets it and retains entry capacity.
type Delta struct {
	Counters []DeltaCounter
	Hists    []DeltaHist
}

// appendWireStr appends a length-prefixed string.
func appendWireStr(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// readWireStr reads a length-prefixed string, returning the remainder.
func readWireStr(data []byte, what string) ([]byte, []byte, error) {
	if len(data) < 2 {
		return nil, nil, fmt.Errorf("obs: wire: %s name length truncated", what)
	}
	n := int(binary.LittleEndian.Uint16(data))
	data = data[2:]
	if n == 0 || n > maxWireName {
		return nil, nil, fmt.Errorf("obs: wire: %s name length %d outside [1, %d]", what, n, maxWireName)
	}
	if len(data) < n {
		return nil, nil, fmt.Errorf("obs: wire: %s name truncated: need %d bytes, have %d", what, n, len(data))
	}
	return data[:n], data[n:], nil
}

// AppendDelta appends the shard's non-zero counter and histogram slots to
// buf as one Delta payload and returns the extended slice. It does not
// reset the shard — callers Fold (or Reset via Fold) afterwards, so the
// same increments also land in the agent's local registry. A nil shard
// appends nothing and returns buf unchanged, which is how a metrics-off
// agent sends no obs frames at all.
func (s *Shard) AppendDelta(buf []byte) []byte {
	if s == nil {
		return buf
	}
	r := s.reg
	r.mu.Lock()
	defer r.mu.Unlock()
	buf = append(buf, obsWireVersion)
	nc := 0
	for _, v := range s.counts {
		if v != 0 {
			nc++
		}
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(nc))
	for i, v := range s.counts {
		if v == 0 {
			continue
		}
		buf = appendWireStr(buf, r.counterNames[i])
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	nh := 0
	for i := range s.hists {
		if s.hists[i].count != 0 {
			nh++
		}
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(nh))
	for i := range s.hists {
		h := &s.hists[i]
		if h.count == 0 {
			continue
		}
		buf = appendWireStr(buf, r.histNames[i])
		var bm uint64
		for b, c := range h.buckets {
			if c != 0 {
				bm |= 1 << uint(b)
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, bm)
		for _, c := range h.buckets {
			if c != 0 {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(c))
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(h.sum))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(h.count))
	}
	return buf
}

// Decode replaces d's contents with the Delta payload in data. The whole
// slice must be consumed; names alias data. Malformed payloads error
// without partial effects beyond d's reset.
func (d *Delta) Decode(data []byte) error {
	d.Counters = d.Counters[:0]
	d.Hists = d.Hists[:0]
	if len(data) < 1 {
		return fmt.Errorf("obs: wire: delta header truncated")
	}
	if data[0] != obsWireVersion {
		return fmt.Errorf("obs: wire: unsupported delta version %d", data[0])
	}
	data = data[1:]
	if len(data) < 2 {
		return fmt.Errorf("obs: wire: delta counter count truncated")
	}
	nc := int(binary.LittleEndian.Uint16(data))
	data = data[2:]
	if nc > maxWireEntries {
		return fmt.Errorf("obs: wire: delta declares %d counters (cap %d)", nc, maxWireEntries)
	}
	var name []byte
	var err error
	for i := 0; i < nc; i++ {
		if name, data, err = readWireStr(data, "counter"); err != nil {
			return err
		}
		if len(data) < 8 {
			return fmt.Errorf("obs: wire: counter %q value truncated", name)
		}
		d.Counters = append(d.Counters, DeltaCounter{Name: name, V: int64(binary.LittleEndian.Uint64(data))})
		data = data[8:]
	}
	if len(data) < 2 {
		return fmt.Errorf("obs: wire: delta histogram count truncated")
	}
	nh := int(binary.LittleEndian.Uint16(data))
	data = data[2:]
	if nh > maxWireEntries {
		return fmt.Errorf("obs: wire: delta declares %d histograms (cap %d)", nh, maxWireEntries)
	}
	for i := 0; i < nh; i++ {
		if name, data, err = readWireStr(data, "histogram"); err != nil {
			return err
		}
		if len(data) < 8 {
			return fmt.Errorf("obs: wire: histogram %q bitmap truncated", name)
		}
		bm := binary.LittleEndian.Uint64(data)
		data = data[8:]
		need := 8*bits.OnesCount64(bm) + 16
		if len(data) < need {
			return fmt.Errorf("obs: wire: histogram %q truncated: need %d bytes, have %d", name, need, len(data))
		}
		d.Hists = append(d.Hists, DeltaHist{Name: name})
		h := &d.Hists[len(d.Hists)-1]
		for b := 0; b < histBuckets; b++ {
			if bm&(1<<uint(b)) == 0 {
				continue
			}
			c := int64(binary.LittleEndian.Uint64(data))
			data = data[8:]
			if c < 0 {
				return fmt.Errorf("obs: wire: histogram %q bucket %d count is negative", name, b)
			}
			h.Buckets[b] = c
		}
		h.Sum = int64(binary.LittleEndian.Uint64(data))
		h.Count = int64(binary.LittleEndian.Uint64(data[8:]))
		data = data[16:]
		if h.Count < 0 {
			return fmt.Errorf("obs: wire: histogram %q count is negative", name)
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("obs: wire: delta has %d trailing bytes", len(data))
	}
	return nil
}

// FoldDelta folds a decoded cell delta into the registry, registering
// unknown names lazily. Counter addition is commutative, but the
// aggregator folds at the task-order merge frontier anyway so the
// registry's state at any frontier is reproducible at any agent count.
// A nil registry discards the delta.
func (r *Registry) FoldDelta(d *Delta) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range d.Counters {
		c := &d.Counters[i]
		id, ok := r.counterIDs[string(c.Name)]
		if !ok {
			id = r.counterLocked(string(c.Name), "federated from a fleet agent")
		}
		r.counters[id] += c.V
	}
	for i := range d.Hists {
		dh := &d.Hists[i]
		id, ok := r.histIDs[string(dh.Name)]
		if !ok {
			id = r.histogramLocked(string(dh.Name), "federated from a fleet agent")
		}
		h := &r.hists[id]
		for b, c := range dh.Buckets {
			h.buckets[b] += c
		}
		h.sum += dh.Sum
		h.count += dh.Count
	}
}

// NamedValue is one gauge or series sample in an AgentReport.
type NamedValue struct {
	Name string
	V    float64
}

// AgentReport is the once-per-incarnation snapshot a fleet agent sends
// right before FIN: its per-process gauges and series, stage timing
// totals, and the span events the unified timeline renders.
type AgentReport struct {
	AgentID       uint32
	Incarnation   uint32
	StartUnixNs   int64
	Gauges        []NamedValue
	Series        []NamedValue
	Stages        []StageRecord
	Events        []SpanEvent
	EventsDropped int64
}

// AppendReport appends the registry's report payload to buf: every
// gauge, series, span-stat total, and span event recorded so far. This
// runs once per agent incarnation, so it is not on the zero-alloc path.
func (r *Registry) AppendReport(buf []byte, agentID, incarnation uint32) []byte {
	buf = append(buf, obsWireVersion)
	buf = binary.LittleEndian.AppendUint32(buf, agentID)
	buf = binary.LittleEndian.AppendUint32(buf, incarnation)
	if r == nil {
		buf = binary.LittleEndian.AppendUint64(buf, 0)
		for i := 0; i < 4; i++ { // empty gauge/series/stage/event sections
			buf = binary.LittleEndian.AppendUint32(buf, 0)
		}
		return binary.LittleEndian.AppendUint64(buf, 0)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.start.UnixNano()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.gaugeOrder)))
	for _, g := range r.gaugeOrder {
		buf = appendWireStr(buf, g)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.gauges[g]))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.seriesOrder)))
	for _, s := range r.seriesOrder {
		buf = appendWireStr(buf, s)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.series[s]))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.spanOrder)))
	for _, name := range r.spanOrder {
		st := r.spans[name]
		buf = appendWireStr(buf, name)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(st.count))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(st.wallNs))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(st.cpuNs))
		buf = binary.LittleEndian.AppendUint64(buf, st.allocs)
		buf = binary.LittleEndian.AppendUint64(buf, st.bytes)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.events)))
	for _, e := range r.events {
		buf = appendWireStr(buf, e.Name)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.StartNs))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(e.EndNs))
	}
	return binary.LittleEndian.AppendUint64(buf, uint64(r.eventsDropped))
}

// DecodeReport decodes a report payload into rep. Names are copied (a
// report outlives its frame); malformed payloads error without panics.
func DecodeReport(data []byte, rep *AgentReport) error {
	*rep = AgentReport{}
	if len(data) < 1+4+4+8 {
		return fmt.Errorf("obs: wire: report header truncated")
	}
	if data[0] != obsWireVersion {
		return fmt.Errorf("obs: wire: unsupported report version %d", data[0])
	}
	rep.AgentID = binary.LittleEndian.Uint32(data[1:])
	rep.Incarnation = binary.LittleEndian.Uint32(data[5:])
	rep.StartUnixNs = int64(binary.LittleEndian.Uint64(data[9:]))
	data = data[17:]

	section := func(what string, cap int) (int, error) {
		if len(data) < 4 {
			return 0, fmt.Errorf("obs: wire: report %s count truncated", what)
		}
		n := int(binary.LittleEndian.Uint32(data))
		data = data[4:]
		if n > cap {
			return 0, fmt.Errorf("obs: wire: report declares %d %s (cap %d)", n, what, cap)
		}
		return n, nil
	}
	named := func(what string) ([]NamedValue, error) {
		n, err := section(what, maxWireEntries)
		if err != nil {
			return nil, err
		}
		out := make([]NamedValue, 0, n)
		for i := 0; i < n; i++ {
			var name []byte
			if name, data, err = readWireStr(data, what); err != nil {
				return nil, err
			}
			if len(data) < 8 {
				return nil, fmt.Errorf("obs: wire: %s %q value truncated", what, name)
			}
			out = append(out, NamedValue{Name: string(name), V: math.Float64frombits(binary.LittleEndian.Uint64(data))})
			data = data[8:]
		}
		return out, nil
	}
	var err error
	if rep.Gauges, err = named("gauge"); err != nil {
		return err
	}
	if rep.Series, err = named("series"); err != nil {
		return err
	}
	ns, err := section("stages", maxWireEntries)
	if err != nil {
		return err
	}
	rep.Stages = make([]StageRecord, 0, ns)
	for i := 0; i < ns; i++ {
		var name []byte
		if name, data, err = readWireStr(data, "stage"); err != nil {
			return err
		}
		if len(data) < 40 {
			return fmt.Errorf("obs: wire: stage %q truncated", name)
		}
		runs := int64(binary.LittleEndian.Uint64(data))
		wallNs := int64(binary.LittleEndian.Uint64(data[8:]))
		cpuNs := int64(binary.LittleEndian.Uint64(data[16:]))
		if runs < 0 || wallNs < 0 || cpuNs < 0 {
			return fmt.Errorf("obs: wire: stage %q carries negative totals", name)
		}
		rep.Stages = append(rep.Stages, StageRecord{
			Name:        string(name),
			Runs:        runs,
			WallSeconds: float64(wallNs) / 1e9,
			CPUSeconds:  float64(cpuNs) / 1e9,
			Allocs:      binary.LittleEndian.Uint64(data[24:]),
			AllocBytes:  binary.LittleEndian.Uint64(data[32:]),
		})
		data = data[40:]
	}
	ne, err := section("events", maxWireEvents)
	if err != nil {
		return err
	}
	rep.Events = make([]SpanEvent, 0, ne)
	for i := 0; i < ne; i++ {
		var name []byte
		if name, data, err = readWireStr(data, "event"); err != nil {
			return err
		}
		if len(data) < 16 {
			return fmt.Errorf("obs: wire: event %q truncated", name)
		}
		ev := SpanEvent{
			Name:    string(name),
			StartNs: int64(binary.LittleEndian.Uint64(data)),
			EndNs:   int64(binary.LittleEndian.Uint64(data[8:])),
		}
		data = data[16:]
		if ev.EndNs < ev.StartNs {
			return fmt.Errorf("obs: wire: event %q ends before it starts", name)
		}
		rep.Events = append(rep.Events, ev)
	}
	if len(data) != 8 {
		return fmt.Errorf("obs: wire: report tail is %d bytes, want 8", len(data))
	}
	rep.EventsDropped = int64(binary.LittleEndian.Uint64(data))
	if rep.EventsDropped < 0 {
		return fmt.Errorf("obs: wire: report dropped-event count is negative")
	}
	return nil
}
