package fbflow

import (
	"encoding/binary"
	"fmt"
	"math"

	"fbdcnet/internal/openhash"
)

// Binary wire form of a Partial — the payload a distributed fleet agent
// ships to the aggregator for every (window, shard) cell. The encoding is
// a direct dump of the columnar layout: dense float64 arrays verbatim,
// each open-addressing table as a count followed by (key, value) pairs in
// insertion order. Decoding with Slot in that same order reproduces the
// table's insertion order exactly, so MergePartial on a decoded Partial
// performs the identical per-key addition sequence as on the original —
// the bit-identity contract survives the wire.
//
// All integers are little-endian; float64s travel as Float64bits, so
// every sum round-trips bit-exactly.

// partialWireVersion identifies the Partial payload layout.
const partialWireVersion = 1

// partialFlagCard marks a payload carrying HLL cardinality state.
const partialFlagCard = 1

// localityCells is the dense locality matrix size.
const localityCells = numClusterTypes * numLocalities

// maxWireTableEntries caps the declared size of one table on the wire: a
// corrupt count must not drive a multi-gigabyte allocation before the
// per-entry bounds check catches the truncation.
const maxWireTableEntries = 1 << 27

func appendF64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// appendTable appends count + insertion-ordered (key, value) pairs.
func appendTable(buf []byte, t *openhash.Table[float64]) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Len()))
	t.Range(func(k uint64, v *float64) {
		buf = binary.LittleEndian.AppendUint64(buf, k)
		buf = appendF64(buf, *v)
	})
	return buf
}

// decodeTable fills t (already Reset) from the front of data and returns
// the remainder.
func decodeTable(data []byte, t *openhash.Table[float64], name string) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("fbflow: partial wire: %s count truncated", name)
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if n > maxWireTableEntries {
		return nil, fmt.Errorf("fbflow: partial wire: %s declares %d entries (cap %d)", name, n, maxWireTableEntries)
	}
	if len(data) < 16*n {
		return nil, fmt.Errorf("fbflow: partial wire: %s truncated: %d entries need %d bytes, have %d",
			name, n, 16*n, len(data))
	}
	// The length check above bounds n by the frame size, so the one
	// allocation is too.
	t.Reserve(n)
	for i := 0; i < n; i++ {
		k := binary.LittleEndian.Uint64(data)
		if k == ^uint64(0) {
			return nil, fmt.Errorf("fbflow: partial wire: %s entry %d uses the reserved sentinel key", name, i)
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
		before := t.Len()
		slot := t.Slot(k)
		if t.Len() == before {
			return nil, fmt.Errorf("fbflow: partial wire: %s repeats key %#x", name, k)
		}
		*slot = v
		data = data[16:]
	}
	return data, nil
}

// AppendBinary appends p's wire form to buf and returns the extended
// slice. The encoder allocates nothing beyond buf growth, so a pooled
// buffer makes steady-state encoding allocation-free.
func (p *Partial) AppendBinary(buf []byte) []byte {
	flags := byte(0)
	if p.card != nil {
		flags |= partialFlagCard
	}
	buf = append(buf, partialWireVersion, flags)
	buf = appendF64(buf, p.totalBytes)
	for ct := range p.locality {
		for l := range p.locality[ct] {
			buf = appendF64(buf, p.locality[ct][l])
		}
	}
	for _, b := range p.byClusterType {
		buf = appendF64(buf, b)
	}
	buf = appendTable(buf, &p.rackPair)
	buf = appendTable(buf, &p.clusterPair)
	buf = appendTable(buf, &p.perMinute)
	buf = appendTable(buf, &p.hostOut)
	buf = appendTable(buf, &p.rackCross)
	buf = appendTable(buf, &p.clusterCross)
	if p.card != nil {
		buf = p.card.AppendBinary(buf)
	}
	return buf
}

// DecodeBinary replaces p's contents with the wire form in data (the
// whole slice must be consumed — trailing garbage errors). The receiver
// is Reset first, so decoding into a pooled Partial reuses its table
// capacity and allocates nothing in the steady state.
func (p *Partial) DecodeBinary(data []byte) error {
	p.Reset()
	if len(data) < 2 {
		return fmt.Errorf("fbflow: partial wire: header truncated")
	}
	if data[0] != partialWireVersion {
		return fmt.Errorf("fbflow: partial wire: unsupported version %d", data[0])
	}
	flags := data[1]
	if flags&^partialFlagCard != 0 {
		return fmt.Errorf("fbflow: partial wire: unknown flags %#x", flags)
	}
	data = data[2:]
	dense := 1 + localityCells + len(p.byClusterType)
	if len(data) < 8*dense {
		return fmt.Errorf("fbflow: partial wire: dense block truncated: need %d bytes, have %d", 8*dense, len(data))
	}
	f64 := func() float64 {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return v
	}
	p.totalBytes = f64()
	for ct := range p.locality {
		for l := range p.locality[ct] {
			p.locality[ct][l] = f64()
		}
	}
	for ct := range p.byClusterType {
		p.byClusterType[ct] = f64()
	}
	var err error
	for _, tb := range []struct {
		t    *openhash.Table[float64]
		name string
	}{
		{&p.rackPair, "rackPair"},
		{&p.clusterPair, "clusterPair"},
		{&p.perMinute, "perMinute"},
		{&p.hostOut, "hostOut"},
		{&p.rackCross, "rackCross"},
		{&p.clusterCross, "clusterCross"},
	} {
		if data, err = decodeTable(data, tb.t, tb.name); err != nil {
			return err
		}
	}
	if flags&partialFlagCard != 0 {
		p.EnableCardinality()
		if data, err = p.card.DecodeBinary(data); err != nil {
			return err
		}
	}
	if len(data) != 0 {
		return fmt.Errorf("fbflow: partial wire: %d trailing bytes", len(data))
	}
	return nil
}

// AppendBinary appends the three HLL sketches' wire forms to buf.
func (c *Cardinality) AppendBinary(buf []byte) []byte {
	buf = c.flows.AppendBinary(buf)
	buf = c.hosts.AppendBinary(buf)
	return c.racks.AppendBinary(buf)
}

// DecodeBinary replaces c's sketches with the wire form at the front of
// data and returns the remainder.
func (c *Cardinality) DecodeBinary(data []byte) ([]byte, error) {
	var err error
	for _, h := range []struct {
		sk interface {
			DecodeBinary([]byte) ([]byte, error)
		}
		name string
	}{
		{c.flows, "flows"},
		{c.hosts, "hosts"},
		{c.racks, "racks"},
	} {
		if data, err = h.sk.DecodeBinary(data); err != nil {
			return nil, fmt.Errorf("fbflow: cardinality %s: %w", h.name, err)
		}
	}
	return data, nil
}
