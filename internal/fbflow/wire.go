package fbflow

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"fbdcnet/internal/openhash"
)

// Binary wire form of a Partial — the payload a distributed fleet agent
// ships to the aggregator for every (window, shard) cell. The encoding is
// a direct dump of the columnar layout: dense float64 arrays verbatim,
// each open-addressing table as a count followed by (key, value) pairs in
// insertion order. The rack-pair rows travel in the same table form,
// keyed src<<32 | dst, row after row: each source rack's entries are one
// run, in the row's first-touch order. Decoding rebuilds the tables in
// that insertion order and the rows in that row order, so MergePartial on
// a decoded Partial performs the identical per-key addition sequence as
// on the original — the bit-identity contract survives the wire.
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

// tableCount reads a table's entry count from the front of data and
// checks it against the cap and the bytes left, which bound the one
// allocation the caller then makes for the entries.
func tableCount(data []byte, name string) (int, []byte, error) {
	if len(data) < 4 {
		return 0, nil, fmt.Errorf("fbflow: partial wire: %s count truncated", name)
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if n > maxWireTableEntries {
		return 0, nil, fmt.Errorf("fbflow: partial wire: %s declares %d entries (cap %d)", name, n, maxWireTableEntries)
	}
	if len(data) < 16*n {
		return 0, nil, fmt.Errorf("fbflow: partial wire: %s truncated: %d entries need %d bytes, have %d",
			name, n, 16*n, len(data))
	}
	return n, data, nil
}

// decodeTable fills t (already Reset) from the front of data and returns
// the remainder.
func decodeTable(data []byte, t *openhash.Table[float64], name string) ([]byte, error) {
	n, data, err := tableCount(data, name)
	if err != nil {
		return nil, err
	}
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

// appendRows appends the rack-pair rows in table form: the entry count,
// then each row's (src<<32 | dst, value) entries, row by row.
func appendRows(buf []byte, r *rackRows) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.dst)))
	at := len(buf)
	buf = slices.Grow(buf, 16*len(r.dst))[:at+16*len(r.dst)]
	out := buf[at:]
	for i := range r.src {
		src, dst, val := r.row(i)
		key := uint64(uint32(src)) << 32
		val = val[:len(dst)]
		for j, d := range dst {
			binary.LittleEndian.PutUint64(out, key|uint64(uint32(d)))
			binary.LittleEndian.PutUint64(out[8:], math.Float64bits(val[j]))
			out = out[16:]
		}
	}
	return buf
}

// decodeRows fills r (already reset) from the front of data and returns
// the remainder. Every rack ID is checked against the Load cap before it
// indexes anything; then a borrowed scratch's presence bits reject a
// destination repeated within its row and a source rack whose row
// already closed (which covers a key repeated after its row closed).
func decodeRows(data []byte, r *rackRows) ([]byte, error) {
	const name = "rackPair"
	n, data, err := tableCount(data, name)
	if err != nil {
		return nil, err
	}
	if cap(r.dst) < n {
		r.dst, r.val = make([]int32, 0, n), make([]float64, 0, n)
	}
	s := getRowScratch()
	open, start := int32(-1), 0 // the row being decoded and its first entry
	defer func() {
		for _, src := range r.src {
			s.srcSet[src>>6] = 0
		}
		if open >= 0 {
			s.srcSet[open>>6] = 0
		}
		for _, d := range r.dst[start:] {
			s.set[d>>6] = 0
		}
		putRowScratch(s)
	}()
	for i := 0; i < n; i++ {
		k := binary.LittleEndian.Uint64(data[16*i:])
		if k == ^uint64(0) {
			return nil, fmt.Errorf("fbflow: partial wire: %s entry %d uses the reserved sentinel key", name, i)
		}
		src, dst := k>>32, k&0xffffffff
		if src >= maxArchiveRacks || dst >= maxArchiveRacks {
			return nil, fmt.Errorf("fbflow: partial wire: %s key (%d,%d) outside %d racks", name, src, dst, maxArchiveRacks)
		}
		if int32(src) != open {
			if open >= 0 {
				for _, d := range r.dst[start:] {
					s.set[d>>6] = 0
				}
				r.src = append(r.src, open)
				r.end = append(r.end, int32(len(r.dst)))
				start = len(r.dst)
			}
			if s.srcSet[src>>6]&(1<<(src&63)) != 0 {
				return nil, fmt.Errorf("fbflow: partial wire: %s source rack %d reopens after its row closed (key %#x)", name, src, k)
			}
			s.srcSet[src>>6] |= 1 << (src & 63)
			open = int32(src)
		}
		if s.set[dst>>6]&(1<<(dst&63)) != 0 {
			return nil, fmt.Errorf("fbflow: partial wire: %s repeats key %#x", name, k)
		}
		s.set[dst>>6] |= 1 << (dst & 63)
		r.dst = append(r.dst, int32(dst))
		r.val = append(r.val, math.Float64frombits(binary.LittleEndian.Uint64(data[16*i+8:])))
	}
	if open >= 0 {
		r.src = append(r.src, open)
		r.end = append(r.end, int32(len(r.dst)))
	}
	return data[16*n:], nil
}

// AppendBinary appends p's wire form to buf and returns the extended
// slice. It closes p's open row first (Add may continue afterwards). The
// encoder allocates nothing beyond buf growth, so a pooled buffer makes
// steady-state encoding allocation-free.
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
	p.seal()
	buf = appendRows(buf, &p.rackPair)
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
// capacity and allocates nothing in the steady state. A rejected frame
// leaves p empty.
func (p *Partial) DecodeBinary(data []byte) error {
	err := p.decode(data)
	if err != nil {
		p.Reset()
	}
	return err
}

func (p *Partial) decode(data []byte) error {
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
	data, err := decodeRows(data, &p.rackPair)
	if err != nil {
		return err
	}
	for _, tb := range []struct {
		t    *openhash.Table[float64]
		name string
	}{
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
