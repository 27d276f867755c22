package fbflow

import (
	"encoding/binary"
	"strings"
	"testing"

	"fbdcnet/internal/openhash"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
)

// fillPartial accumulates a deterministic pseudo-random record stream
// into p (optionally with cardinality attached) and returns the count.
func fillPartial(t *testing.T, p *Partial, seed uint64, n int) {
	t.Helper()
	topo := testTopo(t)
	tagger := NewTagger(topo)
	r := rng.New(seed)
	hosts := topo.NumHosts()
	for i := 0; i < n; i++ {
		src := topology.HostID(r.Intn(hosts))
		dst := topology.HostID(r.Intn(hosts))
		rec, ok := tagger.Flow(int64(i%7), topo.Addr(src), topo.Addr(dst), 40+r.Float64()*1e6)
		if !ok {
			t.Fatalf("tagger rejected in-topology flow %d", i)
		}
		p.Add(rec)
	}
}

// mergeInto merges p into a fresh dataset and returns its archive form,
// the full per-key state in one comparable blob.
func mergeInto(t *testing.T, p *Partial) string {
	t.Helper()
	ds := NewDataset()
	ds.MergePartial(p)
	var b []byte
	buf := &sliceWriter{b: b}
	if err := ds.Save(buf); err != nil {
		t.Fatalf("saving dataset: %v", err)
	}
	return string(buf.b)
}

type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func TestPartialWireRoundTrip(t *testing.T) {
	for _, card := range []bool{false, true} {
		p := NewPartial()
		if card {
			p.EnableCardinality()
		}
		fillPartial(t, p, 99, 4096)
		wire := p.AppendBinary(nil)

		got := NewPartial()
		if card {
			got.EnableCardinality()
			// Dirty the sketches to prove decode replaces, not merges.
			got.card.Add(Record{Src: 1, Dst: 2})
		}
		if err := got.DecodeBinary(wire); err != nil {
			t.Fatalf("decode (card=%v): %v", card, err)
		}
		if a, b := mergeInto(t, p), mergeInto(t, got); a != b {
			t.Fatalf("round-trip (card=%v) changed the merged dataset", card)
		}
		if card {
			if a, b := p.card.Flows(), got.card.Flows(); a != b {
				t.Fatalf("cardinality flows changed over the wire: %v != %v", a, b)
			}
		} else if got.card != nil {
			t.Fatalf("cardinality appeared from nowhere")
		}
		// Re-encoding the decoded partial must be byte-identical: insertion
		// order survived the wire.
		if string(got.AppendBinary(nil)) != string(wire) {
			t.Fatalf("re-encode (card=%v) not byte-identical", card)
		}
	}
}

func TestPartialWireDecodeIntoDirtyPartial(t *testing.T) {
	p := NewPartial()
	fillPartial(t, p, 7, 512)
	wire := p.AppendBinary(nil)

	dirty := NewPartial()
	fillPartial(t, dirty, 8, 2048)
	if err := dirty.DecodeBinary(wire); err != nil {
		t.Fatalf("decode into dirty partial: %v", err)
	}
	if a, b := mergeInto(t, p), mergeInto(t, dirty); a != b {
		t.Fatalf("decode into dirty partial left stale state behind")
	}
}

func TestPartialWireErrors(t *testing.T) {
	p := NewPartial()
	p.EnableCardinality()
	fillPartial(t, p, 3, 256)
	wire := p.AppendBinary(nil)
	into := NewPartial()

	// Every truncation point must error, never panic.
	for cut := 0; cut < len(wire); cut += 97 {
		if err := into.DecodeBinary(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	if err := into.DecodeBinary(append(append([]byte{}, wire...), 0)); err == nil {
		t.Fatalf("trailing garbage decoded cleanly")
	}
	bad := append([]byte{}, wire...)
	bad[0] = 99 // version
	if err := into.DecodeBinary(bad); err == nil {
		t.Fatalf("bad version decoded cleanly")
	}
	bad = append([]byte{}, wire...)
	bad[1] = 0xff // flags
	if err := into.DecodeBinary(bad); err == nil {
		t.Fatalf("unknown flags decoded cleanly")
	}

	// Every rack-pair rejection names its cause, and a rejected frame
	// leaves the partial empty and usable. The frame is a producer-shaped
	// cell (rows of contiguous source racks), and each case rewrites
	// entries of its rack-pair table.
	topo := topology.MustBuild(topology.Preset(topology.ScaleSmall))
	p = NewPartial()
	for _, rec := range shardRecords(t, topo, rng.New(21), 800, true) {
		p.Add(rec)
	}
	wire = p.AppendBinary(nil)
	lo, hi := rackPairSection(wire)
	if len(p.rackPair.src) < 3 || p.rackPair.end[0] < 2 {
		t.Fatalf("cell has %d rows; the cases need three and a first row of two", len(p.rackPair.src))
	}
	second := int(p.rackPair.end[0]) // first entry of the second row
	third := int(p.rackPair.end[1])
	key := func(b []byte, i int) []byte { return b[lo+4+16*i : lo+4+16*i+8] }
	for _, c := range []struct {
		name, want string
		edit       func(b []byte)
	}{
		{"count over the cap", "declares", func(b []byte) {
			binary.LittleEndian.PutUint32(b[lo:], maxWireTableEntries+1)
		}},
		{"count past the frame", "truncated", func(b []byte) {
			binary.LittleEndian.PutUint32(b[lo:], uint32((len(b)-lo)/16+1))
		}},
		{"sentinel key", "sentinel", func(b []byte) {
			binary.LittleEndian.PutUint64(key(b, 1), ^uint64(0))
		}},
		{"source rack at the Load cap", "outside", func(b []byte) {
			binary.LittleEndian.PutUint64(key(b, second), uint64(maxArchiveRacks)<<32|1)
		}},
		{"destination rack at the Load cap", "outside", func(b []byte) {
			binary.LittleEndian.PutUint64(key(b, 0), uint64(maxArchiveRacks))
		}},
		{"negative source rack", "outside", func(b []byte) {
			binary.LittleEndian.PutUint64(key(b, 0), uint64(0xffffffff)<<32)
		}},
		{"repeated key in its row", "repeats", func(b []byte) {
			copy(key(b, 1), key(b, 0))
		}},
		{"key repeated after its row closed", "reopens", func(b []byte) {
			copy(key(b, third), key(b, 0))
		}},
		{"source rack reopened with a new destination", "reopens", func(b []byte) {
			src := binary.LittleEndian.Uint64(key(b, 0)) >> 32
			binary.LittleEndian.PutUint64(key(b, third), src<<32|uint64(len(topo.Racks)-1))
		}},
		{"trailing bytes", "trailing", func(b []byte) {}},
	} {
		bad := append([]byte{}, wire...)
		c.edit(bad)
		if c.name == "trailing bytes" {
			bad = append(bad, 0)
		}
		into = NewPartial()
		fillPartial(t, into, 5, 64)
		err := into.DecodeBinary(bad)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error containing %q", c.name, err, c.want)
			continue
		}
		if n := len(into.rackPair.dst) + len(into.rackPair.src) + len(into.rackPair.val); n != 0 {
			t.Errorf("%s: rejected frame left %d rack-pair fields behind", c.name, n)
		}
		if err := into.DecodeBinary(wire); err != nil {
			t.Fatalf("%s: the partial no longer decodes a valid frame: %v", c.name, err)
		}
	}
	if err := NewPartial().DecodeBinary(wire[:hi]); err == nil {
		t.Fatal("a frame cut after the rack-pair table decoded cleanly")
	}
}

func TestPartialWireSteadyStateAllocs(t *testing.T) {
	p := NewPartial()
	fillPartial(t, p, 11, 4096)
	buf := p.AppendBinary(nil)
	into := NewPartial()
	if err := into.DecodeBinary(buf); err != nil {
		t.Fatalf("warming decode: %v", err)
	}

	if n := testing.AllocsPerRun(50, func() {
		buf = p.AppendBinary(buf[:0])
	}); n != 0 {
		t.Fatalf("steady-state encode allocates %v/op", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := into.DecodeBinary(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state decode allocates %v/op", n)
	}
}

// TestPartialWireDecodeReserves: decoding into a fresh Partial sizes
// each table and the rack-pair entry arrays once from the declared
// count, so nothing rehashes or regrows while it fills (the encoding
// side, filled by Add, rehashed many times).
func TestPartialWireDecodeReserves(t *testing.T) {
	p := NewPartial()
	fillPartial(t, p, 13, 4096)
	got := NewPartial()
	if err := got.DecodeBinary(p.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	tables := func(p *Partial) map[string]*openhash.Table[float64] {
		return map[string]*openhash.Table[float64]{
			"clusterPair": &p.clusterPair, "perMinute": &p.perMinute,
			"hostOut": &p.hostOut, "rackCross": &p.rackCross, "clusterCross": &p.clusterCross,
		}
	}
	src := tables(p)
	for name, tb := range tables(got) {
		if tb.Len() != src[name].Len() {
			t.Fatalf("%s: %d entries decoded, %d encoded", name, tb.Len(), src[name].Len())
		}
		if tb.Grows() != 0 {
			t.Errorf("%s: %d rehashes while decoding %d entries, want 0", name, tb.Grows(), tb.Len())
		}
	}
	if src["hostOut"].Grows() == 0 {
		t.Fatal("the encoded hostOut table never grew; the check is vacuous")
	}
	rows, want := &got.rackPair, &p.rackPair
	if n := len(want.dst); len(rows.dst) != n || len(rows.val) != n || len(rows.src) != len(want.src) {
		t.Fatalf("rackPair: %d entries in %d rows decoded, %d in %d encoded", len(rows.dst), len(rows.src), n, len(want.src))
	}
	if cap(rows.dst) != len(rows.dst) || cap(rows.val) != len(rows.val) {
		t.Errorf("rackPair: %d entries decoded into capacity %d/%d, want one exact allocation",
			len(rows.dst), cap(rows.dst), cap(rows.val))
	}
	if cap(want.dst) == len(want.dst) {
		t.Fatal("the encoded rack-pair rows never outgrew their capacity; the check is vacuous")
	}
}

// samePartialKeys asserts a and b hold the same per-key values, bit for
// bit: the dense arrays, every table entry and every rack-pair row.
func samePartialKeys(t *testing.T, a, b *Partial) {
	t.Helper()
	if !sameBits(a.totalBytes, b.totalBytes) {
		t.Fatalf("total %v, want %v", a.totalBytes, b.totalBytes)
	}
	for ct := range a.locality {
		for l := range a.locality[ct] {
			if !sameBits(a.locality[ct][l], b.locality[ct][l]) {
				t.Fatalf("locality[%d][%d] %v, want %v", ct, l, a.locality[ct][l], b.locality[ct][l])
			}
		}
		if !sameBits(a.byClusterType[ct], b.byClusterType[ct]) {
			t.Fatalf("byClusterType[%d] %v, want %v", ct, a.byClusterType[ct], b.byClusterType[ct])
		}
	}
	sameRows(t, "rackPair", rowsBySource(t, a), rowsBySource(t, b))
	for _, c := range []struct {
		name string
		a, b *openhash.Table[float64]
	}{
		{"clusterPair", &a.clusterPair, &b.clusterPair},
		{"perMinute", &a.perMinute, &b.perMinute},
		{"hostOut", &a.hostOut, &b.hostOut},
		{"rackCross", &a.rackCross, &b.rackCross},
		{"clusterCross", &a.clusterCross, &b.clusterCross},
	} {
		if c.a.Len() != c.b.Len() {
			t.Fatalf("%s: %d keys, want %d", c.name, c.a.Len(), c.b.Len())
		}
		for i := 0; i < c.b.Len(); i++ {
			v := c.a.Get(c.b.Key(i))
			if v == nil || !sameBits(*v, *c.b.Val(i)) {
				t.Fatalf("%s[%#x] = %v, want %v", c.name, c.b.Key(i), v, *c.b.Val(i))
			}
		}
	}
}

// FuzzPartialWire: DecodeBinary never panics; a frame it accepts holds
// rack IDs below the Load cap only, and re-encodes to a frame that
// decodes to the same per-key values. The seeds are a producer-shaped
// cell, an interleaved cell with cardinality, an empty partial, and a
// cell whose rack-pair table repeats a key.
func FuzzPartialWire(f *testing.F) {
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	r := rng.New(17)
	p := NewPartial()
	for _, rec := range shardRecords(f, topo, r, 24, true) {
		p.Add(rec)
	}
	shard := p.AppendBinary(nil)
	f.Add(shard)
	p = NewPartial()
	p.EnableCardinality()
	for _, rec := range randomRecords(f, topo, r, 16) {
		p.Add(rec)
	}
	f.Add(p.AppendBinary(nil))
	f.Add(NewPartial().AppendBinary(nil))
	lo, _ := rackPairSection(shard)
	repeat := append([]byte{}, shard...)
	copy(repeat[lo+4+16:lo+4+24], repeat[lo+4:lo+4+8])
	f.Add(repeat)

	f.Fuzz(func(t *testing.T, data []byte) {
		p := NewPartial()
		if err := p.DecodeBinary(data); err != nil {
			return
		}
		for i := range p.rackPair.src {
			src, dst, _ := p.rackPair.row(i)
			for _, d := range dst {
				if src < 0 || src >= maxArchiveRacks || d < 0 || d >= maxArchiveRacks {
					t.Fatalf("accepted rack pair (%d,%d) outside the Load cap", src, d)
				}
			}
		}
		again := p.AppendBinary(nil)
		q := NewPartial()
		if err := q.DecodeBinary(again); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		samePartialKeys(t, q, p)
	})
}
