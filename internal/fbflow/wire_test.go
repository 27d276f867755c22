package fbflow

import (
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
// each table once from its declared count, so no table rehashes while
// it fills (the encoding side, filled by Add, rehashed many times).
func TestPartialWireDecodeReserves(t *testing.T) {
	p := NewPartial()
	fillPartial(t, p, 13, 4096)
	got := NewPartial()
	if err := got.DecodeBinary(p.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	tables := func(p *Partial) map[string]*openhash.Table[float64] {
		return map[string]*openhash.Table[float64]{
			"rackPair": &p.rackPair, "clusterPair": &p.clusterPair, "perMinute": &p.perMinute,
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
	if src["rackPair"].Grows() == 0 {
		t.Fatal("the encoded rackPair table never grew; the check is vacuous")
	}
}
