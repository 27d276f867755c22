package fbwire

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
)

// fillPartial accumulates a deterministic record stream into p so frames
// under test carry realistic columnar payloads.
func fillPartial(tb testing.TB, p *fbflow.Partial, seed uint64, n int) {
	tb.Helper()
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	tagger := fbflow.NewTagger(topo)
	r := rng.New(seed)
	hosts := topo.NumHosts()
	for i := 0; i < n; i++ {
		src := topology.HostID(r.Intn(hosts))
		dst := topology.HostID(r.Intn(hosts))
		rec, ok := tagger.Flow(int64(i%7), topo.Addr(src), topo.Addr(dst), 40+r.Float64()*1e6)
		if !ok {
			tb.Fatalf("tagger rejected in-topology flow %d", i)
		}
		p.Add(rec)
	}
}

// sessionBytes encodes a full agent session: HELLO, n CELL frames, FIN.
func sessionBytes(tb testing.TB, n int, card bool) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHello(Hello{Version: Version, AgentID: 2, Incarnation: 0, ShardLo: 4, ShardHi: 8, Windows: 6, Check: 0xfeedface}); err != nil {
		tb.Fatal(err)
	}
	p := fbflow.NewPartial()
	if card {
		p.EnableCardinality()
	}
	for i := 0; i < n; i++ {
		p.Reset()
		fillPartial(tb, p, uint64(100+i), 512)
		h := PartialHeader{Seq: uint64(i), Window: uint32(i / 4), Shard: uint32(4 + i%4)}
		if err := w.WritePartial(h, p); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.WriteFin(uint64(n), nil); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestSessionRoundTrip(t *testing.T) {
	wire := sessionBytes(t, 6, true)
	r := NewReader(bytes.NewReader(wire))

	f, err := r.Next()
	if err != nil || f.Type != TypeHello {
		t.Fatalf("first frame: type %#x err %v", f.Type, err)
	}
	h, err := ParseHello(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if h.AgentID != 2 || h.ShardLo != 4 || h.ShardHi != 8 || h.Windows != 6 || h.Check != 0xfeedface {
		t.Fatalf("hello round-trip: %+v", h)
	}

	into := fbflow.NewPartial()
	want := fbflow.NewPartial()
	want.EnableCardinality()
	for i := 0; i < 6; i++ {
		f, err := r.Next()
		if err != nil || f.Type != TypeCell {
			t.Fatalf("partial %d: type %#x err %v", i, f.Type, err)
		}
		ph, err := DecodePartial(f.Payload, into)
		if err != nil {
			t.Fatal(err)
		}
		if ph.Seq != uint64(i) || ph.Window != uint32(i/4) || ph.Shard != uint32(4+i%4) {
			t.Fatalf("partial header %d round-trip: %+v", i, ph)
		}
		want.Reset()
		fillPartial(t, want, uint64(100+i), 512)
		// Byte-identical re-encode proves the payload (and its insertion
		// order) survived framing intact.
		if !bytes.Equal(into.AppendBinary(nil), want.AppendBinary(nil)) {
			t.Fatalf("partial %d payload changed across the wire", i)
		}
	}

	f, err = r.Next()
	if err != nil || f.Type != TypeFin {
		t.Fatalf("fin frame: type %#x err %v", f.Type, err)
	}
	sent, report, err := ParseFin(f.Payload)
	if err != nil || sent != 6 || len(report) != 0 {
		t.Fatalf("fin: sent %d report %d bytes err %v", sent, len(report), err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected clean EOF, got %v", err)
	}
	if r.BytesRead() != int64(len(wire)) {
		t.Fatalf("BytesRead %d, wire %d", r.BytesRead(), len(wire))
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteWelcome(17); err != nil {
		t.Fatal(err)
	}
	if w.BytesWritten() != int64(buf.Len()) {
		t.Fatalf("BytesWritten %d, buffer %d", w.BytesWritten(), buf.Len())
	}
	r := NewReader(&buf)
	f, err := r.Next()
	if err != nil || f.Type != TypeWelcome {
		t.Fatalf("welcome frame: type %#x err %v", f.Type, err)
	}
	resume, err := ParseWelcome(f.Payload)
	if err != nil || resume != 17 {
		t.Fatalf("welcome: resume %d err %v", resume, err)
	}
}

func TestReaderRejectsDuplicateSeq(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	p := fbflow.NewPartial()
	fillPartial(t, p, 5, 64)
	if err := w.WritePartial(PartialHeader{Seq: 3, Window: 0, Shard: 0}, p); err != nil {
		t.Fatal(err)
	}
	frame := append([]byte{}, buf.Bytes()...)

	// The same frame twice: the replay must error at the reader.
	r := NewReader(bytes.NewReader(append(append([]byte{}, frame...), frame...)))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := r.Next()
	if err == nil || !strings.Contains(err.Error(), "duplicates") {
		t.Fatalf("replayed frame got %v, want duplicate-seq error", err)
	}

	// A lower seq after a higher one must also error.
	if err := w.WritePartial(PartialHeader{Seq: 1, Window: 0, Shard: 1}, p); err != nil {
		t.Fatal(err)
	}
	r = NewReader(bytes.NewReader(buf.Bytes()))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("reordered seq decoded cleanly")
	}
}

func TestReaderErrors(t *testing.T) {
	wire := sessionBytes(t, 2, false)

	// Every truncation point must end in io.ErrUnexpectedEOF or a real
	// error, never a panic or a clean EOF mid-frame.
	for cut := 1; cut < len(wire); cut += 211 {
		r := NewReader(bytes.NewReader(wire[:cut]))
		var err error
		for err == nil {
			_, err = r.Next()
		}
		if err == io.EOF && cut != len(wire) {
			// A cut at a frame boundary legitimately reads as clean EOF.
			ok := false
			probe := NewReader(bytes.NewReader(wire[:cut]))
			for {
				if _, perr := probe.Next(); perr != nil {
					ok = perr == io.EOF
					break
				}
			}
			if !ok {
				t.Fatalf("cut at %d: clean EOF mid-frame", cut)
			}
		}
	}

	// A corrupt length prefix beyond the cap must error before allocating.
	huge := []byte{0xff, 0xff, 0xff, 0xff, TypeFin}
	if _, err := NewReader(bytes.NewReader(huge)).Next(); err == nil {
		t.Fatal("oversized frame length decoded cleanly")
	}
	// A zero-length frame is invalid: every frame has a type byte.
	if _, err := NewReader(bytes.NewReader([]byte{0, 0, 0, 0})).Next(); err == nil {
		t.Fatal("empty frame decoded cleanly")
	}
	// Unknown frame type.
	if _, err := NewReader(bytes.NewReader([]byte{1, 0, 0, 0, 0x7f})).Next(); err == nil {
		t.Fatal("unknown frame type decoded cleanly")
	}

	// Fixed-size payload parsers must reject wrong lengths.
	if _, err := ParseHello(make([]byte, 5)); err == nil {
		t.Fatal("short hello parsed cleanly")
	}
	if _, err := ParseWelcome(make([]byte, 4)); err == nil {
		t.Fatal("short welcome parsed cleanly")
	}
	if _, _, err := ParseFin(make([]byte, 9)); err == nil {
		t.Fatal("long fin parsed cleanly")
	}
	// Version and shard-range validation in HELLO.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteHello(Hello{Version: 99}); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseHello(f.Payload); err == nil {
		t.Fatal("wrong protocol version parsed cleanly")
	}
	buf.Reset()
	if err := w.WriteHello(Hello{Version: Version, ShardLo: 8, ShardHi: 4}); err != nil {
		t.Fatal(err)
	}
	if f, err = NewReader(&buf).Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseHello(f.Payload); err == nil {
		t.Fatal("inverted shard range parsed cleanly")
	}
}

// TestSteadyStateAllocs pins the full agent→aggregator wire path —
// encode+frame on one side, read+decode on the other — at zero
// steady-state allocations per frame.
func TestSteadyStateAllocs(t *testing.T) {
	p := fbflow.NewPartial()
	fillPartial(t, p, 11, 4096)
	sink := &countWriter{}
	w := NewWriter(sink)
	seq := uint64(0)
	write := func() {
		if err := w.WritePartial(PartialHeader{Seq: seq, Window: 0, Shard: 0}, p); err != nil {
			t.Fatal(err)
		}
		seq++
	}
	write() // warm the encode buffer
	if n := testing.AllocsPerRun(50, write); n != 0 {
		t.Fatalf("steady-state frame encode allocates %v/op", n)
	}

	// Decode side: one frame's bytes replayed through a resettable reader.
	var one bytes.Buffer
	w2 := NewWriter(&one)
	if err := w2.WritePartial(PartialHeader{Seq: 0, Window: 0, Shard: 0}, p); err != nil {
		t.Fatal(err)
	}
	frame := one.Bytes()
	src := bytes.NewReader(frame)
	r := NewReader(src)
	into := fbflow.NewPartial()
	read := func() {
		src.Reset(frame)
		r.seenSeq = false // replaying the same seq on purpose
		f, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodePartial(f.Payload, into); err != nil {
			t.Fatal(err)
		}
	}
	read() // warm the frame buffer and into's tables
	if n := testing.AllocsPerRun(50, read); n != 0 {
		t.Fatalf("steady-state frame decode allocates %v/op", n)
	}
}

type countWriter struct{ n int64 }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// TestAuditRoundTrip round-trips a CELL carrying both sections and
// checks that malformed audit sections fail closed.
func TestAuditRoundTrip(t *testing.T) {
	p := fbflow.NewPartial()
	fillPartial(t, p, 5, 64)
	cells := []AuditCell{
		{Stage: AuditMatrixSynth, Sum: 0xfeedfacecafebeef, Count: 64},
		{Stage: AuditFleetCell, Sum: 0x0123456789abcdef, Count: 6 * 1200},
	}
	var sec []byte
	for _, c := range cells {
		sec = AppendAudit(sec, c)
	}
	delta := []byte{1, 2, 3}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for seq, hdr := range []PartialHeader{
		{Seq: 0, Window: 0, Shard: 3, Obs: delta, Audit: sec},
		{Seq: 1, Window: 1, Shard: 0, Audit: sec[:auditEntryLen]},
		{Seq: 2, Window: 1, Shard: 1},
	} {
		if err := w.WritePartial(hdr, p); err != nil {
			t.Fatal(err)
		}
		f, err := NewReader(&buf).Next()
		if err != nil || f.Type != TypeCell {
			t.Fatalf("cell %d: type %#x err %v", seq, f.Type, err)
		}
		into := fbflow.NewPartial()
		got, err := DecodePartial(f.Payload, into)
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != hdr.Seq || got.Window != hdr.Window || got.Shard != hdr.Shard ||
			!bytes.Equal(got.Obs, hdr.Obs) || !bytes.Equal(got.Audit, hdr.Audit) {
			t.Fatalf("cell %d header round-trip: got %+v want %+v", seq, got, hdr)
		}
		if !bytes.Equal(into.AppendBinary(nil), p.AppendBinary(nil)) {
			t.Fatalf("cell %d partial changed across the wire", seq)
		}
		if len(got.Audit) == 0 {
			continue
		}
		parsed, n, err := ParseAudit(got.Audit)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range cells[:len(got.Audit)/auditEntryLen] {
			if i >= n || parsed[i] != want {
				t.Fatalf("cell %d checkpoint %d: got %+v want %+v", seq, i, parsed[i], want)
			}
		}
	}

	// Malformed sections must fail closed.
	if _, _, err := ParseAudit(sec[:auditEntryLen-1]); err == nil {
		t.Fatal("short audit section parsed cleanly")
	}
	if _, _, err := ParseAudit(append(append([]byte{}, sec...), sec[:auditEntryLen]...)); err == nil {
		t.Fatal("audit section with too many checkpoints parsed cleanly")
	}
	bad := append([]byte{}, sec[:auditEntryLen]...)
	bad[0] = 0x7f
	if _, _, err := ParseAudit(bad); err == nil {
		t.Fatal("unknown audit stage parsed cleanly")
	}
	neg := append([]byte{}, sec[:auditEntryLen]...)
	for i := 9; i < 17; i++ {
		neg[i] = 0xff
	}
	if _, _, err := ParseAudit(neg); err == nil {
		t.Fatal("negative audit count parsed cleanly")
	}
	// A section length that overruns the payload fails the whole frame.
	buf.Reset()
	if err := w.WritePartial(PartialHeader{Seq: 9, Obs: delta}, p); err != nil {
		t.Fatal(err)
	}
	f, err := NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	f.Payload[cellHeaderLen] = 0xff
	if _, err := DecodePartial(f.Payload, fbflow.NewPartial()); err == nil {
		t.Fatal("overrunning section length decoded cleanly")
	}
}

// TestAuditSteadyStateAllocs pins a CELL carrying both sections at zero
// steady-state allocations to write and to decode — the best-effort
// sections must not tax the dataset path they ride on.
func TestAuditSteadyStateAllocs(t *testing.T) {
	p := fbflow.NewPartial()
	fillPartial(t, p, 7, 256)
	var sec []byte
	sec = AppendAudit(sec, AuditCell{Stage: AuditMatrixSynth, Sum: 41, Count: 3})
	sec = AppendAudit(sec, AuditCell{Stage: AuditFleetCell, Sum: 42, Count: 6})
	hdr := PartialHeader{Seq: 7, Window: 1, Shard: 2, Obs: []byte{1, 2, 3, 4}}
	w := NewWriter(&countWriter{})
	write := func() {
		hdr.Audit = AppendAudit(sec[:0], AuditCell{Stage: AuditMatrixSynth, Sum: 41, Count: 3})
		hdr.Audit = AppendAudit(hdr.Audit, AuditCell{Stage: AuditFleetCell, Sum: 42, Count: 6})
		if err := w.WritePartial(hdr, p); err != nil {
			t.Fatal(err)
		}
		hdr.Seq++
	}
	write() // warm the encode buffer
	if n := testing.AllocsPerRun(50, write); n != 0 {
		t.Fatalf("steady-state cell encode with sections allocates %v/op", n)
	}

	var one bytes.Buffer
	if err := NewWriter(&one).WritePartial(hdr, p); err != nil {
		t.Fatal(err)
	}
	frame := one.Bytes()
	src := bytes.NewReader(frame)
	r := NewReader(src)
	into := fbflow.NewPartial()
	read := func() {
		src.Reset(frame)
		r.seenSeq = false // replaying the same seq on purpose
		f, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		h, err := DecodePartial(f.Payload, into)
		if err != nil {
			t.Fatal(err)
		}
		if _, n, err := ParseAudit(h.Audit); err != nil || n != 2 || len(h.Obs) != 4 {
			t.Fatalf("sections lost: %d checkpoints, %d obs bytes, err %v", n, len(h.Obs), err)
		}
	}
	read() // warm the frame buffer and into's tables
	if n := testing.AllocsPerRun(50, read); n != 0 {
		t.Fatalf("steady-state cell decode with sections allocates %v/op", n)
	}
}
