package fbwire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/obs"
)

// FuzzFrameDecode drives the full aggregator-side decode path — framing,
// header parsers, and the fbflow partial payload codec — with arbitrary
// bytes. The invariants: never panic, never over-read (every frame's
// declared length is capped and bounds-checked), terminate with io.EOF
// only at a clean frame boundary, and reject duplicate or reordered
// CELL sequence numbers.
func FuzzFrameDecode(f *testing.F) {
	// A full valid session (hello, partials with cardinality, fin).
	f.Add(sessionBytes(f, 3, true))
	f.Add(sessionBytes(f, 1, false))
	// The same partial frame twice: a replay the reader must reject.
	one := sessionBytes(f, 1, false)
	f.Add(append(append([]byte{}, one...), one...))
	// Truncated mid-frame.
	f.Add(one[:len(one)/2])
	// Corrupt length prefix claiming 4 GiB.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, TypeCell})
	// Empty frame and unknown type.
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0x7f})
	// A cell frame whose payload is garbage after a valid header.
	bad := make([]byte, 0, 64)
	bad = binary.LittleEndian.AppendUint32(bad, 1+cellHeaderLen+8)
	bad = append(bad, TypeCell)
	bad = binary.LittleEndian.AppendUint64(bad, 0) // seq
	bad = binary.LittleEndian.AppendUint32(bad, 0) // window
	bad = binary.LittleEndian.AppendUint32(bad, 0) // shard
	bad = append(bad, 0)                           // no sections
	bad = append(bad, 99, 0xff, 1, 2, 3, 4, 5, 6)  // bogus partial payload
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		into := fbflow.NewPartial()
		frames := 0
		var lastSeq uint64
		seenSeq := false
		for {
			fr, err := r.Next()
			if err != nil {
				if err == io.EOF && r.BytesRead() != int64(len(data)) {
					t.Fatalf("clean EOF after %d of %d bytes", r.BytesRead(), len(data))
				}
				if err != io.EOF && err.Error() == "" {
					t.Fatal("empty error message")
				}
				return
			}
			switch fr.Type {
			case TypeHello:
				if h, err := ParseHello(fr.Payload); err == nil && h.ShardHi < h.ShardLo {
					t.Fatalf("parser admitted inverted shard range: %+v", h)
				}
			case TypeWelcome:
				_, _ = ParseWelcome(fr.Payload)
			case TypeFin:
				_, _, _ = ParseFin(fr.Payload)
			case TypeCell:
				h, err := DecodePartial(fr.Payload, into)
				if err == nil {
					if seenSeq && h.Seq <= lastSeq {
						t.Fatalf("decoder admitted non-increasing seq %d after %d", h.Seq, lastSeq)
					}
					seenSeq, lastSeq = true, h.Seq
				}
			default:
				t.Fatalf("reader returned unknown frame type %#x", fr.Type)
			}
			frames++
			if frames > 1<<20 {
				t.Fatal("reader produced implausibly many frames")
			}
		}
	})
}

// cellFrameBytes frames one CELL frame with the given sections and an
// empty partial, as the agent's Writer emits it.
func cellFrameBytes(tb testing.TB, seq uint64, obsSec, auditSec []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePartial(PartialHeader{Seq: seq, Window: 0, Shard: 1, Obs: obsSec, Audit: auditSec}, fbflow.NewPartial()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// finFrameBytes frames one FIN frame carrying report.
func finFrameBytes(tb testing.TB, report []byte) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := NewWriter(&buf).WriteFin(1, report); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// walkSections reads frames from data until the first error, checking
// that decoded CELL frames keep strictly increasing sequence numbers
// whatever their sections hold. It hands each decoded CELL header to
// cell and each parsed FIN report to fin.
func walkSections(t *testing.T, data []byte, cell func(PartialHeader), fin func([]byte)) {
	r := NewReader(bytes.NewReader(data))
	into := fbflow.NewPartial()
	frames := 0
	var lastSeq uint64
	seenSeq := false
	for {
		fr, err := r.Next()
		if err != nil {
			return
		}
		switch fr.Type {
		case TypeCell:
			h, err := DecodePartial(fr.Payload, into)
			if err != nil {
				break
			}
			if seenSeq && h.Seq <= lastSeq {
				t.Fatalf("sections perturbed cell seq: %d after %d", h.Seq, lastSeq)
			}
			seenSeq, lastSeq = true, h.Seq
			cell(h)
		case TypeFin:
			if _, report, err := ParseFin(fr.Payload); err == nil {
				fin(report)
			}
		case TypeHello, TypeWelcome:
		default:
			t.Fatalf("reader returned unknown frame type %#x", fr.Type)
		}
		frames++
		if frames > 1<<20 {
			t.Fatal("reader produced implausibly many frames")
		}
	}
}

// FuzzObsFrame drives the metrics decode path — the CELL obs section
// (obs delta codec and fold) and the FIN agent report codec — with
// arbitrary bytes. The invariants: never panic, malformed payloads
// error out (the aggregator drops the section and still merges the
// cell), and obs sections never perturb the strict CELL sequence check
// (metrics are best-effort; the dataset protocol stays strict).
func FuzzObsFrame(f *testing.F) {
	// A real cell delta: encode from a live shard.
	reg := obs.NewRegistry()
	c := reg.Counter("fbdcnet_fleet_flow_attempts_total", "t")
	h := reg.Histogram("fbdcnet_fleet_shard_us", "t")
	sh := reg.NewShard()
	sh.Add(c, 41)
	sh.Observe(h, 1300)
	delta := sh.AppendDelta(nil)
	f.Add(cellFrameBytes(f, 0, delta, nil))
	// A real final report.
	f.Add(finFrameBytes(f, reg.AppendReport(nil, 2, 1)))
	// An obs-bearing cell ahead of a session, as on the real wire.
	f.Add(append(cellFrameBytes(f, 0, delta, nil), sessionBytes(f, 1, false)...))
	// Truncated, unknown section flag, garbage body, short report.
	whole := cellFrameBytes(f, 3, delta, nil)
	f.Add(whole[:len(whole)-4])
	flags := cellFrameBytes(f, 9, nil, nil)
	flags[4+1+cellHeaderLen-1] = 0x80
	f.Add(flags)
	f.Add(cellFrameBytes(f, 1, []byte{0xde, 0xad, 0xbe, 0xef}, nil))
	f.Add(finFrameBytes(f, []byte{1}))

	f.Fuzz(func(t *testing.T, data []byte) {
		var d obs.Delta
		var rep obs.AgentReport
		fold := obs.NewRegistry()
		walkSections(t, data, func(h PartialHeader) {
			// Both payload decoders must fail closed on garbage; a
			// successful delta decode must fold without panicking.
			if len(h.Obs) > 0 && d.Decode(h.Obs) == nil {
				fold.FoldDelta(&d)
			}
		}, func(report []byte) {
			if len(report) > 0 {
				_ = obs.DecodeReport(report, &rep)
			}
		})
	})
}

// FuzzAuditFrame drives the checkpoint decode path — the CELL audit
// section parser — with arbitrary bytes. The invariants: never panic,
// malformed sections error out (best-effort semantics — a dropped
// section becomes a ledger hole, never a dataset error), parsed
// checkpoints carry 1 to MaxAuditCells entries with valid stage ids and
// non-negative counts, and audit sections never perturb the strict CELL
// sequence check.
func FuzzAuditFrame(f *testing.F) {
	// A realistic cell pair: matrix synth then fleet cell in one section.
	pair := AppendAudit(nil, AuditCell{Stage: AuditMatrixSynth, Sum: 0xabcdef, Count: 128})
	pair = AppendAudit(pair, AuditCell{Stage: AuditFleetCell, Sum: 0x123456, Count: 7200})
	f.Add(cellFrameBytes(f, 0, nil, pair))
	// An audit-bearing cell ahead of a session, as on the real wire.
	one := AppendAudit(nil, AuditCell{Stage: AuditFleetCell, Sum: 1, Count: 6})
	f.Add(append(cellFrameBytes(f, 0, nil, one), sessionBytes(f, 1, false)...))
	// Truncated, bogus stage.
	whole := cellFrameBytes(f, 3, nil, AppendAudit(nil, AuditCell{Stage: AuditFleetCell, Sum: 9, Count: 12}))
	f.Add(whole[:len(whole)-5])
	bogus := append([]byte{}, one...)
	bogus[0] = 0x7f
	f.Add(cellFrameBytes(f, 3, nil, bogus))

	f.Fuzz(func(t *testing.T, data []byte) {
		walkSections(t, data, func(h PartialHeader) {
			if len(h.Audit) == 0 {
				return
			}
			cells, n, err := ParseAudit(h.Audit)
			if err != nil {
				return
			}
			if n < 1 || n > MaxAuditCells {
				t.Fatalf("ParseAudit admitted %d checkpoints", n)
			}
			for _, c := range cells[:n] {
				if c.Stage != AuditFleetCell && c.Stage != AuditMatrixSynth {
					t.Fatalf("ParseAudit admitted stage %#x", c.Stage)
				}
				if c.Count < 0 {
					t.Fatalf("ParseAudit admitted negative count %d", c.Count)
				}
			}
		}, func([]byte) {})
	})
}
