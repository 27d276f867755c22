// Package fbwire is the binary stream protocol between distributed fleet
// agents and the fbflowd aggregator — the Scribe leg of the paper's
// Fbflow pipeline (§3.3.1): after a handshake, one stream of cells in
// task order, each cell one frame.
//
// A session over one connection looks like:
//
//	agent → HELLO   (protocol version, agent identity, shard range,
//	                 incarnation, config check)
//	agent ← WELCOME (resume task index — 0 for a fresh run, later after a
//	                 crash: the aggregator skips the died window's tail)
//	agent → CELL × n (one (window, shard) cell each, in task order)
//	agent → FIN     (cells sent, plus the agent's optional obs report)
//
// A CELL payload is one cell's whole output:
//
//	seq u64 | window u32 | shard u32 | sections u8
//	[obs section:   len u32 | internal/obs delta]       if sections&1
//	[audit section: len u32 | 1–2 × (stage u8, sum u64, count i64)] if sections&2
//	fbflow.Partial wire bytes
//
// The partial is strict and the sections are best-effort. This layer
// validates the framing — the section flags and lengths — so a bad
// length fails the frame. A section body that parses badly is the
// caller's to drop: the aggregator counts it and still merges the cell,
// whose checkpoints then become an explicit ledger hole.
//
// CELL frames carry the agent-local task sequence number and the Reader
// enforces strict monotonicity, so a duplicated or replayed frame fails
// in the decoder itself rather than corrupting aggregation state. Every
// length and count is bounds-checked against hard caps: corrupt input
// errors, it never panics and never drives an unbounded read.
//
// The codec is allocation-free in the steady state: Writer encodes into
// one reusable buffer, Reader decodes frames into another, sections
// alias the frame payload, and the Partial payload codec
// (fbflow.AppendBinary/DecodeBinary) reuses table capacity across
// frames.
package fbwire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"fbdcnet/internal/fbflow"
)

// Version identifies the protocol revision carried in HELLO.
const Version = 2

// Frame types.
const (
	TypeHello   = 0x01
	TypeWelcome = 0x02
	TypeCell    = 0x03
	TypeFin     = 0x04
)

// CELL section flags.
const (
	sectionObs   = 1 << 0
	sectionAudit = 1 << 1
)

// MaxFrameBytes caps one frame's payload: larger than any real window
// partial (a full large-preset window encodes to a few MiB) but small
// enough that a corrupt length prefix cannot drive an OOM allocation.
const MaxFrameBytes = 1 << 28

// helloWireLen is the fixed HELLO payload size after the type byte.
const helloWireLen = 2 + 4*5 + 8

// cellHeaderLen is the CELL payload prefix before the sections.
const cellHeaderLen = 8 + 4 + 4 + 1

// finHeaderLen is the FIN payload prefix before the report.
const finHeaderLen = 8 + 4

// Hello is the agent's opening announcement.
type Hello struct {
	Version     uint16
	AgentID     uint32
	Incarnation uint32 // 0 for the first process, +1 per restart
	ShardLo     uint32 // owned shard range [ShardLo, ShardHi)
	ShardHi     uint32
	Windows     uint32
	Check       uint64 // config fingerprint; both sides must agree
}

// PartialHeader addresses one CELL frame's cell and carries its
// best-effort sections.
type PartialHeader struct {
	Seq    uint64 // agent-local task index, strictly increasing
	Window uint32
	Shard  uint32
	// Obs is the cell's metric delta (internal/obs wire form) and Audit
	// its checkpoints (AppendAudit form); empty means absent. On decode
	// both alias the frame payload.
	Obs, Audit []byte
}

// Writer frames and writes the agent side of the protocol. Not safe for
// concurrent use.
type Writer struct {
	w       *bufio.Writer
	buf     []byte // reusable frame assembly buffer
	written int64  // frame bytes written, for the comms-volume gauges
}

// NewWriter returns a Writer framing onto w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// BytesWritten returns the total frame bytes flushed so far.
func (w *Writer) BytesWritten() int64 { return w.written }

// begin starts a frame in the reusable buffer: a 4-byte length
// placeholder, then the type byte.
func (w *Writer) begin(frameType byte) []byte {
	return append(w.buf[:0], 0, 0, 0, 0, frameType)
}

// flushFrame back-fills the length prefix and writes w.buf as one call.
func (w *Writer) flushFrame() error {
	n := len(w.buf) - 4 // type byte + payload
	if n > MaxFrameBytes {
		return fmt.Errorf("fbwire: frame of %d bytes exceeds cap %d", n, MaxFrameBytes)
	}
	binary.LittleEndian.PutUint32(w.buf, uint32(n))
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	w.written += int64(len(w.buf))
	return w.w.Flush()
}

// WriteHello sends the opening HELLO frame.
func (w *Writer) WriteHello(h Hello) error {
	b := w.begin(TypeHello)
	b = binary.LittleEndian.AppendUint16(b, h.Version)
	b = binary.LittleEndian.AppendUint32(b, h.AgentID)
	b = binary.LittleEndian.AppendUint32(b, h.Incarnation)
	b = binary.LittleEndian.AppendUint32(b, h.ShardLo)
	b = binary.LittleEndian.AppendUint32(b, h.ShardHi)
	b = binary.LittleEndian.AppendUint32(b, h.Windows)
	b = binary.LittleEndian.AppendUint64(b, h.Check)
	w.buf = b
	return w.flushFrame()
}

// WriteWelcome sends the aggregator's WELCOME reply: the task index the
// agent must resume from.
func (w *Writer) WriteWelcome(resume uint64) error {
	w.buf = binary.LittleEndian.AppendUint64(w.begin(TypeWelcome), resume)
	return w.flushFrame()
}

// WritePartial sends one CELL frame: h's cell and sections, then the
// partial. The encode reuses the writer's buffer, so the steady state
// allocates nothing.
func (w *Writer) WritePartial(h PartialHeader, p *fbflow.Partial) error {
	b := w.begin(TypeCell)
	b = binary.LittleEndian.AppendUint64(b, h.Seq)
	b = binary.LittleEndian.AppendUint32(b, h.Window)
	b = binary.LittleEndian.AppendUint32(b, h.Shard)
	var sections byte
	if len(h.Obs) > 0 {
		sections |= sectionObs
	}
	if len(h.Audit) > 0 {
		sections |= sectionAudit
	}
	b = append(b, sections)
	for _, sec := range [...][]byte{h.Obs, h.Audit} {
		if len(sec) > 0 {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(sec)))
			b = append(b, sec...)
		}
	}
	w.buf = p.AppendBinary(b)
	return w.flushFrame()
}

// Audit checkpoint stages on the wire. AuditFleetCell is the cell's
// collected record stream; AuditMatrixSynth is the synthesized demand
// matrix that preceded the draw (matrix mode only).
const (
	AuditFleetCell   = 0x01
	AuditMatrixSynth = 0x02
)

// MaxAuditCells is the most checkpoints one cell carries.
const MaxAuditCells = 2

// auditEntryLen is one checkpoint's size in an audit section.
const auditEntryLen = 1 + 8 + 8

// AuditCell is one determinism checkpoint of a cell: the sealed content
// hash and folded item count of one stage. The cell's coordinates are
// its CELL header's.
type AuditCell struct {
	Stage byte
	Sum   uint64
	Count int64
}

// AppendAudit appends one checkpoint to an audit section body.
func AppendAudit(b []byte, c AuditCell) []byte {
	b = append(b, c.Stage)
	b = binary.LittleEndian.AppendUint64(b, c.Sum)
	return binary.LittleEndian.AppendUint64(b, uint64(c.Count))
}

// ParseAudit decodes an audit section body: 1 to MaxAuditCells
// checkpoints, each with a known stage and a non-negative count.
func ParseAudit(sec []byte) (cells [MaxAuditCells]AuditCell, n int, err error) {
	n = len(sec) / auditEntryLen
	if len(sec)%auditEntryLen != 0 || n < 1 || n > MaxAuditCells {
		return cells, 0, fmt.Errorf("fbwire: audit section is %d bytes, want 1 to %d entries of %d", len(sec), MaxAuditCells, auditEntryLen)
	}
	for i := range cells[:n] {
		e := sec[i*auditEntryLen:]
		c := AuditCell{
			Stage: e[0],
			Sum:   binary.LittleEndian.Uint64(e[1:]),
			Count: int64(binary.LittleEndian.Uint64(e[9:])),
		}
		if c.Stage != AuditFleetCell && c.Stage != AuditMatrixSynth {
			return cells, 0, fmt.Errorf("fbwire: unknown audit stage %#x", c.Stage)
		}
		if c.Count < 0 {
			return cells, 0, fmt.Errorf("fbwire: audit count %d is negative", c.Count)
		}
		cells[i] = c
	}
	return cells, n, nil
}

// WriteFin sends the closing FIN frame: the number of CELL frames this
// incarnation sent, then its obs report (empty when metrics are off).
func (w *Writer) WriteFin(sent uint64, report []byte) error {
	b := binary.LittleEndian.AppendUint64(w.begin(TypeFin), sent)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(report)))
	w.buf = append(b, report...)
	return w.flushFrame()
}

// Frame is one decoded frame. Payload aliases the Reader's internal
// buffer and is valid only until the next call to Next.
type Frame struct {
	Type    byte
	Payload []byte
}

// Reader reads and validates frames from one connection. Not safe for
// concurrent use.
type Reader struct {
	r       *bufio.Reader
	buf     []byte
	pfx     [4]byte // length-prefix scratch; a field so ReadFull doesn't heap-escape it
	read    int64
	seenSeq bool
	lastSeq uint64 // last CELL seq, valid when seenSeq
}

// NewReader returns a Reader framing off r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// BytesRead returns the total frame bytes consumed so far.
func (r *Reader) BytesRead() int64 { return r.read }

// Next reads one frame. io.EOF is returned only at a clean frame
// boundary; a partial frame yields io.ErrUnexpectedEOF.
func (r *Reader) Next() (Frame, error) {
	if _, err := io.ReadFull(r.r, r.pfx[:1]); err != nil {
		return Frame{}, err // clean EOF possible here only
	}
	if _, err := io.ReadFull(r.r, r.pfx[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	n := int(binary.LittleEndian.Uint32(r.pfx[:]))
	if n < 1 {
		return Frame{}, fmt.Errorf("fbwire: empty frame")
	}
	if n > MaxFrameBytes {
		return Frame{}, fmt.Errorf("fbwire: frame length %d exceeds cap %d", n, MaxFrameBytes)
	}
	if cap(r.buf) < n {
		r.buf = make([]byte, n, n+n/2)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	r.read += int64(4 + n)
	f := Frame{Type: r.buf[0], Payload: r.buf[1:]}
	switch f.Type {
	case TypeHello, TypeWelcome, TypeCell, TypeFin:
	default:
		return Frame{}, fmt.Errorf("fbwire: unknown frame type %#x", f.Type)
	}
	if f.Type == TypeCell {
		if len(f.Payload) < cellHeaderLen {
			return Frame{}, fmt.Errorf("fbwire: cell frame header truncated (%d bytes)", len(f.Payload))
		}
		seq := binary.LittleEndian.Uint64(f.Payload)
		if r.seenSeq && seq <= r.lastSeq {
			return Frame{}, fmt.Errorf("fbwire: cell frame seq %d duplicates or reorders (last %d)", seq, r.lastSeq)
		}
		r.seenSeq, r.lastSeq = true, seq
	}
	return f, nil
}

// ParseHello decodes a HELLO payload.
func ParseHello(payload []byte) (Hello, error) {
	if len(payload) != helloWireLen {
		return Hello{}, fmt.Errorf("fbwire: hello payload is %d bytes, want %d", len(payload), helloWireLen)
	}
	h := Hello{
		Version:     binary.LittleEndian.Uint16(payload),
		AgentID:     binary.LittleEndian.Uint32(payload[2:]),
		Incarnation: binary.LittleEndian.Uint32(payload[6:]),
		ShardLo:     binary.LittleEndian.Uint32(payload[10:]),
		ShardHi:     binary.LittleEndian.Uint32(payload[14:]),
		Windows:     binary.LittleEndian.Uint32(payload[18:]),
		Check:       binary.LittleEndian.Uint64(payload[22:]),
	}
	if h.Version != Version {
		return Hello{}, fmt.Errorf("fbwire: protocol version %d, want %d", h.Version, Version)
	}
	if h.ShardHi < h.ShardLo {
		return Hello{}, fmt.Errorf("fbwire: hello shard range [%d, %d) is inverted", h.ShardLo, h.ShardHi)
	}
	return h, nil
}

// ParseWelcome decodes a WELCOME payload.
func ParseWelcome(payload []byte) (uint64, error) {
	if len(payload) != 8 {
		return 0, fmt.Errorf("fbwire: welcome payload is %d bytes, want 8", len(payload))
	}
	return binary.LittleEndian.Uint64(payload), nil
}

// ParseFin decodes a FIN payload. The report aliases the payload.
func ParseFin(payload []byte) (sent uint64, report []byte, err error) {
	if len(payload) < finHeaderLen {
		return 0, nil, fmt.Errorf("fbwire: fin payload is %d bytes, want at least %d", len(payload), finHeaderLen)
	}
	if n := binary.LittleEndian.Uint32(payload[8:]); uint64(n) != uint64(len(payload)-finHeaderLen) {
		return 0, nil, fmt.Errorf("fbwire: fin report length %d, payload carries %d", n, len(payload)-finHeaderLen)
	}
	return binary.LittleEndian.Uint64(payload), payload[finHeaderLen:], nil
}

// DecodePartial decodes a CELL payload: its header and section bounds,
// then the partial into a reusable Partial. The payload must come from a
// Frame of TypeCell. Section bodies are returned unparsed.
func DecodePartial(payload []byte, into *fbflow.Partial) (PartialHeader, error) {
	if len(payload) < cellHeaderLen {
		return PartialHeader{}, fmt.Errorf("fbwire: cell frame header truncated (%d bytes)", len(payload))
	}
	h := PartialHeader{
		Seq:    binary.LittleEndian.Uint64(payload),
		Window: binary.LittleEndian.Uint32(payload[8:]),
		Shard:  binary.LittleEndian.Uint32(payload[12:]),
	}
	sections := payload[16]
	if sections&^(sectionObs|sectionAudit) != 0 {
		return PartialHeader{}, fmt.Errorf("fbwire: unknown cell section flags %#x", sections)
	}
	rest := payload[cellHeaderLen:]
	var err error
	if sections&sectionObs != 0 {
		if h.Obs, rest, err = cutSection(rest, "obs"); err != nil {
			return PartialHeader{}, err
		}
	}
	if sections&sectionAudit != 0 {
		if h.Audit, rest, err = cutSection(rest, "audit"); err != nil {
			return PartialHeader{}, err
		}
	}
	if err := into.DecodeBinary(rest); err != nil {
		return PartialHeader{}, err
	}
	return h, nil
}

// cutSection splits one length-prefixed, non-empty section off b.
func cutSection(b []byte, name string) (sec, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("fbwire: %s section length truncated", name)
	}
	n := binary.LittleEndian.Uint32(b)
	if n == 0 || uint64(n) > uint64(len(b)-4) {
		return nil, nil, fmt.Errorf("fbwire: %s section length %d, %d bytes left", name, n, len(b)-4)
	}
	return b[4 : 4+n], b[4+n:], nil
}
