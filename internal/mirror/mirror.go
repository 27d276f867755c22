// Package mirror implements the port-mirroring collection path of §3.3.2:
// lossless capture of one host's (or rack's) complete bidirectional
// packet-header stream over a bounded window, spooled to a compact binary
// trace format for offline analysis.
//
// The production system pinned free RAM to buffer line-rate captures; the
// equivalent here is an in-memory ring with an explicit capacity bound and
// a loss counter, so analyses can verify the capture was in fact lossless
// (the paper only mirrored hosts whose rate the RSW could mirror without
// loss).
package mirror

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"fbdcnet/internal/packet"
)

// magic identifies a trace file; the version byte allows format evolution.
var magic = [4]byte{'F', 'B', 'M', '1'}

// Writer streams packet headers to a binary trace. It implements
// workload.Collector; create with NewWriter and Close when done.
type Writer struct {
	w     *bufio.Writer
	buf   [packet.EncodedSize]byte
	count int64
	err   error
}

// NewWriter writes the trace header and returns a Writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, fmt.Errorf("mirror: writing magic: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Packet records one header. Errors are sticky and surfaced by Close.
func (w *Writer) Packet(h packet.Header) {
	if w.err != nil {
		return
	}
	h.MarshalTo(w.buf[:])
	if _, err := w.w.Write(w.buf[:]); err != nil {
		w.err = err
		return
	}
	w.count++
}

// Packets implements the batch collector interface: one sticky-error
// check per batch instead of per header.
func (w *Writer) Packets(hs []packet.Header) {
	if w.err != nil {
		return
	}
	for i := range hs {
		hs[i].MarshalTo(w.buf[:])
		if _, err := w.w.Write(w.buf[:]); err != nil {
			w.err = err
			return
		}
		w.count++
	}
}

// Count returns the number of headers written.
func (w *Writer) Count() int64 { return w.count }

// Close flushes buffered records and returns any sticky error.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader iterates over a binary trace.
type Reader struct {
	r   *bufio.Reader
	buf [packet.EncodedSize]byte
}

// NewReader validates the trace header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var got [4]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("mirror: reading magic: %w", err)
	}
	if got != magic {
		return nil, fmt.Errorf("mirror: bad magic %q", got[:])
	}
	return &Reader{r: br}, nil
}

// Next returns the next header, or io.EOF at end of trace.
func (r *Reader) Next() (packet.Header, error) {
	var h packet.Header
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return h, fmt.Errorf("mirror: truncated record: %w", err)
		}
		return h, err
	}
	if err := h.UnmarshalBinary(r.buf[:]); err != nil {
		return h, err
	}
	return h, nil
}

// ForEach replays the whole trace into fn, stopping on the first error.
func (r *Reader) ForEach(fn func(packet.Header)) error {
	for {
		h, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		fn(h)
	}
}
