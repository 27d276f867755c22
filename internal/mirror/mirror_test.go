package mirror

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"fbdcnet/internal/packet"
)

func hdr(i int) packet.Header {
	return packet.Header{
		Time: int64(i) * 1000,
		Key: packet.FlowKey{
			Src: packet.Addr(i), Dst: packet.Addr(i + 1),
			SrcPort: uint16(i), DstPort: 80, Proto: packet.TCP,
		},
		Size:  uint32(100 + i),
		Flags: packet.FlagACK,
	}
}

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1000
	for i := 0; i < n; i++ {
		w.Packet(hdr(i))
	}
	if w.Count() != n {
		t.Fatalf("count %d", w.Count())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	err = r.ForEach(func(h packet.Header) {
		if h != hdr(got) {
			t.Fatalf("record %d mismatch: %+v", got, h)
		}
		got++
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("read %d records", got)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("XXXX1234"))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestShortMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("FB"))); err == nil {
		t.Fatal("short file accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.Packet(hdr(0))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-3] // chop the last record
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF, got %v", err)
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errors.New("disk full")
	}
	f.after -= len(p)
	return len(p), nil
}

func TestWriterStickyError(t *testing.T) {
	w, err := NewWriter(&failWriter{after: 40})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		w.Packet(hdr(i))
	}
	if err := w.Close(); err == nil {
		t.Fatal("write failure not surfaced by Close")
	}
}

func BenchmarkWriterPacket(b *testing.B) {
	w, _ := NewWriter(io.Discard)
	h := hdr(1)
	for i := 0; i < b.N; i++ {
		w.Packet(h)
	}
}
