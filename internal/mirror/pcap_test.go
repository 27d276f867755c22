package mirror

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"fbdcnet/internal/packet"
)

func pcapHdr(i int, flags packet.Flags) packet.Header {
	return packet.Header{
		Time: int64(i)*1_000_000 + 42, // exercise sec+nsec split
		Key: packet.FlowKey{
			Src: packet.Addr(100 + i), Dst: packet.Addr(200 + i),
			SrcPort: uint16(3000 + i), DstPort: 80, Proto: packet.TCP,
		},
		Size:  uint32(66 + i*10),
		Flags: flags,
	}
}

func TestPcapRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewPcapWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		w.Packet(pcapHdr(i, packet.FlagACK|packet.FlagPSH))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewPcapReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	err = r.ForEach(func(h packet.Header) {
		want := pcapHdr(i, packet.FlagACK|packet.FlagPSH)
		if h.Key != want.Key {
			t.Fatalf("record %d key %v, want %v", i, h.Key, want.Key)
		}
		if h.Time != want.Time {
			t.Fatalf("record %d time %d, want %d", i, h.Time, want.Time)
		}
		if h.Size != want.Size && !(want.Size < capturedBytes && h.Size == capturedBytes) {
			t.Fatalf("record %d size %d, want %d", i, h.Size, want.Size)
		}
		if h.Flags != want.Flags {
			t.Fatalf("record %d flags %v, want %v", i, h.Flags, want.Flags)
		}
		i++
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != n {
		t.Fatalf("read %d records", i)
	}
	if r.Skipped != 0 {
		t.Fatalf("skipped %d", r.Skipped)
	}
}

func TestPcapAllFlagBits(t *testing.T) {
	flags := []packet.Flags{
		packet.FlagSYN, packet.FlagACK, packet.FlagFIN | packet.FlagACK,
		packet.FlagRST, packet.FlagPSH | packet.FlagACK,
	}
	var buf bytes.Buffer
	w, _ := NewPcapWriter(&buf)
	for i, f := range flags {
		w.Packet(pcapHdr(i, f))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewPcapReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	if err := r.ForEach(func(h packet.Header) {
		if h.Flags != flags[i] {
			t.Fatalf("flags[%d] = %v, want %v", i, h.Flags, flags[i])
		}
		i++
	}); err != nil {
		t.Fatal(err)
	}
}

func TestPcapGlobalHeaderFields(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewPcapWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	gh := buf.Bytes()
	if len(gh) != 24 {
		t.Fatalf("global header %d bytes", len(gh))
	}
	if binary.LittleEndian.Uint32(gh[0:]) != pcapMagicNanos {
		t.Fatal("wrong magic")
	}
	if binary.LittleEndian.Uint16(gh[4:]) != 2 || binary.LittleEndian.Uint16(gh[6:]) != 4 {
		t.Fatal("wrong version")
	}
	if binary.LittleEndian.Uint32(gh[20:]) != 1 {
		t.Fatal("wrong link type")
	}
}

func TestPcapRejectsGarbage(t *testing.T) {
	if _, err := NewPcapReader(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Fatal("zero magic accepted")
	}
	if _, err := NewPcapReader(bytes.NewReader([]byte("short"))); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestPcapWrongLinkType(t *testing.T) {
	var gh [24]byte
	binary.LittleEndian.PutUint32(gh[0:], pcapMagicNanos)
	binary.LittleEndian.PutUint32(gh[20:], 101) // raw IP
	if _, err := NewPcapReader(bytes.NewReader(gh[:])); err == nil {
		t.Fatal("unsupported link type accepted")
	}
}

func TestPcapSkipsNonIPv4(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewPcapWriter(&buf)
	w.Packet(pcapHdr(0, packet.FlagACK))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the EtherType of the first (only) record: global 24 +
	// record header 16 + MACs 12.
	data[24+16+12] = 0x86
	data[24+16+13] = 0xdd // IPv6

	r, err := NewPcapReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF after skipping, got %v", err)
	}
	if r.Skipped != 1 {
		t.Fatalf("skipped %d", r.Skipped)
	}
}

func TestPcapTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewPcapWriter(&buf)
	w.Packet(pcapHdr(0, 0))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-5]
	r, err := NewPcapReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("truncated record accepted: %v", err)
	}
}

func TestPcapIPChecksumValid(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewPcapWriter(&buf)
	w.Packet(pcapHdr(3, packet.FlagSYN))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	ip := buf.Bytes()[24+16+ethHeaderLen : 24+16+ethHeaderLen+ipHeaderLen]
	// Recomputing the checksum over the header including the stored
	// checksum must yield zero (ones-complement property).
	var sum uint32
	for i := 0; i+1 < len(ip); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(ip[i:]))
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + sum>>16
	}
	if ^uint16(sum) != 0 {
		t.Fatalf("IP checksum invalid: %#x", ^uint16(sum))
	}
}

func BenchmarkPcapWrite(b *testing.B) {
	w, _ := NewPcapWriter(io.Discard)
	h := pcapHdr(1, packet.FlagACK)
	for i := 0; i < b.N; i++ {
		w.Packet(h)
	}
}
