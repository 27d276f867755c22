package packet

import (
	"testing"
	"testing/quick"
)

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{Src: 1, Dst: 2, SrcPort: 80, DstPort: 12345, Proto: TCP}
	r := k.Reverse()
	if r.Src != 2 || r.Dst != 1 || r.SrcPort != 12345 || r.DstPort != 80 || r.Proto != TCP {
		t.Fatalf("reverse wrong: %+v", r)
	}
	if r.Reverse() != k {
		t.Fatal("double reverse is not identity")
	}
}

func TestFastHashSymmetric(t *testing.T) {
	err := quick.Check(func(src, dst uint32, sp, dp uint16) bool {
		k := FlowKey{Src: Addr(src), Dst: Addr(dst), SrcPort: sp, DstPort: dp, Proto: TCP}
		return k.FastHash() == k.Reverse().FastHash()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestFastHashDisperses(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		k := FlowKey{Src: Addr(i), Dst: Addr(i * 7), SrcPort: uint16(i), DstPort: 80, Proto: TCP}
		seen[k.FastHash()] = true
	}
	if len(seen) < 9990 {
		t.Fatalf("too many hash collisions: %d unique of 10000", len(seen))
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	err := quick.Check(func(tm int64, src, dst uint32, sp, dp uint16, size uint32, flags uint8) bool {
		h := Header{
			Time: tm,
			Key: FlowKey{
				Src: Addr(src), Dst: Addr(dst),
				SrcPort: sp, DstPort: dp, Proto: TCP,
			},
			Size:  size,
			Flags: Flags(flags) & (FlagSYN | FlagACK | FlagFIN | FlagRST | FlagPSH),
		}
		var got Header
		if err := got.UnmarshalBinary(h.MarshalBinary()); err != nil {
			return false
		}
		return got == h
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestHeaderEncodedSize(t *testing.T) {
	var h Header
	if got := len(h.MarshalBinary()); got != EncodedSize {
		t.Fatalf("encoded size %d != %d", got, EncodedSize)
	}
}

func TestUnmarshalShortBuffer(t *testing.T) {
	var h Header
	if err := h.UnmarshalBinary(make([]byte, EncodedSize-1)); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestFlagHelpers(t *testing.T) {
	if !(Header{Flags: FlagSYN | FlagACK}).SYN() || (Header{Flags: FlagFIN | FlagACK}).SYN() {
		t.Fatal("flag helpers wrong")
	}
}

func TestAddrString(t *testing.T) {
	if s := Addr(0x00010203).String(); s != "10.1.2.3" {
		t.Fatalf("addr string %q", s)
	}
}

func TestProtoString(t *testing.T) {
	if TCP.String() != "TCP" || UDP.String() != "UDP" {
		t.Fatal("proto strings wrong")
	}
	if Proto(99).String() != "Proto(99)" {
		t.Fatal("unknown proto string wrong")
	}
}

func TestFlowKeyString(t *testing.T) {
	k := FlowKey{Src: 1, Dst: 2, SrcPort: 443, DstPort: 999, Proto: TCP}
	want := "10.0.0.1:443>10.0.0.2:999/TCP"
	if k.String() != want {
		t.Fatalf("got %q want %q", k.String(), want)
	}
}

func BenchmarkMarshal(b *testing.B) {
	h := Header{Time: 123456789, Key: FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: TCP}, Size: 200}
	buf := make([]byte, EncodedSize)
	for i := 0; i < b.N; i++ {
		h.MarshalTo(buf)
	}
}

func BenchmarkFastHash(b *testing.B) {
	k := FlowKey{Src: 1, Dst: 2, SrcPort: 3, DstPort: 4, Proto: TCP}
	for i := 0; i < b.N; i++ {
		_ = k.FastHash()
	}
}
