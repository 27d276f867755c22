// Package packet defines the packet-header and flow abstractions shared by
// the traffic generators, collection systems, and analyses.
//
// The design follows the gopacket idiom of hashable endpoint/flow values:
// a FlowKey is a 5-tuple usable directly as a map key, with a FastHash for
// load-balanced sharding and a Reverse for matching the two directions of
// a connection. Headers carry only what the paper's methodology captured —
// addresses, ports, protocol, length, TCP flags, and a timestamp — and
// marshal to a fixed-size binary record so port-mirror traces can be
// written and re-read compactly.
package packet

import (
	"encoding/binary"
	"fmt"
)

// Proto identifies the transport protocol of a packet.
type Proto uint8

// Transport protocols used by the simulated services.
const (
	TCP Proto = 6
	UDP Proto = 17
)

// String implements fmt.Stringer.
func (p Proto) String() string {
	switch p {
	case TCP:
		return "TCP"
	case UDP:
		return "UDP"
	default:
		return fmt.Sprintf("Proto(%d)", uint8(p))
	}
}

// Addr is a host network address. The simulator assigns each machine one
// address; rendering uses the familiar 10.0.0.0/8 dotted form.
type Addr uint32

// String renders the address in dotted-quad form within 10/8.
func (a Addr) String() string {
	return fmt.Sprintf("10.%d.%d.%d", byte(a>>16), byte(a>>8), byte(a))
}

// FlowKey is the 5-tuple identifying a flow. It is comparable and hence
// usable as a map key.
type FlowKey struct {
	Src, Dst         Addr
	SrcPort, DstPort uint16
	Proto            Proto
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// FastHash returns a non-cryptographic 64-bit hash of the key. It is
// symmetric — a flow and its reverse hash identically — so both directions
// of a connection shard to the same bucket (the gopacket Flow contract).
func (k FlowKey) FastHash() uint64 {
	a := uint64(k.Src)<<16 | uint64(k.SrcPort)
	b := uint64(k.Dst)<<16 | uint64(k.DstPort)
	if a > b {
		a, b = b, a
	}
	h := a*0x9e3779b97f4a7c15 ^ b
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h ^ uint64(k.Proto)
}

// String implements fmt.Stringer.
func (k FlowKey) String() string {
	return fmt.Sprintf("%s:%d>%s:%d/%s", k.Src, k.SrcPort, k.Dst, k.DstPort, k.Proto)
}

// Flags is the TCP flag byte subset the analyses care about.
type Flags uint8

// Flag bits.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagRST
	FlagPSH
)

// Header is one captured packet header. Time is in nanoseconds from the
// start of the capture; Size is the on-wire length in bytes.
type Header struct {
	Time  int64
	Key   FlowKey
	Size  uint32
	Flags Flags
}

// SYN reports whether the SYN flag is set (a new-connection marker used by
// the flow-interarrival analysis, Fig. 14).
func (h Header) SYN() bool { return h.Flags&FlagSYN != 0 }

// EncodedSize is the fixed length in bytes of a marshaled Header.
const EncodedSize = 8 + 4 + 4 + 2 + 2 + 1 + 1 + 4 // 26

// MarshalBinary encodes the header into the fixed-size wire record.
func (h Header) MarshalBinary() []byte {
	buf := make([]byte, EncodedSize)
	h.MarshalTo(buf)
	return buf
}

// MarshalTo encodes the header into buf, which must be at least
// EncodedSize bytes long.
func (h Header) MarshalTo(buf []byte) {
	_ = buf[EncodedSize-1]
	binary.LittleEndian.PutUint64(buf[0:], uint64(h.Time))
	binary.LittleEndian.PutUint32(buf[8:], uint32(h.Key.Src))
	binary.LittleEndian.PutUint32(buf[12:], uint32(h.Key.Dst))
	binary.LittleEndian.PutUint16(buf[16:], h.Key.SrcPort)
	binary.LittleEndian.PutUint16(buf[18:], h.Key.DstPort)
	buf[20] = byte(h.Key.Proto)
	buf[21] = byte(h.Flags)
	binary.LittleEndian.PutUint32(buf[22:], h.Size)
}

// UnmarshalBinary decodes a header from the wire record.
func (h *Header) UnmarshalBinary(buf []byte) error {
	if len(buf) < EncodedSize {
		return fmt.Errorf("packet: short header record: %d bytes", len(buf))
	}
	h.Time = int64(binary.LittleEndian.Uint64(buf[0:]))
	h.Key.Src = Addr(binary.LittleEndian.Uint32(buf[8:]))
	h.Key.Dst = Addr(binary.LittleEndian.Uint32(buf[12:]))
	h.Key.SrcPort = binary.LittleEndian.Uint16(buf[16:])
	h.Key.DstPort = binary.LittleEndian.Uint16(buf[18:])
	h.Key.Proto = Proto(buf[20])
	h.Flags = Flags(buf[21])
	h.Size = binary.LittleEndian.Uint32(buf[22:])
	return nil
}

// Common on-wire sizes (Ethernet framing included) used by the generators.
const (
	// ACKSize is a bare TCP ACK segment on the wire.
	ACKSize = 66
	// MTUSize is a full-MTU TCP segment on the wire (1500B IP + 14B Ethernet).
	MTUSize = 1514
)
