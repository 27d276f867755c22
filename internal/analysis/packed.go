package analysis

import "fbdcnet/internal/packet"

// packHostFlowKey packs a host-outbound-oriented flow key into a uint64
// for the open-addressing tables: Dst in bits 33..63, SrcPort in 17..32,
// DstPort in 1..16, and a protocol bit (TCP=0, otherwise 1) in bit 0.
// Src is omitted — every key packed by one analysis instance shares the
// monitored host's address, so it carries no information.
//
// The layout is order-preserving: for keys with equal Src, numeric uint64
// order equals the keyLess field order (Dst, SrcPort, DstPort, Proto with
// TCP before UDP), so sorts over packed keys reproduce the exact
// deterministic tie-breaks of the struct-keyed implementation.
//
// Preconditions: Dst < 2^31 (topology addresses are dense host indices,
// far below this even at -scale large) and Proto ∈ {TCP, UDP} (the only
// protocols the packet layer produces). Callers with foreign addresses
// must check canPackAddr and take a spill path. HeavyGroup relies on the
// first: it recovers a key's destination address as k>>33 when it folds
// flow totals into host totals.
func packHostFlowKey(k packet.FlowKey) uint64 {
	proto := uint64(0)
	if k.Proto != packet.TCP {
		proto = 1
	}
	return uint64(k.Dst)<<33 | uint64(k.SrcPort)<<17 | uint64(k.DstPort)<<1 | proto
}

// canPackAddr reports whether an address fits the packed-key Dst field.
func canPackAddr(a packet.Addr) bool { return a < 1<<31 }
