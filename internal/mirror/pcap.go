package mirror

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"fbdcnet/internal/packet"
)

// Pcap interoperability: mirror traces can be exported to the classic
// libpcap file format (and read back), so standard tooling — tcpdump,
// Wireshark, gopacket programs — can inspect synthetic captures, and real
// captures can be fed to the analyses. Packets are synthesized as
// Ethernet/IPv4/TCP headers carrying no payload bytes: the on-wire length
// is preserved in the record header while the captured bytes stop after
// the TCP header, exactly like a `tcpdump -s 54` header-only capture.

const (
	pcapMagicNanos = 0xa1b23c4d
	pcapVersionMaj = 2
	pcapVersionMin = 4
	linkTypeEth    = 1

	ethHeaderLen  = 14
	ipHeaderLen   = 20
	tcpHeaderLen  = 20
	capturedBytes = ethHeaderLen + ipHeaderLen + tcpHeaderLen
)

// PcapWriter streams headers as a nanosecond-resolution pcap file.
type PcapWriter struct {
	w   *bufio.Writer
	buf [16 + capturedBytes]byte
	err error
}

// NewPcapWriter writes the pcap global header and returns a writer.
func NewPcapWriter(w io.Writer) (*PcapWriter, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	var gh [24]byte
	binary.LittleEndian.PutUint32(gh[0:], pcapMagicNanos)
	binary.LittleEndian.PutUint16(gh[4:], pcapVersionMaj)
	binary.LittleEndian.PutUint16(gh[6:], pcapVersionMin)
	// thiszone, sigfigs = 0
	binary.LittleEndian.PutUint32(gh[16:], capturedBytes) // snaplen
	binary.LittleEndian.PutUint32(gh[20:], linkTypeEth)
	if _, err := bw.Write(gh[:]); err != nil {
		return nil, fmt.Errorf("mirror: writing pcap header: %w", err)
	}
	return &PcapWriter{w: bw}, nil
}

// Packet implements the collector interface.
func (p *PcapWriter) Packet(h packet.Header) {
	if p.err != nil {
		return
	}
	b := p.buf[:]
	sec := uint32(h.Time / 1_000_000_000)
	nsec := uint32(h.Time % 1_000_000_000)
	binary.LittleEndian.PutUint32(b[0:], sec)
	binary.LittleEndian.PutUint32(b[4:], nsec)
	binary.LittleEndian.PutUint32(b[8:], capturedBytes) // incl_len
	wire := h.Size
	if wire < capturedBytes {
		wire = capturedBytes
	}
	binary.LittleEndian.PutUint32(b[12:], wire) // orig_len

	pkt := b[16:]
	synthEthernet(pkt, h)
	if _, err := p.w.Write(b); err != nil {
		p.err = err
	}
}

// Packets implements the batch collector interface.
func (p *PcapWriter) Packets(hs []packet.Header) {
	for _, h := range hs {
		p.Packet(h)
	}
}

// synthEthernet fills a header-only Ethernet/IPv4/TCP frame for h.
func synthEthernet(b []byte, h packet.Header) {
	// Ethernet: MACs derived from host addresses, EtherType IPv4.
	putMAC(b[0:6], h.Key.Dst)
	putMAC(b[6:12], h.Key.Src)
	b[12], b[13] = 0x08, 0x00

	ip := b[ethHeaderLen:]
	ip[0] = 0x45 // v4, 20-byte header
	ip[1] = 0
	ipLen := h.Size
	if ipLen > 0xffff {
		ipLen = 0xffff
	}
	if ipLen < ipHeaderLen+tcpHeaderLen {
		ipLen = ipHeaderLen + tcpHeaderLen
	}
	binary.BigEndian.PutUint16(ip[2:], uint16(ipLen))
	ip[8] = 64 // TTL
	ip[9] = byte(h.Key.Proto)
	binary.BigEndian.PutUint32(ip[12:], 0x0a000000|uint32(h.Key.Src)&0x00ffffff)
	binary.BigEndian.PutUint32(ip[16:], 0x0a000000|uint32(h.Key.Dst)&0x00ffffff)
	ip[10], ip[11] = 0, 0
	csum := ipChecksum(ip[:ipHeaderLen])
	binary.BigEndian.PutUint16(ip[10:], csum)

	tcp := ip[ipHeaderLen:]
	binary.BigEndian.PutUint16(tcp[0:], h.Key.SrcPort)
	binary.BigEndian.PutUint16(tcp[2:], h.Key.DstPort)
	tcp[12] = 5 << 4 // data offset: 20 bytes
	tcp[13] = tcpFlagBits(h.Flags)
	binary.BigEndian.PutUint16(tcp[14:], 0xffff) // window
}

// tcpFlagBits converts our flag set to the TCP header bits.
func tcpFlagBits(f packet.Flags) byte {
	var b byte
	if f&packet.FlagFIN != 0 {
		b |= 0x01
	}
	if f&packet.FlagSYN != 0 {
		b |= 0x02
	}
	if f&packet.FlagRST != 0 {
		b |= 0x04
	}
	if f&packet.FlagPSH != 0 {
		b |= 0x08
	}
	if f&packet.FlagACK != 0 {
		b |= 0x10
	}
	return b
}

// tcpFlagsFrom converts TCP header bits back to our flag set.
func tcpFlagsFrom(b byte) packet.Flags {
	var f packet.Flags
	if b&0x01 != 0 {
		f |= packet.FlagFIN
	}
	if b&0x02 != 0 {
		f |= packet.FlagSYN
	}
	if b&0x04 != 0 {
		f |= packet.FlagRST
	}
	if b&0x08 != 0 {
		f |= packet.FlagPSH
	}
	if b&0x10 != 0 {
		f |= packet.FlagACK
	}
	return f
}

// putMAC derives a locally administered MAC from a host address.
func putMAC(b []byte, a packet.Addr) {
	b[0] = 0x02
	b[1] = 0xfb
	binary.BigEndian.PutUint32(b[2:], uint32(a))
}

// ipChecksum computes the IPv4 header checksum.
func ipChecksum(h []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(h); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(h[i:]))
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// Close flushes the writer and reports any sticky error.
func (p *PcapWriter) Close() error {
	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}

// PcapReader reads Ethernet/IPv4/TCP packets from a pcap file back into
// packet headers. Non-TCP/UDP or truncated records are skipped and
// counted.
type PcapReader struct {
	r       *bufio.Reader
	nanos   bool
	Skipped int64
}

// NewPcapReader validates the global header.
func NewPcapReader(r io.Reader) (*PcapReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var gh [24]byte
	if _, err := io.ReadFull(br, gh[:]); err != nil {
		return nil, fmt.Errorf("mirror: reading pcap header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(gh[0:])
	nanos := false
	switch magic {
	case pcapMagicNanos:
		nanos = true
	case 0xa1b2c3d4: // microsecond variant
	default:
		return nil, fmt.Errorf("mirror: not a little-endian pcap file (magic %#x)", magic)
	}
	if lt := binary.LittleEndian.Uint32(gh[20:]); lt != linkTypeEth {
		return nil, fmt.Errorf("mirror: unsupported link type %d", lt)
	}
	return &PcapReader{r: br, nanos: nanos}, nil
}

// Next returns the next TCP/UDP header, skipping other records; io.EOF at
// end.
func (p *PcapReader) Next() (packet.Header, error) {
	for {
		var rh [16]byte
		if _, err := io.ReadFull(p.r, rh[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				return packet.Header{}, fmt.Errorf("mirror: truncated pcap record: %w", err)
			}
			return packet.Header{}, err
		}
		sec := binary.LittleEndian.Uint32(rh[0:])
		sub := binary.LittleEndian.Uint32(rh[4:])
		incl := binary.LittleEndian.Uint32(rh[8:])
		orig := binary.LittleEndian.Uint32(rh[12:])
		if incl > 1<<20 {
			return packet.Header{}, fmt.Errorf("mirror: implausible pcap record length %d", incl)
		}
		data := make([]byte, incl)
		if _, err := io.ReadFull(p.r, data); err != nil {
			return packet.Header{}, fmt.Errorf("mirror: truncated pcap payload: %w", err)
		}
		h, ok := parseEthernet(data)
		if !ok {
			p.Skipped++
			continue
		}
		ns := int64(sub)
		if !p.nanos {
			ns *= 1000
		}
		h.Time = int64(sec)*1_000_000_000 + ns
		h.Size = orig
		return h, nil
	}
}

// parseEthernet extracts the 5-tuple and flags from a header-only frame.
func parseEthernet(b []byte) (packet.Header, bool) {
	var h packet.Header
	if len(b) < ethHeaderLen+ipHeaderLen {
		return h, false
	}
	if b[12] != 0x08 || b[13] != 0x00 {
		return h, false // not IPv4
	}
	ip := b[ethHeaderLen:]
	ihl := int(ip[0]&0x0f) * 4
	// IHL below 5 words is malformed IPv4: without this check the layer-4
	// slice would start inside the IP header and parse garbage ports.
	if ip[0]>>4 != 4 || ihl < ipHeaderLen || len(ip) < ihl {
		return h, false
	}
	proto := packet.Proto(ip[9])
	if proto != packet.TCP && proto != packet.UDP {
		return h, false
	}
	h.Key.Proto = proto
	h.Key.Src = packet.Addr(binary.BigEndian.Uint32(ip[12:]) & 0x00ffffff)
	h.Key.Dst = packet.Addr(binary.BigEndian.Uint32(ip[16:]) & 0x00ffffff)
	l4 := ip[ihl:]
	if len(l4) < 4 {
		return h, false
	}
	h.Key.SrcPort = binary.BigEndian.Uint16(l4[0:])
	h.Key.DstPort = binary.BigEndian.Uint16(l4[2:])
	if proto == packet.TCP && len(l4) >= 14 {
		h.Flags = tcpFlagsFrom(l4[13])
	}
	return h, true
}

// ForEach replays the whole pcap into fn.
func (p *PcapReader) ForEach(fn func(packet.Header)) error {
	for {
		h, err := p.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		fn(h)
	}
}
