package analysis

import (
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/stats"
)

// PacketSizes accumulates the on-wire packet size distribution of a
// monitored host's trace (both directions) — Figure 12. Sizes are
// integers below the MTU, so it keeps an exact count per size and builds
// the sorted sample only when asked.
type PacketSizes struct {
	counts []int64       // counts[s] packets of s bytes
	sample *stats.Sample // built by Sample; nil once more packets arrive
}

// NewPacketSizes returns an empty accumulator.
func NewPacketSizes() *PacketSizes { return &PacketSizes{} }

// Packet implements the collector interface.
func (ps *PacketSizes) Packet(h packet.Header) { ps.Packets([]packet.Header{h}) }

// Packets implements the batch collector interface.
func (ps *PacketSizes) Packets(hs []packet.Header) {
	for _, h := range hs {
		if int(h.Size) >= len(ps.counts) {
			ps.counts = append(ps.counts, make([]int64, int(h.Size)+1-len(ps.counts))...)
		}
		ps.counts[h.Size]++
	}
	ps.sample = nil
}

// Sample returns the size distribution in bytes, in ascending order.
func (ps *PacketSizes) Sample() *stats.Sample {
	if ps.sample == nil {
		ps.sample = stats.NewSample(0)
		for size, c := range ps.counts {
			for ; c > 0; c-- {
				ps.sample.Add(float64(size))
			}
		}
	}
	return ps.sample
}

// Arrivals studies the packet arrival process of a monitored host's
// outbound traffic: binned counts at several widths (the Fig. 13 on/off
// test) and SYN interarrival times (Fig. 14).
type Arrivals struct {
	addr     packet.Addr
	binned   []arrivalBins // a handful of widths: a slice beats a map
	synTimes []netsim.Time
	lastSYN  netsim.Time
	synGaps  *stats.Sample
}

// arrivalBins is the count series at one bin width.
type arrivalBins struct {
	w  netsim.Time
	ts *stats.TimeSeries
}

// NewArrivals creates an arrival tracker binning outbound packets at each
// of the given widths.
func NewArrivals(addr packet.Addr, binWidths ...netsim.Time) *Arrivals {
	a := &Arrivals{
		addr:    addr,
		lastSYN: -1,
		synGaps: stats.NewSample(0),
	}
	for _, w := range binWidths {
		a.binned = append(a.binned, arrivalBins{w, stats.NewTimeSeries(0, float64(w)/float64(netsim.Second))})
	}
	return a
}

// Packet implements the collector interface.
func (a *Arrivals) Packet(h packet.Header) {
	if h.Key.Src != a.addr {
		return
	}
	sec := float64(h.Time) / float64(netsim.Second)
	for _, b := range a.binned {
		b.ts.Add(sec, 1)
	}
	if h.SYN() && h.Flags&packet.FlagACK == 0 {
		if a.lastSYN >= 0 {
			gap := h.Time - a.lastSYN
			a.synGaps.Add(float64(gap) / float64(netsim.Microsecond))
		}
		a.lastSYN = h.Time
		a.synTimes = append(a.synTimes, h.Time)
	}
}

// Packets implements the batch collector interface.
func (a *Arrivals) Packets(hs []packet.Header) {
	for _, h := range hs {
		a.Packet(h)
	}
}

// series returns the count series at the given width, or an empty series
// when the width was not configured.
func (a *Arrivals) series(w netsim.Time) *stats.TimeSeries {
	for _, b := range a.binned {
		if b.w == w {
			return b.ts
		}
	}
	return stats.NewTimeSeries(0, 1.0)
}

// Bins returns the packet-count series at the given width.
func (a *Arrivals) Bins(w netsim.Time) []float64 { return a.series(w).Bins() }

// SYNInterarrivalsMicros returns the SYN interarrival distribution in
// microseconds — Figure 14.
func (a *Arrivals) SYNInterarrivalsMicros() *stats.Sample { return a.synGaps }

// SYNCount returns the number of connection-opening SYNs observed.
func (a *Arrivals) SYNCount() int { return len(a.synTimes) }

// OnOffScore quantifies on/off behaviour at a bin width: the fraction of
// empty bins among bins between the first and last non-empty bin. Benson
// et al.'s on/off traffic leaves a large fraction of silent gaps; the
// paper finds Facebook hosts show continuous arrivals (Fig. 13), i.e. a
// score near zero.
func (a *Arrivals) OnOffScore(w netsim.Time) float64 {
	bins := a.series(w).Bins()
	first, last := -1, -1
	for i, v := range bins {
		if v > 0 {
			if first < 0 {
				first = i
			}
			last = i
		}
	}
	if first < 0 || last <= first {
		return 0
	}
	empty := 0
	for i := first; i <= last; i++ {
		if bins[i] == 0 {
			empty++
		}
	}
	return float64(empty) / float64(last-first+1)
}

// OnOffScoreActive is OnOffScore restricted to active seconds — seconds
// whose packet count is at least half the median active second. For a
// Hadoop node this excludes whole quiet computation phases and asks the
// Fig. 13 question: during periods with traffic, do arrivals pause at the
// bin scale?
func (a *Arrivals) OnOffScoreActive(w netsim.Time) float64 {
	bins := a.series(w).Bins()
	perSec := int(netsim.Second / w)
	if perSec < 1 {
		perSec = 1
	}
	nSec := (len(bins) + perSec - 1) / perSec
	secCount := make([]float64, nSec)
	for i, v := range bins {
		secCount[i/perSec] += v
	}
	med := stats.NewSample(nSec)
	for _, c := range secCount {
		if c > 0 {
			med.Add(c)
		}
	}
	if med.N() == 0 {
		return 0
	}
	cut := med.Median() / 2
	var empty, total int
	for i, v := range bins {
		if secCount[i/perSec] < cut {
			continue
		}
		total++
		if v == 0 {
			empty++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(empty) / float64(total)
}
