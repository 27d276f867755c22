package analysis

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"fbdcnet/internal/netsim"
	"fbdcnet/internal/openhash"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/services"
	"fbdcnet/internal/stats"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// refHeavyHitters is the per-packet heavy-hitter tracker HeavyGroup
// replaced, kept as the oracle: one (level, bin) pair, keyed per packet
// at its level, with its own per-second table. HeavyGroup must match it
// sample for sample.
type refHeavyHitters struct {
	topo  *topology.Topology
	addr  packet.Addr
	level Level
	bin   netsim.Time

	cur    openhash.Table[float64]
	curBin int64
	prev   []uint64
	prevOK bool
	prevNo int64

	sec      openhash.Table[float64]
	secNo    int64
	subArena []uint64
	subEnds  []int

	counts, rates, persist, intersect *stats.Sample

	scratch        []hhItem
	setBuf, secBuf []uint64
}

func newRefHeavyHitters(topo *topology.Topology, host topology.HostID, level Level, bin netsim.Time) *refHeavyHitters {
	return &refHeavyHitters{
		topo: topo, addr: topo.Addr(host), level: level, bin: bin,
		counts: stats.NewSample(0), rates: stats.NewSample(0),
		persist: stats.NewSample(0), intersect: stats.NewSample(0),
	}
}

func (hh *refHeavyHitters) keyFor(h packet.Header) uint64 {
	switch hh.level {
	case LevelFlow:
		return packHostFlowKey(h.Key)
	case LevelHost:
		return uint64(h.Key.Dst)
	default:
		rack := 0
		if d, ok := hh.topo.HostByAddr(h.Key.Dst); ok {
			rack = hh.topo.HostRack(d)
		}
		return uint64(rack)
	}
}

func (hh *refHeavyHitters) Packet(h packet.Header) {
	if h.Key.Src != hh.addr {
		return
	}
	binNo := h.Time / int64(hh.bin)
	if binNo != hh.curBin {
		hh.rollBin(binNo)
	}
	secNo := h.Time / int64(netsim.Second)
	if secNo != hh.secNo {
		hh.rollSecond(secNo)
	}
	k := hh.keyFor(h)
	size := float64(h.Size)
	*hh.cur.Slot(k) += size
	*hh.sec.Slot(k) += size
}

func (hh *refHeavyHitters) heavyPrefix(t *openhash.Table[float64]) int {
	items := hh.scratch[:0]
	total := 0.0
	for i, n := 0, t.Len(); i < n; i++ {
		v := *t.Val(i)
		items = append(items, hhItem{t.Key(i), v})
		total += v
	}
	hh.scratch = items
	slices.SortFunc(items, func(a, b hhItem) int {
		if a.v != b.v {
			if a.v > b.v {
				return -1
			}
			return 1
		}
		if a.k < b.k {
			return -1
		}
		return 1
	})
	acc, m := 0.0, 0
	for _, it := range items {
		m++
		acc += it.v
		if acc >= HeavyFrac*total {
			break
		}
	}
	return m
}

func (hh *refHeavyHitters) sortedSet(m int, buf []uint64) []uint64 {
	buf = buf[:0]
	for i := 0; i < m; i++ {
		buf = append(buf, hh.scratch[i].k)
	}
	slices.Sort(buf)
	return buf
}

func (hh *refHeavyHitters) rollBin(next int64) {
	if hh.cur.Len() > 0 {
		m := hh.heavyPrefix(&hh.cur)
		hh.counts.Add(float64(m))
		binSec := float64(hh.bin) / float64(netsim.Second)
		for i := 0; i < m; i++ {
			hh.rates.Add(hh.scratch[i].v * 8 / binSec / 1e6)
		}
		hh.setBuf = hh.sortedSet(m, hh.setBuf)
		if hh.prevOK && hh.prevNo == hh.curBin-1 {
			hh.persist.Add(overlapSorted(hh.prev, hh.setBuf))
		}
		hh.prev = append(hh.prev[:0], hh.setBuf...)
		hh.prevOK, hh.prevNo = true, hh.curBin
		hh.subArena = append(hh.subArena, hh.setBuf...)
		hh.subEnds = append(hh.subEnds, len(hh.subArena))
		hh.cur.Reset()
	}
	hh.curBin = next
}

func (hh *refHeavyHitters) rollSecond(next int64) {
	if hh.sec.Len() > 0 && len(hh.subEnds) > 0 {
		m := hh.heavyPrefix(&hh.sec)
		hh.secBuf = hh.sortedSet(m, hh.secBuf)
		start := 0
		for _, end := range hh.subEnds {
			sub := hh.subArena[start:end]
			start = end
			if len(sub) > 0 {
				hh.intersect.Add(overlapSorted(sub, hh.secBuf))
			}
		}
	}
	hh.sec.Reset()
	hh.subArena = hh.subArena[:0]
	hh.subEnds = hh.subEnds[:0]
	hh.secNo = next
}

func (hh *refHeavyHitters) Finish() {
	hh.rollBin(hh.curBin + 1)
	hh.rollSecond(hh.secNo + 1)
}

// hhBins are the nested widths the trace bundles use.
var hhBins = []netsim.Time{netsim.Millisecond, 10 * netsim.Millisecond, 100 * netsim.Millisecond}

// sameSample reports the first difference between two samples: their
// counts, their sums in recorded order (bit for bit, so a reordered or
// perturbed value shows), and their sorted values bit for bit.
func sameSample(got, want *stats.Sample) error {
	if got.N() != want.N() {
		return fmt.Errorf("n = %d, want %d", got.N(), want.N())
	}
	if g, w := got.Sum(), want.Sum(); math.Float64bits(g) != math.Float64bits(w) {
		return fmt.Errorf("recorded-order sum = %v, want %v", g, w)
	}
	gv, wv := got.Values(), want.Values()
	for i := range gv {
		if math.Float64bits(gv[i]) != math.Float64bits(wv[i]) {
			return fmt.Errorf("sorted value %d = %v, want %v", i, gv[i], wv[i])
		}
	}
	return nil
}

// checkAgainstReference runs the stream through a group of levels ×
// bins (in 512-header batches) and one reference tracker per pair, and
// fails on the first sample that differs. It returns the number of
// non-empty bins the references recorded.
func checkAgainstReference(t *testing.T, label string, topo *topology.Topology, host topology.HostID, levels []Level, bins []netsim.Time, hs []packet.Header) int {
	t.Helper()
	g := NewHeavyGroup(topo, host, levels, bins)
	refs := map[Level]map[netsim.Time]*refHeavyHitters{}
	for _, lvl := range levels {
		refs[lvl] = map[netsim.Time]*refHeavyHitters{}
		for _, bin := range bins {
			refs[lvl][bin] = newRefHeavyHitters(topo, host, lvl, bin)
		}
	}
	for rest := hs; len(rest) > 0; {
		n := min(512, len(rest))
		g.Packets(rest[:n])
		for _, h := range rest[:n] {
			for _, lvl := range levels {
				for _, bin := range bins {
					refs[lvl][bin].Packet(h)
				}
			}
		}
		rest = rest[n:]
	}
	g.Finish()
	bins0 := 0
	for _, lvl := range levels {
		for _, bin := range bins {
			ref := refs[lvl][bin]
			ref.Finish()
			got := g.Tracker(lvl, bin)
			bins0 += ref.counts.N()
			for _, c := range []struct {
				name      string
				got, want *stats.Sample
			}{
				{"counts", got.Counts(), ref.counts},
				{"rates", got.Rates(), ref.rates},
				{"persistence", got.Persistence(), ref.persist},
				{"intersection", got.Intersection(), ref.intersect},
			} {
				if err := sameSample(c.got, c.want); err != nil {
					t.Fatalf("%s: (%v, %v) %s: %v", label, lvl, bin, c.name, err)
				}
			}
		}
	}
	return bins0
}

// TestHeavyGroupMatchesReference feeds generated mirror traces of every
// role and several seeds to the full group and to nine reference
// trackers, and compares every sample of every (level, bin) pair. Two
// smaller groups (the degraded arm's {flow, rack} × 1 ms, and rack
// alone with the middle bin skipped) and one stand-alone tracker per
// pair are checked against the same references.
func TestHeavyGroupMatchesReference(t *testing.T) {
	topo := tinyTopo(t)
	pick := services.NewPicker(topo)
	for _, role := range topology.Roles {
		host := topo.HostsByRole(role)[0]
		for _, seed := range []uint64{1, 7, 42} {
			var hs []packet.Header
			services.NewTrace(pick, host, seed, services.DefaultParams(),
				workload.CollectorFunc(func(h packet.Header) { hs = append(hs, h) })).Run(3 * netsim.Second)
			label := fmt.Sprintf("%v seed %d", role, seed)
			if n := checkAgainstReference(t, label, topo, host, Levels, hhBins, hs); n == 0 && role != topology.RoleHadoop {
				t.Fatalf("%s: no non-empty bins in %d headers", label, len(hs))
			}
			checkAgainstReference(t, label+" {flow,rack}", topo, host,
				[]Level{LevelFlow, LevelRack}, hhBins[:1], hs)
			checkAgainstReference(t, label+" {rack} 1/100ms", topo, host,
				[]Level{LevelRack}, []netsim.Time{netsim.Millisecond, 100 * netsim.Millisecond}, hs)
			if seed == 1 {
				for _, lvl := range Levels {
					for _, bin := range hhBins {
						checkAgainstReference(t, label+" single", topo, host, []Level{lvl}, []netsim.Time{bin}, hs)
					}
				}
			}
		}
	}
}

// TestHeavyGroupEdgeStream drives the fold through the cases a
// generated trace rarely hits: empty bins inside a second, gaps of whole
// seconds, a packet exactly on a second boundary, TCP and UDP keys that
// differ only in protocol, a destination outside the topology (rack 0),
// a zero-byte packet, inbound packets (ignored), and a last packet at
// the very end of a second.
func TestHeavyGroupEdgeStream(t *testing.T) {
	topo := tinyTopo(t)
	foreign := topology.HostID(topo.NumHosts() + 5) // not a topology address
	ms := int64(netsim.Millisecond)
	sec := int64(netsim.Second)
	var hs []packet.Header
	add := func(dst topology.HostID, at int64, size uint32, sport uint16, proto packet.Proto) {
		h := mk(topo, 0, dst, at, size, sport, 80, 0)
		h.Key.Proto = proto
		hs = append(hs, h)
	}
	add(1, 0, 900, 10, packet.TCP)
	add(1, 0, 900, 10, packet.UDP) // same 5-tuple, other protocol
	add(2, 3*ms, 400, 11, packet.TCP)
	add(foreign, 3*ms+1, 700, 12, packet.UDP)
	hs = append(hs, mk(topo, 2, 0, 4*ms, 1500, 80, 11, 0)) // inbound
	add(3, 4*ms, 0, 13, packet.TCP)                        // zero bytes
	add(2, 57*ms, 1200, 11, packet.TCP)                    // empty bins before
	add(1, 999*ms+999_999, 300, 10, packet.TCP)            // last ns of second 0
	add(1, sec, 800, 10, packet.TCP)                       // exactly on a boundary
	add(4, sec+ms, 800, 14, packet.UDP)
	add(foreign, 4*sec+250*ms, 100, 15, packet.TCP) // three empty seconds
	add(2, 4*sec+250*ms, 100, 11, packet.TCP)
	add(5, 4*sec+251*ms, 5000, 16, packet.TCP)
	add(5, 7*sec, 64, 16, packet.TCP)
	for i := int64(0); i < 40; i++ { // a busy stretch across bin edges
		add(topology.HostID(1+i%7), 7*sec+i*ms/3, uint32(64+i*37), uint16(20+i%5), packet.Proto(6+11*(i%2)))
	}
	if n := checkAgainstReference(t, "edge", topo, 0, Levels, hhBins, hs); n == 0 {
		t.Fatal("edge stream recorded no bins")
	}
	for _, lvl := range Levels {
		checkAgainstReference(t, "edge single", topo, 0, []Level{lvl}, hhBins[2:], hs)
	}
	checkAgainstReference(t, "edge {host,rack}", topo, 0, []Level{LevelHost, LevelRack}, hhBins, hs)

	// The foreign destination aggregates into rack 0 at rack level.
	g := NewHeavyGroup(topo, 0, []Level{LevelRack}, []netsim.Time{netsim.Second})
	g.Packet(mk(topo, 0, foreign, 0, 100, 1, 2, 0))
	g.Finish()
	if c := g.Tracker(LevelRack, netsim.Second).Counts(); c.N() != 1 || c.Quantile(0) != 1 {
		t.Fatalf("foreign destination: counts n=%d", c.N())
	}
}

// TestHeavyGroupBinsMustNest pins the constructor's nesting check.
func TestHeavyGroupBinsMustNest(t *testing.T) {
	topo := tinyTopo(t)
	ms := netsim.Millisecond
	for _, bins := range [][]netsim.Time{
		nil,
		{0},
		{-ms},
		{2 * ms, 5 * ms},                 // 2 does not divide 5
		{10 * ms, ms},                    // not increasing
		{ms, ms},                         // repeated
		{ms, 3 * ms},                     // 3 ms does not divide a second
		{ms, 10 * ms, 2 * netsim.Second}, // wider than a second
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bins %v accepted", bins)
				}
			}()
			NewHeavyGroup(topo, 0, Levels, bins)
		}()
	}
	for _, levels := range [][]Level{nil, {LevelFlow, LevelFlow}, {Level(7)}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("levels %v accepted", levels)
				}
			}()
			NewHeavyGroup(topo, 0, levels, hhBins)
		}()
	}
	// Nesting widths that are not the bundle's are fine.
	NewHeavyGroup(topo, 0, Levels, []netsim.Time{2 * ms, 20 * ms, 200 * ms, netsim.Second})
}

// TestHeavyGroupTrackerIsNotASink: a tracker of a multi-tracker group
// refuses packets, so a caller cannot count each packet once per tracker.
func TestHeavyGroupTrackerIsNotASink(t *testing.T) {
	topo := tinyTopo(t)
	g := NewHeavyGroup(topo, 0, Levels, hhBins)
	defer func() {
		if recover() == nil {
			t.Fatal("a shared tracker accepted a packet")
		}
	}()
	g.Tracker(LevelHost, 10*netsim.Millisecond).Packet(mk(topo, 0, 1, 0, 100, 1, 2, 0))
}
