package analysis

import (
	"fmt"
	"slices"

	"fbdcnet/internal/netsim"
	"fbdcnet/internal/openhash"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/stats"
	"fbdcnet/internal/topology"
)

// HeavyFrac is the paper's heavy-hitter definition (§5.3): the minimum
// set of flows (or hosts, or racks) responsible for this fraction of
// observed bytes in an interval.
const HeavyFrac = 0.5

// Levels lists the aggregation levels in order, finest first.
var Levels = []Level{LevelFlow, LevelHost, LevelRack}

// HeavyGroup is the exact heavy-hitter sink for one monitored host: it
// computes the windowed statistics of every tracked (aggregation level,
// bin width) pair from one pass over the outbound headers. Each of its
// trackers (see Tracker) reports per-bin set sizes and rates (Table 4),
// persistence into the following bin (Fig. 10), and the intersection of
// subinterval heavy hitters with the enclosing second's (Fig. 11).
//
// A packet costs one Src check and one table update, at flow level in
// the finest bin. Every other total is derived when a bin rolls: the
// finest bin's flow table is folded into its host table (host key
// k>>33, the packed Dst field) and that into its rack table, so the
// topology is consulted once per host per roll rather than once per
// packet; each level's table of bin i is then folded into the same
// level's table of bin i+1, or into the level's per-second table after
// the last bin. Byte totals are integer-valued float64 sums far below
// 2^53, so the fold order cannot change a value, and heavy sets sort by
// (bytes desc, key asc), a total order on distinct keys, so table
// iteration order cannot reach any statistic: every sample is
// bit-identical to a per-packet tracker per (level, bin) (DESIGN.md §8).
//
// Bins must nest: strictly increasing, each dividing the next, and the
// last dividing one second. Packets must arrive in non-decreasing time
// order. A steady-state roll reuses every table and buffer, so the
// packet path allocates nothing.
type HeavyGroup struct {
	topo  *topology.Topology
	addr  packet.Addr
	bins  []netsim.Time
	binNo []int64 // current bin index per width
	// start and width of the current finest bin: a packet with
	// uint64(t-start) >= width opens a new one.
	start, width int64

	// tabs[lvl][i] holds bin i's totals at one level, keyed by packed
	// flow key, Dst address or rack ID. Only kept tables are used: a
	// tracked level keeps every bin, and the finer levels a tracked level
	// derives from keep bin 0.
	tabs    [numLevels][]openhash.Table[float64]
	sec     [numLevels]openhash.Table[float64] // per-second totals of tracked levels
	tracked [numLevels]bool
	derive  Level                      // coarsest level derived at the finest bin's roll
	cells   [numLevels][]*HeavyHitters // per tracked level, one per bin
	order   []*HeavyHitters            // every tracker, in creation order
	secNo   int64

	// Reusable scratch: the (key, bytes) sort buffer and the sorted-set
	// buffers. With millisecond bins a trace rolls thousands of bins per
	// second of capture; none of these reallocate in steady state.
	scratch []hhItem
	setBuf  []uint64
	secBuf  []uint64
}

const numLevels = 3

// HeavyHitters is one (level, bin) tracker of a HeavyGroup: the exact
// implementation of HeavyTracker. NewHeavyHitters builds a group with
// this one tracker; HeavyGroup.Tracker returns the trackers of a larger
// group, which read results but are not fed (the group is the sink).
type HeavyHitters struct {
	heavyStats
	g     *HeavyGroup
	level Level
	i     int // bin index in g.bins
}

// NewHeavyGroup creates the exact sink tracking every (level, bin) pair
// of levels × bins at one monitored host. It panics when a level is
// repeated or unknown, or when the bins do not nest.
func NewHeavyGroup(topo *topology.Topology, host topology.HostID, levels []Level, bins []netsim.Time) *HeavyGroup {
	if len(levels) == 0 {
		panic("analysis: heavy-hitter group needs a level")
	}
	checkNestedBins(bins)
	g := &HeavyGroup{
		topo:  topo,
		addr:  topo.Addr(host),
		bins:  slices.Clone(bins),
		binNo: make([]int64, len(bins)),
		width: int64(bins[0]),
	}
	for _, lvl := range levels {
		if lvl < LevelFlow || lvl > LevelRack || g.tracked[lvl] {
			panic(fmt.Sprintf("analysis: heavy-hitter level %v repeated or unknown", lvl))
		}
		g.tracked[lvl] = true
		g.derive = max(g.derive, lvl)
		for i, bin := range bins {
			hh := &HeavyHitters{heavyStats: newHeavyStats(bin), g: g, level: lvl, i: i}
			g.cells[lvl] = append(g.cells[lvl], hh)
			g.order = append(g.order, hh)
		}
	}
	for lvl := LevelFlow; lvl <= g.derive; lvl++ {
		g.tabs[lvl] = make([]openhash.Table[float64], len(bins))
	}
	return g
}

// checkNestedBins panics unless bins is non-empty, strictly increasing,
// each width divides the next, and the last divides one second.
func checkNestedBins(bins []netsim.Time) {
	if len(bins) == 0 {
		panic("analysis: heavy-hitter group needs a bin width")
	}
	for i, b := range bins {
		next := netsim.Second
		if i+1 < len(bins) {
			next = bins[i+1]
		}
		if b <= 0 {
			panic("analysis: heavy-hitter bin width must be positive")
		}
		if next <= b && i+1 < len(bins) || next%b != 0 {
			panic(fmt.Sprintf("analysis: heavy-hitter bins %v do not nest: %v does not divide %v", bins, b, next))
		}
	}
}

// NewHeavyHitters creates a tracker at one level and bin width: a
// HeavyGroup of one tracker, fed through the tracker itself. The bin
// width must divide one second.
func NewHeavyHitters(topo *topology.Topology, host topology.HostID, level Level, bin netsim.Time) *HeavyHitters {
	return NewHeavyGroup(topo, host, []Level{level}, []netsim.Time{bin}).cells[level][0]
}

// Tracker returns the group's tracker for one (level, bin) pair; it
// panics when the pair is not tracked.
func (g *HeavyGroup) Tracker(level Level, bin netsim.Time) *HeavyHitters {
	if i := slices.Index(g.bins, bin); i >= 0 && level >= LevelFlow && level <= LevelRack && g.tracked[level] {
		return g.cells[level][i]
	}
	panic(fmt.Sprintf("analysis: heavy-hitter group does not track (%v, %v)", level, bin))
}

// Packet implements the collector interface.
func (g *HeavyGroup) Packet(h packet.Header) { g.add(&h) }

// Packets implements the batch collector interface.
func (g *HeavyGroup) Packets(hs []packet.Header) {
	for i := range hs {
		g.add(&hs[i])
	}
}

// add counts one header: outbound bytes into the finest bin's flow
// table, after rolling the bins the header's time leaves.
func (g *HeavyGroup) add(h *packet.Header) {
	if h.Key.Src != g.addr {
		return
	}
	if uint64(h.Time-g.start) >= uint64(g.width) {
		g.roll(h.Time)
	}
	*g.tabs[LevelFlow][0].Slot(packHostFlowKey(h.Key)) += float64(h.Size)
}

// roll closes every bin that a packet at time t leaves, finest first,
// and then the second if t starts a new one. Because the bins nest, the
// first width whose index does not change ends the cascade, and a new
// second implies the last bin rolled before it.
func (g *HeavyGroup) roll(t int64) {
	for i, b := range g.bins {
		n := t / int64(b)
		if n == g.binNo[i] {
			break
		}
		g.rollBin(i, n)
	}
	g.start = g.binNo[0] * g.width
	if s := t / int64(netsim.Second); s != g.secNo {
		g.rollSecond(s)
	}
}

// kept reports whether the group keeps a table for lvl at bin i.
func (g *HeavyGroup) kept(lvl Level, i int) bool {
	return g.tracked[lvl] || i == 0 && lvl <= g.derive
}

// rollBin closes bin i: at the finest bin it derives the coarser levels'
// tables from the flow table; then for each kept level it records the
// tracker's statistics, folds the table into the next bin's (or the
// second's) and empties it.
func (g *HeavyGroup) rollBin(i int, next int64) {
	tabs := &g.tabs
	if i == 0 && tabs[LevelFlow][0].Len() > 0 {
		if g.derive >= LevelHost {
			flow, host := &tabs[LevelFlow][0], &tabs[LevelHost][0]
			for j, n := 0, flow.Len(); j < n; j++ {
				*host.Slot(flow.Key(j) >> 33) += *flow.Val(j)
			}
		}
		if g.derive == LevelRack {
			host, rack := &tabs[LevelHost][0], &tabs[LevelRack][0]
			for j, n := 0, host.Len(); j < n; j++ {
				r := 0
				if d, ok := g.topo.HostByAddr(packet.Addr(host.Key(j))); ok {
					r = g.topo.HostRack(d)
				}
				*rack.Slot(uint64(r)) += *host.Val(j)
			}
		}
	}
	for lvl := LevelFlow; lvl <= LevelRack; lvl++ {
		if !g.kept(lvl, i) {
			continue
		}
		t := &tabs[lvl][i]
		if t.Len() == 0 {
			continue
		}
		if g.tracked[lvl] {
			hh := g.cells[lvl][i]
			heavy := g.heavyPrefix(t)
			g.setBuf = sortedKeys(heavy, g.setBuf)
			hh.addBin(g.binNo[i], heavy, g.setBuf)
			into := &g.sec[lvl]
			if i+1 < len(g.bins) {
				into = &tabs[lvl][i+1]
			}
			for j, n := 0, t.Len(); j < n; j++ {
				*into.Slot(t.Key(j)) += *t.Val(j)
			}
		}
		// Reset keeps the slot arrays, so steady state rolls bins
		// without reallocating.
		t.Reset()
	}
	g.binNo[i] = next
}

// rollSecond closes the second: each tracked level's heavy set over the
// second is computed once and every bin's stored subinterval sets are
// intersected with it.
func (g *HeavyGroup) rollSecond(next int64) {
	for lvl := LevelFlow; lvl <= LevelRack; lvl++ {
		if !g.tracked[lvl] {
			continue
		}
		sec := &g.sec[lvl]
		var set []uint64
		if sec.Len() > 0 {
			g.secBuf = sortedKeys(g.heavyPrefix(sec), g.secBuf)
			set = g.secBuf
		}
		for _, hh := range g.cells[lvl] {
			hh.addSecond(set)
		}
		sec.Reset()
	}
	g.secNo = next
}

// heavyPrefix loads the table's entries into g.scratch and returns its
// heavy set (see heavySet).
func (g *HeavyGroup) heavyPrefix(t *openhash.Table[float64]) []hhItem {
	items := g.scratch[:0]
	total := 0.0
	for i, n := 0, t.Len(); i < n; i++ {
		v := *t.Val(i)
		items = append(items, hhItem{t.Key(i), v})
		total += v
	}
	g.scratch = items
	return heavySet(items, total)
}

// Finish flushes every open bin and then the open second. Call once,
// after the trace ends; further calls record nothing.
func (g *HeavyGroup) Finish() {
	for i := range g.bins {
		g.rollBin(i, g.binNo[i]+1)
	}
	g.start = g.binNo[0] * g.width
	g.rollSecond(g.secNo + 1)
}

// Packet feeds a single-tracker group through its tracker. A tracker
// that shares its group with others is not a sink: it panics, so a
// caller cannot count a packet once per tracker.
func (hh *HeavyHitters) Packet(h packet.Header) {
	hh.solo()
	hh.g.Packet(h)
}

// Packets implements the batch collector interface; see Packet.
func (hh *HeavyHitters) Packets(hs []packet.Header) {
	hh.solo()
	hh.g.Packets(hs)
}

func (hh *HeavyHitters) solo() {
	if len(hh.g.order) != 1 {
		panic("analysis: feed the HeavyGroup, not one of its trackers")
	}
}

// Finish finishes the tracker's group (idempotent, so finishing every
// tracker of a group is the same as finishing the group once).
func (hh *HeavyHitters) Finish() { hh.g.Finish() }

// MemoryBytes estimates the tracker's share of its group's table state:
// 16 bytes per open-addressing slot (packed key + float64) of the tables
// TableStats reports, growing with the key population. The group's
// first tracker also carries the finest-bin tables kept only to derive
// a coarser level, and the extraction scratch, so a group's trackers sum
// to its footprint. The persistence bookkeeping is excluded, as in the
// sketch tracker.
func (hh *HeavyHitters) MemoryBytes() int {
	n := 0
	for _, ts := range hh.TableStats() {
		n += 16 * ts.Cap
	}
	if g := hh.g; hh == g.order[0] {
		for lvl := LevelFlow; lvl <= g.derive; lvl++ {
			if !g.tracked[lvl] {
				n += 16 * g.tabs[lvl][0].Cap()
			}
		}
		n += 16 * cap(g.scratch)
	}
	return n
}

// hhItem is one (aggregate, bytes) pair during heavy-set extraction.
type hhItem struct {
	k uint64
	v float64
}

// heavySet returns the heavy set of items: the minimum prefix of the
// order (bytes descending, packed key ascending — the struct-field
// tie-break of the unpacked keys) covering HeavyFrac of total, in that
// order. It heapifies items and pops the prefix, O(n + m log n) rather
// than a full sort; the order is total on distinct keys, so the pops
// come out exactly as a sort would put them. The set is a slice of
// items, whose order it rearranges.
func heavySet(items []hhItem, total float64) []hhItem {
	n := len(items)
	for i := n/2 - 1; i >= 0; i-- {
		siftDownHH(items[:n], i)
	}
	// Each pop swaps the root behind the shrinking heap, so the set
	// collects at the tail, heaviest last.
	acc, end := 0.0, n
	for end > 0 {
		end--
		items[0], items[end] = items[end], items[0]
		siftDownHH(items[:end], 0)
		acc += items[end].v
		if acc >= HeavyFrac*total {
			break
		}
	}
	heavy := items[end:]
	slices.Reverse(heavy)
	return heavy
}

// heavier is the heavy-set order: bytes descending, key ascending.
func heavier(a, b hhItem) bool {
	return a.v > b.v || a.v == b.v && a.k < b.k
}

// siftDownHH restores the max-heap property (by heavier) below i.
func siftDownHH(h []hhItem, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && heavier(h[c+1], h[c]) {
			c++
		}
		if !heavier(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// sortedKeys copies the items' keys into buf and sorts them ascending,
// for merge-walk intersections.
func sortedKeys(items []hhItem, buf []uint64) []uint64 {
	buf = buf[:0]
	for _, it := range items {
		buf = append(buf, it.k)
	}
	slices.Sort(buf)
	return buf
}

// heavyStats is the per-(level, bin) bookkeeping the exact and sketch
// trackers share: the four output samples, the previous bin's heavy set
// for persistence, and the current second's subinterval sets for the
// intersection metric.
type heavyStats struct {
	bin      netsim.Time
	prev     []uint64 // previous bin's heavy set, sorted ascending
	prevOK   bool
	prevNo   int64    // bin index of prev
	subArena []uint64 // concatenated per-bin heavy sets of this second
	subEnds  []int    // prefix end offsets into subArena, one per bin

	counts    *stats.Sample // |HH| per bin
	rates     *stats.Sample // per-member rate, Mbps
	persist   *stats.Sample // |HH_t ∩ HH_t+1| / |HH_t| per consecutive pair
	intersect *stats.Sample // |HH_sub ∩ HH_sec| / |HH_sub| per subinterval
}

func newHeavyStats(bin netsim.Time) heavyStats {
	return heavyStats{
		bin:       bin,
		counts:    stats.NewSample(0),
		rates:     stats.NewSample(0),
		persist:   stats.NewSample(0),
		intersect: stats.NewSample(0),
	}
}

// addBin records one non-empty bin: its heavy set heavy (bytes order)
// and set (the same keys ascending). It adds the Table 4 statistics and
// the persistence fraction versus the previous bin, and stashes the set
// for the enclosing-second intersection.
func (s *heavyStats) addBin(binNo int64, heavy []hhItem, set []uint64) {
	s.counts.Add(float64(len(heavy)))
	binSec := float64(s.bin) / float64(netsim.Second)
	for _, it := range heavy {
		s.rates.Add(it.v * 8 / binSec / 1e6) // Mbps
	}
	if s.prevOK && s.prevNo == binNo-1 {
		s.persist.Add(overlapSorted(s.prev, set))
	}
	s.prev = append(s.prev[:0], set...)
	s.prevOK, s.prevNo = true, binNo
	s.subArena = append(s.subArena, set...)
	s.subEnds = append(s.subEnds, len(s.subArena))
}

// addSecond intersects every subinterval set stored since the last call
// with the enclosing second's heavy set (sorted ascending; nil when the
// second carried no traffic) and clears them.
func (s *heavyStats) addSecond(sec []uint64) {
	if sec != nil {
		start := 0
		for _, end := range s.subEnds {
			sub := s.subArena[start:end]
			start = end
			if len(sub) > 0 {
				s.intersect.Add(overlapSorted(sub, sec))
			}
		}
	}
	s.subArena = s.subArena[:0]
	s.subEnds = s.subEnds[:0]
}

// overlapSorted returns |a ∩ b| / |a| as a percentage; a and b must be
// sorted ascending.
func overlapSorted(a, b []uint64) float64 {
	if len(a) == 0 {
		return 0
	}
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return 100 * float64(n) / float64(len(a))
}

// Counts returns the per-bin heavy-hitter set sizes (Table 4 "Number").
func (s *heavyStats) Counts() *stats.Sample { return s.counts }

// Rates returns the per-member rates in Mbps (Table 4 "Size").
func (s *heavyStats) Rates() *stats.Sample { return s.rates }

// Persistence returns the distribution of the fraction (in percent) of a
// bin's heavy hitters that remain heavy in the next bin (Fig. 10).
func (s *heavyStats) Persistence() *stats.Sample { return s.persist }

// Intersection returns the distribution of the fraction (in percent) of a
// subinterval's heavy hitters that are also heavy over the enclosing
// second (Fig. 11).
func (s *heavyStats) Intersection() *stats.Sample { return s.intersect }
