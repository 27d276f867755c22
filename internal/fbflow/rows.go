package fbflow

import "sync"

// The rack-pair aggregate (the Figure 5a/5b matrices) is held as rows
// from Partial.Add to the Dataset: one row per source rack, holding its
// destination racks in first-touch order and the bytes sent to each. A
// cell's records arrive grouped by source (a shard spans one host or rack
// range), so a row is built in one run and no rack pair is ever hashed.
//
// Bit-identity: a row entry receives exactly the additions an
// open-addressing slot keyed by (src, dst) would, in the same order, so
// every per-key sum matches the map-shaped reference (see the row oracle
// tests).

// rackRows is a Partial's rack-pair aggregate: closed rows over shared
// flat arrays, plus the open row's destinations at the tail of dst.
// Row i spans dst[end[i-1]:end[i]] and val[end[i-1]:end[i]] (end[-1] is
// 0). Rows appear in the order they were last closed, which is
// first-touch order on a contiguous stream.
type rackRows struct {
	src []int32 // source rack of each closed row
	end []int32
	dst []int32 // destinations; the open row's follow the closed rows'
	val []float64
}

// row returns closed row i: its source rack, destinations and sums.
func (r *rackRows) row(i int) (src int32, dst []int32, val []float64) {
	lo := int32(0)
	if i > 0 {
		lo = r.end[i-1]
	}
	hi := r.end[i]
	return r.src[i], r.dst[lo:hi], r.val[lo:hi]
}

func (r *rackRows) reset() {
	r.src, r.end, r.dst, r.val = r.src[:0], r.end[:0], r.dst[:0], r.val[:0]
}

// rowScratch is the dense destination vector a row is built in: the
// running sum per destination rack and a presence bit, so a zero-byte
// record still makes its entry. srcSet marks the source racks a decoded
// frame has opened. A scratch is borrowed (getRowScratch) only while a
// row is open or a frame decodes, and goes back clean (all zeros), so
// the partials parked at a merge frontier or decoded off the wire hold
// none.
type rowScratch struct {
	v           []float64
	set, srcSet []uint64
}

// rowScratches is the free list of scratches. Unlike a sync.Pool it
// survives garbage collection, so a busy collector never reallocates a
// scratch; it holds at most as many as were ever borrowed at once (one
// per worker filling or decoding a cell).
var rowScratches struct {
	sync.Mutex
	free []*rowScratch
}

// getRowScratch borrows a clean scratch, allocating one sized for every
// rack ID below the Load cap when the free list is empty.
func getRowScratch() *rowScratch {
	rowScratches.Lock()
	defer rowScratches.Unlock()
	if n := len(rowScratches.free); n > 0 {
		s := rowScratches.free[n-1]
		rowScratches.free = rowScratches.free[:n-1]
		return s
	}
	return &rowScratch{
		v:      make([]float64, maxArchiveRacks),
		set:    make([]uint64, maxArchiveRacks/64),
		srcSet: make([]uint64, maxArchiveRacks/64),
	}
}

// putRowScratch returns a clean scratch to the free list.
func putRowScratch(s *rowScratch) {
	rowScratches.Lock()
	rowScratches.free = append(rowScratches.free, s)
	rowScratches.Unlock()
}

// fit grows the scratch to cover destination rack d (a topology larger
// than the Load cap; no preset reaches it).
func (s *rowScratch) fit(d int32) {
	if int(d) < len(s.v) {
		return
	}
	n := max(int(d)+1, 2*len(s.v))
	v := make([]float64, n)
	copy(v, s.v)
	set := make([]uint64, (n+63)/64)
	copy(set, s.set)
	s.v, s.set = v, set
}

// addRackPair is Add's rack-pair step: the bytes go to the open row's
// dense slot for dst, opening src's row first when another row is open.
func (p *Partial) addRackPair(src, dst int32, b float64) {
	if p.open == nil || src != p.openSrc {
		p.openRow(src)
	}
	s, rows := p.open, &p.rackPair
	s.fit(dst)
	if w, bit := &s.set[dst>>6], uint64(1)<<(dst&63); *w&bit == 0 {
		*w |= bit
		rows.dst = append(rows.dst, dst)
	}
	s.v[dst] += b
}

// openRow closes the open row (borrowing a scratch when none is open)
// and opens src's. On interleaved input src may already have a closed
// row: it is reopened by scattering its sums back into the scratch and
// moving its destinations to the tail, so its first-touch order holds.
func (p *Partial) openRow(src int32) {
	if p.open == nil {
		p.open = getRowScratch()
	} else {
		p.closeRow()
	}
	p.openSrc = src
	rows := &p.rackPair
	i := len(rows.src) - 1
	for i >= 0 && rows.src[i] != src {
		i--
	}
	if i < 0 {
		return
	}
	s := p.open
	_, dst, val := rows.row(i)
	for j, d := range dst {
		s.fit(d)
		s.v[d] = val[j]
		s.set[d>>6] |= 1 << (d & 63)
	}
	// Cut row i out of the closed rows; its destinations become the open
	// tail.
	n := len(dst)
	lo := int(rows.end[i]) - n
	rows.dst = append(rows.dst, dst...)
	copy(rows.dst[lo:], rows.dst[lo+n:])
	rows.dst = rows.dst[:len(rows.dst)-n]
	rows.val = append(rows.val[:lo], rows.val[lo+n:]...)
	rows.src = append(rows.src[:i], rows.src[i+1:]...)
	rows.end = append(rows.end[:i], rows.end[i+1:]...)
	for j := i; j < len(rows.end); j++ {
		rows.end[j] -= int32(n)
	}
}

// closeRow copies the open row's sums out of the scratch in its
// first-touch order and clears the scratch.
func (p *Partial) closeRow() {
	s, rows := p.open, &p.rackPair
	for _, d := range rows.dst[len(rows.val):] {
		rows.val = append(rows.val, s.v[d])
		s.v[d] = 0
		s.set[d>>6] = 0 // every bit set in the scratch is the open row's
	}
	rows.src = append(rows.src, p.openSrc)
	rows.end = append(rows.end, int32(len(rows.val)))
}

// seal closes the open row and returns its scratch to the free list. Every
// reader of the rows (merge, encode, CheckIDs) seals first; Add after a
// seal reopens rows as needed.
func (p *Partial) seal() {
	if p.open != nil {
		p.closeRow()
		putRowScratch(p.open)
		p.open = nil
	}
}

// rackRow is one Dataset row: a source rack's destination racks in
// first-touch order and the bytes sent to each.
type rackRow struct {
	dst []int32
	val []float64
}

// rackRow returns src's row, growing the row index.
func (d *Dataset) rackRow(src int) *rackRow {
	if src >= len(d.rackPair) {
		rows := make([]rackRow, max(src+1, 2*len(d.rackPair), 64))
		copy(rows, d.rackPair)
		d.rackPair = rows
	}
	return &d.rackPair[src]
}

// mergeRow adds one partial row into src's row. A first-touch row is
// copied at its exact size. Otherwise the existing row's destinations are
// indexed in d.pos, which must cover every destination of both rows, and
// the partial's entries add key by key in their order, new destinations
// appended: the per-key addition sequence of a table keyed by (src, dst).
func (d *Dataset) mergeRow(src int, dst []int32, val []float64) {
	row := d.rackRow(src)
	if len(row.dst) == 0 {
		row.dst = append(make([]int32, 0, len(dst)), dst...)
		row.val = append(make([]float64, 0, len(val)), val...)
		return
	}
	pos := d.pos
	for j, k := range row.dst {
		pos[k] = int32(j) + 1
	}
	for i, k := range dst {
		if j := pos[k]; j != 0 {
			row.val[j-1] += val[i]
			continue
		}
		row.dst = append(row.dst, k)
		row.val = append(row.val, val[i])
		pos[k] = int32(len(row.dst))
	}
	for _, k := range row.dst {
		pos[k] = 0
	}
}

// fitPos grows d.pos to cover destination racks below n.
func (d *Dataset) fitPos(n int) {
	if n > len(d.pos) {
		pos := make([]int32, max(n, 2*len(d.pos)))
		d.pos = pos // all zero: pos is clear between merges
	}
}
