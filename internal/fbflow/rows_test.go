package fbflow

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"fbdcnet/internal/openhash"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
)

// refRackPartial is the open-addressing rack-pair aggregate the rows
// replaced, kept as the oracle: one table keyed src<<32 | dst, filled
// with Slot in record order, and encoded as a table in insertion order.
type refRackPartial struct{ t openhash.Table[float64] }

func (r *refRackPartial) add(rec Record) { *r.t.Slot(packPair(rec.SrcRack, rec.DstRack)) += rec.Bytes }

// refRackDataset is the Dataset side of the same oracle: one table per
// source rack, keyed by destination rack, merged entry by entry in the
// partial's insertion order.
type refRackDataset struct{ rows []openhash.Table[float64] }

func (d *refRackDataset) merge(p *refRackPartial) {
	for i := 0; i < p.t.Len(); i++ {
		src, dst := unpackPair(p.t.Key(i))
		for src >= len(d.rows) {
			d.rows = append(d.rows, openhash.Table[float64]{})
		}
		*d.rows[src].Slot(uint64(dst)) += *p.t.Val(i)
	}
}

// refRow is one source rack's destinations in order, with their sums.
type refRow struct {
	dst []int32
	val []float64
}

// rowsBySource returns p's rack-pair rows keyed by source rack. A source
// rack may own one row only.
func rowsBySource(t *testing.T, p *Partial) map[int32]refRow {
	t.Helper()
	p.seal()
	out := map[int32]refRow{}
	for i := range p.rackPair.src {
		src, dst, val := p.rackPair.row(i)
		if _, ok := out[src]; ok {
			t.Fatalf("source rack %d owns two rows", src)
		}
		if len(dst) == 0 {
			t.Fatalf("source rack %d has an empty row", src)
		}
		out[src] = refRow{slices.Clone(dst), slices.Clone(val)}
	}
	return out
}

// tableBySource groups a packed-key table's entries by source rack, each
// group in insertion order.
func tableBySource(t *openhash.Table[float64]) map[int32]refRow {
	out := map[int32]refRow{}
	for i := 0; i < t.Len(); i++ {
		src, dst := unpackPair(t.Key(i))
		r := out[int32(src)]
		r.dst = append(r.dst, int32(dst))
		r.val = append(r.val, *t.Val(i))
		out[int32(src)] = r
	}
	return out
}

// keysBySource groups packed rack-pair keys by source rack, in order,
// as rows without sums.
func keysBySource(keys []uint64) map[int32]refRow {
	out := map[int32]refRow{}
	for _, k := range keys {
		src, dst := unpackPair(k)
		r := out[int32(src)]
		r.dst = append(r.dst, int32(dst))
		out[int32(src)] = r
	}
	return out
}

// datasetRows returns d's non-empty rack rows keyed by source rack.
func datasetRows(d *Dataset) map[int32]refRow {
	out := map[int32]refRow{}
	for src, row := range d.rackPair {
		if len(row.dst) > 0 {
			out[int32(src)] = refRow{row.dst, row.val}
		}
	}
	return out
}

// refDatasetRows returns the oracle dataset's rows the same way.
func refDatasetRows(d *refRackDataset) map[int32]refRow {
	out := map[int32]refRow{}
	for src := range d.rows {
		r := refRow{}
		d.rows[src].Range(func(k uint64, v *float64) {
			r.dst = append(r.dst, int32(k))
			r.val = append(r.val, *v)
		})
		if len(r.dst) > 0 {
			out[int32(src)] = r
		}
	}
	return out
}

// sameRows asserts got and want hold the same rows: the same source
// racks, destinations in the same order, and bit-identical sums (when
// want carries sums).
func sameRows(t *testing.T, what string, got, want map[int32]refRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for src, w := range want {
		g, ok := got[src]
		if !ok || !slices.Equal(g.dst, w.dst) {
			t.Fatalf("%s: source rack %d destinations %v (present %v), want %v", what, src, g.dst, ok, w.dst)
		}
		for j := range w.val {
			if !sameBits(g.val[j], w.val[j]) {
				t.Fatalf("%s: (%d,%d) = %v, want %v", what, src, w.dst[j], g.val[j], w.val[j])
			}
		}
	}
}

// rackPairSection returns the byte range of the rack-pair table in a
// Partial's wire form.
func rackPairSection(wire []byte) (lo, hi int) {
	lo = 2 + 8*(1+localityCells+numClusterTypes)
	return lo, lo + 4 + 16*int(binary.LittleEndian.Uint32(wire[lo:]))
}

// shardRecords is a producer-shaped stream of at most n records: hosts
// of one host range in ascending order (sampling mode) or the hosts of
// one rack range rack by rack (matrix mode), each emitting a few flows,
// so every source rack is one contiguous run. A fifth of the flows
// carry zero bytes; a third stay inside the source rack.
func shardRecords(tb testing.TB, topo *topology.Topology, r *rng.Source, n int, matrix bool) []Record {
	tb.Helper()
	tagger := NewTagger(topo)
	hosts := topo.NumHosts()
	recs := make([]Record, 0, n)
	emit := func(src topology.HostID) {
		dst := topology.HostID(r.Intn(hosts))
		if r.Intn(3) == 0 {
			rk := &topo.Racks[topo.HostRack(src)]
			dst = rk.FirstHost + topology.HostID(r.Intn(int(rk.NumHosts)))
		}
		bytes := 0.0
		if r.Intn(5) != 0 {
			bytes = 40 + r.Float64()*1e6
		}
		rec, ok := tagger.Flow(int64(r.Intn(3)), topo.Addr(src), topo.Addr(dst), bytes)
		if !ok {
			tb.Fatalf("tagger rejected in-topology flow %d -> %d", src, dst)
		}
		recs = append(recs, rec)
	}
	if matrix {
		for rack := r.Intn(len(topo.Racks) / 2); rack < len(topo.Racks) && len(recs) < n; rack++ {
			rk := &topo.Racks[rack]
			for k := 1 + r.Intn(40); k > 0 && len(recs) < n; k-- {
				emit(rk.FirstHost + topology.HostID(r.Intn(int(rk.NumHosts))))
			}
		}
	} else {
		for src := topology.HostID(r.Intn(hosts / 2)); int(src) < hosts && len(recs) < n; src++ {
			for k := r.Intn(7); k > 0 && len(recs) < n; k-- {
				emit(src)
			}
		}
	}
	// A producer's source racks are contiguous runs.
	runs, seen := 0, map[int32]bool{}
	for i, rec := range recs {
		if i == 0 || rec.SrcRack != recs[i-1].SrcRack {
			runs++
			seen[rec.SrcRack] = true
		}
	}
	if runs != len(seen) {
		tb.Fatalf("producer-shaped stream has %d source-rack runs over %d racks", runs, len(seen))
	}
	return recs
}

// zeroRecords is an interleaved stream whose records all carry zero
// bytes: every key must still be present, with a +0 sum.
func zeroRecords(tb testing.TB, topo *topology.Topology, r *rng.Source, n int) []Record {
	recs := randomRecords(tb, topo, r, n)
	for i := range recs {
		recs[i].Bytes = 0
	}
	return recs
}

// TestRowsMatchOpenhashReference: the rack-pair rows hold, per key, the
// bits the open-addressing table they replaced held, and merge into the
// same Dataset rows. One partial is reused through Reset across cells of
// every stream shape: producer-shaped (contiguous source racks, both
// collection modes), interleaved with recurring source racks, and
// all-zero. Interleaved cells are also encoded halfway through, so Add
// reopens sealed rows. On contiguous streams the rows encode to the
// reference encoder's bytes; every frame decodes to the same rows and
// merges to the same Dataset.
func TestRowsMatchOpenhashReference(t *testing.T) {
	for _, scale := range []topology.Scale{topology.ScaleTiny, topology.ScaleSmall} {
		topo := topology.MustBuild(topology.Preset(scale))
		r := rng.New(uint64(scale) + 41)
		p, q := NewPartial(), NewPartial()
		ds, wireDS, refDS := NewDataset(), NewDataset(), &refRackDataset{}
		for cell := 0; cell < 40; cell++ {
			kind := []string{"sampling shard", "matrix shard", "interleaved", "zero bytes"}[cell%4]
			n := 1 + r.Intn(3000)
			var recs []Record
			switch kind {
			case "sampling shard":
				recs = shardRecords(t, topo, r, n, false)
			case "matrix shard":
				recs = shardRecords(t, topo, r, n, true)
			case "interleaved":
				recs = randomRecords(t, topo, r, n)
			default:
				recs = zeroRecords(t, topo, r, n)
			}
			what := fmt.Sprintf("%v cell %d (%s, %d records)", scale, cell, kind, n)
			contiguous := kind == "sampling shard" || kind == "matrix shard"

			p.Reset()
			ref := &refRackPartial{}
			for i, rec := range recs {
				p.Add(rec)
				ref.add(rec)
				if !contiguous && i == n/2 {
					p.AppendBinary(nil) // seal mid-stream; later Adds reopen rows
				}
			}
			sameRows(t, what, rowsBySource(t, p), tableBySource(&ref.t))

			wire := p.AppendBinary(nil)
			lo, hi := rackPairSection(wire)
			if got, want := wire[lo:hi], appendTable(nil, &ref.t); contiguous && !bytes.Equal(got, want) {
				t.Fatalf("%s: rack-pair wire section differs from the reference encoder's", what)
			}
			if err := q.DecodeBinary(wire); err != nil {
				t.Fatalf("%s: decode: %v", what, err)
			}
			sameRows(t, what+" decoded", rowsBySource(t, q), tableBySource(&ref.t))
			if !bytes.Equal(q.AppendBinary(nil), wire) {
				t.Fatalf("%s: decoded partial re-encodes differently", what)
			}

			ds.MergePartial(p)
			wireDS.MergePartial(q)
			refDS.merge(ref)
			sameRows(t, what+" merged", datasetRows(ds), refDatasetRows(refDS))
		}
		sameRows(t, fmt.Sprintf("%v merged from the wire", scale), datasetRows(wireDS), refDatasetRows(refDS))
		var a, b bytes.Buffer
		if err := ds.Save(&a); err != nil {
			t.Fatal(err)
		}
		if err := wireDS.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%v: archive of the wire-merged dataset differs", scale)
		}
	}
}

// TestRowsScratchReturnsClean: a partial holds a scratch only while a
// row is open, and every path that lets go of it (seal, Reset, a decode
// that fails halfway) hands it back all zero.
func TestRowsScratchReturnsClean(t *testing.T) {
	topo := topology.MustBuild(topology.Preset(topology.ScaleSmall))
	r := rng.New(8)
	clean := func(what string, s *rowScratch) {
		t.Helper()
		for i, v := range s.v {
			if v != 0 {
				t.Fatalf("%s: scratch v[%d] = %v", what, i, v)
			}
		}
		for _, set := range [][]uint64{s.set, s.srcSet} {
			for i, w := range set {
				if w != 0 {
					t.Fatalf("%s: scratch bit word %d = %#x", what, i, w)
				}
			}
		}
	}
	p := NewPartial()
	for _, rec := range randomRecords(t, topo, r, 500) {
		p.Add(rec)
	}
	s := p.open
	if s == nil {
		t.Fatal("no scratch while a row is open")
	}
	p.seal()
	if p.open != nil {
		t.Fatal("sealed partial still holds its scratch")
	}
	clean("after seal", s)

	for _, rec := range randomRecords(t, topo, r, 500) {
		p.Add(rec)
	}
	s = p.open
	p.Reset()
	clean("after Reset", s)

	// A frame whose third row repeats a key fails after two rows closed
	// and one opened: the decoder must clear all of their bits.
	for _, rec := range shardRecords(t, topo, r, 600, true) {
		p.Add(rec)
	}
	wire := p.AppendBinary(nil)
	lo, _ := rackPairSection(wire)
	third := int(p.rackPair.end[1])
	if int(p.rackPair.end[2])-third < 2 {
		t.Fatal("third row too short to repeat a key in; the check is vacuous")
	}
	e := wire[lo+4:]
	copy(e[16*(third+1):16*(third+1)+8], e[16*third:16*third+8])
	// The free list is last in, first out: the decoder borrows s.
	s = getRowScratch()
	putRowScratch(s)
	if err := NewPartial().DecodeBinary(wire); err == nil {
		t.Fatal("repeated key decoded cleanly")
	}
	got := getRowScratch()
	putRowScratch(got)
	if got != s {
		t.Fatal("the free list handed the decoder another scratch")
	}
	clean("after a failed decode", s)
}
