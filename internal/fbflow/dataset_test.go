package fbflow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"fbdcnet/internal/openhash"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
)

// refDataset is the map-based Dataset the columnar layout replaced, kept
// verbatim in behaviour as the oracle: one Go map per aggregate, folded
// by record (add) or by partial (mergePartial) in the same per-key order.
type refDataset struct {
	totalBytes    float64
	locality      map[topology.ClusterType]map[topology.Locality]float64
	byClusterType map[topology.ClusterType]float64
	rackPair      map[[2]int]float64
	clusterPair   map[[2]int]float64
	perMinute     map[int64]float64
	hostOut       map[topology.HostID]float64
	rackCross     map[int]float64
	clusterCross  map[int]float64
}

func newRefDataset() *refDataset {
	return &refDataset{
		locality:      make(map[topology.ClusterType]map[topology.Locality]float64),
		byClusterType: make(map[topology.ClusterType]float64),
		rackPair:      make(map[[2]int]float64),
		clusterPair:   make(map[[2]int]float64),
		perMinute:     make(map[int64]float64),
		hostOut:       make(map[topology.HostID]float64),
		rackCross:     make(map[int]float64),
		clusterCross:  make(map[int]float64),
	}
}

func (d *refDataset) add(r Record) {
	d.totalBytes += r.Bytes
	loc := d.locality[r.SrcClusterType]
	if loc == nil {
		loc = make(map[topology.Locality]float64)
		d.locality[r.SrcClusterType] = loc
	}
	loc[r.Locality] += r.Bytes
	d.byClusterType[r.SrcClusterType] += r.Bytes
	d.rackPair[[2]int{int(r.SrcRack), int(r.DstRack)}] += r.Bytes
	d.clusterPair[[2]int{int(r.SrcCluster), int(r.DstCluster)}] += r.Bytes
	d.perMinute[r.Minute] += r.Bytes
	d.hostOut[r.Src] += r.Bytes
	if r.Locality != topology.SameHost && r.Locality != topology.IntraRack {
		d.rackCross[int(r.SrcRack)] += r.Bytes
		if r.Locality != topology.IntraCluster {
			d.clusterCross[int(r.SrcCluster)] += r.Bytes
		}
	}
}

func (d *refDataset) mergePartial(p *Partial) {
	d.totalBytes += p.totalBytes
	for ct := range p.locality {
		for l, b := range p.locality[ct] {
			if b == 0 {
				continue
			}
			loc := d.locality[topology.ClusterType(ct)]
			if loc == nil {
				loc = make(map[topology.Locality]float64)
				d.locality[topology.ClusterType(ct)] = loc
			}
			loc[topology.Locality(l)] += b
		}
	}
	for ct, b := range p.byClusterType {
		if b != 0 {
			d.byClusterType[topology.ClusterType(ct)] += b
		}
	}
	p.seal()
	for i := range p.rackPair.src {
		src, dst, val := p.rackPair.row(i)
		for j, k := range dst {
			d.rackPair[[2]int{int(src), int(k)}] += val[j]
		}
	}
	p.clusterPair.Range(func(k uint64, v *float64) {
		d.clusterPair[[2]int{int(int32(k >> 32)), int(int32(uint32(k)))}] += *v
	})
	p.perMinute.Range(func(k uint64, v *float64) { d.perMinute[int64(k)] += *v })
	p.hostOut.Range(func(k uint64, v *float64) { d.hostOut[topology.HostID(k)] += *v })
	p.rackCross.Range(func(k uint64, v *float64) { d.rackCross[int(k)] += *v })
	p.clusterCross.Range(func(k uint64, v *float64) { d.clusterCross[int(k)] += *v })
}

func (d *refDataset) localityShare(ct topology.ClusterType) map[topology.Locality]float64 {
	out := make(map[topology.Locality]float64)
	total := d.byClusterType[ct]
	if total == 0 {
		return out
	}
	for l, b := range d.locality[ct] {
		out[l] = b / total
	}
	return out
}

func (d *refDataset) localityShareAll() map[topology.Locality]float64 {
	out := make(map[topology.Locality]float64)
	if d.totalBytes == 0 {
		return out
	}
	for _, ct := range topology.ClusterTypes {
		for l, b := range d.locality[ct] {
			out[l] += b / d.totalBytes
		}
	}
	return out
}

func (d *refDataset) trafficShare() map[topology.ClusterType]float64 {
	out := make(map[topology.ClusterType]float64)
	if d.totalBytes == 0 {
		return out
	}
	for ct, b := range d.byClusterType {
		out[ct] = b / d.totalBytes
	}
	return out
}

func (d *refDataset) rackMatrix(topo *topology.Topology, cluster int) [][]float64 {
	racks := topo.Clusters[cluster].Racks
	pos := make(map[int]int, len(racks))
	for i, r := range racks {
		pos[r] = i
	}
	m := make([][]float64, len(racks))
	for i := range m {
		m[i] = make([]float64, len(racks))
	}
	for pair, b := range d.rackPair {
		si, ok1 := pos[pair[0]]
		di, ok2 := pos[pair[1]]
		if ok1 && ok2 {
			m[si][di] += b
		}
	}
	return m
}

func (d *refDataset) clusterMatrix(clusters []int) [][]float64 {
	pos := make(map[int]int, len(clusters))
	for i, c := range clusters {
		pos[c] = i
	}
	m := make([][]float64, len(clusters))
	for i := range m {
		m[i] = make([]float64, len(clusters))
	}
	for pair, b := range d.clusterPair {
		si, ok1 := pos[pair[0]]
		di, ok2 := pos[pair[1]]
		if ok1 && ok2 {
			m[si][di] += b
		}
	}
	return m
}

func (d *refDataset) save(t *testing.T) []byte {
	t.Helper()
	doc := storeDoc{
		Version:      storeVersion,
		TotalBytes:   d.totalBytes,
		Locality:     map[string]float64{},
		ByCluster:    map[string]float64{},
		RackPair:     map[string]float64{},
		ClusterPair:  map[string]float64{},
		PerMinute:    map[string]float64{},
		HostOut:      map[string]float64{},
		RackCross:    map[string]float64{},
		ClusterCross: map[string]float64{},
	}
	for ct, locs := range d.locality {
		for l, v := range locs {
			doc.Locality[fmt.Sprintf("%d,%d", int(ct), int(l))] = v
		}
	}
	for ct, v := range d.byClusterType {
		doc.ByCluster[fmt.Sprintf("%d", int(ct))] = v
	}
	for p, v := range d.rackPair {
		doc.RackPair[fmt.Sprintf("%d,%d", p[0], p[1])] = v
	}
	for p, v := range d.clusterPair {
		doc.ClusterPair[fmt.Sprintf("%d,%d", p[0], p[1])] = v
	}
	for m, v := range d.perMinute {
		doc.PerMinute[fmt.Sprintf("%d", m)] = v
	}
	for h, v := range d.hostOut {
		doc.HostOut[fmt.Sprintf("%d", h)] = v
	}
	for r, v := range d.rackCross {
		doc.RackCross[fmt.Sprintf("%d", r)] = v
	}
	for c, v := range d.clusterCross {
		doc.ClusterCross[fmt.Sprintf("%d", c)] = v
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// randomRecords tags n pseudo-random flows over topo. A fifth of them
// carry zero bytes, and sources come from a few hosts so the same keys
// recur across partials.
func randomRecords(tb testing.TB, topo *topology.Topology, r *rng.Source, n int) []Record {
	tb.Helper()
	tagger := NewTagger(topo)
	hosts := topo.NumHosts()
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		src := topology.HostID(r.Intn(hosts))
		if r.Intn(2) == 0 {
			src = topology.HostID(r.Intn(8))
		}
		dst := topology.HostID(r.Intn(hosts))
		bytes := 0.0
		if r.Intn(5) != 0 {
			bytes = 40 + r.Float64()*1e6
		}
		rec, ok := tagger.Flow(int64(r.Intn(6)), topo.Addr(src), topo.Addr(dst), bytes)
		if !ok {
			tb.Fatalf("tagger rejected in-topology flow %d", i)
		}
		recs = append(recs, rec)
	}
	return recs
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameMap[K comparable](t *testing.T, what string, got, want map[K]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d (%v vs %v)", what, len(got), len(want), got, want)
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || !sameBits(g, w) {
			t.Fatalf("%s[%v] = %v (present %v), want %v", what, k, g, ok, w)
		}
	}
}

func sameMatrix(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: %d cols, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameBits(got[i][j], want[i][j]) {
				t.Fatalf("%s[%d][%d] = %v, want %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// present counts the IDs an IDVec holds.
func present(x *IDVec) int {
	n := 0
	x.forEach(func(int, float64) { n++ })
	return n
}

func sameIDVec[K ~int | ~int32](t *testing.T, what string, got IDVec, want map[K]float64, ids int) {
	t.Helper()
	if n := present(&got); n != len(want) {
		t.Fatalf("%s: %d present IDs, want %d", what, n, len(want))
	}
	for id := -1; id <= ids; id++ {
		g, gok := got.At(id)
		w, wok := want[K(id)]
		if gok != wok || !sameBits(g, w) {
			t.Fatalf("%s[%d] = %v (present %v), want %v (present %v)", what, id, g, gok, w, wok)
		}
	}
}

// sameAsReference asserts that every accessor of ds, and its archive,
// agree with the map-based oracle bit for bit, key presence included.
func sameAsReference(t *testing.T, topo *topology.Topology, ds *Dataset, ref *refDataset) {
	t.Helper()
	if !sameBits(ds.TotalBytes(), ref.totalBytes) {
		t.Fatalf("total %v, want %v", ds.TotalBytes(), ref.totalBytes)
	}
	for _, ct := range topology.ClusterTypes {
		sameMap(t, "LocalityShare("+ct.String()+")", ds.LocalityShare(ct), ref.localityShare(ct))
	}
	sameMap(t, "LocalityShareAll", ds.LocalityShareAll(), ref.localityShareAll())
	sameMap(t, "TrafficShare", ds.TrafficShare(), ref.trafficShare())
	for c := range topo.Clusters {
		sameMatrix(t, fmt.Sprintf("RackMatrix(%d)", c), ds.RackMatrix(topo, c), ref.rackMatrix(topo, c))
	}
	all := make([]int, len(topo.Clusters))
	for c := range all {
		all[c] = c
	}
	sameMatrix(t, "ClusterMatrix", ds.ClusterMatrix(all), ref.clusterMatrix(all))
	sameMap(t, "PerMinute", ds.PerMinute(), ref.perMinute)
	sameIDVec(t, "HostOut", ds.HostOut(), ref.hostOut, topo.NumHosts())
	sameIDVec(t, "RackCross", ds.RackCross(), ref.rackCross, len(topo.Racks))
	sameIDVec(t, "ClusterCross", ds.ClusterCross(), ref.clusterCross, len(topo.Clusters))
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if want := ref.save(t); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Save differs from the map-based archive:\n got %.300s\nwant %.300s", buf.Bytes(), want)
	}
}

// TestDatasetMatchesMapReference merges random partials — zero-byte
// records, keys recurring across partials, cardinality on — in task
// order into the columnar Dataset and into the map-based oracle. The two
// must agree on every accessor and archive.
func TestDatasetMatchesMapReference(t *testing.T) {
	for _, scale := range []topology.Scale{topology.ScaleTiny, topology.ScaleSmall} {
		topo := topology.MustBuild(topology.Preset(scale))
		r := rng.New(uint64(scale) + 17)
		merged, mergedRef := NewDataset(), newRefDataset()
		p := NewPartial()
		p.EnableCardinality()
		card := NewCardinality()
		for cell := 0; cell < 24; cell++ {
			p.Reset()
			for _, rec := range randomRecords(t, topo, r, 1+r.Intn(400)) {
				p.Add(rec)
				card.Add(rec)
			}
			merged.MergePartial(p)
			mergedRef.mergePartial(p)
		}
		sameAsReference(t, topo, merged, mergedRef)
		if got, want := merged.Cardinality().Flows(), card.Flows(); !sameBits(got, want) {
			t.Fatalf("merged cardinality %v, want %v", got, want)
		}
	}
}

// TestDatasetRemergeAllocs pins the frontier's steady state: merging a
// partial whose keys the dataset already holds allocates nothing, and a
// partial's new rack rows are copied at their exact size, never regrown.
func TestDatasetRemergeAllocs(t *testing.T) {
	topo := topology.MustBuild(topology.Preset(topology.ScaleSmall))
	p := NewPartial()
	p.EnableCardinality()
	for _, rec := range randomRecords(t, topo, rng.New(5), 5000) {
		p.Add(rec)
	}
	ds := NewDataset()
	ds.MergePartial(p)
	rows := 0
	for src, row := range ds.rackPair {
		if len(row.dst) == 0 {
			continue
		}
		rows++
		if cap(row.dst) != len(row.dst) || cap(row.val) != len(row.val) {
			t.Fatalf("rack row %d: %d entries in capacity %d/%d after its first merge, want exact",
				src, len(row.dst), cap(row.dst), cap(row.val))
		}
	}
	if rows < 2 {
		t.Fatalf("only %d rack rows merged; the check is vacuous", rows)
	}
	if a := testing.AllocsPerRun(20, func() { ds.MergePartial(p) }); a != 0 {
		t.Fatalf("re-merge allocated %v times, want 0", a)
	}
}

// TestLoadRejectsOutOfRangeIDs: every ID an archive carries indexes
// dense storage, so Load must turn negative, out-of-enum, oversized,
// and repeated keys into errors, never a panic or a giant allocation.
func TestLoadRejectsOutOfRangeIDs(t *testing.T) {
	for _, doc := range []string{
		`{"version":1,"host_out":{"-1":5}}`,
		`{"version":1,"host_out":{"4194304":5}}`,
		`{"version":1,"rack_cross":{"-3":1}}`,
		`{"version":1,"cluster_cross":{"99999":1}}`,
		`{"version":1,"rack_pair":{"4294967296,0":1}}`,
		`{"version":1,"rack_pair":{"0,-1":1}}`,
		`{"version":1,"cluster_pair":{"1,70000":1}}`,
		`{"version":1,"locality":{"0,9":1}}`,
		`{"version":1,"locality":{"5,0":1}}`,
		`{"version":1,"by_cluster":{"-1":1}}`,
		`{"version":1,"per_minute":{"-1":1}}`,
		`{"version":1,"host_out":{"7":1,"07":2}}`,
	} {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("Load accepted %s", doc)
		}
	}
}

// FuzzDatasetLoad: Load either rejects an archive or returns a dataset
// whose Save → Load → Save round trip is byte-stable. The corpus holds a
// real archive plus a negative host key, an out-of-enum locality key and
// a huge rack key (testdata/fuzz/FuzzDatasetLoad).
func FuzzDatasetLoad(f *testing.F) {
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	p := NewPartial()
	for _, rec := range randomRecords(f, topo, rng.New(3), 4) {
		p.Add(rec)
	}
	ds := NewDataset()
	ds.MergePartial(p)
	var valid bytes.Buffer
	if err := ds.Save(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := d.Save(&first); err != nil {
			t.Fatalf("saving a loaded archive: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved archive: %v\n%s", err, first.Bytes())
		}
		if err := again.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save → Load → Save not byte-stable:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// TestPartialCheckIDs: every keyed table is bounded by its own ID space,
// both halves of a pair key included, and the error names the table.
func TestPartialCheckIDs(t *testing.T) {
	in := Record{Src: 3, SrcRack: 2, DstRack: 1, SrcCluster: 1, DstCluster: 0, Locality: topology.InterDatacenter, Bytes: 9}
	p := NewPartial()
	p.Add(in)
	if err := p.CheckIDs(4, 3, 2); err != nil {
		t.Fatalf("in-range partial rejected: %v", err)
	}
	for _, c := range []struct {
		hosts, racks, clusters int
		table                  string
	}{
		{3, 3, 2, "hostOut"},
		{4, 2, 2, "rackPair"},
		{4, 3, 1, "clusterPair"},
	} {
		err := p.CheckIDs(c.hosts, c.racks, c.clusters)
		if err == nil || !strings.Contains(err.Error(), c.table) {
			t.Errorf("CheckIDs(%d, %d, %d) = %v, want a %s error", c.hosts, c.racks, c.clusters, err, c.table)
		}
	}
	p.Reset()
	p.Add(Record{Src: 0, SrcRack: 0, DstRack: 5, Locality: topology.IntraCluster})
	if err := p.CheckIDs(1, 3, 1); err == nil || !strings.Contains(err.Error(), "(0,5)") {
		t.Errorf("destination rack 5 of 3: %v", err)
	}
}

// sourceRuns tags n flows whose source changes every record (run 1) or
// repeats in runs of up to run records. Destinations mix the source's
// own rack with the whole fleet, so runs skip the cross tables now and
// then, and the minute changes within runs.
func sourceRuns(tb testing.TB, topo *topology.Topology, r *rng.Source, n, run int) []Record {
	tb.Helper()
	tagger := NewTagger(topo)
	hosts := topo.NumHosts()
	recs := make([]Record, 0, n)
	src := topology.HostID(0)
	for len(recs) < n {
		src = (src + 1 + topology.HostID(r.Intn(hosts-1))) % topology.HostID(hosts)
		for k := 1 + r.Intn(run); k > 0 && len(recs) < n; k-- {
			dst := topology.HostID(r.Intn(hosts))
			if r.Intn(3) == 0 {
				rk := &topo.Racks[topo.HostRack(src)]
				dst = rk.FirstHost + topology.HostID(r.Intn(int(rk.NumHosts)))
			}
			rec, ok := tagger.Flow(int64(r.Intn(2)), topo.Addr(src), topo.Addr(dst), 40+r.Float64()*1e6)
			if !ok {
				tb.Fatalf("tagger rejected in-topology flow %d -> %d", src, dst)
			}
			recs = append(recs, rec)
		}
	}
	return recs
}

// tableKeys lists a table's keys in insertion order.
func tableKeys(t *openhash.Table[float64]) []uint64 {
	keys := make([]uint64, t.Len())
	for i := range keys {
		keys[i] = t.Key(i)
	}
	return keys
}

// checkPartialFolds asserts that p holds exactly what recs folded into
// an empty partial would: every per-key sum bit for bit against the map
// oracle, every table's insertion order and every rack-pair row's
// destination order against the order in which recs first touch each
// key. It also compares p table by table and row by row with a fresh
// partial fed recs.
func checkPartialFolds(t *testing.T, what string, p *Partial, recs []Record) {
	t.Helper()
	want, got := newRefDataset(), newRefDataset()
	fresh := NewPartial()
	order := make([][]uint64, 6)
	seen := make([]map[uint64]bool, 6)
	for i := range seen {
		seen[i] = map[uint64]bool{}
	}
	touch := func(table int, k uint64) {
		if !seen[table][k] {
			seen[table][k] = true
			order[table] = append(order[table], k)
		}
	}
	for _, r := range recs {
		want.add(r)
		fresh.Add(r)
		touch(0, packPair(r.SrcRack, r.DstRack))
		touch(1, packPair(r.SrcCluster, r.DstCluster))
		touch(2, uint64(r.Minute))
		touch(3, uint64(r.Src))
		if r.Locality != topology.SameHost && r.Locality != topology.IntraRack {
			touch(4, uint64(r.SrcRack))
			if r.Locality != topology.IntraCluster {
				touch(5, uint64(r.SrcCluster))
			}
		}
	}
	got.mergePartial(p)
	if !sameBits(got.totalBytes, want.totalBytes) {
		t.Fatalf("%s: total %v, want %v", what, got.totalBytes, want.totalBytes)
	}
	sameMap(t, what+" rackPair", got.rackPair, want.rackPair)
	sameMap(t, what+" clusterPair", got.clusterPair, want.clusterPair)
	sameMap(t, what+" perMinute", got.perMinute, want.perMinute)
	sameMap(t, what+" hostOut", got.hostOut, want.hostOut)
	sameMap(t, what+" rackCross", got.rackCross, want.rackCross)
	sameMap(t, what+" clusterCross", got.clusterCross, want.clusterCross)
	sameRows(t, what+" rackPair", rowsBySource(t, p), keysBySource(order[0]))
	sameRows(t, what+" rackPair against a fresh partial", rowsBySource(t, p), rowsBySource(t, fresh))
	for i, c := range []struct {
		name      string
		got, have *openhash.Table[float64]
	}{
		{"clusterPair", &p.clusterPair, &fresh.clusterPair},
		{"perMinute", &p.perMinute, &fresh.perMinute},
		{"hostOut", &p.hostOut, &fresh.hostOut},
		{"rackCross", &p.rackCross, &fresh.rackCross},
		{"clusterCross", &p.clusterCross, &fresh.clusterCross},
	} {
		keys, want := tableKeys(c.got), order[i+1]
		if fmt.Sprint(keys) != fmt.Sprint(want) {
			t.Fatalf("%s %s: insertion order %v, want %v", what, c.name, keys, want)
		}
		if fmt.Sprint(keys) != fmt.Sprint(tableKeys(c.have)) {
			t.Fatalf("%s %s: insertion order differs from a fresh partial's", what, c.name)
		}
		for j := range keys {
			if !sameBits(*c.got.Val(j), *c.have.Val(j)) {
				t.Fatalf("%s %s[%#x] = %v, fresh partial %v", what, c.name, keys[j], *c.got.Val(j), *c.have.Val(j))
			}
		}
	}
}

// TestPartialAddSlotMemo: Add skips the probe of the minute, host and
// cross tables while the key repeats. Sums and insertion order must not
// depend on that — not when the source changes every record or repeats
// in runs, not after a Reset whose first key is the one Add remembered,
// and not after decoding into a used pooled partial. Steady-state Add
// allocates nothing.
func TestPartialAddSlotMemo(t *testing.T) {
	topo := topology.MustBuild(topology.Preset(topology.ScaleSmall))
	r := rng.New(29)
	p := NewPartial()

	var stream []Record
	for _, phase := range []struct {
		name string
		run  int
	}{{"changing source", 1}, {"repeating source", 12}} {
		for _, rec := range sourceRuns(t, topo, r, 3000, phase.run) {
			p.Add(rec)
			stream = append(stream, rec)
		}
		checkPartialFolds(t, phase.name, p, stream)
	}

	// After Reset, the first record carries the key every memo last
	// saw: a memo surviving Reset would add into a cleared slot.
	last := stream[len(stream)-1]
	p.Reset()
	after := append([]Record{last, stream[0]}, sourceRuns(t, topo, r, 500, 6)...)
	for _, rec := range after {
		p.Add(rec)
	}
	checkPartialFolds(t, "after Reset", p, after)

	// Decode a cell into the used partial, then keep adding records that
	// start on the key the memos hold.
	cell := sourceRuns(t, topo, r, 800, 6)
	src := NewPartial()
	for _, rec := range cell {
		src.Add(rec)
	}
	if err := p.DecodeBinary(src.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	more := append([]Record{after[len(after)-1]}, sourceRuns(t, topo, r, 500, 6)...)
	for _, rec := range more {
		p.Add(rec)
	}
	checkPartialFolds(t, "after decode", p, append(cell, more...))

	if a := testing.AllocsPerRun(20, func() {
		p.Reset()
		for _, rec := range stream {
			p.Add(rec)
		}
	}); a != 0 {
		t.Fatalf("steady-state Add allocated %v times per pass, want 0", a)
	}
}
