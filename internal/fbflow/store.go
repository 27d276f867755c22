package fbflow

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// Long-term storage (the Hive stage of Figure 3): a Dataset's aggregates
// serialize to a versioned JSON document, so a day's collection can be
// archived and re-queried without regenerating traffic. The format keys
// composite map entries as "a,b" strings since JSON objects require
// string keys.

// storeVersion identifies the archive format.
const storeVersion = 1

type storeDoc struct {
	Version      int                `json:"version"`
	TotalBytes   float64            `json:"total_bytes"`
	Locality     map[string]float64 `json:"locality"`      // "ct,loc" → bytes
	ByCluster    map[string]float64 `json:"by_cluster"`    // ct → bytes
	RackPair     map[string]float64 `json:"rack_pair"`     // "src,dst" → bytes
	ClusterPair  map[string]float64 `json:"cluster_pair"`  // "src,dst" → bytes
	PerMinute    map[string]float64 `json:"per_minute"`    // minute → bytes
	HostOut      map[string]float64 `json:"host_out"`      // host → bytes
	RackCross    map[string]float64 `json:"rack_cross"`    // rack → bytes
	ClusterCross map[string]float64 `json:"cluster_cross"` // cluster → bytes
}

// The archive's ID caps. Host, rack, and cluster IDs index dense storage
// when an archive loads, so a corrupt key must fail the load instead of
// driving a multi-GiB allocation. Each cap is about 4× the xlarge preset
// (1,105,920 hosts, 34,560 racks, 15 clusters).
const (
	maxArchiveHosts    = 1 << 22
	maxArchiveRacks    = 1 << 17
	maxArchiveClusters = 1 << 12
)

func pairKey(a, b int) string { return fmt.Sprintf("%d,%d", a, b) }

// parseID parses one archive key naming an ID in [0, limit).
func parseID(s, kind string, limit int) (int, error) {
	var v int
	if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
		return 0, fmt.Errorf("fbflow: bad %s key %q", kind, s)
	}
	if v < 0 || v >= limit {
		return 0, fmt.Errorf("fbflow: %s key %q outside [0, %d)", kind, s, limit)
	}
	return v, nil
}

// parsePair parses one "a,b" archive key with a in [0, limA) and b in
// [0, limB).
func parsePair(s, kind string, limA, limB int) (int, int, error) {
	var a, b int
	if _, err := fmt.Sscanf(s, "%d,%d", &a, &b); err != nil {
		return 0, 0, fmt.Errorf("fbflow: bad %s pair key %q: %w", kind, s, err)
	}
	if a < 0 || a >= limA || b < 0 || b >= limB {
		return 0, 0, fmt.Errorf("fbflow: %s pair key %q outside [0, %d)×[0, %d)", kind, s, limA, limB)
	}
	return a, b, nil
}

// Save archives the dataset to w.
func (d *Dataset) Save(w io.Writer) error {
	d.mu.Lock()
	defer d.mu.Unlock()
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
	for ct := range d.locality {
		for l, v := range d.locality[ct] {
			if d.localitySet[ct][l] {
				doc.Locality[pairKey(ct, l)] = v
			}
		}
	}
	for ct, v := range d.byClusterType {
		if d.byClusterTypeSet[ct] {
			doc.ByCluster[fmt.Sprintf("%d", ct)] = v
		}
	}
	for src, row := range d.rackPair {
		for j, dst := range row.dst {
			doc.RackPair[pairKey(src, int(dst))] = row.val[j]
		}
	}
	for i := 0; i < d.clusterPair.Len(); i++ {
		src, dst := unpackPair(d.clusterPair.Key(i))
		doc.ClusterPair[pairKey(src, dst)] = *d.clusterPair.Val(i)
	}
	for i := 0; i < d.perMinute.Len(); i++ {
		doc.PerMinute[fmt.Sprintf("%d", int64(d.perMinute.Key(i)))] = *d.perMinute.Val(i)
	}
	for _, c := range []struct {
		x   *IDVec
		out map[string]float64
	}{{&d.hostOut, doc.HostOut}, {&d.rackCross, doc.RackCross}, {&d.clusterCross, doc.ClusterCross}} {
		c.x.forEach(func(id int, v float64) { c.out[fmt.Sprintf("%d", id)] = v })
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(&doc); err != nil {
		return fmt.Errorf("fbflow: encoding dataset: %w", err)
	}
	return bw.Flush()
}

// Load reads an archived dataset from r. Every key must parse, name an
// ID inside its enum or below the archive caps, and appear once.
func Load(r io.Reader) (*Dataset, error) {
	var doc storeDoc
	if err := json.NewDecoder(bufio.NewReader(r)).Decode(&doc); err != nil {
		return nil, fmt.Errorf("fbflow: decoding dataset: %w", err)
	}
	if doc.Version != storeVersion {
		return nil, fmt.Errorf("fbflow: unsupported dataset version %d", doc.Version)
	}
	repeated := func(kind, k string) error { return fmt.Errorf("fbflow: archive repeats %s key %q", kind, k) }
	d := NewDataset()
	d.totalBytes = doc.TotalBytes
	for k, v := range doc.Locality {
		ct, l, err := parsePair(k, "locality", numClusterTypes, numLocalities)
		if err != nil {
			return nil, err
		}
		if d.localitySet[ct][l] {
			return nil, repeated("locality", k)
		}
		d.addLocality(ct, l, v)
	}
	for k, v := range doc.ByCluster {
		ct, err := parseID(k, "cluster type", numClusterTypes)
		if err != nil {
			return nil, err
		}
		if d.byClusterTypeSet[ct] {
			return nil, repeated("cluster type", k)
		}
		d.addClusterType(ct, v)
	}
	// Rack pairs land in key order, so a repeated pair is adjacent and
	// each row's destinations ascend.
	type rackPairEntry struct {
		key uint64
		v   float64
		s   string
	}
	pairs := make([]rackPairEntry, 0, len(doc.RackPair))
	for k, v := range doc.RackPair {
		a, b, err := parsePair(k, "rack", maxArchiveRacks, maxArchiveRacks)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, rackPairEntry{packPair(int32(a), int32(b)), v, k})
	}
	slices.SortFunc(pairs, func(x, y rackPairEntry) int { return cmp.Compare(x.key, y.key) })
	top := -1
	for i, e := range pairs {
		if i > 0 && pairs[i-1].key == e.key {
			return nil, repeated("rack pair", e.s)
		}
		src, dst := unpackPair(e.key)
		row := d.rackRow(src)
		row.dst = append(row.dst, int32(dst))
		row.val = append(row.val, e.v)
		top = max(top, dst)
	}
	d.fitPos(top + 1)
	for k, v := range doc.ClusterPair {
		a, b, err := parsePair(k, "cluster", maxArchiveClusters, maxArchiveClusters)
		if err != nil {
			return nil, err
		}
		key := packPair(int32(a), int32(b))
		if d.clusterPair.Get(key) != nil {
			return nil, repeated("cluster pair", k)
		}
		*d.clusterPair.Slot(key) = v
	}
	for k, v := range doc.PerMinute {
		m, err := parseID(k, "minute", math.MaxInt)
		if err != nil {
			return nil, err
		}
		if d.perMinute.Get(uint64(m)) != nil {
			return nil, repeated("minute", k)
		}
		*d.perMinute.Slot(uint64(m)) = v
	}
	for _, c := range []struct {
		in    map[string]float64
		x     *IDVec
		kind  string
		limit int
	}{
		{doc.HostOut, &d.hostOut, "host", maxArchiveHosts},
		{doc.RackCross, &d.rackCross, "rack", maxArchiveRacks},
		{doc.ClusterCross, &d.clusterCross, "cluster", maxArchiveClusters},
	} {
		for k, v := range c.in {
			id, err := parseID(k, c.kind, c.limit)
			if err != nil {
				return nil, err
			}
			if _, ok := c.x.At(id); ok {
				return nil, repeated(c.kind, k)
			}
			c.x.add(id, v)
		}
	}
	return d, nil
}
