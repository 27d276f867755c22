package obs

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestNilRegistryNoOps pins the disable contract: every operation on a
// nil registry (and the shards, progress trackers, and spans it hands
// out) must be a safe no-op — this is what lets instrumented code run
// un-gated when no sink is registered.
func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	if r.Enabled() {
		t.Error("nil registry reports enabled")
	}
	cid := r.Counter("x_total", "help")
	hid := r.Histogram("x_us", "help")
	r.AddCounter(cid, 5)
	r.Observe(hid, 7)
	r.SetGauge("g", 1.5)
	r.Count(`s{a="b"}`, 2)
	sh := r.NewShard()
	sh.Inc(cid)
	sh.Add(cid, 3)
	sh.Observe(hid, 9)
	sh.Fold()
	p := r.NewProgress("task", 10)
	p.Set(4)
	sp := r.StartSpan("stage")
	sp.End()
	if got := r.CounterValue("x_total"); got != 0 {
		t.Errorf("nil CounterValue = %d", got)
	}
	if got := r.PrometheusText(); got != "" {
		t.Errorf("nil PrometheusText = %q", got)
	}
	if !strings.Contains(r.ProgressText(), "disabled") {
		t.Errorf("nil ProgressText = %q", r.ProgressText())
	}
	m := r.Manifest(RunMeta{Tool: "test"})
	if m == nil || m.Tool != "test" {
		t.Fatalf("nil Manifest = %+v", m)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("nil-registry manifest fails schema: %v", err)
	}
}

// TestShardFold checks that per-worker shards fold into the same folded
// totals regardless of fold order, and that folding resets the shard.
func TestShardFold(t *testing.T) {
	run := func(foldOrder []int) (int64, int64) {
		r := NewRegistry()
		c := r.Counter("pkts_total", "packets")
		h := r.Histogram("lat_us", "latency")
		shards := []*Shard{r.NewShard(), r.NewShard(), r.NewShard()}
		for i, sh := range shards {
			for j := 0; j <= i; j++ {
				sh.Inc(c)
				sh.Observe(h, int64(100*(i+1)))
			}
		}
		for _, i := range foldOrder {
			shards[i].Fold()
		}
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.counters[c], r.hists[h].count
	}
	c1, h1 := run([]int{0, 1, 2})
	c2, h2 := run([]int{2, 0, 1})
	if c1 != 6 || h1 != 6 {
		t.Errorf("folded counter=%d hist count=%d, want 6, 6", c1, h1)
	}
	if c1 != c2 || h1 != h2 {
		t.Errorf("fold order changed totals: (%d,%d) vs (%d,%d)", c1, h1, c2, h2)
	}

	// Fold resets: a second fold of an untouched shard adds nothing.
	r := NewRegistry()
	c := r.Counter("x_total", "")
	sh := r.NewShard()
	sh.Add(c, 5)
	sh.Fold()
	sh.Fold()
	if got := r.CounterValue("x_total"); got != 5 {
		t.Errorf("double fold: counter = %d, want 5", got)
	}
}

func TestSeriesFormatting(t *testing.T) {
	if got := Series("x_total"); got != "x_total" {
		t.Errorf("no labels: %q", got)
	}
	if got := Series("x_total", "role", "Web"); got != `x_total{role="Web"}` {
		t.Errorf("one label: %q", got)
	}
	if got := Series("x_total", "a", "1", "b", "2"); got != `x_total{a="1",b="2"}` {
		t.Errorf("two labels: %q", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
		bound  int64
	}{
		{-3, 0, 0},
		{0, 0, 0},
		{1, 1, 1},
		{2, 2, 3},
		{3, 2, 3},
		{4, 3, 7},
		{1023, 10, 1023},
		{1024, 11, 2047},
		{math.MaxInt64, 63, math.MaxInt64},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		if got := bucketBound(c.bucket); got != c.bound {
			t.Errorf("bucketBound(%d) = %d, want %d", c.bucket, got, c.bound)
		}
		// The defining invariant: v always lands in a bucket whose bound
		// covers it, and (for v > 0) the previous bucket's doesn't.
		if c.v > bucketBound(bucketOf(c.v)) {
			t.Errorf("v=%d above its bucket bound %d", c.v, bucketBound(bucketOf(c.v)))
		}
		if c.v > 0 && c.v <= bucketBound(bucketOf(c.v)-1) {
			t.Errorf("v=%d fits the previous bucket too", c.v)
		}
	}
}

func TestProgressMonotoneSet(t *testing.T) {
	r := NewRegistry()
	p := r.NewProgress("windows", 10)
	p.Set(4)
	p.Set(2) // stale frontier report: must not move backwards
	m := r.Manifest(RunMeta{})
	if len(m.Progress) != 1 || m.Progress[0].Done != 4 || m.Progress[0].Total != 10 {
		t.Fatalf("progress = %+v, want done=4 total=10", m.Progress)
	}
	// Re-registering keeps the tracker and only grows the total.
	p2 := r.NewProgress("windows", 8)
	p2.Set(6)
	m = r.Manifest(RunMeta{})
	if m.Progress[0].Done != 6 || m.Progress[0].Total != 10 {
		t.Fatalf("re-registered progress = %+v, want done=6 total=10", m.Progress)
	}
}

// populated builds a registry exercising every metric kind.
func populated() *Registry {
	r := NewRegistry()
	c := r.Counter("fbdcnet_test_pkts_total", "packets seen")
	h := r.Histogram("fbdcnet_test_lat_us", "latency")
	sh := r.NewShard()
	sh.Add(c, 41)
	sh.Inc(c)
	sh.Observe(h, 100)
	sh.Observe(h, 3000)
	sh.Fold()
	r.Count(Series("fbdcnet_test_role_total", "role", "Web"), 7)
	r.Count(Series("fbdcnet_test_role_total", "role", "Hadoop"), 9)
	r.SetGauge("fbdcnet_test_util", 0.75)
	sp := r.StartSpan("stage-a")
	sp.End()
	t0 := time.Now()
	r.RecordSpanAt("stage-b", t0, t0.Add(1500*time.Millisecond))
	r.NewProgress("windows", 4).Set(3)
	return r
}

func TestPrometheusText(t *testing.T) {
	text := populated().PrometheusText()
	want := []string{
		"# TYPE fbdcnet_test_pkts_total counter",
		"fbdcnet_test_pkts_total 42",
		"# TYPE fbdcnet_test_role_total counter",
		`fbdcnet_test_role_total{role="Web"} 7`,
		`fbdcnet_test_role_total{role="Hadoop"} 9`,
		"# TYPE fbdcnet_test_util gauge",
		"fbdcnet_test_util 0.75",
		"# TYPE fbdcnet_test_lat_us histogram",
		`fbdcnet_test_lat_us_bucket{le="127"} 1`, // 100 lands in (64,127]
		`fbdcnet_test_lat_us_bucket{le="+Inf"} 2`,
		"fbdcnet_test_lat_us_sum 3100",
		"fbdcnet_test_lat_us_count 2",
		`fbdcnet_stage_wall_seconds_total{stage="stage-a"}`,
		`fbdcnet_stage_runs_total{stage="stage-b"} 1`,
		`fbdcnet_progress_done{task="windows"} 3`,
		`fbdcnet_progress_total{task="windows"} 4`,
	}
	for _, w := range want {
		if !strings.Contains(text, w) {
			t.Errorf("PrometheusText missing %q\n%s", w, text)
		}
	}
	// Histogram buckets must be cumulative: the 3000 observation (bucket
	// le=4095) includes the earlier 100.
	if !strings.Contains(text, `fbdcnet_test_lat_us_bucket{le="4095"} 2`) {
		t.Errorf("histogram not cumulative:\n%s", text)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	r := populated()
	meta := RunMeta{Tool: "test", Config: map[string]any{"seed": 42, "scale": "tiny"}}
	m := r.Manifest(meta)
	if err := m.Validate(); err != nil {
		t.Fatalf("populated manifest fails schema: %v", err)
	}
	if m.Counters["fbdcnet_test_pkts_total"] != 42 {
		t.Errorf("counter = %d", m.Counters["fbdcnet_test_pkts_total"])
	}
	if m.Series[`fbdcnet_test_role_total{role="Web"}`] != 7 {
		t.Errorf("series = %v", m.Series)
	}
	var stageA bool
	for _, st := range m.Stages {
		if st.Name == "stage-a" && st.Runs == 1 {
			stageA = true
		}
	}
	if !stageA {
		t.Errorf("stages missing stage-a: %+v", m.Stages)
	}
	if len(m.Histograms) != 1 || m.Histograms[0].Count != 2 {
		t.Fatalf("histograms = %+v", m.Histograms)
	}
	if m.Histograms[0].Buckets["127"] != 1 {
		t.Errorf("bucket digest = %v", m.Histograms[0].Buckets)
	}

	// The file on disk must satisfy the same schema cmd/manifestcheck
	// applies.
	path := filepath.Join(t.TempDir(), "run_manifest.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSchema(ManifestSchema, data); err != nil {
		t.Errorf("written manifest fails schema: %v", err)
	}
}

func TestValidateSchemaRejects(t *testing.T) {
	schema := []byte(`{
		"type": "object",
		"required": ["n", "tags"],
		"additionalProperties": false,
		"properties": {
			"n": {"type": "integer", "minimum": 1},
			"tags": {"type": "array", "items": {"type": "string"}},
			"kind": {"enum": ["a", "b"]}
		}
	}`)
	ok := func(doc string) error { return ValidateSchema(schema, []byte(doc)) }
	if err := ok(`{"n": 3, "tags": ["x"], "kind": "a"}`); err != nil {
		t.Errorf("valid doc rejected: %v", err)
	}
	for name, doc := range map[string]string{
		"missing required":      `{"n": 3}`,
		"wrong type":            `{"n": "three", "tags": []}`,
		"non-integer":           `{"n": 3.5, "tags": []}`,
		"below minimum":         `{"n": 0, "tags": []}`,
		"bad item type":         `{"n": 1, "tags": [4]}`,
		"additional property":   `{"n": 1, "tags": [], "extra": true}`,
		"enum violation":        `{"n": 1, "tags": [], "kind": "c"}`,
		"not json":              `{`,
		"wrong top-level shape": `[1, 2]`,
	} {
		if err := ok(doc); err == nil {
			t.Errorf("%s: want error, got nil", name)
		}
	}
}
