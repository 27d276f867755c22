package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"fbdcnet/internal/obs/export"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	xs := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {90, 46}, {100, 50},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	in := []float64{5, 4, 3}
	median(in)
	percentile(in, 50)
	if in[0] != 5 || in[2] != 3 {
		t.Error("median/percentile reordered their input")
	}
	if got := maxOf([]float64{2, 7, 3}); got != 7 {
		t.Errorf("maxOf = %v, want 7", got)
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{5, 50}, {20, 50}, {40, 75}, {100, 90}, {200, 95},
		{540, 98}, {1000, 99}, {2160, 99.5}, {10000, 99.9},
	} {
		p := tailPercentile(c.n)
		if p != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, p, c.want)
		}
		if c.n >= 20 && float64(c.n)*(1-p/100) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than 10 samples beyond it", c.n, p)
		}
	}
}

func TestCoveredCountsOverlapOnceAndClips(t *testing.T) {
	for _, c := range []struct {
		name   string
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{"none", 0, 100, nil, 0},
		{"disjoint", 0, 100, [][2]int64{{10, 20}, {30, 45}}, 25},
		{"overlap", 0, 100, [][2]int64{{10, 40}, {30, 60}}, 50},
		{"nested", 0, 100, [][2]int64{{10, 60}, {20, 30}}, 50},
		{"unsorted", 0, 100, [][2]int64{{70, 80}, {10, 20}}, 20},
		{"clipped", 50, 100, [][2]int64{{40, 60}, {90, 120}}, 20},
	} {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("%s: covered = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSelfTimesSubtractChildrenAndCharges(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Metric: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Metric: "a", Start: 10, End: 40, Charged: map[string]int64{"x": 5}},
		{ID: 2, Parent: 0, Metric: "b", Start: 40, End: 70},
		{ID: 3, Parent: 2, Metric: "a", Start: 50, End: 60},
	}
	got := SelfTimes(spans)
	want := map[string]float64{"root": 40e-9, "a": 35e-9, "x": 5e-9, "b": 20e-9}
	var sum float64
	for m, v := range want {
		if !near(got[m], v) {
			t.Errorf("self[%s] = %v, want %v", m, got[m], v)
		}
	}
	for _, v := range got {
		sum += v
	}
	if !near(sum, 100e-9) {
		t.Errorf("sequential self times sum to %v, want the root wall 100ns", sum)
	}

	// Parallel children overlap: the parent's covered part counts once,
	// while each child keeps its own self time.
	par := []Span{
		{ID: 0, Parent: -1, Metric: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Metric: "w", Start: 0, End: 80},
		{ID: 2, Parent: 0, Metric: "w", Start: 20, End: 100},
	}
	got = SelfTimes(par)
	if !near(got["root"], 0) || !near(got["w"], 160e-9) {
		t.Errorf("parallel self = %v, want root 0 and w 160ns", got)
	}
}

func TestNilTracerIsANoOp(t *testing.T) {
	var tr *Tracer
	id := tr.Begin(-1, "m", "n")
	if id != -1 || tr.Enabled() {
		t.Fatalf("nil tracer Begin = %d, Enabled = %v", id, tr.Enabled())
	}
	tr.End(id)
	tr.Charge(id, "x", 1)
	tr.Count("c", 1)
	tr.Max("c", 2)
	if tr.Wall(id) != 0 {
		t.Error("nil tracer reports a wall")
	}
}

func TestTracerRecordsAndExportsChromeTrace(t *testing.T) {
	tr := NewTracer()
	root := tr.Begin(-1, "core.residual_s", "root")
	child := tr.Begin(root, "services.gen_s", "gen")
	tr.Charge(child, "analysis.flows_s", 1)
	tr.End(child)
	tr.End(root)
	tr.Count("netsim.events", 3)
	tr.Max("netsim.pending_peak", 5)
	tr.Max("netsim.pending_peak", 2)
	if tr.Counts["netsim.events"] != 3 || tr.Counts["netsim.pending_peak"] != 5 {
		t.Errorf("counts = %v", tr.Counts)
	}
	self := SelfTimes(tr.Spans())
	var sum float64
	for _, v := range self {
		sum += v
	}
	if !near(sum, tr.Wall(root)) {
		t.Errorf("self times sum to %v, wall %v", sum, tr.Wall(root))
	}
	data, err := tr.ChromeJSON("test")
	if err != nil {
		t.Fatal(err)
	}
	if err := export.Validate(data); err != nil {
		t.Fatalf("chrome trace does not validate: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.TraceEvents) != 3 || tf.TraceEvents[2].Name != "gen" || tf.TraceEvents[2].Args["parent"] != float64(0) {
		t.Errorf("unexpected events: %+v", tf.TraceEvents)
	}
}

func TestParseSections(t *testing.T) {
	text := "header\n\n=== table2 (0.0s) ===\nline a\nline b\n\n=== figure15 (113.4s) ===\nfig\n\n"
	got := parseSections(text)
	if got["table2"] != "line a\nline b" || got["figure15"] != "fig" || len(got) != 2 {
		t.Errorf("parseSections = %q", got)
	}
}

func TestLayerCatalogueIsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, lm := range layerMetrics {
		if seen[lm.name] {
			t.Errorf("duplicate metric %s", lm.name)
		}
		seen[lm.name] = true
		if lm.unit == "" || (lm.better != "lower" && lm.better != "higher") {
			t.Errorf("metric %s: unit %q better %q", lm.name, lm.unit, lm.better)
		}
	}
}

// TestSmoke runs all four workloads, traced, at minimal size with every
// oracle on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes about 30 s")
	}
	chdirRepoRoot(t)
	if code := runSmoke(7, t.TempDir()); code != 0 {
		t.Fatalf("smoke run exited %d", code)
	}
}

// TestGoldenSections renders the trace-only sections at the golden
// durations and compares them with experiments_output.txt.
func TestGoldenSections(t *testing.T) {
	if testing.Short() {
		t.Skip("golden traces take about 15 s")
	}
	chdirRepoRoot(t)
	r := newRunner("mirror", 42, 1, false, false, "")
	if err := checkGolden(r); err != nil {
		t.Fatal(err)
	}
}

func chdirRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	if err := checkSource(); err != nil {
		t.Fatal(err)
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json's per-layer list
// in step with the metrics a traced run prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
		EndToEnd []struct{ Name, Unit string }         `json:"end_to_end"`
		Workload []struct{ Name string }               `json:"workloads"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, catalogue has %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, lm := range layerMetrics {
		got := b.PerLayer[i]
		if got.Name != lm.name || got.Unit != lm.unit || got.Better != lm.better {
			t.Errorf("per_layer[%d] = %+v, catalogue has %+v", i, got, lm)
		}
	}
	r := &runner{}
	e2e := r.endToEnd()
	for _, m := range b.EndToEnd {
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("end_to_end %s: unit %q, run prints %q", m.Name, m.Unit, e2e[m.Name].Unit)
		}
	}
	if len(e2e) != len(b.EndToEnd) {
		t.Errorf("run prints %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(b.EndToEnd))
	}
	for i, w := range workloads {
		if i >= len(b.Workload) || b.Workload[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json and the benchmark disagree on %s", i, w.name)
		}
	}
}
