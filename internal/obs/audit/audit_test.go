package audit

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHashDeterminism(t *testing.T) {
	fold := func() uint64 {
		var h Hash
		h.U64(42)
		h.I64(-7)
		h.F64(3.25)
		h.Str("fleet-collect")
		return h.Sum()
	}
	a, b := fold(), fold()
	if a != b {
		t.Fatalf("same stream, different sums: %016x != %016x", a, b)
	}
	var h Hash
	h.U64(42)
	h.I64(-7)
	h.F64(3.25)
	h.Str("fleet-collect!")
	if h.Sum() == a {
		t.Fatalf("different stream collided with %016x", a)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4 (Str folds as one item)", h.Count())
	}
}

func TestHashOrderAndLengthSensitive(t *testing.T) {
	var a, b, c Hash
	a.U64(1)
	a.U64(2)
	b.U64(2)
	b.U64(1)
	if a.Sum() == b.Sum() {
		t.Fatalf("order-insensitive hash: %016x", a.Sum())
	}
	c.U64(1)
	if c.Sum() == a.Sum() {
		t.Fatalf("length-insensitive hash")
	}
	var empty Hash
	if empty.Sum() == 0 {
		t.Fatalf("empty stream sums to zero")
	}
}

func TestHashFloatBitPattern(t *testing.T) {
	var pos, neg Hash
	pos.F64(0.0)
	neg.F64(math.Copysign(0, -1))
	if pos.Sum() == neg.Sum() {
		t.Fatalf("+0.0 and -0.0 fold identically")
	}
}

func TestNilSafety(t *testing.T) {
	var h *Hash
	if h.Enabled() {
		t.Fatalf("nil hash reports enabled")
	}
	h.U64(1)
	h.I64(1)
	h.F64(1)
	h.Str("x")
	h.Reset()
	if h.Sum() != 0 || h.Count() != 0 {
		t.Fatalf("nil hash has state")
	}

	var r *Recorder
	if r.Enabled() {
		t.Fatalf("nil recorder reports enabled")
	}
	r.Append(Checkpoint{Stage: "x"})
	r.Record("x", 0, 0, nil)
	r.RecordOutput("x", "y")
	r.Hole("x", 0, 0)
	r.Perturb(0, 0)
	r.SetBlackBox(nil)
	r.Reset()
	if r.Checkpoints() != nil || r.Section() != nil || r.BB() != nil {
		t.Fatalf("nil recorder has state")
	}

	var bb *BlackBox
	bb.Record(EvCrash, "x", 0, 0)
	bb.Dump("", "x")
	bb.DumpText(os.Stderr, "x")
	bb.InstallSignalDump("")
	if bb.Total() != 0 || bb.Events() != nil {
		t.Fatalf("nil black box has state")
	}
}

func TestRecorderCanonicalOrder(t *testing.T) {
	r := New()
	// Append in deliberately scrambled schedule order.
	r.Record(StageTelemetry, NonCell, NonCell, &Hash{})
	r.Record(StageFleetCollect, 1, 0, &Hash{})
	r.Record(StageFleetCollect, 0, 2, &Hash{})
	r.Record(StageFleetCollect, 0, 1, &Hash{})
	r.RecordOutput("suite:heavy-hitters", "x")
	r.Record(StageMatrixSynth, 0, 0, &Hash{})
	r.RecordOutput("trace:web:60s", "y")
	r.RecordOutput("analysis:web:60s:flows", "z")

	cps := r.Checkpoints()
	want := []string{
		"trace:web:60s", "analysis:web:60s:flows", StageMatrixSynth,
		StageFleetCollect, StageFleetCollect, StageFleetCollect,
		"suite:heavy-hitters", StageTelemetry,
	}
	if len(cps) != len(want) {
		t.Fatalf("got %d checkpoints, want %d", len(cps), len(want))
	}
	for i, stage := range want {
		if cps[i].Stage != stage {
			t.Fatalf("checkpoint %d stage = %s, want %s", i, cps[i].Stage, stage)
		}
	}
	// Fleet cells in frontier order: (0,1) < (0,2) < (1,0).
	if cps[3].Window != 0 || cps[3].Shard != 1 || cps[4].Shard != 2 || cps[5].Window != 1 {
		t.Fatalf("fleet cells not in frontier order: %+v", cps[3:6])
	}
}

func TestPerturbFlipsOnlyNamedCell(t *testing.T) {
	build := func(perturb bool) []Checkpoint {
		r := New()
		if perturb {
			r.Perturb(1, 2)
		}
		for w := 0; w < 2; w++ {
			for s := 0; s < 3; s++ {
				var h Hash
				h.I64(int64(w*10 + s))
				r.Record(StageFleetCollect, w, s, &h)
			}
		}
		return r.Checkpoints()
	}
	clean, dirty := build(false), build(true)
	d, ok := Diff(clean, dirty)
	if !ok {
		t.Fatalf("perturbation produced identical ledgers")
	}
	if d.Kind != "hash" || d.A.Window != 1 || d.A.Shard != 2 || d.A.Stage != StageFleetCollect {
		t.Fatalf("divergence = %+v, want hash at fleet-collect (1,2)", d)
	}
	if d.Tainted != 1 {
		t.Fatalf("tainted = %d, want 1 (single planted cell)", d.Tainted)
	}
	if d.A.Sum^perturbMask != d.B.Sum {
		t.Fatalf("perturbation is not the documented XOR mask")
	}
}

func TestPerturbDoesNotTouchHoles(t *testing.T) {
	r := New()
	r.Perturb(0, 0)
	r.Hole(StageFleetCollect, 0, 0)
	cps := r.Checkpoints()
	if len(cps) != 1 || !cps[0].Hole || cps[0].Sum != 0 {
		t.Fatalf("perturbed hole: %+v", cps)
	}
}

func TestDiffFirstDivergenceInFrontierOrder(t *testing.T) {
	mk := func() []Checkpoint {
		var cps []Checkpoint
		for w := 0; w < 3; w++ {
			for s := 0; s < 2; s++ {
				var h Hash
				h.I64(int64(w*100 + s))
				cps = append(cps, Checkpoint{Stage: StageFleetCollect, Window: w, Shard: s, Sum: h.Sum(), Count: h.Count()})
			}
		}
		return cps
	}
	a, b := mk(), mk()
	// Perturb two cells; Diff must name the frontier-earlier one first.
	b[5].Sum ^= 1 // (2,1)
	b[2].Sum ^= 1 // (1,0)
	d, ok := Diff(a, b)
	if !ok {
		t.Fatalf("no divergence found")
	}
	if d.A.Window != 1 || d.A.Shard != 0 {
		t.Fatalf("first divergence at (%d,%d), want (1,0)", d.A.Window, d.A.Shard)
	}
	if d.Tainted != 2 || d.Total != 6 {
		t.Fatalf("tainted/total = %d/%d, want 2/6", d.Tainted, d.Total)
	}
	if !strings.Contains(d.String(), "window 1, shard 0") {
		t.Fatalf("String() does not name the cell: %s", d.String())
	}
}

func TestDiffKinds(t *testing.T) {
	base := Checkpoint{Stage: StageFleetCollect, Window: 0, Shard: 0, Sum: 7, Count: 3}
	cases := []struct {
		name string
		a, b []Checkpoint
		kind string
	}{
		{"count", []Checkpoint{base}, []Checkpoint{{Stage: base.Stage, Sum: 7, Count: 4}}, "count"},
		{"hole", []Checkpoint{base}, []Checkpoint{{Stage: base.Stage, Hole: true}}, "hole"},
		{"missing-in-b", []Checkpoint{base, {Stage: base.Stage, Shard: 1, Sum: 9}}, []Checkpoint{base}, "missing-in-b"},
		{"missing-in-a", []Checkpoint{base}, []Checkpoint{base, {Stage: base.Stage, Shard: 1, Sum: 9}}, "missing-in-a"},
	}
	for _, tc := range cases {
		d, ok := Diff(tc.a, tc.b)
		if !ok {
			t.Fatalf("%s: no divergence", tc.name)
		}
		if d.Kind != tc.kind {
			t.Fatalf("%s: kind = %s", tc.name, d.Kind)
		}
		if d.String() == "" {
			t.Fatalf("%s: empty rendering", tc.name)
		}
	}
	if _, ok := Diff([]Checkpoint{base}, []Checkpoint{base}); ok {
		t.Fatalf("identical ledgers diverged")
	}
	ha := []Checkpoint{{Stage: StageFleetCollect, Hole: true}}
	if _, ok := Diff(ha, ha); ok {
		t.Fatalf("matching holes diverged")
	}
}

func TestSectionRoundTrip(t *testing.T) {
	r := New()
	var h Hash
	h.I64(1)
	r.Record(StageFleetCollect, 0, 0, &h)
	r.Hole(StageFleetCollect, 0, 1)
	r.RecordOutput("suite:x", "out")

	sec := r.Section()
	if sec.Version != SectionVersion || sec.Cells != 3 || sec.Holes != 1 {
		t.Fatalf("section header: %+v", sec)
	}
	data, err := json.Marshal(sec)
	if err != nil {
		t.Fatal(err)
	}
	var back Section
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	cps, err := back.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := Diff(r.Checkpoints(), cps); ok {
		t.Fatalf("round trip diverged: %s", d)
	}
	// Determinism of the encoded bytes themselves.
	data2, _ := json.Marshal(r.Section())
	if !bytes.Equal(data, data2) {
		t.Fatalf("section encoding not byte-stable")
	}
}

func TestSectionDecodeRejectsMalformed(t *testing.T) {
	bad := []Section{
		{Version: 99},
		{Version: SectionVersion, Checkpoints: []SectionCheckpoint{{Stage: "", Hash: "0000000000000000"}}},
		{Version: SectionVersion, Checkpoints: []SectionCheckpoint{{Stage: "x", Hash: "xyz"}}},
		{Version: SectionVersion, Checkpoints: []SectionCheckpoint{{Stage: "x", Hole: true, Hash: "0000000000000000"}}},
		{Version: SectionVersion, Checkpoints: []SectionCheckpoint{{Stage: "x", Hash: "zzzzzzzzzzzzzzzz"}}},
	}
	for i, s := range bad {
		if _, err := s.Decode(); err == nil {
			t.Fatalf("case %d decoded", i)
		}
	}
	var nilSec *Section
	if _, err := nilSec.Decode(); err == nil {
		t.Fatalf("nil section decoded")
	}
}

func TestBlackBoxRingWrap(t *testing.T) {
	bb := NewBlackBox(4)
	for i := int64(0); i < 10; i++ {
		bb.Record(EvCellMerge, "cell", i, i*2)
	}
	if bb.Total() != 10 {
		t.Fatalf("total = %d", bb.Total())
	}
	evs := bb.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		if e.A != int64(6+i) {
			t.Fatalf("event %d A = %d, want %d (oldest-first after wrap)", i, e.A, 6+i)
		}
	}
}

func TestBlackBoxDump(t *testing.T) {
	bb := NewBlackBox(8)
	bb.Record(EvStageEnter, "fleet-collect", 0, 0)
	bb.Record(EvFrameTx, "partial", 2, 7)

	var buf bytes.Buffer
	bb.DumpText(&buf, "test")
	for _, want := range []string{"stage-enter", "frame-tx", "fleet-collect"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("text dump missing %q:\n%s", want, buf.String())
		}
	}

	path := filepath.Join(t.TempDir(), "bb.json")
	if err := bb.DumpJSON(path, "test"); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d struct {
		Reason string `json:"reason"`
		Total  uint64 `json:"total_events"`
		Events []struct {
			Kind string `json:"kind"`
			Name string `json:"name"`
		} `json:"events"`
	}
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Reason != "test" || d.Total != 2 || len(d.Events) != 2 || d.Events[1].Kind != "frame-tx" {
		t.Fatalf("dump: %+v", d)
	}
}

func TestZeroAllocHashAndRecord(t *testing.T) {
	var h Hash
	allocs := testing.AllocsPerRun(100, func() {
		h.U64(1)
		h.I64(-1)
		h.F64(2.5)
		_ = h.Sum()
	})
	if allocs != 0 {
		t.Fatalf("hash fold allocates %.1f/op", allocs)
	}

	bb := NewBlackBox(64)
	allocs = testing.AllocsPerRun(200, func() {
		bb.Record(EvCellMerge, "cell", 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("black-box record allocates %.1f/op", allocs)
	}

	r := New()
	// Steady state: the ledger slice reaches capacity, then appends reuse it.
	for i := 0; i < 64; i++ {
		r.Record(StageFleetCollect, 0, i, &h)
	}
	allocs = testing.AllocsPerRun(100, func() {
		r.Reset()
		for i := 0; i < 64; i++ {
			r.Record(StageFleetCollect, 0, i, &h)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ledger append allocates %.1f/op", allocs)
	}
}
