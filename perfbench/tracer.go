package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"fbdcnet/internal/obs/export"
)

// Tracer records spans around the benchmark's calls into each layer's
// public functions, from one goroutine. Spans live in memory and are
// written once, as Chrome trace-event JSON, when the run ends.
//
// Each span credits its self time — its duration minus the part of its
// interval covered by child spans, minus any charged child time — to one
// per-layer metric. Charged time is nested work too fine-grained to be a
// span (one analysis consumer's 512-header batches): the caller sums it
// and charges the total to the enclosing span under its own metric.
//
// A nil *Tracer is a valid disabled tracer: every method is a no-op, so the
// same replica code runs untraced (for the overhead baseline and the
// oracles) and traced.
type Tracer struct {
	epoch time.Time
	spans []Span
	// Counts holds per-layer counters (packets, events, cells, ...)
	// recorded at the same boundaries as the spans.
	Counts map[string]float64
}

// Span is one timed call into a layer.
type Span struct {
	ID, Parent int // Parent is -1 for a root
	Name       string
	Metric     string // per-layer metric its self time is credited to
	Start, End int64  // ns since the tracer epoch; End 0 while open
	Charged    map[string]int64
}

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), Counts: map[string]float64{}}
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Begin opens a span under parent (-1 for a root) and returns its ID.
func (t *Tracer) Begin(parent int, metric, name string) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Metric: metric, Start: t.now()})
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = t.now()
}

// Charge credits ns of nested child work inside span id to metric.
func (t *Tracer) Charge(id int, metric string, ns int64) {
	if t == nil || id < 0 {
		return
	}
	sp := &t.spans[id]
	if sp.Charged == nil {
		sp.Charged = map[string]int64{}
	}
	sp.Charged[metric] += ns
}

// Count adds v to a per-layer counter.
func (t *Tracer) Count(name string, v float64) {
	if t == nil {
		return
	}
	t.Counts[name] += v
}

// Max raises a per-layer counter to at least v.
func (t *Tracer) Max(name string, v float64) {
	if t == nil {
		return
	}
	if v > t.Counts[name] {
		t.Counts[name] = v
	}
}

func (t *Tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// Spans returns the recorded spans.
func (t *Tracer) Spans() []Span { return t.spans }

// Wall returns the duration of span id in seconds.
func (t *Tracer) Wall(id int) float64 {
	if t == nil || id < 0 {
		return 0
	}
	sp := t.spans[id]
	return float64(sp.End-sp.Start) / 1e9
}

// SelfTimes returns each metric's summed self time in seconds across all
// spans, charged child time included.
func SelfTimes(spans []Span) map[string]float64 {
	children := make([][]int, len(spans))
	for _, sp := range spans {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], sp.ID)
		}
	}
	out := map[string]float64{}
	for _, sp := range spans {
		var ivs [][2]int64
		for _, c := range children[sp.ID] {
			ivs = append(ivs, [2]int64{spans[c].Start, spans[c].End})
		}
		self := sp.End - sp.Start - covered(sp.Start, sp.End, ivs)
		for m, ns := range sp.Charged {
			self -= ns
			out[m] += float64(ns) / 1e9
		}
		out[sp.Metric] += float64(self) / 1e9
	}
	return out
}

// covered returns how many ns of [lo, hi) the union of ivs covers.
// Overlapping children (parallel lanes) count once.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// chromeEvent is one Chrome trace-event object (ts and dur in µs).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeJSON renders the spans as Chrome trace-event JSON (Perfetto
// loadable; `manifestcheck -trace` validates it). Each span carries its
// ID, parent, metric and charged child time as args.
func (t *Tracer) ChromeJSON(process string) ([]byte, error) {
	evs := []chromeEvent{{Name: "process_name", Ph: "M", Args: map[string]any{"name": process}}}
	for _, sp := range t.spans {
		args := map[string]any{"id": sp.ID, "parent": sp.Parent, "metric": sp.Metric}
		for m, ns := range sp.Charged {
			args["charged."+m+"_ns"] = ns
		}
		evs = append(evs, chromeEvent{
			Name: sp.Name, Ph: "X",
			Ts: float64(sp.Start) / 1e3, Dur: float64(sp.End-sp.Start) / 1e3,
			Args: args,
		})
	}
	return json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ms"})
}

// WriteChrome writes the trace to path and validates it with the same
// structural check `manifestcheck -trace` applies.
func (t *Tracer) WriteChrome(path, process string) error {
	data, err := t.ChromeJSON(process)
	if err != nil {
		return err
	}
	if err := export.Validate(data); err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
