// Package obs is the deterministic-safe observability layer of the
// reproduction: sharded counters and histograms for the parallel hot
// paths, span timing around pipeline stages, progress trackers for the
// live endpoint, and the run manifest written next to the experiment
// transcript.
//
// The design rule throughout is that instrumentation may observe the
// computation but never participate in it. Hot paths increment plain
// int64 slots in a worker-local Shard — no atomics, no locks, no
// allocation — and shards fold into the registry only at deterministic
// frontiers (the same task-order frontier where fbflow.Partial merges, or
// a fixed worker order after a parallel stage drains). Folded state is
// guarded by one mutex and read by the HTTP endpoint, so live scraping
// races with nothing. A nil *Registry disables everything: every method
// on a nil receiver is a no-op, which is what keeps the instrumented
// paths at near-zero cost when no sink is registered.
package obs

import (
	"math/bits"
	"sync"
	"time"
)

// CounterID indexes a registered counter in shards and the registry.
type CounterID int

// HistID indexes a registered histogram.
type HistID int

// histBuckets is the number of power-of-two buckets per histogram:
// bucket i counts observations v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i). int64 observations never need more than 64.
const histBuckets = 64

// histData is one folded histogram: bucket counts plus sum and count for
// the Prometheus exposition.
type histData struct {
	buckets [histBuckets]int64
	sum     int64
	count   int64
}

// spanStats accumulates every completed execution of one named stage.
type spanStats struct {
	count   int64
	running int64
	wallNs  int64
	cpuNs   int64
	allocs  uint64
	bytes   uint64
}

// progressState is one task's completion tracker.
type progressState struct {
	done  int64
	total int64
}

// Registry is the folded metric state of one run. Create with
// NewRegistry; a nil *Registry is a valid, fully disabled instance.
//
// Registration (Counter, Histogram) must happen before shards are
// created; folding, gauges, series, spans, and progress updates may
// happen at any time from any goroutine.
type Registry struct {
	mu    sync.Mutex
	start time.Time

	counterNames []string
	counterHelp  []string
	counterIDs   map[string]CounterID
	counters     []int64

	histNames []string
	histHelp  []string
	histIDs   map[string]HistID
	hists     []histData

	gaugeOrder []string
	gauges     map[string]float64

	// series are labeled counters registered lazily at fold time (never
	// on a hot path), keyed by the full Prometheus series name, e.g.
	// `fbdcnet_workload_headers_total{role="Web"}`.
	seriesOrder []string
	series      map[string]float64

	spanOrder []string
	spans     map[string]*spanStats

	// events is the bounded span-event ledger behind the unified run
	// timeline: every completed span's [start, end] on the wall clock, in
	// completion order. Past maxSpanEvents new events are dropped and
	// counted, so a pathological run degrades the trace, not the process.
	events        []SpanEvent
	eventsDropped int64

	progOrder []string
	progress  map[string]*progressState

	// panels are preformatted text blocks rendered on the live progress
	// page (e.g. the aggregator's agent-liveness table).
	panelOrder []string
	panels     map[string]string
}

// SpanEvent is one completed span occurrence on the wall clock, in unix
// nanoseconds. Events from different processes on the same host share
// the clock, which is what lets obs/export lay a whole distributed run
// on one timeline.
type SpanEvent struct {
	Name    string
	StartNs int64
	EndNs   int64
}

// maxSpanEvents bounds the per-registry event ledger.
const maxSpanEvents = 8192

// NewRegistry returns an empty registry with its start time stamped.
func NewRegistry() *Registry {
	return &Registry{
		start:      time.Now(),
		counterIDs: map[string]CounterID{},
		histIDs:    map[string]HistID{},
		gauges:     map[string]float64{},
		series:     map[string]float64{},
		spans:      map[string]*spanStats{},
		progress:   map[string]*progressState{},
		panels:     map[string]string{},
	}
}

// Enabled reports whether the registry collects anything.
func (r *Registry) Enabled() bool { return r != nil }

// Start returns the registry's creation time (zero when disabled).
func (r *Registry) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// Counter registers (or finds) a counter by name and returns its ID.
// Register every counter before creating shards.
func (r *Registry) Counter(name, help string) CounterID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.counterIDs[name]; ok {
		return id
	}
	return r.counterLocked(name, help)
}

// counterLocked registers a counter. Caller holds r.mu and has checked
// the name is new.
func (r *Registry) counterLocked(name, help string) CounterID {
	id := CounterID(len(r.counterNames))
	r.counterIDs[name] = id
	r.counterNames = append(r.counterNames, name)
	r.counterHelp = append(r.counterHelp, help)
	r.counters = append(r.counters, 0)
	return id
}

// Histogram registers (or finds) a power-of-two histogram by name.
func (r *Registry) Histogram(name, help string) HistID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.histIDs[name]; ok {
		return id
	}
	return r.histogramLocked(name, help)
}

// histogramLocked registers a histogram. Caller holds r.mu and has
// checked the name is new.
func (r *Registry) histogramLocked(name, help string) HistID {
	id := HistID(len(r.histNames))
	r.histIDs[name] = id
	r.histNames = append(r.histNames, name)
	r.histHelp = append(r.histHelp, help)
	r.hists = append(r.hists, histData{})
	return id
}

// AddCounter folds v directly into a registered counter under the
// registry lock. For coarse, stage-granularity accounting only; hot
// paths go through shards.
func (r *Registry) AddCounter(id CounterID, v int64) {
	if r == nil || v == 0 {
		return
	}
	r.mu.Lock()
	r.counters[id] += v
	r.mu.Unlock()
}

// Observe folds one observation directly into a registered histogram.
// Coarse-granularity use only; hot paths observe into shards.
func (r *Registry) Observe(id HistID, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := &r.hists[id]
	h.buckets[bucketOf(v)]++
	h.sum += v
	h.count++
	r.mu.Unlock()
}

// bucketOf maps an observation to its power-of-two bucket.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// SetGauge sets a named gauge. Gauges are registered lazily; they are
// set at stage granularity (utilization, coverage), never on hot paths.
func (r *Registry) SetGauge(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if _, ok := r.gauges[name]; !ok {
		r.gaugeOrder = append(r.gaugeOrder, name)
	}
	r.gauges[name] = v
	r.mu.Unlock()
}

// AddGauge adjusts a named gauge by a delta, registering it lazily at
// zero. The delta form serves connection-style gauges (agents up, links
// live) written from several goroutines, where last-write-wins SetGauge
// would lose updates.
func (r *Registry) AddGauge(name string, delta float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if _, ok := r.gauges[name]; !ok {
		r.gaugeOrder = append(r.gaugeOrder, name)
	}
	r.gauges[name] += delta
	r.mu.Unlock()
}

// Count accumulates v into a labeled series (full series name, labels
// included). Series are registered lazily at fold time.
func (r *Registry) Count(series string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if _, ok := r.series[series]; !ok {
		r.seriesOrder = append(r.seriesOrder, series)
	}
	r.series[series] += v
	r.mu.Unlock()
}

// Series builds a Prometheus series name from a metric name and
// label key/value pairs: Series("x_total", "role", "Web") returns
// `x_total{role="Web"}`. Label order follows the argument order, so one
// call site always produces one series.
func Series(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	out := name + "{"
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			out += ","
		}
		out += kv[i] + `="` + kv[i+1] + `"`
	}
	return out + "}"
}

// NewProgress registers a named progress tracker with the given total
// and returns it. Calling again with the same name returns the existing
// tracker (total updated when larger).
func (r *Registry) NewProgress(name string, total int64) *Progress {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.progress[name]
	if !ok {
		st = &progressState{}
		r.progress[name] = st
		r.progOrder = append(r.progOrder, name)
	}
	if total > st.total {
		st.total = total
	}
	return &Progress{r: r, st: st}
}

// Progress is one task's completion tracker; a nil *Progress is a no-op.
type Progress struct {
	r  *Registry
	st *progressState
}

// Set records absolute completion.
func (p *Progress) Set(done int64) {
	if p == nil {
		return
	}
	p.r.mu.Lock()
	if done > p.st.done {
		p.st.done = done
	}
	p.r.mu.Unlock()
}

// Shard is a worker-local block of counter and histogram slots. It is
// not safe for concurrent use — that is the point: one worker owns it,
// increments are plain int64 stores, and the owner folds it into the
// registry at a deterministic frontier. A nil *Shard is a no-op.
type Shard struct {
	reg    *Registry
	counts []int64
	hists  []histData
}

// NewShard returns a shard sized to the currently registered metrics.
func (r *Registry) NewShard() *Shard {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return &Shard{
		reg:    r,
		counts: make([]int64, len(r.counterNames)),
		hists:  make([]histData, len(r.histNames)),
	}
}

// Inc increments a counter slot by one.
func (s *Shard) Inc(id CounterID) {
	if s != nil {
		s.counts[id]++
	}
}

// Add increments a counter slot by n.
func (s *Shard) Add(id CounterID, n int64) {
	if s != nil {
		s.counts[id] += n
	}
}

// Observe records one histogram observation.
func (s *Shard) Observe(id HistID, v int64) {
	if s == nil {
		return
	}
	h := &s.hists[id]
	h.buckets[bucketOf(v)]++
	h.sum += v
	h.count++
}

// Fold merges the shard into the registry and resets it for reuse.
// Counter folding is commutative, but callers fold at a deterministic
// frontier anyway so the metric values themselves are reproducible
// run-to-run at any worker count.
func (s *Shard) Fold() {
	if s == nil {
		return
	}
	r := s.reg
	r.mu.Lock()
	for i, v := range s.counts {
		if v != 0 {
			r.counters[i] += v
			s.counts[i] = 0
		}
	}
	for i := range s.hists {
		sh := &s.hists[i]
		if sh.count == 0 {
			continue
		}
		h := &r.hists[i]
		for b, c := range sh.buckets {
			h.buckets[b] += c
		}
		h.sum += sh.sum
		h.count += sh.count
		*sh = histData{}
	}
	r.mu.Unlock()
}

// CounterValue reads a folded counter (test and manifest helper).
func (r *Registry) CounterValue(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.counterIDs[name]
	if !ok {
		return 0
	}
	return r.counters[id]
}

// HistogramCount reads a folded histogram's observation count (test and
// federation-equality helper; the count — unlike the wall-time sum — is
// comparable across runs and modes).
func (r *Registry) HistogramCount(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.histIDs[name]
	if !ok {
		return 0
	}
	return r.hists[id].count
}

// SpanEvents returns a copy of the span-event ledger and the number of
// events dropped past the ledger cap.
func (r *Registry) SpanEvents() ([]SpanEvent, int64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanEvent, len(r.events))
	copy(out, r.events)
	return out, r.eventsDropped
}

// addEventLocked appends one completed span to the ledger. Caller holds
// r.mu.
func (r *Registry) addEventLocked(name string, startNs, endNs int64) {
	if len(r.events) >= maxSpanEvents {
		r.eventsDropped++
		return
	}
	r.events = append(r.events, SpanEvent{Name: name, StartNs: startNs, EndNs: endNs})
}

// SetPanel installs (or replaces) a named preformatted text block on the
// live progress page. Panels are rendered verbatim after the progress
// bars, in first-registration order.
func (r *Registry) SetPanel(name, text string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if _, ok := r.panels[name]; !ok {
		r.panelOrder = append(r.panelOrder, name)
	}
	r.panels[name] = text
	r.mu.Unlock()
}

// SeriesValue reads a labeled series value (test helper).
func (r *Registry) SeriesValue(series string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.series[series]
}
