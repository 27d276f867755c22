package obs

import (
	"runtime"
	"time"
)

// Spans time pipeline stages: trace generation, the netsim event loop,
// fleet collection, each analysis extraction, merges. A span records
// wall time always, plus process-wide CPU time and allocation deltas.
// The process-wide deltas are exact for stages that run alone (the
// sequential suite sections) and an upper bound for stages that overlap
// on the parallel engine; the manifest labels them accordingly.

// Span is one in-flight stage timing. The zero Span (from a nil
// registry) is a no-op.
type Span struct {
	r       *Registry
	name    string
	t0      time.Time
	cpu0    int64
	allocs0 uint64
	bytes0  uint64
}

// StartSpan begins timing a named stage. Repeated stages accumulate
// under one name (count, total wall, total CPU, total allocs).
func (r *Registry) StartSpan(name string) Span {
	if r == nil {
		return Span{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := Span{
		r:       r,
		name:    name,
		t0:      time.Now(),
		cpu0:    processCPUNs(),
		allocs0: ms.Mallocs,
		bytes0:  ms.TotalAlloc,
	}
	r.mu.Lock()
	r.spanStats(name).running++
	r.mu.Unlock()
	return s
}

// End completes the span and folds its measurements into the registry.
func (s Span) End() {
	if s.r == nil {
		return
	}
	end := time.Now()
	wall := end.Sub(s.t0)
	cpu := processCPUNs() - s.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := s.r
	r.mu.Lock()
	st := r.spanStats(s.name)
	st.running--
	st.count++
	st.wallNs += wall.Nanoseconds()
	if cpu > 0 {
		st.cpuNs += cpu
	}
	st.allocs += ms.Mallocs - s.allocs0
	st.bytes += ms.TotalAlloc - s.bytes0
	r.addEventLocked(s.name, s.t0.UnixNano(), end.UnixNano())
	r.mu.Unlock()
}

// RecordSpanAt folds one completed execution measured by the caller with
// known wall-clock endpoints, placing it on the timeline ledger as well
// as in the stage totals — used for spans whose lifetime outlives any
// one stack frame (an agent connection, a frontier stall).
func (r *Registry) RecordSpanAt(name string, start, end time.Time) {
	if r == nil {
		return
	}
	if end.Before(start) {
		end = start
	}
	r.mu.Lock()
	st := r.spanStats(name)
	st.count++
	st.wallNs += end.Sub(start).Nanoseconds()
	r.addEventLocked(name, start.UnixNano(), end.UnixNano())
	r.mu.Unlock()
}

// spanStats returns (creating if needed) the stats cell for name.
// Caller holds r.mu.
func (r *Registry) spanStats(name string) *spanStats {
	st, ok := r.spans[name]
	if !ok {
		st = &spanStats{}
		r.spans[name] = st
		r.spanOrder = append(r.spanOrder, name)
	}
	return st
}
