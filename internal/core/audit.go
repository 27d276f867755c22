package core

import (
	"fmt"
	"strings"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/telemetry"
	"fbdcnet/internal/topology"
)

// This file is the only bridge between the experiment engine and the
// determinism flight recorder — the audit twin of obsfold.go. Stages
// record checkpoints at the same frontiers their obs shards fold at,
// and every call is nil-gated, so an audit-off run pays one predicted
// branch per stage.

// auditTrace checkpoints one finished trace bundle: the capture itself
// (host + packet count) under "trace:<role>:<sec>s", then every
// attached analysis under "analysis:<role>:<sec>s:<name>". Each
// analysis folds its own canonical summary (see analysis FoldAudit
// methods), so a divergence names the exact analysis that drifted, not
// just the bundle.
func (s *System) auditTrace(b *TraceBundle) {
	rec := s.Cfg.Audit
	if !rec.Enabled() {
		return
	}
	var h audit.Hash
	h.I64(int64(b.Host))
	h.I64(b.Packets)
	rec.Record(fmt.Sprintf("trace:%s:%ds", b.Role, b.Seconds), audit.NonCell, audit.NonCell, &h)

	fold := func(name string, a interface{ FoldAudit(*audit.Hash) }) {
		var ah audit.Hash
		a.FoldAudit(&ah)
		rec.Record(fmt.Sprintf("analysis:%s:%ds:%s", b.Role, b.Seconds, name), audit.NonCell, audit.NonCell, &ah)
	}
	fold("mix", b.Mix)
	fold("locality", b.Loc)
	fold("flows", b.Flows)
	fold("rates", b.Rates)
	fold("sizes", b.Sizes)
	fold("arrivals", b.Arr)
	fold("concurrency", b.Conc)
	for _, lvl := range analysis.Levels {
		for _, bin := range HHBins {
			fold(fmt.Sprintf("hh:%s:%dms", strings.ToLower(lvl.String()), bin/netsim.Millisecond), b.HH[lvl][bin])
		}
	}
}

// auditTelemetry checkpoints the merged telemetry aggregate: the path-
// record totals and per-tier hop counts, folded in fixed enum order.
func (s *System) auditTelemetry(res *TelemetryResult) {
	rec := s.Cfg.Audit
	if !rec.Enabled() {
		return
	}
	var h audit.Hash
	a := &res.Agg
	h.I64(a.Sampled)
	h.I64(a.HopsTotal)
	h.I64(a.Delivered)
	h.I64(a.Dropped)
	h.I64(a.Rerouted)
	h.I64(a.Retransmit)
	for rc := telemetry.ReasonBufferDrop; rc < telemetry.NumReasons; rc++ {
		h.I64(a.DropsByReason[rc])
	}
	for t := telemetry.Tier(0); t < telemetry.NumTiers; t++ {
		h.I64(a.Tiers[t].Hops)
	}
	rec.Record(audit.StageTelemetry, audit.NonCell, audit.NonCell, &h)
}

// ConfigFromManifestMeta reconstructs the Config a manifest's config
// section describes — the inverse of Config.ManifestMeta, used by
// cmd/digestdiff -bisect to re-run a divergent cell from nothing but
// the manifest. Numbers arrive as float64 from JSON but keep their
// native types when the meta map is used in-process; absent keys keep
// the default-config value, so manifests from older runs still resolve.
func ConfigFromManifestMeta(m map[string]any) (Config, error) {
	c := DefaultConfig()
	num := func(key string, set func(float64)) {
		switch v := m[key].(type) {
		case float64:
			set(v)
		case int:
			set(float64(v))
		case int64:
			set(float64(v))
		case uint64:
			set(float64(v))
		}
	}
	if v, ok := m["scale"].(string); ok {
		sc, ok := topology.ParseScale(v)
		if !ok {
			return Config{}, fmt.Errorf("core: manifest config names unknown scale %q", v)
		}
		c.Scale = sc
	}
	num("seed", func(v float64) { c.Seed = uint64(v) })
	num("short_trace_sec", func(v float64) { c.ShortTraceSec = int(v) })
	num("long_trace_sec", func(v float64) { c.LongTraceSec = int(v) })
	num("fleet_windows", func(v float64) { c.FleetWindows = int(v) })
	num("fleet_window_sec", func(v float64) { c.FleetWindowSec = v })
	num("fleet_samples", func(v float64) { c.FleetSamples = int(v) })
	num("mem_ceiling_bytes", func(v float64) { c.MemCeilingBytes = int64(v) })
	num("trace_sample", func(v float64) { c.TraceSample = v })
	num("queue_interval_us", func(v float64) { c.QueueInterval = netsim.Time(v) * netsim.Microsecond })
	if v, ok := m["fleet_matrix"].(bool); ok {
		c.FleetMatrix = v
	}
	if v, ok := m["sketch_mode"].(bool); ok {
		c.SketchMode = v
	}
	if v, ok := m["fault_scenario"].(string); ok {
		c.FaultScenario = v
	}
	return c, nil
}

// AuditBisectResult is one cell's scheduling-sensitivity probe: the
// checkpoint the cell produces at one worker versus many.
type AuditBisectResult struct {
	Window, Shard int
	Workers       int              // the "many" arm's tagger count
	One, Many     audit.Checkpoint // fleet-collect checkpoints of the two arms
	Match         bool
}

// AuditBisectCell re-runs fleet collection up to the named cell's
// window at 1 tagger worker and at `workers` taggers, and compares the
// cell's fleet-collect checkpoints. A mismatch means the divergence is
// scheduling-sensitive (a real determinism bug in this build); a match
// means both schedules agree and the original divergence came from
// elsewhere — different binaries, corrupted input, or a planted
// perturbation. The probe trims the run to FleetWindows = window+1, so
// its absolute sums are not comparable to the original manifest's; only
// the two arms compare to each other.
func AuditBisectCell(cfg Config, window, shard, workers int) (AuditBisectResult, error) {
	if workers <= 1 {
		workers = 0 // resolve to GOMAXPROCS via TaggerWorkers
	}
	run := func(taggers int) (audit.Checkpoint, int, error) {
		c := cfg
		c.Obs = nil
		c.Audit = audit.New()
		c.Taggers = taggers
		c.FleetWindows = window + 1
		sys, err := NewSystem(c)
		if err != nil {
			return audit.Checkpoint{}, 0, err
		}
		if shard < 0 || shard >= sys.fleetShardsPerWindow() {
			return audit.Checkpoint{}, 0, fmt.Errorf("core: shard %d outside grid of %d shards/window", shard, sys.fleetShardsPerWindow())
		}
		sys.FleetDataset()
		for _, cp := range c.Audit.Checkpoints() {
			if cp.Stage == audit.StageFleetCollect && cp.Window == window && cp.Shard == shard {
				return cp, c.TaggerWorkers(), nil
			}
		}
		return audit.Checkpoint{}, 0, fmt.Errorf("core: cell (%d,%d) produced no checkpoint", window, shard)
	}
	one, _, err := run(1)
	if err != nil {
		return AuditBisectResult{}, err
	}
	many, n, err := run(workers)
	if err != nil {
		return AuditBisectResult{}, err
	}
	return AuditBisectResult{
		Window: window, Shard: shard, Workers: n,
		One: one, Many: many,
		Match: one.Sum == many.Sum && one.Count == many.Count,
	}, nil
}
