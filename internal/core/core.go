// Package core orchestrates the full reproduction: it builds a datacenter
// (topology + services), runs the two collection systems over it, and
// executes one experiment per table and figure of the paper's evaluation,
// returning structured results the bench harness and cmd/experiments
// render.
//
// The package is the reproduction's public surface: construct a System,
// then call the Table*/Figure* methods. Every experiment is deterministic
// in (Config.Seed, Config.Scale).
package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/services"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// Config selects the scale, seed, service parameters, and experiment
// durations.
type Config struct {
	Scale  topology.Scale
	Seed   uint64
	Params services.Params

	// ShortTraceSec is used by sub-second analyses (heavy hitters,
	// concurrency, rates): the paper's two-minute captures, scaled.
	ShortTraceSec int
	// LongTraceSec is used by flow size/duration analyses: the paper's
	// ten-minute captures, scaled.
	LongTraceSec int
	// FleetWindows and FleetWindowSec define the Fbflow observation: the
	// paper's 24-hour day is FleetWindows windows of FleetWindowSec
	// seconds each, diurnally modulated.
	FleetWindows   int
	FleetWindowSec float64
	// FleetSamples is the per-component flow sampling resolution.
	FleetSamples int
	// FleetMatrix switches fleet collection from per-host flow sampling
	// to vectorised traffic-matrix synthesis: each window packs
	// per-(src rack, dst rack) demand cells in bulk and draws one
	// representative flow per cell. At million-host scales this replaces
	// tens of millions of per-host emissions per window with a few
	// million rack-pair cells. Matrix-mode rng streams are keyed by
	// (seed, window, rack shard), so results stay bit-identical at any
	// Taggers value; the dataset differs from sampling mode by design.
	FleetMatrix bool
	// MemCeilingBytes, when positive, is stamped into the run manifest
	// together with the measured fleet heap peak; cmd/manifestcheck
	// asserts the peak stayed under the ceiling. Zero means no ceiling.
	// The serve loop (cmd/dcsim -serve) additionally enforces it live:
	// a window whose post-collection heap exceeds the ceiling fails the
	// run.
	MemCeilingBytes int64

	// SketchMode replaces the exact open-addressing heavy-hitter tables
	// with fixed-memory sketches (space-saving candidates refined by
	// count-min estimates; see internal/sketch) and adds HLL distinct
	// flow/host/rack cardinalities to fleet collection. Results become
	// approximate within the bounds the sketcherr harness enforces, but
	// analysis memory stops growing with the key population — the mode
	// endless serve runs use. Default off: the exact path stays
	// bit-identical to previous releases.
	SketchMode bool

	// Parallelism is the worker count of the parallel experiment engine:
	// independent (role, seconds) trace bundles fan out across this many
	// goroutines when the suite is prewarmed. 0 means GOMAXPROCS. Results
	// are bit-identical for every value — each bundle owns its generator,
	// rng stream, and sinks, so worker count only changes wall-clock.
	Parallelism int
	// Taggers sizes the fbflow tagging stage: the number of concurrent
	// shard workers of the fleet collection engine, each tagging its
	// records inline into its own Partial. 0 means GOMAXPROCS. Like
	// Parallelism, it does not affect results: shard rng streams are
	// keyed by (seed, window, shard) and partials merge in a fixed order.
	Taggers int

	// FaultScenario, when non-empty, runs the packet-level degraded-mode
	// experiment under the named fault scenario (see
	// netsim.FaultScenarios) and folds its counters into Summarize. The
	// schedule is a pure function of (Seed, Scenario, topology), so the
	// bit-identical-at-any-parallelism contract is preserved.
	FaultScenario string

	// TraceSample is the in-band telemetry flow sampling fraction: each
	// flow is selected by rng.NewKeyed(Seed, "telemetry", flowHash), so
	// the traced set is a pure function of (Seed, flow key) and identical
	// at any Parallelism. 0 disables the telemetry experiment entirely —
	// untraced fabrics pay only nil checks and the suite omits the
	// telemetry section.
	TraceSample float64
	// QueueInterval is the fixed interval at which every switch port's
	// queued bytes are sampled into occupancy timelines during the
	// telemetry experiment. Large topologies stretch it to stay within a
	// per-window sample budget.
	QueueInterval netsim.Time

	// Obs, when non-nil, receives counters, stage spans, and progress from
	// every pipeline stage. Instrumentation observes the computation but
	// never participates in it: hot paths increment worker-local shards
	// that fold at the same task-order frontier as result partials, so
	// enabling metrics cannot perturb any experiment output. Nil disables
	// collection entirely (every obs method on nil is a no-op).
	Obs *obs.Registry

	// Audit, when non-nil, is the determinism flight recorder: every
	// pipeline stage folds a streaming content hash of its canonical
	// output into a per-cell checkpoint ledger (see internal/obs/audit).
	// Auditing holds the same contract as Obs: it observes but never
	// participates — the canonical digest is byte-identical with audit
	// on or off, and the ledger itself is identical at any worker or
	// agent count. Nil disables recording entirely (every audit method
	// on nil is a no-op).
	Audit *audit.Recorder
}

// Workers resolves Parallelism to a concrete worker count.
func (c Config) Workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// TaggerWorkers resolves Taggers to a concrete worker count.
func (c Config) TaggerWorkers() int {
	if c.Taggers > 0 {
		return c.Taggers
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultConfig returns the standard experiment configuration: small
// scale, two-minute short traces, ten-minute long traces, and a 24-window
// synthetic day.
func DefaultConfig() Config {
	return Config{
		Scale:          topology.ScaleSmall,
		Seed:           42,
		Params:         services.DefaultParams(),
		ShortTraceSec:  120,
		LongTraceSec:   600,
		FleetWindows:   24,
		FleetWindowSec: 60,
		FleetSamples:   8,
		TraceSample:    0.1,
		QueueInterval:  200 * netsim.Microsecond,
	}
}

// QuickConfig returns a configuration sized for unit tests and smoke
// runs: tiny fleet, seconds-long traces.
func QuickConfig() Config {
	c := DefaultConfig()
	c.Scale = topology.ScaleTiny
	c.ShortTraceSec = 10
	c.LongTraceSec = 20
	c.FleetWindows = 6
	c.FleetWindowSec = 10
	return c
}

// MonitoredRoles are the four server classes the paper's port-mirror
// study covers (§3.3.2).
var MonitoredRoles = []topology.Role{
	topology.RoleWeb,
	topology.RoleCacheFollower,
	topology.RoleCacheLeader,
	topology.RoleHadoop,
}

// System is a built datacenter ready to run experiments. Its experiment
// methods are safe for concurrent use: memoized datasets are guarded by a
// mutex plus per-entry singleflight, so the parallel engine can fan
// experiments out without generating any bundle twice.
type System struct {
	Cfg  Config
	Topo *topology.Topology
	Pick *services.Picker

	mu        sync.Mutex
	bundles   map[bundleKey]*bundleSlot
	fleetOnce sync.Once
	fleet     *fbflow.Dataset
	fleetGaps []CoverageGap

	// Federated observability of the last distributed run: the latest
	// report per agent and each agent's final incarnation (-1 = never
	// connected). Set by the aggregator, read by manifest and timeline
	// export.
	agentReports []*obs.AgentReport
	agentIncs    []int64

	// Degraded-mode (fault injection) memos: the shared workload headers,
	// their offered totals, the healthy baseline arm, and the configured
	// scenario's result.
	degradedOnce     sync.Once
	degradedWork     [][]packet.Header
	degradedOffPkts  int64
	degradedOffBytes int64
	baselineOnce     sync.Once
	baselineMetrics  DegradedMetrics
	faultOnce        sync.Once
	faultRes         *DegradedResult

	// In-fabric telemetry memo (nil result when TraceSample is 0).
	telemOnce sync.Once
	telemRes  *TelemetryResult

	// obsIDs caches the metric IDs registered against Cfg.Obs (zero value
	// when observability is disabled — harmless, since every shard and
	// registry write is nil-gated before the IDs are used).
	obsIDs coreObsIDs
}

type bundleKey struct {
	role topology.Role
	sec  int
}

// bundleSlot is the singleflight cell of one memoized trace bundle:
// concurrent callers agree on the slot under System.mu, then exactly one
// runs the generation inside the slot's once while the rest block on it.
type bundleSlot struct {
	once sync.Once
	b    *TraceBundle
}

// NewSystem builds the topology and validates that the service models can
// run on it.
func NewSystem(cfg Config) (*System, error) {
	topo, err := topology.Build(topology.Preset(cfg.Scale))
	if err != nil {
		return nil, err
	}
	pick := services.NewPicker(topo)
	if err := pick.Validate(); err != nil {
		return nil, err
	}
	s := &System{Cfg: cfg, Topo: topo, Pick: pick, bundles: make(map[bundleKey]*bundleSlot)}
	s.initObs()
	return s, nil
}

// MustNewSystem is NewSystem that panics on error.
func MustNewSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Monitored returns the representative monitored host for a role: the
// first host of that role (within the first cluster hosting it), matching
// the paper's single-host mirror methodology.
func (s *System) Monitored(role topology.Role) topology.HostID {
	hs := s.Topo.HostsByRole(role)
	if len(hs) == 0 {
		panic(fmt.Sprintf("core: no hosts of role %v", role))
	}
	return hs[0]
}

// TraceBundle holds every streaming analysis attached to one monitored
// host's mirror capture, so each (role, duration) trace is generated
// exactly once per System.
type TraceBundle struct {
	Role    topology.Role
	Host    topology.HostID
	Seconds int

	Mix     *analysis.ServiceMix
	Loc     *analysis.LocalitySeries
	Flows   *analysis.Flows
	Rates   *analysis.RateSeries
	Sizes   *analysis.PacketSizes
	Arr     *analysis.Arrivals
	Conc    *analysis.Concurrency
	HH      map[analysis.Level]map[netsim.Time]analysis.HeavyTracker
	Packets int64
}

// HHBins are the sub-second windows the heavy-hitter analyses use
// (Table 4, Figs. 10–11). They nest (each divides the next, and 100 ms
// divides a second), as the exact HeavyGroup requires.
var HHBins = []netsim.Time{
	netsim.Millisecond,
	10 * netsim.Millisecond,
	100 * netsim.Millisecond,
}

// Trace returns the analysis bundle for role over seconds of capture,
// generating it on first use and memoizing per System. Concurrent calls
// for the same key block until the single generation completes; calls for
// different keys proceed in parallel.
func (s *System) Trace(role topology.Role, seconds int) *TraceBundle {
	key := bundleKey{role, seconds}
	s.mu.Lock()
	slot := s.bundles[key]
	if slot == nil {
		slot = new(bundleSlot)
		s.bundles[key] = slot
	}
	s.mu.Unlock()
	slot.once.Do(func() { slot.b = s.generateTrace(role, seconds) })
	return slot.b
}

// generateTrace runs one (role, seconds) capture and every streaming
// analysis attached to it. It touches no shared mutable state: the
// generator, rng stream, and sinks are bundle-local, which is what lets
// Prewarm run bundles on parallel workers with bit-identical results.
func (s *System) generateTrace(role topology.Role, seconds int) *TraceBundle {
	sp := s.Cfg.Obs.StartSpan(fmt.Sprintf("trace:%s:%ds", role, seconds))
	defer sp.End()
	host := s.Monitored(role)
	b := &TraceBundle{
		Role:    role,
		Host:    host,
		Seconds: seconds,
		Mix:     analysis.NewServiceMix(s.Topo, host),
		Loc:     analysis.NewLocalitySeries(s.Topo, host),
		Flows:   analysis.NewFlows(s.Topo, host),
		Rates:   analysis.NewRateSeries(s.Topo, host),
		Sizes:   analysis.NewPacketSizes(),
		Arr: analysis.NewArrivals(s.Topo.Addr(host),
			15*netsim.Millisecond, 100*netsim.Millisecond),
		Conc: analysis.NewConcurrency(s.Topo, host, analysis.ConcurrencyWindow),
		HH:   make(map[analysis.Level]map[netsim.Time]analysis.HeavyTracker),
	}
	// Figure 8 considers the primary peer group's racks: the paper plots
	// cache responses toward Web-server racks (8b/8c); Hadoop traffic is
	// effectively all-Hadoop already.
	switch role {
	case topology.RoleCacheFollower:
		b.Rates.Filter = func(d topology.HostID) bool { return s.Topo.HostRole(d) == topology.RoleWeb }
	case topology.RoleCacheLeader:
		b.Rates.Filter = func(d topology.HostID) bool {
			r := s.Topo.HostRole(d)
			return r == topology.RoleCacheFollower || r == topology.RoleCacheLeader
		}
	case topology.RoleWeb:
		b.Rates.Filter = func(d topology.HostID) bool { return s.Topo.HostRole(d) == topology.RoleCacheFollower }
	}
	sinks := workload.Fanout{b.Mix, b.Loc, b.Flows, b.Rates, b.Sizes, b.Arr, b.Conc}
	sinks = append(sinks, s.heavySinks(host, b.HH)...)

	tr := services.NewTrace(s.Pick, host, s.Cfg.Seed^uint64(role)<<8^uint64(seconds), s.Cfg.Params, sinks)
	tr.Run(netsim.Time(seconds) * netsim.Second)
	b.Packets = tr.Emitted()

	b.Conc.Finish()
	for _, m := range b.HH {
		for _, hh := range m {
			hh.Finish()
		}
	}
	s.foldTrace(b, tr.G.Batches())
	s.auditTrace(b)
	return b
}

// heavySinks fills hh with a tracker per (level, HHBins bin) and returns
// the sinks to attach: in exact mode one HeavyGroup, which makes one
// table update per outbound header and derives every pair at bin roll
// (finishing any of its trackers finishes it); in sketch mode one
// SketchHeavyHitters per pair, since space-saving summaries depend on
// arrival order and cannot be folded.
func (s *System) heavySinks(host topology.HostID, hh map[analysis.Level]map[netsim.Time]analysis.HeavyTracker) workload.Fanout {
	var g *analysis.HeavyGroup
	var sinks workload.Fanout
	if !s.Cfg.SketchMode {
		g = analysis.NewHeavyGroup(s.Topo, host, analysis.Levels, HHBins)
		sinks = append(sinks, g)
	}
	for _, lvl := range analysis.Levels {
		hh[lvl] = make(map[netsim.Time]analysis.HeavyTracker)
		for _, bin := range HHBins {
			if g != nil {
				hh[lvl][bin] = g.Tracker(lvl, bin)
				continue
			}
			sk := analysis.NewSketchHeavyHitters(s.Topo, host, lvl, bin)
			hh[lvl][bin] = sk
			sinks = append(sinks, sk)
		}
	}
	return sinks
}

// DiurnalFactor returns the load multiplier at a fraction t∈[0,1) through
// the synthetic day: a sinusoid with a 2× peak-to-trough swing (§4.1).
func DiurnalFactor(t float64) float64 {
	// 1 + A·sin: A = 1/3 gives max/min = (4/3)/(2/3) = 2.
	return 1 + (1.0/3.0)*math.Sin(2*math.Pi*t)
}
