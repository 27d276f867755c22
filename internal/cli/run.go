package cli

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"slices"
	"strings"

	"fbdcnet/internal/core"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/export"
	"fbdcnet/internal/prof"
	"fbdcnet/internal/telemetry"
)

// Spec describes one command to the harness.
type Spec struct {
	Tool     string     // the manifest's tool name
	Manifest string     // default -manifest path; empty writes none unless asked
	Agent    AgentNames // spelling of the agent-identity flags
	Sim      bool       // register the simulation flags dcsim and experiments share
	// Usage replaces the shared usage text of the named flags where a
	// command words them for its own modes.
	Usage map[string]string
}

// Harness is the run wiring dcsim, experiments and fbflowd share: their
// common flags, one start sequence and one manifest-and-trace finish.
type Harness struct {
	*FleetFlags
	spec Spec
	fs   *flag.FlagSet

	Parallel int
	Manifest string
	TraceOut string

	// The simulation flags, registered only with Spec.Sim.
	Faults        string
	TraceSample   float64
	QueueInterval int
	PathsOut      string
	MemCeilingMB  int64
	CPUProfile    string
	MemProfile    string
	Distributed   int

	Logger *slog.Logger
	cfg    core.Config // the configuration the run was started with
	// agentMetrics is the -distributed agents' metrics endpoint table,
	// resolved with the flags.
	agentMetrics []string
}

// New registers spec's flags on fs.
func New(fs *flag.FlagSet, spec Spec) *Harness {
	h := &Harness{FleetFlags: Register(fs, spec.Agent), spec: spec, fs: fs}
	manifestUsage := "write the run manifest (config, stage timings, counters; distributed runs add the per-agent section) to this file"
	if spec.Manifest != "" {
		manifestUsage += "; empty disables"
	}
	fs.IntVar(&h.Parallel, "parallel", 0, "worker goroutines for dataset generation (0 = GOMAXPROCS); results are identical at any value")
	fs.StringVar(&h.Manifest, "manifest", spec.Manifest, manifestUsage)
	fs.StringVar(&h.TraceOut, "trace-out", "", "write the run timeline (all agents plus the aggregator on one clock) as Chrome trace-event JSON to this file")
	if spec.Sim {
		fs.StringVar(&h.Faults, "faults", "", fmt.Sprintf("fault scenario for the degraded-mode section and summary (%s)",
			strings.Join(netsim.FaultScenarios(), "|")))
		fs.Float64Var(&h.TraceSample, "trace-sample", 0.1, "in-band telemetry flow sampling fraction (0 disables the telemetry section)")
		fs.IntVar(&h.QueueInterval, "queue-interval", 200, "queue occupancy sampling interval, microseconds")
		fs.StringVar(&h.PathsOut, "paths-out", "", "write retained telemetry path records (JSONL, readable by traceview -paths) to this file")
		fs.Int64Var(&h.MemCeilingMB, "mem-ceiling-mb", 0, "stamp this memory ceiling (MiB) into the run manifest; cmd/manifestcheck asserts the fleet heap peak stayed under it (0 = no ceiling)")
		fs.StringVar(&h.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
		fs.StringVar(&h.MemProfile, "memprofile", "", "write a pprof heap profile to this file at exit")
		fs.IntVar(&h.Distributed, "distributed", 0, "collect the fleet dataset through this many local agent processes streaming binary partials to an in-process aggregator (0 = in-process collection)")
	}
	for name, usage := range spec.Usage {
		fs.Lookup(name).Usage = usage
	}
	return h
}

// Run parses args and runs the command: it checks every flag (setup
// checks the command's own and returns its base configuration, then
// Apply, the simulation flags and the -distributed agents' metrics
// endpoints), starts the profiler and the black
// box, builds the System, and either runs the agent or serves
// -metrics-addr, calls body and writes the manifest and timeline. It
// returns the exit status: 0 for -h and success, 2 for bad flags, 1 for
// failures, and body's status when that is non-zero. Every deferred
// cleanup runs on every path.
func (h *Harness) Run(args []string, setup func() (core.Config, error), body func(*core.System) int) int {
	if err := h.fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Diagnostics go to stderr: stdout stays reserved for dataset output.
	level := slog.LevelInfo
	if h.Quiet {
		level = slog.LevelWarn
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	slog.SetDefault(logger)
	h.Logger = logger
	cfg, err := setup()
	if err == nil {
		err = h.Apply(&cfg, logger)
	}
	if err == nil && h.Faults != "" && !slices.Contains(netsim.FaultScenarios(), h.Faults) {
		err = fmt.Errorf("unknown fault scenario %q (have %s)", h.Faults, strings.Join(netsim.FaultScenarios(), "|"))
	}
	if err == nil && h.PathsOut != "" && h.TraceSample <= 0 {
		err = errors.New("-paths-out needs a positive -trace-sample")
	}
	if err == nil && h.Distributed > 0 {
		h.agentMetrics, err = h.AnnounceAgentMetrics(h.Distributed, logger)
	}
	if err != nil {
		logger.Error("bad flags", "err", err)
		return 2
	}

	stop, err := prof.Start(h.CPUProfile, h.MemProfile)
	if err != nil {
		logger.Error("starting profiler", "err", err)
		return 2
	}
	defer stop()
	if bb := cfg.Audit.BB(); bb != nil {
		defer bb.HandlePanic(h.AuditOut)
	}
	cfg.Parallelism = h.Parallel
	cfg.Taggers = h.Parallel
	if h.spec.Sim {
		cfg.FaultScenario = h.Faults
		cfg.TraceSample = h.TraceSample
		cfg.QueueInterval = netsim.Time(h.QueueInterval) * netsim.Microsecond
		cfg.MemCeilingBytes = h.MemCeilingMB << 20
	}
	h.cfg = cfg
	sys, err := core.NewSystem(cfg)
	if err != nil {
		logger.Error("building system", "err", err)
		return 1
	}

	if h.Agent {
		// The hidden -distributed re-exec streams one shard range and
		// exits before any output; a public agent keeps its artifacts.
		code := h.RunAgent(sys, logger)
		if code != 0 || h.spec.Agent == HiddenAgent {
			return code
		}
		return h.finish(sys)
	}
	if h.MetricsAddr != "" {
		srv, err := obs.Serve(h.MetricsAddr, cfg.Obs)
		if err != nil {
			logger.Error("starting metrics endpoint", "err", err)
			return 1
		}
		defer srv.Close()
		logger.Info("metrics endpoint listening", "addr", srv.Addr())
	}
	if code := body(sys); code != 0 {
		return code
	}
	return h.finish(sys)
}

// Collect runs -distributed collection when it was asked for; it
// returns the exit status of CollectDistributed.
func (h *Harness) Collect(sys *core.System) int {
	if h.Distributed <= 0 {
		return 0
	}
	return h.CollectDistributed(sys, h.agentMetrics, h.Logger)
}

// WritePaths writes the telemetry experiment's retained path records to
// -paths-out as JSONL for traceview -paths, when that flag was given.
func (h *Harness) WritePaths(sys *core.System) int {
	if h.PathsOut == "" {
		return 0
	}
	res := sys.Telemetry()
	f, err := os.Create(h.PathsOut)
	if err == nil {
		err = telemetry.WriteRecords(f, res.Records, res.Switches)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		h.Logger.Error("writing telemetry path records", "err", err)
		return 1
	}
	h.Logger.Info("wrote telemetry path records", "path", h.PathsOut)
	return 0
}

// finish writes the run manifest and the Chrome trace-event timeline
// when asked. A manifest that fails its schema is a program bug: it is
// not written and the run exits 1.
func (h *Harness) finish(sys *core.System) int {
	if h.Manifest != "" {
		m := h.cfg.Obs.Manifest(h.cfg.ManifestMeta(h.spec.Tool))
		m.Agents = sys.AgentManifestRecords()
		m.Audit = h.cfg.Audit.Section()
		if err := m.Validate(); err != nil {
			h.Logger.Error("manifest fails schema validation", "err", err)
			return 1
		}
		if err := m.WriteFile(h.Manifest); err != nil {
			h.Logger.Error("writing run manifest", "err", err)
			return 1
		}
		h.Logger.Info("wrote run manifest", "path", h.Manifest, "agents", len(m.Agents))
	}
	if h.TraceOut != "" {
		procs := export.FromRun(h.cfg.Obs, sys.AgentReports())
		if err := export.WriteFile(h.TraceOut, procs); err != nil {
			h.Logger.Error("writing run timeline", "err", err)
			return 1
		}
		h.Logger.Info("wrote run timeline", "path", h.TraceOut, "procs", len(procs))
	}
	return 0
}
