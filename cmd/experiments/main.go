// Command experiments regenerates every table and figure of the paper's
// evaluation from the synthetic datacenter and prints them in the paper's
// layout, one section per experiment.
//
// Stdout carries only the golden-checked experiment output (or the -json
// summary); every diagnostic goes to stderr through log/slog, so piping
// stdout to a file or diff stays clean. A run manifest (configuration,
// per-stage timings, packet counters) is written alongside the transcript,
// and -metrics-addr exposes live progress over HTTP while the run is hot.
//
// Usage:
//
//	experiments [-scale tiny|small|medium|large|xlarge] [-seed N] [-parallel N]
//	            [-matrix] [-windows N] [-mem-ceiling-mb N]
//	            [-short SECONDS] [-long SECONDS] [-only NAME]
//	            [-faults SCENARIO] [-trace-sample FRAC] [-queue-interval US]
//	            [-paths-out FILE] [-cpuprofile FILE] [-memprofile FILE]
//	            [-metrics-addr HOST:PORT] [-manifest FILE] [-quiet]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fbdcnet/internal/cli"
	"fbdcnet/internal/core"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/export"
	"fbdcnet/internal/prof"
	"fbdcnet/internal/telemetry"
)

func main() {
	memCeilingMB := flag.Int64("mem-ceiling-mb", 0, "stamp this memory ceiling (MiB) into the run manifest; cmd/manifestcheck asserts the fleet heap peak stayed under it (0 = no ceiling)")
	short := flag.Int("short", 30, "short (sub-second analyses) trace seconds")
	long := flag.Int("long", 60, "long (flow analyses) trace seconds")
	only := flag.String("only", "", "run a single experiment (e.g. table3, figure12, ablations, faults)")
	jsonOut := flag.Bool("json", false, "print a machine-readable summary instead of rendered tables")
	distributed := flag.Int("distributed", 0, "collect the fleet dataset through this many local agent processes streaming binary partials to an in-process aggregator (0 = in-process collection)")
	parallel := flag.Int("parallel", 0, "worker goroutines for dataset generation (0 = GOMAXPROCS); results are identical at any value")
	faults := flag.String("faults", "", fmt.Sprintf("fault scenario for the degraded-mode section and summary (%s)",
		strings.Join(netsim.FaultScenarios(), "|")))
	traceSample := flag.Float64("trace-sample", 0.1, "in-band telemetry flow sampling fraction (0 disables the telemetry section)")
	queueInterval := flag.Int("queue-interval", 200, "queue occupancy sampling interval, microseconds")
	pathsOut := flag.String("paths-out", "", "write retained telemetry path records (JSONL, readable by traceview -paths) to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	manifestPath := flag.String("manifest", "run_manifest.json", "write the run manifest (config, stage timings, counters; distributed runs add the per-agent section) to this file; empty disables")
	traceOut := flag.String("trace-out", "", "write the run timeline (all agents plus the aggregator on one clock) as Chrome trace-event JSON to this file")
	ff := cli.Register(flag.CommandLine, cli.HiddenAgent)
	flag.Parse()
	logger := ff.Logger()

	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		logger.Error("starting profiler", "err", err)
		os.Exit(2)
	}
	defer stop()

	if err := validScenario(*faults); err != nil {
		logger.Error("bad -faults", "err", err)
		os.Exit(2)
	}
	cfg := core.DefaultConfig()
	if err := ff.Apply(&cfg, logger); err != nil {
		logger.Error("bad flags", "err", err)
		os.Exit(2)
	}
	if bb := cfg.Audit.BB(); bb != nil {
		defer bb.HandlePanic(ff.AuditOut)
	}
	cfg.ShortTraceSec = *short
	cfg.LongTraceSec = *long
	cfg.Parallelism = *parallel
	cfg.Taggers = *parallel
	cfg.FaultScenario = *faults
	cfg.TraceSample = *traceSample
	cfg.QueueInterval = netsim.Time(*queueInterval) * netsim.Microsecond
	cfg.MemCeilingBytes = *memCeilingMB << 20
	if *pathsOut != "" && cfg.TraceSample <= 0 {
		logger.Error("-paths-out needs a positive -trace-sample")
		os.Exit(2)
	}

	sys, err := core.NewSystem(cfg)
	if err != nil {
		logger.Error("building system", "err", err)
		os.Exit(1)
	}

	if ff.Agent {
		// The hidden -distributed re-exec branch: stream one shard range
		// and exit before any experiment (or manifest) output.
		if code := ff.RunAgent(sys, logger); code != 0 {
			os.Exit(code)
		}
		return
	}
	if *distributed > 0 {
		if code := ff.CollectDistributed(sys, *distributed, logger); code != 0 {
			os.Exit(code)
		}
	}

	if ff.MetricsAddr != "" {
		srv, err := obs.Serve(ff.MetricsAddr, cfg.Obs)
		if err != nil {
			logger.Error("starting metrics endpoint", "err", err)
			os.Exit(1)
		}
		defer srv.Close()
		logger.Info("metrics endpoint listening", "addr", srv.Addr())
	}

	if *jsonOut {
		out, err := sys.Summarize().JSON()
		if err != nil {
			logger.Error("rendering summary", "err", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
	} else if core.WriteSuite(os.Stdout, sys, *only) == 0 {
		logger.Error("no experiment matches filter", "only", *only)
		os.Exit(2)
	}

	if *pathsOut != "" {
		if err := writePaths(*pathsOut, sys); err != nil {
			logger.Error("writing telemetry path records", "err", err)
			os.Exit(1)
		}
		logger.Info("wrote telemetry path records", "path", *pathsOut)
	}

	if *manifestPath != "" {
		m := cfg.Obs.Manifest(cfg.ManifestMeta("experiments"))
		m.Agents = sys.AgentManifestRecords()
		m.Audit = cfg.Audit.Section()
		if err := m.Validate(); err != nil {
			logger.Warn("manifest fails schema validation", "err", err)
		}
		if err := m.WriteFile(*manifestPath); err != nil {
			logger.Error("writing run manifest", "err", err)
			os.Exit(1)
		}
		logger.Info("wrote run manifest", "path", *manifestPath)
	}
	if *traceOut != "" {
		procs := export.FromRun(cfg.Obs, sys.AgentReports())
		if err := export.WriteFile(*traceOut, procs); err != nil {
			logger.Error("writing run timeline", "err", err)
			os.Exit(1)
		}
		logger.Info("wrote run timeline", "path", *traceOut, "procs", len(procs))
	}
}

// writePaths exports the telemetry experiment's retained path records as
// JSONL for traceview -paths.
func writePaths(path string, sys *core.System) error {
	res := sys.Telemetry()
	if res == nil {
		return fmt.Errorf("telemetry disabled")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteRecords(f, res.Records, res.Switches); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validScenario rejects unknown -faults values before any work happens.
func validScenario(name string) error {
	if name == "" {
		return nil
	}
	for _, sc := range netsim.FaultScenarios() {
		if name == sc {
			return nil
		}
	}
	return fmt.Errorf("unknown fault scenario %q (have %s)", name, strings.Join(netsim.FaultScenarios(), "|"))
}
