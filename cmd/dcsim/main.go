// Command dcsim runs the synthetic datacenter and exports its datasets:
// a port-mirror packet-header trace for one monitored host (the §3.3.2
// collection path) and/or a summary of the fleet-wide Fbflow view (the
// §3.3.1 path).
//
// Stdout carries only dataset output (rendered tables, -load summaries);
// diagnostics such as "wrote N headers" go to stderr through log/slog.
//
// Usage:
//
//	dcsim -mirror web -seconds 30 -out web.fbm     # write a binary trace
//	dcsim -fleet                                   # print the fleet view
//	dcsim -fleet -scale xlarge -matrix -windows 1  # million-host matrix window
//	dcsim -fleet -parallel 4                       # same view, 4 workers
//	dcsim -faults csw-down                         # degraded-mode fault run
//	dcsim -telemetry -paths-out paths.jsonl        # INT path records + occupancy
//	dcsim -serve -sketch -metrics-addr :9090       # endless rolling windows,
//	                                               # bounded memory, live gauges;
//	                                               # SIGHUP reloads -serve-config,
//	                                               # SIGINT/SIGTERM stop cleanly
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fbdcnet/internal/cli"
	"fbdcnet/internal/core"
	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/mirror"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/export"
	"fbdcnet/internal/prof"
	"fbdcnet/internal/services"
	"fbdcnet/internal/telemetry"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

var roleNames = map[string]topology.Role{
	"web":     topology.RoleWeb,
	"cache-f": topology.RoleCacheFollower,
	"cache-l": topology.RoleCacheLeader,
	"hadoop":  topology.RoleHadoop,
	"mf":      topology.RoleMultifeed,
	"slb":     topology.RoleSLB,
	"db":      topology.RoleDB,
	"misc":    topology.RoleMisc,
}

func main() {
	mirrorRole := flag.String("mirror", "", "write a mirror trace for this role (web|cache-f|cache-l|hadoop|mf|slb|db|misc)")
	seconds := flag.Int("seconds", 30, "trace duration in seconds")
	out := flag.String("out", "trace.fbm", "output trace file")
	pcapOut := flag.String("pcap", "", "also export the mirror trace as a pcap file")
	fleet := flag.Bool("fleet", false, "run the fleet-wide Fbflow view and print its summary")
	distributed := flag.Int("distributed", 0, "with -fleet: collect through this many local agent processes streaming binary partials to an in-process aggregator (0 = in-process collection)")
	serve := flag.Bool("serve", false, "run the endless rolling-window collection loop (SIGHUP reloads -serve-config, SIGINT/SIGTERM stop cleanly)")
	serveWindows := flag.Int("serve-windows", 0, "with -serve: stop after this many windows (0 = run until signalled)")
	serveConfig := flag.String("serve-config", "", "with -serve: JSON file re-read on SIGHUP (window_sec, samples, matrix, taggers, mem_ceiling_mb, sketch)")
	memCeilingMB := flag.Int64("mem-ceiling-mb", 0, "stamp this memory ceiling (MiB) into the run manifest; cmd/manifestcheck asserts the fleet heap peak stayed under it (0 = no ceiling)")
	saveDS := flag.String("save", "", "with -fleet: archive the Fbflow dataset to this file")
	loadDS := flag.String("load", "", "print the summary of a previously archived Fbflow dataset")
	parallel := flag.Int("parallel", 0, "worker goroutines for dataset generation (0 = GOMAXPROCS); results are identical at any value")
	faults := flag.String("faults", "", fmt.Sprintf("run the degraded-mode fault experiment for a scenario (%s)",
		strings.Join(netsim.FaultScenarios(), "|")))
	telem := flag.Bool("telemetry", false, "run the in-fabric telemetry experiment and print its report")
	traceSample := flag.Float64("trace-sample", 0.1, "in-band telemetry flow sampling fraction (0 disables)")
	queueInterval := flag.Int("queue-interval", 200, "queue occupancy sampling interval, microseconds")
	pathsOut := flag.String("paths-out", "", "with -telemetry: write retained path records (JSONL, readable by traceview -paths) to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	manifestPath := flag.String("manifest", "", "write the run manifest (config, stage timings, counters; distributed runs add the per-agent section) to this file")
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

	cfg := core.QuickConfig()
	if err := ff.Apply(&cfg, logger); err != nil {
		logger.Error("bad flags", "err", err)
		os.Exit(2)
	}
	if bb := cfg.Audit.BB(); bb != nil {
		defer bb.HandlePanic(ff.AuditOut)
	}
	cfg.MemCeilingBytes = *memCeilingMB << 20
	cfg.Parallelism = *parallel
	cfg.Taggers = *parallel
	cfg.FaultScenario = *faults
	cfg.TraceSample = *traceSample
	cfg.QueueInterval = netsim.Time(*queueInterval) * netsim.Microsecond
	sys, err := core.NewSystem(cfg)
	if err != nil {
		logger.Error("building system", "err", err)
		os.Exit(1)
	}

	if ff.Agent {
		if code := ff.RunAgent(sys, logger); code != 0 {
			os.Exit(code)
		}
		return
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

	did := false
	if *serve {
		if err := runServe(sys, logger, *serveWindows, *serveConfig); err != nil {
			logger.Error("serve loop failed", "err", err)
			os.Exit(1)
		}
		did = true
	}
	if *faults != "" {
		ok := false
		for _, sc := range netsim.FaultScenarios() {
			if *faults == sc {
				ok = true
			}
		}
		if !ok {
			logger.Error("unknown fault scenario", "scenario", *faults,
				"have", strings.Join(netsim.FaultScenarios(), "|"))
			os.Exit(2)
		}
		fmt.Print(sys.Degraded().Render())
		did = true
	}
	if *telem {
		res := sys.Telemetry()
		if res == nil {
			logger.Error("-telemetry needs a positive -trace-sample")
			os.Exit(2)
		}
		fmt.Print(res.Render())
		if *pathsOut != "" {
			f, err := os.Create(*pathsOut)
			if err != nil {
				logger.Error("creating path record file", "err", err)
				os.Exit(1)
			}
			if err := telemetry.WriteRecords(f, res.Records, res.Switches); err != nil {
				logger.Error("writing path records", "err", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				logger.Error("closing path record file", "err", err)
				os.Exit(1)
			}
			logger.Info("wrote telemetry path records", "records", len(res.Records), "path", *pathsOut)
		}
		did = true
	}
	if *mirrorRole != "" {
		role, ok := roleNames[*mirrorRole]
		if !ok {
			logger.Error("unknown role", "role", *mirrorRole)
			os.Exit(2)
		}
		f, err := os.Create(*out)
		if err != nil {
			logger.Error("creating trace file", "err", err)
			os.Exit(1)
		}
		w, err := mirror.NewWriter(f)
		if err != nil {
			logger.Error("opening trace writer", "err", err)
			os.Exit(1)
		}
		sink := workload.Fanout{w}
		var pw *mirror.PcapWriter
		var pf *os.File
		if *pcapOut != "" {
			pf, err = os.Create(*pcapOut)
			if err != nil {
				logger.Error("creating pcap file", "err", err)
				os.Exit(1)
			}
			pw, err = mirror.NewPcapWriter(pf)
			if err != nil {
				logger.Error("opening pcap writer", "err", err)
				os.Exit(1)
			}
			sink = append(sink, pw)
		}
		host := sys.Monitored(role)
		sp := cfg.Obs.StartSpan(fmt.Sprintf("mirror:%s:%ds", *mirrorRole, *seconds))
		tr := services.NewTrace(sys.Pick, host, ff.Seed, cfg.Params, sink)
		tr.Run(netsim.Time(*seconds) * netsim.Second)
		sp.End()
		if err := w.Close(); err != nil {
			logger.Error("writing trace", "err", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			logger.Error("closing trace file", "err", err)
			os.Exit(1)
		}
		if pw != nil {
			if err := pw.Close(); err != nil {
				logger.Error("writing pcap", "err", err)
				os.Exit(1)
			}
			if err := pf.Close(); err != nil {
				logger.Error("closing pcap file", "err", err)
				os.Exit(1)
			}
			logger.Info("wrote pcap export", "path", *pcapOut)
		}
		logger.Info("wrote mirror trace", "headers", w.Count(), "role", role.String(),
			"host", int(host), "path", *out)
		did = true
	}
	if *fleet {
		if *distributed > 0 {
			if code := ff.CollectDistributed(sys, *distributed, logger); code != 0 {
				os.Exit(code)
			}
		}
		fmt.Print(sys.Table3().Render())
		fmt.Println()
		fmt.Print(sys.Section41().Render())
		if *saveDS != "" {
			f, err := os.Create(*saveDS)
			if err != nil {
				logger.Error("creating dataset archive", "err", err)
				os.Exit(1)
			}
			if err := sys.FleetDataset().Save(f); err != nil {
				logger.Error("archiving dataset", "err", err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				logger.Error("closing dataset archive", "err", err)
				os.Exit(1)
			}
			logger.Info("archived Fbflow dataset", "path", *saveDS)
		}
		did = true
	}
	if *loadDS != "" {
		f, err := os.Open(*loadDS)
		if err != nil {
			logger.Error("opening dataset archive", "err", err)
			os.Exit(1)
		}
		ds, err := fbflow.Load(f)
		f.Close()
		if err != nil {
			logger.Error("loading dataset", "err", err)
			os.Exit(1)
		}
		fmt.Printf("archived dataset: %s total bytes, %d minutes\n",
			renderSI(ds.TotalBytes()), len(ds.PerMinute()))
		for _, l := range topology.Localities {
			fmt.Printf("  %-17s %5.1f%%\n", l, 100*ds.LocalityShareAll()[l])
		}
		did = true
	}
	if !did {
		flag.Usage()
		os.Exit(2)
	}

	if *manifestPath != "" {
		m := cfg.Obs.Manifest(cfg.ManifestMeta("dcsim"))
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
			logger.Error("writing run trace", "err", err)
			os.Exit(1)
		}
		logger.Info("wrote run timeline", "path", *traceOut, "procs", len(procs))
	}
}

// renderSI formats bytes with an SI suffix.
func renderSI(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	}
	return fmt.Sprintf("%.0f", v)
}
