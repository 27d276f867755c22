// Command fbflowd is the distributed form of the fleet collection
// pipeline: one aggregator process merging length-prefixed binary
// cell frames from N shard agents — the reproduction of Fbflow's
// agents → Scribe → aggregation tier shape (§3.3.1), scaled down to
// processes and sockets.
//
// The aggregator prints the fleet digest (canonical JSON) on stdout.
// For a fixed seed and shard map the digest is byte-identical to the
// single-process run (-single) at any agent count; a run that lost an
// agent mid-window carries an extra "coverage" block accounting the
// gapped cells and is otherwise identical to a run that never had them.
//
// Usage:
//
//	fbflowd -agents 4 -spawn                        # local 4-agent run, unix socket
//	fbflowd -single                                 # single-process reference digest
//	fbflowd -agents 4 -spawn -agent-faults          # seed-planned agent crash + restart
//	fbflowd -listen tcp:127.0.0.1:7461 -agents 2    # wait for external agents
//	fbflowd -agent -id 0 -agents 2 -connect tcp:host:7461   # one external agent
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"time"

	"fbdcnet/internal/cli"
	"fbdcnet/internal/core"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/export"
)

func main() {
	listen := flag.String("listen", "", "aggregator address (unix:/path, tcp:host:port, or bare socket path); empty with -spawn uses a private unix socket")
	spawnLocal := flag.Bool("spawn", false, "spawn the agents locally as child processes of this aggregator")
	single := flag.Bool("single", false, "run the collection single-process and print the same digest (the byte-identity reference)")
	reconnectWait := flag.Int("reconnect-wait-sec", 10, "seconds the aggregator waits for a dead agent to reconnect before gapping its remaining cells")
	parallel := flag.Int("parallel", 0, "with -single: worker goroutines (0 = GOMAXPROCS)")
	manifestPath := flag.String("manifest", "", "write the run manifest JSON here (aggregator runs include the federated per-agent section)")
	traceOut := flag.String("trace-out", "", "write the unified run timeline here as Chrome trace-event JSON (open in Perfetto)")
	ff := cli.Register(flag.CommandLine, cli.AgentNames{
		Mode: "agent", ID: "id", Agents: "agents", Incarnation: "incarnation", Connect: "connect",
	})
	flag.Parse()
	logger := ff.Logger()

	cfg := core.QuickConfig()
	if err := ff.Apply(&cfg, logger); err != nil {
		logger.Error("bad flags", "err", err)
		os.Exit(2)
	}
	if bb := cfg.Audit.BB(); bb != nil {
		defer bb.HandlePanic(ff.AuditOut)
	}
	cfg.Parallelism = *parallel
	cfg.Taggers = *parallel
	sys, err := core.NewSystem(cfg)
	if err != nil {
		logger.Error("building system", "err", err)
		os.Exit(1)
	}

	if ff.Agent {
		if code := ff.RunAgent(sys, logger); code != 0 {
			os.Exit(code)
		}
		writeObsArtifacts(sys, *manifestPath, *traceOut, logger)
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
	if *single {
		printDigest(sys, logger)
	} else {
		runAggregator(sys, ff, *listen, *spawnLocal, time.Duration(*reconnectWait)*time.Second, logger)
	}
	writeObsArtifacts(sys, *manifestPath, *traceOut, logger)
}

// writeObsArtifacts writes the run manifest and the Chrome trace-event
// timeline when the corresponding flags were given. Aggregator runs get
// the federated per-agent section and every agent's spans; other modes
// write their process-local view.
func writeObsArtifacts(sys *core.System, manifestPath, traceOut string, logger *slog.Logger) {
	if manifestPath != "" {
		m := sys.Cfg.Obs.Manifest(sys.Cfg.ManifestMeta("fbflowd"))
		m.Agents = sys.AgentManifestRecords()
		m.Audit = sys.Cfg.Audit.Section()
		if err := m.Validate(); err != nil {
			logger.Error("manifest failed schema validation", "err", err)
			os.Exit(1)
		}
		if err := m.WriteFile(manifestPath); err != nil {
			logger.Error("writing manifest", "path", manifestPath, "err", err)
			os.Exit(1)
		}
		logger.Info("manifest written", "path", manifestPath, "agents", len(m.Agents))
	}
	if traceOut != "" {
		procs := export.FromRun(sys.Cfg.Obs, sys.AgentReports())
		if err := export.WriteFile(traceOut, procs); err != nil {
			logger.Error("writing trace", "path", traceOut, "err", err)
			os.Exit(1)
		}
		logger.Info("trace written", "path", traceOut, "procs", len(procs))
	}
}

// runAggregator serves the merge frontier, optionally spawning the
// agents locally, and prints the digest.
func runAggregator(sys *core.System, ff *cli.FleetFlags, listen string, spawnLocal bool, reconnectWait time.Duration, logger *slog.Logger) {
	agents := ff.Agents
	agentArgs := ff.AgentArgs(sys.Cfg, agents)
	if spawnLocal {
		if err := ff.AnnounceAgentMetrics(agents, logger); err != nil {
			logger.Error("bad -metrics-addr", "err", err)
			os.Exit(2)
		}
	}
	var gaps []core.CoverageGap
	switch {
	case spawnLocal && listen == "":
		// The common local case: private unix socket, agents spawned and
		// restarted by the aggregator.
		var err error
		gaps, err = sys.CollectFleetDistributed(agents, agentArgs)
		if err != nil {
			logger.Error("distributed collection failed", "err", err)
			os.Exit(1)
		}
	case spawnLocal:
		// Explicit address but still self-spawned agents — useful for
		// exercising the tcp path locally.
		network, addr := core.ParseListenSpec(listen)
		spawn, err := core.SelfExecSpawner(func(a, inc int) []string { return agentArgs(network+":"+addr, a, inc) })
		if err != nil {
			logger.Error("resolving spawner", "err", err)
			os.Exit(1)
		}
		ds, g, err := sys.RunDistributedFleet(network, addr, agents, spawn, reconnectWait)
		if err != nil {
			logger.Error("distributed collection failed", "err", err)
			os.Exit(1)
		}
		gaps = g
		if !sys.InjectFleetDataset(ds, g) {
			logger.Error("fleet dataset already collected")
			os.Exit(1)
		}
	default:
		// External agents: listen and wait for them to dial in.
		network, addr := core.ParseListenSpec(listen)
		if listen == "" {
			network, addr = "unix", filepath.Join(os.TempDir(), fmt.Sprintf("fbflowd-%d.sock", os.Getpid()))
			defer os.Remove(addr)
		}
		ln, err := net.Listen(network, addr)
		if err != nil {
			logger.Error("listening", "addr", listen, "err", err)
			os.Exit(1)
		}
		logger.Info("aggregator listening", "network", network, "addr", addr, "agents", agents)
		ds, g, err := sys.ServeFleetAggregator(ln, agents, reconnectWait)
		ln.Close()
		if err != nil {
			logger.Error("aggregation failed", "err", err)
			os.Exit(1)
		}
		gaps = g
		if !sys.InjectFleetDataset(ds, g) {
			logger.Error("fleet dataset already collected")
			os.Exit(1)
		}
	}
	cli.WarnGaps(gaps, logger)
	printDigest(sys, logger)
}

// printDigest renders the canonical digest JSON on stdout.
func printDigest(sys *core.System, logger *slog.Logger) {
	b, err := sys.FleetDigest().JSON()
	if err != nil {
		logger.Error("rendering digest", "err", err)
		os.Exit(1)
	}
	os.Stdout.Write(b)
}
