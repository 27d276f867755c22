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
	"fbdcnet/internal/fbflow"
)

func main() { os.Exit(run(os.Args[1:])) }

// options are fbflowd's own flags beside the shared harness.
type options struct {
	h             *cli.Harness
	listen        string
	spawnLocal    bool
	single        bool
	reconnectWait int
	agentMetrics  []string // the -spawn agents' metrics endpoints
}

func register(fs *flag.FlagSet) *options {
	o := &options{h: cli.New(fs, cli.Spec{
		Tool: "fbflowd",
		Agent: cli.AgentNames{
			Mode: "agent", ID: "id", Agents: "agents", Incarnation: "incarnation", Connect: "connect",
		},
		Usage: map[string]string{
			"parallel":  "with -single: worker goroutines (0 = GOMAXPROCS)",
			"manifest":  "write the run manifest JSON here (aggregator runs include the federated per-agent section)",
			"trace-out": "write the unified run timeline here as Chrome trace-event JSON (open in Perfetto)",
		},
	})}
	fs.StringVar(&o.listen, "listen", "", "aggregator address (unix:/path, tcp:host:port, or bare socket path); empty with -spawn uses a private unix socket")
	fs.BoolVar(&o.spawnLocal, "spawn", false, "spawn the agents locally as child processes of this aggregator")
	fs.BoolVar(&o.single, "single", false, "run the collection single-process and print the same digest (the byte-identity reference)")
	fs.IntVar(&o.reconnectWait, "reconnect-wait-sec", 10, "seconds the aggregator waits for a dead agent to reconnect before gapping its remaining cells")
	return o
}

func run(args []string) int {
	o := register(flag.NewFlagSet(os.Args[0], flag.ContinueOnError))
	setup := func() (core.Config, error) {
		if o.spawnLocal && !o.single {
			var err error
			if o.agentMetrics, err = o.h.AnnounceAgentMetrics(o.h.Agents, o.h.Logger); err != nil {
				return core.Config{}, err
			}
		}
		return core.QuickConfig(), nil
	}
	return o.h.Run(args, setup, func(sys *core.System) int {
		if !o.single {
			if code := o.aggregate(sys); code != 0 {
				return code
			}
		}
		return printDigest(sys, o.h.Logger)
	})
}

// aggregate collects the fleet dataset from -agents shard agents:
// spawned over a private unix socket, spawned at an explicit -listen
// address (useful for exercising the tcp path locally), or external
// agents dialling -listen. It returns the exit status.
func (o *options) aggregate(sys *core.System) int {
	h, logger := o.h, o.h.Logger
	if o.spawnLocal && o.listen == "" {
		return h.CollectDistributed(sys, o.agentMetrics, logger)
	}
	var (
		ds   *fbflow.Dataset
		gaps []core.CoverageGap
		err  error
	)
	wait := time.Duration(o.reconnectWait) * time.Second
	network, addr := core.ParseListenSpec(o.listen)
	if o.spawnLocal {
		agentArgs := h.AgentArgs(sys.Cfg, o.agentMetrics)
		var spawn core.AgentSpawner
		spawn, err = core.SelfExecSpawner(func(a, inc int) []string { return agentArgs(network+":"+addr, a, inc) })
		if err != nil {
			logger.Error("resolving spawner", "err", err)
			return 1
		}
		ds, gaps, err = sys.RunDistributedFleet(network, addr, h.Agents, spawn, wait)
	} else {
		if o.listen == "" {
			network, addr = "unix", filepath.Join(os.TempDir(), fmt.Sprintf("fbflowd-%d.sock", os.Getpid()))
			defer os.Remove(addr)
		}
		var ln net.Listener
		ln, err = net.Listen(network, addr)
		if err != nil {
			logger.Error("listening", "addr", o.listen, "err", err)
			return 1
		}
		logger.Info("aggregator listening", "network", network, "addr", addr, "agents", h.Agents)
		ds, gaps, err = sys.ServeFleetAggregator(ln, h.Agents, wait)
		ln.Close()
	}
	if err != nil {
		logger.Error("distributed collection failed", "err", err)
		return 1
	}
	if !sys.InjectFleetDataset(ds, gaps) {
		logger.Error("fleet dataset already collected")
		return 1
	}
	cli.WarnGaps(gaps, logger)
	return 0
}

// printDigest renders the canonical digest JSON on stdout.
func printDigest(sys *core.System, logger *slog.Logger) int {
	b, err := sys.FleetDigest().JSON()
	if err != nil {
		logger.Error("rendering digest", "err", err)
		return 1
	}
	os.Stdout.Write(b)
	return 0
}
