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
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"fbdcnet/internal/cli"
	"fbdcnet/internal/core"
	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/mirror"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/services"
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

func main() { os.Exit(run(os.Args[1:])) }

// options are dcsim's own flags beside the shared harness.
type options struct {
	h            *cli.Harness
	mirrorRole   string
	seconds      int
	out          string
	pcapOut      string
	fleet        bool
	serve        bool
	serveWindows int
	serveConfig  string
	saveDS       string
	loadDS       string
	telem        bool
}

func register(fs *flag.FlagSet) *options {
	o := &options{h: cli.New(fs, cli.Spec{Tool: "dcsim", Agent: cli.HiddenAgent, Sim: true, Usage: map[string]string{
		"faults": fmt.Sprintf("run the degraded-mode fault experiment for a scenario (%s)",
			strings.Join(netsim.FaultScenarios(), "|")),
		"trace-sample": "in-band telemetry flow sampling fraction (0 disables)",
		"paths-out":    "with -telemetry: write retained path records (JSONL, readable by traceview -paths) to this file",
		"distributed":  "with -fleet: collect through this many local agent processes streaming binary partials to an in-process aggregator (0 = in-process collection)",
	}})}
	fs.StringVar(&o.mirrorRole, "mirror", "", "write a mirror trace for this role (web|cache-f|cache-l|hadoop|mf|slb|db|misc)")
	fs.IntVar(&o.seconds, "seconds", 30, "trace duration in seconds")
	fs.StringVar(&o.out, "out", "trace.fbm", "output trace file")
	fs.StringVar(&o.pcapOut, "pcap", "", "also export the mirror trace as a pcap file")
	fs.BoolVar(&o.fleet, "fleet", false, "run the fleet-wide Fbflow view and print its summary")
	fs.BoolVar(&o.serve, "serve", false, "run the endless rolling-window collection loop (SIGHUP reloads -serve-config, SIGINT/SIGTERM stop cleanly)")
	fs.IntVar(&o.serveWindows, "serve-windows", 0, "with -serve: stop after this many windows (0 = run until signalled)")
	fs.StringVar(&o.serveConfig, "serve-config", "", "with -serve: JSON file re-read on SIGHUP (window_sec, samples, matrix, taggers, mem_ceiling_mb, sketch)")
	fs.StringVar(&o.saveDS, "save", "", "with -fleet: archive the Fbflow dataset to this file")
	fs.StringVar(&o.loadDS, "load", "", "print the summary of a previously archived Fbflow dataset")
	fs.BoolVar(&o.telem, "telemetry", false, "run the in-fabric telemetry experiment and print its report")
	return o
}

func run(args []string) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	o := register(fs)
	setup := func() (core.Config, error) {
		if _, ok := roleNames[o.mirrorRole]; o.mirrorRole != "" && !ok {
			return core.Config{}, fmt.Errorf("unknown role %q", o.mirrorRole)
		}
		if o.telem && o.h.TraceSample <= 0 {
			return core.Config{}, errors.New("-telemetry needs a positive -trace-sample")
		}
		if !o.h.Agent && !o.serve && o.h.Faults == "" && !o.telem && o.mirrorRole == "" && !o.fleet && o.loadDS == "" {
			fs.Usage()
			return core.Config{}, errors.New("no mode selected")
		}
		return core.QuickConfig(), nil
	}
	return o.h.Run(args, setup, o.body)
}

// body runs every selected mode in turn.
func (o *options) body(sys *core.System) int {
	logger := o.h.Logger
	if o.serve {
		if err := runServe(sys, logger, o.serveWindows, o.serveConfig); err != nil {
			logger.Error("serve loop failed", "err", err)
			return 1
		}
	}
	if o.h.Faults != "" {
		fmt.Print(sys.Degraded().Render())
	}
	if o.telem {
		fmt.Print(sys.Telemetry().Render())
		if code := o.h.WritePaths(sys); code != 0 {
			return code
		}
	}
	if o.mirrorRole != "" {
		if err := o.writeMirror(sys); err != nil {
			logger.Error("writing mirror trace", "err", err)
			return 1
		}
	}
	if o.fleet {
		if code := o.h.Collect(sys); code != 0 {
			return code
		}
		fmt.Print(sys.Table3().Render())
		fmt.Println()
		fmt.Print(sys.Section41().Render())
		if o.saveDS != "" {
			if err := saveDataset(o.saveDS, sys.FleetDataset()); err != nil {
				logger.Error("archiving dataset", "err", err)
				return 1
			}
			logger.Info("archived Fbflow dataset", "path", o.saveDS)
		}
	}
	if o.loadDS != "" {
		f, err := os.Open(o.loadDS)
		if err != nil {
			logger.Error("opening dataset archive", "err", err)
			return 1
		}
		ds, err := fbflow.Load(f)
		f.Close()
		if err != nil {
			logger.Error("loading dataset", "err", err)
			return 1
		}
		fmt.Printf("archived dataset: %s total bytes, %d minutes\n",
			renderSI(ds.TotalBytes()), len(ds.PerMinute()))
		for _, l := range topology.Localities {
			fmt.Printf("  %-17s %5.1f%%\n", l, 100*ds.LocalityShareAll()[l])
		}
	}
	return 0
}

// writeMirror captures -seconds of the monitored host of -mirror into
// -out, and into -pcap when given.
func (o *options) writeMirror(sys *core.System) error {
	role := roleNames[o.mirrorRole]
	f, err := os.Create(o.out)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := mirror.NewWriter(f)
	if err != nil {
		return err
	}
	sink := workload.Fanout{w}
	var pw *mirror.PcapWriter
	if o.pcapOut != "" {
		pf, err := os.Create(o.pcapOut)
		if err != nil {
			return err
		}
		defer pf.Close()
		if pw, err = mirror.NewPcapWriter(pf); err != nil {
			return err
		}
		sink = append(sink, pw)
	}
	host := sys.Monitored(role)
	sp := sys.Cfg.Obs.StartSpan(fmt.Sprintf("mirror:%s:%ds", o.mirrorRole, o.seconds))
	tr := services.NewTrace(sys.Pick, host, sys.Cfg.Seed, sys.Cfg.Params, sink)
	tr.Run(netsim.Time(o.seconds) * netsim.Second)
	sp.End()
	if err := w.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if pw != nil {
		if err := pw.Close(); err != nil {
			return err
		}
		o.h.Logger.Info("wrote pcap export", "path", o.pcapOut)
	}
	o.h.Logger.Info("wrote mirror trace", "headers", w.Count(), "role", role.String(),
		"host", int(host), "path", o.out)
	return nil
}

// saveDataset archives ds to path.
func saveDataset(path string, ds *fbflow.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ds.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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
