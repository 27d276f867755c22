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

	"fbdcnet/internal/cli"
	"fbdcnet/internal/core"
)

func main() { os.Exit(run(os.Args[1:])) }

// options are the experiments' own flags beside the shared harness.
type options struct {
	h           *cli.Harness
	short, long int
	only        string
	jsonOut     bool
}

func register(fs *flag.FlagSet) *options {
	o := &options{h: cli.New(fs, cli.Spec{Tool: "experiments", Manifest: "run_manifest.json", Agent: cli.HiddenAgent, Sim: true})}
	fs.IntVar(&o.short, "short", 30, "short (sub-second analyses) trace seconds")
	fs.IntVar(&o.long, "long", 60, "long (flow analyses) trace seconds")
	fs.StringVar(&o.only, "only", "", "run a single experiment (e.g. table3, figure12, ablations, faults)")
	fs.BoolVar(&o.jsonOut, "json", false, "print a machine-readable summary instead of rendered tables")
	return o
}

func run(args []string) int {
	o := register(flag.NewFlagSet(os.Args[0], flag.ContinueOnError))
	setup := func() (core.Config, error) {
		cfg := core.DefaultConfig()
		cfg.ShortTraceSec = o.short
		cfg.LongTraceSec = o.long
		return cfg, nil
	}
	return o.h.Run(args, setup, o.body)
}

func (o *options) body(sys *core.System) int {
	logger := o.h.Logger
	if code := o.h.Collect(sys); code != 0 {
		return code
	}
	if o.jsonOut {
		out, err := sys.Summarize().JSON()
		if err != nil {
			logger.Error("rendering summary", "err", err)
			return 1
		}
		fmt.Println(string(out))
	} else if core.WriteSuite(os.Stdout, sys, o.only) == 0 {
		logger.Error("no experiment matches filter", "only", o.only)
		return 2
	}
	return o.h.WritePaths(sys)
}
