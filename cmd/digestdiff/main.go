// Command digestdiff compares the audit checkpoint ledgers of two run
// manifests and reports the first divergent checkpoint in canonical
// frontier order — the stage, cell, and blast radius of a determinism
// break. Two runs of the same binary, config, and seed must produce
// byte-identical ledgers regardless of worker or agent count; the first
// checkpoint that disagrees names the stage where the runs parted ways,
// and everything downstream of it is noise.
//
// Usage:
//
//	digestdiff A.json B.json
//	digestdiff -bisect -workers 8 A.json B.json
//
// With -bisect, a fleet-collect divergence is probed further: the named
// (window, shard) cell is re-run from manifest A's config at 1 tagger
// worker and at -workers taggers. A mismatch between the two arms means
// the cell's computation is scheduling-sensitive — a real determinism
// bug in this build. A match means both schedules agree, so the
// original divergence came from elsewhere (different binaries,
// corrupted manifest, or a planted perturbation).
//
// Exit status: 0 when the ledgers are identical, 1 on divergence, 2 on
// a missing or invalid audit section (or other operational error).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"fbdcnet/internal/core"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/audit"
)

// loadLedger reads a manifest and decodes its audit section into
// canonical-order checkpoints.
func loadLedger(path string) (*obs.Manifest, []audit.Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var m obs.Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	cps, err := m.Audit.Decode()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v (was the run launched with -audit?)", path, err)
	}
	return &m, cps, nil
}

// bisect re-runs the divergent cell at 1 worker vs many and reports
// whether the divergence is scheduling-sensitive.
func bisect(m *obs.Manifest, d audit.Divergence, workers int) error {
	cp := d.A
	if d.Kind == "missing-in-a" {
		cp = d.B
	}
	if cp.Stage != audit.StageFleetCollect || cp.Window == audit.NonCell {
		return fmt.Errorf("bisect probes fleet-collect cells; first divergence is at stage %s", cp.Stage)
	}
	cfg, err := core.ConfigFromManifestMeta(m.Config)
	if err != nil {
		return err
	}
	fmt.Printf("bisect: re-running cell (window %d, shard %d) at 1 vs %d taggers...\n", cp.Window, cp.Shard, workers)
	res, err := core.AuditBisectCell(cfg, cp.Window, cp.Shard, workers)
	if err != nil {
		return err
	}
	if res.Match {
		fmt.Printf("bisect: cell (%d,%d) agrees at 1 and %d workers (hash %016x, count %d)\n",
			res.Window, res.Shard, res.Workers, res.One.Sum, res.One.Count)
		fmt.Println("bisect: the cell is schedule-stable in this build; the divergence came from outside the scheduler (different binaries, corrupted manifest, or a planted perturbation)")
		return nil
	}
	fmt.Printf("bisect: cell (%d,%d) DISAGREES between 1 worker (hash %016x, count %d) and %d workers (hash %016x, count %d)\n",
		res.Window, res.Shard, res.One.Sum, res.One.Count, res.Workers, res.Many.Sum, res.Many.Count)
	fmt.Println("bisect: the cell's computation is scheduling-sensitive — a determinism bug in this build")
	return nil
}

func main() { os.Exit(run(os.Args[1:])) }

// run compares the two manifests named in args and returns the exit
// status: 0 identical, 1 divergent, 2 usage or operational error (0 for
// -h).
func run(args []string) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	doBisect := fs.Bool("bisect", false, "re-run the divergent fleet-collect cell at 1 worker vs -workers and report whether it is scheduling-sensitive")
	workers := fs.Int("workers", 0, "tagger count of the bisect probe's parallel arm (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: digestdiff [-bisect [-workers N]] A.json B.json")
		return 2
	}
	pathA, pathB := fs.Arg(0), fs.Arg(1)
	mA, cpsA, err := loadLedger(pathA)
	if err != nil {
		fmt.Fprintf(os.Stderr, "digestdiff: %v\n", err)
		return 2
	}
	_, cpsB, err := loadLedger(pathB)
	if err != nil {
		fmt.Fprintf(os.Stderr, "digestdiff: %v\n", err)
		return 2
	}
	d, diverged := audit.Diff(cpsA, cpsB)
	if !diverged {
		fmt.Printf("digestdiff: ledgers identical (%d checkpoints)\n", len(cpsA))
		return 0
	}
	fmt.Printf("digestdiff: first divergence at %s\n", d.String())
	fmt.Printf("digestdiff: A=%s B=%s\n", pathA, pathB)
	if *doBisect {
		if err := bisect(mA, d, *workers); err != nil {
			fmt.Fprintf(os.Stderr, "digestdiff: bisect: %v\n", err)
		}
	}
	return 1
}
