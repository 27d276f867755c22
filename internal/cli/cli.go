// Package cli is the process wiring shared by the commands that run the
// distributed fleet collection (dcsim, experiments and fbflowd): one
// registration of the flags that shape a fleet run, one run harness
// (start sequence, metrics endpoint, manifest and timeline), the
// argument list that re-executes a command as one of its agents, and the
// agent process itself.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"strconv"
	"strings"
	"time"

	"fbdcnet/internal/core"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/topology"
)

// AgentNames spells one command's agent-identity flags.
type AgentNames struct {
	Mode, ID, Agents, Incarnation, Connect string
}

// HiddenAgent is the internal spelling dcsim and experiments register;
// only their own -distributed re-exec sets it.
var HiddenAgent = AgentNames{
	Mode: "fleet-agent", ID: "fleet-agent-id", Agents: "fleet-agent-count",
	Incarnation: "fleet-agent-inc", Connect: "fleet-agent-connect",
}

// FleetFlags holds every flag an agent process needs to rebuild its
// parent's fleet run, plus the agent's identity.
type FleetFlags struct {
	names AgentNames

	Agent       bool
	ID          int
	Agents      int
	Incarnation int
	Connect     string

	Scale        string
	Seed         uint64
	Windows      int
	Matrix       bool
	Sketch       bool
	AgentFaults  bool
	Audit        bool
	AuditOut     string
	AuditPerturb string
	MetricsAddr  string
	Quiet        bool
}

// Register registers the fleet and agent flags on fs, the agent
// identity under names.
func Register(fs *flag.FlagSet, names AgentNames) *FleetFlags {
	f := &FleetFlags{names: names}
	fs.BoolVar(&f.Agent, names.Mode, false, "run as one fleet shard agent that streams its shard range to an aggregator")
	fs.IntVar(&f.ID, names.ID, 0, "agent mode: this agent's id in [0, agents)")
	fs.IntVar(&f.Agents, names.Agents, 4, "number of shard agents")
	fs.IntVar(&f.Incarnation, names.Incarnation, 0, "agent mode: restart count of this agent (0 = first run)")
	fs.StringVar(&f.Connect, names.Connect, "", "agent mode: aggregator address to dial (unix:/path, tcp:host:port, or bare socket path)")

	fs.StringVar(&f.Scale, "scale", "tiny", "fleet scale: "+strings.Join(topology.ScaleNames(), "|"))
	fs.Uint64Var(&f.Seed, "seed", 42, "deterministic seed")
	fs.IntVar(&f.Windows, "windows", 0, "override the number of fleet observation windows (0 = config default)")
	fs.BoolVar(&f.Matrix, "matrix", false, "synthesize fleet traffic as rack-pair demand matrices instead of per-host flow sampling (million-host scales)")
	fs.BoolVar(&f.Sketch, "sketch", false, "replace exact heavy-hitter tables with bounded-memory sketches and add HLL distinct counts to fleet collection")
	fs.BoolVar(&f.AgentFaults, "agent-faults", false, "with distributed collection: kill one agent at its seed-planned crash point mid-window and restart it as the next incarnation, recording the coverage gap")
	fs.BoolVar(&f.Audit, "audit", false, "record the determinism flight recorder: per-cell checkpoint digests into the manifest audit section plus a crash black box (compare manifests with cmd/digestdiff)")
	fs.StringVar(&f.AuditOut, "audit-out", "", "with -audit: write the black-box JSON dump to this file on panic, SIGQUIT, or a planned agent kill")
	fs.StringVar(&f.AuditPerturb, "audit-perturb", "", "with -audit: plant a ledger-only divergence at fleet-collect cell W:S (testing aid for digestdiff and CI; experiment outputs stay untouched)")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve live metrics on this address (/metrics Prometheus text, / progress); local agents serve on the same host at port+1+id")
	fs.BoolVar(&f.Quiet, "quiet", false, "suppress informational diagnostics on stderr (warnings and errors still print)")
	return f
}

// Apply checks the fleet flags (and, in agent mode, the agent's
// identity), then sets the fleet fields of cfg, a fresh metrics registry
// and, with -audit, the checkpoint recorder and its crash black box. The
// caller defers the black box's HandlePanic when cfg.Audit.BB() is
// non-nil.
func (f *FleetFlags) Apply(cfg *core.Config, logger *slog.Logger) error {
	scale, ok := topology.ParseScale(f.Scale)
	if !ok {
		return fmt.Errorf("unknown scale %q (have %s)", f.Scale, strings.Join(topology.ScaleNames(), "|"))
	}
	if f.Agent && f.Connect == "" {
		return errors.New("agent mode needs -" + f.names.Connect)
	}
	if f.Agent && (f.ID < 0 || f.ID >= f.Agents) {
		return fmt.Errorf("agent id %d outside the fleet of %d", f.ID, f.Agents)
	}
	cfg.Scale = scale
	cfg.Seed = f.Seed
	if f.Windows > 0 {
		cfg.FleetWindows = f.Windows
	}
	cfg.FleetMatrix = f.Matrix
	cfg.SketchMode = f.Sketch
	cfg.Obs = obs.NewRegistry()
	if !f.Audit {
		if f.AuditPerturb != "" {
			return errors.New("-audit-perturb requires -audit")
		}
		return nil
	}
	cfg.Audit = audit.New()
	bb := audit.NewBlackBox(0)
	cfg.Audit.SetBlackBox(bb)
	bb.InstallSignalDump(f.AuditOut)
	if f.AuditPerturb != "" {
		w, s, err := ParsePerturb(f.AuditPerturb)
		if err != nil {
			return fmt.Errorf("bad -audit-perturb: %w", err)
		}
		cfg.Audit.Perturb(w, s)
		logger.Warn("planted ledger divergence", "window", w, "shard", s)
	}
	return nil
}

// ParsePerturb parses an -audit-perturb "W:S" cell spec.
func ParsePerturb(spec string) (window, shard int, err error) {
	w, s, ok := strings.Cut(spec, ":")
	if !ok {
		return 0, 0, fmt.Errorf("perturb spec %q is not WINDOW:SHARD", spec)
	}
	window, err = strconv.Atoi(w)
	if err != nil || window < 0 {
		return 0, 0, fmt.Errorf("perturb spec %q: bad window %q", spec, w)
	}
	shard, err = strconv.Atoi(s)
	if err != nil || shard < 0 {
		return 0, 0, fmt.Errorf("perturb spec %q: bad shard %q", spec, s)
	}
	return window, shard, nil
}

// AgentArgs returns the builder of the argument list that re-executes
// this command as agent id, incarnation inc, dialling connect, with
// cfg's fleet configuration. metrics is the per-agent endpoint table
// AnnounceAgentMetrics resolved, one entry per agent. -audit propagates
// so agents ledger and forward their cells; -audit-perturb deliberately
// does not — the planted divergence belongs only to the aggregator's
// authoritative ledger.
func (f *FleetFlags) AgentArgs(cfg core.Config, metrics []string) func(connect string, id, inc int) []string {
	agents := len(metrics)
	return func(connect string, id, inc int) []string {
		args := []string{
			"-" + f.names.Mode,
			"-" + f.names.ID, strconv.Itoa(id),
			"-" + f.names.Agents, strconv.Itoa(agents),
			"-" + f.names.Incarnation, strconv.Itoa(inc),
			"-" + f.names.Connect, connect,
			"-scale", cfg.Scale.String(),
			"-seed", strconv.FormatUint(cfg.Seed, 10),
			"-windows", strconv.Itoa(cfg.FleetWindows),
			"-quiet",
		}
		if cfg.FleetMatrix {
			args = append(args, "-matrix")
		}
		if cfg.SketchMode {
			args = append(args, "-sketch")
		}
		if f.AgentFaults {
			args = append(args, "-agent-faults")
		}
		if cfg.Audit.Enabled() {
			args = append(args, "-audit")
		}
		if addr := metrics[id]; addr != "" {
			args = append(args, "-metrics-addr", addr)
		}
		return args
	}
}

// AnnounceAgentMetrics derives and validates every local agent's
// metrics endpoint up front: a collision with the parent's own endpoint
// or a port overflow fails the launch here instead of one agent dying
// later with an opaque bind error. Commands call it while checking
// their flags, so a bad table exits 2 before anything starts. Agents
// run -quiet, so the resolved table is announced here (a port-0 base
// makes each agent pick its own free port) and returned for AgentArgs.
func (f *FleetFlags) AnnounceAgentMetrics(agents int, logger *slog.Logger) ([]string, error) {
	addrs, err := core.AgentMetricsAddrs(f.MetricsAddr, agents, f.MetricsAddr)
	if err != nil {
		return nil, fmt.Errorf("deriving agent metrics endpoints: %w", err)
	}
	for a, addr := range addrs {
		if addr != "" {
			logger.Info("agent metrics endpoint", "agent", a, "addr", addr)
		}
	}
	return addrs, nil
}

// WarnGaps logs a distributed run's coverage gaps, if any.
func WarnGaps(gaps []core.CoverageGap, logger *slog.Logger) {
	if len(gaps) == 0 {
		return
	}
	cells := 0
	for _, g := range gaps {
		cells += g.Cells
	}
	logger.Warn("distributed collection has coverage gaps", "gaps", len(gaps), "cells", cells)
}

// CollectDistributed collects sys's fleet dataset through one local
// re-execution of this command per entry of metrics, the agent metrics
// table AnnounceAgentMetrics resolved while the flags were checked, over
// a private unix socket. It returns the process exit status: 0 on
// success and 1 when collection fails.
func (f *FleetFlags) CollectDistributed(sys *core.System, metrics []string, logger *slog.Logger) int {
	gaps, err := sys.CollectFleetDistributed(len(metrics), f.AgentArgs(sys.Cfg, metrics))
	if err != nil {
		logger.Error("distributed fleet collection failed", "err", err)
		return 1
	}
	WarnGaps(gaps, logger)
	return 0
}

// RunAgent is the agent process: serve its metrics endpoint, dial the
// aggregator, and stream this agent's shard range. Apply has checked the
// agent's identity. It returns the process exit status: 0 when the
// agent delivered its range, core.AgentCrashExitCode at the seed-planned
// crash point (the parent restarts the next incarnation), and 1 on
// failure.
func (f *FleetFlags) RunAgent(sys *core.System, logger *slog.Logger) int {
	if f.MetricsAddr != "" {
		srv, err := obs.Serve(f.MetricsAddr, sys.Cfg.Obs)
		if err != nil {
			logger.Error("starting agent metrics endpoint", "err", err)
			return 1
		}
		defer srv.Close()
		logger.Info("agent metrics endpoint listening", "agent", f.ID, "addr", srv.Addr())
	}
	crashAfter := int64(-1)
	if f.AgentFaults {
		if plan := sys.PlanAgentCrash(f.Agents); plan.Agent == f.ID && f.Incarnation == 0 {
			crashAfter = plan.AfterTask
		}
	}
	network, addr := core.ParseListenSpec(f.Connect)
	conn, err := core.DialFleetAgent(network, addr, 10*time.Second)
	if err != nil {
		logger.Error("agent dialing aggregator", "agent", f.ID, "err", err)
		return 1
	}
	err = sys.RunFleetAgent(f.ID, f.Agents, uint32(f.Incarnation), conn, crashAfter)
	conn.Close()
	if errors.Is(err, core.ErrPlannedCrash) {
		logger.Info("agent reached planned crash point", "agent", f.ID, "task", crashAfter)
		// The planned kill is the black box's flight-recorder moment:
		// dump the ring before the process dies so the gap is debuggable.
		sys.Cfg.Audit.BB().Dump(f.AuditOut, "planned-crash")
		return core.AgentCrashExitCode
	}
	if err != nil {
		logger.Error("agent failed", "agent", f.ID, "err", err)
		return 1
	}
	return 0
}
