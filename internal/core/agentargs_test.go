package core_test

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"testing"

	"fbdcnet/internal/cli"
	"fbdcnet/internal/core"
)

var discard = slog.New(slog.NewTextHandler(io.Discard, nil))

// parseFleet parses args through the shared flag registration and
// builds the System the command would run.
func parseFleet(t *testing.T, args []string) (*cli.FleetFlags, core.Config, *core.System) {
	t.Helper()
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	f := cli.Register(fs, cli.HiddenAgent)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	cfg := core.QuickConfig()
	if err := f.Apply(&cfg, discard); err != nil {
		t.Fatalf("apply %v: %v", args, err)
	}
	return f, cfg, core.MustNewSystem(cfg)
}

// TestAgentArgsRoundTrip builds each agent's re-exec arguments and
// parses them back through the agent flag set: the rebuilt System must
// fingerprint like the parent's (the HELLO check would fail otherwise),
// the identity and fault flags must arrive, and -audit-perturb must
// never propagate. Each agent gets its own metrics port, base + 1 + id.
func TestAgentArgsRoundTrip(t *testing.T) {
	const agents = 3
	for _, parent := range [][]string{
		nil,
		{"-matrix"},
		{"-sketch", "-windows", "3", "-seed", "7"},
		{"-audit", "-audit-perturb", "1:2", "-audit-out", "bb.json"},
		{"-agent-faults", "-scale", "small", "-metrics-addr", "127.0.0.1:9100"},
		{"-matrix", "-sketch", "-audit", "-audit-perturb", "0:1", "-agent-faults"},
	} {
		pf, pcfg, psys := parseFleet(t, parent)
		metrics, err := pf.AnnounceAgentMetrics(agents, discard)
		if err != nil {
			t.Fatalf("%v: %v", parent, err)
		}
		build := pf.AgentArgs(pcfg, metrics)
		for id := 0; id < agents; id++ {
			args := build("unix:/tmp/agg.sock", id, 1)
			cf, ccfg, csys := parseFleet(t, args)
			if !cf.Agent || cf.ID != id || cf.Agents != agents || cf.Incarnation != 1 || cf.Connect != "unix:/tmp/agg.sock" {
				t.Errorf("%v agent %d: identity lost in %v", parent, id, args)
			}
			if got, want := core.FleetConfigCheck(csys), core.FleetConfigCheck(psys); got != want {
				t.Errorf("%v agent %d: config check %#x, parent %#x (args %v)", parent, id, got, want, args)
			}
			if cf.AgentFaults != pf.AgentFaults || ccfg.Audit.Enabled() != pcfg.Audit.Enabled() {
				t.Errorf("%v agent %d: -agent-faults/-audit did not propagate: %v", parent, id, args)
			}
			if cf.AuditPerturb != "" {
				t.Errorf("%v agent %d: -audit-perturb propagated: %v", parent, id, args)
			}
			want := ""
			if pf.MetricsAddr != "" {
				want = fmt.Sprintf("127.0.0.1:%d", 9101+id)
			}
			if cf.MetricsAddr != want {
				t.Errorf("%v agent %d: metrics address %q, want %q", parent, id, cf.MetricsAddr, want)
			}
		}
	}
}
