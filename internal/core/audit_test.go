package core

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/topology"
)

// auditLedger collects the fleet dataset under a fresh recorder and
// returns the canonical ledger.
func auditLedger(t *testing.T, cfg Config) []audit.Checkpoint {
	t.Helper()
	cfg.Audit = audit.New()
	sys := MustNewSystem(cfg)
	sys.FleetDataset()
	return cfg.Audit.Checkpoints()
}

// requireIdentical fails with the first divergence when two ledgers
// disagree.
func requireIdentical(t *testing.T, label string, a, b []audit.Checkpoint) {
	t.Helper()
	if d, diverged := audit.Diff(a, b); diverged {
		t.Fatalf("%s: ledgers diverge: %s", label, d)
	}
	if len(a) == 0 {
		t.Fatalf("%s: empty ledger", label)
	}
}

// TestAuditLedgerWorkerInvariance is the in-process half of the ledger
// contract: byte-identical checkpoints at 1, 2, and 8 tagger workers,
// in both sampling and matrix modes.
func TestAuditLedgerWorkerInvariance(t *testing.T) {
	for _, matrix := range []bool{false, true} {
		cfg := QuickConfig()
		cfg.FleetMatrix = matrix
		cfg.Taggers = 1
		want := auditLedger(t, cfg)
		for _, taggers := range []int{2, 8} {
			cfg.Taggers = taggers
			got := auditLedger(t, cfg)
			requireIdentical(t, fmt.Sprintf("matrix=%v taggers=%d", matrix, taggers), want, got)
		}
		if matrix {
			// Matrix mode checkpoints both stages per cell.
			var synth, collect int
			for _, cp := range want {
				switch cp.Stage {
				case audit.StageMatrixSynth:
					synth++
				case audit.StageFleetCollect:
					collect++
				}
			}
			if synth == 0 || synth != collect {
				t.Fatalf("matrix ledger has %d matrix-synth vs %d fleet-collect checkpoints", synth, collect)
			}
		}
	}
}

// TestAuditOnOffDigestParity is the observer-effect contract: enabling
// the flight recorder leaves the canonical fleet digest byte-identical.
func TestAuditOnOffDigestParity(t *testing.T) {
	cfg := QuickConfig()
	off := digestJSON(t, MustNewSystem(cfg))
	cfg.Audit = audit.New()
	on := digestJSON(t, MustNewSystem(cfg))
	if !bytes.Equal(off, on) {
		t.Fatalf("digest changed when auditing was enabled\n--- off ---\n%s\n--- on ---\n%s", off, on)
	}
	if len(cfg.Audit.Checkpoints()) == 0 {
		t.Fatal("audit-on run recorded no checkpoints")
	}
}

// runDistributedAudit is runDistributed with the real process model for
// recorders: the aggregator owns the authoritative ledger, and every
// agent incarnation gets its own private recorder (as a separate
// process would), so nothing double-appends. Returns the aggregator's
// ledger and the coverage gaps.
func runDistributedAudit(t *testing.T, cfg Config, agents int, plan *AgentCrashPlan) ([]audit.Checkpoint, []CoverageGap) {
	t.Helper()
	cfg.Audit = audit.New()
	sys := MustNewSystem(cfg)
	addr := filepath.Join(t.TempDir(), "agg.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}

	agentErrs := make(chan error, agents)
	var wg sync.WaitGroup
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for inc := uint32(0); ; inc++ {
				acfg := cfg
				acfg.Audit = audit.New()
				asys := MustNewSystem(acfg)
				conn, err := DialFleetAgent("unix", addr, 5*time.Second)
				if err != nil {
					agentErrs <- err
					return
				}
				crashAfter := int64(-1)
				if plan != nil && plan.Agent == a && inc == 0 {
					crashAfter = plan.AfterTask
				}
				err = asys.RunFleetAgent(a, agents, inc, conn, crashAfter)
				conn.Close()
				if errors.Is(err, ErrPlannedCrash) {
					continue
				}
				if err != nil {
					agentErrs <- fmt.Errorf("agent %d: %w", a, err)
				}
				return
			}
		}(a)
	}

	ds, gaps, err := sys.ServeFleetAggregator(ln, agents, 10*time.Second)
	ln.Close()
	wg.Wait()
	close(agentErrs)
	for e := range agentErrs {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !sys.InjectFleetDataset(ds, gaps) {
		t.Fatal("fleet dataset already memoized before injection")
	}
	return cfg.Audit.Checkpoints(), gaps
}

// TestAuditLedgerAgentInvariance is the distributed half of the ledger
// contract: the aggregator's ledger is identical to the in-process one
// at 1, 4, and 8 agents (8 agents on the tiny preset exercises empty
// shard ranges).
func TestAuditLedgerAgentInvariance(t *testing.T) {
	cfg := QuickConfig()
	want := auditLedger(t, cfg)
	for _, agents := range []int{1, 4, 8} {
		got, gaps := runDistributedAudit(t, cfg, agents, nil)
		if len(gaps) != 0 {
			t.Fatalf("%d agents: clean run reported %d gaps", agents, len(gaps))
		}
		requireIdentical(t, fmt.Sprintf("agents=%d", agents), want, got)
	}
}

// TestAuditDistributedCrashRecordsHoles kills one agent at its planned
// crash point (without restart coverage for the gapped cells) and
// checks the ledger records exactly the gapped cells as holes — and
// never hashes them.
func TestAuditDistributedCrashRecordsHoles(t *testing.T) {
	cfg := QuickConfig()
	agents := 2
	plan := MustNewSystem(cfg).PlanAgentCrash(agents)
	ledger, gaps := runDistributedAudit(t, cfg, agents, &plan)
	if len(gaps) == 0 {
		t.Skip("planned crash produced no coverage gap (restart caught up)")
	}
	gapped := map[[2]int]bool{}
	cells := 0
	for _, g := range gaps {
		for s := g.ShardLo; s < g.ShardHi; s++ {
			gapped[[2]int{g.Window, s}] = true
			cells++
		}
	}
	holes := 0
	for _, cp := range ledger {
		if cp.Hole {
			holes++
			if !gapped[[2]int{cp.Window, cp.Shard}] {
				t.Fatalf("hole at (%d,%d) is not a reported coverage gap", cp.Window, cp.Shard)
			}
			if cp.Sum != 0 || cp.Count != 0 {
				t.Fatalf("hole at (%d,%d) carries hash %016x count %d", cp.Window, cp.Shard, cp.Sum, cp.Count)
			}
			continue
		}
		if cp.Stage == audit.StageFleetCollect && gapped[[2]int{cp.Window, cp.Shard}] {
			t.Fatalf("gapped cell (%d,%d) was hashed instead of recorded as a hole", cp.Window, cp.Shard)
		}
	}
	if holes != cells {
		t.Fatalf("ledger has %d holes, coverage gaps span %d cells", holes, cells)
	}
	// The surviving cells must still match the clean run's hashes.
	clean := auditLedger(t, cfg)
	byKey := map[string]audit.Checkpoint{}
	for _, cp := range clean {
		byKey[fmt.Sprintf("%s/%d/%d", cp.Stage, cp.Window, cp.Shard)] = cp
	}
	for _, cp := range ledger {
		if cp.Hole {
			continue
		}
		want, ok := byKey[fmt.Sprintf("%s/%d/%d", cp.Stage, cp.Window, cp.Shard)]
		if !ok {
			t.Fatalf("crash-run checkpoint (%s %d,%d) absent from clean run", cp.Stage, cp.Window, cp.Shard)
		}
		if cp.Sum != want.Sum || cp.Count != want.Count {
			t.Fatalf("surviving cell (%s %d,%d) diverged from clean run: %016x/%d vs %016x/%d",
				cp.Stage, cp.Window, cp.Shard, cp.Sum, cp.Count, want.Sum, want.Count)
		}
	}
}

// TestAuditPerturbationNamesExactCell plants a ledger divergence at one
// fleet-collect cell and checks Diff names exactly that cell first —
// the contract cmd/digestdiff builds on.
func TestAuditPerturbationNamesExactCell(t *testing.T) {
	cfg := QuickConfig()
	clean := auditLedger(t, cfg)

	cfg.Audit = audit.New()
	cfg.Audit.Perturb(1, 2)
	sys := MustNewSystem(cfg)
	sys.FleetDataset()
	perturbed := cfg.Audit.Checkpoints()

	d, diverged := audit.Diff(clean, perturbed)
	if !diverged {
		t.Fatal("planted perturbation produced no divergence")
	}
	if d.Kind != "hash" || d.A.Stage != audit.StageFleetCollect || d.A.Window != 1 || d.A.Shard != 2 {
		t.Fatalf("first divergence = %s, want hash at fleet-collect (1,2)", d)
	}
	if d.Tainted != 1 {
		t.Fatalf("perturbation tainted %d checkpoints, want exactly 1", d.Tainted)
	}
	if !strings.Contains(d.String(), "window 1, shard 2") {
		t.Fatalf("divergence rendering %q does not name the cell", d.String())
	}
	// The perturbation is ledger-only: the experiment digest is untouched.
	if !bytes.Equal(digestJSON(t, sys), digestJSON(t, MustNewSystem(QuickConfig()))) {
		t.Fatal("planted perturbation leaked into the fleet digest")
	}
}

// TestAuditBisectCellScheduleStable runs the digestdiff -bisect probe on
// a healthy build: both arms must agree at any worker count.
func TestAuditBisectCellScheduleStable(t *testing.T) {
	cfg := QuickConfig()
	res, err := AuditBisectCell(cfg, 1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Match {
		t.Fatalf("cell (1,2) disagrees between 1 and %d workers: %016x/%d vs %016x/%d",
			res.Workers, res.One.Sum, res.One.Count, res.Many.Sum, res.Many.Count)
	}
	if res.One.Count == 0 {
		t.Fatal("bisect probe folded no records")
	}
	if _, err := AuditBisectCell(cfg, 0, 99999, 2); err == nil {
		t.Fatal("out-of-grid shard accepted")
	}
}

// TestConfigFromManifestMetaRoundTrip reconstructs a config from its
// own manifest metadata and checks the fields that shape datasets.
func TestConfigFromManifestMetaRoundTrip(t *testing.T) {
	cfg := QuickConfig()
	cfg.Seed = 77
	cfg.FleetMatrix = true
	cfg.SketchMode = true
	meta := cfg.ManifestMeta("test")
	got, err := ConfigFromManifestMeta(meta.Config)
	if err != nil {
		t.Fatal(err)
	}
	if got.Scale != cfg.Scale || got.Seed != cfg.Seed ||
		got.FleetWindows != cfg.FleetWindows || got.FleetWindowSec != cfg.FleetWindowSec ||
		got.FleetSamples != cfg.FleetSamples || got.FleetMatrix != cfg.FleetMatrix ||
		got.SketchMode != cfg.SketchMode ||
		got.ShortTraceSec != cfg.ShortTraceSec || got.LongTraceSec != cfg.LongTraceSec {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", got, cfg)
	}
	if _, err := ConfigFromManifestMeta(map[string]any{"scale": "no-such-scale"}); err == nil {
		t.Fatal("unknown scale accepted")
	}
	// Older manifests without the newer keys still resolve to defaults.
	if _, err := ConfigFromManifestMeta(map[string]any{}); err != nil {
		t.Fatal(err)
	}
}

// TestAgentMetricsAddrs covers the spawn-mode address table: derivation,
// collision detection, and port overflow.
func TestAgentMetricsAddrs(t *testing.T) {
	addrs, err := AgentMetricsAddrs("127.0.0.1:9090", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"127.0.0.1:9091", "127.0.0.1:9092", "127.0.0.1:9093"}
	for i, w := range want {
		if addrs[i] != w {
			t.Fatalf("agent %d addr = %q, want %q", i, addrs[i], w)
		}
	}
	// Empty base: metrics disabled for every agent, no error.
	addrs, err = AgentMetricsAddrs("", 2)
	if err != nil || addrs[0] != "" || addrs[1] != "" {
		t.Fatalf("empty base: addrs=%v err=%v", addrs, err)
	}
	// Port 0: every agent gets a kernel-assigned port, no collision check.
	addrs, err = AgentMetricsAddrs("127.0.0.1:0", 2)
	if err != nil || addrs[0] != "127.0.0.1:0" || addrs[1] != "127.0.0.1:0" {
		t.Fatalf("port-0 base: addrs=%v err=%v", addrs, err)
	}

	// A derived address colliding with a reserved one fails the launch.
	if _, err := AgentMetricsAddrs("127.0.0.1:9090", 3, "127.0.0.1:9092"); err == nil {
		t.Fatal("collision with reserved address accepted")
	} else if !strings.Contains(err.Error(), "9092") {
		t.Fatalf("collision error %q does not name the address", err)
	}
	// Port overflow past 65535 fails with the overflowing agent named.
	if _, err := AgentMetricsAddrs("127.0.0.1:65534", 3); err == nil {
		t.Fatal("port overflow accepted")
	} else if !strings.Contains(err.Error(), "65535") {
		t.Fatalf("overflow error %q does not explain the limit", err)
	}
	// Unparsable bases are errors: spawn mode wants the loud failure.
	for _, base := range []string{"not-an-addr", "no-port", "host:notanumber"} {
		if _, err := AgentMetricsAddrs(base, 2); err == nil {
			t.Errorf("unparsable base %q accepted", base)
		}
	}
}

// TestSuiteSectionCheckpoints runs one suite section under the recorder
// and checks its rendered output lands as a suite checkpoint.
func TestSuiteSectionCheckpoints(t *testing.T) {
	cfg := QuickConfig()
	cfg.Audit = audit.New()
	sys := MustNewSystem(cfg)
	var buf bytes.Buffer
	if n := WriteSuite(&buf, sys, "table3"); n != 1 {
		t.Fatalf("filter ran %d sections, want 1", n)
	}
	found := false
	for _, cp := range cfg.Audit.Checkpoints() {
		if cp.Stage == "suite:table3" {
			found = true
			if cp.Count != 1 || cp.Sum == 0 {
				t.Fatalf("suite checkpoint = %+v, want one folded output item", cp)
			}
		}
	}
	if !found {
		t.Fatal("suite:table3 checkpoint missing from ledger")
	}
}

// TestTraceHeavyHitterCheckpoints checks that a bundle records one
// ledger point per heavy-hitter tracker, named by level and bin, in
// exact and sketch mode, and that the points fold the trackers'
// samples: no two of a bundle's nine trackers share a hash.
func TestTraceHeavyHitterCheckpoints(t *testing.T) {
	for _, sketch := range []bool{false, true} {
		cfg := QuickConfig()
		cfg.SketchMode = sketch
		cfg.Audit = audit.New()
		MustNewSystem(cfg).Trace(topology.RoleCacheFollower, 2)
		got := map[string]audit.Checkpoint{}
		for _, cp := range cfg.Audit.Checkpoints() {
			got[cp.Stage] = cp
		}
		seen := map[uint64]string{}
		for _, lvl := range []string{"flows", "hosts", "racks"} {
			for _, bin := range []string{"1ms", "10ms", "100ms"} {
				stage := "analysis:Cache-f:2s:hh:" + lvl + ":" + bin
				cp, ok := got[stage]
				if !ok {
					t.Fatalf("sketch=%v: no checkpoint %s", sketch, stage)
				}
				if cp.Count != 8 {
					t.Fatalf("sketch=%v: %s folds %d items, want 8 (N and Sum of four samples)", sketch, stage, cp.Count)
				}
				if other, dup := seen[cp.Sum]; dup {
					t.Fatalf("sketch=%v: %s and %s share hash %016x", sketch, stage, other, cp.Sum)
				}
				seen[cp.Sum] = stage
			}
		}
	}
}
