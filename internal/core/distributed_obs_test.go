package core

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"fbdcnet/internal/fbwire"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/obs/export"
)

// fedCounters are the fleet counters whose federated totals must be an
// exact sum over agents; fedHist's COUNT is comparable the same way
// (its sum is wall time and legitimately differs across runs).
var fedCounters = []string{
	"fbdcnet_fleet_flow_attempts_total",
	"fbdcnet_fleet_records_total",
}

const fedHist = "fbdcnet_fleet_shard_us"

// runDistributedObs is runDistributed with observability enabled on
// both sides: the aggregator gets its own registry, and every agent
// incarnation gets a fresh one (as a real process restart would). It
// returns the digest, the gaps, the aggregator System (registry and
// federated reports hang off it), and each incarnation's registry.
func runDistributedObs(t *testing.T, cfg Config, agents int, plan *AgentCrashPlan) ([]byte, []CoverageGap, *System, []*obs.Registry) {
	t.Helper()
	acfg := cfg
	acfg.Obs = obs.NewRegistry()
	sys := MustNewSystem(acfg)
	addr := filepath.Join(t.TempDir(), "agg.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}

	var regMu sync.Mutex
	var agentRegs []*obs.Registry
	agentErrs := make(chan error, agents)
	var wg sync.WaitGroup
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for inc := uint32(0); ; inc++ {
				icfg := cfg
				icfg.Obs = obs.NewRegistry()
				regMu.Lock()
				agentRegs = append(agentRegs, icfg.Obs)
				regMu.Unlock()
				asys := MustNewSystem(icfg)
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
	return digestJSON(t, sys), gaps, sys, agentRegs
}

// TestDistributedObsFederation is the federation contract on clean
// runs: for every fleet counter, aggregator total == exact sum of the
// per-agent totals == the single-process run's total, at 1, 2, 4, and
// 8 agents. At 4 agents the exported timeline must validate and carry
// spans from every agent plus the aggregator.
func TestDistributedObsFederation(t *testing.T) {
	cfg := QuickConfig()
	scfg := cfg
	scfg.Obs = obs.NewRegistry()
	ssys := MustNewSystem(scfg)
	want := digestJSON(t, ssys) // forces single-process collection

	for _, agents := range []int{1, 2, 4, 8} {
		got, gaps, asys, regs := runDistributedObs(t, cfg, agents, nil)
		if len(gaps) != 0 {
			t.Fatalf("%d agents: clean run reported %d gaps", agents, len(gaps))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d agents: digest differs from single-process run", agents)
		}
		aggReg := asys.Cfg.Obs
		for _, name := range fedCounters {
			agg := aggReg.CounterValue(name)
			var sum int64
			for _, r := range regs {
				sum += r.CounterValue(name)
			}
			if agg != sum {
				t.Errorf("%d agents: %s aggregator=%d sum(agents)=%d", agents, name, agg, sum)
			}
			if single := ssys.Cfg.Obs.CounterValue(name); agg != single {
				t.Errorf("%d agents: %s federated=%d single-process=%d", agents, name, agg, single)
			}
		}
		agg := aggReg.HistogramCount(fedHist)
		var sum int64
		for _, r := range regs {
			sum += r.HistogramCount(fedHist)
		}
		if agg != sum {
			t.Errorf("%d agents: %s count aggregator=%d sum(agents)=%d", agents, fedHist, agg, sum)
		}
		if single := ssys.Cfg.Obs.HistogramCount(fedHist); agg != single {
			t.Errorf("%d agents: %s count federated=%d single-process=%d", agents, fedHist, agg, single)
		}

		// Every agent's FIN-time report arrived.
		reports := asys.AgentReports()
		if len(reports) != agents {
			t.Fatalf("%d agents: %d reports", agents, len(reports))
		}
		for a, rep := range reports {
			if rep == nil {
				t.Fatalf("%d agents: agent %d never reported", agents, a)
			}
			if int(rep.AgentID) != a {
				t.Errorf("%d agents: report %d claims agent %d", agents, a, rep.AgentID)
			}
			if len(rep.Events) == 0 {
				t.Errorf("%d agents: agent %d report carries no span events", agents, a)
			}
		}

		if agents == 4 {
			procs := export.FromRun(aggReg, reports)
			data, err := export.ChromeTrace(procs)
			if err != nil {
				t.Fatal(err)
			}
			if err := export.Validate(data); err != nil {
				t.Fatalf("4-agent trace fails validation: %v", err)
			}
			pids := map[int]bool{}
			for _, p := range procs {
				if len(p.Events) > 0 {
					pids[p.PID] = true
				}
			}
			for pid := 0; pid <= 4; pid++ {
				if !pids[pid] {
					t.Errorf("trace missing spans for pid %d (0=aggregator, 1+N=agent N)", pid)
				}
			}
		}
	}
}

// TestDistributedObsFederationMatrix covers the matrix-mode counter.
func TestDistributedObsFederationMatrix(t *testing.T) {
	cfg := QuickConfig()
	cfg.FleetMatrix = true
	scfg := cfg
	scfg.Obs = obs.NewRegistry()
	ssys := MustNewSystem(scfg)
	want := digestJSON(t, ssys)

	got, _, asys, regs := runDistributedObs(t, cfg, 2, nil)
	if !bytes.Equal(got, want) {
		t.Fatal("matrix-mode digest differs from single-process run")
	}
	const name = "fbdcnet_fleet_matrix_cells_total"
	agg := asys.Cfg.Obs.CounterValue(name)
	var sum int64
	for _, r := range regs {
		sum += r.CounterValue(name)
	}
	if agg == 0 || agg != sum || agg != ssys.Cfg.Obs.CounterValue(name) {
		t.Errorf("%s: aggregator=%d sum(agents)=%d single=%d", name, agg, sum, ssys.Cfg.Obs.CounterValue(name))
	}
}

// TestDistributedObsFederationCrash is the kill/restart arm: after a
// seed-planned mid-window crash and restart, the federated counters
// must equal the instrumented skip-oracle's — cells the crash gapped
// contribute nothing (their deltas are discarded, not double-counted,
// even when the agent sent the delta and died before the partial
// merged), and the restarted incarnation's recomputation of already-
// merged cells is not re-folded.
func TestDistributedObsFederationCrash(t *testing.T) {
	cfg := crashConfig()
	agents := 4
	plan := MustNewSystem(cfg).PlanAgentCrash(agents)

	got, gaps, asys, _ := runDistributedObs(t, cfg, agents, &plan)
	if len(gaps) == 0 {
		t.Fatal("mid-window crash produced no coverage gap")
	}

	spw := asys.fleetShardsPerWindow()
	skip := map[int]bool{}
	for _, g := range gaps {
		for sh := g.ShardLo; sh < g.ShardHi; sh++ {
			skip[g.Window*spw+sh] = true
		}
	}
	rcfg := cfg
	rcfg.Obs = obs.NewRegistry()
	ref := MustNewSystem(rcfg)
	if !ref.InjectFleetDataset(ref.fleetReferenceSkipping(skip), gaps) {
		t.Fatal("reference system already memoized")
	}
	if want := digestJSON(t, ref); !bytes.Equal(got, want) {
		t.Fatal("crashed-run digest differs from skip-oracle")
	}

	aggReg := asys.Cfg.Obs
	for _, name := range fedCounters {
		if agg, want := aggReg.CounterValue(name), rcfg.Obs.CounterValue(name); agg != want {
			t.Errorf("%s: federated=%d skip-oracle=%d (gapped cells must contribute nothing)", name, agg, want)
		}
	}
	if agg, want := aggReg.HistogramCount(fedHist), rcfg.Obs.HistogramCount(fedHist); agg != want {
		t.Errorf("%s count: federated=%d skip-oracle=%d", fedHist, agg, want)
	}

	// The manifest's per-agent section accounts the restart.
	recs := asys.AgentManifestRecords()
	if len(recs) != agents {
		t.Fatalf("manifest has %d agent records, want %d", len(recs), agents)
	}
	for _, rec := range recs {
		if rec.Agent == plan.Agent {
			if rec.Restarts < 1 || rec.Incarnations < 2 {
				t.Errorf("victim record: %+v, want ≥1 restart", rec)
			}
			if rec.GapCells == 0 {
				t.Errorf("victim record carries no gap cells: %+v", rec)
			}
		} else if rec.Restarts != 0 {
			t.Errorf("agent %d records %d restarts, crash was agent %d", rec.Agent, rec.Restarts, plan.Agent)
		}
	}
}

// TestDistributedObsNoPerturbation is the zero-interference contract:
// turning metrics on leaves the canonical digest byte-identical to the
// metrics-off run at 1, 4, and 8 agents, including the crash arm.
// (Metrics-off distributed == single-process is pinned elsewhere, so
// comparing against the metrics-off single-process digest covers both
// identities.)
func TestDistributedObsNoPerturbation(t *testing.T) {
	cfg := QuickConfig() // cfg.Obs is nil: the metrics-off reference
	want := digestJSON(t, MustNewSystem(cfg))
	for _, agents := range []int{1, 4, 8} {
		got, gaps, _, _ := runDistributedObs(t, cfg, agents, nil)
		if len(gaps) != 0 {
			t.Fatalf("%d agents: clean run reported %d gaps", agents, len(gaps))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d agents: metrics-on digest differs from metrics-off run\n--- on ---\n%s\n--- off ---\n%s", agents, got, want)
		}
	}

	// Crash arm: the gap block and everything else survive byte-identical.
	ccfg := crashConfig()
	plan := MustNewSystem(ccfg).PlanAgentCrash(4)
	off, _ := runDistributed(t, ccfg, 4, &plan)
	on, _, _, _ := runDistributedObs(t, ccfg, 4, &plan)
	if !bytes.Equal(on, off) {
		t.Fatalf("crash arm: metrics-on digest differs from metrics-off\n--- on ---\n%s\n--- off ---\n%s", on, off)
	}
}

// TestAgentMetricsAddr pins agent a's entry of the -spawn endpoint
// table: the base host with port base + 1 + a, or port 0 for every
// agent when the base port is 0. TestAgentMetricsAddrs covers empty,
// unparsable, colliding and overflowing bases.
func TestAgentMetricsAddr(t *testing.T) {
	cases := []struct {
		base string
		a    int
		want string
	}{
		{"127.0.0.1:9100", 0, "127.0.0.1:9101"},
		{"127.0.0.1:9100", 3, "127.0.0.1:9104"},
		{"localhost:0", 7, "localhost:0"},
		{":8080", 1, ":8082"},
	}
	for _, c := range cases {
		addrs, err := AgentMetricsAddrs(c.base, c.a+1)
		if err != nil {
			t.Errorf("AgentMetricsAddrs(%q, %d): %v", c.base, c.a+1, err)
		} else if addrs[c.a] != c.want {
			t.Errorf("AgentMetricsAddrs(%q, %d)[%d] = %q, want %q", c.base, c.a+1, c.a, addrs[c.a], c.want)
		}
	}
}

// TestDistributedBestEffortSections drives one agent by hand so that
// one CELL carries a corrupt obs section and another a corrupt audit
// section. Both cells must still merge: the digest equals the oracle
// over every cell, each drop is counted once, the corrupt-audit cell is
// the ledger's only hole, and the federated counters lack exactly the
// dropped delta.
func TestDistributedBestEffortSections(t *testing.T) {
	const badObs, badAudit = 2, 5
	cfg := QuickConfig()
	cfg.FleetWindows = 2
	acfg := cfg
	acfg.Obs = obs.NewRegistry()
	acfg.Audit = audit.New()
	asys := MustNewSystem(acfg)
	addr := filepath.Join(t.TempDir(), "agg.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}

	gcfg := cfg
	gcfg.Obs = obs.NewRegistry()
	gcfg.Audit = audit.New()
	gsys := MustNewSystem(gcfg)
	spw := gsys.fleetShardsPerWindow()
	cells := spw * cfg.FleetWindows
	var dropped map[string]int64 // counter name → the corrupt-obs cell's increment
	agentErr := make(chan error, 1)
	go func() {
		agentErr <- func() error {
			conn, err := DialFleetAgent("unix", addr, 5*time.Second)
			if err != nil {
				return err
			}
			defer conn.Close()
			w, r := fbwire.NewWriter(conn), fbwire.NewReader(conn)
			if err := w.WriteHello(fbwire.Hello{Version: fbwire.Version, ShardHi: uint32(spw),
				Windows: uint32(cfg.FleetWindows), Check: gsys.fleetConfigCheck()}); err != nil {
				return err
			}
			if f, err := r.Next(); err != nil || f.Type != fbwire.TypeWelcome {
				return fmt.Errorf("awaiting welcome: type %#x err %v", f.Type, err)
			}
			sc := gsys.newCellScratch(1)[0]
			c := &Cell{Partial: gsys.newPartial(), Obs: gcfg.Obs.NewShard()}
			for i := 0; i < cells; i++ {
				task := gsys.fleetTask(i/spw, i%spw)
				c.Partial.Reset()
				gsys.collectCell(task, sc, c)
				delta := c.Obs.AppendDelta(nil)
				before := map[string]int64{}
				for _, name := range fedCounters {
					before[name] = gcfg.Obs.CounterValue(name)
				}
				c.Obs.Fold()
				if i == badObs {
					dropped = map[string]int64{}
					for _, name := range fedCounters {
						dropped[name] = gcfg.Obs.CounterValue(name) - before[name]
					}
					delta = []byte{0xde, 0xad, 0xbe, 0xef}
				}
				var sec []byte
				for _, cp := range c.Audit[:c.NAudit] {
					sec = fbwire.AppendAudit(sec, fbwire.AuditCell{Stage: auditWireStage(cp.Stage), Sum: cp.Sum, Count: cp.Count})
				}
				if i == badAudit {
					sec[0] = 0x7f // unknown stage
				}
				if err := w.WritePartial(fbwire.PartialHeader{Seq: uint64(i), Window: uint32(task.window),
					Shard: uint32(task.shard), Obs: delta, Audit: sec}, c.Partial); err != nil {
					return err
				}
			}
			return w.WriteFin(uint64(cells), nil)
		}()
	}()
	ds, gaps, err := asys.ServeFleetAggregator(ln, 1, 10*time.Second)
	ln.Close()
	if aerr := <-agentErr; aerr != nil {
		t.Fatal(aerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(gaps) != 0 || !asys.InjectFleetDataset(ds, gaps) {
		t.Fatalf("clean run: %d gaps, or dataset already memoized", len(gaps))
	}

	rcfg := cfg
	rcfg.Obs = obs.NewRegistry()
	ref := MustNewSystem(rcfg)
	if !ref.InjectFleetDataset(ref.fleetReferenceSkipping(nil), nil) {
		t.Fatal("reference system already memoized")
	}
	if got, want := digestJSON(t, asys), digestJSON(t, ref); !bytes.Equal(got, want) {
		t.Fatalf("digest differs from the oracle: a corrupt section must not drop its cell\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	aggReg := acfg.Obs
	for _, name := range []string{"fbdcnet_fleet_obs_drops_total", "fbdcnet_fleet_audit_drops_total"} {
		if v := aggReg.SeriesValue(obs.Series(name, "agent", "0")); v != 1 {
			t.Errorf("%s = %v, want 1", name, v)
		}
	}

	holes := 0
	for _, cp := range acfg.Audit.Checkpoints() {
		if cp.Hole {
			holes++
			if cp.Window != badAudit/spw || cp.Shard != badAudit%spw || cp.Stage != audit.StageFleetCollect {
				t.Errorf("hole at %s (%d,%d), want fleet-collect (%d,%d)", cp.Stage, cp.Window, cp.Shard, badAudit/spw, badAudit%spw)
			}
		}
	}
	if holes != 1 {
		t.Errorf("ledger has %d holes, want 1", holes)
	}

	for _, name := range fedCounters {
		if dropped[name] <= 0 {
			t.Fatalf("%s: the corrupt-obs cell counted %d, so the check proves nothing", name, dropped[name])
		}
		if got, want := aggReg.CounterValue(name), rcfg.Obs.CounterValue(name)-dropped[name]; got != want {
			t.Errorf("%s: federated=%d, want oracle minus the dropped delta = %d", name, got, want)
		}
	}
	if got, want := aggReg.HistogramCount(fedHist), rcfg.Obs.HistogramCount(fedHist)-1; got != want {
		t.Errorf("%s count: federated=%d, want %d", fedHist, got, want)
	}
}
