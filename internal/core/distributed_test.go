package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/fbwire"
	"fbdcnet/internal/topology"
)

// runDistributed runs an aggregator plus in-process agents (one
// goroutine per agent incarnation, each with its own System, exactly
// like separate processes would) over a unix socket, and returns the
// injected-digest bytes and the coverage gaps.
func runDistributed(t *testing.T, cfg Config, agents int, plan *AgentCrashPlan) ([]byte, []CoverageGap) {
	t.Helper()
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
				asys := MustNewSystem(cfg) // a fresh System per incarnation, as a real process restart would build
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
					continue // restart as the next incarnation
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
	return digestJSON(t, sys), gaps
}

func digestJSON(t *testing.T, sys *System) []byte {
	t.Helper()
	b, err := sys.FleetDigest().JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDistributedMatchesSingleProcess is the determinism contract: the
// aggregated digest is byte-identical to the single-process run at 1,
// 2, 4, and 8 agents (8 agents on the tiny preset exercises empty
// shard ranges: only 4 shards exist per window).
func TestDistributedMatchesSingleProcess(t *testing.T) {
	cfg := QuickConfig()
	want := digestJSON(t, MustNewSystem(cfg))
	for _, agents := range []int{1, 2, 4, 8} {
		got, gaps := runDistributed(t, cfg, agents, nil)
		if len(gaps) != 0 {
			t.Fatalf("%d agents: clean run reported %d gaps", agents, len(gaps))
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d agents: digest differs from single-process run\n--- distributed ---\n%s\n--- single ---\n%s", agents, got, want)
		}
	}
}

// TestDistributedSketchMode runs the same contract with cardinality
// sketches riding the wire.
func TestDistributedSketchMode(t *testing.T) {
	cfg := QuickConfig()
	cfg.SketchMode = true
	want := digestJSON(t, MustNewSystem(cfg))
	got, _ := runDistributed(t, cfg, 2, nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("sketch-mode digest differs from single-process run\n--- distributed ---\n%s\n--- single ---\n%s", got, want)
	}
}

// TestDistributedMatrixMode runs the contract over matrix-mode
// collection, whose shards partition racks instead of hosts.
func TestDistributedMatrixMode(t *testing.T) {
	cfg := QuickConfig()
	cfg.FleetMatrix = true
	want := digestJSON(t, MustNewSystem(cfg))
	got, _ := runDistributed(t, cfg, 2, nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("matrix-mode digest differs from single-process run\n--- distributed ---\n%s\n--- single ---\n%s", got, want)
	}
}

// crashConfig is sized so agents own multi-shard ranges: the tiny
// preset has only 4 shards per window, so a mid-window crash needs the
// small preset's 14.
func crashConfig() Config {
	cfg := QuickConfig()
	cfg.Scale = topology.ScaleSmall
	cfg.FleetWindows = 4
	cfg.FleetWindowSec = 5
	return cfg
}

// TestDistributedAgentCrashRestart kills one agent mid-window at its
// seed-derived crash point, restarts it, and checks the three promised
// properties: the digest records the gap, the aggregate equals the
// sequential oracle that skips exactly the gapped cells, and the whole
// thing — gap block included — is deterministic across runs.
func TestDistributedAgentCrashRestart(t *testing.T) {
	cfg := crashConfig()
	sys := MustNewSystem(cfg)
	agents := 4
	plan := sys.PlanAgentCrash(agents)
	span := sys.FleetShardMap(agents)[plan.Agent].Span()
	if span < 2 {
		t.Fatalf("crash plan victim owns %d shards; config cannot force a mid-window gap", span)
	}
	if (plan.AfterTask+1)%int64(span) == 0 {
		t.Fatalf("crash plan dies at a window boundary (task %d, span %d)", plan.AfterTask, span)
	}

	got, gaps := runDistributed(t, cfg, agents, &plan)
	if len(gaps) == 0 {
		t.Fatal("mid-window crash produced no coverage gap")
	}
	for _, g := range gaps {
		if g.Agent != plan.Agent {
			t.Fatalf("gap attributed to agent %d, crash was agent %d", g.Agent, plan.Agent)
		}
	}

	// The aggregate must equal the sequential oracle that skips exactly
	// the gapped cells — proving the restart resumed the right stream
	// and nothing was double-counted.
	spw := sys.fleetShardsPerWindow()
	skip := map[int]bool{}
	for _, g := range gaps {
		for sh := g.ShardLo; sh < g.ShardHi; sh++ {
			skip[g.Window*spw+sh] = true
		}
	}
	ref := MustNewSystem(cfg)
	if !ref.InjectFleetDataset(ref.fleetReferenceSkipping(skip), gaps) {
		t.Fatal("reference system already memoized")
	}
	if want := digestJSON(t, ref); !bytes.Equal(got, want) {
		t.Fatalf("crashed-run digest differs from skip-oracle\n--- distributed ---\n%s\n--- oracle ---\n%s", got, want)
	}

	// Gap accounting itself is deterministic: a second full run crashes
	// and gaps identically.
	again, _ := runDistributed(t, cfg, agents, &plan)
	if !bytes.Equal(got, again) {
		t.Fatal("two crashed runs produced different digests")
	}
}

// TestFleetShardMapCoversGrid pins the shard map invariants the two
// sides both derive independently: contiguous, complete, ordered.
func TestFleetShardMapCoversGrid(t *testing.T) {
	sys := MustNewSystem(QuickConfig())
	spw := sys.fleetShardsPerWindow()
	for agents := 1; agents <= 2*spw; agents++ {
		m := sys.FleetShardMap(agents)
		prev := 0
		for a, rg := range m {
			if rg.Lo != prev || rg.Hi < rg.Lo {
				t.Fatalf("agents=%d: range %d is [%d,%d) after %d", agents, a, rg.Lo, rg.Hi, prev)
			}
			prev = rg.Hi
		}
		if prev != spw {
			t.Fatalf("agents=%d: map covers %d of %d shards", agents, prev, spw)
		}
	}
}

// TestAggregatorRejectsConfigMismatch: an agent built from a different
// seed must fail the handshake, not silently merge a foreign stream.
func TestAggregatorRejectsConfigMismatch(t *testing.T) {
	cfg := QuickConfig()
	sys := MustNewSystem(cfg)
	addr := filepath.Join(t.TempDir(), "agg.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Seed = cfg.Seed + 1
	go func() {
		conn, err := DialFleetAgent("unix", addr, 5*time.Second)
		if err != nil {
			return
		}
		defer conn.Close()
		asys := MustNewSystem(bad)
		_ = asys.RunFleetAgent(0, 1, 0, conn, -1)
	}()
	_, _, err = sys.ServeFleetAggregator(ln, 1, 10*time.Second)
	ln.Close()
	if err == nil {
		t.Fatal("aggregator accepted a mismatched configuration")
	}
}

// TestDistributedRejectsOutOfRangeIDs drives one agent by hand whose
// first CELL carries a hostOut key of 1<<31, far outside the fleet. The
// Dataset indexes dense storage by host ID, so the aggregator must fail
// that agent on the frame, naming the table and key, instead of merging.
func TestDistributedRejectsOutOfRangeIDs(t *testing.T) {
	cfg := QuickConfig()
	cfg.FleetWindows = 1
	sys := MustNewSystem(cfg)
	addr := filepath.Join(t.TempDir(), "agg.sock")
	ln, err := net.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}

	// One in-range record, then its hostOut key rewritten on the wire
	// form: the only entry whose (key, value) pair is (7, 12345).
	const host, bytesSent = 7, 12345
	good := fbflow.NewPartial()
	good.Add(fbflow.Record{Src: host, Dst: host, Locality: topology.SameHost, Bytes: bytesSent})
	enc := good.AppendBinary(nil)
	entry := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, host), math.Float64bits(bytesSent))
	at := bytes.Index(enc, entry)
	if at < 0 || bytes.Count(enc, entry) != 1 {
		t.Fatalf("hostOut entry found %d times in the encoded partial", bytes.Count(enc, entry))
	}
	binary.LittleEndian.PutUint64(enc[at:], 1<<31)
	bad := fbflow.NewPartial()
	if err := bad.DecodeBinary(enc); err != nil {
		t.Fatal(err)
	}

	spw := sys.fleetShardsPerWindow()
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
				Windows: uint32(cfg.FleetWindows), Check: sys.fleetConfigCheck()}); err != nil {
				return err
			}
			if f, err := r.Next(); err != nil || f.Type != fbwire.TypeWelcome {
				return fmt.Errorf("awaiting welcome: type %#x err %v", f.Type, err)
			}
			return w.WritePartial(fbwire.PartialHeader{Seq: 0, Window: 0, Shard: 0}, bad)
		}()
	}()
	_, _, err = sys.ServeFleetAggregator(ln, 1, 10*time.Second)
	ln.Close()
	if aerr := <-agentErr; aerr != nil {
		t.Fatal(aerr)
	}
	if err == nil {
		t.Fatal("aggregator merged a cell with hostOut key 1<<31")
	}
	for _, want := range []string{"agent 0", "hostOut", "2147483648"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}
