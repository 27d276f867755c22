package core

import (
	"bytes"
	"testing"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/obs"
)

// TestSketchParallelDeterminism extends the engine's headline regression
// to sketch mode: with Config.SketchMode set, the full QuickConfig
// summary must still be byte-identical at 1, 2, and 8 workers. The
// sketches merge at the task-order frontier exactly like the exact
// tables, so worker count may only change wall-clock, never a float.
func TestSketchParallelDeterminism(t *testing.T) {
	if raceEnabled {
		// Three extra suite runs multiply past the race job's budget; the
		// coverage job runs this without the detector.
		t.Skip("skipping sketch-mode determinism matrix under -race")
	}
	t.Parallel() // builds its own Systems; overlaps the other multi-suite checks
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		cfg := QuickConfig()
		cfg.Seed = 42
		cfg.Parallelism = workers
		cfg.Taggers = workers
		cfg.SketchMode = true
		sum := MustNewSystem(cfg).Summarize()
		data, err := sum.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.HHCountP50) == 0 {
			t.Fatal("sketch-mode summary has no heavy-hitter counts")
		}
		for role, p50 := range sum.HHCountP50 {
			if p50 <= 0 {
				t.Errorf("sketch-mode HH count p50 for %s is %v, want > 0", role, p50)
			}
		}
		if want == nil {
			want = data
			continue
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("sketch-mode summary at %d workers differs from 1-worker output:\n%s\nvs\n%s",
				workers, data, want)
		}
	}
}

// TestSketchModeTable4 sanity-checks the sketch-backed Table 4: every
// (role, level) row must be populated and carry positive heavy-hitter
// counts, and the trace bundles must expose sketch table stats to the
// obs folding.
func TestSketchModeTable4(t *testing.T) {
	cfg := QuickConfig()
	cfg.SketchMode = true
	cfg.Obs = obs.NewRegistry()
	s := MustNewSystem(cfg)
	t4 := s.Table4()
	if len(t4.Rows) == 0 {
		t.Fatal("sketch-mode Table 4 is empty")
	}
	for _, r := range t4.Rows {
		if r.NumP50 <= 0 {
			t.Errorf("row %s/%d: NumP50 = %v, want > 0", r.Role, r.Level, r.NumP50)
		}
	}
}

// TestSketchModeDistinctCounts pins the fleet cardinality path: sketch
// mode must publish distinct-population gauges from the merged HLLs, and
// the exact path must not allocate them at all.
func TestSketchModeDistinctCounts(t *testing.T) {
	cfg := QuickConfig()
	cfg.SketchMode = true
	cfg.Obs = obs.NewRegistry()
	s := MustNewSystem(cfg)
	ds := s.FleetDataset()
	card := ds.Cardinality()
	if card == nil {
		t.Fatal("sketch mode: FleetDataset has no cardinality sketches")
	}
	if card.Flows() <= 0 || card.Hosts() <= 0 || card.Racks() <= 0 {
		t.Fatalf("distinct estimates not positive: flows=%v hosts=%v racks=%v",
			card.Flows(), card.Hosts(), card.Racks())
	}
	// Hosts within tiny topology bounds: the estimate cannot exceed the
	// host population by more than HLL error.
	if max := float64(s.Topo.NumHosts()) * 1.10; card.Hosts() > max {
		t.Errorf("distinct hosts %v exceeds topology bound %v", card.Hosts(), max)
	}
	text := cfg.Obs.PrometheusText()
	for _, metric := range []string{
		"fbdcnet_fleet_distinct_flows",
		"fbdcnet_fleet_distinct_hosts",
		"fbdcnet_fleet_distinct_racks",
	} {
		if !bytes.Contains([]byte(text), []byte(metric)) {
			t.Errorf("gauge %s missing from exposition", metric)
		}
	}

	exact := QuickConfig()
	if ds := MustNewSystem(exact).FleetDataset(); ds.Cardinality() != nil {
		t.Error("exact mode: FleetDataset unexpectedly carries cardinality sketches")
	}
}

// TestNewHeavyTrackerSelection pins the constructor dispatch both ways.
func TestNewHeavyTrackerSelection(t *testing.T) {
	cfg := QuickConfig()
	s := MustNewSystem(cfg)
	host := s.Monitored(MonitoredRoles[0])
	e := analysis.NewHeavyTracker(s.Topo, host, analysis.LevelFlow, 1_000_000, false)
	if _, ok := e.(*analysis.HeavyHitters); !ok {
		t.Errorf("exact selection returned %T", e)
	}
	sk := analysis.NewHeavyTracker(s.Topo, host, analysis.LevelFlow, 1_000_000, true)
	if _, ok := sk.(*analysis.SketchHeavyHitters); !ok {
		t.Errorf("sketch selection returned %T", sk)
	}
}
