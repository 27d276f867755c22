package core

import (
	"testing"

	"fbdcnet/internal/netsim"
	"fbdcnet/internal/topology"
)

// TestDegradedCSWDownAcceptance pins the headline survivability claim:
// with one of the four CSW posts down for most of the run, ECMP
// re-hashing delivers everything — zero lost-forever packets, zero
// intra-rack losses in particular — while the rerouted-byte counters show
// real traffic moved off the dead post.
func TestDegradedCSWDownAcceptance(t *testing.T) {
	cfg := QuickConfig()
	cfg.FaultScenario = netsim.ScenarioCSWDown
	s := MustNewSystem(cfg)
	d := s.Degraded()
	if d == nil {
		t.Fatal("Degraded() returned nil with a scenario configured")
	}
	if d.Faults.LostByLocality[topology.IntraRack] != 0 {
		t.Fatalf("csw-down lost %d intra-rack packets, want 0", d.Faults.LostByLocality[topology.IntraRack])
	}
	if d.Faults.LostPkts != 0 {
		t.Fatalf("csw-down lost %d packets forever, want 0", d.Faults.LostPkts)
	}
	if d.Faults.ReroutedBytes == 0 || d.Faults.ReroutedPkts == 0 {
		t.Fatalf("csw-down rerouted nothing: %+v", d.Faults)
	}
	if d.Faults.FaultEvents != 1 || d.Faults.Recoveries != 1 {
		t.Fatalf("csw-down transitions %d/%d, want 1/1", d.Faults.FaultEvents, d.Faults.Recoveries)
	}
	if d.Degraded.DeliveredPkts != d.Baseline.DeliveredPkts {
		t.Fatalf("csw-down delivered %d packets, baseline %d — 4-post redundancy should hide the fault",
			d.Degraded.DeliveredPkts, d.Baseline.DeliveredPkts)
	}
	// Degraded() is memoized: a second call must return the same result.
	if s.Degraded() != d {
		t.Fatal("Degraded() is not memoized")
	}
}

// TestDegradedScenarioSweep runs every built-in scenario and checks the
// sweep's basic shape: all scenarios execute their fault transitions, the
// baseline delivers (nearly) everything, and the rack-drain scenario —
// which kills the only path out of the focus rack for longer than the
// retransmission budget — actually loses traffic.
func TestDegradedScenarioSweep(t *testing.T) {
	t.Parallel() // builds its own System; overlaps the multi-suite checks
	s := MustNewSystem(QuickConfig())
	rs := s.DegradedScenarios()
	if len(rs) != len(netsim.FaultScenarios()) {
		t.Fatalf("sweep covered %d scenarios, want %d", len(rs), len(netsim.FaultScenarios()))
	}
	for _, d := range rs {
		if d.Faults.FaultEvents == 0 {
			t.Errorf("%s: no fault transitions executed", d.Scenario)
		}
		if d.Baseline.DeliveredFrac < 0.99 {
			t.Errorf("%s: baseline delivered only %.4f of offered bytes", d.Scenario, d.Baseline.DeliveredFrac)
		}
		if d.OfferedPkts == 0 || d.Degraded.DeliveredPkts == 0 {
			t.Errorf("%s: degenerate run: offered %d delivered %d", d.Scenario, d.OfferedPkts, d.Degraded.DeliveredPkts)
		}
		if d.Degraded.DeliveredFrac > 1.0000001 {
			t.Errorf("%s: delivered more than offered (%.6f)", d.Scenario, d.Degraded.DeliveredFrac)
		}
		if len(d.Degraded.LocalityBytes) != len(topology.Localities) {
			t.Errorf("%s: locality split incomplete: %v", d.Scenario, d.Degraded.LocalityBytes)
		}
		if d.Render() == "" {
			t.Errorf("%s: empty render", d.Scenario)
		}
	}
	var drain *DegradedResult
	for _, d := range rs {
		if d.Scenario == netsim.ScenarioRackDrain {
			drain = d
		}
	}
	if drain == nil {
		t.Fatal("sweep is missing rack-drain")
	}
	if drain.Faults.LostPkts == 0 || drain.Faults.Retransmits == 0 {
		t.Errorf("rack-drain lost %d / retransmitted %d — draining the only RSW should exceed the retry budget",
			drain.Faults.LostPkts, drain.Faults.Retransmits)
	}
	if drain.Degraded.DeliveredFrac >= drain.Baseline.DeliveredFrac {
		t.Errorf("rack-drain delivered %.4f, not below baseline %.4f",
			drain.Degraded.DeliveredFrac, drain.Baseline.DeliveredFrac)
	}
}

// TestAblationFaultResilience pins the reroute ablation's direction:
// ECMP re-hashing must beat pinning flows to the dead post.
func TestAblationFaultResilience(t *testing.T) {
	s := MustNewSystem(QuickConfig())
	a := s.AblationFaultResilience()
	if a.On <= a.Off {
		t.Fatalf("reroute on=%.4f not better than off=%.4f", a.On, a.Off)
	}
	if !a.HigherIsBetter {
		t.Fatal("delivered fraction should be marked higher-is-better")
	}
}
