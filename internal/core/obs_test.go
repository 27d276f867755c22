package core

import (
	"bytes"
	"fmt"
	"testing"

	"fbdcnet/internal/netsim"
	"fbdcnet/internal/obs"
)

// TestObsNoPerturbation is the tentpole guarantee of the observability
// layer: running the experiment suite with metrics enabled must produce
// the same output, byte for byte, as running with instrumentation
// disabled — sequentially and on the parallel engine. Instrumentation
// observes; it never participates.
//
// The transcript covers every suite section except figure15 and
// ext-oversub, whose packet-level sweeps dominate wall clock without
// touching any instrumentation path the remaining sections (and the
// degraded-mode arms) don't already exercise.
func TestObsNoPerturbation(t *testing.T) {
	if testing.Short() {
		t.Skip("suite perturbation check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("suite perturbation check skipped under the race detector")
	}
	t.Parallel() // builds its own Systems; overlaps the other multi-suite checks
	skip := map[string]bool{"figure15": true, "ext-oversub": true}
	for _, workers := range []int{1, 8} {
		run := func(reg *obs.Registry) (string, []byte) {
			cfg := QuickConfig()
			cfg.Seed = 42
			cfg.Parallelism = workers
			cfg.Taggers = workers
			cfg.FaultScenario = netsim.ScenarioCSWDown
			cfg.Obs = reg
			suite := func() (*System, string) {
				sys := MustNewSystem(cfg)
				var buf bytes.Buffer
				for _, sec := range SuiteSections(sys) {
					if skip[sec.Name] {
						continue
					}
					fmt.Fprintf(&buf, "=== %s ===\n%s\n", sec.Name, sec.Run(sys))
				}
				return sys, buf.String()
			}
			if reg == nil && workers == 1 {
				// TestParallelDeterminism's 1-worker csw-down reference is
				// this very summary: whichever test gets there first
				// computes it. The suite transcript is this test's alone.
				var out string
				_, sum := sharedSummary(t, cfg, func() *Summary {
					sys, o := suite()
					out = o
					return sys.Summarize()
				})
				if out == "" {
					_, out = suite()
				}
				return out, sum
			}
			sys, out := suite()
			sum, err := sys.Summarize().JSON()
			if err != nil {
				t.Fatal(err)
			}
			return out, sum
		}

		offSuite, offSum := run(nil)
		reg := obs.NewRegistry()
		onSuite, onSum := run(reg)

		if offSuite != onSuite {
			t.Fatalf("workers=%d: suite output differs with metrics enabled\n--- disabled ---\n%.2000s\n--- enabled ---\n%.2000s",
				workers, offSuite, onSuite)
		}
		if !bytes.Equal(offSum, onSum) {
			t.Fatalf("workers=%d: Summarize JSON differs with metrics enabled:\n%s\nvs\n%s",
				workers, offSum, onSum)
		}

		// The enabled arm must actually have collected: a silently empty
		// registry would make this test vacuous.
		for _, counter := range []string{
			"fbdcnet_fleet_flow_attempts_total",
			"fbdcnet_netsim_injected_total",
			"fbdcnet_workload_packets_total",
			"fbdcnet_analysis_rows_total",
		} {
			if reg.CounterValue(counter) == 0 {
				t.Errorf("workers=%d: counter %s is zero after the suite", workers, counter)
			}
		}
		m := reg.Manifest(obs.RunMeta{Tool: "test"})
		if err := m.Validate(); err != nil {
			t.Errorf("workers=%d: suite manifest fails schema: %v", workers, err)
		}
		if len(m.Stages) == 0 || len(m.Progress) == 0 {
			t.Errorf("workers=%d: manifest missing stages/progress: %d stages, %d progress",
				workers, len(m.Stages), len(m.Progress))
		}
	}
}
