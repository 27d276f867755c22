package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fbdcnet/internal/netsim"
)

// stripSuiteSection removes one "=== name ===" section (header and body)
// from a rendered suite transcript.
func stripSuiteSection(s, name string) string {
	marker := "=== " + name + " ===\n"
	i := strings.Index(s, marker)
	if i < 0 {
		return s
	}
	rest := s[i+len(marker):]
	j := strings.Index(rest, "=== ")
	if j < 0 {
		return s[:i]
	}
	return s[:i] + rest[j:]
}

// TestTelemetryNoPerturbation is the tentpole guarantee of the telemetry
// layer, the sibling of TestObsNoPerturbation: running the suite with
// path-record sampling and queue-occupancy timelines enabled must leave
// every other section byte-identical — telemetry observes its own
// experiment's fabrics and never touches a shared one. Checked
// sequentially and on the parallel engine.
func TestTelemetryNoPerturbation(t *testing.T) {
	if testing.Short() {
		t.Skip("suite perturbation check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("suite perturbation check skipped under the race detector")
	}
	t.Parallel() // builds its own Systems; overlaps the other multi-suite checks
	skip := map[string]bool{"figure15": true, "ext-oversub": true}
	for _, workers := range []int{1, 8} {
		run := func(rate float64) (string, []byte) {
			cfg := QuickConfig()
			cfg.Seed = 42
			cfg.Parallelism = workers
			cfg.Taggers = workers
			cfg.FaultScenario = netsim.ScenarioCSWDown
			cfg.TraceSample = rate
			sys := MustNewSystem(cfg)
			var buf bytes.Buffer
			for _, sec := range SuiteSections(sys) {
				if skip[sec.Name] {
					continue
				}
				fmt.Fprintf(&buf, "=== %s ===\n%s\n", sec.Name, sec.Run(sys))
			}
			sum, err := sys.Summarize().JSON()
			if err != nil {
				t.Fatal(err)
			}
			return buf.String(), sum
		}

		offSuite, offSum := run(0)
		onSuite, onSum := run(0.25)

		if strings.Contains(offSuite, "=== telemetry ===") {
			t.Fatalf("workers=%d: telemetry section present with sampling off", workers)
		}
		if !strings.Contains(onSuite, "=== telemetry ===") {
			t.Fatalf("workers=%d: telemetry section missing with sampling on", workers)
		}
		if got := stripSuiteSection(onSuite, "telemetry"); got != offSuite {
			t.Fatalf("workers=%d: suite output differs beyond the telemetry section\n--- off ---\n%.2000s\n--- on (stripped) ---\n%.2000s",
				workers, offSuite, got)
		}

		// Summaries must agree modulo the telemetry block, and the enabled
		// arm must actually have sampled flows (a zero-sample run would make
		// this test vacuous).
		var offTree, onTree map[string]any
		if err := json.Unmarshal(offSum, &offTree); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(onSum, &onTree); err != nil {
			t.Fatal(err)
		}
		tel, ok := onTree["telemetry"].(map[string]any)
		if !ok {
			t.Fatalf("workers=%d: summary missing telemetry block", workers)
		}
		if sampled, _ := tel["sampled_attempts"].(float64); sampled == 0 {
			t.Fatalf("workers=%d: telemetry sampled zero flows at rate 0.25", workers)
		}
		if hops, _ := tel["sampled_hops"].(float64); hops == 0 {
			t.Fatalf("workers=%d: telemetry recorded zero hops", workers)
		}
		delete(onTree, "telemetry")
		if _, dup := offTree["telemetry"]; dup {
			t.Fatalf("workers=%d: summary has telemetry block with sampling off", workers)
		}
		if !reflect.DeepEqual(offTree, onTree) {
			t.Fatalf("workers=%d: Summarize differs beyond telemetry:\n%s\nvs\n%s",
				workers, offSum, onSum)
		}
	}
}
