// Command manifestcheck validates a run manifest (written by
// cmd/experiments or cmd/dcsim via -manifest) against the canonical
// schema embedded in internal/obs. CI runs it after the smoke suite so a
// manifest field drifting from the schema fails the build instead of
// silently shipping malformed telemetry.
//
// When the manifest's config carries a positive mem_ceiling_bytes stamp,
// manifestcheck also asserts the recorded fleet heap peak
// (fbdcnet_fleet_heap_peak_bytes gauge) stayed under the ceiling — the
// CI memory gate for million-host runs.
//
// With -trace the arguments are Chrome trace-event JSON files (written
// via -trace-out) and each is structurally validated instead.
//
// With -audit each manifest must additionally carry a decodable audit
// checkpoint ledger — the gate CI applies to runs launched with -audit,
// so a run that silently dropped its ledger fails the build.
//
// Usage:
//
//	manifestcheck run_manifest.json [more.json ...]
//	manifestcheck -trace run_trace.json [more.json ...]
//	manifestcheck -audit run_manifest.json [more.json ...]
//
// Exit status is 0 when every file validates, 1 otherwise, and 2 on a
// usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/export"
)

// heapPeakGauge is the gauge the fleet collector records after merging
// the dataset; see core.collectWindows.
const heapPeakGauge = "fbdcnet_fleet_heap_peak_bytes"

// checkMemCeiling enforces the manifest's own memory budget. A missing
// ceiling (or a ceiling of zero) means no budget was set; a set ceiling
// with no recorded heap peak is an error — the gate must not pass
// vacuously when the fleet stage did not run or observability was off.
func checkMemCeiling(m *obs.Manifest) error {
	raw, ok := m.Config["mem_ceiling_bytes"]
	if !ok {
		return nil
	}
	ceiling, ok := raw.(float64) // JSON numbers decode as float64
	if !ok || ceiling <= 0 {
		return nil
	}
	peak, ok := m.Gauges[heapPeakGauge]
	if !ok {
		return fmt.Errorf("mem_ceiling_bytes=%d set but %s gauge absent", int64(ceiling), heapPeakGauge)
	}
	if peak > ceiling {
		return fmt.Errorf("fleet heap peak %.0f bytes exceeds ceiling %d", peak, int64(ceiling))
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:])) }

// run validates every file named in args and returns the exit status:
// 0 when all validate (or -h), 1 when any fails, 2 on a usage error.
func run(args []string) int {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	trace := fs.Bool("trace", false, "arguments are Chrome trace-event JSON files; validate their structure instead of the manifest schema")
	auditReq := fs.Bool("audit", false, "require a valid audit checkpoint ledger in each manifest (fails manifests written without -audit)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: manifestcheck [-trace | -audit] FILE.json [...]")
		return 2
	}
	bad := 0
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "manifestcheck: %v\n", err)
			bad++
			continue
		}
		if *trace {
			if err := export.Validate(data); err != nil {
				fmt.Fprintf(os.Stderr, "manifestcheck: %s: %v\n", path, err)
				bad++
				continue
			}
			fmt.Printf("manifestcheck: %s ok (trace)\n", path)
			continue
		}
		if err := obs.ValidateSchema(obs.ManifestSchema, data); err != nil {
			fmt.Fprintf(os.Stderr, "manifestcheck: %s: %v\n", path, err)
			bad++
			continue
		}
		var m obs.Manifest
		if err := json.Unmarshal(data, &m); err != nil {
			fmt.Fprintf(os.Stderr, "manifestcheck: %s: %v\n", path, err)
			bad++
			continue
		}
		if err := checkMemCeiling(&m); err != nil {
			fmt.Fprintf(os.Stderr, "manifestcheck: %s: %v\n", path, err)
			bad++
			continue
		}
		if *auditReq {
			cps, err := m.Audit.Decode()
			if err != nil {
				fmt.Fprintf(os.Stderr, "manifestcheck: %s: %v\n", path, err)
				bad++
				continue
			}
			fmt.Printf("manifestcheck: %s ok (audit: %d checkpoints, %d holes)\n", path, len(cps), m.Audit.Holes)
			continue
		}
		fmt.Printf("manifestcheck: %s ok\n", path)
	}
	if bad > 0 {
		return 1
	}
	return 0
}
