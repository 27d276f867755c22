package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// runCaptured calls run(args) with stdout and stderr sent to files and
// returns the exit status and everything written to stdout and stderr.
func runCaptured(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	code = run(args)
	os.Stdout, os.Stderr = oldOut, oldErr
	outF.Close()
	errF.Close()
	out, err := os.ReadFile(outF.Name())
	if err != nil {
		t.Fatal(err)
	}
	diag, err := os.ReadFile(errF.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out), string(diag)
}

// TestFlagErrors pins that every bad flag exits 2 with nothing on
// stdout, before the profiler starts and so before any mode runs (an
// unchecked -faults once ran the whole serve loop first).
func TestFlagErrors(t *testing.T) {
	dir := t.TempDir()
	paths := filepath.Join(dir, "paths.jsonl")
	for _, c := range []struct {
		name string
		args []string
	}{
		{"unknown scale", []string{"-fleet", "-scale", "bogus"}},
		{"unknown fault scenario", []string{"-fleet", "-faults", "bogus"}},
		{"unknown fault scenario in serve mode", []string{"-serve", "-serve-windows", "2", "-faults", "bogus"}},
		{"audit-perturb without audit", []string{"-fleet", "-audit-perturb", "1:2"}},
		{"paths-out without trace sampling", []string{"-telemetry", "-paths-out", paths, "-trace-sample", "0"}},
		{"telemetry without trace sampling", []string{"-telemetry", "-trace-sample", "0"}},
		{"agent without connect address", []string{"-fleet-agent", "-fleet-agent-count", "2"}},
		{"agent id outside the fleet", []string{"-fleet-agent", "-fleet-agent-count", "2", "-fleet-agent-id", "2", "-fleet-agent-connect", "unix:/nonexistent"}},
		{"negative agent id", []string{"-fleet-agent", "-fleet-agent-count", "2", "-fleet-agent-id", "-1", "-fleet-agent-connect", "unix:/nonexistent"}},
		{"undefined flag", []string{"-no-such-flag"}},
		{"distributed agent metrics port overflow", []string{"-fleet", "-distributed", "2", "-metrics-addr", "127.0.0.1:65535"}},
		{"unknown mirror role", []string{"-mirror", "bogus"}},
		{"no mode", nil},
	} {
		mem := filepath.Join(dir, "mem.prof")
		code, out, diag := runCaptured(t, append([]string{"-memprofile", mem}, c.args...)...)
		if code != 2 || out != "" {
			t.Errorf("%s: exit %d, stdout %q; want exit 2 and no output", c.name, code, out)
		}
		if strings.Contains(diag, "listening") {
			t.Errorf("%s: an endpoint started before the flags were rejected:\n%s", c.name, diag)
		}
		if _, err := os.Stat(mem); err == nil {
			t.Errorf("%s: the profiler started before the flags were rejected", c.name)
			os.Remove(mem)
		}
	}
	if code, _, _ := runCaptured(t, "-h"); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
}

// TestFlagDefaults pins every flag dcsim registers and its default, so
// no knob is added or lost unnoticed.
func TestFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("dcsim", flag.ContinueOnError)
	register(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	want := map[string]string{
		"agent-faults":        "false",
		"audit":               "false",
		"audit-out":           "",
		"audit-perturb":       "",
		"cpuprofile":          "",
		"distributed":         "0",
		"faults":              "",
		"fleet":               "false",
		"fleet-agent":         "false",
		"fleet-agent-connect": "",
		"fleet-agent-count":   "4",
		"fleet-agent-id":      "0",
		"fleet-agent-inc":     "0",
		"load":                "",
		"manifest":            "",
		"matrix":              "false",
		"mem-ceiling-mb":      "0",
		"memprofile":          "",
		"metrics-addr":        "",
		"mirror":              "",
		"out":                 "trace.fbm",
		"parallel":            "0",
		"paths-out":           "",
		"pcap":                "",
		"queue-interval":      "200",
		"quiet":               "false",
		"save":                "",
		"scale":               "tiny",
		"seconds":             "30",
		"seed":                "42",
		"serve":               "false",
		"serve-config":        "",
		"serve-windows":       "0",
		"sketch":              "false",
		"telemetry":           "false",
		"trace-out":           "",
		"trace-sample":        "0.1",
		"windows":             "0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags and defaults changed:\n got %v\nwant %v", got, want)
	}
}
