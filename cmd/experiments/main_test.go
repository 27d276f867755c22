package main

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// runCaptured calls run(args) with stdout and stderr sent to files and
// returns the exit status and everything written to stdout.
func runCaptured(t *testing.T, args ...string) (int, string) {
	t.Helper()
	dir := t.TempDir()
	stdout, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	stderr, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = stdout, stderr
	code := run(args)
	os.Stdout, os.Stderr = oldOut, oldErr
	stdout.Close()
	stderr.Close()
	out, err := os.ReadFile(stdout.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(out)
}

// TestFlagErrors pins that every bad flag exits 2 with nothing on
// stdout, before the profiler starts.
func TestFlagErrors(t *testing.T) {
	dir := t.TempDir()
	paths := filepath.Join(dir, "paths.jsonl")
	for _, c := range []struct {
		name string
		args []string
	}{
		{"unknown scale", []string{"-scale", "bogus"}},
		{"unknown fault scenario", []string{"-faults", "bogus"}},
		{"audit-perturb without audit", []string{"-audit-perturb", "1:2"}},
		{"paths-out without trace sampling", []string{"-paths-out", paths, "-trace-sample", "0"}},
		{"agent without connect address", []string{"-fleet-agent", "-fleet-agent-count", "2"}},
		{"agent id outside the fleet", []string{"-fleet-agent", "-fleet-agent-count", "2", "-fleet-agent-id", "2", "-fleet-agent-connect", "unix:/nonexistent"}},
		{"negative agent id", []string{"-fleet-agent", "-fleet-agent-count", "2", "-fleet-agent-id", "-1", "-fleet-agent-connect", "unix:/nonexistent"}},
		{"undefined flag", []string{"-no-such-flag"}},
		{"distributed agent metrics port overflow", []string{"-distributed", "2", "-metrics-addr", "127.0.0.1:65535"}},
	} {
		mem := filepath.Join(dir, "mem.prof")
		code, out := runCaptured(t, append([]string{"-memprofile", mem}, c.args...)...)
		if code != 2 || out != "" {
			t.Errorf("%s: exit %d, stdout %q; want exit 2 and no output", c.name, code, out)
		}
		if _, err := os.Stat(mem); err == nil {
			t.Errorf("%s: the profiler started before the flags were rejected", c.name)
			os.Remove(mem)
		}
	}
	if code, _ := runCaptured(t, "-h"); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
}

// TestFlagDefaults pins every flag experiments registers and its default, so
// no knob is added or lost unnoticed.
func TestFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
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
		"fleet-agent":         "false",
		"fleet-agent-connect": "",
		"fleet-agent-count":   "4",
		"fleet-agent-id":      "0",
		"fleet-agent-inc":     "0",
		"json":                "false",
		"long":                "60",
		"manifest":            "run_manifest.json",
		"matrix":              "false",
		"mem-ceiling-mb":      "0",
		"memprofile":          "",
		"metrics-addr":        "",
		"only":                "",
		"parallel":            "0",
		"paths-out":           "",
		"queue-interval":      "200",
		"quiet":               "false",
		"scale":               "tiny",
		"seed":                "42",
		"short":               "30",
		"sketch":              "false",
		"trace-out":           "",
		"trace-sample":        "0.1",
		"windows":             "0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags and defaults changed:\n got %v\nwant %v", got, want)
	}
}
