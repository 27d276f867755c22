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
// stdout.
func TestFlagErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"unknown scale", []string{"-single", "-scale", "bogus"}},
		{"audit-perturb without audit", []string{"-single", "-audit-perturb", "1:2"}},
		{"bad audit-perturb cell", []string{"-single", "-audit", "-audit-perturb", "x"}},
		{"agent without connect address", []string{"-agent", "-agents", "2"}},
		{"agent id outside the fleet", []string{"-agent", "-agents", "2", "-id", "2", "-connect", "unix:/nonexistent"}},
		{"negative agent id", []string{"-agent", "-agents", "2", "-id", "-1", "-connect", "unix:/nonexistent"}},
		{"undefined flag", []string{"-no-such-flag"}},
	} {
		code, out := runCaptured(t, c.args...)
		if code != 2 || out != "" {
			t.Errorf("%s: exit %d, stdout %q; want exit 2 and no output", c.name, code, out)
		}
	}
	if code, _ := runCaptured(t, "-h"); code != 0 {
		t.Errorf("-h: exit %d, want 0", code)
	}
}

// TestFlagDefaults pins every flag fbflowd registers and its default, so
// no knob is added or lost unnoticed.
func TestFlagDefaults(t *testing.T) {
	fs := flag.NewFlagSet("fbflowd", flag.ContinueOnError)
	register(fs)
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	want := map[string]string{
		"agent":              "false",
		"agent-faults":       "false",
		"agents":             "4",
		"audit":              "false",
		"audit-out":          "",
		"audit-perturb":      "",
		"connect":            "",
		"id":                 "0",
		"incarnation":        "0",
		"listen":             "",
		"manifest":           "",
		"matrix":             "false",
		"metrics-addr":       "",
		"parallel":           "0",
		"quiet":              "false",
		"reconnect-wait-sec": "10",
		"scale":              "tiny",
		"seed":               "42",
		"single":             "false",
		"sketch":             "false",
		"spawn":              "false",
		"trace-out":          "",
		"windows":            "0",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags and defaults changed:\n got %v\nwant %v", got, want)
	}
}
