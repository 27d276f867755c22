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
// stdout, before the metrics endpoint or the aggregator listens.
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
		{"agent metrics port overflow", []string{"-agents", "2", "-spawn", "-metrics-addr", "127.0.0.1:65535"}},
	} {
		code, out, diag := runCaptured(t, c.args...)
		if code != 2 || out != "" {
			t.Errorf("%s: exit %d, stdout %q; want exit 2 and no output", c.name, code, out)
		}
		if strings.Contains(diag, "listening") {
			t.Errorf("%s: an endpoint started before the flags were rejected:\n%s", c.name, diag)
		}
	}
	if code, _, _ := runCaptured(t, "-h"); code != 0 {
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
