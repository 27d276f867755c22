package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/audit"
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

// writeManifest writes a schema-valid manifest to dir/name whose audit
// section holds cps; nil cps writes a manifest without an audit section.
func writeManifest(t *testing.T, dir, name string, cps []audit.Checkpoint) string {
	t.Helper()
	var reg *obs.Registry
	m := reg.Manifest(obs.RunMeta{Tool: "dcsim"})
	if cps != nil {
		rec := audit.New()
		for _, cp := range cps {
			rec.Append(cp)
		}
		m.Audit = rec.Section()
	}
	path := filepath.Join(dir, name)
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// ledger is a small fleet-collect ledger: two windows of two shards.
func ledger() []audit.Checkpoint {
	var cps []audit.Checkpoint
	for w := 0; w < 2; w++ {
		for s := 0; s < 2; s++ {
			cps = append(cps, audit.Checkpoint{Stage: audit.StageFleetCollect, Window: w, Shard: s, Sum: uint64(0x1000 + 16*w + s), Count: 5})
		}
	}
	return cps
}

// TestFlagErrors pins that a bad flag or argument count exits 2 with
// nothing on stdout, and that -h exits 0.
func TestFlagErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"undefined flag", []string{"-no-such-flag", "a.json", "b.json"}},
		{"one manifest", []string{"a.json"}},
		{"three manifests", []string{"a.json", "b.json", "c.json"}},
		{"no arguments", nil},
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

// TestVerdicts pins the documented exit statuses: 0 for identical
// ledgers, 1 for a divergence (named on stdout), 2 for a manifest
// without an audit section or a missing file.
func TestVerdicts(t *testing.T) {
	dir := t.TempDir()
	a := writeManifest(t, dir, "a.json", ledger())
	b := writeManifest(t, dir, "b.json", ledger())
	planted := ledger()
	planted[3].Sum ^= 1
	c := writeManifest(t, dir, "c.json", planted)
	none := writeManifest(t, dir, "none.json", nil)

	code, out := runCaptured(t, a, b)
	if code != 0 || !strings.Contains(out, "ledgers identical (4 checkpoints)") {
		t.Errorf("identical ledgers: exit %d, stdout %q; want 0 and the identical verdict", code, out)
	}
	code, out = runCaptured(t, a, c)
	if code != 1 || !strings.Contains(out, "first divergence") || !strings.Contains(out, "window 1, shard 1") {
		t.Errorf("planted divergence: exit %d, stdout %q; want 1 naming window 1, shard 1", code, out)
	}
	for _, args := range [][]string{{a, none}, {none, a}, {a, filepath.Join(dir, "missing.json")}} {
		if code, _ := runCaptured(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
