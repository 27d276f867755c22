package main

import (
	"os"
	"path/filepath"
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

// writeManifest writes a schema-valid manifest to dir/name after edit
// has adjusted it.
func writeManifest(t *testing.T, dir, name string, edit func(*obs.Manifest)) string {
	t.Helper()
	var reg *obs.Registry
	m := reg.Manifest(obs.RunMeta{Tool: "dcsim"})
	edit(m)
	path := filepath.Join(dir, name)
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlagErrors pins that a bad flag or a missing file argument exits
// 2 with nothing on stdout, and that -h exits 0.
func TestFlagErrors(t *testing.T) {
	for _, c := range []struct {
		name string
		args []string
	}{
		{"undefined flag", []string{"-no-such-flag", "m.json"}},
		{"no files", nil},
		{"flag but no files", []string{"-audit"}},
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

// TestVerdicts pins the documented exit statuses against small
// manifests: 0 when every file validates, 1 on a schema violation, a
// heap peak over mem_ceiling_bytes, a ceiling with no recorded peak, a
// missing ledger under -audit, or an unreadable file.
func TestVerdicts(t *testing.T) {
	dir := t.TempDir()
	ceiling := func(peak float64) func(*obs.Manifest) {
		return func(m *obs.Manifest) {
			m.Config["mem_ceiling_bytes"] = 1000
			if peak > 0 {
				m.Gauges[heapPeakGauge] = peak
			}
		}
	}
	valid := writeManifest(t, dir, "valid.json", func(*obs.Manifest) {})
	under := writeManifest(t, dir, "under.json", ceiling(999))
	over := writeManifest(t, dir, "over.json", ceiling(1001))
	noPeak := writeManifest(t, dir, "nopeak.json", ceiling(0))
	badSchema := writeManifest(t, dir, "schema.json", func(m *obs.Manifest) { m.WallSeconds = -1 })
	withLedger := writeManifest(t, dir, "ledger.json", func(m *obs.Manifest) {
		rec := audit.New()
		rec.Append(audit.Checkpoint{Stage: audit.StageFleetCollect, Window: 0, Shard: 0, Sum: 7, Count: 1})
		m.Audit = rec.Section()
	})
	for _, c := range []struct {
		name string
		args []string
		want int
	}{
		{"valid", []string{valid}, 0},
		{"heap peak under ceiling", []string{under}, 0},
		{"several valid files", []string{valid, under, withLedger}, 0},
		{"heap peak over ceiling", []string{over}, 1},
		{"ceiling without a heap peak", []string{noPeak}, 1},
		{"schema violation", []string{badSchema}, 1},
		{"one bad file among good ones", []string{valid, over, under}, 1},
		{"missing file", []string{filepath.Join(dir, "missing.json")}, 1},
		{"-audit with a ledger", []string{"-audit", withLedger}, 0},
		{"-audit without a ledger", []string{"-audit", valid}, 1},
	} {
		if code, _ := runCaptured(t, c.args...); code != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, code, c.want)
		}
	}
}
