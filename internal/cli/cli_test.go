package cli

import (
	"flag"
	"io"
	"log/slog"
	"testing"

	"fbdcnet/internal/core"
)

func TestParsePerturb(t *testing.T) {
	cases := []struct {
		spec          string
		window, shard int
		ok            bool
	}{
		{"3:5", 3, 5, true},
		{"0:0", 0, 0, true},
		{"12:104", 12, 104, true},
		{"", 0, 0, false},
		{"3", 0, 0, false},
		{"3:", 0, 0, false},
		{":5", 0, 0, false},
		{"a:5", 0, 0, false},
		{"3:b", 0, 0, false},
		{"-1:5", 0, 0, false},
		{"3:-5", 0, 0, false},
		{"1:2:3", 0, 0, false},
	}
	for _, c := range cases {
		w, s, err := ParsePerturb(c.spec)
		if (err == nil) != c.ok || w != c.window || s != c.shard {
			t.Errorf("ParsePerturb(%q) = %d, %d, %v; want %d, %d, ok=%v", c.spec, w, s, err, c.window, c.shard, c.ok)
		}
	}
}

// TestRunAgentRejectsBadIdentity pins the flag errors every command's
// agent mode shares: no aggregator address, or an id outside the fleet,
// fails Apply, so the command exits 2 before it dials anything.
func TestRunAgentRejectsBadIdentity(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	for _, args := range [][]string{
		{"-fleet-agent", "-fleet-agent-count", "2"},
		{"-fleet-agent", "-fleet-agent-count", "2", "-fleet-agent-id", "2", "-fleet-agent-connect", "unix:/nonexistent"},
		{"-fleet-agent", "-fleet-agent-count", "2", "-fleet-agent-id", "-1", "-fleet-agent-connect", "unix:/nonexistent"},
	} {
		fs := flag.NewFlagSet("agent", flag.ContinueOnError)
		f := Register(fs, HiddenAgent)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		cfg := core.QuickConfig()
		if err := f.Apply(&cfg, logger); err == nil {
			t.Errorf("%v: Apply accepted the agent identity", args)
		}
	}
}
