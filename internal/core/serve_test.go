package core

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"fbdcnet/internal/obs"
)

// serveConfig returns a tiny config for fast serve windows.
func serveConfig() Config {
	cfg := QuickConfig()
	cfg.Taggers = 2
	return cfg
}

// TestServeWindowsRoll runs a short bounded serve loop and checks every
// window arrives in order with live statistics.
func TestServeWindowsRoll(t *testing.T) {
	cfg := serveConfig()
	cfg.Obs = obs.NewRegistry()
	s := MustNewSystem(cfg)
	var seen []ServeWindowStats
	err := s.Serve(context.Background(), ServeOptions{
		Windows: 3,
		OnWindow: func(st ServeWindowStats) error {
			seen = append(seen, st)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("observed %d windows, want 3", len(seen))
	}
	for i, st := range seen {
		if st.Window != i {
			t.Errorf("window %d reported index %d", i, st.Window)
		}
		if st.TotalBytes <= 0 {
			t.Errorf("window %d: TotalBytes = %v, want > 0", i, st.TotalBytes)
		}
		if st.HostRateP99 < st.HostRateP50 {
			t.Errorf("window %d: p99 %v below p50 %v", i, st.HostRateP99, st.HostRateP50)
		}
		if st.HeapBytes == 0 {
			t.Errorf("window %d: HeapBytes not measured", i)
		}
	}
	text := cfg.Obs.PrometheusText()
	for _, metric := range []string{
		"fbdcnet_serve_windows_total 3",
		"fbdcnet_serve_window_bytes",
		"fbdcnet_serve_heap_bytes",
		"fbdcnet_serve_host_rate_p99_mbps",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("serve exposition missing %q", metric)
		}
	}
}

// TestServeReproducesBatch pins serve-mode determinism: the rolling loop
// over the first FleetWindows windows must collect exactly the traffic
// the batch FleetDataset sees — the rng streams are keyed by absolute
// window index in both modes. Per-window byte totals are summed in a
// different float order than the batch merge, hence the tiny tolerance.
func TestServeReproducesBatch(t *testing.T) {
	cfg := serveConfig()
	batch := MustNewSystem(cfg).FleetDataset().TotalBytes()

	var served float64
	s := MustNewSystem(cfg)
	err := s.Serve(context.Background(), ServeOptions{
		Windows: cfg.FleetWindows,
		OnWindow: func(st ServeWindowStats) error {
			served += st.TotalBytes
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if batch <= 0 {
		t.Fatal("batch collection saw no traffic")
	}
	if rel := math.Abs(served-batch) / batch; rel > 1e-9 {
		t.Fatalf("serve total %v vs batch total %v (rel err %g)", served, batch, rel)
	}
}

// TestServeReload applies a reconfig mid-loop: sketch mode switches on at
// the next window boundary and distinct-population estimates appear.
func TestServeReload(t *testing.T) {
	cfg := serveConfig()
	s := MustNewSystem(cfg)
	reload := make(chan Config, 1)
	var seen []ServeWindowStats
	err := s.Serve(context.Background(), ServeOptions{
		Windows: 2,
		Reload:  reload,
		OnWindow: func(st ServeWindowStats) error {
			seen = append(seen, st)
			if st.Window == 0 {
				next := s.Cfg
				next.SketchMode = true
				reload <- next
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("observed %d windows, want 2", len(seen))
	}
	if seen[0].DistinctFlows != 0 {
		t.Errorf("window 0 ran exact but reported distinct flows %v", seen[0].DistinctFlows)
	}
	if seen[1].DistinctFlows <= 0 {
		t.Errorf("window 1 ran after the sketch reload but reported no distinct flows")
	}
	if !s.Cfg.SketchMode {
		t.Error("reload did not apply SketchMode to the system config")
	}
}

// TestServeCancel stops the loop at the next window boundary without an
// error, the clean-shutdown path SIGINT takes in cmd/dcsim.
func TestServeCancel(t *testing.T) {
	cfg := serveConfig()
	s := MustNewSystem(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	windows := 0
	err := s.Serve(ctx, ServeOptions{
		Windows: 100,
		OnWindow: func(ServeWindowStats) error {
			windows++
			cancel()
			return nil
		},
	})
	if err != nil {
		t.Fatalf("cancelled serve returned %v, want nil", err)
	}
	if windows != 1 {
		t.Fatalf("loop ran %d windows after cancel, want 1", windows)
	}
}

// TestServeMemCeiling pins the bounded-memory contract: a ceiling below
// any real heap stops the loop with a descriptive error.
func TestServeMemCeiling(t *testing.T) {
	cfg := serveConfig()
	cfg.MemCeilingBytes = 1
	s := MustNewSystem(cfg)
	err := s.Serve(context.Background(), ServeOptions{Windows: 2})
	if err == nil {
		t.Fatal("serve ignored an unsatisfiable memory ceiling")
	}
	if !strings.Contains(err.Error(), "exceeds ceiling") {
		t.Fatalf("ceiling error %q missing diagnosis", err)
	}
}

// TestServeOnWindowError propagates a callback failure.
func TestServeOnWindowError(t *testing.T) {
	cfg := serveConfig()
	s := MustNewSystem(cfg)
	boom := errors.New("sink full")
	err := s.Serve(context.Background(), ServeOptions{
		Windows:  5,
		OnWindow: func(ServeWindowStats) error { return boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the callback error", err)
	}
}

// TestLoadServeConfigOverlay exercises the SIGHUP file overlay: absent
// keys keep launch-time values, present keys replace them.
func TestLoadServeConfigOverlay(t *testing.T) {
	// Exercised from the cmd/dcsim side; here we pin applyReload, the
	// core half of the contract.
	cfg := serveConfig()
	s := MustNewSystem(cfg)
	next := cfg
	next.FleetSamples = cfg.FleetSamples * 2
	next.SketchMode = true
	next.MemCeilingBytes = 1 << 30
	s.applyReload(next)
	if s.Cfg.FleetSamples != next.FleetSamples || !s.Cfg.SketchMode || s.Cfg.MemCeilingBytes != 1<<30 {
		t.Errorf("reload not applied: %+v", s.Cfg)
	}
}
