package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"fbdcnet/internal/sketch"
)

// Serve mode: an endless rolling-window fleet collection. Each window
// is a one-window call of the collector FleetDataset runs, into a
// window-local dataset that is dropped once its statistics
// are extracted — live memory is bounded by one window plus the fixed
// sketch state, no matter how long the loop runs. Window w's rng streams
// are keyed exactly like batch mode's window w, so a serve run over the
// first FleetWindows windows reproduces the batch collection
// window-for-window, bit-identically.

// ServeWindowStats summarizes one completed window of the rolling loop.
type ServeWindowStats struct {
	Window     int     // rolling window index (monotonic, unbounded)
	TotalBytes float64 // fleet bytes collected this window
	// Distinct-population estimates (sketch mode only; zero otherwise).
	DistinctFlows float64
	DistinctHosts float64
	DistinctRacks float64
	// Per-host outbound rate quantiles over the window, Mbps, from a
	// t-digest rebuilt each window (deterministic: hosts feed in ID order).
	HostRateP50 float64
	HostRateP99 float64
	HeapBytes   uint64  // live heap after the window's dataset was dropped
	WallSec     float64 // wall-clock spent collecting the window
}

// ServeOptions configures System.Serve.
type ServeOptions struct {
	// Windows stops the loop after this many windows; <= 0 runs until the
	// context is cancelled.
	Windows int
	// Reload delivers replacement configs (SIGHUP in cmd/dcsim). Only the
	// window-shape fields are applied — FleetWindowSec, FleetSamples,
	// FleetMatrix, Taggers, MemCeilingBytes, SketchMode — at the next
	// window boundary; topology-shaping fields (Scale, Seed) are ignored,
	// since they would require rebuilding the System.
	Reload <-chan Config
	// OnWindow, when non-nil, observes each completed window; returning an
	// error stops the loop with that error.
	OnWindow func(ServeWindowStats) error
}

// applyReload merges the reloadable fields of next into the system
// config.
func (s *System) applyReload(next Config) {
	c := &s.Cfg
	c.FleetWindowSec = next.FleetWindowSec
	c.FleetSamples = next.FleetSamples
	c.FleetMatrix = next.FleetMatrix
	c.Taggers = next.Taggers
	c.MemCeilingBytes = next.MemCeilingBytes
	c.SketchMode = next.SketchMode
}

// Serve runs the rolling-window collection loop until the context is
// cancelled, opts.Windows windows have completed, the memory ceiling is
// breached, or OnWindow returns an error.
func (s *System) Serve(ctx context.Context, opts ServeOptions) error {
	reg := s.Cfg.Obs
	rates := sketch.NewTDigest(100)
	windows := reg.Counter("fbdcnet_serve_windows_total",
		"rolling windows completed by the serve loop")

	for w := 0; opts.Windows <= 0 || w < opts.Windows; w++ {
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		// Drain pending reconfigs; the last one wins.
		for {
			var applied bool
			select {
			case next, ok := <-opts.Reload:
				if ok {
					s.applyReload(next)
					applied = true
				}
			default:
			}
			if !applied {
				break
			}
		}

		start := time.Now()
		ds := s.collectWindows(w, 1)
		st := ServeWindowStats{
			Window:     w,
			TotalBytes: ds.TotalBytes(),
			WallSec:    time.Since(start).Seconds(),
		}
		if card := ds.Cardinality(); card != nil {
			st.DistinctFlows = card.Flows()
			st.DistinctHosts = card.Hosts()
			st.DistinctRacks = card.Racks()
		}
		// Per-host outbound Mbps over the window, digested. Feeding in
		// host-ID order keeps the digest a pure function of the dataset.
		rates.Reset()
		hostOut := ds.HostOut()
		winSec := s.Cfg.FleetWindowSec
		if winSec > 0 {
			for h := 0; h < s.Topo.NumHosts(); h++ {
				if b, ok := hostOut.At(h); ok {
					rates.Add(b*8/winSec/1e6, 1)
				}
			}
		}
		st.HostRateP50 = rates.Quantile(0.5)
		st.HostRateP99 = rates.Quantile(0.99)

		// The window's dataset dies here; measure what the loop retains.
		ds = nil //nolint:ineffassign,wasted // release before the heap read
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		st.HeapBytes = ms.HeapAlloc

		if reg.Enabled() {
			reg.AddCounter(windows, 1)
			reg.SetGauge("fbdcnet_serve_window", float64(st.Window))
			reg.SetGauge("fbdcnet_serve_window_bytes", st.TotalBytes)
			reg.SetGauge("fbdcnet_serve_window_wall_seconds", st.WallSec)
			reg.SetGauge("fbdcnet_serve_heap_bytes", float64(st.HeapBytes))
			reg.SetGauge("fbdcnet_serve_host_rate_p50_mbps", st.HostRateP50)
			reg.SetGauge("fbdcnet_serve_host_rate_p99_mbps", st.HostRateP99)
		}
		if c := s.Cfg.MemCeilingBytes; c > 0 && int64(st.HeapBytes) > c {
			return fmt.Errorf("core: serve window %d: heap %d bytes exceeds ceiling %d",
				w, st.HeapBytes, c)
		}
		if opts.OnWindow != nil {
			if err := opts.OnWindow(st); err != nil {
				return err
			}
		}
	}
	return nil
}
