package core

import (
	"bytes"
	"sync"
	"testing"

	"fbdcnet/internal/netsim"
	"fbdcnet/internal/topology"
)

// TestParallelDeterminism is the engine's headline regression: the full
// QuickConfig experiment suite must produce byte-identical Summarize
// output at 1, 2, and 8 workers for the same seed — both on a healthy
// fabric and with a non-empty fault schedule in play. Worker count may
// only change wall-clock, never a single float.
func TestParallelDeterminism(t *testing.T) {
	t.Parallel() // builds its own Systems; overlaps the other multi-suite checks
	for _, scenario := range []string{"", netsim.ScenarioCSWDown} {
		var want []byte
		for _, workers := range []int{1, 2, 8} {
			cfg := QuickConfig()
			cfg.Seed = 42
			cfg.Parallelism = workers
			cfg.Taggers = workers
			cfg.FaultScenario = scenario
			compute := func() *Summary { return MustNewSystem(cfg).Summarize() }
			var sum *Summary
			var data []byte
			if workers == 1 && scenario == netsim.ScenarioCSWDown {
				// TestObsNoPerturbation's unobserved 1-worker arm is this
				// very summary: whichever test gets there first computes it.
				sum, data = sharedSummary(t, cfg, compute)
			} else {
				sum = compute()
				var err error
				if data, err = sum.JSON(); err != nil {
					t.Fatal(err)
				}
			}
			if scenario != "" && (sum.FaultInjection == nil || sum.FaultInjection.ReroutedBytes == 0) {
				t.Fatalf("scenario %q: summary is missing rerouted-byte counters: %+v",
					scenario, sum.FaultInjection)
			}
			// QuickConfig samples telemetry by default; its digest rides in
			// the same byte-compared JSON, pinning path records, occupancy
			// quantiles, and hotspot ranking at every worker count.
			if sum.Telemetry == nil || sum.Telemetry.SampledAttempts == 0 {
				t.Fatalf("scenario %q: summary is missing telemetry samples: %+v",
					scenario, sum.Telemetry)
			}
			if want == nil {
				want = data
				continue
			}
			if !bytes.Equal(data, want) {
				t.Fatalf("scenario %q: summary at %d workers differs from 1-worker output:\n%s\nvs\n%s",
					scenario, workers, data, want)
			}
		}
	}
}

// TestFleetDatasetWorkerInvariance pins the sharded collector directly:
// identical aggregates whether one worker or eight drain the task grid,
// in both collection modes. The small preset over two windows re-merges
// every source rack's rack-pair row, and the Save archive and the
// FleetDigest JSON compare every rack pair and every derived figure
// byte for byte.
func TestFleetDatasetWorkerInvariance(t *testing.T) {
	for _, matrix := range []bool{false, true} {
		var ref *System
		var refArchive, refDigest []byte
		for _, workers := range []int{1, 8} {
			cfg := QuickConfig()
			cfg.Scale = topology.ScaleSmall
			cfg.FleetWindows = 2
			cfg.FleetMatrix = matrix
			cfg.Taggers = workers
			s := MustNewSystem(cfg)
			ds := s.FleetDataset()
			var archive bytes.Buffer
			if err := ds.Save(&archive); err != nil {
				t.Fatal(err)
			}
			digest, err := s.FleetDigest().JSON()
			if err != nil {
				t.Fatal(err)
			}
			if workers == 1 {
				ref, refArchive, refDigest = s, archive.Bytes(), digest
				continue
			}
			refDS := ref.FleetDataset()
			if got, want := ds.TotalBytes(), refDS.TotalBytes(); got != want {
				t.Fatalf("matrix=%v: total bytes %v at %d workers, want %v", matrix, got, workers, want)
			}
			a, b := ds.LocalityShareAll(), refDS.LocalityShareAll()
			for _, l := range topology.Localities {
				if a[l] != b[l] {
					t.Fatalf("matrix=%v: locality %v: %v at %d workers, want %v", matrix, l, a[l], workers, b[l])
				}
			}
			for m, v := range ds.PerMinute() {
				if w := refDS.PerMinute()[m]; v != w {
					t.Fatalf("matrix=%v: minute %d: %v at %d workers, want %v", matrix, m, v, workers, w)
				}
			}
			if !bytes.Equal(archive.Bytes(), refArchive) {
				t.Fatalf("matrix=%v: Save archive at %d workers differs from 1 worker's", matrix, workers)
			}
			if !bytes.Equal(digest, refDigest) {
				t.Fatalf("matrix=%v: FleetDigest at %d workers differs:\n%s\nvs\n%s", matrix, workers, digest, refDigest)
			}
			if len(ref.Topo.Racks) <= fleetMatrixShardRacks || s.fleetShardsPerWindow() < 2 {
				t.Fatalf("matrix=%v: %d shards per window; rows are not split across cells", matrix, s.fleetShardsPerWindow())
			}
		}
	}
}

// TestFleetMatrixDeterminism pins matrix-mode collection the same way
// TestParallelDeterminism pins the sampling mode: the full summary must
// be byte-identical at 1, 2, and 8 workers when fleet traffic comes from
// the vectorised demand-matrix path.
func TestFleetMatrixDeterminism(t *testing.T) {
	if raceEnabled {
		// Three full suite runs multiply past the race job's budget; the
		// coverage job runs this without the detector.
		t.Skip("skipping multi-suite matrix determinism check under -race")
	}
	t.Parallel() // builds its own Systems; overlaps the other multi-suite checks
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		cfg := QuickConfig()
		cfg.Seed = 42
		cfg.Parallelism = workers
		cfg.Taggers = workers
		cfg.FleetMatrix = true
		sum := MustNewSystem(cfg).Summarize()
		data, err := sum.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = data
			continue
		}
		if !bytes.Equal(data, want) {
			t.Fatalf("matrix-mode summary at %d workers differs from 1-worker output:\n%s\nvs\n%s",
				workers, data, want)
		}
	}
}

// TestTraceConcurrentMemoization hammers the singleflight memo: many
// goroutines requesting the same and different bundles must agree on one
// generation per key.
func TestTraceConcurrentMemoization(t *testing.T) {
	s := MustNewSystem(QuickConfig())
	const callers = 8
	got := make([]*TraceBundle, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = s.Trace(topology.RoleWeb, s.Cfg.ShortTraceSec)
		}()
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent Trace calls returned distinct bundles")
		}
	}
	if got[0].Packets == 0 {
		t.Fatal("bundle has no packets")
	}
}
