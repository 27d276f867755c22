package core

import (
	"runtime"
	"sync"
	"time"

	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/fbwire"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/services"
	"fbdcnet/internal/topology"
)

// fleetShardHosts is the fixed host-range width of one fleet collection
// shard. It is a constant, not a function of the worker count: every
// (window, shard) task draws from an rng stream keyed by its own
// coordinates, so the partition must be identical no matter how many
// workers run it — that is what makes the collected dataset bit-identical
// at -parallel 1, 2, or 8.
const fleetShardHosts = 128

// fleetMatrixShardRacks is the rack-range width of one matrix-mode shard:
// matrix synthesis walks racks, not hosts, so shards partition the rack ID
// space. Like fleetShardHosts it is a constant so the task grid — and with
// it every shard's rng stream — is independent of the worker count.
const fleetMatrixShardRacks = 64

// FleetDataset runs the Fbflow collection over the whole fleet for the
// configured synthetic day and returns the aggregated dataset. The result
// is memoized: Table 3, Figure 5, and §4.1 share one collection run, as
// they did in the paper.
//
// Collection is sharded by (window, host-range) across
// Config.TaggerWorkers() workers — the modern form of the tagger stage:
// each worker generates its shard's flows, tags them inline, and
// accumulates into a shard-local partial dataset. Partials merge in task
// order, so results do not depend on worker count or scheduling.
//
// With Config.FleetMatrix set, shards span rack ranges instead of host
// ranges and each worker synthesizes a demand matrix for its racks before
// drawing flows from it (see services.MatrixProgram).
func (s *System) FleetDataset() *fbflow.Dataset {
	s.fleetOnce.Do(func() { s.fleet = s.collectWindows(0, s.Cfg.FleetWindows) })
	return s.fleet
}

// fleetTask is one unit of fleet collection: one shard of hosts (sampling
// mode) or racks (matrix mode) within one observation window.
type fleetTask struct {
	window int
	shard  int
	lo, hi int // host ID range [lo, hi), or rack ID range in matrix mode
}

// fleetGrid returns the size of the ID space the shards partition and
// one shard's width: hosts in sampling mode, racks in matrix mode.
func (s *System) fleetGrid() (n, width int) {
	if s.Cfg.FleetMatrix {
		return len(s.Topo.Racks), fleetMatrixShardRacks
	}
	return s.Topo.NumHosts(), fleetShardHosts
}

// fleetShardsPerWindow returns the shard-axis width of the task grid —
// a pure function of topology size and collection mode, never of the
// agent or worker count.
func (s *System) fleetShardsPerWindow() int {
	n, width := s.fleetGrid()
	return (n + width - 1) / width
}

// fleetTask is the one task constructor: cell (window, shard) of the
// grid with its ID range.
func (s *System) fleetTask(window, shard int) fleetTask {
	n, width := s.fleetGrid()
	lo := shard * width
	return fleetTask{window: window, shard: shard, lo: lo, hi: min(lo+width, n)}
}

// Cell is one task's complete output and the unit every collector moves
// to the merge frontier: the partial dataset, the obs delta recorded
// while computing it, and its audit checkpoints (matrix-synth then
// fleet-collect in matrix mode, fleet-collect alone otherwise).
type Cell struct {
	Partial *fbflow.Partial
	// Obs is the cell's metric delta as a live shard. Delta is the same
	// delta in wire form: an agent encodes it for the CELL frame, and
	// the aggregator parks it in place of Obs.
	Obs   *obs.Shard
	Delta []byte
	// NAudit is 0 when the cell carries no trusted checkpoint (auditing
	// off, or a dropped audit section): it lands in the ledger as a hole.
	Audit  [fbwire.MaxAuditCells]audit.Checkpoint
	NAudit int
}

// newPartial returns an empty partial for this System's collection mode.
func (s *System) newPartial() *fbflow.Partial {
	p := fbflow.NewPartial()
	if s.Cfg.SketchMode {
		p.EnableCardinality()
	}
	return p
}

// cellScratch is one worker's reusable collection state. The tagger and
// programs are read-only and shared across workers; the demand matrix
// and the checkpoint hashes are the worker's own.
type cellScratch struct {
	tagger *fbflow.Tagger
	prog   *services.FleetProgram
	mprog  *services.MatrixProgram
	mat    *services.DemandMatrix
	fh, mh audit.Hash
}

// newCellScratch returns one scratch per worker. The demand matrix is
// reused (Reset, not reallocated) across every task its worker runs, so
// steady-state synthesis is allocation-free.
func (s *System) newCellScratch(workers int) []*cellScratch {
	tagger := fbflow.NewTagger(s.Topo)
	var prog *services.FleetProgram
	var mprog *services.MatrixProgram
	if s.Cfg.FleetMatrix {
		mprog = services.NewMatrixProgram(s.Pick, s.Cfg.Params)
	} else {
		prog = services.NewFleetProgram(s.Pick, s.Cfg.Params)
	}
	out := make([]*cellScratch, workers)
	for i := range out {
		out[i] = &cellScratch{tagger: tagger, prog: prog, mprog: mprog}
		if s.Cfg.FleetMatrix {
			out[i].mat = services.NewDemandMatrix()
		}
	}
	return out
}

// collectCell computes task t into c: the partial (which must arrive
// empty), the obs counters, the shard-time observation and the
// checkpoints. It is the only producer of cells — batch and serve
// workers, distributed agents and the sequential oracle all call it —
// and returns the compute time when metrics are on (0 otherwise).
func (s *System) collectCell(t fleetTask, sc *cellScratch, c *Cell) time.Duration {
	reg := s.Cfg.Obs
	var t0 time.Time
	if reg.Enabled() {
		t0 = time.Now()
	}
	var fh, mh *audit.Hash
	if s.Cfg.Audit.Enabled() {
		sc.fh.Reset()
		fh = &sc.fh
		if s.Cfg.FleetMatrix {
			sc.mh.Reset()
			mh = &sc.mh
		}
	}
	if s.Cfg.FleetMatrix {
		s.collectMatrixShard(sc.tagger, sc.mprog, t, sc.mat, c.Partial, c.Obs, fh, mh)
	} else {
		s.collectShard(sc.tagger, sc.prog, t, c.Partial, c.Obs, fh)
	}
	c.NAudit = 0
	if mh != nil {
		c.Audit[0] = audit.Checkpoint{Stage: audit.StageMatrixSynth, Window: t.window, Shard: t.shard, Sum: mh.Sum(), Count: mh.Count()}
		c.NAudit = 1
	}
	if fh != nil {
		c.Audit[c.NAudit] = audit.Checkpoint{Stage: audit.StageFleetCollect, Window: t.window, Shard: t.shard, Sum: fh.Sum(), Count: fh.Count()}
		c.NAudit++
	}
	if !reg.Enabled() {
		return 0
	}
	d := time.Since(t0)
	c.Obs.Observe(s.obsIDs.fleetShardUs, d.Microseconds())
	return d
}

// consumeCell is what the merge frontier does with cell t: merge the
// partial, fold the obs shard, and land the checkpoints in the ledger.
// A nil c is a gapped cell. A gapped cell, or one without checkpoints,
// is recorded as an explicit hole: a hole means "no trusted hash",
// never "hash of nothing", so a crashed run's ledger prefix still
// compares byte-for-byte against a clean run's.
func (s *System) consumeCell(ds *fbflow.Dataset, t fleetTask, c *Cell) {
	if c != nil {
		ds.MergePartial(c.Partial)
		c.Obs.Fold()
	}
	aud := s.Cfg.Audit
	if !aud.Enabled() {
		return
	}
	if c != nil && c.NAudit > 0 {
		for _, cp := range c.Audit[:c.NAudit] {
			aud.Append(cp)
		}
		aud.BB().Record(audit.EvCellMerge, audit.StageFleetCollect, int64(t.window), int64(t.shard))
		return
	}
	if s.Cfg.FleetMatrix {
		aud.Hole(audit.StageMatrixSynth, t.window, t.shard)
	}
	aud.Hole(audit.StageFleetCollect, t.window, t.shard)
	aud.BB().Record(audit.EvCellHole, audit.StageFleetCollect, int64(t.window), int64(t.shard))
}

// frontier is the task-order merge frontier every collector shares:
// cells complete in any order, park at their index, and are consumed
// strictly in index order once every earlier cell has been consumed or
// gapped. The consume sequence is therefore exactly task order —
// bit-identical across worker and agent counts — while live memory
// stays bounded by the out-of-order window instead of the whole grid.
// It holds no lock: callers serialize park, gap and advance.
type frontier[T any] struct {
	cells   []T
	state   []uint8 // cellPending, cellParked or cellGapped
	next    int     // first unconsumed index
	parked  int     // cells parked and not yet consumed
	consume func(i int, v T, ok bool)
}

const (
	cellPending = iota
	cellParked
	cellGapped
)

// newFrontier returns a frontier over n cells. consume receives each
// cell in index order; ok is false (and v the zero value) for a gap.
func newFrontier[T any](n int, consume func(i int, v T, ok bool)) *frontier[T] {
	return &frontier[T]{cells: make([]T, n), state: make([]uint8, n), consume: consume}
}

// park stores cell i and advances; it reports whether the frontier moved.
func (f *frontier[T]) park(i int, v T) bool {
	f.cells[i], f.state[i] = v, cellParked
	f.parked++
	return f.advance()
}

// gap marks cell i as never arriving. Call advance once the run of gaps
// is marked.
func (f *frontier[T]) gap(i int) { f.state[i] = cellGapped }

// advance consumes every cell the frontier can reach and reports
// whether it moved.
func (f *frontier[T]) advance() bool {
	start := f.next
	for f.next < len(f.state) && f.state[f.next] != cellPending {
		i := f.next
		v, ok := f.cells[i], f.state[i] == cellParked
		var zero T
		f.cells[i] = zero
		if ok {
			f.parked--
		}
		f.next++
		f.consume(i, v, ok)
	}
	return f.next > start
}

// stalled reports whether the head cell is missing while later cells
// wait parked behind it.
func (f *frontier[T]) stalled() bool {
	return f.parked > 0 && f.next < len(f.state) && f.state[f.next] == cellPending
}

// collectWindows runs windows [w0, w0+windows) of the sharded synthetic
// day and merges their cells at the frontier. Batch collection is one
// call over the whole day; serve mode calls it once per rolling window.
// Merged cells return to a pool for reuse, and each cell's obs shard
// folds as its partial merges, so the registry's fold sequence is task
// order too: metric state at any frontier is reproducible at any worker
// count, and a live scrape can never observe half a shard.
func (s *System) collectWindows(w0, windows int) *fbflow.Dataset {
	reg := s.Cfg.Obs
	sp := reg.StartSpan("fleet-collect")
	defer sp.End()
	bb := s.Cfg.Audit.BB()
	bb.Record(audit.EvStageEnter, audit.StageFleetCollect, 0, 0)
	defer bb.Record(audit.EvStageExit, audit.StageFleetCollect, 0, 0)

	spw := s.fleetShardsPerWindow()
	n := spw * windows
	task := func(i int) fleetTask { return s.fleetTask(w0+i/spw, i%spw) }
	ds := fbflow.NewDataset()
	workers := min(s.Cfg.TaggerWorkers(), n)
	scratch := s.newCellScratch(workers)
	pool := sync.Pool{New: func() any { return &Cell{Partial: s.newPartial(), Obs: reg.NewShard()} }}
	winProg := reg.NewProgress("fleet-windows", int64(w0+windows))
	busyNs := make([]int64, workers+1) // worker-owned slots, summed after the run
	collectStart := time.Now()

	var mu sync.Mutex
	front := newFrontier(n, func(i int, c *Cell, _ bool) {
		s.consumeCell(ds, task(i), c)
		c.Partial.Reset()
		pool.Put(c)
	})
	runParallelWorkers(workers, n, func(w, i int) {
		c := pool.Get().(*Cell)
		busyNs[w] += s.collectCell(task(i), scratch[w], c).Nanoseconds()
		mu.Lock()
		if front.park(i, c) && reg.Enabled() {
			winProg.Set(int64(w0 + front.next/spw))
		}
		mu.Unlock()
	})

	if reg.Enabled() {
		winProg.Set(int64(w0 + windows))
		elapsed := time.Since(collectStart).Nanoseconds()
		var busy int64
		for _, b := range busyNs {
			busy += b
		}
		if workers > 0 && elapsed > 0 {
			reg.SetGauge("fbdcnet_fleet_worker_busy_frac",
				float64(busy)/float64(elapsed*int64(workers)))
		}
		if att := reg.CounterValue("fbdcnet_fleet_flow_attempts_total"); att > 0 {
			reg.SetGauge("fbdcnet_fleet_sampling_coverage",
				float64(reg.CounterValue("fbdcnet_fleet_records_total"))/float64(att))
		}
		// Record the post-collect heap so the run manifest carries the
		// memory footprint of the fleet stage (the dataset is fully merged
		// here, so live heap ≈ the stage's peak retained set). The gauge is
		// what cmd/manifestcheck compares against mem_ceiling_bytes.
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		reg.SetGauge("fbdcnet_fleet_heap_peak_bytes", float64(ms.HeapAlloc))
		// Sketch mode carries HLL distinct-population sketches through the
		// same frontier; surface their estimates next to the byte gauges.
		if card := ds.Cardinality(); card != nil {
			reg.SetGauge("fbdcnet_fleet_distinct_flows", card.Flows())
			reg.SetGauge("fbdcnet_fleet_distinct_hosts", card.Hosts())
			reg.SetGauge("fbdcnet_fleet_distinct_racks", card.Racks())
		}
	}
	return ds
}

// collectMatrixShard synthesizes one rack-range shard's demand matrix and
// draws its flows into the caller's partial. The matrix is reused across
// tasks (Reset keeps its backing arrays), so the steady state allocates
// nothing. The rng stream is keyed by (seed, window, shard) exactly like
// sampling mode — a distinct seed fold keeps the two modes' streams
// decorrelated.
func (s *System) collectMatrixShard(tagger *fbflow.Tagger, prog *services.MatrixProgram, t fleetTask, m *services.DemandMatrix, into *fbflow.Partial, sh *obs.Shard, fh, mh *audit.Hash) {
	r := rng.NewKeyed(s.Cfg.Seed^0x3a721c, uint64(t.window), uint64(t.shard))
	load := DiurnalFactor(float64(t.window) / float64(s.Cfg.FleetWindows))
	minute := int64(t.window)
	ids := &s.obsIDs
	m.Reset()
	prog.Synth(r, t.lo, t.hi, s.Cfg.FleetWindowSec, load, m)
	sh.Add(ids.fleetMatrixCells, int64(m.Cells()))
	if mh.Enabled() {
		// Checkpoint the synthesized matrix before the draw: cells iterate
		// in insertion order, which Synth fixes per (seed, window, shard).
		m.EachCell(func(srcRack, dstRack int32, bytes float64) {
			mh.U64(uint64(uint32(srcRack))<<32 | uint64(uint32(dstRack)))
			mh.F64(bytes)
		})
	}
	prog.DrawFlows(r, m, func(src, dst topology.HostID, bytes float64) {
		sh.Inc(ids.fleetAttempts)
		if rec, ok := tagger.Flow(minute, s.Topo.Addr(src), s.Topo.Addr(dst), bytes); ok {
			into.Add(rec)
			sh.Inc(ids.fleetRecords)
			rec.FoldAudit(fh)
		}
	})
}

// collectShard generates and tags one task's flows into the caller's
// partial accumulator. The rng stream is a pure function of (seed,
// window, shard): the sample sequence a shard sees is fixed at
// configuration time, not at scheduling time. The obs shard counts
// offered versus sampled flows; a nil shard (observability disabled)
// costs two predicted branches per flow.
func (s *System) collectShard(tagger *fbflow.Tagger, prog *services.FleetProgram, t fleetTask, into *fbflow.Partial, sh *obs.Shard, fh *audit.Hash) {
	r := rng.NewKeyed(s.Cfg.Seed^0xf1ee7, uint64(t.window), uint64(t.shard))
	load := DiurnalFactor(float64(t.window) / float64(s.Cfg.FleetWindows))
	minute := int64(t.window)
	ids := &s.obsIDs
	var srcAddr packet.Addr
	emit := func(dst topology.HostID, bytes float64) {
		sh.Inc(ids.fleetAttempts)
		if rec, ok := tagger.Flow(minute, srcAddr, s.Topo.Addr(dst), bytes); ok {
			into.Add(rec)
			sh.Inc(ids.fleetRecords)
			rec.FoldAudit(fh)
		}
	}
	for src := topology.HostID(t.lo); src < topology.HostID(t.hi); src++ {
		srcAddr = s.Topo.Addr(src)
		prog.Flows(r, src, s.Cfg.FleetWindowSec, load, s.Cfg.FleetSamples, emit)
	}
}

// FleetDurationSec returns the total observed duration of the synthetic
// day in seconds.
func (s *System) FleetDurationSec() float64 {
	return float64(s.Cfg.FleetWindows) * s.Cfg.FleetWindowSec
}
