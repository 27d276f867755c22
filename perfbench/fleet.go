package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"fbdcnet/internal/core"
	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/fbwire"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/services"
	"fbdcnet/internal/topology"
)

// The fleet workloads are the Fbflow collection behind Table 3, Figure 5
// and §4.1: System.FleetDataset followed by FleetDigest.
//
//   - fleet: per-host flow sampling at large scale (services.FleetProgram
//     → fbflow tag and accumulate → core's task-order frontier → digest),
//     on a working set far larger than cache.
//   - fleet-wire: rack-pair matrix synthesis at xlarge scale
//     (services.MatrixProgram) collected by two in-process agents
//     (RunFleetAgent, each with its own System) streaming fbwire frames
//     over unix sockets to ServeFleetAggregator. The million-host memory
//     case, and the same fbflow layer as fleet through a different
//     producer and transport.

// Task-grid constants and rng seed folds of core's fleet collection. The
// replay must match them to reproduce the digest; the digest oracle fails
// loudly if core ever changes them.
const (
	fleetShardHosts       = 128
	fleetMatrixShardRacks = 64
	samplingSeedFold      = 0xf1ee7
	matrixSeedFold        = 0x3a721c
)

// fleetAgents is the agent count of fleet-wire.
const fleetAgents = 2

func fleetConfig(r *runner, matrix bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = r.seed
	cfg.Parallelism, cfg.Taggers = r.workers, r.workers
	cfg.FleetMatrix = matrix
	switch {
	case r.smoke:
		cfg.Scale, cfg.FleetWindows = topology.ScaleTiny, 2
	case matrix:
		cfg.Scale, cfg.FleetWindows = topology.ScaleXLarge, 1
	default:
		cfg.Scale, cfg.FleetWindows = topology.ScaleLarge, 2
	}
	return cfg
}

func digestJSON(s *core.System) ([]byte, error) {
	return s.FleetDigest().JSON()
}

// sameDigest records the first call's digest and checks later ones
// against it.
func sameDigest(first *[]byte, got []byte) error {
	if *first == nil {
		*first = got
		return nil
	}
	if !bytes.Equal(got, *first) {
		return fmt.Errorf("repeat call digest differs")
	}
	return nil
}

func runFleet(r *runner) {
	cfg := fleetConfig(r, false)
	var first []byte
	r.loop(func() (trial, error) {
		s, err := core.NewSystem(cfg)
		if err != nil {
			return trial{}, err
		}
		r.work = hostWindows(s)
		var got []byte
		return trial{
			run: func() error {
				s.FleetDataset()
				got, err = digestJSON(s)
				return err
			},
			verify: func() error { return sameDigest(&first, got) },
		}, nil
	}, func() error { _, err := core.NewSystem(cfg); return err })
	if first == nil {
		return
	}

	// Oracle: the 1-worker phase-batched replay digests to the same bytes.
	var rep fleetRun
	untraced := timed(func() { rep = fleetReplay(nil, cfg, false) })
	r.check(bytes.Equal(rep.digest, first), "1-worker replay digest differs from FleetDigest")
	if !r.trace {
		return
	}
	t := NewTracer()
	timed(func() { rep = fleetReplay(t, cfg, false) })
	r.check(bytes.Equal(rep.digest, first), "traced replay digest differs from FleetDigest")
	untraced = (untraced + timed(func() { fleetReplay(nil, cfg, false) })) / 2
	r.setLayer(t, rep.root, untraced, func(l map[string]float64) {
		deriveFleet(l, rep)
		if med := median(r.walls); med > 0 {
			l["core.parallel_eff"] = (untraced - rep.buildS) / (med * float64(r.workers))
		}
	})
}

func hostWindows(s *core.System) float64 {
	return float64(s.Topo.NumHosts()) * float64(s.Cfg.FleetWindows)
}

func deriveFleet(l map[string]float64, rep fleetRun) {
	cells := float64(len(rep.cellMs))
	l["core.cells"] = cells
	l["core.cell_p50_ms"] = median(rep.cellMs)
	p := tailPercentile(len(rep.cellMs))
	l["core.cell_tail_pct"] = p
	l["core.cell_tail_ms"] = percentile(rep.cellMs, p)
	if att := l["services.flow_attempts"]; att > 0 {
		l["fbflow.sample_frac"] = l["fbflow.records"] / att
	}
	l["fbflow.allocs_per_cell"] = float64(rep.flowAllocs) / cells
	if rep.wireBytes > 0 {
		l["fbwire.bytes_per_cell"] = float64(rep.wireBytes) / cells
		l["fbwire.allocs_per_cell"] = float64(rep.wireAllocs) / cells
	}
}

func runFleetWire(r *runner) {
	cfg := fleetConfig(r, true)
	var first []byte
	var seq atomic.Int64
	r.loop(func() (trial, error) {
		d, err := newDistributed(cfg, seq.Add(1), false)
		if err != nil {
			return trial{}, err
		}
		r.work = hostWindows(d.agg)
		var got []byte
		return trial{
			run: func() error {
				got, err = d.run()
				return err
			},
			verify:  func() error { return sameDigest(&first, got) },
			cleanup: d.close,
		}, nil
	}, func() error {
		d, err := newDistributed(cfg, seq.Add(1), false)
		if err == nil {
			d.close()
		}
		return err
	})
	if first == nil {
		return
	}

	// Oracle: the single-process collection of the same config digests to
	// the same bytes (computed outside the timed region).
	ref, err := core.NewSystem(cfg)
	if r.checkErr(err, "reference system") {
		want, err := digestJSON(ref)
		if r.checkErr(err, "reference digest") {
			r.check(bytes.Equal(want, first), "distributed digest differs from single-process digest")
		}
	}
	if !r.trace {
		return
	}
	var rep fleetRun
	untraced := timed(func() { rep = fleetReplay(nil, cfg, true) })
	r.check(bytes.Equal(rep.digest, first), "replay digest differs from distributed digest")
	t := NewTracer()
	timed(func() { rep = fleetReplay(t, cfg, true) })
	r.check(bytes.Equal(rep.digest, first), "traced replay digest differs from distributed digest")
	untraced = (untraced + timed(func() { fleetReplay(nil, cfg, true) })) / 2

	// One more distributed call with the agent conns and the aggregator
	// listener wrapped, for the blocked-write and blocked-read times.
	d, err := newDistributed(cfg, seq.Add(1), true)
	if r.checkErr(err, "wrapped distributed setup") {
		got, err := d.run()
		d.close()
		if r.checkErr(err, "wrapped distributed call") {
			r.check(bytes.Equal(got, first), "wrapped distributed digest differs")
		}
		t.Count("core.agent_send_block_s", float64(d.sendBlock.Load())/1e9)
		t.Count("core.aggregator_wait_s", float64(d.recvWait.Load())/1e9)
	}
	r.setLayer(t, rep.root, untraced, func(l map[string]float64) { deriveFleet(l, rep) })
}

// distributed is one set-up fleet-wire call: an aggregator System, one
// System per agent, the listener, and the agents' pre-dialled conns.
type distributed struct {
	agg       *core.System
	agents    []*core.System
	ln        net.Listener
	conns     []net.Conn
	sendBlock atomic.Int64 // ns agents spent in conn writes (wrapped only)
	recvWait  atomic.Int64 // ns the aggregator spent in conn reads (wrapped only)
}

// newDistributed builds the systems and dials every agent. The socket is
// in the abstract unix namespace, so nothing is written to disk.
func newDistributed(cfg core.Config, seq int64, wrap bool) (*distributed, error) {
	d := &distributed{}
	var err error
	if d.agg, err = core.NewSystem(cfg); err != nil {
		return nil, err
	}
	for a := 0; a < fleetAgents; a++ {
		s, err := core.NewSystem(cfg)
		if err != nil {
			return nil, err
		}
		d.agents = append(d.agents, s)
	}
	addr := fmt.Sprintf("@fbdcnet-perfbench-%d-%d", os.Getpid(), seq)
	if d.ln, err = net.Listen("unix", addr); err != nil {
		return nil, err
	}
	if wrap {
		d.ln = &timedListener{Listener: d.ln, wait: &d.recvWait}
	}
	for a := 0; a < fleetAgents; a++ {
		c, err := core.DialFleetAgent("unix", addr, 5*time.Second)
		if err != nil {
			d.close()
			return nil, err
		}
		if wrap {
			c = &timedConn{Conn: c, writeNs: &d.sendBlock}
		}
		d.conns = append(d.conns, c)
	}
	return d, nil
}

// run is the timed call: aggregator start to merged digest.
func (d *distributed) run() ([]byte, error) {
	errs := make([]error, len(d.agents))
	var wg sync.WaitGroup
	for a, s := range d.agents {
		wg.Add(1)
		go func(a int, s *core.System) {
			defer wg.Done()
			errs[a] = s.RunFleetAgent(a, len(d.agents), 0, d.conns[a], -1)
		}(a, s)
	}
	ds, gaps, err := d.agg.ServeFleetAggregator(d.ln, len(d.agents), 10*time.Second)
	if err != nil {
		for _, c := range d.conns {
			c.Close()
		}
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	for a, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("agent %d: %w", a, e)
		}
	}
	if len(gaps) > 0 {
		return nil, fmt.Errorf("%d coverage gaps", len(gaps))
	}
	if !d.agg.InjectFleetDataset(ds, gaps) {
		return nil, fmt.Errorf("aggregator dataset already collected")
	}
	return digestJSON(d.agg)
}

func (d *distributed) close() {
	for _, c := range d.conns {
		c.Close()
	}
	if d.ln != nil {
		d.ln.Close()
	}
}

// timedConn sums the time an agent spends blocked in conn writes.
type timedConn struct {
	net.Conn
	writeNs *atomic.Int64
}

func (c *timedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.writeNs.Add(time.Since(t0).Nanoseconds())
	return n, err
}

// timedListener wraps every accepted conn so the aggregator's blocked
// reads are summed.
type timedListener struct {
	net.Listener
	wait *atomic.Int64
}

func (l *timedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &timedReadConn{Conn: c, readNs: l.wait}, nil
}

type timedReadConn struct {
	net.Conn
	readNs *atomic.Int64
}

func (c *timedReadConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.readNs.Add(time.Since(t0).Nanoseconds())
	return n, err
}

// fleetRun is the outcome of one replay.
type fleetRun struct {
	root                   int
	buildS                 float64
	digest                 []byte
	cellMs                 []float64 // per-cell compute time (generate, tag, accumulate)
	flowAllocs, wireAllocs uint64
	wireBytes              int64
}

// flow is one generated flow awaiting tagging.
type flow struct {
	src, dst packet.Addr
	bytes    float64
}

// fleetReplay replays the fleet collection cell by cell on one goroutine,
// in task order, with phase-batched timing: each cell's flows are
// generated into a buffer, then tagged, then accumulated (then, with wire
// set, encoded and decoded as one fbwire PARTIAL frame), then merged, so
// each phase gets one span per cell rather than a timer per flow.
func fleetReplay(t *Tracer, cfg core.Config, wire bool) fleetRun {
	out := fleetRun{root: t.Begin(-1, "core.residual_s", "fleet-replay")}
	b0 := time.Now()
	sp := t.Begin(out.root, "topology.build_s", "topology.Build+services.NewPicker")
	topo, err := topology.Build(topology.Preset(cfg.Scale))
	if err != nil {
		panic(err)
	}
	pick := services.NewPicker(topo)
	if err := pick.Validate(); err != nil {
		panic(err)
	}
	t.End(sp)
	out.buildS = seconds(time.Since(b0))

	n, width := topo.NumHosts(), fleetShardHosts
	if cfg.FleetMatrix {
		n, width = len(topo.Racks), fleetMatrixShardRacks
	}
	shards := (n + width - 1) / width
	tagger := fbflow.NewTagger(topo)
	ds := fbflow.NewDataset()
	p, q := fbflow.NewPartial(), fbflow.NewPartial()
	var prog *services.FleetProgram
	var mprog *services.MatrixProgram
	mat := services.NewDemandMatrix()
	if cfg.FleetMatrix {
		mprog = services.NewMatrixProgram(pick, cfg.Params)
	} else {
		prog = services.NewFleetProgram(pick, cfg.Params)
	}
	var buf bytes.Buffer
	fw, fr := fbwire.NewWriter(&buf), fbwire.NewReader(&buf)
	var flows []flow
	var recs []fbflow.Record

	var seq uint64
	for w := 0; w < cfg.FleetWindows; w++ {
		load := core.DiurnalFactor(float64(w) / float64(cfg.FleetWindows))
		minute := int64(w)
		for sh := 0; sh < shards; sh++ {
			lo, hi := sh*width, min((sh+1)*width, n)
			c0 := time.Now()
			cell := t.Begin(out.root, "core.residual_s", fmt.Sprintf("cell w%d s%d", w, sh))
			flows = flows[:0]
			if cfg.FleetMatrix {
				rs := rng.NewKeyed(cfg.Seed^matrixSeedFold, uint64(w), uint64(sh))
				sp := t.Begin(cell, "services.matrix_synth_s", "services.MatrixProgram.Synth")
				mat.Reset()
				mprog.Synth(rs, lo, hi, cfg.FleetWindowSec, load, mat)
				t.End(sp)
				t.Count("services.matrix_cells", float64(mat.Cells()))
				sp = t.Begin(cell, "services.matrix_draw_s", "services.MatrixProgram.DrawFlows")
				mprog.DrawFlows(rs, mat, func(src, dst topology.HostID, bytes float64) {
					flows = append(flows, flow{topo.Addr(src), topo.Addr(dst), bytes})
				})
				t.End(sp)
			} else {
				rs := rng.NewKeyed(cfg.Seed^samplingSeedFold, uint64(w), uint64(sh))
				sp := t.Begin(cell, "services.fleet_flows_s", "services.FleetProgram.Flows")
				for src := topology.HostID(lo); src < topology.HostID(hi); src++ {
					srcAddr := topo.Addr(src)
					prog.Flows(rs, src, cfg.FleetWindowSec, load, cfg.FleetSamples, func(dst topology.HostID, bytes float64) {
						flows = append(flows, flow{srcAddr, topo.Addr(dst), bytes})
					})
				}
				t.End(sp)
			}
			t.Count("services.flow_attempts", float64(len(flows)))

			a0 := allocObjects()
			sp := t.Begin(cell, "fbflow.tag_s", "fbflow.Tagger.Flow")
			recs = recs[:0]
			for _, f := range flows {
				if rec, ok := tagger.Flow(minute, f.src, f.dst, f.bytes); ok {
					recs = append(recs, rec)
				}
			}
			t.End(sp)
			t.Count("fbflow.records", float64(len(recs)))
			sp = t.Begin(cell, "fbflow.accumulate_s", "fbflow.Partial.Add")
			for _, rec := range recs {
				p.Add(rec)
			}
			t.End(sp)
			out.flowAllocs += allocObjects() - a0
			t.End(cell)
			out.cellMs = append(out.cellMs, float64(time.Since(c0).Nanoseconds())/1e6)

			merged := p
			if wire {
				a0 := allocObjects()
				sp := t.Begin(out.root, "fbwire.encode_s", "fbwire.Writer.WritePartial")
				err := fw.WritePartial(fbwire.PartialHeader{Seq: seq, Window: uint32(w), Shard: uint32(sh)}, p)
				t.End(sp)
				if err != nil {
					panic(err)
				}
				sp = t.Begin(out.root, "fbwire.decode_s", "fbwire.Reader.Next+DecodePartial")
				f, err := fr.Next()
				if err == nil {
					_, err = fbwire.DecodePartial(f.Payload, q)
				}
				t.End(sp)
				if err != nil {
					panic(err)
				}
				out.wireAllocs += allocObjects() - a0
				merged = q
			}
			seq++

			a0 = allocObjects()
			sp = t.Begin(out.root, "fbflow.merge_s", "fbflow.Dataset.MergePartial")
			ds.MergePartial(merged)
			p.Reset()
			q.Reset()
			t.End(sp)
			out.flowAllocs += allocObjects() - a0
		}
	}
	out.wireBytes = fw.BytesWritten()

	sp = t.Begin(out.root, "analysis.digest_s", "core.System.FleetDigest")
	s := &core.System{Cfg: cfg, Topo: topo, Pick: pick}
	s.InjectFleetDataset(ds, nil)
	out.digest, err = digestJSON(s)
	t.End(sp)
	if err != nil {
		panic(err)
	}
	t.End(out.root)
	return out
}
