package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/fbwire"
	"fbdcnet/internal/obs"
	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/rng"
)

// Distributed fleet collection: the production shape of the paper's
// Fbflow pipeline. N agent processes each own a contiguous range of the
// (window × shard) task grid's shard axis, run sampling and partial
// accumulation locally, and stream binary cell frames to one
// aggregator that merges them at the global task-order frontier.
//
// The determinism contract is the same as the in-process engine's:
// every (window, shard) cell draws from an rng stream keyed by its own
// coordinates, and partials merge in global task order — window-major,
// shard within window — so the aggregated dataset is bit-identical to
// the single-process run at any agent count. Agents overlap comms with
// compute by double-buffering partials (window W+1 accumulates while W
// encodes and sends), and the aggregator merges frames as they arrive
// rather than barriering per window, parking out-of-order cells at the
// same frontier the in-process collector parks out-of-order workers at.

// AgentCrashExitCode is the exit status of an agent that dies at its
// planned crash point. The spawner restarts exactly this status with an
// incremented incarnation; anything else is a real failure.
const AgentCrashExitCode = 3

// ErrPlannedCrash is returned by RunFleetAgent when the agent reaches
// its planned crash task. The hosting process should exit with
// AgentCrashExitCode.
var ErrPlannedCrash = errors.New("core: fleet agent reached its planned crash point")

// ShardRange is one agent's contiguous range [Lo, Hi) of per-window
// shard indices.
type ShardRange struct {
	Lo, Hi int
}

// Span returns the number of shards the range owns.
func (r ShardRange) Span() int { return r.Hi - r.Lo }

// FleetShardMap splits the shard axis into one contiguous range per
// agent. Trailing agents may own empty ranges when there are more
// agents than shards; they still handshake and FIN so the aggregator's
// accounting stays uniform.
func (s *System) FleetShardMap(agents int) []ShardRange {
	spw := s.fleetShardsPerWindow()
	m := make([]ShardRange, agents)
	for a := 0; a < agents; a++ {
		m[a] = ShardRange{Lo: a * spw / agents, Hi: (a + 1) * spw / agents}
	}
	return m
}

// fleetConfigCheck fingerprints every configuration field that shapes
// the task grid or its rng streams. Agent and aggregator exchange it in
// HELLO: a mismatch means the processes would silently compute
// different datasets, so the handshake fails instead.
func (s *System) fleetConfigCheck() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	mix(s.Cfg.Seed)
	mix(uint64(s.Cfg.Scale))
	mix(uint64(s.Cfg.FleetWindows))
	mix(math.Float64bits(s.Cfg.FleetWindowSec))
	mix(uint64(s.Cfg.FleetSamples))
	mix(b2u(s.Cfg.FleetMatrix))
	mix(b2u(s.Cfg.SketchMode))
	mix(uint64(s.fleetShardsPerWindow()))
	return h
}

// agentTask maps an agent-local task index to its grid cell. Agent
// streams are window-major within the agent's shard range, so resuming
// at a window boundary is resuming at a multiple of the span.
func agentTask(rg ShardRange, t uint64) (window, shard int) {
	span := uint64(rg.Span())
	return int(t / span), rg.Lo + int(t%span)
}

// RunFleetAgent runs one agent over an established aggregator
// connection: handshake, then compute-and-stream every cell of this
// agent's shard range from the aggregator's resume point. crashAfter,
// when >= 0, is the agent-local task index after whose frame the agent
// abandons the run with ErrPlannedCrash — the deterministic stand-in
// for an agent host dying mid-window.
//
// Compute and comms overlap: a sender goroutine owns the socket while
// the main loop accumulates the next cell into a second (and third)
// pooled partial, so the steady state keeps both the CPU and the wire
// busy without any per-window barrier.
func (s *System) RunFleetAgent(agentID, agents int, incarnation uint32, conn io.ReadWriter, crashAfter int64) error {
	if agentID < 0 || agentID >= agents {
		return fmt.Errorf("core: agent id %d outside [0, %d)", agentID, agents)
	}
	rg := s.FleetShardMap(agents)[agentID]
	span := rg.Span()
	expected := uint64(span * s.Cfg.FleetWindows)

	w := fbwire.NewWriter(conn)
	r := fbwire.NewReader(conn)
	if err := w.WriteHello(fbwire.Hello{
		Version:     fbwire.Version,
		AgentID:     uint32(agentID),
		Incarnation: incarnation,
		ShardLo:     uint32(rg.Lo),
		ShardHi:     uint32(rg.Hi),
		Windows:     uint32(s.Cfg.FleetWindows),
		Check:       s.fleetConfigCheck(),
	}); err != nil {
		return fmt.Errorf("core: agent %d hello: %w", agentID, err)
	}
	f, err := r.Next()
	if err != nil {
		return fmt.Errorf("core: agent %d awaiting welcome: %w", agentID, err)
	}
	if f.Type != fbwire.TypeWelcome {
		return fmt.Errorf("core: agent %d expected welcome, got frame type %#x", agentID, f.Type)
	}
	resume, err := fbwire.ParseWelcome(f.Payload)
	if err != nil {
		return err
	}
	if resume > expected {
		return fmt.Errorf("core: agent %d told to resume at task %d of %d", agentID, resume, expected)
	}

	reg := s.Cfg.Obs
	sp := reg.StartSpan(fmt.Sprintf("fleet-agent-%d", agentID))
	// The span must end before the agent report is encoded so its event
	// reaches the federated timeline; the flag keeps the deferred End (the
	// error paths) from double-counting.
	spanEnded := false
	endSpan := func() {
		if !spanEnded {
			spanEnded = true
			sp.End()
		}
	}
	defer endSpan()

	// Three cells rotate: the main loop computes into one while the
	// sender encodes and flushes another, and the third absorbs the
	// jitter between the two. All share the agent's one obs shard, which
	// only the main loop touches.
	aud := s.Cfg.Audit
	bb := aud.BB()
	sc := s.newCellScratch(1)[0]
	sh := reg.NewShard()
	free := make(chan *Cell, 3)
	for i := 0; i < cap(free); i++ {
		free <- &Cell{Partial: s.newPartial(), Obs: sh}
	}
	type job struct {
		seq uint64
		c   *Cell
	}
	jobs := make(chan job, 1)
	sendRes := make(chan error, 1)
	go func() {
		var audSec []byte
		for j := range jobs {
			window, shard := agentTask(rg, j.seq)
			audSec = audSec[:0]
			for _, cp := range j.c.Audit[:j.c.NAudit] {
				audSec = fbwire.AppendAudit(audSec, fbwire.AuditCell{Stage: auditWireStage(cp.Stage), Sum: cp.Sum, Count: cp.Count})
			}
			err := w.WritePartial(fbwire.PartialHeader{
				Seq: j.seq, Window: uint32(window), Shard: uint32(shard),
				Obs: j.c.Delta, Audit: audSec,
			}, j.c.Partial)
			bb.Record(audit.EvFrameTx, "cell", fbwire.TypeCell, int64(j.seq))
			j.c.Partial.Reset()
			free <- j.c
			if err != nil {
				sendRes <- err
				return
			}
			if crashAfter >= 0 && j.seq == uint64(crashAfter) {
				sendRes <- ErrPlannedCrash
				return
			}
		}
		sendRes <- nil
	}()

	drain := func(err error) error {
		close(jobs)
		if serr := <-sendRes; err == nil {
			err = serr
		}
		return err
	}
	for t := resume; t < expected; t++ {
		var c *Cell
		select {
		case c = <-free:
		case serr := <-sendRes:
			// The sender died (socket error or planned crash): stop
			// computing and surface its verdict.
			close(jobs)
			return serr
		}
		s.collectCell(s.fleetTask(agentTask(rg, t)), sc, c)
		// The agent's local ledger logs exactly what it forwards; the
		// aggregator owns the authoritative ledger.
		for _, cp := range c.Audit[:c.NAudit] {
			aud.Append(cp)
		}
		// Encode the cell's delta before Fold resets the shard; the fold
		// keeps the agent's own registry live for its -metrics-addr
		// endpoint (a separate process, so nothing double-counts).
		c.Delta = sh.AppendDelta(c.Delta[:0])
		sh.Fold()
		select {
		case jobs <- job{seq: t, c: c}:
		case serr := <-sendRes:
			return serr
		}
	}
	if err := drain(nil); err != nil {
		return err
	}
	endSpan()
	var report []byte
	if reg.Enabled() {
		reg.SetGauge(fmt.Sprintf("fbdcnet_agent_%d_tx_bytes", agentID), float64(w.BytesWritten()))
		if aud.Enabled() {
			// Stamp the black-box depth into the federated report so the
			// per-agent manifest section shows each process's ring.
			reg.SetGauge("fbdcnet_blackbox_events", float64(bb.Total()))
		}
		report = reg.AppendReport(nil, uint32(agentID), incarnation)
	}
	if err := w.WriteFin(expected-resume, report); err != nil {
		return fmt.Errorf("core: agent %d fin: %w", agentID, err)
	}
	return nil
}

// CoverageGap is one contiguous run of task cells the aggregator never
// received — an agent died mid-window and the restart resumed at the
// next window boundary, or an agent never came back at all. Gaps are
// the distributed analogue of lost-forever bytes: accounted, not
// silently absorbed.
type CoverageGap struct {
	Agent   int `json:"agent"`
	Window  int `json:"window"`
	ShardLo int `json:"shard_lo"` // global shard ids [ShardLo, ShardHi)
	ShardHi int `json:"shard_hi"`
	Cells   int `json:"cells"`
}

// fleetAggregator is the shared state of one aggregation run.
type fleetAggregator struct {
	s      *System
	agents int
	shards []ShardRange
	spw    int
	cells  int

	mu        sync.Mutex
	cond      *sync.Cond
	front     *frontier[*Cell]
	ds        *fbflow.Dataset
	pool      sync.Pool
	received  []uint64 // agent-task credit, gapped cells included
	expected  []uint64
	fin       []bool
	connected []bool
	lastInc   []int64
	lastSeen  []time.Time
	gaps      []CoverageGap
	err       error

	// Federated observability and audit. A cell's obs delta and
	// checkpoints park with its partial and land only when the frontier
	// consumes the cell. Both are best-effort: an undecodable section is
	// dropped and counted, never allowed to fail the dataset protocol,
	// and a dropped audit section makes its cell a ledger hole.
	scratch    obs.Delta          // decode scratch, reused at the frontier
	reports    []*obs.AgentReport // latest incarnation's report per agent
	obsDrops   int64
	audDrops   int64
	agentLabel []string // preformatted agent-id labels for series names
	stallCell  int      // frontier cell an open stall span is blaming, -1 if none
	stallStart time.Time
}

// ServeFleetAggregator accepts agent connections on ln and merges their
// partial streams into one dataset at the global task-order frontier.
// It returns when every agent has delivered its full shard range or has
// been gapped out after reconnectWait without a live connection. The
// returned gaps are sorted in task order, so gap accounting is as
// deterministic as the dataset itself.
func (s *System) ServeFleetAggregator(ln net.Listener, agents int, reconnectWait time.Duration) (*fbflow.Dataset, []CoverageGap, error) {
	if agents < 1 {
		return nil, nil, fmt.Errorf("core: aggregator needs at least one agent")
	}
	if reconnectWait <= 0 {
		reconnectWait = 10 * time.Second
	}
	spw := s.fleetShardsPerWindow()
	ag := &fleetAggregator{
		s:         s,
		agents:    agents,
		shards:    s.FleetShardMap(agents),
		spw:       spw,
		cells:     spw * s.Cfg.FleetWindows,
		ds:        fbflow.NewDataset(),
		received:  make([]uint64, agents),
		expected:  make([]uint64, agents),
		fin:       make([]bool, agents),
		connected: make([]bool, agents),
		lastInc:   make([]int64, agents),
		lastSeen:  make([]time.Time, agents),
	}
	ag.cond = sync.NewCond(&ag.mu)
	ag.front = newFrontier(ag.cells, ag.consumeLocked)
	ag.reports = make([]*obs.AgentReport, agents)
	ag.agentLabel = make([]string, agents)
	ag.stallCell = -1
	ag.pool.New = func() any { return &Cell{Partial: fbflow.NewPartial()} }
	now := time.Now()
	for a := 0; a < agents; a++ {
		ag.expected[a] = uint64(ag.shards[a].Span() * s.Cfg.FleetWindows)
		ag.lastInc[a] = -1
		ag.lastSeen[a] = now
		ag.agentLabel[a] = fmt.Sprint(a)
	}

	reg := s.Cfg.Obs
	sp := reg.StartSpan("fleet-aggregate")
	defer sp.End()
	winProg := reg.NewProgress("fleet-windows", int64(s.Cfg.FleetWindows))

	// Accept loop: runs until the listener closes. Each connection is
	// one agent incarnation.
	var wg sync.WaitGroup
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				ag.handleConn(conn, winProg)
			}()
		}
	}()

	err := ag.wait(reconnectWait)
	ln.Close()
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	sort.Slice(ag.gaps, func(i, j int) bool {
		a, b := ag.gaps[i], ag.gaps[j]
		if a.Window != b.Window {
			return a.Window < b.Window
		}
		return a.ShardLo < b.ShardLo
	})
	if reg.Enabled() {
		winProg.Set(int64(s.Cfg.FleetWindows))
		gapCells := 0
		for _, g := range ag.gaps {
			gapCells += g.Cells
		}
		reg.SetGauge("fbdcnet_fleet_gap_cells", float64(gapCells))
		reg.SetGauge("fbdcnet_fleet_obs_dropped_frames", float64(ag.obsDrops))
		reg.SetGauge("fbdcnet_fleet_audit_dropped_frames", float64(ag.audDrops))
		s.storeAgentObs(ag)
	}
	return ag.ds, ag.gaps, nil
}

// storeAgentObs keeps the run's federated agent reports and incarnation
// ledger on the System so manifest and timeline export can reach them
// after aggregation finishes.
func (s *System) storeAgentObs(ag *fleetAggregator) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.agentReports = append([]*obs.AgentReport(nil), ag.reports...)
	s.agentIncs = append([]int64(nil), ag.lastInc...)
}

// AgentReports returns the latest federated report per agent from the
// last distributed run (nil entries for agents that never delivered
// one; nil slice for single-process or metrics-off runs).
func (s *System) AgentReports() []*obs.AgentReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agentReports
}

// AgentManifestRecords builds the per-agent manifest section of a
// distributed run from the federated reports, incarnation ledger, and
// coverage gaps. It returns nil when no distributed run happened.
func (s *System) AgentManifestRecords() []obs.AgentRecord {
	s.mu.Lock()
	reports, incs := s.agentReports, s.agentIncs
	s.mu.Unlock()
	if len(incs) == 0 {
		return nil
	}
	gapCells := make([]int, len(incs))
	for _, g := range s.FleetCoverageGaps() {
		if g.Agent >= 0 && g.Agent < len(gapCells) {
			gapCells[g.Agent] += g.Cells
		}
	}
	recs := make([]obs.AgentRecord, len(incs))
	for a := range recs {
		rec := obs.AgentRecord{
			Agent:    a,
			GapCells: gapCells[a],
			Stages:   []obs.StageRecord{},
			Gauges:   map[string]float64{},
		}
		if incs[a] >= 0 {
			rec.Incarnations = incs[a] + 1
			rec.Restarts = incs[a]
		}
		if a < len(reports) && reports[a] != nil {
			rep := reports[a]
			rec.SpanEvents = len(rep.Events)
			if rep.Stages != nil {
				rec.Stages = rep.Stages
			}
			for _, g := range rep.Gauges {
				rec.Gauges[g.Name] = g.V
			}
		}
		recs[a] = rec
	}
	return recs
}

// wait blocks until every agent is finished or the run fails, tail-
// gapping agents that stay disconnected longer than reconnectWait.
func (ag *fleetAggregator) wait(reconnectWait time.Duration) error {
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for range tick.C {
		ag.mu.Lock()
		if ag.err != nil {
			err := ag.err
			ag.mu.Unlock()
			return err
		}
		doneAll := true
		now := time.Now()
		for a := 0; a < ag.agents; a++ {
			if ag.fin[a] {
				continue
			}
			if !ag.connected[a] && now.Sub(ag.lastSeen[a]) > reconnectWait {
				// The agent is not coming back: its remaining cells are
				// lost forever. Account them and finish its ledger.
				ag.markGaps(a, ag.received[a], ag.expected[a])
				ag.received[a] = ag.expected[a]
				ag.fin[a] = true
				ag.cond.Broadcast()
				continue
			}
			doneAll = false
		}
		ag.healthLocked(now)
		ag.mu.Unlock()
		if doneAll {
			return nil
		}
	}
	return nil
}

// healthLocked refreshes the wire-path health gauges, the per-agent
// liveness series, the agent panel on the live progress page, and the
// frontier-stall spans. Runs on every waiter tick; caller holds ag.mu.
func (ag *fleetAggregator) healthLocked(now time.Time) {
	reg := ag.s.Cfg.Obs
	if !reg.Enabled() {
		return
	}
	frontierWin := 0
	if ag.spw > 0 {
		frontierWin = ag.front.next / ag.spw
	}
	reg.SetGauge("fbdcnet_fleet_frontier_window", float64(frontierWin))
	reg.SetGauge("fbdcnet_fleet_parked_cells", float64(ag.front.parked))
	reg.SetGauge("fbdcnet_fleet_obs_dropped_frames", float64(ag.obsDrops))
	var b strings.Builder
	b.WriteString("  agent  state  inc  tasks            lag(win)  last-seen\n")
	for a := 0; a < ag.agents; a++ {
		up := 0.0
		state := "down"
		switch {
		case ag.fin[a]:
			state = "fin"
		case ag.connected[a]:
			state, up = "up", 1
		}
		lagWin := 0
		if span := ag.shards[a].Span(); span > 0 {
			lagWin = int(ag.received[a])/span - frontierWin
		}
		age := now.Sub(ag.lastSeen[a]).Seconds()
		lbl := ag.agentLabel[a]
		reg.SetGauge(obs.Series("fbdcnet_fleet_agent_up", "agent", lbl), up)
		reg.SetGauge(obs.Series("fbdcnet_fleet_agent_last_seen_age_seconds", "agent", lbl), age)
		reg.SetGauge(obs.Series("fbdcnet_fleet_agent_tasks_received", "agent", lbl), float64(ag.received[a]))
		reg.SetGauge(obs.Series("fbdcnet_fleet_agent_frontier_lag_windows", "agent", lbl), float64(lagWin))
		reg.SetGauge(obs.Series("fbdcnet_fleet_agent_incarnation", "agent", lbl), float64(ag.lastInc[a]))
		fmt.Fprintf(&b, "  %-5d  %-5s %4d  %7d/%-7d %8d  %6.1fs ago\n",
			a, state, ag.lastInc[a], ag.received[a], ag.expected[a], lagWin, age)
	}
	reg.SetPanel("agents", b.String())
	ag.stallLocked(now)
}

// stallLocked tracks frontier stalls: the merge head waiting on one
// agent's cell while later cells sit parked. Each stall becomes a
// `frontier-stall:agent-N` span on the aggregator timeline (the
// frontier-lag annotation of the exported trace) and a per-agent
// stall-seconds series. Caller holds ag.mu.
func (ag *fleetAggregator) stallLocked(now time.Time) {
	blocked := ag.front.stalled()
	switch {
	case blocked && ag.stallCell == ag.front.next:
		// Still stalled on the same cell: the open span keeps growing.
	case blocked:
		ag.flushStallLocked(now)
		ag.stallCell, ag.stallStart = ag.front.next, now
	default:
		ag.flushStallLocked(now)
	}
}

// flushStallLocked closes the open stall span, if any. Caller holds
// ag.mu.
func (ag *fleetAggregator) flushStallLocked(now time.Time) {
	if ag.stallCell < 0 {
		return
	}
	owner := ag.ownerOfCell(ag.stallCell)
	reg := ag.s.Cfg.Obs
	reg.RecordSpanAt(fmt.Sprintf("frontier-stall:agent-%d", owner), ag.stallStart, now)
	reg.Count(obs.Series("fbdcnet_fleet_frontier_stall_seconds_total", "agent", ag.agentLabel[owner]),
		now.Sub(ag.stallStart).Seconds())
	ag.stallCell = -1
}

// ownerOfCell maps a task-grid cell to the agent owning its shard.
func (ag *fleetAggregator) ownerOfCell(cell int) int {
	shard := cell % ag.spw
	for a, rg := range ag.shards {
		if shard >= rg.Lo && shard < rg.Hi {
			return a
		}
	}
	return 0
}

// handleConn runs one agent incarnation's session.
func (ag *fleetAggregator) handleConn(conn net.Conn, winProg *obs.Progress) {
	defer conn.Close()
	reg := ag.s.Cfg.Obs
	r := fbwire.NewReader(conn)
	w := fbwire.NewWriter(conn)

	f, err := r.Next()
	if err != nil || f.Type != fbwire.TypeHello {
		return // never identified itself; nothing to account
	}
	h, err := fbwire.ParseHello(f.Payload)
	if err != nil {
		ag.fail(fmt.Errorf("core: aggregator: bad hello: %w", err))
		return
	}
	a := int(h.AgentID)

	ag.mu.Lock()
	if a >= ag.agents {
		ag.failLocked(fmt.Errorf("core: aggregator: agent id %d outside fleet of %d", a, ag.agents))
		ag.mu.Unlock()
		return
	}
	rg := ag.shards[a]
	if h.Check != ag.s.fleetConfigCheck() || int(h.ShardLo) != rg.Lo || int(h.ShardHi) != rg.Hi || int(h.Windows) != ag.s.Cfg.FleetWindows {
		ag.failLocked(fmt.Errorf("core: aggregator: agent %d handshake mismatch (shards [%d,%d) want [%d,%d), check %#x)",
			a, h.ShardLo, h.ShardHi, rg.Lo, rg.Hi, h.Check))
		ag.mu.Unlock()
		return
	}
	// A restarted agent can dial before the previous connection's EOF is
	// fully drained; wait for the old handler to retire so the resume
	// point reflects every frame the dead incarnation delivered.
	for ag.connected[a] && ag.err == nil {
		ag.cond.Wait()
	}
	if ag.err != nil || ag.fin[a] {
		ag.mu.Unlock()
		return
	}
	if int64(h.Incarnation) <= ag.lastInc[a] {
		ag.failLocked(fmt.Errorf("core: aggregator: agent %d replayed incarnation %d", a, h.Incarnation))
		ag.mu.Unlock()
		return
	}
	span := uint64(rg.Span())
	if h.Incarnation > 0 && span > 0 && ag.received[a]%span != 0 {
		// The previous incarnation died mid-window. Its window's rng
		// stream cannot be partially replayed without double-counting, so
		// the tail of that window is a coverage gap and the restart
		// resumes at the next window boundary.
		boundary := (ag.received[a]/span + 1) * span
		ag.markGaps(a, ag.received[a], boundary)
		ag.received[a] = boundary
	}
	ag.lastInc[a] = int64(h.Incarnation)
	ag.connected[a] = true
	ag.lastSeen[a] = time.Now()
	resume := ag.received[a]
	ag.mu.Unlock()

	reg.AddGauge("fbdcnet_fleet_agents_connected", 1)
	connStart := time.Now()
	var frames int64
	defer func() {
		reg.AddGauge("fbdcnet_fleet_agents_connected", -1)
		reg.RecordSpanAt(fmt.Sprintf("fleet-agent-conn-%d", a), connStart, time.Now())
		reg.Count(obs.Series("fbdcnet_fleet_agent_rx_bytes_total", "agent", ag.agentLabel[a]), float64(r.BytesRead()))
		reg.Count(obs.Series("fbdcnet_fleet_agent_rx_frames_total", "agent", ag.agentLabel[a]), float64(frames))
		if h.Incarnation > 0 {
			reg.Count(obs.Series("fbdcnet_fleet_agent_reconnects_total", "agent", ag.agentLabel[a]), 1)
		}
		ag.mu.Lock()
		ag.connected[a] = false
		ag.lastSeen[a] = time.Now()
		ag.cond.Broadcast()
		ag.mu.Unlock()
	}()

	if err := w.WriteWelcome(resume); err != nil {
		return
	}

	for {
		f, err := r.Next()
		if err != nil {
			// Death (EOF, reset) mid-stream: the ledger keeps what
			// arrived; a restart or the reconnect timeout settles the rest.
			return
		}
		frames++
		switch f.Type {
		case fbwire.TypeCell:
			c := ag.pool.Get().(*Cell)
			ch, err := fbwire.DecodePartial(f.Payload, c.Partial)
			if err == nil {
				topo := ag.s.Topo
				err = c.Partial.CheckIDs(topo.NumHosts(), len(topo.Racks), len(topo.Clusters))
			}
			if err != nil {
				ag.fail(fmt.Errorf("core: aggregator: agent %d frame: %w", a, err))
				return
			}
			ag.mu.Lock()
			if ch.Seq != ag.received[a] {
				ag.failLocked(fmt.Errorf("core: aggregator: agent %d sent task %d, expected %d", a, ch.Seq, ag.received[a]))
				ag.mu.Unlock()
				return
			}
			window, shard := agentTask(rg, ch.Seq)
			if int(ch.Window) != window || int(ch.Shard) != shard {
				ag.failLocked(fmt.Errorf("core: aggregator: agent %d task %d labeled (%d,%d), want (%d,%d)",
					a, ch.Seq, ch.Window, ch.Shard, window, shard))
				ag.mu.Unlock()
				return
			}
			// The delta is decoded (and a bad one dropped) at the frontier;
			// it must outlive the reader's buffer until then.
			c.Delta = append(c.Delta[:0], ch.Obs...)
			if len(ch.Audit) > 0 && !ag.parkAuditLocked(ch.Audit, window, shard, c) {
				ag.dropLocked(a, &ag.audDrops, "fbdcnet_fleet_audit_drops_total")
			}
			ag.s.Cfg.Audit.BB().Record(audit.EvFrameRx, "cell", fbwire.TypeCell, int64(window*ag.spw+shard))
			ag.received[a]++
			if ag.front.park(window*ag.spw+shard, c) && ag.spw > 0 {
				winProg.Set(int64(ag.front.next / ag.spw))
			}
			ag.mu.Unlock()
		case fbwire.TypeFin:
			sent, report, err := fbwire.ParseFin(f.Payload)
			ag.mu.Lock()
			if err != nil || ag.received[a] != ag.expected[a] {
				ag.failLocked(fmt.Errorf("core: aggregator: agent %d fin at %d of %d tasks (sent %d, err %v)",
					a, ag.received[a], ag.expected[a], sent, err))
				ag.mu.Unlock()
				return
			}
			if len(report) > 0 {
				rep := new(obs.AgentReport)
				if obs.DecodeReport(report, rep) != nil || int(rep.AgentID) != a {
					ag.dropLocked(a, &ag.obsDrops, "fbdcnet_fleet_obs_drops_total")
				} else {
					ag.reports[a] = rep
				}
			}
			ag.fin[a] = true
			ag.cond.Broadcast()
			ag.mu.Unlock()
			return
		default:
			ag.fail(fmt.Errorf("core: aggregator: agent %d sent unexpected frame type %#x", a, f.Type))
			return
		}
	}
}

// dropLocked counts one dropped best-effort section from agent a on
// the run total and the per-agent series. Caller holds ag.mu.
func (ag *fleetAggregator) dropLocked(a int, total *int64, series string) {
	*total++
	ag.s.Cfg.Obs.Count(obs.Series(series, "agent", ag.agentLabel[a]), 1)
}

// parkAuditLocked turns a CELL's audit section into c's checkpoints. It
// reports false — the section is dropped and the cell becomes a ledger
// hole — unless this aggregator audits and the section holds exactly
// the stages this collection mode records, in ledger order. Caller
// holds ag.mu.
func (ag *fleetAggregator) parkAuditLocked(sec []byte, window, shard int, c *Cell) bool {
	cells, n, err := fbwire.ParseAudit(sec)
	stages := []string{audit.StageFleetCollect}
	if ag.s.Cfg.FleetMatrix {
		stages = []string{audit.StageMatrixSynth, audit.StageFleetCollect}
	}
	if err != nil || !ag.s.Cfg.Audit.Enabled() || n != len(stages) {
		return false
	}
	for i, stage := range stages {
		if cells[i].Stage != auditWireStage(stage) {
			return false
		}
		c.Audit[i] = audit.Checkpoint{Stage: stage, Window: window, Shard: shard, Sum: cells[i].Sum, Count: cells[i].Count}
	}
	c.NAudit = n
	return true
}

// auditWireStage maps a cell checkpoint's ledger stage to its CELL
// audit-section id.
func auditWireStage(stage string) byte {
	if stage == audit.StageMatrixSynth {
		return fbwire.AuditMatrixSynth
	}
	return fbwire.AuditFleetCell
}

// consumeLocked is the aggregator's frontier action: fold the parked
// obs delta (dropping one that does not decode), then merge the cell
// and land its checkpoints; a gapped cell (ok false) lands as a ledger
// hole. Federated metrics stay a pure function of the merged cell set.
// Caller holds ag.mu.
func (ag *fleetAggregator) consumeLocked(i int, c *Cell, ok bool) {
	t := ag.s.fleetTask(i/ag.spw, i%ag.spw)
	if !ok {
		ag.s.consumeCell(ag.ds, t, nil)
		return
	}
	if len(c.Delta) > 0 {
		if ag.scratch.Decode(c.Delta) == nil {
			ag.s.Cfg.Obs.FoldDelta(&ag.scratch)
		} else {
			ag.dropLocked(ag.ownerOfCell(i), &ag.obsDrops, "fbdcnet_fleet_obs_drops_total")
		}
	}
	ag.s.consumeCell(ag.ds, t, c)
	c.Partial.Reset()
	c.NAudit = 0
	ag.pool.Put(c)
}

// markGaps accounts agent tasks [from, to) as coverage gaps, grouped
// into one contiguous run per window. Caller holds ag.mu.
func (ag *fleetAggregator) markGaps(a int, from, to uint64) {
	rg := ag.shards[a]
	for t := from; t < to; {
		window, shard := agentTask(rg, t)
		runEnd := uint64(window+1) * uint64(rg.Span())
		if runEnd > to {
			runEnd = to
		}
		n := int(runEnd - t)
		ag.gaps = append(ag.gaps, CoverageGap{
			Agent: a, Window: window, ShardLo: shard, ShardHi: shard + n, Cells: n,
		})
		for c := 0; c < n; c++ {
			ag.front.gap(window*ag.spw + shard + c)
		}
		t = runEnd
	}
	ag.front.advance()
}

// fail records the first fatal protocol error; the waiter surfaces it.
func (ag *fleetAggregator) fail(err error) {
	ag.mu.Lock()
	ag.failLocked(err)
	ag.mu.Unlock()
}

func (ag *fleetAggregator) failLocked(err error) {
	if ag.err == nil {
		ag.err = err
	}
	ag.cond.Broadcast()
}

// AgentCrashPlan schedules one deterministic agent death: the victim
// exits (status AgentCrashExitCode) right after streaming its
// AfterTask-th task, and the spawner restarts it with the next
// incarnation.
type AgentCrashPlan struct {
	Agent     int
	AfterTask int64
}

// PlanAgentCrash derives the crash schedule from the seed, like every
// other fault in the repo: the victim and its death point are a pure
// function of (Seed, agents), so two runs of the same configuration
// crash — and gap — identically. The death lands mid-window whenever
// the victim owns more than one shard, which is what forces a real
// coverage gap rather than a clean boundary handoff.
func (s *System) PlanAgentCrash(agents int) AgentCrashPlan {
	m := s.FleetShardMap(agents)
	var owners []int
	for a, rg := range m {
		if rg.Span() > 0 {
			owners = append(owners, a)
		}
	}
	r := rng.NewKeyed(s.Cfg.Seed^0xc4a54, uint64(agents))
	victim := owners[r.Intn(len(owners))]
	span := m[victim].Span()
	off := 0
	if span > 1 {
		off = r.Intn(span - 1) // not the last shard of the window: forces a gap
	}
	window := s.Cfg.FleetWindows / 2
	return AgentCrashPlan{Agent: victim, AfterTask: int64(window*span + off)}
}

// DialFleetAgent dials the aggregator with retry until timeout — agents
// race the aggregator's listener at process startup.
func DialFleetAgent(network, addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		conn, err := net.Dial(network, addr)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("core: dialing aggregator %s %s: %w", network, addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// AgentSpawner launches one agent process incarnation. The command must
// run an agent that dials the aggregator and exits zero on FIN,
// AgentCrashExitCode at a planned crash, and anything else on failure.
type AgentSpawner func(agentID, incarnation int) (*exec.Cmd, error)

// RunDistributedFleet is the local multi-process driver: it listens on
// (network, addr), spawns one agent process per shard-map entry through
// spawn — restarting planned-crash exits with a bumped incarnation —
// and aggregates their streams. It returns the merged dataset and the
// coverage gaps (empty for a clean run).
func (s *System) RunDistributedFleet(network, addr string, agents int, spawn AgentSpawner, reconnectWait time.Duration) (*fbflow.Dataset, []CoverageGap, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, nil, err
	}
	spawnErrs := make(chan error, agents)
	var wg sync.WaitGroup
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for inc := 0; ; inc++ {
				cmd, err := spawn(a, inc)
				if err != nil {
					spawnErrs <- fmt.Errorf("core: spawning agent %d: %w", a, err)
					return
				}
				err = cmd.Run()
				if err == nil {
					return
				}
				var ee *exec.ExitError
				if errors.As(err, &ee) && ee.ExitCode() == AgentCrashExitCode {
					continue // planned crash: restart as the next incarnation
				}
				spawnErrs <- fmt.Errorf("core: agent %d process: %w", a, err)
				return
			}
		}(a)
	}
	ds, gaps, aggErr := s.ServeFleetAggregator(ln, agents, reconnectWait)
	ln.Close()
	wg.Wait()
	close(spawnErrs)
	for e := range spawnErrs {
		if aggErr == nil {
			aggErr = e
		}
	}
	if aggErr != nil {
		return nil, nil, aggErr
	}
	return ds, gaps, nil
}

// AgentMetricsAddrs resolves the full per-agent metrics address table
// up front — base port + 1 + index for each of the `agents` processes —
// so spawn mode can detect port collisions and overflows before any
// child hits an opaque bind error. avoid lists addresses already taken
// in this run (the aggregator's own metrics endpoint, the dataset
// listener when it is TCP): a derived address that lands on one of them
// is reported with both claimants named. An empty base derives "" for
// every agent (no metrics endpoint); port 0 derives port 0 for every
// agent (each picks its own free port). Neither is checked.
func AgentMetricsAddrs(base string, agents int, avoid ...string) ([]string, error) {
	addrs := make([]string, agents)
	if base == "" {
		return addrs, nil
	}
	host, port, err := net.SplitHostPort(base)
	if err != nil {
		return nil, fmt.Errorf("core: agent metrics base %q: %w", base, err)
	}
	p, err := strconv.Atoi(port)
	if err != nil || p < 0 {
		return nil, fmt.Errorf("core: agent metrics base %q: port %q is not a port number", base, port)
	}
	if p == 0 {
		for a := range addrs {
			addrs[a] = net.JoinHostPort(host, "0")
		}
		return addrs, nil
	}
	taken := make(map[string]string, len(avoid)+agents)
	for _, av := range avoid {
		if av != "" {
			taken[av] = "reserved by the run"
		}
	}
	for a := range addrs {
		derived := p + 1 + a
		if derived > 65535 {
			return nil, fmt.Errorf("core: agent %d metrics port %d overflows 65535 (base %q + 1 + %d); pick a lower base port", a, derived, base, a)
		}
		addr := net.JoinHostPort(host, strconv.Itoa(derived))
		if who, clash := taken[addr]; clash {
			return nil, fmt.Errorf("core: agent %d metrics address %s collides with %s; move -metrics-addr so base+1..base+%d stay free", a, addr, who, agents)
		}
		taken[addr] = fmt.Sprintf("agent %d", a)
		addrs[a] = addr
	}
	return addrs, nil
}

// ParseListenSpec splits an address spec into (network, address):
// "unix:/path" and "tcp:host:port" are explicit; a bare path is a unix
// socket, anything else with a colon is TCP.
func ParseListenSpec(spec string) (network, addr string) {
	switch {
	case strings.HasPrefix(spec, "unix:"):
		return "unix", spec[len("unix:"):]
	case strings.HasPrefix(spec, "tcp:"):
		return "tcp", spec[len("tcp:"):]
	case strings.Contains(spec, ":"):
		return "tcp", spec
	default:
		return "unix", spec
	}
}

// SelfExecSpawner returns an AgentSpawner that re-runs the current
// executable with args(agentID, incarnation). Agent stderr passes
// through for diagnostics; stdout is discarded so agents cannot pollute
// the aggregator's dataset output.
func SelfExecSpawner(args func(agentID, incarnation int) []string) (AgentSpawner, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("core: resolving own executable: %w", err)
	}
	return func(a, inc int) (*exec.Cmd, error) {
		cmd := exec.Command(exe, args(a, inc)...)
		cmd.Stderr = os.Stderr
		return cmd, nil
	}, nil
}

// CollectFleetDistributed runs this System's fleet collection across
// `agents` self-exec agent processes over a unix socket in a private
// temp directory, injects the aggregate as the System's fleet dataset,
// and returns the coverage gaps (empty for a clean run). args builds
// the child process's argument list; it receives the socket's
// "unix:/path" address spec.
func (s *System) CollectFleetDistributed(agents int, args func(addr string, agentID, incarnation int) []string) ([]CoverageGap, error) {
	dir, err := os.MkdirTemp("", "fbflow-agg-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	addr := filepath.Join(dir, "agg.sock")
	spawn, err := SelfExecSpawner(func(a, inc int) []string { return args("unix:"+addr, a, inc) })
	if err != nil {
		return nil, err
	}
	ds, gaps, err := s.RunDistributedFleet("unix", addr, agents, spawn, 0)
	if err != nil {
		return nil, err
	}
	if !s.InjectFleetDataset(ds, gaps) {
		return nil, fmt.Errorf("core: fleet dataset already collected before distributed run")
	}
	return gaps, nil
}

// fleetReferenceSkipping is the sequential oracle for gap runs: the
// single-process collection with the given cells skipped at the merge.
// The distributed dataset of a crashed run must equal it bit for bit.
// It walks the grid in plain task order with no frontier, so it checks
// the frontier's merge order instead of sharing it; only the cell body
// is the common collectCell.
func (s *System) fleetReferenceSkipping(skip map[int]bool) *fbflow.Dataset {
	ds := fbflow.NewDataset()
	sc := s.newCellScratch(1)[0]
	// Instrumented like the distributed path: one obs shard observed and
	// folded per kept cell, so a registry-carrying oracle run is also the
	// counter reference for federation under gaps.
	c := &Cell{Partial: s.newPartial(), Obs: s.Cfg.Obs.NewShard()}
	aud := s.Cfg.Audit
	spw := s.fleetShardsPerWindow()
	for i := 0; i < spw*s.Cfg.FleetWindows; i++ {
		t := s.fleetTask(i/spw, i%spw)
		if skip[i] {
			// Audit parity with the distributed crash arm: a skipped cell
			// is an explicit ledger hole, never a hash.
			if s.Cfg.FleetMatrix {
				aud.Hole(audit.StageMatrixSynth, t.window, t.shard)
			}
			aud.Hole(audit.StageFleetCollect, t.window, t.shard)
			continue
		}
		c.Partial.Reset()
		s.collectCell(t, sc, c)
		for _, cp := range c.Audit[:c.NAudit] {
			aud.Append(cp)
		}
		c.Obs.Fold()
		ds.MergePartial(c.Partial)
	}
	return ds
}
