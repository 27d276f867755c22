package core

import (
	"fmt"
	"math"
	"strings"

	"fbdcnet/internal/baseline"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/render"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/services"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// The experiments in this file go beyond the paper's evaluation into the
// questions it explicitly could not answer (§7: per-host capture "prevents
// us from evaluating effects like incast or microbursts") and the
// implications it raises but does not quantify (§4.4: variable
// oversubscription; §4.3: Fabric pods behave like 4-post clusters).

// IncastPoint is one fan-in degree of the incast experiment.
type IncastPoint struct {
	Senders   int
	Delivered int64
	Dropped   int64
	// QueuePeak is the peak RSW shared-buffer occupancy fraction.
	QueuePeak float64
	// LastArrivalMs is when the final response byte arrived (flow
	// completion time of the scatter-gather).
	LastArrivalMs float64
	// MeanDelayUs and MaxDelayUs are per-packet delays at the receiving
	// host, counted from the start of the synchronized burst, so they
	// include each sender's pacing as well as the network's delay.
	MeanDelayUs float64
	MaxDelayUs  float64
}

// IncastResult sweeps synchronized cache responses into one Web server —
// the microburst the paper's methodology could not observe.
type IncastResult struct {
	ResponseBytes int
	BufBytes      int64
	Points        []IncastPoint
}

// ExtensionIncast sends one synchronized response of respBytes from n
// cache followers to a single Web server for each n in senders, through a
// fabric whose RSWs have bufBytes of shared buffer, and reports drops and
// queue peaks. This is the §7 future-work experiment the simulator
// unlocks.
func (s *System) ExtensionIncast(senders []int, respBytes int, bufBytes int64) *IncastResult {
	res := &IncastResult{ResponseBytes: respBytes, BufBytes: bufBytes}
	web := s.Monitored(topology.RoleWeb)
	caches := s.Pick.InCluster(topology.RoleCacheFollower, s.Topo.HostCluster(web))

	for _, n := range senders {
		if n > caches.Len() {
			n = caches.Len()
		}
		eng := &netsim.Engine{}
		fcfg := netsim.DefaultFabricConfig()
		fcfg.RSWBufBytes = bufBytes
		fabric := netsim.NewFabric(eng, s.Topo, fcfg)
		rsw := fabric.RSWOfHost(web)

		var peak int64
		netsim.SampleOccupancy(eng, rsw, netsim.Microsecond, 50*netsim.Millisecond,
			func(_ netsim.Time, occ int64) {
				if occ > peak {
					peak = occ
				}
			})

		var lastArrival netsim.Time
		var delaySum, delayMax float64 // since the burst began at t=0
		fabric.Sink(web).OnPacket = func(*netsim.Packet) {
			lastArrival = eng.Now()
			delaySum += float64(lastArrival)
			delayMax = max(delayMax, float64(lastArrival))
		}

		// Every sender's full response enters the fabric at t=0, segmented
		// into MTU packets — the synchronized scatter-gather reply.
		streams := make([][]packet.Header, n)
		for i := range streams {
			src := caches.At(i)
			for sent := 0; sent < respBytes; sent += 1448 {
				streams[i] = append(streams[i], packet.Header{
					Time: netsim.Time(len(streams[i])) * 1200, // line-rate-ish pacing within a sender
					Key: packet.FlowKey{
						Src: s.Topo.Addr(src), Dst: s.Topo.Addr(web),
						SrcPort: uint16(40000 + uint32(src)%20000), DstPort: 11211, Proto: packet.TCP,
					},
					Size: uint32(min(respBytes-sent, 1448) + 66),
				})
			}
		}
		fabric.InjectStreams(streams, 0)
		eng.Run(100 * netsim.Millisecond)

		sink := fabric.Sink(web)
		meanDelay := 0.0
		if sink.Packets > 0 {
			meanDelay = delaySum / float64(sink.Packets)
		}
		res.Points = append(res.Points, IncastPoint{
			Senders:       n,
			Delivered:     sink.Packets,
			Dropped:       rsw.Drops(),
			QueuePeak:     float64(peak) / float64(bufBytes),
			LastArrivalMs: float64(lastArrival) / float64(netsim.Millisecond),
			MeanDelayUs:   meanDelay / float64(netsim.Microsecond),
			MaxDelayUs:    delayMax / float64(netsim.Microsecond),
		})
	}
	return res
}

// Render prints the incast sweep.
func (r *IncastResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: incast fan-in (one %d-byte response per sender, %s ToR buffer)\n",
		r.ResponseBytes, render.SI(float64(r.BufBytes)))
	headers := []string{"senders", "delivered", "dropped", "queue peak", "completion ms", "delay p-mean µs", "delay max µs"}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Senders),
			fmt.Sprintf("%d", p.Delivered),
			fmt.Sprintf("%d", p.Dropped),
			fmt.Sprintf("%.2f", p.QueuePeak),
			fmt.Sprintf("%.2f", p.LastArrivalMs),
			fmt.Sprintf("%.1f", p.MeanDelayUs),
			fmt.Sprintf("%.1f", p.MaxDelayUs),
		})
	}
	b.WriteString(render.Table(headers, rows))
	return b.String()
}

// OversubPoint is one oversubscription factor of the sweep.
type OversubPoint struct {
	Factor     float64 // rack uplink capacity divisor (1 = non-blocking)
	DropFrac   float64 // fraction of injected packets dropped at the RSW
	UplinkUtil float64
}

// OversubResult is the §4.4 experiment: how much rack uplink capacity can
// be removed before each workload starts dropping.
type OversubResult struct {
	Role     topology.Role
	Workload string // empty for the measured workload
	Points   []OversubPoint
}

// ExtensionOversubscription injects a rack's worth of mirror traffic
// through fabrics with progressively weaker rack uplinks and measures
// RSW egress drops. Run it for a Hadoop rack (cluster-bound shuffle) and
// a Web rack (cluster-bound fan-out) to see which tolerates
// oversubscription.
func (s *System) ExtensionOversubscription(role topology.Role, factors []float64, seconds int) *OversubResult {
	host := s.Monitored(role)
	rack := s.Topo.HostRack(host)

	// One shared synthesized window of the rack's traffic, at elevated
	// load so the sweep reaches drop onset within laptop-scale rates.
	streams := s.rackMirror([]int{rack}, netsim.Time(seconds)*netsim.Second, s.Cfg.Params.Scaled(6), 0xc0de)
	return s.oversubSweep(role, rack, streams, factors, seconds)
}

// ExtensionOversubAllToAll runs the same uplink sweep with the
// literature's uniform all-to-all assumption generated from the same
// rack: the workload full-bisection fabrics are built for. Its bytes
// almost all cross the rack boundary, so drops start at far lower
// oversubscription than the measured workloads tolerate.
func (s *System) ExtensionOversubAllToAll(factors []float64, seconds int) *OversubResult {
	host := s.Monitored(topology.RoleHadoop)
	rack := s.Topo.HostRack(host)
	// GenerateAllToAll emits through a workload.Gen, so each host's
	// stream is in time order.
	streams := make([][]packet.Header, s.Topo.Racks[rack].NumHosts)
	for i := range streams {
		h := s.Topo.Racks[rack].Host(i)
		collect := workload.CollectorFunc(func(p packet.Header) { streams[i] = append(streams[i], p) })
		baseline.GenerateAllToAll(s.Topo, h, s.Cfg.Seed^0xa2a^uint64(h),
			baseline.DefaultAllToAllParams(), netsim.Time(seconds)*netsim.Second, collect)
	}
	res := s.oversubSweep(topology.RoleHadoop, rack, streams, factors, seconds)
	res.Workload = "all-to-all baseline"
	return res
}

// oversubSweep replays one traffic window, given as per-host streams,
// through fabrics with weakening rack uplinks.
func (s *System) oversubSweep(role topology.Role, rack int, streams [][]packet.Header, factors []float64, seconds int) *OversubResult {
	res := &OversubResult{Role: role}

	for _, f := range factors {
		eng := &netsim.Engine{}
		fcfg := netsim.DefaultFabricConfig()
		fcfg.RSWUpBps = int64(float64(fcfg.RSWUpBps) / f)
		fabric := netsim.NewFabric(eng, s.Topo, fcfg)
		rsw := fabric.RSW(rack)
		fabric.InjectStreams(streams, 0)
		dur := netsim.Time(seconds) * netsim.Second
		eng.Run(dur + netsim.Second)

		var forwarded, drops int64
		drops = rsw.Drops()
		for i := 0; i < rsw.NumPorts(); i++ {
			forwarded += rsw.Port(i).Forwarded()
		}
		point := OversubPoint{Factor: f}
		if forwarded+drops > 0 {
			point.DropFrac = float64(drops) / float64(forwarded+drops)
		}
		// Average utilization of this rack's four uplinks.
		rackUp := 0.0
		links := fabric.LinksByTier(netsim.TierRSWCSW)
		for i := 0; i < 4; i++ {
			rackUp += links[rack*4+i].Utilization(dur)
		}
		point.UplinkUtil = rackUp / 4
		res.Points = append(res.Points, point)
	}
	return res
}

// Render prints the oversubscription sweep.
func (r *OversubResult) Render() string {
	var b strings.Builder
	label := r.Role.String()
	if r.Workload != "" {
		label = r.Workload
	}
	fmt.Fprintf(&b, "Extension: rack uplink oversubscription sweep (%s rack)\n", label)
	headers := []string{"oversub", "uplink util", "drop frac"}
	var rows [][]string
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f:1", p.Factor),
			fmt.Sprintf("%.4f", p.UplinkUtil),
			fmt.Sprintf("%.5f", p.DropFrac),
		})
	}
	b.WriteString(render.Table(headers, rows))
	return b.String()
}

// FabricResult compares the Frontend traffic matrix of a classic 4-post
// cluster with a next-generation Fabric pod (§4.3: "the rack-to-rack
// traffic matrix of a Frontend 'cluster' inside one of the new Fabric
// datacenters … looks similar").
type FabricResult struct {
	FourPostDiag float64
	FabricDiag   float64
	// Similarity is the cosine similarity of the two matrices' normalized
	// off-diagonal structure.
	Similarity float64
}

// ExtensionFabric extracts both matrices from the fleet dataset and
// compares their structure.
func (s *System) ExtensionFabric() *FabricResult {
	ds := s.FleetDataset()
	var classic, fabric int = -1, -1
	for _, c := range s.Topo.Clusters {
		if c.Type != topology.ClusterFrontend {
			continue
		}
		if c.Fabric && fabric < 0 {
			fabric = c.ID
		}
		if !c.Fabric && classic < 0 {
			classic = c.ID
		}
	}
	if classic < 0 || fabric < 0 {
		return &FabricResult{}
	}
	a := ds.RackMatrix(s.Topo, classic)
	b := ds.RackMatrix(s.Topo, fabric)
	return &FabricResult{
		FourPostDiag: matrixDiag(a),
		FabricDiag:   matrixDiag(b),
		Similarity:   matrixCosine(a, b),
	}
}

// matrixCosine returns the cosine similarity of two equally sized
// matrices flattened to vectors (0 when either is empty or sizes differ).
func matrixCosine(a, b [][]float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return 0
		}
		for j := range a[i] {
			dot += a[i][j] * b[i][j]
			na += a[i][j] * a[i][j]
			nb += b[i][j] * b[i][j]
		}
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// Render prints the Fabric comparison.
func (r *FabricResult) Render() string {
	return fmt.Sprintf(
		"Extension: Fabric pod vs 4-post Frontend cluster\n"+
			"  diagonal byte fraction: 4-post %.3f, Fabric %.3f\n"+
			"  matrix cosine similarity: %.3f (the §4.3 'looks similar' claim)\n",
		r.FourPostDiag, r.FabricDiag, r.Similarity)
}

// Section52Result reproduces §5.2's object-popularity observations:
// top-50 request-rate distributions are close across cache servers, and
// top-50 membership churns at minute scale.
type Section52Result struct {
	services.ObjectChurnResult
}

// Section52 runs the cache object popularity model.
func (s *System) Section52() *Section52Result {
	cfg := services.DefaultObjectChurnConfig(s.Cfg.Params)
	r := rng.New(s.Cfg.Seed ^ 0x0b7ec7)
	return &Section52Result{services.SimulateObjectPopularity(cfg, r)}
}

// Render prints the §5.2 reproduction.
func (r *Section52Result) Render() string {
	return fmt.Sprintf(
		"Section 5.2: cache object popularity\n"+
			"  median top-50 membership lifespan: %.0f s (paper: 'a few minutes')\n"+
			"  cross-server top-50 rate similarity: %.3f (paper: 'close across all cache servers')\n"+
			"  request share absorbed by top-50: %.1f%%\n",
		r.MedianLifespanSec, r.CrossServerSimilarity, 100*r.TopKShare)
}

// DayOverDayResult checks §4.3's "Facebook's traffic patterns remain
// stable day-over-day" (contrasting Delimitrou et al.'s day-to-day
// variation): two independently seeded synthetic days must produce nearly
// identical locality structure.
type DayOverDayResult struct {
	// MaxLocalityDelta is the largest absolute difference in any
	// fleet-wide locality share between the two days.
	MaxLocalityDelta float64
	// MatrixSimilarity is the cosine similarity of the two days'
	// cluster-to-cluster matrices.
	MatrixSimilarity float64
}

// DayOverDay runs a second synthetic day with a different seed and
// compares it to the System's own day.
func (s *System) DayOverDay() *DayOverDayResult {
	day1 := s.FleetDataset()

	// A fresh System (sharing the immutable Topo and Picker) rather than a
	// struct copy: System now carries a mutex and sync.Once for the
	// parallel engine, and copying those is a vet violation.
	cfg2 := s.Cfg
	cfg2.Seed = s.Cfg.Seed + 0x9e3779b9
	other := &System{Cfg: cfg2, Topo: s.Topo, Pick: s.Pick, bundles: make(map[bundleKey]*bundleSlot)}
	day2 := other.FleetDataset()

	res := &DayOverDayResult{}
	a, b := day1.LocalityShareAll(), day2.LocalityShareAll()
	for _, l := range topology.Localities {
		d := math.Abs(a[l] - b[l])
		if d > res.MaxLocalityDelta {
			res.MaxLocalityDelta = d
		}
	}
	var clusters []int
	for _, c := range s.Topo.Clusters {
		clusters = append(clusters, c.ID)
	}
	res.MatrixSimilarity = matrixCosine(
		day1.ClusterMatrix(clusters), day2.ClusterMatrix(clusters))
	return res
}

// Render prints the day-over-day comparison.
func (r *DayOverDayResult) Render() string {
	return fmt.Sprintf(
		"Extension: day-over-day stability (independent seeds)\n"+
			"  max locality share delta: %.2f%% (paper: 'stable day-over-day')\n"+
			"  cluster matrix cosine similarity: %.4f\n",
		100*r.MaxLocalityDelta, r.MatrixSimilarity)
}
