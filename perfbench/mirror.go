package main

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/core"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/obs/audit"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/services"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// The mirror workload is the per-packet path every §5–6 table and figure
// reads: System.Trace for the four monitored roles at the short duration
// and for Web, Cache-f and Hadoop at the long duration. Each call builds
// services generation → workload batch fan-out → 16 analysis consumers per
// bundle, mixing small-packet Web/cache request traffic with MTU-sized
// Hadoop bulk traffic. It never touches netsim.Fabric or fbflow.

// mirrorKey is one (role, seconds) trace bundle.
type mirrorKey struct {
	role topology.Role
	sec  int
}

// goldenShort and goldenLong are the trace durations of the committed
// experiments_output.txt (cmd/experiments defaults).
const goldenShort, goldenLong = 30, 60

func mirrorConfig(r *runner, short, long int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Scale = topology.ScaleTiny
	cfg.Seed = r.seed
	cfg.ShortTraceSec, cfg.LongTraceSec = short, long
	cfg.Parallelism, cfg.Taggers = r.workers, r.workers
	return cfg
}

// newCopies builds n Systems of one config: the sequential workloads run
// one identical copy per core. Seven bundles of very unequal size spread
// over several workers of one System would make the call's wall the
// critical path of the one long Hadoop bundle, whose size varies with the
// seed; identical copies keep every core busy with equal work, so no core
// idles (an idle core lets the GC bill idle-priority mark work, and lets a
// neighbour's load on the shared core skew the CPU clock).
func newCopies(cfg core.Config, n int) ([]*core.System, error) {
	ss := make([]*core.System, n)
	for i := range ss {
		var err error
		if ss[i], err = core.NewSystem(cfg); err != nil {
			return nil, err
		}
	}
	return ss, nil
}

// eachCopy runs fn for copies 0..n-1 concurrently and waits.
func eachCopy(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// mirrorSeeds is the number of sub-seeds one mirror call covers. The
// traffic mix, and with it the cost per packet, varies from seed to seed;
// a call that spans several seeds' traces keeps most of that variation out
// of a run's throughput.
const mirrorSeeds = 6

// subSeed derives the j-th sub-seed of a run's seed; the first is the
// seed itself.
func subSeed(seed uint64, j int) uint64 {
	return seed ^ uint64(j)*0x9e3779b97f4a7c15
}

// steadyHadoop holds the Hadoop model in its busy (shuffle) phase at a
// third of the default transfer rate. By default a Hadoop host alternates
// busy and quiet phases of 15 s and 25 s mean, so a seconds-long capture
// is either almost idle or a full shuffle depending on the seed — a
// factor of 1000 in packets. Pinned busy, every seed offers the same
// MTU-sized bulk share next to the small-packet Web and cache traffic.
func steadyHadoop(p *services.Params) {
	p.HadoopBusyFlowPerSec /= 3
	p.HadoopQuietMeanSec = 0.001
}

// mirrorKeys lists the bundles of one call: the Figure 6/7/9 roles at the
// long duration, then the four monitored roles at the short one (longest
// first, for the golden check's parallel workers).
func mirrorKeys(cfg core.Config) []mirrorKey {
	var ks []mirrorKey
	for _, role := range []topology.Role{topology.RoleCacheFollower, topology.RoleHadoop, topology.RoleWeb} {
		ks = append(ks, mirrorKey{role, cfg.LongTraceSec})
	}
	for _, role := range []topology.Role{topology.RoleCacheFollower, topology.RoleHadoop, topology.RoleCacheLeader, topology.RoleWeb} {
		ks = append(ks, mirrorKey{role, cfg.ShortTraceSec})
	}
	return ks
}

// traceAll generates every bundle on cfg.Parallelism goroutines, like the
// trace half of System.Prewarm (the golden check uses every core).
func traceAll(s *core.System, keys []mirrorKey) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < s.Cfg.Workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(keys); i = int(next.Add(1)) - 1 {
				s.Trace(keys[i].role, keys[i].sec)
			}
		}()
	}
	wg.Wait()
}

// bundleDigest is what the oracle compares per bundle: the packet count
// and each analysis's FoldAudit hash (the audit ledger's checkpoints).
type bundleDigest struct {
	packets int64
	hashes  [7]uint64
}

func digestAnalyses(packets int64, as ...interface{ FoldAudit(*audit.Hash) }) bundleDigest {
	d := bundleDigest{packets: packets}
	for i, a := range as {
		var h audit.Hash
		a.FoldAudit(&h)
		d.hashes[i] = h.Sum()
	}
	return d
}

func systemDigests(s *core.System, keys []mirrorKey) []bundleDigest {
	out := make([]bundleDigest, len(keys))
	for i, k := range keys {
		b := s.Trace(k.role, k.sec)
		out[i] = digestAnalyses(b.Packets, b.Mix, b.Loc, b.Flows, b.Rates, b.Sizes, b.Arr, b.Conc)
	}
	return out
}

func runMirror(r *runner) {
	short, long := 2, 4
	if r.smoke {
		short, long = 1, 2
	}
	cfgs := make([]core.Config, mirrorSeeds)
	for j := range cfgs {
		cfgs[j] = mirrorConfig(r, short, long)
		cfgs[j].Seed = subSeed(r.seed, j)
		cfgs[j].Parallelism = 1
		steadyHadoop(&cfgs[j].Params)
	}
	cfg := cfgs[0]
	keys := mirrorKeys(cfg)
	// newSystems builds one System per sub-seed for every copy.
	newSystems := func() ([][]*core.System, error) {
		ss := make([][]*core.System, r.workers)
		for _, c := range cfgs {
			copies, err := newCopies(c, r.workers)
			if err != nil {
				return nil, err
			}
			for i, s := range copies {
				ss[i] = append(ss[i], s)
			}
		}
		return ss, nil
	}
	var first [][]bundleDigest // per sub-seed
	r.loop(func() (trial, error) {
		ss, err := newSystems()
		if err != nil {
			return trial{}, err
		}
		return trial{
			run: func() error {
				eachCopy(len(ss), func(i int) {
					for _, s := range ss[i] {
						traceAll(s, keys)
					}
				})
				return nil
			},
			verify: func() error {
				for _, sys := range ss {
					var got [][]bundleDigest
					for _, s := range sys {
						got = append(got, systemDigests(s, keys))
					}
					if first == nil {
						first = got
						continue
					}
					for j := range got {
						if err := compareDigests(got[j], first[j], "repeat call or copy"); err != nil {
							return err
						}
					}
				}
				return nil
			},
		}, nil
	}, func() error { _, err := newSystems(); return err })
	if first == nil {
		return
	}
	for _, ds := range first {
		for _, d := range ds {
			r.work += float64(d.packets) * float64(r.workers)
		}
	}

	// Oracle: the benchmark's own replica, built from the layers' public
	// functions, must reproduce every bundle of every sub-seed exactly.
	// Untraced, its pass over the first sub-seed is also the overhead
	// baseline.
	var rep mirrorRun
	untraced := timed(func() { rep = mirrorReplica(nil, cfg, keys) })
	r.checkErr(compareDigests(rep.digests, first[0], "replica"), "mirror replica")
	for j := 1; j < len(cfgs); j++ {
		r.checkErr(compareDigests(mirrorReplica(nil, cfgs[j], keys).digests, first[j], "replica"),
			fmt.Sprintf("mirror replica, sub-seed %d", j))
	}
	if r.seed == 42 && !r.smoke {
		r.checkErr(checkGolden(r), "golden sections")
	}
	if !r.trace {
		return
	}

	t := NewTracer()
	timed(func() { rep = mirrorReplica(t, cfg, keys) })
	r.checkErr(compareDigests(rep.digests, first[0], "traced replica"), "mirror traced replica")
	untraced = (untraced + timed(func() { mirrorReplica(nil, cfg, keys) })) / 2
	genAllocs := mirrorGenAllocs(cfg, keys)
	r.setLayer(t, rep.root, untraced, func(l map[string]float64) {
		var pkts int64
		for _, d := range rep.digests {
			pkts += d.packets
		}
		for role, name := range roleMetric {
			l["services.gen_s"] += l["services.gen_s/"+name]
			if n := rep.rolePkts[role]; n > 0 {
				l["services.ns_per_pkt."+name] = l["services.gen_s/"+name] * 1e9 / float64(n)
			}
		}
		var an float64
		for _, m := range analysisConsumers {
			an += l[m]
		}
		an += l["analysis.finish_s"]
		l["analysis.ns_per_pkt"] = an * 1e9 / float64(pkts)
		l["services.allocs_per_pkt"] = float64(genAllocs) / float64(pkts)
		l["analysis.allocs_per_pkt"] = (float64(rep.runAllocs) - float64(genAllocs)) / float64(pkts)
		l["workload.pkts_per_batch"] = float64(pkts) / l["workload.batches"]
	})
}

// roleMetric names each monitored role in metric keys.
var roleMetric = map[topology.Role]string{
	topology.RoleWeb:           "web",
	topology.RoleCacheFollower: "cache_f",
	topology.RoleCacheLeader:   "cache_l",
	topology.RoleHadoop:        "hadoop",
}

// analysisConsumers are the metrics the 16 consumers' batch time is
// charged to (the nine heavy-hitter trackers share one).
var analysisConsumers = []string{
	"analysis.mix_s", "analysis.locality_s", "analysis.flows_s", "analysis.rates_s",
	"analysis.sizes_s", "analysis.arrivals_s", "analysis.concurrency_s", "analysis.hh_s",
}

func compareDigests(got, want []bundleDigest, what string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d bundles, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: bundle %d differs (packets %d vs %d)", what, i, got[i].packets, want[i].packets)
		}
	}
	return nil
}

// timedSink wraps one analysis consumer and sums the time it spends in
// its 512-header batches.
type timedSink struct {
	c  workload.BatchCollector
	ns int64
}

func (s *timedSink) Packets(hs []packet.Header) {
	t0 := time.Now()
	s.c.Packets(hs)
	s.ns += time.Since(t0).Nanoseconds()
}

func (s *timedSink) Packet(h packet.Header) { s.Packets([]packet.Header{h}) }

// mirrorRun is the outcome of one replica pass.
type mirrorRun struct {
	root      int
	digests   []bundleDigest
	rolePkts  map[topology.Role]int64
	runAllocs uint64 // heap objects allocated inside trace generation + consumers
}

// mirrorReplica regenerates every bundle the way System.Trace does, one
// bundle at a time, from the layers' public functions. With a tracer it
// wraps each consumer in a timedSink and records one span per layer call.
func mirrorReplica(t *Tracer, cfg core.Config, keys []mirrorKey) mirrorRun {
	out := mirrorRun{root: t.Begin(-1, "core.residual_s", "mirror-replica"), rolePkts: map[topology.Role]int64{}}
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

	for _, k := range keys {
		host := topo.HostsByRole(k.role)[0]
		sp := t.Begin(out.root, "analysis.setup_s", "analysis.New*")
		mix := analysis.NewServiceMix(topo, host)
		loc := analysis.NewLocalitySeries(topo, host)
		flows := analysis.NewFlows(topo, host)
		rates := analysis.NewRateSeries(topo, host)
		sizes := analysis.NewPacketSizes()
		arr := analysis.NewArrivals(topo.Addr(host), 15*netsim.Millisecond, 100*netsim.Millisecond)
		conc := analysis.NewConcurrency(topo, host, analysis.ConcurrencyWindow)
		switch k.role {
		case topology.RoleCacheFollower:
			rates.Filter = func(d topology.HostID) bool { return topo.HostRole(d) == topology.RoleWeb }
		case topology.RoleCacheLeader:
			rates.Filter = func(d topology.HostID) bool {
				r := topo.HostRole(d)
				return r == topology.RoleCacheFollower || r == topology.RoleCacheLeader
			}
		case topology.RoleWeb:
			rates.Filter = func(d topology.HostID) bool { return topo.HostRole(d) == topology.RoleCacheFollower }
		}
		consumers := []workload.Collector{mix, loc, flows, rates, sizes, arr, conc}
		var hhs []analysis.HeavyTracker
		for _, lvl := range []analysis.Level{analysis.LevelFlow, analysis.LevelHost, analysis.LevelRack} {
			for _, bin := range core.HHBins {
				hh := analysis.NewHeavyTracker(topo, host, lvl, bin, cfg.SketchMode)
				hhs = append(hhs, hh)
				consumers = append(consumers, hh)
			}
		}
		var sinks workload.Fanout
		var timed []*timedSink
		for _, c := range consumers {
			if t.Enabled() {
				ts := &timedSink{c: workload.Batched(c)}
				timed = append(timed, ts)
				c = ts
			}
			sinks = append(sinks, c)
		}
		t.End(sp)

		name := roleMetric[k.role]
		sp = t.Begin(out.root, "services.gen_s/"+name, fmt.Sprintf("services.Trace %s %ds", name, k.sec))
		a0 := allocObjects()
		tr := services.NewTrace(pick, host, cfg.Seed^uint64(k.role)<<8^uint64(k.sec), cfg.Params, sinks)
		tr.Run(netsim.Time(k.sec) * netsim.Second)
		out.runAllocs += allocObjects() - a0
		for i, ts := range timed {
			t.Charge(sp, analysisConsumers[min(i, len(analysisConsumers)-1)], ts.ns)
		}
		t.End(sp)
		t.Count("workload.batches", float64(tr.G.Batches()))
		out.rolePkts[k.role] += tr.Emitted()

		sp = t.Begin(out.root, "analysis.finish_s", "analysis.Finish")
		conc.Finish()
		for _, hh := range hhs {
			hh.Finish()
		}
		t.End(sp)
		out.digests = append(out.digests, digestAnalyses(tr.Emitted(), mix, loc, flows, rates, sizes, arr, conc))
	}
	t.End(out.root)
	return out
}

// mirrorGenAllocs counts the heap objects trace generation allocates with
// a discarding sink, so the replica's total splits into generation and
// analysis allocations.
func mirrorGenAllocs(cfg core.Config, keys []mirrorKey) uint64 {
	topo, err := topology.Build(topology.Preset(cfg.Scale))
	if err != nil {
		panic(err)
	}
	pick := services.NewPicker(topo)
	discard := workload.CollectorFunc(func(packet.Header) {})
	var n uint64
	for _, k := range keys {
		host := topo.HostsByRole(k.role)[0]
		a0 := allocObjects()
		tr := services.NewTrace(pick, host, cfg.Seed^uint64(k.role)<<8^uint64(k.sec), cfg.Params, discard)
		tr.Run(netsim.Time(k.sec) * netsim.Second)
		n += allocObjects() - a0
	}
	return n
}

// goldenSections are the rendered sections of experiments_output.txt that
// read only trace bundles.
var goldenSections = []string{
	"table2", "table4", "figure4", "figure6", "figure7", "figure8", "figure9",
	"figure10-11", "figure12", "figure13", "figure14", "figure16-17",
}

// checkGolden renders the trace-only sections at the golden durations and
// compares them with the committed transcript (seed 42 only).
func checkGolden(r *runner) error {
	data, err := os.ReadFile("experiments_output.txt")
	if err != nil {
		return err
	}
	want := parseSections(string(data))
	cfg := mirrorConfig(r, goldenShort, goldenLong)
	s, err := core.NewSystem(cfg)
	if err != nil {
		return err
	}
	traceAll(s, mirrorKeys(cfg))
	for _, sec := range core.SuiteSections(s) {
		if !slices.Contains(goldenSections, sec.Name) {
			continue
		}
		w, ok := want[sec.Name]
		if !ok {
			return fmt.Errorf("section %s missing from experiments_output.txt", sec.Name)
		}
		if got := strings.TrimRight(sec.Run(s), "\n"); got != w {
			return fmt.Errorf("section %s differs from experiments_output.txt", sec.Name)
		}
	}
	return nil
}

// parseSections splits a rendered transcript into its "=== name (Ns) ==="
// sections.
func parseSections(text string) map[string]string {
	out := map[string]string{}
	var name string
	var body []string
	flush := func() {
		if name != "" {
			out[name] = strings.TrimRight(strings.Join(body, "\n"), "\n")
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "=== "); ok && strings.HasSuffix(line, " ===") {
			flush()
			name, _, _ = strings.Cut(rest, " ")
			body = nil
			continue
		}
		body = append(body, line)
	}
	flush()
	return out
}
