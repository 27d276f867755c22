// Command perfbench is the reproduction's end-to-end and per-layer
// benchmark. It runs one named workload through core's public API in a
// closed loop (one call at a time, fixed input size), checks the outputs
// against oracles, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// traced replica of the workload, built from the layers' public functions,
// reports the per-layer breakdown instead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// benchWorkload is one named input set of the benchmark.
type benchWorkload struct {
	name string
	run  func(r *runner)
}

// workloads lists the benchmark's workloads in run order.
var workloads = []benchWorkload{
	{"mirror", runMirror},
	{"fabric", runFabric},
	{"fleet", runFleet},
	{"fleet-wire", runFleetWire},
}

// runner carries one run's settings and accumulates its measurements and
// oracle verdicts.
type runner struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	workers  int    // nproc: taggers, agents, and sequential-workload copies
	outDir   string // where the traced run writes its Chrome trace

	setups   []float64 // wall seconds of each measured call's set-up
	setupCPU []float64 // thread CPU seconds per set-up, one per burst
	walls    []float64 // wall seconds per measured call
	cpus     []float64 // process CPU seconds per measured call
	probes   []float64 // mean per-worker probe CPU seconds around each call
	setupRef float64   // probe CPU seconds of one worker around the bursts
	peaks    []float64 // peak resident Go memory per measured call, MiB
	work     float64   // work units per timed call

	attempted, failed int
	failures          []string

	layer map[string]float64 // per-layer metrics of the traced run
}

// trial is one timed call: run is timed, verify runs after the clock stops
// (capturing or cross-checking outputs), and cleanup releases resources.
type trial struct {
	run     func() error
	verify  func() error
	cleanup func()
}

// minCalls is the least number of measured calls a run makes, however
// long they take, so every end-to-end median rests on at least three
// samples. A warm-up call precedes them: its outputs are checked like any
// other, but its times are not recorded.
const minCalls = 3

// minSetups is the number of set-up samples (bursts) whose median
// becomes setup_s.
const minSetups = 21

// check counts one checked operation and records a failure.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		msg := fmt.Sprintf(format, args...)
		r.failures = append(r.failures, msg)
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", r.workload, msg)
	}
}

// checkErr counts one checked operation that fails when err is non-nil.
func (r *runner) checkErr(err error, what string) bool {
	r.check(err == nil, "%s: %v", what, err)
	return err == nil
}

// loop runs closed-loop timed calls until the run's measuring time is
// spent (and at least minCalls have run). setup builds a fresh trial
// before each call (its wall time goes to the context line); extra, if
// non-nil, is the same set-up alone, measured afterwards in minSetups
// bursts for setup_s. Every iteration starts from a collected heap
// (outside both clocks), so one call's garbage never lands on the next
// call's set-up or peak, and the probe runs right before and right after
// each call.
func (r *runner) loop(setup func() (trial, error), extra func() error) {
	deadline := time.Now().Add(time.Duration(r.seconds * float64(time.Second)))
	for i := 0; ; i++ {
		runtime.GC()
		t0 := time.Now()
		tr, err := setup()
		setupS := seconds(time.Since(t0))
		if !r.checkErr(err, fmt.Sprintf("setup %d", i)) {
			break
		}
		before := probe(r.workers)
		mem := startPeakSampler()
		c0 := cpuSeconds()
		t1 := time.Now()
		err = tr.run()
		w := seconds(time.Since(t1))
		cpu := cpuSeconds() - c0
		peak := mem.stop()
		after := probe(r.workers)
		if i > 0 {
			r.setups = append(r.setups, setupS)
			r.cpus = append(r.cpus, cpu)
			r.probes = append(r.probes, (before+after)/2/float64(r.workers))
			r.walls = append(r.walls, w)
			r.peaks = append(r.peaks, peak)
		}
		r.checkErr(err, fmt.Sprintf("call %d", i))
		if err == nil && tr.verify != nil {
			r.checkErr(tr.verify(), fmt.Sprintf("call %d output", i))
		}
		if tr.cleanup != nil {
			tr.cleanup()
		}
		if i >= minCalls && time.Now().After(deadline) {
			break
		}
	}
	if extra == nil {
		return
	}
	before := probe(1)
	budget := time.Now().Add(3 * time.Second)
	for len(r.setupCPU) < minSetups && time.Now().Before(budget) {
		cpu, err := setupBurst(extra)
		if !r.checkErr(err, "setup") {
			return
		}
		r.setupCPU = append(r.setupCPU, cpu)
	}
	r.setupRef = (before + probe(1)) / 2
}

// setupBurstCPU is the least thread CPU one set-up sample spans.
const setupBurstCPU = 2e-3

// setupBurst measures one set-up sample: starting from a collected heap
// and pinned to its OS thread, it repeats the set-up back to back until
// the repetitions have used setupBurstCPU of the thread's CPU, and returns
// the CPU per set-up. Set-up is single-threaded, so the thread's CPU clock
// sees all of its work but none of the time other processes hold the CPU,
// and a burst amortises the cold caches a lone tens-of-microseconds
// set-up would otherwise be dominated by.
func setupBurst(setup func() error) (float64, error) {
	runtime.GC()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPUSeconds()
	for n := 1; ; n++ {
		if err := setup(); err != nil {
			return 0, err
		}
		if used := threadCPUSeconds() - c0; used >= setupBurstCPU {
			return used / float64(n), nil
		}
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd assembles the end-to-end metrics of an untraced run. Both
// timings are CPU time, not wall time: on a shared machine another
// tenant's load stretches wall time by up to 2x for minutes at a time.
// They are further scaled to the reference speed (see probe.go): the CPU
// a call consumes still drifts with the machine's effective speed, and the
// probe's CPU around the call drifts with it. Wall and plain CPU figures
// stay in the context line, and the traced run's core.cpu_util relates
// the two.
func (r *runner) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":            {atRefSpeed(median(r.setupCPU), r.setupRef), "s"},
		"work_per_ref_cpu_s": {medianRate(r.work, r.refCPUs()), "items/cpu-s"},
		"peak_rss_mib":       {maxOf(r.peaks), "MiB"},
	}
}

// atRefSpeed scales cpu seconds, measured while one worker's probe took
// probeCPU seconds, to what they would be at the reference speed.
func atRefSpeed(cpu, probeCPU float64) float64 {
	if probeCPU <= 0 {
		return 0
	}
	return cpu * probeRefCPU / probeCPU
}

// refCPUs is each measured call's CPU time at the reference speed.
func (r *runner) refCPUs() []float64 {
	out := make([]float64, len(r.cpus))
	for i, c := range r.cpus {
		out[i] = atRefSpeed(c, r.probes[i])
	}
	return out
}

// medianRate is the median over calls of work ÷ seconds.
func medianRate(work float64, secs []float64) float64 {
	var rates []float64
	for _, s := range secs {
		if s > 0 {
			rates = append(rates, work/s)
		}
	}
	return median(rates)
}

// perLayer assembles every per-layer metric of the catalogue; metrics a
// workload's layers never reach read 0.
func (r *runner) perLayer() map[string]metric {
	out := map[string]metric{}
	for _, lm := range layerMetrics {
		out[lm.name] = metric{r.layer[lm.name], lm.unit}
	}
	return out
}

// setLayer records the traced run's per-layer values and the
// self-time-sum checks, then lets derive add the workload's ratios.
func (r *runner) setLayer(t *Tracer, root int, untracedWall float64, derive func(l map[string]float64)) {
	wall := t.Wall(root)
	self := SelfTimes(t.Spans())
	r.layer = map[string]float64{}
	var selfSum float64
	for m, v := range self {
		r.layer[m] += v
		selfSum += v
	}
	for m, v := range t.Counts {
		r.layer[m] += v
	}
	r.layer["trace.wall_s"] = wall
	if wall > 0 {
		r.layer["trace.self_sum_frac"] = selfSum / wall
		r.layer["trace.attributed_frac"] = 1 - self["core.residual_s"]/wall
	}
	if untracedWall > 0 {
		r.layer["trace.overhead"] = wall / untracedWall
	}
	if wall := sum(r.walls); wall > 0 {
		r.layer["core.cpu_util"] = sum(r.cpus) / (wall * float64(runtime.GOMAXPROCS(0)))
	}
	if derive != nil {
		derive(r.layer)
	}
	r.check(selfSum >= 0.95*wall && selfSum <= 1.05*wall, "per-layer self times sum to %.4fs, traced wall %.4fs", selfSum, wall)
	r.check(r.layer["trace.attributed_frac"] >= 0.95, "layer spans cover %.4f of traced wall", r.layer["trace.attributed_frac"])
	if r.outDir != "" {
		path := filepath.Join(r.outDir, fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
		r.checkErr(t.WriteChrome(path, "perfbench "+r.workload), "chrome trace")
		fmt.Fprintf(os.Stderr, "perfbench: trace written to %s\n", path)
	}
}

// timed runs one replica pass from a collected heap and returns its wall
// in seconds. The traced run brackets its traced pass with two untraced
// ones and divides by their mean, so the overhead ratio is not skewed by
// whichever pass ran first.
func timed(replica func()) float64 {
	runtime.GC()
	t0 := time.Now()
	replica()
	return seconds(time.Since(t0))
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Uint64("seed", 42, "workload seed (inputs are a pure function of it)")
	secs := flag.Float64("seconds", 10, "measuring time of the closed loop")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics; 0 = end-to-end metrics")
	smoke := flag.Bool("smoke", false, "run every workload once at minimal size with every oracle on, and exit non-zero on any failure")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's Chrome trace")
	flag.Parse()

	if *smoke {
		os.Exit(runSmoke(*seed, *outDir))
	}
	w := lookup(*name)
	if w == nil || (*trace != 0 && *trace != 1) || *secs <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload %s, -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	if err := checkSource(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	r := newRunner(*name, *seed, *secs, *trace == 1, false, *outDir)
	w.run(r)
	printContext(r)
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed}
	if r.trace {
		res.Metrics = r.perLayer()
	} else {
		res.Metrics = r.endToEnd()
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func newRunner(name string, seed uint64, secs float64, trace, smoke bool, outDir string) *runner {
	if trace {
		outDir = filepath.Clean(outDir)
	} else {
		outDir = ""
	}
	return &runner{workload: name, seed: seed, seconds: secs, trace: trace, smoke: smoke,
		workers: runtime.NumCPU(), outDir: outDir}
}

// runSmoke runs all four workloads, traced, at minimal size.
func runSmoke(seed uint64, outDir string) int {
	if err := checkSource(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	bad := 0
	for _, w := range workloads {
		r := newRunner(w.name, seed, 0.01, true, true, outDir)
		w.run(r)
		fmt.Printf("smoke %-10s attempted=%d failed=%d\n", w.name, r.attempted, r.failed)
		bad += r.failed
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// checkSource fails fast outside a checkout of the repository: the
// golden transcript is the one repository file the benchmark reads.
func checkSource() error {
	if _, err := os.Stat("experiments_output.txt"); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	return nil
}

// printContext records the run's context on stdout (before the result
// line) and any failures on stderr.
func printContext(r *runner) {
	ctx := map[string]any{
		"workload":       r.workload,
		"seed":           r.seed,
		"trace":          r.trace,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"calls":          len(r.walls),
		"setups":         len(r.setups),
		"work":           r.work,
		"work_per_s":     medianRate(r.work, r.walls),
		"work_per_cpu_s": medianRate(r.work, r.cpus),
		"walls_s":        r.walls,
		"cpus_s":         r.cpus,
		"probes_cpu_s":   r.probes,
		"setup_probe_s":  r.setupRef,
		"setups_s":       r.setups,
		"setup_cpu_s":    r.setupCPU,
		"peaks_mib":      r.peaks,
		"failed_frac": func() float64 {
			if r.attempted == 0 {
				return 1
			}
			return float64(r.failed) / float64(r.attempted)
		}(),
	}
	line, _ := json.Marshal(map[string]any{"context": ctx})
	fmt.Println(string(line))
	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", f)
	}
}

func lookup(name string) *benchWorkload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}
