package core

import (
	"fmt"
	"strings"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/baseline"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/render"
	"fbdcnet/internal/stats"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// Figure4Result reproduces Figure 4: per-second outbound traffic locality
// for each monitored role over a short capture.
type Figure4Result struct {
	// Series[role][locality] is the per-second byte series.
	Series map[topology.Role]map[topology.Locality][]float64
	// Share and Stability summarize each role's locality mix and its
	// per-second coefficient of variation.
	Share     map[topology.Role]map[topology.Locality]float64
	Stability map[topology.Role]map[topology.Locality]float64
}

// Figure4 runs the per-second locality series for the monitored roles.
func (s *System) Figure4() *Figure4Result {
	out := &Figure4Result{
		Series:    make(map[topology.Role]map[topology.Locality][]float64),
		Share:     make(map[topology.Role]map[topology.Locality]float64),
		Stability: make(map[topology.Role]map[topology.Locality]float64),
	}
	for _, role := range MonitoredRoles {
		b := s.Trace(role, s.Cfg.ShortTraceSec)
		out.Series[role] = make(map[topology.Locality][]float64)
		for _, l := range topology.Localities {
			out.Series[role][l] = b.Loc.Series(l)
		}
		out.Share[role] = b.Loc.Share()
		out.Stability[role] = b.Loc.Stability()
	}
	return out
}

// Render prints per-role locality sparklines and shares.
func (f *Figure4Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4: per-second traffic locality by system type\n")
	for _, role := range MonitoredRoles {
		fmt.Fprintf(&b, "%s:\n", role)
		for _, l := range topology.Localities {
			share := f.Share[role][l]
			fmt.Fprintf(&b, "  %-16s %5s%%  %s\n", l, render.Pct(share), render.Sparkline(f.Series[role][l]))
		}
	}
	return b.String()
}

// Figure5Result reproduces the traffic-demand matrices of Figure 5.
type Figure5Result struct {
	HadoopRacks   [][]float64 // 5a: rack-to-rack within a Hadoop cluster
	FrontendRacks [][]float64 // 5b: rack-to-rack within a Frontend cluster
	Clusters      [][]float64 // 5c: cluster-to-cluster
	// Diagonality is the byte fraction on the matrix diagonal, the
	// quantitative version of "strong diagonal" vs "bipartite".
	HadoopDiag, FrontendDiag float64
}

// matrixDiag returns the diagonal byte fraction of a square matrix.
func matrixDiag(m [][]float64) float64 {
	var diag, total float64
	for i, row := range m {
		for j, v := range row {
			total += v
			if i == j {
				diag += v
			}
		}
	}
	if total == 0 {
		return 0
	}
	return diag / total
}

// Figure5 extracts the demand matrices from the fleet dataset.
func (s *System) Figure5() *Figure5Result {
	ds := s.FleetDataset()
	hadoop := s.Topo.ClustersOfType(topology.ClusterHadoop)[0]
	fe := s.Topo.ClustersOfType(topology.ClusterFrontend)[0]
	var clusters []int
	for _, c := range s.Topo.Clusters {
		clusters = append(clusters, c.ID)
	}
	res := &Figure5Result{
		HadoopRacks:   ds.RackMatrix(s.Topo, hadoop),
		FrontendRacks: ds.RackMatrix(s.Topo, fe),
		Clusters:      ds.ClusterMatrix(clusters),
	}
	res.HadoopDiag = matrixDiag(res.HadoopRacks)
	res.FrontendDiag = matrixDiag(res.FrontendRacks)
	return res
}

// Render prints the three heatmaps.
func (f *Figure5Result) Render() string {
	var b strings.Builder
	b.WriteString(render.Heatmap(
		fmt.Sprintf("Figure 5a: Hadoop cluster rack-to-rack (diagonal %.1f%%)", 100*f.HadoopDiag),
		f.HadoopRacks))
	b.WriteString(render.Heatmap(
		fmt.Sprintf("Figure 5b: Frontend cluster rack-to-rack (diagonal %.1f%%)", 100*f.FrontendDiag),
		f.FrontendRacks))
	b.WriteString(render.Heatmap("Figure 5c: cluster-to-cluster", f.Clusters))
	return b.String()
}

// FlowDistResult carries the per-locality and overall CDFs of one flow
// metric for the monitored roles of Figures 6 and 7.
type FlowDistResult struct {
	Figure string // "6" (sizes, KB) or "7" (durations, ms)
	Unit   string
	PerLoc map[topology.Role]map[topology.Locality]*stats.Sample
	All    map[topology.Role]*stats.Sample
}

// figRoles are the roles shown in Figures 6 and 7.
var figRoles = []topology.Role{topology.RoleWeb, topology.RoleCacheFollower, topology.RoleHadoop}

// Figure6 computes flow size CDFs from long traces.
func (s *System) Figure6() *FlowDistResult {
	out := &FlowDistResult{
		Figure: "6", Unit: "KB",
		PerLoc: make(map[topology.Role]map[topology.Locality]*stats.Sample),
		All:    make(map[topology.Role]*stats.Sample),
	}
	for _, role := range figRoles {
		b := s.Trace(role, s.Cfg.LongTraceSec)
		perLoc, all := b.Flows.SizeCDF()
		out.PerLoc[role] = perLoc
		out.All[role] = all
	}
	return out
}

// Figure7 computes flow duration CDFs from long traces.
func (s *System) Figure7() *FlowDistResult {
	out := &FlowDistResult{
		Figure: "7", Unit: "ms",
		PerLoc: make(map[topology.Role]map[topology.Locality]*stats.Sample),
		All:    make(map[topology.Role]*stats.Sample),
	}
	for _, role := range figRoles {
		b := s.Trace(role, s.Cfg.LongTraceSec)
		perLoc, all := b.Flows.DurationCDF()
		out.PerLoc[role] = perLoc
		out.All[role] = all
	}
	return out
}

// Render prints an ASCII CDF per role with per-locality quantile rows.
func (f *FlowDistResult) Render() string {
	var b strings.Builder
	name := "flow size"
	if f.Figure == "7" {
		name = "flow duration"
	}
	fmt.Fprintf(&b, "Figure %s: %s distribution (%s)\n", f.Figure, name, f.Unit)
	for _, role := range figRoles {
		b.WriteString(render.CDF(fmt.Sprintf("%s (all)", role), f.All[role], 60, 8, true))
		for _, l := range topology.Localities {
			if s, ok := f.PerLoc[role][l]; ok && s.N() > 0 {
				fmt.Fprintf(&b, "  %-16s %s\n", l, render.Quantiles(s))
			}
		}
	}
	return b.String()
}

// Figure8Result reproduces the per-destination-rack rate analyses.
type Figure8Result struct {
	// SpreadHadoop and SpreadCache are the per-second p90/p10 rate
	// ratios: orders of magnitude for Hadoop (8a) vs tight for cache (8b).
	SpreadHadoop *stats.Sample
	SpreadCache  *stats.Sample
	// CacheStability is the Fig. 8c CDF of rate/median per (rack, sec).
	CacheStability *stats.Sample
	// CacheWithin2x is §5.2's ≈90% within a factor of two.
	CacheWithin2x float64
	// CacheSignificantChange is the Benson 20% cutoff fraction (≈45%).
	CacheSignificantChange float64
	HadoopWithin2x         float64
}

// Figure8 compares Hadoop and cache per-rack rate stability.
func (s *System) Figure8() *Figure8Result {
	hb := s.Trace(topology.RoleHadoop, s.Cfg.ShortTraceSec)
	cb := s.Trace(topology.RoleCacheFollower, s.Cfg.ShortTraceSec)
	return &Figure8Result{
		SpreadHadoop:           hb.Rates.SpreadAcrossSeconds(),
		SpreadCache:            cb.Rates.SpreadAcrossSeconds(),
		CacheStability:         cb.Rates.StabilityCDF(),
		CacheWithin2x:          cb.Rates.FracWithinFactor(2),
		CacheSignificantChange: cb.Rates.SignificantChangeFrac(),
		HadoopWithin2x:         hb.Rates.FracWithinFactor(2),
	}
}

// Render prints the stability comparison.
func (f *Figure8Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 8: per-destination-rack flow rates\n")
	fmt.Fprintf(&b, "  8a Hadoop per-second p90/p10 rate ratio: %s\n", render.Quantiles(f.SpreadHadoop))
	fmt.Fprintf(&b, "  8b Cache  per-second p90/p10 rate ratio: %s\n", render.Quantiles(f.SpreadCache))
	b.WriteString(render.CDF("  8c Cache rate/median", f.CacheStability, 60, 8, true))
	fmt.Fprintf(&b, "  cache within 2x of median: %.1f%% (paper ≈90%%)\n", 100*f.CacheWithin2x)
	fmt.Fprintf(&b, "  hadoop within 2x of median: %.1f%%\n", 100*f.HadoopWithin2x)
	fmt.Fprintf(&b, "  cache significant change (Benson 20%% cutoff): %.1f%% (paper ≈45%%)\n",
		100*f.CacheSignificantChange)
	return b.String()
}

// Figure9Result reproduces the cache follower per-host flow size CDF.
type Figure9Result struct {
	PerHost *stats.Sample // KB per destination host over the trace (all)
	// IntraCluster is the dominant tier (responses to Web servers),
	// where load balancing produces the paper's tight ~1 MB mode.
	IntraCluster *stats.Sample
	// TightnessRatio is the intra-cluster per-host p90/p10: small when
	// load balancing equalizes per-host bytes.
	TightnessRatio float64
	// FlowP90P10 is the same ratio at 5-tuple granularity (intra-cluster
	// flows) for contrast.
	FlowP90P10 float64
}

// Figure9 aggregates the cache follower's flows by destination host.
func (s *System) Figure9() *Figure9Result {
	b := s.Trace(topology.RoleCacheFollower, s.Cfg.LongTraceSec)
	perLocHost, all := b.Flows.PerHostSizeCDF()
	perLocFlow, _ := b.Flows.SizeCDF()
	res := &Figure9Result{
		PerHost:      all,
		IntraCluster: perLocHost[topology.IntraCluster],
	}
	if res.IntraCluster == nil {
		res.IntraCluster = all
	}
	if p10 := res.IntraCluster.Quantile(0.1); p10 > 0 {
		res.TightnessRatio = res.IntraCluster.Quantile(0.9) / p10
	}
	if fs := perLocFlow[topology.IntraCluster]; fs != nil {
		if p10 := fs.Quantile(0.1); p10 > 0 {
			res.FlowP90P10 = fs.Quantile(0.9) / p10
		}
	}
	return res
}

// Render prints the per-host size CDF.
func (f *Figure9Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 9: cache follower per-host flow size (KB)\n")
	b.WriteString(render.CDF("  per-host bytes (all)", f.PerHost, 60, 8, true))
	b.WriteString(render.CDF("  per-host bytes (intra-cluster)", f.IntraCluster, 60, 8, true))
	fmt.Fprintf(&b, "  intra-cluster per-host p90/p10 = %.2f (tight), per-flow p90/p10 = %.2f (wide)\n",
		f.TightnessRatio, f.FlowP90P10)
	return b.String()
}

// HHDynamicsResult reproduces Figures 10 and 11: heavy-hitter persistence
// across intervals and subinterval/second intersection.
type HHDynamicsResult struct {
	// Median[role][level][bin] of the metric, in percent.
	Persistence  map[topology.Role]map[analysis.Level]map[netsim.Time]float64
	Intersection map[topology.Role]map[analysis.Level]map[netsim.Time]float64
}

// hhRoles are the roles of Figures 10/11.
var hhRoles = []topology.Role{topology.RoleCacheFollower, topology.RoleCacheLeader, topology.RoleWeb}

// Figure10And11 extracts heavy-hitter dynamics from the short traces.
func (s *System) Figure10And11() *HHDynamicsResult {
	out := &HHDynamicsResult{
		Persistence:  make(map[topology.Role]map[analysis.Level]map[netsim.Time]float64),
		Intersection: make(map[topology.Role]map[analysis.Level]map[netsim.Time]float64),
	}
	for _, role := range hhRoles {
		b := s.Trace(role, s.Cfg.ShortTraceSec)
		out.Persistence[role] = make(map[analysis.Level]map[netsim.Time]float64)
		out.Intersection[role] = make(map[analysis.Level]map[netsim.Time]float64)
		for lvl, byBin := range b.HH {
			out.Persistence[role][lvl] = make(map[netsim.Time]float64)
			out.Intersection[role][lvl] = make(map[netsim.Time]float64)
			for bin, hh := range byBin {
				out.Persistence[role][lvl][bin] = hh.Persistence().Quantile(0.5)
				out.Intersection[role][lvl][bin] = hh.Intersection().Quantile(0.5)
			}
		}
	}
	return out
}

// Render prints the persistence/intersection medians.
func (f *HHDynamicsResult) Render() string {
	var b strings.Builder
	b.WriteString("Figures 10-11: heavy-hitter stability (median %, by aggregation and bin)\n")
	headers := []string{"Type", "Agg", "persist 1ms", "persist 10ms", "persist 100ms",
		"intersect 1ms", "intersect 10ms", "intersect 100ms"}
	var rows [][]string
	for _, role := range hhRoles {
		for _, lvl := range analysis.Levels {
			row := []string{role.String(), lvl.String()}
			for _, bin := range HHBins {
				row = append(row, fmt.Sprintf("%.0f", f.Persistence[role][lvl][bin]))
			}
			for _, bin := range HHBins {
				row = append(row, fmt.Sprintf("%.0f", f.Intersection[role][lvl][bin]))
			}
			rows = append(rows, row)
		}
	}
	b.WriteString(render.Table(headers, rows))
	return b.String()
}

// Figure12Result reproduces the packet size CDFs.
type Figure12Result struct {
	Sizes map[topology.Role]*stats.Sample
	// BimodalFrac[role] is the fraction of packets that are ACK- or
	// MTU-sized; high only for Hadoop.
	BimodalFrac map[topology.Role]float64
}

// Figure12 extracts packet size distributions from short traces.
func (s *System) Figure12() *Figure12Result {
	out := &Figure12Result{
		Sizes:       make(map[topology.Role]*stats.Sample),
		BimodalFrac: make(map[topology.Role]float64),
	}
	for _, role := range MonitoredRoles {
		b := s.Trace(role, s.Cfg.ShortTraceSec)
		sample := b.Sizes.Sample()
		out.Sizes[role] = sample
		lo := sample.FracBelow(100)
		hi := 1 - sample.FracBelow(1400)
		out.BimodalFrac[role] = lo + hi
	}
	return out
}

// Render prints per-role size quantiles and CDFs.
func (f *Figure12Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 12: packet size distribution (bytes)\n")
	for _, role := range MonitoredRoles {
		s := f.Sizes[role]
		fmt.Fprintf(&b, "  %-8s median=%4.0f  bimodal(≤100B or ≥1400B)=%4.1f%%  %s\n",
			role, s.Quantile(0.5), 100*f.BimodalFrac[role], render.Quantiles(s))
	}
	return b.String()
}

// Figure13Result reproduces the on/off arrival test, with the literature
// baseline run through the identical analysis for contrast.
type Figure13Result struct {
	// Bins15 and Bins100 are the Hadoop host's binned packet counts.
	Bins15, Bins100 []float64
	// Scores are the empty-bin fractions at 15 ms; near 0 means
	// continuous arrivals.
	FacebookScore15  float64
	FacebookScore100 float64
	BaselineScore15  float64
}

// Figure13 compares Facebook-style Hadoop arrivals with the Benson
// baseline.
func (s *System) Figure13() *Figure13Result {
	b := s.Trace(topology.RoleHadoop, s.Cfg.ShortTraceSec)
	res := &Figure13Result{
		Bins15:           b.Arr.Bins(15 * netsim.Millisecond),
		Bins100:          b.Arr.Bins(100 * netsim.Millisecond),
		FacebookScore15:  b.Arr.OnOffScoreActive(15 * netsim.Millisecond),
		FacebookScore100: b.Arr.OnOffScoreActive(100 * netsim.Millisecond),
	}
	// Literature baseline through the same analysis.
	host := s.Monitored(topology.RoleHadoop)
	arr := analysis.NewArrivals(s.Topo.Addr(host), 15*netsim.Millisecond)
	baseline.Generate(s.Topo, host, s.Cfg.Seed^0xb45e, baseline.DefaultOnOffParams(),
		netsim.Time(s.Cfg.ShortTraceSec/4+1)*netsim.Second, workload.CollectorFunc(arr.Packet))
	res.BaselineScore15 = arr.OnOffScore(15 * netsim.Millisecond)
	return res
}

// Render prints the arrival time series and scores.
func (f *Figure13Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 13: Hadoop arrival process (packets per bin)\n")
	limit := func(vs []float64, n int) []float64 {
		if len(vs) > n {
			return vs[:n]
		}
		return vs
	}
	fmt.Fprintf(&b, "  15ms bins:  %s\n", render.Sparkline(limit(f.Bins15, 100)))
	fmt.Fprintf(&b, "  100ms bins: %s\n", render.Sparkline(limit(f.Bins100, 100)))
	fmt.Fprintf(&b, "  empty-bin fraction @15ms: Facebook-style %.2f vs literature baseline %.2f\n",
		f.FacebookScore15, f.BaselineScore15)
	return b.String()
}

// Figure14Result reproduces the SYN interarrival CDFs.
type Figure14Result struct {
	Gaps map[topology.Role]*stats.Sample // microseconds
}

// Figure14 extracts flow interarrival distributions.
func (s *System) Figure14() *Figure14Result {
	out := &Figure14Result{Gaps: make(map[topology.Role]*stats.Sample)}
	for _, role := range MonitoredRoles {
		b := s.Trace(role, s.Cfg.ShortTraceSec)
		out.Gaps[role] = b.Arr.SYNInterarrivalsMicros()
	}
	return out
}

// Render prints per-role SYN interarrival quantiles.
func (f *Figure14Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 14: flow (SYN) interarrival (µs)\n")
	for _, role := range MonitoredRoles {
		fmt.Fprintf(&b, "  %-8s %s\n", role, render.Quantiles(f.Gaps[role]))
	}
	return b.String()
}

// ConcurrencyResult reproduces Figures 16 and 17.
type ConcurrencyResult struct {
	// Racks[role][loc] is the per-5ms distinct destination rack count
	// distribution; RacksAll the total. HH* are the heavy-hitter-rack
	// analogues.
	Racks    map[topology.Role]map[topology.Locality]*stats.Sample
	RacksAll map[topology.Role]*stats.Sample
	HH       map[topology.Role]map[topology.Locality]*stats.Sample
	HHAll    map[topology.Role]*stats.Sample
	Flows    map[topology.Role]*stats.Sample
	Hosts    map[topology.Role]*stats.Sample
}

// concRoles are the roles of Figures 16/17.
var concRoles = []topology.Role{topology.RoleWeb, topology.RoleCacheFollower, topology.RoleCacheLeader}

// Figure16And17 extracts 5-ms concurrency distributions.
func (s *System) Figure16And17() *ConcurrencyResult {
	out := &ConcurrencyResult{
		Racks:    make(map[topology.Role]map[topology.Locality]*stats.Sample),
		RacksAll: make(map[topology.Role]*stats.Sample),
		HH:       make(map[topology.Role]map[topology.Locality]*stats.Sample),
		HHAll:    make(map[topology.Role]*stats.Sample),
		Flows:    make(map[topology.Role]*stats.Sample),
		Hosts:    make(map[topology.Role]*stats.Sample),
	}
	for _, role := range append(append([]topology.Role{}, concRoles...), topology.RoleHadoop) {
		b := s.Trace(role, s.Cfg.ShortTraceSec)
		out.Racks[role] = make(map[topology.Locality]*stats.Sample)
		out.HH[role] = make(map[topology.Locality]*stats.Sample)
		for _, l := range topology.Localities {
			out.Racks[role][l] = b.Conc.Racks(l)
			out.HH[role][l] = b.Conc.HHRacks(l)
		}
		out.RacksAll[role] = b.Conc.RacksAll()
		out.HHAll[role] = b.Conc.HHRacksAll()
		out.Flows[role] = b.Conc.Flows()
		out.Hosts[role] = b.Conc.Hosts()
	}
	return out
}

// Render prints the concurrency medians.
func (f *ConcurrencyResult) Render() string {
	var b strings.Builder
	b.WriteString("Figures 16-17: concurrent (5-ms) destinations\n")
	headers := []string{"Type", "flows p50", "hosts p50", "racks p50", "racks p90", "HH racks p50", "HH racks p90"}
	var rows [][]string
	for _, role := range append(append([]topology.Role{}, concRoles...), topology.RoleHadoop) {
		rows = append(rows, []string{
			role.String(),
			fmt.Sprintf("%.0f", f.Flows[role].Quantile(0.5)),
			fmt.Sprintf("%.0f", f.Hosts[role].Quantile(0.5)),
			fmt.Sprintf("%.0f", f.RacksAll[role].Quantile(0.5)),
			fmt.Sprintf("%.0f", f.RacksAll[role].Quantile(0.9)),
			fmt.Sprintf("%.0f", f.HHAll[role].Quantile(0.5)),
			fmt.Sprintf("%.0f", f.HHAll[role].Quantile(0.9)),
		})
	}
	b.WriteString(render.Table(headers, rows))
	return b.String()
}
