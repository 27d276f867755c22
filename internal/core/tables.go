package core

import (
	"fmt"
	"strings"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/render"
	"fbdcnet/internal/stats"
	"fbdcnet/internal/topology"
)

// Table2Result is the reproduction of Table 2: outbound traffic share by
// destination service for each monitored host type.
type Table2Result struct {
	// Share[srcRole][dstRole] is the outbound byte fraction.
	Share map[topology.Role]map[topology.Role]float64
}

// Table2 runs short traces for the four monitored roles and classifies
// their outbound bytes by destination role.
func (s *System) Table2() *Table2Result {
	out := &Table2Result{Share: make(map[topology.Role]map[topology.Role]float64)}
	for _, role := range MonitoredRoles {
		b := s.Trace(role, s.Cfg.ShortTraceSec)
		out.Share[role] = b.Mix.Share()
	}
	return out
}

// Render prints the Table 2 reproduction in the paper's layout.
func (t *Table2Result) Render() string {
	cols := []topology.Role{
		topology.RoleWeb, topology.RoleCacheFollower, topology.RoleCacheLeader,
		topology.RoleMultifeed, topology.RoleSLB, topology.RoleHadoop,
	}
	headers := []string{"Type", "Web", "Cache-f", "Cache-l", "MF", "SLB", "Hadoop", "Rest"}
	var rows [][]string
	for _, src := range MonitoredRoles {
		share := t.Share[src]
		row := []string{src.String()}
		covered := 0.0
		for _, dst := range cols {
			row = append(row, render.Pct(share[dst]))
			covered += share[dst]
		}
		row = append(row, render.Pct(1-covered))
		rows = append(rows, row)
	}
	return "Table 2: outbound traffic share by destination type (%)\n" +
		render.Table(headers, rows)
}

// Table3Result is the reproduction of Table 3: traffic locality per
// cluster type plus each type's share of total traffic.
type Table3Result struct {
	// Locality[ct][loc] is the byte fraction of cluster type ct's
	// traffic at locality loc; the All field is the fleet-wide column.
	Locality map[topology.ClusterType]map[topology.Locality]float64
	All      map[topology.Locality]float64
	// Share[ct] is cluster type ct's share of total traffic.
	Share map[topology.ClusterType]float64
}

// Table3 aggregates the synthetic day's Fbflow dataset into the locality
// table.
func (s *System) Table3() *Table3Result {
	ds := s.FleetDataset()
	out := &Table3Result{
		Locality: make(map[topology.ClusterType]map[topology.Locality]float64),
		All:      ds.LocalityShareAll(),
		Share:    ds.TrafficShare(),
	}
	for _, ct := range topology.ClusterTypes {
		out.Locality[ct] = ds.LocalityShare(ct)
	}
	return out
}

// Render prints the Table 3 reproduction in the paper's layout.
func (t *Table3Result) Render() string {
	headers := []string{"Locality", "All"}
	for _, ct := range topology.ClusterTypes {
		headers = append(headers, ct.String())
	}
	var rows [][]string
	for _, loc := range topology.Localities {
		row := []string{strings.TrimPrefix(loc.String(), "Intra-")}
		row = append(row, render.Pct(t.All[loc]))
		for _, ct := range topology.ClusterTypes {
			row = append(row, render.Pct(t.Locality[ct][loc]))
		}
		rows = append(rows, row)
	}
	shareRow := []string{"Share of total", "100.0"}
	for _, ct := range topology.ClusterTypes {
		shareRow = append(shareRow, render.Pct(t.Share[ct]))
	}
	rows = append(rows, shareRow)
	return "Table 3: traffic locality by cluster type (%)\n" +
		render.Table(headers, rows)
}

// Table4Row holds the heavy-hitter statistics of one (role, level) pair
// in 1-ms bins.
type Table4Row struct {
	Role  topology.Role
	Level analysis.Level
	// Percentiles of the per-bin heavy-hitter set size.
	NumP10, NumP50, NumP90 float64
	// Percentiles of per-member rates in Mbps.
	SizeP10, SizeP50, SizeP90 float64
}

// Table4Result is the reproduction of Table 4.
type Table4Result struct {
	Rows []Table4Row
}

// Table4 computes heavy-hitter counts and sizes in 1-ms intervals at
// flow, host, and rack aggregation for each monitored role.
func (s *System) Table4() *Table4Result {
	out := &Table4Result{}
	for _, role := range MonitoredRoles {
		b := s.Trace(role, s.Cfg.ShortTraceSec)
		for _, lvl := range analysis.Levels {
			hh := b.HH[lvl][netsim.Millisecond]
			counts, rates := hh.Counts(), hh.Rates()
			out.Rows = append(out.Rows, Table4Row{
				Role:   role,
				Level:  lvl,
				NumP10: counts.Quantile(0.1), NumP50: counts.Quantile(0.5), NumP90: counts.Quantile(0.9),
				SizeP10: rates.Quantile(0.1), SizeP50: rates.Quantile(0.5), SizeP90: rates.Quantile(0.9),
			})
		}
	}
	return out
}

// Render prints the Table 4 reproduction.
func (t *Table4Result) Render() string {
	headers := []string{"Type", "Agg", "n p10", "n p50", "n p90", "Mbps p10", "Mbps p50", "Mbps p90"}
	var rows [][]string
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.Role.String(), strings.ToLower(r.Level.String()[:1]),
			fmt.Sprintf("%.0f", r.NumP10), fmt.Sprintf("%.0f", r.NumP50), fmt.Sprintf("%.0f", r.NumP90),
			fmt.Sprintf("%.1f", r.SizeP10), fmt.Sprintf("%.1f", r.SizeP50), fmt.Sprintf("%.1f", r.SizeP90),
		})
	}
	return "Table 4: heavy hitters in 1-ms intervals (flow/host/rack aggregation)\n" +
		render.Table(headers, rows)
}

// Section41Result reproduces the §4.1 utilization findings.
type Section41Result struct {
	// Tier utilization distributions across links.
	Tiers map[netsim.Tier]*stats.Sample
	// EdgeLoadByClusterType is the mean access-link utilization per
	// cluster type (Hadoop ≈ 5× Frontend in the paper).
	EdgeLoadByClusterType map[topology.ClusterType]float64
	// DiurnalSwing is the max/min ratio of fleet per-window bytes (≈2×).
	DiurnalSwing float64
}

// Section41 derives tiered utilization from the fleet dataset.
func (s *System) Section41() *Section41Result {
	ds := s.FleetDataset()
	dur := s.FleetDurationSec()
	cfg := netsim.DefaultFabricConfig()
	res := &Section41Result{
		Tiers:                 analysis.Utilization(ds, s.Topo, dur, cfg),
		EdgeLoadByClusterType: analysis.ClusterEdgeLoad(ds, s.Topo, dur, cfg),
	}
	series := ds.PerMinute()
	minV, maxV := 0.0, 0.0
	first := true
	for _, v := range series {
		if first {
			minV, maxV = v, v
			first = false
			continue
		}
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	if minV > 0 {
		res.DiurnalSwing = maxV / minV
	}
	return res
}

// Render prints the §4.1 reproduction.
func (r *Section41Result) Render() string {
	var b strings.Builder
	b.WriteString("Section 4.1: link utilization by tier\n")
	headers := []string{"Tier", "mean%", "p50%", "p99%", "max%"}
	var rows [][]string
	for _, tier := range []netsim.Tier{netsim.TierHostRSW, netsim.TierRSWCSW, netsim.TierCSWFC} {
		s := r.Tiers[tier]
		rows = append(rows, []string{
			tier.String(),
			render.Pct(s.Mean()), render.Pct(s.Quantile(0.5)),
			render.Pct(s.Quantile(0.99)), render.Pct(s.Quantile(1)),
		})
	}
	b.WriteString(render.Table(headers, rows))
	b.WriteString("Edge load by cluster type (mean access-link utilization %):\n")
	for _, ct := range topology.ClusterTypes {
		fmt.Fprintf(&b, "  %-7s %s\n", ct.String(), render.Pct(r.EdgeLoadByClusterType[ct]))
	}
	fmt.Fprintf(&b, "Diurnal swing (max/min fleet bytes per window): %.2fx\n", r.DiurnalSwing)
	return b.String()
}
