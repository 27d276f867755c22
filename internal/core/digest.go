package core

import (
	"encoding/json"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/fbflow"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/topology"
)

// FleetDigest is the canonical JSON summary of one fleet collection:
// the fleet-level findings of Table 3, §4.1, and Figure 5 in one
// byte-comparable document. It exists for the distributed determinism
// contract — a distributed run's digest must equal the single-process
// run's byte for byte (modulo the coverage block, which only a gapped
// run carries) — and for the fbflowd summary output.
//
// Every field is a scalar or a string-keyed map: encoding/json sorts
// map keys and renders float64s in their shortest exact form, so equal
// datasets produce equal bytes with no further canonicalization.
type FleetDigest struct {
	Scale      string  `json:"scale"`
	Seed       uint64  `json:"seed"`
	Windows    int     `json:"windows"`
	Matrix     bool    `json:"matrix,omitempty"`
	TotalBytes float64 `json:"total_bytes"`

	// Table 3: locality mix fleet-wide and per cluster type, plus each
	// type's share of total traffic.
	Locality       map[string]float64            `json:"locality"`
	LocalityByType map[string]map[string]float64 `json:"locality_by_type"`
	TrafficShare   map[string]float64            `json:"traffic_share"`

	// §4.1: mean utilization per fabric tier, mean access-link load per
	// cluster type, and the diurnal swing of fleet bytes.
	TierUtilMean map[string]float64 `json:"tier_util_mean"`
	EdgeLoad     map[string]float64 `json:"edge_load"`
	DiurnalSwing float64            `json:"diurnal_swing"`

	// Figure 5: diagonality of the rack-to-rack matrices.
	HadoopDiag   float64 `json:"hadoop_diag"`
	FrontendDiag float64 `json:"frontend_diag"`

	// Sketch mode only: HLL distinct-population estimates.
	DistinctFlows float64 `json:"distinct_flows,omitempty"`
	DistinctHosts float64 `json:"distinct_hosts,omitempty"`
	DistinctRacks float64 `json:"distinct_racks,omitempty"`

	// Coverage is present only when the collection lost cells — the
	// distributed analogue of lost-forever bytes.
	Coverage *CoverageDigest `json:"coverage,omitempty"`
}

// CoverageDigest accounts the task cells a distributed run never
// received.
type CoverageDigest struct {
	TotalCells  int           `json:"total_cells"`
	GapCells    int           `json:"gap_cells"`
	GapFraction float64       `json:"gap_fraction"`
	Gaps        []CoverageGap `json:"gaps"`
}

// InjectFleetDataset installs an externally aggregated dataset (and its
// coverage gaps) as this System's fleet collection, so every downstream
// consumer — Table 3, §4.1, Figure 5, the digest — reads the
// distributed result through the unchanged single-process API. It must
// run before anything triggers FleetDataset; a later call loses to the
// memo and reports false.
func (s *System) InjectFleetDataset(ds *fbflow.Dataset, gaps []CoverageGap) bool {
	injected := false
	s.fleetOnce.Do(func() {
		s.fleet = ds
		s.fleetGaps = gaps
		injected = true
	})
	return injected
}

// FleetCoverageGaps returns the coverage gaps of an injected
// distributed collection (nil for a single-process or clean run).
func (s *System) FleetCoverageGaps() []CoverageGap { return s.fleetGaps }

// FleetDigest aggregates the fleet dataset into the digest.
func (s *System) FleetDigest() *FleetDigest {
	ds := s.FleetDataset()
	dur := s.FleetDurationSec()
	fcfg := netsim.DefaultFabricConfig()

	d := &FleetDigest{
		Scale:          s.Cfg.Scale.String(),
		Seed:           s.Cfg.Seed,
		Windows:        s.Cfg.FleetWindows,
		Matrix:         s.Cfg.FleetMatrix,
		TotalBytes:     ds.TotalBytes(),
		Locality:       map[string]float64{},
		LocalityByType: map[string]map[string]float64{},
		TrafficShare:   map[string]float64{},
		TierUtilMean:   map[string]float64{},
		EdgeLoad:       map[string]float64{},
	}
	for loc, v := range ds.LocalityShareAll() {
		d.Locality[loc.String()] = v
	}
	for _, ct := range topology.ClusterTypes {
		byLoc := map[string]float64{}
		for loc, v := range ds.LocalityShare(ct) {
			byLoc[loc.String()] = v
		}
		d.LocalityByType[ct.String()] = byLoc
	}
	for ct, v := range ds.TrafficShare() {
		d.TrafficShare[ct.String()] = v
	}
	for tier, sample := range analysis.Utilization(ds, s.Topo, dur, fcfg) {
		d.TierUtilMean[tier.String()] = sample.Mean()
	}
	for ct, v := range analysis.ClusterEdgeLoad(ds, s.Topo, dur, fcfg) {
		d.EdgeLoad[ct.String()] = v
	}
	minV, maxV, first := 0.0, 0.0, true
	for _, v := range ds.PerMinute() {
		if first {
			minV, maxV, first = v, v, false
			continue
		}
		minV, maxV = min(minV, v), max(maxV, v)
	}
	if minV > 0 {
		d.DiurnalSwing = maxV / minV
	}

	if hs := s.Topo.ClustersOfType(topology.ClusterHadoop); len(hs) > 0 {
		d.HadoopDiag = ds.RackDiag(s.Topo, hs[0])
	}
	if fs := s.Topo.ClustersOfType(topology.ClusterFrontend); len(fs) > 0 {
		d.FrontendDiag = ds.RackDiag(s.Topo, fs[0])
	}
	if card := ds.Cardinality(); card != nil {
		d.DistinctFlows = card.Flows()
		d.DistinctHosts = card.Hosts()
		d.DistinctRacks = card.Racks()
	}
	if len(s.fleetGaps) > 0 {
		cov := &CoverageDigest{
			TotalCells: s.fleetShardsPerWindow() * s.Cfg.FleetWindows,
			Gaps:       s.fleetGaps,
		}
		for _, g := range cov.Gaps {
			cov.GapCells += g.Cells
		}
		if cov.TotalCells > 0 {
			cov.GapFraction = float64(cov.GapCells) / float64(cov.TotalCells)
		}
		d.Coverage = cov
	}
	return d
}

// JSON renders the digest in its canonical byte-comparable form.
func (d *FleetDigest) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
