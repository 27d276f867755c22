package analysis

// TableStats describes one open-addressing table inside an analysis for
// the observability layer: how many entries it holds, its slot capacity,
// and how often it has rehashed over its lifetime. A table whose Grows
// keeps climbing in steady state is under-sized for the workload.
type TableStats struct {
	Name  string // table identifier, e.g. "flows.idx"
	Rows  int    // live entries at snapshot time
	Cap   int    // slot-array capacity
	Grows int    // cumulative rehash count (survives Reset)
}

// LoadPct returns the table's load factor as a percentage (0 when the
// table has never been grown).
func (s TableStats) LoadPct() float64 {
	if s.Cap == 0 {
		return 0
	}
	return 100 * float64(s.Rows) / float64(s.Cap)
}

// TableStats reports the flow assembler's index table.
func (fl *Flows) TableStats() []TableStats {
	return []TableStats{
		{Name: "flows.idx", Rows: fl.idx.Len(), Cap: fl.idx.Cap(), Grows: fl.idx.Grows()},
	}
}

// TableStats reports the tracker's own tables in its group: its level's
// table at its bin ("heavy.cur") and, at the group's coarsest bin, its
// level's per-second table ("heavy.sec"), so a group reports each table
// once. Rows are a point-in-time residue (tables Reset on every roll);
// Cap and Grows carry the steady-state sizing signal.
func (hh *HeavyHitters) TableStats() []TableStats {
	g := hh.g
	cur := &g.tabs[hh.level][hh.i]
	ts := []TableStats{{Name: "heavy.cur", Rows: cur.Len(), Cap: cur.Cap(), Grows: cur.Grows()}}
	if hh.i == len(g.bins)-1 {
		sec := &g.sec[hh.level]
		ts = append(ts, TableStats{Name: "heavy.sec", Rows: sec.Len(), Cap: sec.Cap(), Grows: sec.Grows()})
	}
	return ts
}

// TableStats reports the per-window accumulators.
func (c *Concurrency) TableStats() []TableStats {
	return []TableStats{
		{Name: "concurrency.racks", Rows: c.racks.Len(), Cap: c.racks.Cap(), Grows: c.racks.Grows()},
		{Name: "concurrency.flows", Rows: c.flows.Len(), Cap: c.flows.Cap(), Grows: c.flows.Grows()},
		{Name: "concurrency.hosts", Rows: c.hosts.Len(), Cap: c.hosts.Cap(), Grows: c.hosts.Grows()},
	}
}
