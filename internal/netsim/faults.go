package netsim

import (
	"fmt"
	"sort"

	"fbdcnet/internal/packet"
	"fbdcnet/internal/rng"
	"fbdcnet/internal/topology"
)

// Fault injection for the simulated fabric. The 4-post Clos of §3.1
// exists to survive link and switch failures; this file makes those
// failures happen deterministically so the locality and heavy-hitter
// analyses can be exercised under degraded topology.
//
// Determinism contract: a FaultSchedule is a pure function of
// (scenario, topology, focus host, seed, horizon) — element choices and
// fault times come from rng.NewKeyed streams, never from wall clock or
// scheduling order — and fault/recovery transitions run as ordinary
// engine events. Fault runs therefore compose with the parallel
// experiment engine: worker count cannot move a single fault.

// FaultEvent fails one fabric element at At and recovers it at RecoverAt
// (no recovery within the run if RecoverAt <= At).
type FaultEvent struct {
	At        Time
	RecoverAt Time
	Elem      topology.Element
}

// FaultSchedule is a deterministic list of fault events, sorted by onset
// time.
type FaultSchedule struct {
	Scenario string
	Seed     uint64
	Events   []FaultEvent
}

// FaultScenarios lists the built-in named scenarios, in the order the
// -faults flag documents them.
func FaultScenarios() []string {
	return []string{ScenarioLinkFlap, ScenarioCSWDown, ScenarioRackDrain, ScenarioFCDown}
}

// Built-in fault scenario names.
const (
	// ScenarioLinkFlap repeatedly fails and recovers one RSW uplink of
	// the focus rack — the flapping-optic failure mode.
	ScenarioLinkFlap = "link-flap"
	// ScenarioCSWDown takes one of the focus cluster's four CSWs down for
	// most of the run: the headline 4-post survivability case.
	ScenarioCSWDown = "csw-down"
	// ScenarioRackDrain fails the focus rack's RSW outright, draining the
	// rack: its hosts lose all connectivity until recovery.
	ScenarioRackDrain = "rack-drain"
	// ScenarioFCDown fails one Fat Cat post of the focus datacenter,
	// degrading inter-cluster and inter-datacenter paths.
	ScenarioFCDown = "fc-down"
)

// scenarioKey folds a scenario name into a key for rng.NewKeyed so each
// scenario draws from its own decorrelated stream (FNV-1a).
func scenarioKey(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// NewFaultSchedule builds the deterministic fault schedule for a named
// scenario over a run of the given horizon. The focus host anchors the
// scenario to the topology region carrying the monitored traffic (its
// rack, cluster, and datacenter). Unknown scenario names are an error;
// the empty name yields an empty schedule.
func NewFaultSchedule(scenario string, topo *topology.Topology, focus topology.HostID, seed uint64, horizon Time) (*FaultSchedule, error) {
	s := &FaultSchedule{Scenario: scenario, Seed: seed}
	if scenario == "" {
		return s, nil
	}
	h := topo.Host(focus)
	r := rng.NewKeyed(seed, scenarioKey(scenario), uint64(focus))
	switch scenario {
	case ScenarioLinkFlap:
		post := r.Intn(topology.PostsPerCluster)
		elem := topology.Element{Kind: topology.ElemRSWUplink, A: h.Rack, B: post}
		// Six flaps, each confined to its own eighth of the horizon so
		// down periods never overlap: jittered onset, short outage.
		const flaps = 6
		slot := horizon / (flaps + 2)
		for i := 0; i < flaps; i++ {
			start := Time(i+1)*slot + Time(r.Intn(int(slot/2)))
			s.Events = append(s.Events, FaultEvent{
				At: start, RecoverAt: start + slot/4, Elem: elem,
			})
		}
	case ScenarioCSWDown:
		post := r.Intn(topology.PostsPerCluster)
		s.Events = append(s.Events, FaultEvent{
			At:        horizon / 10,
			RecoverAt: horizon * 7 / 10,
			Elem:      topology.Element{Kind: topology.ElemCSW, A: h.Cluster, B: post},
		})
	case ScenarioRackDrain:
		s.Events = append(s.Events, FaultEvent{
			At:        horizon / 5,
			RecoverAt: horizon / 2,
			Elem:      topology.Element{Kind: topology.ElemRSW, A: h.Rack},
		})
	case ScenarioFCDown:
		post := r.Intn(topology.PostsPerCluster)
		s.Events = append(s.Events, FaultEvent{
			At:        horizon / 10,
			RecoverAt: horizon * 7 / 10,
			Elem:      topology.Element{Kind: topology.ElemFC, A: h.Datacenter, B: post},
		})
	default:
		return nil, fmt.Errorf("netsim: unknown fault scenario %q (have %v)", scenario, FaultScenarios())
	}
	for _, ev := range s.Events {
		if !topo.ValidElement(ev.Elem) {
			return nil, fmt.Errorf("netsim: scenario %q produced invalid element %v", scenario, ev.Elem)
		}
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
	return s, nil
}

// FaultStats aggregates the fault layer's packet accounting for one run.
type FaultStats struct {
	// FaultEvents and Recoveries count executed down/up transitions.
	FaultEvents int64 `json:"fault_events"`
	Recoveries  int64 `json:"recoveries"`
	// ReroutedPkts/Bytes count packets whose ECMP hash preferred a dead
	// path and that were re-hashed onto a surviving post at injection.
	ReroutedPkts  int64 `json:"rerouted_pkts"`
	ReroutedBytes int64 `json:"rerouted_bytes"`
	// FaultDrops counts packets lost mid-flight to a down switch or link
	// (each may be retransmitted); Retransmits counts re-injections.
	FaultDrops  int64 `json:"fault_drops"`
	Retransmits int64 `json:"retransmits"`
	// LostPkts/Bytes count packets abandoned after MaxTries attempts —
	// lost forever. LostByLocality splits them by src→dst locality tier.
	LostPkts       int64                               `json:"lost_pkts"`
	LostBytes      int64                               `json:"lost_bytes"`
	LostByLocality [topology.InterDatacenter + 1]int64 `json:"lost_by_locality"`
}

// Retransmission model: a dropped packet is re-injected RetransmitRTO
// after the drop (doubling per attempt, a simplified TCP RTO backoff) up
// to MaxTries total attempts, after which it is lost forever.
const (
	RetransmitRTO = 2 * Millisecond
	MaxTries      = 5
)

// ApplyFaults schedules every transition of sched as engine events. Call
// once per run, before Engine.Run; counters reset with the fabric.
func (f *Fabric) ApplyFaults(sched *FaultSchedule) {
	if sched == nil {
		return
	}
	for _, ev := range sched.Events {
		elem := ev.Elem
		f.Eng.At(ev.At, func() {
			f.faults.FaultEvents++
			f.SetElementDown(elem, true)
		})
		if ev.RecoverAt > ev.At {
			f.Eng.At(ev.RecoverAt, func() {
				f.faults.Recoveries++
				f.SetElementDown(elem, false)
			})
		}
	}
}

// Faults returns a snapshot of the fault-layer counters.
func (f *Fabric) Faults() FaultStats { return f.faults }

// SetElementDown fails or recovers one named element immediately. It is
// idempotent: setting an element to its current state is a no-op.
func (f *Fabric) SetElementDown(e topology.Element, down bool) {
	if !f.Topo.ValidElement(e) {
		panic(fmt.Sprintf("netsim: fault on invalid element %v", e))
	}
	switch e.Kind {
	case topology.ElemRSW:
		if f.rswDown[e.A] == down {
			return
		}
		f.rswDown[e.A] = down
		f.rsws[e.A].SetDown(down)
	case topology.ElemCSW:
		if f.cswDown[e.A][e.B] == down {
			return
		}
		f.cswDown[e.A][e.B] = down
		f.csws[e.A][e.B].SetDown(down)
	case topology.ElemFC:
		if f.fcDown[e.A][e.B] == down {
			return
		}
		f.fcDown[e.A][e.B] = down
		f.fcs[e.A][e.B].SetDown(down)
	case topology.ElemRSWUplink:
		if f.uplinkDown[e.A][e.B] == down {
			return
		}
		f.uplinkDown[e.A][e.B] = down
		// Both directions of the pair: RSW→CSW and CSW→RSW.
		cl := f.Topo.Racks[e.A].Cluster
		f.rsws[e.A].Port(f.rswUpPort[e.A][e.B]).SetDown(down)
		f.csws[cl][e.B].Port(f.cswDownPort[cl][e.B][f.rackPosInCl[e.A]]).SetDown(down)
	case topology.ElemHostLink:
		if f.hostLinkDown[e.A] == down {
			return
		}
		f.hostLinkDown[e.A] = down
		rack := f.Topo.HostRack(topology.HostID(e.A))
		f.rsws[rack].Port(f.hostPort[e.A]).SetDown(down)
	}
	if down {
		f.faultsActive++
	} else {
		f.faultsActive--
	}
}

// handleFaultDrop is installed as every switch's OnFaultDrop hook: it
// accounts the loss and schedules a retransmission (or gives the packet
// up for lost after MaxTries attempts).
func (f *Fabric) handleFaultDrop(p *Packet) {
	f.faults.FaultDrops++
	f.scheduleRetry(p.Hdr, p.Tries)
}

// scheduleRetry re-injects hdr after an exponentially backed-off RTO, or
// declares it lost forever once the attempt budget is spent.
func (f *Fabric) scheduleRetry(hdr packet.Header, tries uint8) {
	if tries+1 >= MaxTries {
		f.lose(hdr)
		return
	}
	rto := RetransmitRTO << tries
	f.Eng.After(rto, func() {
		f.faults.Retransmits++
		f.inject(hdr, tries+1)
	})
}

// lose records a packet abandoned by the retransmission budget.
func (f *Fabric) lose(hdr packet.Header) {
	f.faults.LostPkts++
	f.faults.LostBytes += int64(hdr.Size)
	src, srcOK := f.Topo.HostByAddr(hdr.Key.Src)
	dst, dstOK := f.Topo.HostByAddr(hdr.Key.Dst)
	if srcOK && dstOK {
		f.faults.LostByLocality[f.Topo.Locality(src, dst)]++
	}
}
