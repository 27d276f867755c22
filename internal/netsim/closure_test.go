package netsim

import (
	"math/rand"
	"reflect"
	"testing"

	"fbdcnet/internal/packet"
	"fbdcnet/internal/topology"
)

// This file keeps the fabric's timers as they were before typed events:
// every fault transition, queue-sampling tick and retransmission a
// closure scheduled on the engine. They are the draw-for-draw oracles of
// ApplyFaults, StartQueueSampling, SampleOccupancy and the retransmit
// timer (TestFabricEventsMatchClosureSchedule).

// closureFaults is ApplyFaults with one At closure per transition. It
// also installs the closure form of the fault-drop hook, whose
// retransmission timer is a closure; packets refused at injection (a
// dead source, or no live post) still take the typed timer.
func closureFaults(f *Fabric, sched *FaultSchedule) {
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
	for _, sw := range f.allSwitches() {
		sw.OnFaultDrop = func(p *Packet) {
			f.faults.FaultDrops++
			hdr, tries := p.Hdr, p.Tries
			if tries+1 >= MaxTries {
				f.lose(hdr)
				return
			}
			f.Eng.At(f.Eng.Now()+RetransmitRTO<<tries, func() {
				f.faults.Retransmits++
				f.inject(hdr, tries+1)
			})
		}
	}
}

// closureTicker is the engine's ticker as a chain of At closures.
func closureTicker(e *Engine, interval, until Time, fn func()) {
	var tick func()
	tick = func() {
		fn()
		if e.Now()+interval <= until {
			e.At(e.Now()+interval, tick)
		}
	}
	e.At(e.Now()+interval, tick)
}

// closureQueueSampling is StartQueueSampling with a closure per tick.
func closureQueueSampling(f *Fabric, interval, until Time) {
	for _, sw := range f.allSwitches() {
		os := f.telem.NewOccSeries(sw.telemID, len(sw.ports))
		closureTicker(f.Eng, interval, until, func() {
			row := os.Extend(int64(f.Eng.Now()))
			for pi, pt := range sw.ports {
				row[pi] = pt.queued
			}
		})
	}
}

// TestFabricEventsMatchClosureSchedule runs runTwoWindows' faulted,
// telemetered fabric (csw-down and link-flap schedules, every port's
// queue sampled) in both ECMP modes once with the fabric's typed events
// and once with their closure forms, and requires every observable
// outcome to be identical. Both arms also sample two RSWs' occupancy
// with SampleOccupancy, or its closure form, at an interval that ties
// with the queue-sampling ticks, and must record the same samples.
func TestFabricEventsMatchClosureSchedule(t *testing.T) {
	topo := topology.MustBuild(topology.Preset(topology.ScaleTiny))
	// On a 1 ms grid, with half the packets sent to one host: bursts
	// that overflow RSW buffers.
	r := rand.New(rand.NewSource(3))
	hot := topo.Racks[2].Host(0)
	hdrs := make([]packet.Header, 5000)
	for i := range hdrs {
		src := topo.Racks[r.Intn(2)].Host(r.Intn(int(topo.Racks[0].NumHosts)))
		dst := topology.HostID(r.Intn(topo.NumHosts()))
		if r.Intn(2) == 0 {
			dst = hot
		}
		hdrs[i] = packet.Header{
			Time: Time(r.Intn(int(injectHorizon/Millisecond))) * Millisecond,
			Key: packet.FlowKey{
				Src: topo.Addr(src), Dst: topo.Addr(dst),
				SrcPort: uint16(1000 + r.Intn(64)), DstPort: 80, Proto: packet.TCP,
			},
			Size: uint32(64 + r.Intn(1437)),
		}
	}
	packet.SortByTime(hdrs)
	type sample struct {
		rack int
		at   Time
		occ  int64
	}
	for _, noReroute := range []bool{false, true} {
		var samples [2][]sample
		run := func(closures bool) fabricOutcome {
			arm := &samples[0]
			if closures {
				arm = &samples[1]
			}
			return runTwoWindows(t, topo, noReroute, closures, injectHorizon/2, func(f *Fabric, offset Time) {
				f.InjectSorted(hdrs, offset)
				for rack := 0; rack < 2; rack++ {
					fn := func(at Time, occ int64) { *arm = append(*arm, sample{rack, at, occ}) }
					if closures {
						sw := f.RSW(rack)
						closureTicker(f.Eng, 50*Microsecond, offset+injectHorizon, func() { fn(f.Eng.Now(), sw.Occupancy()) })
					} else {
						SampleOccupancy(f.Eng, f.RSW(rack), 50*Microsecond, offset+injectHorizon, fn)
					}
				}
			})
		}
		want := run(true)
		got := run(false)
		compareOutcomes(t, noReroute, got, want)
		if len(samples[1]) == 0 || !reflect.DeepEqual(samples[0], samples[1]) {
			t.Fatalf("noReroute=%v: %d occupancy samples, want the closure form's %d", noReroute, len(samples[0]), len(samples[1]))
		}
	}
}
