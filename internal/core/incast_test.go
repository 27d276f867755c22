package core

import (
	"reflect"
	"testing"

	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/topology"
)

// closureIncast is ExtensionIncast as it was before it injected through
// typed runs: one At closure per packet, every header stamped 0, so the
// delay the sink accounted (delivery time minus header time) counted
// from the start of the burst. It is the oracle of ExtensionIncast.
func (s *System) closureIncast(senders []int, respBytes int, bufBytes int64) *IncastResult {
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
		var delayN int64 // the sink's old delay accounting
		var delaySum, delayMax float64
		fabric.Sink(web).OnPacket = func(p *netsim.Packet) {
			lastArrival = eng.Now()
			d := float64(eng.Now() - p.Hdr.Time)
			delayN, delaySum = delayN+1, delaySum+d
			if d > delayMax {
				delayMax = d
			}
		}

		// Every sender's full response enters the fabric at t=0, segmented
		// into MTU packets — the synchronized scatter-gather reply.
		for i := 0; i < n; i++ {
			src := caches.At(i)
			remaining := respBytes
			t := netsim.Time(0)
			for seq := 0; remaining > 0; seq++ {
				pl := remaining
				if pl > 1448 {
					pl = 1448
				}
				remaining -= pl
				hdr := packet.Header{
					Key: packet.FlowKey{
						Src: s.Topo.Addr(src), Dst: s.Topo.Addr(web),
						SrcPort: uint16(40000 + uint32(src)%20000), DstPort: 11211, Proto: packet.TCP,
					},
					Size: uint32(pl + 66),
				}
				at := t
				eng.At(at, func() { fabric.Inject(hdr) })
				t += 1200 // line-rate-ish pacing within a sender
			}
		}
		eng.Run(100 * netsim.Millisecond)

		sink := fabric.Sink(web)
		meanDelay := 0.0
		if delayN > 0 {
			meanDelay = delaySum / float64(delayN)
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

// TestIncastMatchesClosureSchedule requires ExtensionIncast's sweep to
// equal its closure form's point for point, at fan-ins from one sender
// to more than the cluster has, with a partial last segment and two
// buffer depths.
func TestIncastMatchesClosureSchedule(t *testing.T) {
	s := quickSys(t)
	for _, buf := range []int64{64 << 10, 256 << 10} {
		senders := []int{1, 3, 8, 1000}
		want := s.closureIncast(senders, 50_000, buf)
		got := s.ExtensionIncast(senders, 50_000, buf)
		if want.Points[2].Dropped == 0 && buf == 64<<10 {
			t.Fatalf("no drops at 8 senders into %d bytes", buf)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("buffer %d: %+v, want %+v", buf, got.Points, want.Points)
		}
	}
}
