package core

import (
	"fmt"
	"slices"
	"strings"

	"fbdcnet/internal/analysis"
	"fbdcnet/internal/netsim"
	"fbdcnet/internal/packet"
	"fbdcnet/internal/services"
	"fbdcnet/internal/topology"
	"fbdcnet/internal/workload"
)

// AblationResult compares one design mechanism ON (production behaviour)
// versus OFF along the metric that mechanism is responsible for.
type AblationResult struct {
	Name    string
	Metric  string
	On, Off float64
	// HigherIsBetter documents the expected direction: the paper's
	// mechanism should win.
	HigherIsBetter bool
}

// Render prints the comparison.
func (a *AblationResult) Render() string {
	verdict := "mechanism effective"
	if (a.HigherIsBetter && a.On < a.Off) || (!a.HigherIsBetter && a.On > a.Off) {
		verdict = "UNEXPECTED: mechanism ineffective at this scale/seed"
	}
	return fmt.Sprintf("Ablation %-22s %s: on=%.3f off=%.3f (%s)",
		a.Name, a.Metric, a.On, a.Off, verdict)
}

// ablationTrace runs a single-consumer trace with modified params.
func (s *System) ablationTrace(role topology.Role, p services.Params, seconds int, sinks ...workload.Collector) {
	host := s.Monitored(role)
	tr := services.NewTrace(s.Pick, host, s.Cfg.Seed^0xab1a, p, workload.Fanout(sinks))
	tr.Run(netsim.Time(seconds) * netsim.Second)
}

// AblationLoadBalancing measures Fig. 8c tightness (fraction of per-rack
// per-second rates within 2× of the rack median at a cache follower) with
// request load balancing on vs off.
func (s *System) AblationLoadBalancing() *AblationResult {
	run := func(disable bool) float64 {
		p := s.Cfg.Params
		p.DisableLoadBalancing = disable
		host := s.Monitored(topology.RoleCacheFollower)
		rs := analysis.NewRateSeries(s.Topo, host)
		rs.Filter = func(d topology.HostID) bool { return s.Topo.HostRole(d) == topology.RoleWeb }
		s.ablationTrace(topology.RoleCacheFollower, p, s.Cfg.ShortTraceSec/2, workload.CollectorFunc(rs.Packet))
		return rs.FracWithinFactor(2)
	}
	return &AblationResult{
		Name:           "load-balancing",
		Metric:         "frac per-rack rates within 2x of median",
		On:             run(false),
		Off:            run(true),
		HigherIsBetter: true,
	}
}

// AblationConnectionPooling measures the SYN arrival rate at a cache
// follower with pooling on vs off: pooling keeps flow churn low, the
// precondition for the long-lived flows of Fig. 7.
func (s *System) AblationConnectionPooling() *AblationResult {
	run := func(disable bool) float64 {
		p := s.Cfg.Params
		p.DisableConnectionPooling = disable
		host := s.Monitored(topology.RoleCacheFollower)
		arr := analysis.NewArrivals(s.Topo.Addr(host))
		sec := s.Cfg.ShortTraceSec / 4
		if sec < 2 {
			sec = 2
		}
		s.ablationTrace(topology.RoleCacheFollower, p, sec, workload.CollectorFunc(arr.Packet))
		return float64(arr.SYNCount()) / float64(sec)
	}
	return &AblationResult{
		Name:           "connection-pooling",
		Metric:         "SYNs per second (lower = pooled)",
		On:             run(false),
		Off:            run(true),
		HigherIsBetter: false,
	}
}

// AblationHotObjectMitigation measures the fraction of elevated seconds
// (rate >1.5× median) at a cache follower with mitigation on vs off —
// the §5.2 mechanism that keeps offered load per second roughly constant.
func (s *System) AblationHotObjectMitigation() *AblationResult {
	run := func(disable bool) float64 {
		p := s.Cfg.Params
		p.DisableHotObjectMitigation = disable
		p.HotObjectPerSec = 0.15
		host := s.Monitored(topology.RoleCacheFollower)
		addr := s.Topo.Addr(host)
		sec := s.Cfg.ShortTraceSec
		perSec := make([]float64, sec)
		s.ablationTrace(topology.RoleCacheFollower, p, sec, workload.CollectorFunc(func(h packet.Header) {
			if h.Key.Src != addr {
				return
			}
			i := int(h.Time / int64(netsim.Second))
			if i < len(perSec) {
				perSec[i] += float64(h.Size)
			}
		}))
		// Baseline is the 10th-percentile second: with mitigation off, hot
		// periods can cover most of the trace, so the median would hide
		// them.
		base := percentileOf(perSec, 0.1)
		if base == 0 {
			return 0
		}
		n := 0
		for _, v := range perSec {
			if v > 1.5*base {
				n++
			}
		}
		return float64(n) / float64(len(perSec))
	}
	return &AblationResult{
		Name:           "hot-object-mitigation",
		Metric:         "frac elevated seconds (lower = mitigated)",
		On:             run(false),
		Off:            run(true),
		HigherIsBetter: false,
	}
}

// AblationRackPlacement measures destination concentration at a Web
// server with uniform placement vs partitioned users (§4.3's
// counterfactual): the Gini-like top-10% share of per-host bytes.
func (s *System) AblationRackPlacement() *AblationResult {
	run := func(partition bool) float64 {
		p := s.Cfg.Params
		p.PartitionUsers = partition
		host := s.Monitored(topology.RoleWeb)
		fl := analysis.NewFlows(s.Topo, host)
		s.ablationTrace(topology.RoleWeb, p, s.Cfg.ShortTraceSec/2, workload.CollectorFunc(fl.Packet))
		_, perHost := fl.PerHostSizeCDF()
		if perHost.N() == 0 {
			return 0
		}
		// Share of bytes owned by the top decile of destinations.
		vals := perHost.Values()
		total, top := 0.0, 0.0
		cut := len(vals) - len(vals)/10
		for i, v := range vals {
			total += v
			if i >= cut {
				top += v
			}
		}
		if total == 0 {
			return 0
		}
		return top / total
	}
	return &AblationResult{
		Name:           "uniform-placement",
		Metric:         "top-decile destination byte share (lower = spread)",
		On:             run(false),
		Off:            run(true),
		HigherIsBetter: false,
	}
}

// Ablations runs the full ablation suite.
func (s *System) Ablations() []*AblationResult {
	return []*AblationResult{
		s.AblationLoadBalancing(),
		s.AblationConnectionPooling(),
		s.AblationHotObjectMitigation(),
		s.AblationRackPlacement(),
		s.AblationFaultResilience(),
	}
}

// RenderAblations prints the suite.
func RenderAblations(rs []*AblationResult) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// percentileOf returns the p-quantile of vs (0 for empty).
func percentileOf(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	c := slices.Clone(vs)
	slices.Sort(c)
	i := int(p * float64(len(c)-1))
	return c[i]
}
