package obs

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Live exposition: Serve binds an HTTP listener and exports the registry
// two ways — Prometheus text at /metrics and a plain-text progress page
// at / — both reading only folded state under the registry mutex, so
// scraping a live run races with nothing and perturbs nothing.

// Server is a running metrics endpoint.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan struct{} // closed when the accept loop goroutine returns
}

// Serve starts the metrics endpoint on addr (host:port; port 0 picks a
// free one). The returned server reports the bound address via Addr.
func Serve(addr string, r *Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listening on %s: %v", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, r.PrometheusText())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" && req.URL.Path != "/progress" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, r.ProgressText())
	})
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // Serve returns on Close/Shutdown
	}()
	return s, nil
}

// Addr returns the bound listen address (with the resolved port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint and waits until no handler can still be
// reading the registry: Shutdown drains in-flight scrapes (bounded by a
// short deadline, after which stragglers are cut), and the accept-loop
// goroutine is joined before returning. Without the drain a scrape
// racing a test's teardown could touch the registry after the test
// freed it — the race the serve-mode lifecycle tests pin.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if err != nil {
		err = s.srv.Close()
	}
	<-s.done
	return err
}

// PrometheusText renders the registry in the Prometheus text exposition
// format: registered counters, labeled series, gauges, power-of-two
// histograms, span timings, and progress gauges.
func (r *Registry) PrometheusText() string {
	var b strings.Builder
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()

	for i, name := range r.counterNames {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			name, r.counterHelp[i], name, name, r.counters[i])
	}

	// Labeled series, grouped by family so # TYPE appears once each.
	byFamily := map[string][]string{}
	var famOrder []string
	for _, s := range r.seriesOrder {
		fam := s
		if i := strings.IndexByte(s, '{'); i >= 0 {
			fam = s[:i]
		}
		if _, ok := byFamily[fam]; !ok {
			famOrder = append(famOrder, fam)
		}
		byFamily[fam] = append(byFamily[fam], s)
	}
	for _, fam := range famOrder {
		fmt.Fprintf(&b, "# TYPE %s counter\n", fam)
		series := byFamily[fam]
		sort.Strings(series)
		for _, s := range series {
			fmt.Fprintf(&b, "%s %g\n", s, r.series[s])
		}
	}

	for _, g := range r.gaugeOrder {
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %g\n", g, g, r.gauges[g])
	}

	for i, name := range r.histNames {
		h := &r.hists[i]
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s histogram\n", name, r.histHelp[i], name)
		cum := int64(0)
		top := 0
		for bkt := histBuckets - 1; bkt > 0; bkt-- {
			if h.buckets[bkt] != 0 {
				top = bkt
				break
			}
		}
		for bkt := 0; bkt <= top; bkt++ {
			cum += h.buckets[bkt]
			fmt.Fprintf(&b, "%s_bucket{le=\"%d\"} %d\n", name, bucketBound(bkt), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			name, h.count, name, h.sum, name, h.count)
	}

	for _, name := range r.spanOrder {
		st := r.spans[name]
		fmt.Fprintf(&b, "fbdcnet_stage_wall_seconds_total{stage=%q} %g\n", name, float64(st.wallNs)/1e9)
		fmt.Fprintf(&b, "fbdcnet_stage_runs_total{stage=%q} %d\n", name, st.count)
	}

	for _, name := range r.progOrder {
		st := r.progress[name]
		fmt.Fprintf(&b, "fbdcnet_progress_done{task=%q} %d\nfbdcnet_progress_total{task=%q} %d\n",
			name, st.done, name, st.total)
	}
	return b.String()
}

// ProgressText renders the plain-text live progress page: per-task
// completion (fleet windows, prewarm bundles, suite sections) and the
// span ledger with running counts.
func (r *Registry) ProgressText() string {
	if r == nil {
		return "observability disabled\n"
	}
	var b strings.Builder
	r.mu.Lock()
	defer r.mu.Unlock()
	fmt.Fprintf(&b, "fbdcnet live run — up %.1fs\n\nprogress:\n", time.Since(r.start).Seconds())
	if len(r.progOrder) == 0 {
		b.WriteString("  (none yet)\n")
	}
	for _, name := range r.progOrder {
		st := r.progress[name]
		bar := renderBar(st.done, st.total, 24)
		fmt.Fprintf(&b, "  %-20s %6d/%-6d %s\n", name, st.done, st.total, bar)
	}
	b.WriteString("\nstages:\n")
	if len(r.spanOrder) == 0 {
		b.WriteString("  (none yet)\n")
	}
	for _, name := range r.spanOrder {
		st := r.spans[name]
		state := "done"
		if st.running > 0 {
			state = "running"
		}
		fmt.Fprintf(&b, "  %-28s %-7s runs=%-5d wall=%8.2fs cpu=%8.2fs\n",
			name, state, st.count, float64(st.wallNs)/1e9, float64(st.cpuNs)/1e9)
	}
	for _, name := range r.panelOrder {
		fmt.Fprintf(&b, "\n%s:\n%s", name, r.panels[name])
	}
	return b.String()
}

// renderBar draws an ASCII completion bar.
func renderBar(done, total int64, width int) string {
	if total <= 0 {
		return ""
	}
	fill := int(done * int64(width) / total)
	if fill > width {
		fill = width
	}
	return "[" + strings.Repeat("#", fill) + strings.Repeat(".", width-fill) + "]"
}
