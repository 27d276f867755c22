package stats_test

import (
	"fmt"

	"fbdcnet/internal/stats"
)

// ExampleSample shows the percentile workflow used by every figure
// reproduction.
func ExampleSample() {
	s := stats.NewSample(0)
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	fmt.Printf("p50=%.1f p90=%.1f\n", s.Quantile(0.5), s.Quantile(0.9))
	// Output: p50=50.5 p90=90.1
}

// ExampleTimeSeries bins event volumes per second, the substrate of the
// Figure 4 locality series.
func ExampleTimeSeries() {
	ts := stats.NewTimeSeries(0, 1.0)
	ts.Add(0.2, 100)
	ts.Add(0.7, 50)
	ts.Add(1.5, 30)
	fmt.Println(ts.Bins())
	// Output: [150 30]
}
