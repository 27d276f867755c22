package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum returns the total of xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// maxOf returns the largest of xs; 0 for an empty slice.
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentiles are the candidate tail ranks, highest first.
var tailPercentiles = []float64{99.9, 99.5, 99, 98, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile that still
// leaves at least ten samples beyond it in a sample of n, so the tail is
// never a single outlier. Samples of fewer than 20 report the median.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 50
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// cpuSeconds returns the user plus system CPU time this process has
// consumed.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// clockThreadCPUTimeID is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTimeID = 3

// threadCPUSeconds returns the CPU time the calling OS thread has
// consumed, in nanosecond resolution. The caller must hold the thread with
// runtime.LockOSThread for two readings to measure one piece of work.
func threadCPUSeconds() float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// residentSample reads the memory the Go runtime has mapped and not
// returned to the OS — the process's resident heap, stacks and runtime
// structures, without reading anything outside the process.
var residentSample = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

func residentMiB() float64 {
	metrics.Read(residentSample)
	var v [2]uint64
	for i, s := range residentSample {
		if s.Value.Kind() == metrics.KindUint64 {
			v[i] = s.Value.Uint64()
		}
	}
	return float64(v[0]-v[1]) / (1 << 20)
}

// peakSampler polls residentMiB every millisecond on its own goroutine
// and keeps the maximum.
type peakSampler struct {
	done chan struct{}
	peak chan float64
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{done: make(chan struct{}), peak: make(chan float64)}
	go func() {
		peak := residentMiB()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, residentMiB())
			case <-p.done:
				p.peak <- max(peak, residentMiB())
				return
			}
		}
	}()
	return p
}

// stop ends sampling and returns the peak in MiB.
func (p *peakSampler) stop() float64 {
	close(p.done)
	return <-p.peak
}

// allocSample reads the cumulative heap-object allocation count. The
// runtime folds per-P counts in when an allocation span is refilled, so a
// phase that allocates nothing reads exactly zero while allocating phases
// are exact to within one span of objects — fine for per-cell and
// per-packet averages over thousands of operations, and cheap enough
// (no stop-the-world) to read at every phase boundary.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func allocObjects() uint64 {
	metrics.Read(allocSample)
	if allocSample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return allocSample[0].Value.Uint64()
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }
