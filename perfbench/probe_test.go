package main

import "testing"

// TestProbeAllocatesNothing holds the probe to its contract: a collection
// started inside it would bill it for marking the workload's heap.
func TestProbeAllocatesNothing(t *testing.T) {
	if probe(1) <= 0 {
		t.Fatal("probe reported no CPU time")
	}
	b := probeBufs[0]
	allocs := testing.AllocsPerRun(3, func() {
		probeChase(probeDRAM, 1000, 0)
		probeMem(b.table, 1000)
		probeSortHash(b.keys, b.hash)
		probeEventLoop(b.heap, probeEvents)
	})
	if allocs != 0 {
		t.Errorf("probe parts allocate %v objects per run, want 0", allocs)
	}
	if d := probeSortHash(b.keys, b.hash); d <= 0 || d > 1<<16 {
		t.Errorf("probeSortHash counted %d distinct keys", d)
	}
}

func TestAtRefSpeed(t *testing.T) {
	if got := atRefSpeed(2, 2*probeRefCPU); !near(got, 1) {
		t.Errorf("atRefSpeed at half the reference speed = %v, want 1", got)
	}
	if got := atRefSpeed(2, 0); got != 0 {
		t.Errorf("atRefSpeed without a probe = %v, want 0", got)
	}
}
