package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// The probe is a fixed piece of reference work that uses none of the
// repository's code. The loop runs it right before and right after every
// timed call, on as many goroutines as the calls keep busy, and scales the
// call's CPU time by the mean probe CPU time around it; set-up bursts are
// bracketed by a one-worker probe the same way. A shared machine's
// effective speed drifts by tens of percent over minutes (a neighbour's
// load on the same physical cores, caches or memory), stretching the CPU
// time of identical work; the probe sees the same drift, so the ratio
// keeps the program's cost and drops most of the machine's. The probe
// mixes the access patterns the workloads spend their time in: dependent
// reads over a table larger than the caches, random read-modify-writes
// over a table larger than a core's cache, sorting, hashing, and an event
// heap with indirect calls.
//
// Every probe buffer is mapped outside the Go heap and allocated once, so
// the probe neither triggers a garbage collection nor changes the heap
// size the collector paces the workload's collections by, and its memory
// is not part of the runtime-reported resident memory peak_rss_mib reads.

// probeRefCPU is the reference speed: the CPU seconds one worker's probe
// takes on the 2-core Xeon VM the benchmark was tuned on. It only sets the
// scale of the reported times, which read as if the machine always ran at
// that speed.
const probeRefCPU = 0.23

// Sizes of the probe's buffers: the shared DRAM table (64 MiB) exceeds the
// caches a core can count on; each worker's table (8 MiB) exceeds one
// core's L2 cache.
const (
	probeDRAMWords  = 1 << 23
	probeTableWords = 1 << 21
	probeHashSlots  = 1 << 17
)

// Per-worker operation counts of the probe's parts, together about
// 0.23 s of CPU on a 2-core Xeon VM. Most of it goes to the sorting,
// hashing and event-heap parts: their CPU time swings with the machine's
// speed about as much as the workloads' does, while dependent DRAM reads
// barely move.
const (
	probeDRAMOps  = 200_000
	probeMemOps   = 2_000_000
	probeSortKeys = 400_000
	probeEvents   = 300_000
)

// probeBuffers is one worker's probe state.
type probeBuffers struct {
	table []uint32
	keys  []uint64
	hash  []probeSlot
	heap  []probeEvent
}

var (
	probeOnce sync.Once
	probeDRAM []uint64
	probeBufs []*probeBuffers
)

// offHeap maps n zeroed elements of T outside the Go heap. T must hold no
// pointers. The mapping lives as long as the process.
func offHeap[T any](n int) []T {
	size := n * int(unsafe.Sizeof(*new(T)))
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("perfbench: mapping probe buffer: " + err.Error())
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n)
}

// probe runs the reference work once on each of workers goroutines and
// returns the CPU seconds it took, summed over their threads. Each
// goroutine holds its OS thread and reads that thread's CPU clock, so the
// garbage collector finishing a cycle of the call before, or returning its
// memory, on other threads is not billed to the probe.
func probe(workers int) float64 {
	probeOnce.Do(func() {
		probeDRAM = offHeap[uint64](probeDRAMWords)
		x := uint64(1)
		for i := range probeDRAM {
			x = lcg(x)
			probeDRAM[i] = x
		}
		for range workers {
			probeBufs = append(probeBufs, &probeBuffers{
				table: offHeap[uint32](probeTableWords),
				keys:  offHeap[uint64](probeSortKeys),
				hash:  offHeap[probeSlot](probeHashSlots),
				heap:  offHeap[probeEvent](probeEvents + probeEvents/2),
			})
		}
	})
	cpu := make([]float64, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			b := probeBufs[w%len(probeBufs)]
			c0 := threadCPUSeconds()
			s := probeChase(probeDRAM, probeDRAMOps, uint64(w))
			s += uint64(probeMem(b.table, probeMemOps))
			s += uint64(probeSortHash(b.keys, b.hash))
			s += uint64(probeEventLoop(b.heap, probeEvents))
			cpu[w] = threadCPUSeconds() - c0
			probeSink.Add(s)
		}()
	}
	wg.Wait()
	return sum(cpu)
}

// probeSink keeps the probe's results live so the compiler cannot drop
// the work.
var probeSink atomic.Uint64

// lcg advances a 64-bit linear congruential generator.
func lcg(x uint64) uint64 { return x*6364136223846793005 + 1442695040888963407 }

// probeChase does n reads of tab, each at an index that depends on the
// value read before.
func probeChase(tab []uint64, n int, seed uint64) uint64 {
	mask := uint64(len(tab) - 1)
	x := seed + 1
	var s uint64
	for range n {
		x = lcg(x)
		s += tab[(x>>30^s)&mask]
	}
	return s
}

// probeMem does n dependent read-modify-writes at pseudo-random indices of
// tab.
func probeMem(tab []uint32, n int) uint32 {
	mask := uint64(len(tab) - 1)
	x := uint64(12345)
	var s uint32
	for range n {
		x = lcg(x)
		j := (x >> 33) & mask
		s += tab[j]
		tab[j] = uint32(x) ^ s
	}
	return s
}

// probeSlot is one slot of the probe's open-addressing hash table.
type probeSlot struct {
	key, count uint64
}

// probeSortHash fills keys with pseudo-random values, sorts them, and
// counts their low 16 bits in an open-addressing hash table; it returns
// the number of distinct values counted.
func probeSortHash(keys []uint64, hash []probeSlot) int {
	x := uint64(99)
	for i := range keys {
		x = lcg(x)
		keys[i] = x >> 20
	}
	slices.Sort(keys)
	clear(hash)
	mask := uint64(len(hash) - 1)
	distinct := 0
	for _, v := range keys {
		k := v&0xffff + 1
		for i := (k * 0x9e3779b97f4a7c15) >> 40 & mask; ; i = (i + 1) & mask {
			if hash[i].key == k {
				hash[i].count++
				break
			}
			if hash[i].key == 0 {
				hash[i] = probeSlot{k, 1}
				distinct++
				break
			}
		}
	}
	return distinct
}

// probeEvent is one entry of the probe's event heap: a time, the index of
// its handler, and the handler's argument.
type probeEvent struct {
	t, arg  int64
	handler int
}

// probeHandlers are the event handlers, called indirectly like a
// simulator's callbacks.
var probeHandlers = [...]func(acc, arg int64) int64{
	func(acc, arg int64) int64 { return acc + arg },
	func(acc, arg int64) int64 { return acc ^ arg<<1 },
	func(acc, arg int64) int64 { return acc - arg>>1 },
}

// probeEventLoop schedules n events at pseudo-random times on a binary
// heap (built in h's storage) and runs them in time order; about a third
// of them schedule one more, up to n/2 in all.
func probeEventLoop(h []probeEvent, n int) int64 {
	h = h[:0]
	push := func(e probeEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[i].t >= h[p].t {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
	}
	pop := func() probeEvent {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			m := 2*i + 1
			if m >= last {
				break
			}
			if r := m + 1; r < last && h[r].t < h[m].t {
				m = r
			}
			if h[m].t >= h[i].t {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return top
	}
	x := uint64(7)
	var acc int64
	extra := 0
	for i := range n {
		x = lcg(x)
		push(probeEvent{int64(x >> 40), int64(i), i % len(probeHandlers)})
	}
	for len(h) > 0 {
		e := pop()
		acc = probeHandlers[e.handler](acc, e.arg)
		if acc%3 == 0 && extra < n/2 {
			extra++
			x = lcg(x)
			push(probeEvent{e.t + int64(x>>44), acc, int(x % uint64(len(probeHandlers)))})
		}
	}
	return acc
}
