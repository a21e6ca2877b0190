package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// liveHeap is the heap in use, exact right after a forced GC.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// runtimeDelta holds process-wide runtime counters, or their change over a
// phase.
type runtimeDelta struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64 // seconds, the runtime's estimate
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{allocBytes: v(0), gcCycles: v(1), gcCPU: v(2)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
	}
}

func (a runtimeDelta) add(b runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocBytes: a.allocBytes + b.allocBytes,
		gcCycles:   a.gcCycles + b.gcCycles,
		gcCPU:      a.gcCPU + b.gcCPU,
	}
}

// probeSink keeps the probe's result live so the loop is not optimized away.
var probeSink uint64

// probe is a fixed CPU yardstick that calls nothing of the program: a
// xorshift walk over a 256 KiB table, the same work on every run. Its time
// tells host drift from a regression; it never normalizes another metric.
func probe() float64 {
	const words = 32 << 10
	table := make([]uint64, words)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[i] = x
	}
	t0 := time.Now()
	acc := uint64(0)
	for i := 0; i < 6_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += table[x%words] ^ uint64(i)
	}
	probeSink += acc
	return ms(time.Since(t0))
}

// probes runs the yardstick k times and returns the median.
func probes(k int) float64 {
	v := make([]float64, k)
	for i := range v {
		v[i] = probe()
	}
	return median(v)
}

// quantile is the nearest-rank q-quantile of xs (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(q*float64(len(xs))+0.9999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// windowMedian splits xs, in order, into k consecutive windows of nearly
// equal size and returns the median of the windows' means.
func windowMedian(xs []float64, k int) float64 {
	k = min(k, len(xs))
	means := make([]float64, k)
	for i := range means {
		lo, hi := i*len(xs)/k, (i+1)*len(xs)/k
		sum := 0.0
		for _, x := range xs[lo:hi] {
			sum += x
		}
		means[i] = sum / float64(hi-lo)
	}
	return median(means)
}

// median is the middle value of xs, the mean of the two middle values for
// an even count (xs is sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
