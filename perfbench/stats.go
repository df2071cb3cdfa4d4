package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the nearest-rank p-quantile (0 < p <= 1) of xs: the
// ceil(p*n)-th smallest value, 0 when xs is empty. Nearest rank never
// interpolates, so a reported p99 is always a latency some batch or
// order actually saw. It sorts a copy.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(n))) - 1
	return s[min(max(i, 0), n-1)]
}

// median is the nearest-rank 0.5-quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio returns num/den, 0 when den is 0, so a counter a workload never
// touches reads 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// clock stamps events as nanoseconds since its origin on the monotonic
// clock, so every span of a run shares one time base.
type clock struct{ origin time.Time }

func newClock() clock { return clock{origin: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.origin)) }

// ms converts a nanosecond interval to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// seconds converts a nanosecond interval to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// refSink keeps the reference loop's result live.
var refSink uint64

// hostRefMS times a fixed xorshift loop. It does the same work on every
// commit, so it tracks only how fast the host is running right now;
// runs print it at start and end as a drift diagnostic. It is never an
// end-to-end metric and nothing is rescaled by it.
func hostRefMS() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	return float64(time.Since(start)) / 1e6
}

// liveHeapMB returns the heap still live after a full GC, once the
// run's goroutines have exited: the shard runtime and the gateway stop
// theirs without waiting, and a worker not yet descheduled would keep
// its engine's caches reachable. It waits at most a second for the
// goroutine count to fall back to baseline.
func liveHeapMB(baseline int) float64 {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
