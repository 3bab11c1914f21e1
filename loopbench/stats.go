package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile: a
// tail percentile is never read off fewer than ten slower samples.
const minTail = 10

// pct is one reported percentile: the value, the quantile it actually
// is, and the number of samples it was read from.
type pct struct {
	Value float64
	Q     float64
	N     int
}

// quantile returns the q-quantile of samples (sorted in place) by the
// nearest-rank rule, lowered where needed to the highest rank that still
// has minTail samples beyond it. Fewer than minTail+1 samples yield the
// median (or NaN when there are none).
func quantile(samples []float64, q float64) pct {
	n := len(samples)
	if n == 0 {
		return pct{Value: math.NaN(), Q: q}
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && rank > n-minTail {
		rank = n - minTail
		if half := (n + 1) / 2; rank < half {
			rank = half
		}
	}
	return pct{Value: samples[rank-1], Q: float64(rank) / float64(n), N: n}
}

// median of xs, ignoring NaNs (a slice without deliveries has no
// per-message figure); NaN when nothing is left.
func median(xs []float64) float64 {
	c := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			c = append(c, x)
		}
	}
	if len(c) == 0 {
		return math.NaN()
	}
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// usage is a process-wide resource reading: CPU time of every thread and
// cumulative heap allocation.
type usage struct {
	cpu        time.Duration
	allocObjs  uint64
	allocBytes uint64
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	metrics.Read(allocSamples)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocObjs:  allocSamples[0].Value.Uint64(),
		allocBytes: allocSamples[1].Value.Uint64(),
	}
}
