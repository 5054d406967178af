package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q < 1) of the sorted
// sample, and false when fewer than ten samples lie beyond it: a tail
// estimate resting on a handful of points is noise, not a measurement.
func percentile(sorted []float64, q float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < 10 {
		return 0, false
	}
	return sorted[rank-1], true
}

// median is the nearest-rank 0.5-quantile without the tail rule (a median
// always has half the sample beyond it). Zero for an empty sample.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[(n+1)/2-1]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// medianOf sorts a copy and takes its median.
func medianOf(xs []float64) float64 { return median(sortedCopy(xs)) }

// tail is the reported upper percentile of a sample: p95 when at least ten
// samples lie beyond it, else the median — never an unsupported estimate.
func tail(sorted []float64) float64 {
	if v, ok := percentile(sorted, 0.95); ok {
		return v
	}
	return median(sorted)
}

// p99 is the 99th percentile under the same rule, falling back to tail.
func p99(sorted []float64) float64 {
	if v, ok := percentile(sorted, 0.99); ok {
		return v
	}
	return tail(sorted)
}

// rateBlocks is how many equal-count blocks a measured window is cut into
// for blockRate: fifteen keep a block near a second on every workload.
const rateBlocks = 15

// blockRate is the window's throughput in ops per second, taken as the
// median over equal-count blocks: done holds each op's completion time
// since the window opened; the ops are cut, in completion order, into
// `blocks` blocks of equal count (a remainder at the end is dropped), and
// the rate is that count over the median block duration. The box is a few
// cores of a shared host: a neighbour's burst stretches the blocks it hits
// and moves a mean, but not the median block. Too few ops for one per block
// fall back to count over the last completion time.
func blockRate(done []time.Duration, blocks int) float64 {
	sorted := append([]time.Duration(nil), done...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := len(sorted) / blocks
	if n == 0 {
		if len(sorted) == 0 {
			return 0
		}
		return ratio(float64(len(sorted)), sorted[len(sorted)-1].Seconds())
	}
	durs := make([]float64, blocks)
	var prev time.Duration
	for b := range durs {
		end := sorted[(b+1)*n-1]
		durs[b] = (end - prev).Seconds()
		prev = end
	}
	return ratio(float64(n), medianOf(durs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b with 0 for an empty base, so an unused layer reads 0
// instead of NaN (which JSON cannot carry).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
