package main

import "math/bits"

// hist is the driver's latency buffer: a fixed-size log-linear histogram
// of nanosecond values. Each power of two is split into 128 sub-buckets
// and a quantile is reported as its bucket's midpoint, so the relative
// error of any quantile is below 0.4 % — finer than the 5 % bounds in
// BENCHMARK.json, which internal/obs.Histogram's two-digit buckets are
// not. It is preallocated, recorded into without allocation, and owned by
// one goroutine until merged.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    uint64
	max    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// histMaxBits caps recorded values at 2^40 ns (~18 min); anything
	// longer lands in the last bucket.
	histMaxBits = 40
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

// histBucket maps a value to its bucket: 0..127 exactly, then the top
// eight bits of the value within its power of two.
func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxBits {
		return histBuckets - 1
	}
	e := bits.Len64(v) - histSubBits - 1
	return (e+1)<<histSubBits + int(v>>uint(e)) - histSub
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < histSub {
		return float64(i)
	}
	e := uint(i>>histSubBits - 1)
	lower := uint64(i&(histSub-1)+histSub) << e
	return float64(lower) + float64(uint64(1)<<e)/2 - 0.5
}

func (h *hist) record(v uint64) {
	h.counts[histBucket(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds (0 when empty): the
// value of the ceil(q·n)-th smallest sample.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q*float64(h.n) + 0.999999)
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var cum uint64
	for i, c := range h.counts {
		cum += uint64(c)
		if cum >= rank {
			return histValue(i)
		}
	}
	return float64(h.max)
}
