package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile. With
// fewer, the percentile is one outlier's value and does not repeat from run
// to run, so the benchmark refuses to report it.
const minTail = 10

// errFewSamples reports a percentile the sample cannot support.
var errFewSamples = errors.New("too few samples beyond the percentile")

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule. Misses are carried in xs as +Inf, so a lost delivery or a failed
// join raises the percentile instead of vanishing from the sample. xs is
// sorted in place.
func percentile(xs []float64, q float64) (float64, error) {
	rank, err := nearestRank(len(xs), q)
	if err != nil {
		return 0, err
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// nearestRank returns the 1-based rank of the q-quantile of n samples, or
// errFewSamples when fewer than minTail samples lie beyond it.
func nearestRank(n int, q float64) (int, error) {
	if n == 0 || q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v of %d samples: %w", q, n, errFewSamples)
	}
	rank := int(math.Ceil(q * float64(n)))
	if n-rank < minTail {
		return 0, fmt.Errorf("percentile %v of %d samples (%d beyond, need %d): %w",
			q, n, n-rank, minTail, errFewSamples)
	}
	return rank, nil
}

// Latency histogram layout: bucket 0 holds latencies below histMinMs;
// bucket i > 0 holds [histMinMs·histGrowth^(i-1), histMinMs·histGrowth^i),
// the last bucket everything above. 20000 buckets of 0.1% reach past 400 s.
const (
	histMinMs   = 0.001
	histGrowth  = 1.001
	histBuckets = 20000
)

// latHist counts latency samples in fixed log-spaced buckets. A run pools
// every owed delivery of its base windows here: unlike a growing slice of
// samples, it does not grow the heap that the nodes' collector paces itself
// by from one window to the next. A percentile reads within 0.05% of the
// sample it stands for.
type latHist struct {
	counts []uint64
	inf    int // owed deliveries that never came
	n      int
}

func newLatHist() *latHist { return &latHist{counts: make([]uint64, histBuckets)} }

// add counts one sample; +Inf is a missing delivery.
func (h *latHist) add(ms float64) {
	h.n++
	if math.IsInf(ms, 1) {
		h.inf++
		return
	}
	i := 0
	if ms >= histMinMs {
		i = min(histBuckets-1, 1+int(math.Log(ms/histMinMs)/math.Log(histGrowth)))
	}
	h.counts[i]++
}

// percentile applies percentile's rules to the counted samples: nearest
// rank, at least minTail samples beyond it, +Inf when it lands on a miss.
// A bucket reads as its geometric midpoint.
func (h *latHist) percentile(q float64) (float64, error) {
	rank, err := nearestRank(h.n, q)
	if err != nil {
		return 0, err
	}
	seen := 0
	for i, c := range h.counts {
		if seen += int(c); seen >= rank {
			if i == 0 {
				return histMinMs / 2, nil
			}
			return histMinMs * math.Pow(histGrowth, float64(i)-0.5), nil
		}
	}
	return math.Inf(1), nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), sorting xs in place. It is for summarising repeated
// measurements, where the tail rule of percentile does not apply.
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

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// maxOf returns the largest value of xs (0 when empty).
func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// ratio divides, reading 0/0 as 0 so a layer a workload does not exercise
// reports zero rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
