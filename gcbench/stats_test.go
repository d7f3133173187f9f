package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func samples(n int, inf int) []float64 {
	xs := make([]float64, 0, n)
	for i := 0; i < n-inf; i++ {
		xs = append(xs, float64(i+1))
	}
	for i := 0; i < inf; i++ {
		xs = append(xs, math.Inf(1))
	}
	return xs
}

func TestPercentileCountsMissesAsInfinite(t *testing.T) {
	// 1000 samples, 20 of them missing: p50 is unaffected, p99 lands on a
	// miss and reads +Inf instead of the largest delivered value.
	p50, err := percentile(samples(1000, 20), 0.5)
	if err != nil || p50 != 500 {
		t.Fatalf("p50 = %v, %v; want 500", p50, err)
	}
	p99, err := percentile(samples(1000, 20), 0.99)
	if err != nil || !math.IsInf(p99, 1) {
		t.Fatalf("p99 = %v, %v; want +Inf", p99, err)
	}
	// With 5 misses the p99 stays finite but moves up by their count.
	p99, err = percentile(samples(1000, 5), 0.99)
	if err != nil || p99 != 990 {
		t.Fatalf("p99 with 5 misses = %v, %v; want 990", p99, err)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n   int
		q   float64
		ok  bool
		val float64
	}{
		{999, 0.99, false, 0},
		{1000, 0.99, true, 990},
		{99, 0.9, false, 0},
		{100, 0.9, true, 90},
		{19, 0.5, false, 0},
		{20, 0.5, true, 10},
	} {
		v, err := percentile(samples(c.n, 0), c.q)
		if c.ok && (err != nil || v != c.val) {
			t.Errorf("p%v of %d = %v, %v; want %v", c.q*100, c.n, v, err, c.val)
		}
		if !c.ok && !errors.Is(err, errFewSamples) {
			t.Errorf("p%v of %d = %v, %v; want errFewSamples", c.q*100, c.n, v, err)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median even = %v", m)
	}
}

func TestLatHistPoolsStallsAndMisses(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) <= want*0.0005 }
	// 8000 deliveries at 1 ms; a stall confined to the first eighth of the
	// run delays 160 of them (2%) to 20 ms. Pooled, the stall sets the p99
	// even though seven eighths of the run never saw it.
	h := newLatHist()
	for i := 0; i < 8000; i++ {
		if i < 160 {
			h.add(20)
		} else {
			h.add(1)
		}
	}
	if p50, err := h.percentile(0.5); err != nil || !near(p50, 1) {
		t.Fatalf("p50 = %v, %v; want 1", p50, err)
	}
	if p99, err := h.percentile(0.99); err != nil || !near(p99, 20) {
		t.Fatalf("p99 = %v, %v; want 20", p99, err)
	}
	// 100 misses (+Inf) put the p99 on a miss.
	for i := 0; i < 100; i++ {
		h.add(math.Inf(1))
	}
	if p99, err := h.percentile(0.99); err != nil || !math.IsInf(p99, 1) {
		t.Fatalf("p99 with misses = %v, %v; want +Inf", p99, err)
	}
	r := &liveRun{lat: h, span: 3 * time.Second}
	if p99, err := deliverPercentile(r, 0.99); err != nil || p99 != 3000 {
		t.Fatalf("reported p99 with misses = %v, %v; want the 3000 ms span", p99, err)
	}
}

func TestLatHistNeedsTenSamplesBeyond(t *testing.T) {
	h := newLatHist()
	for _, x := range samples(999, 0) {
		h.add(x)
	}
	if _, err := h.percentile(0.99); !errors.Is(err, errFewSamples) {
		t.Fatalf("p99 of 999 samples: err = %v, want errFewSamples", err)
	}
	h.add(1000)
	if p99, err := h.percentile(0.99); err != nil || math.Abs(p99-990) > 990*0.0005 {
		t.Fatalf("p99 of 1000 samples = %v, %v; want 990", p99, err)
	}
}

// TestWindowMedianKeepsRecurringTail checks the estimator behind the live
// deliver_p50_ms and deliver_p99_ms: the median over base windows of each
// window's own percentile. A tail the program produces in every window is
// reported; a stall confined to one window is not, but the pooled per-layer
// percentile still shows it.
func TestWindowMedianKeepsRecurringTail(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) <= want*0.0005 }
	// run builds seven 3 s windows of 10000 deliveries at 1 ms; the first
	// stalled windows have stallShare of their deliveries at stallMs.
	run := func(stalled int, stallShare, stallMs float64) *liveRun {
		r := &liveRun{lat: newLatHist(), span: 3 * time.Second}
		for k := 0; k < 7; k++ {
			lat := make([]float64, 10000)
			for i := range lat {
				lat[i] = 1
				if k < stalled && float64(i) < stallShare*float64(len(lat)) {
					lat[i] = stallMs
				}
			}
			for _, x := range lat {
				r.lat.add(x)
			}
			w := window{elapsed: 3 * time.Second}
			var err error
			if w.p99Ms, err = latencyPercentile(lat, w.elapsed, 0.99); err != nil {
				t.Fatal(err)
			}
			r.windows = append(r.windows, w)
		}
		return r
	}
	p99 := func(w window) float64 { return w.p99Ms }

	// A stall at every heartbeat round delays 2% of each window's
	// deliveries to 20 ms: it is the reported p99.
	if got := windowMedian(run(7, 0.02, 20), p99); !near(got, 20) {
		t.Errorf("recurring tail: window-median p99 = %v, want 20", got)
	}
	// One 35 ms stall delaying 10% of one window's deliveries leaves the
	// reported p99 at 1 ms; pooled, it is 1.4% of all and sets the p99.
	r := run(1, 0.10, 35)
	if got := windowMedian(r, p99); !near(got, 1) {
		t.Errorf("one stalled window: window-median p99 = %v, want 1", got)
	}
	if got, err := deliverPercentile(r, 0.99); err != nil || !near(got, 35) {
		t.Errorf("one stalled window: pooled p99 = %v, %v; want 35", got, err)
	}
}
