package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"

	"groupcast/internal/metrics"
	"groupcast/internal/node"
	"groupcast/internal/transport"
)

// liveWorkload drives a live fleet through the public node API.
type liveWorkload struct {
	spec  fleetSpec
	drain time.Duration
	// capStart is the rate of the capacity search's first probe, well below
	// the knee: a first probe that fails by chance would cap the search
	// below it.
	capStart float64
}

// The shape of every live run.
const (
	// baseRate is the publish rate of the base-rate window, well below the
	// knee of every live workload: at it the one P is busy about an eighth
	// of the time on fanout-mem and a fifth on reliable-tcp, so a short
	// stall drains before it backs up a queue.
	baseRate = 500
	// warmPublishes are run by every fleet once it is built: checked, not
	// measured.
	warmPublishes = 200
	// baseShare is the share of --seconds spent in the base-rate window,
	// split evenly over baseFleets fleets, and probeShare the share per
	// capacity probe.
	baseShare, probeShare = 0.6, 0.02
	baseFleets            = 7
	maxRate               = 64000
	maxProbes             = 10
	// liveProcs is GOMAXPROCS during a live workload. With one P, a
	// hand-off between nodes is a goroutine switch on the running thread,
	// not the wake-up of a second, possibly halted, vCPU, and a co-runner
	// that takes one of the host's two CPUs leaves latency and capacity
	// where they were (README, Measured steadiness).
	liveProcs = 1
)

// runPlan is the fleets one run builds, one after another, each from its
// own sub-seed: first warm fleets, which only set up (setup_s, join samples)
// and warm the process up, the last of them with an unmeasured base window;
// then base fleets, each running a 1/baseFleets
// share of the base-rate window; then capacity fleets, each running a
// capacity search. No base window follows a capacity search in the same
// process.
type runPlan struct{ warm, base, capacity int }

// fullPlan is the plan of every measured run.
var fullPlan = runPlan{warm: 2, base: baseFleets, capacity: 4}

// window is one measured stretch of publishing.
type window struct {
	gen   genResult
	stats windowStats
	// cpu is process user+sys time over the window and its drain.
	cpu time.Duration
	// mallocs, allocBytes and gcPauseNs are runtime deltas over the same
	// span.
	mallocs, allocBytes, gcPauseNs uint64
	// node is the fleet's counter delta over the same span.
	node    node.Stats
	elapsed time.Duration // first due to the end of the drain
	// p50Ms and p99Ms are the window's own delivery percentiles
	// (latencyPercentile), set for base windows.
	p50Ms, p99Ms float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// run publishes n times at rate, round-robin over the publishers. The
// window ends when the owed deliveries have drained or drain has passed.
func (f *fleet) run(rate float64, n int, drain time.Duration) window {
	from := len(f.orc.pubs)
	reserve(f.all(), from+n)
	var w window
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	st0 := f.stats()
	cpu0 := cpuTime()

	start := time.Now().Add(time.Millisecond)
	w.gen = openLoop(wallClock{}, start, rate, n, func(i int, due time.Time) {
		src := (from + i) % len(f.pubs)
		nd := f.pubs[src].nd
		// A refused publish is recorded by the oracle and counted as a
		// failed operation; the schedule goes on.
		_ = f.orc.publish(src, due, func(b []byte) error { return nd.Publish(groupID, b) })
	})
	to := len(f.orc.pubs)
	for deadline := time.Now().Add(drain); time.Now().Before(deadline); {
		if f.orc.pending(f.all(), from, to) == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	w.elapsed = time.Since(start)
	w.cpu = cpuTime() - cpu0
	w.node = f.stats().Delta(st0)
	runtime.ReadMemStats(&ms1)
	w.mallocs = ms1.Mallocs - ms0.Mallocs
	w.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	w.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	w.stats = f.orc.analyze(f.all(), from, to)
	return w
}

// probeLead is the unmeasured lead-in of every capacity probe: the fleet
// runs at the probe's rate this long before measuring, so queues, buffers
// and the heap reach the rate's steady state first.
const probeLead = 250 * time.Millisecond

// probeDrainMax bounds how long a probe waits for owed deliveries: one
// arriving later is far past the latency limit anyway.
const probeDrainMax = 300 * time.Millisecond

// probe is one capacity-search window at rate.
func (f *fleet) probe(rate, seconds float64, drain time.Duration) probeOutcome {
	f.run(rate, int(math.Ceil(rate*probeLead.Seconds())), 0)
	n := int(math.Max(1, math.Round(rate*seconds)))
	p := outcome(rate, f.run(rate, n, min(drain, probeDrainMax)))
	fmt.Fprintf(os.Stderr, "probe %.0f/s: achieved %.0f/s p99 %.2f ms ratio %.5f lag grew %v\n",
		p.rate, p.achieved, p.p99Ms, p.deliveryRatio, p.lagGrew)
	return p
}

// probeSlice is the slice length of a probe's p99 (slicePercentiles): a
// rate past the knee backs queues up in every slice after the onset, while
// one host stall inside a probe moves a single slice.
const probeSlice = 100 * time.Millisecond

// outcome judges one probe window. A probe too slow to fill a slice (the
// halving below a failed first probe) reads its p99 over the whole window.
func outcome(rate float64, w window) probeOutcome {
	p99 := math.Inf(1)
	if p99s, err := slicePercentiles(w, probeSlice, 0.99); err == nil {
		p99 = median(p99s)
	} else if v, err := latencyPercentile(w.stats.latMs, w.elapsed, 0.99); err == nil {
		p99 = v
	}
	issued := w.gen.end.Sub(w.gen.start).Seconds()
	return probeOutcome{
		rate:          rate,
		achieved:      ratio(float64(w.stats.attempted-w.stats.refused), issued),
		p99Ms:         p99,
		deliveryRatio: w.stats.ratio(),
		lagGrew:       lagGrows(w.gen.lagMs, lagSlackMs),
	}
}

// liveRun is everything one run of a live workload measured.
type liveRun struct {
	setupS []float64
	joins  []joinSample
	// windows are the base-rate windows, one per base fleet, without their
	// latency samples; base is their sum. lat pools the latency samples of
	// every base window, and span is the longest base window's elapsed
	// time.
	windows []window
	base    window
	lat     *latHist
	span    time.Duration
	// capacity is each capacity fleet's capacity_pub_s.
	capacity []float64
	// whole is the fleets' counter delta over the base windows and probes.
	whole    node.Stats
	coalesce transport.CoalesceStats
	// baseHist are the registry histograms gained in the base windows;
	// lifeHist are their totals at the end of each window.
	baseHist, lifeHist map[string]metrics.HistogramSnapshot
	goroutines, nodes  int
	// rssMB is the process's peak resident memory at the end of the base
	// windows, before any capacity search.
	rssMB      float64
	violations []string
	timed      []*timedTransport
}

// runLive executes one live workload as plan says. rec and sink are nil for
// an untraced run. Each fleet is built, warmed, measured and closed before
// the next.
func runLive(wl liveWorkload, plan runPlan, seed int64, seconds float64, rec *recording, sink *layerSink) (*liveRun, error) {
	r := &liveRun{
		lat:      newLatHist(),
		baseHist: make(map[string]metrics.HistogramSnapshot),
		lifeHist: make(map[string]metrics.HistogramSnapshot),
	}
	firstCap := plan.warm + plan.base
	for k := 0; k < firstCap+plan.capacity; k++ {
		t0 := time.Now()
		f, err := newFleet(wl.spec, seed*64+int64(k), rec, sink)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", k, err)
		}
		f.run(baseRate, warmPublishes, wl.drain)
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		if k == plan.warm-1 {
			// The last warm fleet runs one unmeasured base window, so the
			// heap has grown to the base rate's working size before the
			// first measured window.
			f.run(baseRate, basePublishes(seconds), wl.drain)
		}
		if err := r.measure(f, wl, seconds, rec, k >= plan.warm && k < firstCap, k >= firstCap); err != nil {
			f.close()
			return nil, fmt.Errorf("fleet %d: %w", k, err)
		}
		if k == firstCap-1 {
			r.rssMB = peakRSSMB()
		}
		r.joins = append(r.joins, f.joins...)
		r.violations = append(r.violations, f.orc.Violations()...)
		r.timed = append(r.timed, f.timed...)
		f.close()
		// The next fleet starts from a collected heap, not from this one's
		// garbage, so peak memory does not depend on collection timing.
		runtime.GC()
	}
	r.base = mergeWindows(r.windows)
	return r, nil
}

// measure runs one fleet's share of the base-rate window when base is set
// and its capacity search when search is set. A fleet on which no probed
// rate met the limits has capacity 0.
func (r *liveRun) measure(f *fleet, wl liveWorkload, seconds float64, rec *recording, base, search bool) error {
	st0 := f.stats()
	co0 := coalesceSum(f)
	if base {
		if err := r.baseWindow(f, wl, seconds, rec); err != nil {
			return err
		}
	}
	if search {
		time.Sleep(settle)
		start := f.probe(wl.capStart, probeShare*seconds, wl.drain)
		best, _, ok := searchCapacity(start, func(rate float64) probeOutcome {
			return f.probe(rate, probeShare*seconds, wl.drain)
		}, maxRate, maxProbes)
		if !ok {
			fmt.Fprintf(os.Stderr, "capacity search: no rate met the limits (first p99 %.1f ms, ratio %.4f)\n",
				start.p99Ms, start.deliveryRatio)
		}
		r.capacity = append(r.capacity, best.achieved)
	}
	r.whole.Merge(f.stats().Delta(st0))
	co := coalesceSum(f)
	r.coalesce.Msgs += co.Msgs - co0.Msgs
	r.coalesce.Frames += co.Frames - co0.Frames
	return nil
}

// basePublishes is the length of one fleet's base window.
func basePublishes(seconds float64) int {
	return int(math.Round(baseRate * baseShare * seconds / baseFleets))
}

// settle lets a fresh fleet's warm-up traffic drain before its capacity
// search.
const settle = 200 * time.Millisecond

// baseWindow runs one fleet's share of the base-rate window.
func (r *liveRun) baseWindow(f *fleet, wl liveWorkload, seconds float64, rec *recording) error {
	hist0 := mergedHistograms(f)
	if rec != nil {
		rec.on.Store(true)
	}
	w := f.run(baseRate, basePublishes(seconds), wl.drain)
	if rec != nil {
		rec.on.Store(false)
		f.sink.endWindow()
	}
	for _, lat := range w.stats.latMs {
		r.lat.add(lat)
	}
	r.span = max(r.span, w.elapsed)
	var err error
	if w.p50Ms, err = latencyPercentile(w.stats.latMs, w.elapsed, 0.5); err != nil {
		return fmt.Errorf("base window p50: %w", err)
	}
	if w.p99Ms, err = latencyPercentile(w.stats.latMs, w.elapsed, 0.99); err != nil {
		return fmt.Errorf("base window p99: %w", err)
	}
	p90, _ := latencyPercentile(w.stats.latMs, w.elapsed, 0.9)
	sl, _ := slicePercentiles(w, 250*time.Millisecond, 0.99)
	lag50, _ := percentile(append([]float64(nil), w.gen.lagMs...), 0.5)
	lag99, _ := percentile(append([]float64(nil), w.gen.lagMs...), 0.99)
	fmt.Fprintf(os.Stderr, "base window: %d publishes, %d/%d delivered, p50 %.3f ms p90 %.3f ms p99 %.3f ms (median of 250 ms slices %.3f), generator lag p50 %.3f p99 %.3f ms, %.2f us CPU per delivery, GC pauses %.1f ms\n",
		w.stats.attempted, w.stats.delivered, w.stats.owed, w.p50Ms, p90, w.p99Ms, median(sl), lag50, lag99, cpuPerDelivery(w), float64(w.gcPauseNs)/1e6)
	w.stats.latMs, w.stats.dueNs = nil, nil
	r.windows = append(r.windows, w)
	f.orc.audit(f.all())
	for name, h := range mergedHistograms(f) {
		r.lifeHist[name] = addHistogram(r.lifeHist[name], h, 1)
		r.baseHist[name] = addHistogram(r.baseHist[name], addHistogram(h, hist0[name], -1), 1)
	}
	r.goroutines = runtime.NumGoroutine()
	r.nodes = len(f.all())
	return nil
}

// mergeWindows sums the base-rate windows of several fleets; elapsed is the
// total measured time.
func mergeWindows(ws []window) window {
	var m window
	for _, w := range ws {
		m.gen.lagMs = append(m.gen.lagMs, w.gen.lagMs...)
		m.gen.callUs = append(m.gen.callUs, w.gen.callUs...)
		m.stats.attempted += w.stats.attempted
		m.stats.refused += w.stats.refused
		m.stats.owed += w.stats.owed
		m.stats.delivered += w.stats.delivered
		m.cpu += w.cpu
		m.mallocs += w.mallocs
		m.allocBytes += w.allocBytes
		m.gcPauseNs += w.gcPauseNs
		m.node.Merge(w.node)
		m.elapsed += w.elapsed
	}
	return m
}

// coalesceSum totals the TCP coalescer counters of the live members (zero
// on the mem fabric, which does not coalesce).
func coalesceSum(f *fleet) transport.CoalesceStats {
	var sum transport.CoalesceStats
	for _, m := range f.all() {
		if c, ok := m.tr.(interface {
			CoalesceStats() transport.CoalesceStats
		}); ok {
			cs := c.CoalesceStats()
			sum.Msgs += cs.Msgs
			sum.Frames += cs.Frames
		}
	}
	return sum
}

// mergedHistograms adds up every live member's registry histograms by name.
func mergedHistograms(f *fleet) map[string]metrics.HistogramSnapshot {
	out := make(map[string]metrics.HistogramSnapshot)
	for _, m := range f.all() {
		for name, h := range m.nd.Metrics().Snapshot().Histograms {
			out[name] = addHistogram(out[name], h, 1)
		}
	}
	return out
}

// addHistogram returns a + sign·b over a's bucket layout (b empty or with
// the same bounds). A negative count clamps to zero.
func addHistogram(a, b metrics.HistogramSnapshot, sign int64) metrics.HistogramSnapshot {
	if len(a.Buckets) == 0 {
		if sign < 0 {
			return a
		}
		a.Buckets = make([]metrics.BucketCount, len(b.Buckets))
		for i, bk := range b.Buckets {
			a.Buckets[i].Le = bk.Le
		}
	}
	add := func(x, y uint64) uint64 {
		v := int64(x) + sign*int64(y)
		if v < 0 {
			return 0
		}
		return uint64(v)
	}
	out := metrics.HistogramSnapshot{
		Count:    add(a.Count, b.Count),
		Sum:      a.Sum + float64(sign)*b.Sum,
		Overflow: add(a.Overflow, b.Overflow),
		Buckets:  make([]metrics.BucketCount, len(a.Buckets)),
	}
	for i, bk := range a.Buckets {
		out.Buckets[i] = bk
		if i < len(b.Buckets) {
			out.Buckets[i].Count = add(bk.Count, b.Buckets[i].Count)
		}
	}
	return out
}
