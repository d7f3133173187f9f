package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"groupcast/internal/node"
	"groupcast/internal/wire"
)

// The live workloads. Each uses node.DefaultConfig (heartbeats on); all
// traffic comes from one generator goroutine.
var (
	// fanoutMem: one best-effort group on the zero-latency mem fabric, one
	// speaker, small payloads. Per-message node and transport cost does
	// the work; the wire codec does none.
	fanoutMem = liveWorkload{
		spec:  fleetSpec{nodes: 24, mode: wire.BestEffort, payload: 64, publishers: 1},
		drain: time.Second, capStart: 4000,
	}
	// reliableTCP: a ReliableOrdered group on TCP loopback, four publishers
	// round-robin, 1 KiB payloads: the codec, link queues and coalescer,
	// and per-source ordered windows.
	reliableTCP = liveWorkload{
		spec:  fleetSpec{tcp: true, nodes: 16, mode: wire.ReliableOrdered, payload: 1024, publishers: 4},
		drain: 2 * time.Second, capStart: 2500,
	}
)

// twinPlan is the untraced fleets of a traced run, measured for the tracing
// overhead: the same warm-up as fullPlan, then one base fleet.
var twinPlan = runPlan{warm: fullPlan.warm, base: 1}

// liveRunner adapts a live workload to the runner signature.
func liveRunner(wl liveWorkload) func(int64, float64, bool) (*result, []string, error) {
	return func(seed int64, seconds float64, traced bool) (*result, []string, error) {
		runtime.GOMAXPROCS(liveProcs)
		if !traced {
			r, err := runLive(wl, fullPlan, seed, seconds, nil, nil)
			if err != nil {
				return nil, nil, err
			}
			res := newResult(false)
			if err := endToEndLive(res, r); err != nil {
				return nil, nil, err
			}
			res.Correct = len(r.violations) == 0
			return res, r.violations, nil
		}
		// The traced run first measures one base window untraced, after the
		// same warm-up fleets, for the tracing overhead.
		u, err := runLive(wl, twinPlan, seed, seconds, nil, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("untraced twin: %w", err)
		}
		rec := &recording{}
		sink := newLayerSink(rec)
		r, err := runLive(wl, fullPlan, seed, seconds, rec, sink)
		if err != nil {
			return nil, nil, err
		}
		res := newResult(true)
		res.Correct = len(r.violations)+len(u.violations) == 0
		if err := perLayerLive(res, wl, r, sink, cpuPerDelivery(u.base)); err != nil {
			return nil, nil, err
		}
		return res, append(u.violations, r.violations...), nil
	}
}

// cpuPerDelivery is process CPU microseconds per payload the nodes handed
// to the application in w.
func cpuPerDelivery(w window) float64 {
	return ratio(float64(w.cpu)/float64(time.Microsecond), float64(w.node.Delivered))
}

// latencyPercentile reads the q-percentile of latency samples; a percentile
// that lands on a missing delivery (+Inf) reads as span, the longest
// latency the window could have observed.
func latencyPercentile(latMs []float64, span time.Duration, q float64) (float64, error) {
	v, err := percentile(append([]float64(nil), latMs...), q)
	if err != nil {
		return 0, err
	}
	if math.IsInf(v, 1) {
		v = ms(span)
	}
	return v, nil
}

// minSliceSamples is the fewest owed deliveries a slice of a window must
// hold to be read: enough for a p99 with ten samples beyond it.
const minSliceSamples = 1000

// slicePercentiles cuts a window into consecutive slices of sliceDur by due
// time and returns the q-percentile of each slice holding at least
// minSliceSamples (latencyPercentile's rules). Capacity probes judge p99 by
// the median over slices; base windows log it beside their pooled p99, to
// tell a single stall from a tail that lasts.
func slicePercentiles(w window, sliceDur time.Duration, q float64) ([]float64, error) {
	slices := make(map[int64][]float64)
	for i, lat := range w.stats.latMs {
		k := (w.stats.dueNs[i] - w.stats.firstDue) / int64(sliceDur)
		slices[k] = append(slices[k], lat)
	}
	var vals []float64
	for _, lat := range slices {
		if len(lat) < minSliceSamples {
			continue
		}
		v, err := latencyPercentile(lat, w.elapsed, q)
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("no %v slice of the window holds %d owed deliveries: %w",
			sliceDur, minSliceSamples, errFewSamples)
	}
	return vals, nil
}

// deliverPercentile reads a delivery percentile pooled over all of r's base
// windows; one that lands on a missing delivery reads as the longest
// window's span. It is the per-layer bench.deliver_p99_pooled_ms: unlike
// the median over windows, bench.deliver_p99_ms, one stall in one window
// moves it.
func deliverPercentile(r *liveRun, q float64) (float64, error) {
	v, err := r.lat.percentile(q)
	if math.IsInf(v, 1) {
		v = ms(r.span)
	}
	return v, err
}

// joinPercentile reads a join-time percentile over all arrivals, a failed
// arrival counting as +Inf (read as the operation timeout).
func joinPercentile(joins []joinSample, q float64) (float64, error) {
	xs := make([]float64, 0, len(joins))
	for _, s := range joins {
		if s.ok {
			xs = append(xs, s.totalMs)
		} else {
			xs = append(xs, math.Inf(1))
		}
	}
	v, err := percentile(xs, q)
	if math.IsInf(v, 1) {
		v = 2 * ms(opTimeout)
	}
	return v, err
}

// windowMedian is the median over the base windows of one value of each.
func windowMedian(r *liveRun, f func(window) float64) float64 {
	xs := make([]float64, 0, len(r.windows))
	for _, w := range r.windows {
		xs = append(xs, f(w))
	}
	return median(xs)
}

// endToEndLive fills the end-to-end metrics. The delivery median, CPU per
// delivery and the batch time are medians over the base windows of each
// window's own value. A window outlasts the heartbeat interval and holds
// several collections, so a cost the program pays again and again is in
// every window and in the median; a stall that hits one fleet, such as the
// host taking the CPU away for tens of milliseconds, is not.
func endToEndLive(res *result, r *liveRun) error {
	j50, err := joinPercentile(r.joins, 0.5)
	if err != nil {
		return fmt.Errorf("join_p50_ms: %w", err)
	}
	j90, err := joinPercentile(r.joins, 0.9)
	if err != nil {
		return fmt.Errorf("join_p90_ms: %w", err)
	}
	joinOK := 0
	for _, s := range r.joins {
		if s.ok {
			joinOK++
		}
	}
	res.set("setup_s", median(append([]float64(nil), r.setupS...)))
	res.set("deliver_p50_ms", windowMedian(r, func(w window) float64 { return w.p50Ms }))
	res.set("delivery_ratio", r.base.stats.ratio())
	res.set("capacity_pub_s", median(append([]float64(nil), r.capacity...)))
	res.set("cpu_us_per_delivery", windowMedian(r, cpuPerDelivery))
	res.set("join_p50_ms", j50)
	res.set("join_p90_ms", j90)
	res.set("join_ok_ratio", ratio(float64(joinOK), float64(len(r.joins))))
	// The live batch is the base window's fixed schedule plus the delivery
	// tail of its last publish: the schedule, not the program, sets it.
	res.set("sim_wall_s", windowMedian(r, func(w window) float64 {
		return float64(w.stats.lastDelivery-w.stats.firstDue) / 1e9
	}))
	res.set("peak_rss_MB", r.rssMB)
	st := r.base.stats
	res.Attempted = st.attempted + st.owed + len(r.joins)
	res.Failed = st.refused + st.missing() + (len(r.joins) - joinOK)
	return nil
}

// perLayerLive fills the per-layer metrics of a traced live run.
// untracedCPU is cpu_us_per_delivery of the untraced twin.
func perLayerLive(res *result, wl liveWorkload, r *liveRun, sink *layerSink, untracedCPU float64) error {
	e2e := newResult(false)
	if err := endToEndLive(e2e, r); err != nil {
		return err
	}
	res.Attempted, res.Failed = e2e.Attempted, e2e.Failed
	b := r.base
	delivered := float64(b.node.Delivered)
	secs := b.elapsed.Seconds()
	pct := func(xs []float64, q float64) float64 {
		v, err := percentile(append([]float64(nil), xs...), q)
		if err != nil {
			return 0
		}
		return v
	}

	res.set("bench.gen_lag_p99_ms", pct(b.gen.lagMs, 0.99))
	res.set("bench.gen_lag_max_ms", maxOf(b.gen.lagMs))
	res.set("bench.deliver_samples", float64(b.stats.owed))
	// The delivery p99 is per-layer, not end-to-end: host stalls that last a
	// whole run set it on a shared machine (README, Measured steadiness).
	res.set("bench.deliver_p99_ms", windowMedian(r, func(w window) float64 { return w.p99Ms }))
	pooled, err := deliverPercentile(r, 0.99)
	if err != nil {
		return fmt.Errorf("bench.deliver_p99_pooled_ms: %w", err)
	}
	res.set("bench.deliver_p99_pooled_ms", pooled)

	res.set("node.publish_call_us.p50", pct(b.gen.callUs, 0.5))
	res.set("node.publish_call_us.p99", pct(b.gen.callUs, 0.99))
	sink.mu.Lock()
	res.set("node.handle_us.p50", pct(sink.handleUs.vals, 0.5))
	res.set("node.handle_us.p99", pct(sink.handleUs.vals, 0.99))
	res.set("node.deliver_hops.mean", ratio(sink.hops.sum, sink.hops.n))
	res.set("transport.queue_wait_us.p50", pct(sink.queueUs.vals, 0.5))
	res.set("transport.queue_wait_us.p99", pct(sink.queueUs.vals, 0.99))
	arrivals := append([]uint64(nil), sink.arrivals...)
	sink.mu.Unlock()

	var boot, join []float64
	var lookups, fallbacks float64
	for _, s := range r.joins {
		if s.ok {
			boot = append(boot, s.bootMs)
			join = append(join, s.joinMs)
		}
		lookups += float64(s.dhtLookups)
		fallbacks += float64(s.dhtFbk)
	}
	res.set("node.bootstrap_call_ms.p50", pct(boot, 0.5))
	res.set("node.join_call_ms.p50", pct(join, 0.5))
	res.set("node.join_call_ms.p90", pct(join, 0.9))
	res.set("dht.lookups_per_join", ratio(lookups, float64(len(r.joins))))
	res.set("dht.fallbacks_per_join", ratio(fallbacks, float64(len(r.joins))))
	if h, ok := r.lifeHist[node.MetricDhtLookup]; ok && h.Count > 0 {
		res.set("dht.lookup_ms.p50", h.Quantile(0.5))
		res.set("dht.lookup_ms.p90", h.Quantile(0.9))
	}

	var sent, ctrl float64
	for typ, n := range b.node.Sent {
		sent += float64(n)
		if typ != wire.TPayload.String() {
			ctrl += float64(n)
		}
	}
	res.set("node.msgs_sent_per_delivery", ratio(sent, delivered))
	res.set("node.ctrl_msgs_per_s", ratio(ctrl, secs))
	res.set("node.publish_rejects", float64(r.whole.PublishRejects))
	res.set("node.relay_sheds", float64(r.whole.RelaySheds))

	if h, ok := r.baseHist[node.MetricRecvQueueDepth]; ok && h.Count > 0 {
		res.set("transport.inbox_depth.p99", h.Quantile(0.99))
	}
	var sendUs []float64
	for _, t := range r.timed {
		us, _, _ := t.samples()
		sendUs = append(sendUs, us...)
	}
	res.set("transport.send_call_us.p50", pct(sendUs, 0.5))
	res.set("transport.send_call_us.p99", pct(sendUs, 0.99))
	tr := r.whole.Transport
	res.set("transport.inbox_sheds.control", float64(tr.ControlSheds))
	res.set("transport.inbox_sheds.reliable", float64(tr.ReliableSheds))
	res.set("transport.inbox_sheds.best_effort", float64(tr.BestEffortSheds))
	res.set("transport.send_queue_drops", float64(tr.SendQueueDrops))
	res.set("transport.breaker_rejects", float64(tr.BreakerRejects))
	var wholeSent float64
	for _, n := range r.whole.Sent {
		wholeSent += float64(n)
	}
	res.set("transport.coalesced_share", ratio(float64(r.coalesce.Msgs), wholeSent))

	kd := delivered / 1000
	res.set("reliable.nacks_per_kdelivery", ratio(float64(b.node.NacksSent+b.node.NacksForwarded), kd))
	res.set("reliable.retransmits_per_kdelivery", ratio(float64(b.node.Retransmits), kd))
	res.set("reliable.gaps_abandoned", float64(b.node.GapsAbandoned))
	if h, ok := r.baseHist[node.MetricNackRTT]; ok && h.Count > 0 {
		res.set("reliable.nack_rtt_p99_ms", h.Quantile(0.99))
	}

	res.set("runtime.allocs_per_delivery", ratio(float64(b.mallocs), delivered))
	res.set("runtime.alloc_B_per_delivery", ratio(float64(b.allocBytes), delivered))
	res.set("runtime.gc_pause_ms_per_s", ratio(float64(b.gcPauseNs)/1e6, secs))
	res.set("runtime.goroutines_per_node", ratio(float64(r.goroutines), float64(r.nodes)))
	res.set("trace.overhead_ratio", ratio(cpuPerDelivery(b), untracedCPU))

	if err := replayWire(res, r.timed); err != nil {
		return err
	}
	return replayReliable(res, arrivals, wl.spec)
}
