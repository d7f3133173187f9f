package main

// metricDef names one reported metric and its unit. The lists below are the
// benchmark's contract and match BENCHMARK.json (metrics_test.go checks).
type metricDef struct{ name, unit string }

// endToEnd are printed by every untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"deliver_p50_ms", "ms"},
	{"delivery_ratio", "fraction"},
	{"capacity_pub_s", "publishes/s"},
	{"cpu_us_per_delivery", "us"},
	{"join_p50_ms", "ms"},
	{"join_p90_ms", "ms"},
	{"join_ok_ratio", "fraction"},
	{"sim_wall_s", "s"},
	{"peak_rss_MB", "MB"},
}

// perLayer are printed by every traced run. A layer the workload does not
// run reads 0.
var perLayer = []metricDef{
	{"bench.gen_lag_p99_ms", "ms"},
	{"bench.gen_lag_max_ms", "ms"},
	{"bench.deliver_samples", "count"},
	{"bench.deliver_p99_ms", "ms"},
	{"bench.deliver_p99_pooled_ms", "ms"},
	{"node.publish_call_us.p50", "us"},
	{"node.publish_call_us.p99", "us"},
	{"node.handle_us.p50", "us"},
	{"node.handle_us.p99", "us"},
	{"node.deliver_hops.mean", "hops"},
	{"node.bootstrap_call_ms.p50", "ms"},
	{"node.join_call_ms.p50", "ms"},
	{"node.join_call_ms.p90", "ms"},
	{"node.msgs_sent_per_delivery", "msgs"},
	{"node.ctrl_msgs_per_s", "msgs/s"},
	{"node.publish_rejects", "count"},
	{"node.relay_sheds", "count"},
	{"transport.queue_wait_us.p50", "us"},
	{"transport.queue_wait_us.p99", "us"},
	{"transport.inbox_depth.p99", "msgs"},
	{"transport.send_call_us.p50", "us"},
	{"transport.send_call_us.p99", "us"},
	{"transport.inbox_sheds.control", "count"},
	{"transport.inbox_sheds.reliable", "count"},
	{"transport.inbox_sheds.best_effort", "count"},
	{"transport.send_queue_drops", "count"},
	{"transport.breaker_rejects", "count"},
	{"transport.coalesced_share", "fraction"},
	{"wire.encode_ns.payload", "ns"},
	{"wire.decode_ns.payload", "ns"},
	{"wire.decode_allocs.payload", "allocs"},
	{"wire.frame_bytes.payload", "B"},
	{"wire.relay_allocs", "allocs"},
	{"wire.heartbeat_health_bytes", "B"},
	{"reliable.nacks_per_kdelivery", "count"},
	{"reliable.retransmits_per_kdelivery", "count"},
	{"reliable.gaps_abandoned", "count"},
	{"reliable.nack_rtt_p99_ms", "ms"},
	{"reliable.observe_ns", "ns"},
	{"reliable.observe_allocs", "allocs"},
	{"dht.lookups_per_join", "count"},
	{"dht.fallbacks_per_join", "count"},
	{"dht.lookup_ms.p50", "ms"},
	{"dht.lookup_ms.p90", "ms"},
	{"runtime.allocs_per_delivery", "allocs"},
	{"runtime.alloc_B_per_delivery", "B"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"runtime.goroutines_per_node", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"netsim.generate_s", "s"},
	{"netsim.attach_s", "s"},
	{"coords.embed_s", "s"},
	{"esm.env_s", "s"},
	{"overlay.groupcast_s", "s"},
	{"overlay.plod_s", "s"},
	{"protocol.build_group_s", "s"},
	{"esm.evaluate_s", "s"},
	{"protocol.ad_msgs_per_group", "msgs"},
}

var unitOf = func() map[string]string {
	m := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// newResult starts a result whose metrics are the traced or untraced set;
// in a traced run every per-layer metric starts at 0, the reading of a
// layer the workload does not run.
func newResult(traced bool) *result {
	r := &result{Correct: true, Metrics: make(map[string]metric)}
	if traced {
		for _, d := range perLayer {
			r.set(d.name, 0)
		}
	}
	return r
}
