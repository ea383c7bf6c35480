package main

// metricSpec is one reported metric; the lists below mirror
// BENCHMARK.json, which the smoke test checks.
type metricSpec struct{ Name, Unit string }

// endToEndMetrics are reported by every untraced run of every workload.
// README.md defines each one per workload.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"sim_s_per_wall_s", "ratio"},
	{"window_ms_p50", "ms"},
	{"window_ms_p90", "ms"},
	{"round_s", "s"},
	{"bytes_per_network", "B"},
	{"quality", "ratio"},
}

// perLayerMetrics are reported by every traced run of every workload; a
// layer the workload does not exercise reads 0.
var perLayerMetrics = []metricSpec{
	{"fleet.generate_s", "s"},
	{"fleetd.register_s", "s"},
	{"fleetd.cold_window_s", "s"},

	{"fleetd.pass_ms_p50", "ms"},
	{"fleetd.pass_ms_p99", "ms"},
	{"fleetd.sched_lag_ms_p99", "ms"},
	{"fleetd.ingest_ms_sum", "ms"},
	{"fleetd.passes_i0", "count"},
	{"fleetd.passes_i1", "count"},
	{"fleetd.passes_i2", "count"},
	{"fleetd.coalesced", "count"},
	{"fleetd.skip_ratio", "ratio"},
	{"fleetd.quiet_window_ms_p50", "ms"},
	{"fleetd.passes_per_s", "passes/s"},
	{"fleetd.netp_p50", "ratio"},

	{"fleetd.journal_records", "count"},
	{"fleetd.journal_bytes", "B"},
	{"fleetd.checkpoint_bytes", "B"},
	{"fleetd.checkpoint_ms", "ms"},
	{"fleetd.replay_passes", "count"},
	{"fleetd.restart_s", "s"},

	{"turboca.pass_ms_p50", "ms"},
	{"turboca.pass_ms_p99", "ms"},
	{"turboca.hop_level_ms_p50", "ms"},
	{"turboca.invocations", "count"},
	{"turboca.accept_ratio", "ratio"},
	{"turboca.rescore_reuse_ratio", "ratio"},
	{"turboca.switches_planned", "count"},

	{"backend.poll_ms_p50", "ms"},
	{"backend.reconcile_ms_p50", "ms"},
	{"backend.polls", "count"},
	{"backend.push_fail_ratio", "ratio"},

	{"littletable.insert_us_p50", "us"},
	{"littletable.query_us_p50", "us"},
	{"littletable.rows_inserted", "count"},
	{"littletable.rows_pruned", "count"},

	{"runtime.allocs_per_pass", "count"},
	{"runtime.allocs_per_sim_s", "count"},
	{"runtime.gc_cycles", "count"},

	{"testbed.run_s.baseline", "s"},
	{"testbed.run_s.fastack", "s"},
	{"testbed.goodput_mbps", "Mbps"},
	{"testbed.fastack_gain", "ratio"},
	{"sim.events", "count"},
	{"sim.events_per_s", "1/s"},
	{"mac.ampdu_mpdus_p50", "count"},
	{"mac.lat80211_ms_p50", "ms"},
	{"tcpstack.retransmits", "count"},
	{"tcpstack.timeouts", "count"},
	{"fastack.fast_acks_sent", "count"},
	{"fastack.client_acks_dropped", "count"},
	{"fastack.local_retransmits", "count"},
	{"fastack.cache_hit_ratio", "ratio"},

	{"trace.spans", "count"},
	{"trace.dropped", "count"},
	{"trace.window_self_ms_p50", "ms"},
	{"trace.turboca_share", "ratio"},
	{"trace.backend_share", "ratio"},

	{"overhead.setup_s", "s"},
	{"overhead.sim_s_per_wall_s", "ratio"},
	{"overhead.window_ms_p50", "ms"},
	{"overhead.window_ms_p90", "ms"},
	{"overhead.round_s", "s"},
	{"overhead.bytes_per_network", "B"},
	{"overhead.quality", "ratio"},
}

// units maps every metric name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, l := range [][]metricSpec{endToEndMetrics, perLayerMetrics} {
		for _, s := range l {
			m[s.Name] = s.Unit
		}
	}
	return m
}()
