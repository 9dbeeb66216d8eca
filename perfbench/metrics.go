package main

// metricDef names one reported metric. A ratio names its base: the
// metric holding the denominator it was computed over, which the same
// run always reports too, so no ratio is read without the amount of work
// behind it.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	base   string // denominator metric of a ratio; "" for counts and totals
}

// endToEnd are the metrics a run with --trace 0 reports: what a user of
// the simulator sees, measured on host time with no tracing.
// speedup_vs_ref is how many times faster the program simulates the
// workload than the reference simulator in refsim/ on the same host at
// the same moment.
var endToEnd = []metricDef{
	{"speedup_vs_ref", "x", "higher", ""},
	{"setup_s", "s", "lower", ""},
	{"alloc_mb_per_run", "MB", "lower", ""},
	{"kallocs_per_run", "kobjects", "lower", ""},
	{"heap_live_mb", "MB", "lower", ""},
}

// perLayer are the metrics a run with --trace 1 reports, grouped by the
// layer (internal package) they describe. Simulated quantities are
// counted in simulated cycles; every time is host time.
var perLayer = []metricDef{
	{"profile.samples", "count", "higher", ""},
	{"trace.overhead_mcycles_per_s", "Mcycles/s", "higher", ""}, // traced minus untraced

	{"cache.cpu_share", "share", "lower", "profile.samples"},
	{"cache.ns_per_lookup", "ns", "lower", "cache.probe_lookups"},
	{"cache.probe_lookups", "count", "higher", ""},
	{"cache.l1_accesses", "count", "higher", ""},
	{"cache.l1_hit_ratio", "share", "higher", "cache.l1_accesses"},
	{"cache.l2_accesses", "count", "higher", ""},
	{"cache.l2_hit_ratio", "share", "higher", "cache.l2_accesses"},
	{"cache.setup_mb", "MB", "lower", ""},

	{"proc.cpu_share", "share", "lower", "profile.samples"},
	{"proc.mem_refs", "count", "higher", ""},
	{"proc.backpressure_stalls", "count", "lower", ""},

	{"workload.cpu_share", "share", "lower", "profile.samples"},
	{"workload.ns_per_op", "ns", "lower", "workload.probe_ops"},
	{"workload.probe_ops", "count", "higher", ""},

	{"protocol.cpu_share", "share", "lower", "profile.samples"},
	{"protocol.misses", "count", "lower", ""},
	{"protocol.requests", "count", "higher", ""},
	{"protocol.retry_ratio", "share", "lower", "protocol.requests"},
	{"protocol.clb_stall_cycles", "cycles", "lower", ""},

	{"sim.cpu_share", "share", "lower", "profile.samples"},
	{"sim.events", "count", "higher", ""},
	{"sim.ns_per_event", "ns", "lower", "sim.events"},

	{"network.cpu_share", "share", "lower", "profile.samples"},
	{"network.msgs_sent", "count", "higher", ""},
	{"network.hops_per_msg", "hops", "lower", "network.msgs_sent"},
	{"network.dropped", "count", "lower", ""},
	{"network.ns_per_send", "ns", "lower", "network.probe_sends"},
	{"network.probe_sends", "count", "higher", ""},

	{"core.cpu_share", "share", "lower", "profile.samples"},
	{"core.clb_appends", "count", "lower", ""},
	{"core.clb_full_rejections", "count", "lower", ""},
	{"core.clb_peak_kb", "KB", "lower", ""},
	{"core.validations", "count", "higher", ""},
	{"core.recoveries", "count", "lower", ""},
	{"core.recovery_cycles_p50", "cycles", "lower", "core.recoveries"},
	{"core.unrolled_entries", "count", "lower", ""},
	{"core.ns_per_append", "ns", "lower", "core.probe_appends"},
	{"core.probe_appends", "count", "higher", ""},
	{"core.ns_per_unroll_entry", "ns", "lower", "core.probe_unrolled"},
	{"core.probe_unrolled", "count", "higher", ""},

	{"machine.cpu_share", "share", "lower", "profile.samples"},
	{"machine.setup_ms", "ms", "lower", ""},
	{"machine.ms_per_mcycle", "ms", "lower", "machine.mcycles"},
	{"machine.mcycles", "Mcycles", "higher", ""},
	{"snoop.cpu_share", "share", "lower", "profile.samples"},
	{"snoop.setup_ms", "ms", "lower", ""},
	{"snoop.ms_per_mcycle", "ms", "lower", "snoop.mcycles"},
	{"snoop.mcycles", "Mcycles", "higher", ""},

	{"runner.cpu_share", "share", "lower", "profile.samples"},
	{"runner.runs", "count", "higher", ""},
	{"runner.workers", "count", "higher", ""},
	{"runner.run_ms_p50", "ms", "lower", "runner.runs"},
	{"runner.run_ms_p90", "ms", "lower", "runner.runs"},
	{"runner.queue_wait_ms_p50", "ms", "lower", "runner.runs"},
	{"runner.worker_busy_frac", "share", "higher", "runner.workers"},

	{"campaign.cpu_share", "share", "lower", "profile.samples"},
	{"campaign.expand_ms", "ms", "lower", ""},
	{"campaign.reduce_ms", "ms", "lower", ""},
	{"campaign.failed_runs", "count", "lower", ""},

	{"gc.cpu_share", "share", "lower", "profile.samples"},
	{"gc.cycles", "count", "lower", ""},
	{"gc.pause_ms", "ms", "lower", ""},
	{"unattributed.cpu_share", "share", "lower", "profile.samples"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects one run's metrics by name.
type metricSet map[string]metricValue

// put records a metric under its declared unit; a name missing from
// both tables is a programming error.
func (ms metricSet) put(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				ms[name] = metricValue{Value: v, Unit: d.unit}
				return
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}
