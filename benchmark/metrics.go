package main

// metricDef is one row of the metric glossary. BENCHMARK.json lists the
// same names, units, directions and bounds; a test keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	// Per-layer metrics have none.
	Bound float64
	// Exact marks model-time and count metrics: on the workloads one
	// goroutine drives they are pure functions of the seed, equal between
	// sets and between the timed and the traced pass.
	Exact bool
	// Untraced marks the host-time metrics of the untraced repeats that
	// are per-layer only because no bound holds for them on a shared host.
	Untraced bool
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it is predicted to move.
	Moves string
	Help  string
}

// endToEnd is what a user of the scheduler sees and what a bound holds
// for: set-up time, memory, and the model-time QoS metrics. Throughput, CPU
// and the latencies are measured on the same untraced repeats but live
// among the driver.* metrics below: this host's speed drifts by ±20 % over
// minutes, longer than any run, so their run-to-run spread exceeds every
// bound the contract allows.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Help: "corpus and environment generation, server or fleet construction, journal open, one untimed 200-job warm-up; fed_durable sets up three times per repeat and reports the median"},
	{Name: "alloc_kb_per_job", Unit: "KiB", Better: "lower", Bound: 0.06,
		Help: "runtime.MemStats.TotalAlloc delta over the timed section ÷ jobs offered"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.12,
		Help: "max RSS of the repeat's own child process"},
	{Name: "deadline_met_ratio", Unit: "ratio", Better: "higher", Bound: 0.10, Exact: true,
		Help: "jobs completed at or before their deadline ÷ jobs offered (model time); refused, shed, drained and rejected jobs are misses"},
	{Name: "mean_cost_cf", Unit: "CF", Better: "lower", Bound: 0.08, Exact: true,
		Help: "mean JobResult.Cost over completed jobs (model time)"},
	{Name: "stretch_p50", Unit: "ratio", Better: "lower", Bound: 0.03, Exact: true,
		Help: "median over completed jobs of (Finish − Arrival) ÷ critical path length at base times (model time)"},
}

// perLayer metrics are named <module>.<metric>. Times come from the traced
// pass (spans and probes); counts from the program's own registry and
// public accessors, read after every repeat of either pass; the Untraced
// driver.* host times from the untraced repeats.
var perLayer = []metricDef{
	{Name: "service.submit_us_p50", Unit: "us", Better: "lower", Moves: "driver.ack_p50_ms on fed_durable", Help: "service.submit span"},
	{Name: "service.process_us_per_job", Unit: "us", Better: "lower", Moves: "driver.decisions_per_s on svc_backlog", Help: "service.process and process_batch spans, inclusive"},
	{Name: "service.self_us_per_job", Unit: "us", Better: "lower", Moves: "driver.decisions_per_s on svc_backlog", Help: "wall attributed to service.* spans and to nothing beneath them"},
	{Name: "service.queue_wait_ms_p50", Unit: "ms", Better: "lower", Moves: "driver.decision_p50_ms on fed_durable and svc_backlog", Help: "grid_service_queue_wait_seconds histogram"},
	{Name: "service.shed_per_job", Unit: "count", Better: "lower", Exact: true, Moves: "deadline_met_ratio on svc_backlog", Help: "queued jobs displaced under overload"},
	{Name: "service.drain_ms", Unit: "ms", Better: "lower", Moves: "driver.decisions_per_s on svc_backlog", Help: "Drain call"},
	{Name: "service.restore_ms_per_kjob", Unit: "ms", Better: "lower", Moves: "driver.recovery_ms_per_kjob on fed_durable", Help: "service.New + Restore of both shards ÷ accepted kjobs"},

	{Name: "journal.appends_per_job", Unit: "count", Better: "lower", Exact: true, Moves: "driver.ack_p50_ms, driver.cpu_ms_per_job on fed_durable", Help: "grid_journal_appends_total of router and shards"},
	{Name: "journal.fsyncs_per_job", Unit: "count", Better: "lower", Exact: true, Moves: "driver.ack_p50_ms on fed_durable", Help: "grid_journal_fsyncs_total of router and shards"},
	{Name: "journal.append_us_p50", Unit: "us", Better: "lower", Moves: "driver.ack_p50_ms on fed_durable", Help: "probe: Append of the three lifecycle records per job on a fresh directory"},
	{Name: "journal.busy_us_per_job", Unit: "us", Better: "lower", Moves: "driver.cpu_ms_per_job on fed_durable", Help: "probe: time inside Append per job"},
	{Name: "journal.bytes_per_record", Unit: "B", Better: "lower", Moves: "driver.recovery_ms_per_kjob on fed_durable", Help: "probe: directory size ÷ records"},
	{Name: "journal.recover_us_per_record", Unit: "us", Better: "lower", Moves: "driver.recovery_ms_per_kjob on fed_durable", Help: "journal.Recover on the copied directories"},

	{Name: "metasched.adopt_us_p50", Unit: "us", Better: "lower", Moves: "driver.decisions_per_s on vo_faults", Help: "metasched.adopt span"},
	{Name: "metasched.self_us_per_job", Unit: "us", Better: "lower", Moves: "driver.decisions_per_s on svc_steady and vo_faults", Help: "adopt/fallback self time: snapshot, arbiter, bookkeeping"},
	{Name: "metasched.fallback_us_p50", Unit: "us", Better: "lower", Moves: "driver.cpu_ms_per_job on vo_faults", Help: "metasched.fallback span"},
	{Name: "metasched.fallbacks_per_job", Unit: "count", Better: "lower", Exact: true, Moves: "driver.cpu_ms_per_job on vo_faults", Help: "in-domain re-anchored levels"},
	{Name: "metasched.reallocations_per_job", Unit: "count", Better: "lower", Exact: true, Moves: "driver.cpu_ms_per_job on vo_faults", Help: "cross-domain moves"},
	{Name: "metasched.retries_per_job", Unit: "count", Better: "lower", Exact: true, Moves: "driver.cpu_ms_per_job on vo_faults", Help: "backoff-delayed recovery attempts"},
	{Name: "metasched.placer_conflict_ratio", Unit: "ratio", Better: "lower", Exact: true, Moves: "driver.decisions_per_s on svc_steady", Help: "conflicts ÷ (commits + conflicts): wasted builds"},
	{Name: "metasched.placer_seq_fallbacks_per_job", Unit: "count", Better: "lower", Exact: true, Moves: "driver.decisions_per_s on svc_steady", Help: "jobs that exhausted the optimistic rounds"},

	{Name: "strategy.generate_us_p50", Unit: "us", Better: "lower", Moves: "driver.decisions_per_s on svc_steady", Help: "strategy.generate span"},
	{Name: "strategy.generate_us_p99", Unit: "us", Better: "lower", Moves: "driver.decision_p99_ms on svc_steady", Help: "strategy.generate span"},
	{Name: "strategy.self_us_per_job", Unit: "us", Better: "lower", Moves: "driver.decisions_per_s on svc_steady", Help: "wall attributed to strategy.* spans alone"},
	{Name: "strategy.levels_built_per_job", Unit: "count", Better: "lower", Exact: true, Moves: "driver.cpu_ms_per_job on svc_steady", Help: "grid_strategy_levels_built_total"},
	{Name: "strategy.levels_failed_per_job", Unit: "count", Better: "lower", Exact: true, Moves: "driver.cpu_ms_per_job on svc_backlog", Help: "grid_strategy_levels_failed_total"},

	{Name: "criticalworks.build_us_p50", Unit: "us", Better: "lower", Moves: "driver.decisions_per_s on svc_steady", Help: "criticalworks.build span"},
	{Name: "criticalworks.dp_us_per_job", Unit: "us", Better: "lower", Moves: "driver.decisions_per_s on svc_steady", Help: "criticalworks.dp spans, inclusive"},
	{Name: "criticalworks.self_us_per_job", Unit: "us", Better: "lower", Moves: "driver.decisions_per_s on svc_steady", Help: "wall attributed to criticalworks.* spans"},
	{Name: "criticalworks.builds_per_job", Unit: "count", Better: "lower", Exact: true, Moves: "driver.cpu_ms_per_job on svc_steady", Help: "grid_criticalworks_builds_total"},
	{Name: "criticalworks.evaluations_per_job", Unit: "count", Better: "lower", Exact: true, Moves: "driver.cpu_ms_per_job on svc_steady", Help: "DP slot-fitting probes"},
	{Name: "criticalworks.collisions_per_job", Unit: "count", Better: "lower", Exact: true, Moves: "mean_cost_cf on svc_backlog", Help: "grid_criticalworks_collisions_total"},
	{Name: "criticalworks.repair_hit_ratio", Unit: "ratio", Better: "higher", Exact: true, Moves: "driver.cpu_ms_per_job on vo_faults", Help: "(hits + splices) ÷ (hits + splices + full rebuilds)"},
	{Name: "criticalworks.snapshot_us_p50", Unit: "us", Better: "lower", Moves: "driver.decisions_per_s, alloc_kb_per_job on svc_backlog", Help: "probe: SnapshotVersioned(env) at every arrival tick"},

	{Name: "resource.reservations_live_p50", Unit: "count", Better: "lower", Moves: "alloc_kb_per_job on svc_backlog", Help: "probe: live reservations over all nodes at arrival ticks"},
	{Name: "resource.firstfree_ns_p50", Unit: "ns", Better: "lower", Moves: "driver.cpu_ms_per_job on svc_backlog", Help: "probe: FirstFree of the next job's first task, per node"},
	{Name: "resource.conflictswith_ns_p50", Unit: "ns", Better: "lower", Moves: "driver.cpu_ms_per_job on svc_backlog", Help: "probe: ConflictsWith of the same window, per node"},
	{Name: "resource.reserve_release_ns_p50", Unit: "ns", Better: "lower", Moves: "driver.cpu_ms_per_job on svc_backlog and vo_faults", Help: "probe: Reserve + FirstFree + Release on a clone of the busiest book"},

	{Name: "sim.events_per_job", Unit: "count", Better: "lower", Exact: true, Moves: "driver.decisions_per_s on vo_faults", Help: "engine events fired"},
	{Name: "sim.quiesce_us_p50", Unit: "us", Better: "lower", Moves: "driver.decisions_per_s on svc_steady and vo_faults", Help: "driver.quiesce span: Quiesce per batch on svc_steady, the one engine.Run on vo_faults"},

	{Name: "federation.submit_us_p50", Unit: "us", Better: "lower", Moves: "driver.ack_p50_ms on fed_durable", Help: "router POST /v1/jobs handler"},
	{Name: "federation.handoff_us_p50", Unit: "us", Better: "lower", Moves: "driver.decision_p50_ms on fed_durable", Help: "round trip of the router's shard client"},
	{Name: "federation.member_handoff_us_p50", Unit: "us", Better: "lower", Moves: "driver.decision_p50_ms on fed_durable", Help: "shard handoff handler"},
	{Name: "federation.terminal_notice_us_p50", Unit: "us", Better: "lower", Moves: "driver.cpu_ms_per_job on fed_durable", Help: "router terminal-notice handler"},
	{Name: "federation.self_us_per_job", Unit: "us", Better: "lower", Moves: "driver.cpu_ms_per_job on fed_durable", Help: "wall attributed to the handler and client wrappers alone"},
	{Name: "federation.hops_per_job", Unit: "count", Better: "lower", Moves: "driver.decision_p50_ms on fed_durable", Help: "grid_fed_handoffs_total ÷ jobs"},
	{Name: "federation.wire_kb_per_job", Unit: "KiB", Better: "lower", Moves: "driver.cpu_ms_per_job on fed_durable", Help: "request and response bodies through every wrapped handler"},
	{Name: "federation.handoff_retries_per_job", Unit: "count", Better: "lower", Moves: "driver.decision_p50_ms on fed_durable", Help: "grid_fed_handoff_retries_total"},
	{Name: "federation.reallocations_per_job", Unit: "count", Better: "lower", Moves: "driver.decision_p50_ms on fed_durable", Help: "grid_fed_reallocations_total; 0 fault-free"},

	{Name: "jobio.decode_us_p50", Unit: "us", Better: "lower", Moves: "driver.ack_p50_ms on fed_durable", Help: "probe: unmarshal + Validate + ToJob of the request bodies"},
	{Name: "telemetry.scrape_ms", Unit: "ms", Better: "lower", Moves: "none: scraped after timing", Help: "one Prometheus exposition of the run's registries"},

	{Name: "driver.decisions_per_s", Unit: "jobs/s", Better: "higher", Untraced: true,
		Help: "jobs offered ÷ host wall of the timed section (first submit → Drain or engine.Run returns; on fed_durable → every job terminal at the router, so the open-loop rate caps it)"},
	{Name: "driver.cpu_ms_per_job", Unit: "ms", Better: "lower", Untraced: true,
		Help: "process user+sys CPU (getrusage) over the timed section ÷ jobs offered"},
	{Name: "driver.ack_p50_ms", Unit: "ms", Better: "lower", Untraced: true,
		Help: "due instant → acceptance acknowledged: HTTP 202 from the router on fed_durable, Submit returning in process"},
	{Name: "driver.decision_p50_ms", Unit: "ms", Better: "lower", Untraced: true,
		Help: "due instant → first activate or reject VO event for the job (Sched.Tracer); on vo_faults the due instant is the engine reaching the job's arrival"},
	{Name: "driver.ack_p99_ms", Unit: "ms", Better: "lower", Help: "tail of ack latency; not bounded: one host stall moves it 10×"},
	{Name: "driver.decision_p99_ms", Unit: "ms", Better: "lower", Help: "tail of decision latency"},
	{Name: "driver.late_p50_ms", Unit: "ms", Better: "lower", Help: "how late the open-loop generator sent, median"},
	{Name: "driver.late_max_ms", Unit: "ms", Better: "lower", Help: "how late the open-loop generator sent, worst"},
	{Name: "driver.backlog_end", Unit: "count", Better: "lower", Help: "accepted jobs not yet terminal when sending ended"},
	{Name: "driver.refused_ratio", Unit: "ratio", Better: "lower", Exact: true, Help: "submissions refused by design (429 overloaded or shed, 503 draining, infeasible at admission) ÷ offered"},
	{Name: "driver.recovery_ms_per_kjob", Unit: "ms", Better: "lower", Help: "journal.Open + Restore of router and both shards on fresh servers ÷ accepted kjobs"},
	{Name: "driver.gc_cpu_share", Unit: "ratio", Better: "lower", Help: "GC CPU ÷ process CPU over the timed section"},
	{Name: "driver.trace_overhead_ratio", Unit: "ratio", Better: "lower", Help: "traced ÷ untraced wall of the same repeat"},
	{Name: "driver.residual_share", Unit: "ratio", Better: "lower", Help: "share of the traced wall no layer span covers"},
	{Name: "driver.fsync_probe_us", Unit: "us", Better: "lower", Help: "median of 100 fsyncs of a 4 KiB file in the work directory"},
}

// allMetrics is the whole glossary, end-to-end first.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}
