//! The benchmark's metric catalogue — the single place metric names,
//! units and directions are written down in code. `BENCHMARK.json`
//! repeats it for the driver; a unit test keeps the two identical.

/// One metric: name, unit, which direction is better and — for an
/// end-to-end metric — the regression bound.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The share of the parent's median by which the metric may get
    /// worse before a change counts as a regression (end-to-end
    /// metrics only; per-layer metrics explain, they do not gate).
    pub bound: Option<f64>,
}

const fn e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees, same names on every workload.
/// `setup_s`, `run_s` and `peak_rss_mb` are host measurements; the four
/// `completion_share` / `sim_*` metrics are simulated results,
/// deterministic for a given seed.
pub const END_TO_END: [Metric; 7] = [
    e("setup_s", "s", "lower", 0.25),
    e("run_s", "s", "lower", 0.25),
    e("peak_rss_mb", "MiB", "lower", 0.15),
    e("completion_share", "ratio", "higher", 0.01),
    e("sim_fct_p50_us", "us", "lower", 0.12),
    e("sim_fct_p99_us", "us", "lower", 0.25),
    e("sim_goodput_gbps", "Gbit/s", "higher", 0.10),
];

/// Single-layer metrics, named `<crate>.<what>`. Every workload reports
/// every one; a layer a workload does not cross reads 0. `*_2t` metrics
/// come from twins on the two-thread pool; everything else is measured
/// on one thread.
pub const PER_LAYER: [Metric; 83] = [
    m("net.build_s", "s", "lower"),
    m("net.routers", "count", "lower"),
    m("net.endpoints", "count", "higher"),
    m("net.links", "count", "lower"),
    m("workloads.gen_s", "s", "lower"),
    m("workloads.flows", "count", "higher"),
    m("workloads.payload_bytes", "bytes", "higher"),
    m("diversity.apsp_s", "s", "lower"),
    m("diversity.apsp_ns_per_pair", "ns", "lower"),
    m("diversity.apsp_speedup_2t", "ratio", "higher"),
    m("core.layers_s", "s", "lower"),
    m("core.tables_s", "s", "lower"),
    m("core.table_rows", "count", "lower"),
    m("core.tables_ns_per_row", "ns", "lower"),
    m("core.tables_speedup_2t", "ratio", "higher"),
    m("core.dm_s", "s", "lower"),
    m("core.repair_s", "s", "lower"),
    m("core.repair_rows", "count", "lower"),
    m("core.repair_ns_per_row", "ns", "lower"),
    m("te.negotiate_s", "s", "lower"),
    m("te.iterations", "count", "lower"),
    m("te.s_per_iteration", "s", "lower"),
    m("te.peak_over_static", "ratio", "lower"),
    m("te.negotiate_speedup_2t", "ratio", "higher"),
    m("fib.compile_s", "s", "lower"),
    m("fib.raw_entries", "count", "lower"),
    m("fib.entries", "count", "lower"),
    m("fib.compression", "ratio", "higher"),
    m("fib.ns_per_raw_entry", "ns", "lower"),
    m("fib.compile_speedup_2t", "ratio", "higher"),
    m("mcf.bound_s", "s", "lower"),
    m("mcf.bound", "ratio", "higher"),
    m("sim.achieved_over_bound", "ratio", "higher"),
    m("sim.build_s", "s", "lower"),
    m("sim.run_s", "s", "lower"),
    m("sim.run_share", "ratio", "higher"),
    m("sim.wire_bytes", "bytes", "lower"),
    m("sim.ns_per_wire_kib", "ns", "lower"),
    m("sim.sim_time_ms", "ms", "lower"),
    m("sim.host_s_per_sim_ms", "s", "lower"),
    m("sim.windows", "count", "lower"),
    m("sim.us_per_window", "us", "lower"),
    m("sim.mailbox_msgs", "count", "lower"),
    m("sim.mailbox_bytes", "bytes", "lower"),
    m("sim.mailbox_msgs_per_window", "count", "lower"),
    m("sim.run_s_k1", "s", "lower"),
    m("sim.shard_overhead_share", "ratio", "lower"),
    m("sim.run_s_2t", "s", "lower"),
    m("sim.speedup_2t", "ratio", "higher"),
    m("sim.rss_delta_mb", "MiB", "lower"),
    m("sim.bytes_per_endpoint", "bytes", "lower"),
    m("sim.epochs_published", "count", "lower"),
    m("sim.repair_ticks", "count", "lower"),
    m("sim.repair_rows", "count", "lower"),
    m("sim.fib_rows", "count", "lower"),
    m("sim.trims", "count", "lower"),
    m("sim.drops", "count", "lower"),
    m("sim.retx", "count", "lower"),
    m("sim.retx_share", "ratio", "lower"),
    m("sim.unroutable", "count", "lower"),
    m("sim.host_dead", "count", "lower"),
    m("sim.aborted", "count", "lower"),
    m("sim.flows_completed", "count", "higher"),
    m("sim.digest", "hash48", "lower"),
    m("telemetry.run_overhead_share", "ratio", "lower"),
    m("telemetry.rss_overhead_mb", "MiB", "lower"),
    m("telemetry.ndjson_s", "s", "lower"),
    m("telemetry.csv_s", "s", "lower"),
    m("telemetry.parse_s", "s", "lower"),
    m("telemetry.ndjson_bytes", "bytes", "lower"),
    m("telemetry.ndjson_mb_per_s", "MB/s", "higher"),
    m("telemetry.spans", "count", "lower"),
    m("telemetry.intervals", "count", "lower"),
    m("sweep.cells", "count", "lower"),
    m("sweep.build_s_sum", "s", "lower"),
    m("sweep.cell_s_max", "s", "lower"),
    m("sweep.cell_max_share", "ratio", "lower"),
    m("sweep.run_s_2t", "s", "lower"),
    m("sweep.speedup_2t", "ratio", "higher"),
    m("sweep.pool_efficiency", "ratio", "higher"),
    m("harness.calib_s", "s", "lower"),
    m("harness.rep_s", "s", "lower"),
    m("harness.threads", "count", "lower"),
];
