//! Trace export: one telemetry-enabled reference run whose artifacts
//! feed the `fatpaths-trace` inspector and the CI trace gate.
//!
//! Runs the headline scenario (FatPaths layered routing, NDP, a
//! permutation workload) with [`fatpaths_sim::TelemetryConfig`] at full
//! span sampling and writes:
//!
//! * `results/trace.ndjson` — the full trace (meta, per-shard samples,
//!   per-link and per-layer byte counts, flow spans, repair ticks);
//! * `results/trace_timeseries.csv` — the per-interval time series.
//!
//! Both artifacts are byte-identical at any thread count for a fixed
//! shard count (the telemetry determinism contract); the parity suites
//! pin this on miniature topologies, and this experiment produces the
//! real artifact CI archives.

use crate::common::{acceptance_pair, is_smoke, permutation_flows, write_text};
use fatpaths_net::fault::FaultPlan;
use fatpaths_sim::{Scenario, SchemeSpec, TelemetryConfig};
use std::io;

/// Runs the traced reference scenario and writes both trace artifacts.
pub fn trace(quick: bool) -> io::Result<()> {
    let (topos, n_layers) = acceptance_pair(quick || is_smoke());
    let topo = &topos[0]; // the Slim Fly
    let flows = permutation_flows(topo, 21, 64 * 1024);
    // A mid-run link failure with detection gives the trace a repair
    // tick, so the quiescence summary has something to anchor on.
    let e = topo.graph.edge_vec()[0];
    let (res, tr) = Scenario::on(topo)
        .scheme(SchemeSpec::LayeredRandom { n_layers, rho: 0.6 })
        .workload(&flows)
        .seed(7)
        .fault_plan(FaultPlan::none().link_down_at(20_000_000, e.0, e.1))
        .detection_delay(10_000_000)
        .telemetry(TelemetryConfig {
            span_every: 1,
            seed: 7,
            ..TelemetryConfig::on()
        })
        .run_traced();
    let ndjson_path = write_text("trace.ndjson", &tr.to_ndjson())?;
    let csv_path = write_text("trace_timeseries.csv", &tr.to_timeseries_csv())?;
    println!(
        "trace — {} flows ({} completed), {} intervals, {} spans, {} wire bytes",
        res.flows.len(),
        res.completed().count(),
        tr.shard_rows
            .iter()
            .map(|r| r.iv)
            .max()
            .map_or(0, |m| m + 1),
        tr.spans.len(),
        tr.total_wire_bytes(),
    );
    println!("→ {}", ndjson_path.display());
    println!("→ {}", csv_path.display());
    Ok(())
}
