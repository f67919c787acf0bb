//! Adaptive-vs-oblivious flowlet sweep: CONGA/LetFlow-style local
//! congestion awareness ([`fatpaths_sim::AdaptiveMode::QueueDepth`])
//! scored against the paper's oblivious hash re-pick, with and without
//! negotiated-congestion TE — the data-plane half of the adaptivity
//! axis the multipathing survey (arXiv:2007.03776) makes central, now
//! that the TE sweep covers the control-plane half.
//!
//! Grid: topology × matrix × {static, te} × {oblivious, adaptive}. Each
//! cell runs the same seeded adversarial matrix (worst-case permutation,
//! heavy-hitter skew, synchronized incast from
//! [`fatpaths_workloads::matrices`]) under NDP over FatPaths layers and
//! measures on-time goodput: payload bits of flows completing within
//! [`ON_TIME_PS`] of injection, per on-time-window second. Deterministic
//! at any thread and shard count: the grid runs as a [`Grid`] sweep,
//! seeds derive from cell coordinates, rows assemble in grid order, and
//! the adaptive decision itself is a pure function of shard-local queue
//! snapshots (pinned by `shard_parity` and `parallel_parity`).

use crate::common::{
    acceptance_pair, f, is_smoke, label, on_time_goodput, write_summary, write_text, Table,
    ON_TIME_PS,
};
use fatpaths_net::topo::Topology;
use fatpaths_sim::metrics::Summary;
use fatpaths_sim::{cell_seed, coord_str, AdaptiveMode, Grid, Scenario, SchemeSpec, TeConfig};
use fatpaths_workloads::arrivals::FlowSpec;
use fatpaths_workloads::matrices::{matrix_flows, MatrixSpec};
use std::io;

/// Routing-table axis: the static seeded layers vs the same layers
/// negotiated against the cell's matrix.
const ROUTINGS: [&str; 2] = ["static", "te"];

/// Flowlet-boundary axis (maps onto [`AdaptiveMode`]).
const BOUNDARIES: [&str; 2] = ["oblivious", "adaptive"];

/// Payload per flow: 29 jumbo packets, so every flow outlives its
/// line-rate first window and spends most of its life pull-paced —
/// where flowlet gaps (and hence boundary decisions) actually occur.
const FLOW_BYTES: u64 = 256 * 1024;

/// Hard stop: adversarial cells that strand flows must not run forever.
const HORIZON_PS: u64 = 20_000_000_000; // 20 ms

/// The adversarial matrices adaptivity is scored on.
fn matrices() -> Vec<MatrixSpec> {
    vec![
        MatrixSpec::WorstCase { intensity: 0.7 },
        MatrixSpec::HeavyHitter {
            hotspots: 2,
            skew: 0.5,
        },
        MatrixSpec::Incast {
            targets: 4,
            fan_in: 8,
        },
    ]
}

/// Metrics of one grid cell, pre-assembly.
struct CellOut {
    flows: usize,
    completed: usize,
    on_time: usize,
    goodput_gbps: f64,
    trims: u64,
    drops: u64,
    fct: Summary,
    /// Telemetry-derived: peak per-layer wire utilization over the run.
    peak_layer_gbps: f64,
    scheme_label: String,
}

/// Runs the adaptive grid on the given topologies and returns
/// `(csv_text, summary_text)`; byte-identical at any thread count (the
/// parity suite pins this with miniature topologies).
pub fn adaptive_matrix_on(topos: Vec<Topology>, n_layers: usize, rho: f64) -> (String, String) {
    let specs = matrices();
    let grid = Grid::new([topos.len(), specs.len(), ROUTINGS.len(), BOUNDARIES.len()]);
    let results = grid.run(|[ti, mi, ri, bi]| {
        let topo = &topos[ti];
        let spec = &specs[mi];
        let mseed = cell_seed(
            "adaptive-matrix",
            &[coord_str(&label(topo)), coord_str(&spec.label())],
        );
        let flows: Vec<FlowSpec> = matrix_flows(topo, spec, mseed)
            .into_iter()
            .map(|(src, dst)| FlowSpec {
                src,
                dst,
                size: FLOW_BYTES,
                start: 0,
            })
            .collect();
        let lseed = cell_seed("adaptive-layers", &[coord_str(&label(topo))]);
        let mut sc = Scenario::on(topo)
            .scheme(SchemeSpec::LayeredRandom { n_layers, rho })
            .workload(&flows)
            .seed(lseed)
            .horizon(HORIZON_PS);
        if ROUTINGS[ri] == "te" {
            sc = sc.traffic_engineered(TeConfig::default());
        }
        if BOUNDARIES[bi] == "adaptive" {
            sc = sc.adaptive(AdaptiveMode::QueueDepth);
        }
        let scheme_label = sc.label();
        // Traced run: the trace feeds the peak-layer-utilization column
        // (deterministic — integer byte counts per canonical interval).
        let (res, trace) = sc.run_traced();
        // On-time goodput over the on-time window itself.
        let (on_time, goodput_gbps) = on_time_goodput(&res, ON_TIME_PS);
        CellOut {
            flows: res.flows.len(),
            completed: res.completed().count(),
            on_time,
            goodput_gbps,
            trims: res.trims,
            drops: res.drops,
            fct: Summary::of(&res.fcts(None)),
            peak_layer_gbps: trace.peak_layer_gbps(),
            scheme_label,
        }
    });
    let mut table = Table::new(&[
        "topology",
        "matrix",
        "routing",
        "boundary",
        "scheme",
        "flows",
        "completed",
        "on_time",
        "goodput_gbps",
        "trims",
        "drops",
        "fct_mean_ms",
        "fct_p99_ms",
        "peak_layer_gbps",
    ]);
    let mut summary =
        String::from("Adaptive flowlets — queue-depth boundary steering vs oblivious hashing\n");
    for (ti, topo) in topos.iter().enumerate() {
        summary.push_str(&format!(
            "-- {} ({} endpoints, {} routers) --\n",
            label(topo),
            topo.num_endpoints(),
            topo.num_routers()
        ));
        for ([_, mi, ri, bi], c) in results.under(ti) {
            table.row(&[
                &label(topo),
                &specs[mi].label(),
                &ROUTINGS[ri],
                &BOUNDARIES[bi],
                &c.scheme_label,
                &c.flows,
                &c.completed,
                &c.on_time,
                &f(c.goodput_gbps),
                &c.trims,
                &c.drops,
                &f(c.fct.mean * 1e3),
                &f(c.fct.p99 * 1e3),
                &f(c.peak_layer_gbps),
            ]);
            if BOUNDARIES[bi] != "adaptive" {
                continue;
            }
            // One summary line per (matrix, routing): the adaptive cell
            // against its oblivious twin.
            let (obl, ada) = (&results[[ti, mi, ri, 0]], c);
            summary.push_str(&format!(
                "{:<9} {:<6}: oblivious {:>8.4} Gb/s ({:>4} on time)  \
                 adaptive {:>8.4} Gb/s ({:>4} on time)  {:+.1}%\n",
                specs[mi].label(),
                ROUTINGS[ri],
                obl.goodput_gbps,
                obl.on_time,
                ada.goodput_gbps,
                ada.on_time,
                if obl.goodput_gbps > 0.0 {
                    (ada.goodput_gbps / obl.goodput_gbps - 1.0) * 100.0
                } else {
                    0.0
                }
            ));
        }
    }
    summary.push_str(
        "Adaptive boundaries read the sender's attachment-router queue depths (shard-\n\
         local by construction) and steer each new flowlet to the least-loaded layer;\n\
         oblivious boundaries redraw uniformly from the flowlet counter. Gains\n\
         concentrate where local queues predict path congestion — skewed and incast\n\
         matrices — and compose with TE, which reshapes the same tables offline.\n",
    );
    (table.into_text(), summary)
}

/// The shipped experiment: small-class SF + FT3 (the acceptance pair),
/// or miniature instances under `--quick` / the CI smoke gate.
pub fn adaptive(quick: bool) -> io::Result<()> {
    let (topos, n_layers) = acceptance_pair(quick || is_smoke());
    let (csv, summary) = adaptive_matrix_on(topos, n_layers, 0.6);
    write_text("adaptive.csv", &csv)?;
    write_summary("adaptive", &summary)
}
