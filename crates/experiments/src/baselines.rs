//! Unified baseline comparison (Table I § VII made executable): every
//! routing scheme the paper discusses — FatPaths layered routing, ECMP,
//! packet spraying, LetFlow, SPAIN, PAST, k-shortest-paths, and Valiant —
//! packet-simulated under identical transport and workload on multiple
//! topologies. This is the experiment the `RoutingScheme` trait exists
//! for: before it, SPAIN/PAST/KSP/VLB could only be scored by static
//! theory figures (Fig. 9), never run through the event loop.
//!
//! The (topology × scheme) grid runs as a parallel [`Grid`] sweep;
//! [`baselines_matrix_on`] returns the CSV and summary as strings so the
//! parity suite can assert byte equality between pooled and
//! single-threaded execution.

use crate::common::{
    adversarial_pattern, f, label, pattern_workload, per_topo, post_warmup, small_topos,
    write_summary, write_text, SchemeArm, Table, FATPATHS,
};
use fatpaths_core::past::PastVariant;
use fatpaths_mcf::throughput_upper_bound;
use fatpaths_net::topo::{TopoKind, Topology};
use fatpaths_sim::metrics::Summary;
use fatpaths_sim::{Grid, LoadBalancing, Scenario, SchemeSpec};
use fatpaths_te::{achieved_throughput, edge_loads, endpoint_demands};
use std::io;

/// The full comparison matrix.
fn matrix() -> Vec<SchemeArm> {
    let minimal = |name, lb| SchemeArm::new(name, SchemeSpec::Minimal).lb(lb);
    vec![
        SchemeArm::new("fatpaths", FATPATHS),
        minimal("ecmp", LoadBalancing::EcmpFlow),
        minimal("spray", LoadBalancing::PacketSpray),
        minimal("letflow", LoadBalancing::LetFlow),
        SchemeArm::new("spain", SchemeSpec::Spain { k_paths: 3 }),
        SchemeArm::new(
            "past",
            SchemeSpec::Past {
                variant: PastVariant::Bfs,
            },
        ),
        SchemeArm::new("ksp", SchemeSpec::Ksp { k: 4 }),
        SchemeArm::new("valiant", SchemeSpec::Valiant { n_layers: 9 }),
    ]
}

/// Metrics of one (topology, scheme) cell, ready for ordered assembly.
struct CellOut {
    layers: usize,
    completion_rate: f64,
    fct: Summary,
    trims: u64,
    retx: u64,
    mat_ratio: f64,
}

/// Runs the full matrix on the evaluation-size SF/DF/FT3 set at the
/// given injection window; see [`baselines_matrix_on`].
fn baselines_matrix(window: f64) -> (String, String) {
    let kinds = [TopoKind::SlimFly, TopoKind::Dragonfly, TopoKind::FatTree];
    baselines_matrix_on(small_topos(&kinds), window)
}

/// Runs the full scheme matrix on the given topologies and returns
/// `(csv_text, summary_text)`. Deterministic for any thread count: the
/// grid is a [`Grid`] sweep, and all output is assembled in grid order
/// after the parallel phase. The parity suite calls this with miniature
/// SF/DF/FT3 instances to pin thread-count invariance cheaply.
pub fn baselines_matrix_on(topos: Vec<Topology>, window: f64) -> (String, String) {
    // Per-topology prep (the shared adversarial workload), in parallel.
    let prep = per_topo(&topos, |topo| {
        let flows = pattern_workload(topo, &adversarial_pattern(topo), 150.0, window, false, 23);
        // Router traffic matrix of the workload + its MCF upper bound,
        // the denominator of every scheme's `mat_ratio` on this topology.
        let pairs: Vec<(u32, u32)> = flows.iter().map(|fl| (fl.src, fl.dst)).collect();
        let demands = endpoint_demands(topo, &pairs);
        let upper = throughput_upper_bound(topo, &demands);
        (flows, demands, upper)
    });
    let arms = matrix();
    // The (topology × scheme) grid itself.
    let results = Grid::new([topos.len(), arms.len()]).run(|[ti, si]| {
        let topo = &topos[ti];
        let (flows, demands, upper) = &prep[ti];
        let sc = arms[si].on(Scenario::on(topo).workload(flows).seed(5));
        let scheme = sc.build_scheme();
        let res = post_warmup(sc.run_with(&scheme), window);
        CellOut {
            layers: fatpaths_sim::RoutingScheme::num_layers(&scheme),
            completion_rate: res.completion_rate(),
            fct: Summary::of(&res.fcts(None)),
            trims: res.trims,
            retx: res.flows.iter().map(|fl| fl.retx as u64).sum(),
            mat_ratio: achieved_throughput(&edge_loads(&scheme, &topo.graph, demands)) / upper,
        }
    });
    // Ordered assembly: rows in grid order, summaries grouped per topology
    // with the fatpaths cell of that topology as the speedup reference.
    // `mat_ratio` is the scheme's achieved/optimal throughput on the
    // cell's traffic matrix: achieved comes from
    // [`fatpaths_te::edge_loads`] (equal flowlet split, unit capacities),
    // optimal from the [`throughput_upper_bound`] cut bound.
    let mut table = Table::new(&[
        "topology",
        "scheme",
        "layers",
        "completion_rate",
        "fct_mean_ms",
        "fct_p50_ms",
        "fct_p99_ms",
        "trims",
        "retx_total",
        "mat_ratio",
    ]);
    let mut summary =
        String::from("Baselines — every scheme packet-simulated, identical transport/workload\n");
    let fat_idx = arms
        .iter()
        .position(|a| a.name == "fatpaths")
        .expect("matrix must contain the fatpaths reference scheme");
    for (ti, topo) in topos.iter().enumerate() {
        summary.push_str(&format!(
            "-- {} ({} endpoints, {} flows) --\n",
            label(topo),
            topo.num_endpoints(),
            prep[ti].0.len()
        ));
        let fat_mean = results[[ti, fat_idx]].fct.mean;
        for ([_, si], c) in results.under(ti) {
            let name = arms[si].name;
            table.row(&[
                &label(topo),
                &name,
                &c.layers,
                &f(c.completion_rate),
                &f(c.fct.mean * 1e3),
                &f(c.fct.p50 * 1e3),
                &f(c.fct.p99 * 1e3),
                &c.trims,
                &c.retx,
                &f(c.mat_ratio),
            ]);
            summary.push_str(&format!(
                "{:<9} layers={:<4} mean {:>7.3} ms  p99 {:>8.3} ms  ({:.2}x fatpaths)\n",
                name,
                c.layers,
                c.fct.mean * 1e3,
                c.fct.p99 * 1e3,
                c.fct.mean / fat_mean
            ));
        }
    }
    summary.push_str(
        "Paper (§VII, Fig. 11/14): layered routing leads on the low-diameter networks;\n\
         SPAIN/PAST pay for tree-restricted paths, VLB pays double path length,\n\
         and the minimal-path family only competes where diversity exists (FT3).\n",
    );
    (table.into_text(), summary)
}

/// Runs the matrix on the small-class SF, DF, and FT3 under the skewed
/// adversarial workload (the regime where scheme differences are
/// starkest, Fig. 11) with the NDP transport.
pub fn baselines(quick: bool) -> io::Result<()> {
    let window = if quick { 0.003 } else { 0.006 };
    let (csv, summary) = baselines_matrix(window);
    write_text("baselines_matrix.csv", &csv)?;
    write_summary("baselines_matrix", &summary)
}
