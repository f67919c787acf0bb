//! Traffic-engineering sweep: negotiated-congestion TE (`fatpaths-te`)
//! scored against static FatPaths layers, ECMP, and the `fatpaths-mcf`
//! cut/volumetric throughput upper bound on adversarial and skewed
//! matrices.
//!
//! Each (topology × matrix) cell shares one static layer set and one
//! router demand vector; the TE cell negotiates the layers against that
//! matrix (PathFinder-style present + historic congestion pricing) and
//! every scheme is scored by [`fatpaths_te::edge_loads`] under the same
//! equal-flowlet-split demand model, so `achieved / optimal` ratios are
//! directly comparable across rows. Deterministic at any thread count:
//! the grid runs as a [`Grid`] sweep, seeds derive from cell
//! coordinates, and rows assemble in grid order.

use crate::common::{acceptance_pair, f, is_smoke, label, write_summary, write_text, Table};
use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_mcf::{throughput_upper_bound, RouterDemand};
use fatpaths_net::topo::Topology;
use fatpaths_sim::{cell_seed, coord_str, Grid, Scenario, SchemeSpec, TeConfig, TeScheme};
use fatpaths_te::{achieved_throughput, edge_loads, endpoint_demands};
use fatpaths_workloads::matrices::{matrix_flows, MatrixSpec};
use std::io;

/// The scheme axis: static layers, the same layers negotiated, ECMP.
const SCHEMES: [&str; 3] = ["fatpaths", "te", "ecmp"];

/// The traffic matrices TE is scored on: the worst-case permutation the
/// MAT analysis uses, and a heavy-hitter skew.
fn matrices() -> Vec<MatrixSpec> {
    vec![
        MatrixSpec::WorstCase { intensity: 0.7 },
        MatrixSpec::HeavyHitter {
            hotspots: 2,
            skew: 0.5,
        },
    ]
}

/// One (topology, matrix) context shared by all scheme cells.
struct Prep {
    matrix_label: String,
    demands: Vec<RouterDemand>,
    tables: RoutingTables,
    upper: f64,
}

/// Metrics of one grid cell, pre-assembly.
struct CellOut {
    layers: usize,
    achieved: f64,
    /// `(iterations, converged)` of the negotiation (TE rows only).
    negotiation: Option<(usize, bool)>,
}

/// Runs the TE sweep grid on the given topologies and returns
/// `(csv_text, summary_text)`; byte-identical at any thread count (the
/// parity suite pins this with miniature topologies).
pub fn te_matrix_on(topos: Vec<Topology>, n_layers: usize, rho: f64) -> (String, String) {
    let specs = matrices();
    // Per (topology, matrix) prep: demands, the static layer tables both
    // the `fatpaths` and `te` rows start from, and the throughput bound.
    let prep = Grid::new([topos.len(), specs.len()]).run(|[ti, mi]| {
        let (topo, spec) = (&topos[ti], &specs[mi]);
        let mseed = cell_seed(
            "te-matrix",
            &[coord_str(&label(topo)), coord_str(&spec.label())],
        );
        let flows = matrix_flows(topo, spec, mseed);
        let demands = endpoint_demands(topo, &flows);
        let lseed = cell_seed("te-layers", &[coord_str(&label(topo))]);
        let ls = build_random_layers(&topo.graph, &LayerConfig::new(n_layers, rho, lseed));
        let tables = RoutingTables::build(&topo.graph, &ls);
        let upper = throughput_upper_bound(topo, &demands);
        Prep {
            matrix_label: spec.label(),
            demands,
            tables,
            upper,
        }
    });
    let results = Grid::new([topos.len(), specs.len(), SCHEMES.len()]).run(|[ti, mi, si]| {
        let (topo, p) = (&topos[ti], &prep[[ti, mi]]);
        let g = &topo.graph;
        match SCHEMES[si] {
            "fatpaths" => CellOut {
                layers: n_layers,
                achieved: achieved_throughput(&edge_loads(&p.tables, g, &p.demands)),
                negotiation: None,
            },
            "te" => {
                let te = TeScheme::negotiate(g, &p.tables, &p.demands, &TeConfig::default());
                CellOut {
                    layers: n_layers,
                    achieved: achieved_throughput(&edge_loads(&te, g, &p.demands)),
                    negotiation: Some((te.iterations(), te.converged())),
                }
            }
            _ => {
                let ecmp = Scenario::on(topo)
                    .scheme(SchemeSpec::Minimal)
                    .build_scheme();
                CellOut {
                    layers: 1,
                    achieved: achieved_throughput(&edge_loads(&ecmp, g, &p.demands)),
                    negotiation: None,
                }
            }
        }
    });
    let mut table = Table::new(&[
        "topology",
        "matrix",
        "scheme",
        "layers",
        "achieved",
        "optimal",
        "ratio",
        "iterations",
        "converged",
    ]);
    let mut summary = String::from(
        "Traffic engineering — negotiated layers vs static FatPaths vs ECMP vs throughput bound\n",
    );
    for ([ti, mi, si], c) in results.iter() {
        let (topo, p) = (&topos[ti], &prep[[ti, mi]]);
        if si == 0 {
            summary.push_str(&format!(
                "-- {} × {} ({} commodities, optimal {:.4}) --\n",
                label(topo),
                p.matrix_label,
                p.demands.len(),
                p.upper
            ));
        }
        let (iterations, converged) = match c.negotiation {
            Some((i, conv)) => (i.to_string(), conv.to_string()),
            None => Default::default(),
        };
        table.row(&[
            &label(topo),
            &p.matrix_label,
            &SCHEMES[si],
            &c.layers,
            &f(c.achieved),
            &f(p.upper),
            &f(c.achieved / p.upper),
            &iterations,
            &converged,
        ]);
        summary.push_str(&format!(
            "{:<9} achieved {:>8.4}  ratio {:>6.3}\n",
            SCHEMES[si],
            c.achieved,
            c.achieved / p.upper
        ));
        if si + 1 == SCHEMES.len() {
            let static_t = results[[ti, mi, 0]].achieved;
            let te_t = results[[ti, mi, 1]].achieved;
            summary.push_str(&format!(
                "   TE gain over static layers: {:+.1}%\n",
                (te_t / static_t - 1.0) * 100.0
            ));
        }
    }
    summary.push_str(
        "TE starts from the static tables (iteration 0) and keeps the best iteration,\n\
         so its row is never below the fatpaths row; gains concentrate where the\n\
         matrix is skewed and static layer hashing collides.\n",
    );
    (table.into_text(), summary)
}

/// Runs the sweep on SF + FT3 (the acceptance pair) at the small class,
/// or miniature instances under the CI smoke gate.
pub fn te(quick: bool) -> io::Result<()> {
    let _ = quick; // grid is MCF/negotiation only — cheap at full scale
    let (topos, n_layers) = acceptance_pair(is_smoke());
    let (csv, summary) = te_matrix_on(topos, n_layers, 0.6);
    write_text("te.csv", &csv)?;
    write_summary("te", &summary)
}
