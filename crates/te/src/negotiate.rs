//! The PathFinder negotiation loop over FatPaths layers.
//!
//! PathFinder routes FPGA nets through a shared wire graph by letting
//! them *negotiate*: every iteration reroutes each net along cheapest
//! paths where a wire's cost is its base cost scaled by a present
//! congestion penalty and an accumulated historic penalty, so persistent
//! conflicts price themselves out of contention. Here the "nets" are
//! the `(layer, destination)` forwarding trees of a FatPaths layer set,
//! the "wires" are network links, and the congestion signal is per-link
//! load under a concrete traffic matrix.
//!
//! The unit of negotiation is the whole tree, not a per-flow path:
//! destination-based forwarding means every router holds exactly one
//! next hop per `(layer, dst)`, and mixing rows from two different trees
//! toward the same destination can create forwarding loops. Trees are
//! therefore rebuilt wholesale each iteration — a weighted Dijkstra per
//! `(layer, dst)` on the layer subgraph (the `tree` module) — and the best
//! iteration's trees (lowest peak link load) are kept.

use crate::score::{edge_loads, peak_load};
use crate::tree::{build_tree, LayerCsr, PricedArc, TreeScratch};
use fatpaths_core::fwd::{PortTables, RoutingTables, NO_PORT};
use fatpaths_core::scheme::assert_layer_tags;
use fatpaths_mcf::RouterDemand;
use fatpaths_net::graph::Graph;
use rayon::prelude::*;

/// Historic-cost accumulation rate: every iteration each link adds
/// `HIST_FACTOR · max(0, load/mean − 1)` to its permanent penalty —
/// PathFinder's `hfac`. Larger values escape oscillation faster but
/// overshoot.
const HIST_FACTOR: f64 = 0.4;
/// Present-cost slope: a link currently carrying `load` costs
/// `(1 + hist) · (1 + PRESENT_FACTOR · load/mean)` — PathFinder's `pfac`,
/// applied to normalized load instead of wire overuse since links have
/// no hard signal capacity.
const PRESENT_FACTOR: f64 = 0.8;
/// Convergence threshold: negotiation stops when the peak link load
/// changes by less than this (relative) between iterations.
const EPSILON: f64 = 1e-3;

/// The negotiation loop's iteration budget. With the default budget it
/// converges on every paper-size topology class within a handful of
/// iterations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TeConfig {
    /// Iteration budget. Negotiation stops early on convergence; hitting
    /// the budget is reported via [`TeScheme::converged`]` == false`.
    pub max_iterations: usize,
}

impl Default for TeConfig {
    fn default() -> Self {
        TeConfig { max_iterations: 16 }
    }
}

/// Forwarding tables specialized to a traffic matrix by negotiated-
/// congestion routing, and the negotiation's statistics. The negotiated
/// [`PortTables`] are paired with the static layers they were negotiated
/// over ([`RoutingTables::from_parts`]), so they forward, compile through
/// `fatpaths-fib` and repair exactly like the static tables: a down link's
/// broken rows are rebuilt on the degraded layer by
/// [`RoutingTables::repair`].
#[derive(Clone, Debug)]
pub struct TeScheme {
    /// The negotiated ports (base-graph port numbering, like the static
    /// tables) over the static layers.
    tables: RoutingTables,
    iterations: usize,
    converged: bool,
    peak: f64,
}

impl TeScheme {
    /// Runs the negotiation: starts from the static `tables` (iteration
    /// 0 scores them unchanged, so the result is never worse than the
    /// input) and iterates reroute → measure → re-price over `demands`.
    ///
    /// Deterministic for fixed inputs at any thread count: demands are
    /// sorted, load accumulation ([`edge_loads`]) is sequential in demand
    /// order, tree rebuilds are pure functions of the iteration's price
    /// vector, and equal-cost predecessor ties break by
    /// `fnv1a(layer, src, dst)` — the same key the static build uses.
    ///
    /// Panics if `tables` has more layers than `u8` tags
    /// ([`MAX_LAYERS`](fatpaths_core::scheme::MAX_LAYERS)): the
    /// negotiated tables forward and repair every layer by its tag.
    pub fn negotiate(
        base: &Graph,
        tables: &RoutingTables,
        demands: &[RouterDemand],
        cfg: &TeConfig,
    ) -> TeScheme {
        assert_layer_tags(tables.n_layers());
        let m = base.m();
        let arc_eids = base.arc_edge_ids();
        let csrs: Vec<LayerCsr> = tables
            .layer_set()
            .graphs
            .iter()
            .map(|lg| LayerCsr::new(base, lg, &arc_eids))
            .collect();
        let mut demands = demands.to_vec();
        demands.sort_by_key(|d| (d.src, d.dst));
        let total: f64 = demands.iter().map(|d| d.demand).sum();
        let statics = tables.ports();
        // The best iteration's tables; `None` while iteration 0, the
        // static tables scored in place, is still the best.
        let mut best: Option<PortTables> = None;
        let (mut iterations, mut converged, mut best_peak) = (0, true, 0.0);
        if total > 0.0 && m > 0 {
            let mut hist = vec![0.0f64; m];
            let mut costs = vec![1.0f64; m];
            let mut loads = edge_loads(statics, base, &demands);
            let mut prev = peak_load(&loads);
            best_peak = prev;
            converged = false;
            // The next iteration's tables: the last iteration's, or a
            // beaten best. `rebuild_trees` writes every row, so they are
            // reused instead of reallocated.
            let mut spare: Option<PortTables> = None;
            for _ in 0..cfg.max_iterations {
                let mean = loads.iter().sum::<f64>() / m as f64;
                if mean <= 0.0 {
                    converged = true;
                    break;
                }
                for e in 0..m {
                    let norm = loads[e] / mean;
                    hist[e] += HIST_FACTOR * (norm - 1.0).max(0.0);
                    costs[e] = (1.0 + hist[e]) * (1.0 + PRESENT_FACTOR * norm);
                }
                iterations += 1;
                let mut cur = spare
                    .take()
                    .unwrap_or_else(|| PortTables::new(statics.n_layers(), statics.nr()));
                rebuild_trees(&csrs, &costs, &mut cur);
                loads = edge_loads(&cur, base, &demands);
                let peak = peak_load(&loads);
                if peak < best_peak {
                    best_peak = peak;
                    spare = best.replace(cur);
                } else {
                    spare = Some(cur);
                }
                if (prev - peak).abs() <= EPSILON * prev.max(f64::MIN_POSITIVE) {
                    converged = true;
                    break;
                }
                prev = peak;
            }
        }
        // `spare` is freed by now, so a clone of the static tables can
        // take its memory.
        let ports = best.unwrap_or_else(|| statics.clone());
        TeScheme {
            tables: RoutingTables::from_parts(ports, tables.layer_set().clone()),
            iterations,
            converged,
            peak: best_peak,
        }
    }

    /// Number of negotiation iterations executed (0 for an empty matrix).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// True when the peak link load settled (changed by less than 0.1%
    /// between iterations) before [`TeConfig::max_iterations`] ran out.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Peak per-link load of the kept (best) iteration under the
    /// negotiated matrix at unit demand scale — `1 / peak` is the
    /// achieved throughput the sweep reports.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// The negotiated tables over the static layers.
    pub fn tables(&self) -> &RoutingTables {
        &self.tables
    }
}

/// Rebuilds every `(layer, dst)` tree under the given per-edge prices —
/// one flat parallel pass, mirroring the static build's work division.
fn rebuild_trees(csrs: &[LayerCsr], costs: &[f64], cur: &mut PortTables) {
    let arcs: Vec<Vec<PricedArc>> = csrs.iter().map(|c| c.gather(costs)).collect();
    let nr = cur.nr();
    let rows: Vec<(usize, usize, &mut [u16])> = cur
        .layers_mut()
        .enumerate()
        .flat_map(|(l, t)| {
            t.chunks_mut(nr)
                .enumerate()
                .map(move |(dst, row)| (l, dst, row))
        })
        .collect();
    rows.into_par_iter()
        .for_each_init(TreeScratch::default, |scratch, (l, dst, row)| {
            row.fill(NO_PORT);
            build_tree(&csrs[l], &arcs[l], l as u32, dst as u32, scratch, row);
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatpaths_core::layers::{build_random_layers, LayerConfig, LayerSet};
    use fatpaths_core::repair::DownLinks;
    use fatpaths_core::scheme::{RoutingScheme, MAX_LAYERS};
    use proptest::prelude::*;

    /// The scoring walk negotiation used before it scored with
    /// [`edge_loads`], kept as its reference: per demand and layer, follow
    /// the layer's ports from the source, `demand / n_layers` on every
    /// hop. Every layer routes every pair (static and negotiated tables
    /// alike), so the walk never leaves its layer.
    fn measure_loads(base: &Graph, ports: &PortTables, demands: &[RouterDemand]) -> Vec<f64> {
        let edge_index: std::collections::HashMap<(u32, u32), u32> =
            base.edge_vec().into_iter().zip(0..).collect();
        let nl = ports.n_layers();
        let mut loads = vec![0.0f64; base.m()];
        for d in demands {
            let share = d.demand / nl as f64;
            for l in 0..nl {
                let (mut at, mut hops) = (d.src, 0usize);
                while at != d.dst {
                    let p = ports
                        .get(l, at, d.dst)
                        .expect("every layer routes every pair");
                    let nb = base.neighbor_at(at, p as u32);
                    loads[edge_index[&(at.min(nb), at.max(nb))] as usize] += share;
                    at = nb;
                    hops += 1;
                    if hops > ports.nr() {
                        break; // defensive cap; trees are loop-free
                    }
                }
            }
        }
        loads
    }

    fn bits(loads: &[f64]) -> Vec<u64> {
        loads.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // Random connected layer sets and random demands (self-pairs
        // included): the shared scorer equals the reference walk bit for
        // bit, on the static tables and on negotiated ones — the equality
        // `negotiate`'s peaks rest on.
        #[test]
        fn edge_loads_equal_the_reference_walk_bit_for_bit(
            n_layers in 1usize..5,
            rho in 0.4f64..0.9,
            seed in 0u64..1_000,
            raw in prop::collection::vec((0u32..50, 0u32..50, 0.01f64..10.0), 1..60),
        ) {
            let g = fatpaths_net::topo::slimfly::slim_fly(5, 1).unwrap().graph;
            let ls = build_random_layers(&g, &LayerConfig::new(n_layers, rho, seed));
            let rt = RoutingTables::build(&g, &ls);
            let demands: Vec<RouterDemand> = raw
                .iter()
                .map(|&(src, dst, demand)| RouterDemand { src, dst, demand })
                .collect();
            let cfg = TeConfig { max_iterations: 2 };
            let te = TeScheme::negotiate(&g, &rt, &demands, &cfg);
            for ports in [rt.ports(), te.tables().ports()] {
                prop_assert_eq!(
                    bits(&edge_loads(ports, &g, &demands)),
                    bits(&measure_loads(&g, ports, &demands))
                );
            }
        }
    }

    #[test]
    fn zero_iterations_forward_like_the_static_tables() {
        let topo = fatpaths_net::topo::slimfly::slim_fly(5, 1).unwrap();
        let g = &topo.graph;
        let rt = RoutingTables::build(g, &build_random_layers(g, &LayerConfig::new(4, 0.6, 3)));
        let demands: Vec<RouterDemand> = (0..g.n() as u32)
            .map(|src| RouterDemand {
                src,
                dst: (src * 7 + 3) % g.n() as u32,
                demand: 1.0,
            })
            .collect();
        let cfg = TeConfig { max_iterations: 0 };
        let te = TeScheme::negotiate(g, &rt, &demands, &cfg);
        assert_eq!(te.iterations(), 0);
        for tag in 0..=rt.n_layers() as u8 {
            for at in 0..g.n() as u32 {
                for dst in (0..g.n() as u32).filter(|&dst| dst != at) {
                    assert_eq!(
                        te.tables().candidate_ports(tag, at, dst),
                        rt.candidate_ports(tag, at, dst),
                        "tag {tag} {at}->{dst}"
                    );
                }
            }
        }
    }

    fn triangle_tables(n_layers: usize) -> (Graph, RoutingTables) {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let layers = LayerSet {
            graphs: vec![g.clone(); n_layers],
        };
        let rt = RoutingTables::build(&g, &layers);
        (g, rt)
    }

    fn one_demand() -> Vec<RouterDemand> {
        vec![RouterDemand {
            src: 0,
            dst: 1,
            demand: 1.0,
        }]
    }

    #[test]
    fn widest_layer_tag_negotiates_and_repairs_under_its_own_tag() {
        let (g, rt) = triangle_tables(MAX_LAYERS);
        let te = TeScheme::negotiate(&g, &rt, &one_demand(), &TeConfig::default());
        let rep = te.tables().repair(&g, &DownLinks::from_links(&[(0, 1)]));
        let detour = g.port_of(0, 2).unwrap() as u16;
        let last = (MAX_LAYERS - 1) as u8;
        assert_eq!(rep.lookup(last, 0, 1).unwrap(), &[detour]);
    }

    #[test]
    #[should_panic(expected = "257 layers exceed the u8 layer tag limit of 256 layers")]
    fn layer_count_beyond_the_tag_width_is_rejected() {
        let (g, rt) = triangle_tables(MAX_LAYERS + 1);
        TeScheme::negotiate(&g, &rt, &one_demand(), &TeConfig::default());
    }
}
