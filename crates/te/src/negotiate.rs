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

use crate::tree::{build_tree, LayerCsr, TreeScratch};
use fatpaths_core::fwd::{RoutingTables, NO_PORT};
use fatpaths_core::layers::LayerSet;
use fatpaths_core::repair::{DownLinks, RouteRepair};
use fatpaths_core::scheme::{assert_layer_tags, PortSet, RoutingScheme};
use fatpaths_mcf::RouterDemand;
use fatpaths_net::graph::{Graph, RouterId};
use rayon::prelude::*;

/// Knobs of the negotiation loop. The defaults converge on every
/// paper-size topology class within a handful of iterations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TeConfig {
    /// Historic-cost accumulation rate: every iteration each link adds
    /// `hist_factor · max(0, load/mean − 1)` to its permanent penalty —
    /// PathFinder's `hfac`. Larger values escape oscillation faster but
    /// overshoot; `0` disables history (pure present-cost iteration).
    pub hist_factor: f64,
    /// Present-cost slope: a link currently carrying `load` costs
    /// `(1 + hist) · (1 + present_factor · load/mean)` — PathFinder's
    /// `pfac`, applied to normalized load instead of wire overuse since
    /// links have no hard signal capacity.
    pub present_factor: f64,
    /// Iteration budget. Negotiation stops early on convergence; hitting
    /// the budget is reported via [`TeScheme::converged`]` == false`.
    pub max_iterations: usize,
    /// Convergence threshold: stop when the peak link load changes by
    /// less than `epsilon` (relative) between iterations.
    pub epsilon: f64,
}

impl Default for TeConfig {
    fn default() -> Self {
        TeConfig {
            hist_factor: 0.4,
            present_factor: 0.8,
            max_iterations: 16,
            epsilon: 1e-3,
        }
    }
}

/// Forwarding tables specialized to a traffic matrix by negotiated-
/// congestion routing. Drop-in [`RoutingScheme`]: same destination-based
/// per-layer contract as the static [`RoutingTables`] it starts from, so
/// it compiles through `fatpaths-fib` and repairs through
/// [`RoutingScheme::repair_routes`] unchanged.
#[derive(Clone, Debug)]
pub struct TeScheme {
    pub(crate) nr: usize,
    /// Negotiated `tables[layer][dst * nr + src]` ports (base-graph port
    /// numbering, like the static tables).
    pub(crate) tables: Vec<Vec<u16>>,
    /// The layer subgraphs negotiation routed within.
    pub(crate) layers: LayerSet,
    /// Final negotiated per-edge cost (the price snapshot of the best
    /// iteration) — reused by repair so degraded reroutes respect the
    /// negotiated congestion picture.
    pub(crate) costs: Vec<f64>,
    /// Per-layer arc views the tree builds run on (built once).
    pub(crate) csrs: Vec<LayerCsr>,
    /// The (sorted) traffic matrix the tables were negotiated for.
    pub(crate) demands: Vec<RouterDemand>,
    cfg: TeConfig,
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
    /// sorted, load accumulation is sequential in demand order, tree
    /// rebuilds are pure functions of the iteration's price vector, and
    /// equal-cost predecessor ties break by `fnv1a(layer, src, dst)` —
    /// the same key the static build uses.
    ///
    /// Panics if `tables` has more layers than `u8` tags
    /// ([`MAX_LAYERS`](fatpaths_core::scheme::MAX_LAYERS)): the
    /// negotiated scheme forwards and repairs every layer by its tag.
    pub fn negotiate(
        base: &Graph,
        tables: &RoutingTables,
        demands: &[RouterDemand],
        cfg: &TeConfig,
    ) -> TeScheme {
        let nr = tables.nr();
        let nl = tables.n_layers();
        assert_layer_tags(nl);
        let m = base.m();
        let layers = tables.layer_set().clone();
        let edge_index = base.edge_index_map();
        let eid = |u: u32, v: u32| edge_index[&(u.min(v), u.max(v))];
        let base_eids: Vec<Vec<u32>> = (0..nr as u32)
            .map(|u| base.neighbors(u).iter().map(|&v| eid(u, v)).collect())
            .collect();
        let csrs: Vec<LayerCsr> = layers
            .graphs
            .iter()
            .map(|lg| LayerCsr::new(base, lg, &base_eids))
            .collect();
        // Iteration 0: the static tables, copied row by row.
        let mut cur: Vec<Vec<u16>> = (0..nl)
            .map(|l| {
                let mut t = vec![NO_PORT; nr * nr];
                for dst in 0..nr as u32 {
                    for src in 0..nr as u32 {
                        if let Some(p) = tables.next_port(l, src, dst) {
                            t[dst as usize * nr + src as usize] = p;
                        }
                    }
                }
                t
            })
            .collect();
        let mut demands = demands.to_vec();
        demands.sort_by_key(|d| (d.src, d.dst));
        let total: f64 = demands.iter().map(|d| d.demand).sum();
        let mut scheme = TeScheme {
            nr,
            tables: cur.clone(),
            layers,
            costs: vec![1.0; m],
            csrs,
            demands,
            cfg: *cfg,
            iterations: 0,
            converged: true,
            peak: 0.0,
        };
        if total <= 0.0 || m == 0 {
            return scheme; // nothing to negotiate over
        }
        let mut hist = vec![0.0f64; m];
        let mut costs = vec![1.0f64; m];
        let mut loads = measure_loads(base, &base_eids, &cur, nr, &scheme.demands);
        let mut prev = peak_of(&loads);
        scheme.peak = prev;
        scheme.converged = false;
        for _ in 0..cfg.max_iterations {
            let mean = loads.iter().sum::<f64>() / m as f64;
            if mean <= 0.0 {
                scheme.converged = true;
                break;
            }
            for e in 0..m {
                let norm = loads[e] / mean;
                hist[e] += cfg.hist_factor * (norm - 1.0).max(0.0);
                costs[e] = (1.0 + hist[e]) * (1.0 + cfg.present_factor * norm);
            }
            scheme.iterations += 1;
            rebuild_trees(&scheme.csrs, &costs, nr, &mut cur);
            loads = measure_loads(base, &base_eids, &cur, nr, &scheme.demands);
            let peak = peak_of(&loads);
            if peak < scheme.peak {
                scheme.peak = peak;
                scheme.tables = cur.clone();
                scheme.costs = costs.clone();
            }
            if (prev - peak).abs() <= cfg.epsilon * prev.max(f64::MIN_POSITIVE) {
                scheme.converged = true;
                break;
            }
            prev = peak;
        }
        scheme
    }

    /// Number of negotiation iterations executed (0 for an empty matrix).
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// True when the loop met the [`TeConfig::epsilon`] criterion before
    /// exhausting [`TeConfig::max_iterations`].
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Peak per-link load of the kept (best) iteration under the
    /// negotiated matrix at unit demand scale — `1 / peak` is the
    /// achieved throughput the sweep reports.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// The configuration the scheme was negotiated with.
    pub fn config(&self) -> &TeConfig {
        &self.cfg
    }

    /// The (sorted) traffic matrix the tables were negotiated for.
    pub fn demands(&self) -> &[RouterDemand] {
        &self.demands
    }

    /// Negotiated port at `src` toward `dst` in `layer` (`None` when the
    /// pair is unreachable within the layer, or `src == dst`).
    #[inline]
    pub fn next_port(&self, layer: usize, src: RouterId, dst: RouterId) -> Option<u16> {
        let p = self.tables[layer][dst as usize * self.nr + src as usize];
        (p != NO_PORT).then_some(p)
    }

    /// Resolves the full router path `src → dst` in `layer`, falling back
    /// to layer 0 where the sparse layer has no row (the same resolution
    /// `candidate_ports` applies). `None` if unroutable.
    pub fn path(
        &self,
        base: &Graph,
        layer: usize,
        src: RouterId,
        dst: RouterId,
    ) -> Option<Vec<RouterId>> {
        let mut path = vec![src];
        let mut at = src;
        while at != dst {
            let p = self
                .next_port(layer, at, dst)
                .or_else(|| self.next_port(0, at, dst))?;
            at = base.neighbor_at(at, p as u32);
            path.push(at);
            if path.len() > self.nr + 1 {
                return None; // defensive: negotiated trees are loop-free
            }
        }
        Some(path)
    }
}

impl RoutingScheme for TeScheme {
    fn name(&self) -> &'static str {
        "te"
    }

    fn num_layers(&self) -> usize {
        self.tables.len()
    }

    fn candidate_ports(&self, layer: u8, at_router: RouterId, dst_router: RouterId) -> PortSet {
        let l = (layer as usize).min(self.tables.len() - 1);
        match self
            .next_port(l, at_router, dst_router)
            .or_else(|| self.next_port(0, at_router, dst_router))
        {
            Some(p) => PortSet::single(p),
            None => PortSet::new(),
        }
    }

    /// Delegates to a fresh [`crate::TeController`] — one coalesced
    /// repair per tick, pricing degraded reroutes with the negotiated
    /// cost snapshot. Hold a controller across ticks to reuse its
    /// per-layer rebuild cache.
    fn repair_routes(&self, base: &Graph, down: &DownLinks) -> RouteRepair {
        crate::TeController::new(self).repair(base, down)
    }
}

/// Rebuilds every `(layer, dst)` tree under the given per-edge prices —
/// one flat parallel pass, mirroring the static build's work division.
fn rebuild_trees(csrs: &[LayerCsr], costs: &[f64], nr: usize, cur: &mut [Vec<u16>]) {
    let arc_costs: Vec<Vec<f64>> = csrs.iter().map(|c| c.gather(costs)).collect();
    let rows: Vec<(usize, usize, &mut [u16])> = cur
        .iter_mut()
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
            build_tree(&csrs[l], &arc_costs[l], l as u32, dst as u32, scratch, row);
        });
}

/// Per-edge load of the tree set under `demands` with equal split over
/// layers — the demand model the simulator's flowlet hashing realizes.
/// Sequential in (sorted) demand order, so float accumulation is
/// order-stable at any thread count.
fn measure_loads(
    base: &Graph,
    base_eids: &[Vec<u32>],
    tables: &[Vec<u16>],
    nr: usize,
    demands: &[RouterDemand],
) -> Vec<f64> {
    let nl = tables.len();
    let mut loads = vec![0.0f64; base.m()];
    for d in demands {
        let share = d.demand / nl as f64;
        for l in 0..nl {
            let mut at = d.src;
            let mut lcur = l;
            let mut hops = 0usize;
            while at != d.dst {
                let mut p = tables[lcur][d.dst as usize * nr + at as usize];
                if p == NO_PORT && lcur != 0 {
                    lcur = 0; // sparse layer has no row: finish on layer 0
                    p = tables[0][d.dst as usize * nr + at as usize];
                }
                if p == NO_PORT {
                    break; // disconnected pair
                }
                loads[base_eids[at as usize][p as usize] as usize] += share;
                at = base.neighbor_at(at, p as u32);
                hops += 1;
                if hops > nr {
                    break; // defensive cap; trees are loop-free
                }
            }
        }
    }
    loads
}

fn peak_of(loads: &[f64]) -> f64 {
    loads.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatpaths_core::scheme::MAX_LAYERS;

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
        let rep = te.repair_routes(&g, &DownLinks::from_links(&[(0, 1)]));
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
