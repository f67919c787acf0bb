//! The slow TE control loop: selective repair of negotiated trees.
//!
//! When fault or churn events invalidate links, only the `(layer, dst)`
//! trees that actually *cross* an invalidated link need rerouting — every
//! other tree's rows remain valid verbatim. The controller finds exactly
//! those trees (a tree uses edge `(a, b)` iff `a`'s row points at `b` or
//! vice versa), rebuilds them on the degraded layer subgraph **under the
//! negotiated price vector** (so reroutes respect the congestion picture
//! the negotiation settled on, not plain hop counts), and emits the
//! changed rows as a [`RouteRepair`] overlay with the same semantics as
//! the static tables' repair: whole trees are replaced, never mixed, so
//! the overlay stays loop-free.
//!
//! The controller is stateful across ticks: per-layer rebuilds are
//! cached keyed on the layer's down-link signature, so a rolling-churn
//! sequence that leaves a layer's failures unchanged pays nothing for
//! that layer on the next tick. [`TeScheme`]'s `repair_routes` constructs a
//! fresh controller per call (the simulator's repair pass is
//! stateless and deterministic either way); hold one explicitly to get
//! the incremental behavior.

use crate::negotiate::TeScheme;
use crate::tree::{build_tree, TreeScratch};
use fatpaths_core::fwd::NO_PORT;
use fatpaths_core::repair::{DownLinks, OverlayBuilder, RouteRepair};
use fatpaths_net::graph::Graph;
use rayon::prelude::*;

/// Incremental repair driver for a [`TeScheme`]. See the module docs.
pub struct TeController<'a> {
    scheme: &'a TeScheme,
    /// Per-layer down-link signature of the last repair (sorted).
    sigs: Vec<Vec<(u32, u32)>>,
    /// Per-layer rebuilt rows from the last repair as `(dst, ports)`,
    /// ascending `dst`.
    rows: Vec<Vec<(u32, Vec<u16>)>>,
    ticks: u64,
    rebuilt_trees: u64,
}

impl<'a> TeController<'a> {
    /// A controller with an empty rebuild cache.
    pub fn new(scheme: &'a TeScheme) -> Self {
        let nl = scheme.ports.n_layers();
        TeController {
            scheme,
            sigs: vec![Vec::new(); nl],
            rows: vec![Vec::new(); nl],
            ticks: 0,
            rebuilt_trees: 0,
        }
    }

    /// Repair ticks served so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Total `(layer, dst)` trees rebuilt (cache hits excluded).
    pub fn rebuilt_trees(&self) -> u64 {
        self.rebuilt_trees
    }

    /// Number of matrix entries whose negotiated routes cross any of the
    /// given down links — the demand-side blast radius of an event set.
    pub fn affected_demands(&self, base: &Graph, down: &DownLinks) -> usize {
        let ports = &self.scheme.ports;
        self.scheme
            .demands
            .iter()
            .filter(|d| {
                (0..ports.n_layers()).any(|l| {
                    ports
                        .path(base, l, d.src, d.dst)
                        .is_some_and(|p| p.windows(2).any(|w| down.contains(w[0], w[1])))
                })
            })
            .count()
    }

    /// Computes the repair overlay for the *current* down set (the full
    /// set, as the simulator hands to `repair_routes` — not a delta).
    /// Trees whose per-layer signature is unchanged since the last call
    /// reuse their cached rebuilds.
    pub fn repair(&mut self, base: &Graph, down: &DownLinks) -> RouteRepair {
        self.ticks += 1;
        let scheme = self.scheme;
        let nr = scheme.ports.nr();
        let nl = scheme.ports.n_layers();
        if down.is_empty() {
            for l in 0..nl {
                self.sigs[l].clear();
                self.rows[l].clear();
            }
            return RouteRepair::none();
        }
        let mut out = OverlayBuilder::new(&scheme.ports);
        for l in 0..nl {
            let lg = scheme.layers.layer(l);
            let mut layer_down: Vec<(u32, u32)> =
                down.iter().filter(|&(u, v)| lg.has_edge(u, v)).collect();
            layer_down.sort_unstable();
            if layer_down.is_empty() {
                self.sigs[l].clear();
                self.rows[l].clear();
                continue;
            }
            if self.sigs[l] != layer_down {
                let csr = scheme.csrs[l].without(&DownLinks::from_links(&layer_down));
                let cost = csr.gather(&scheme.costs);
                // A tree is affected iff one of its rows crosses a down
                // link — i.e., the link's endpoints point at each other.
                let affected: Vec<u32> = (0..nr as u32)
                    .filter(|&dst| {
                        let row = scheme.ports.row(l, dst);
                        layer_down.iter().any(|&(a, b)| {
                            let pa = base.port_of(a, b).expect("down link is a base edge") as u16;
                            let pb = base.port_of(b, a).expect("down link is a base edge") as u16;
                            row[a as usize] == pa || row[b as usize] == pb
                        })
                    })
                    .collect();
                // Ascending `dst`: `affected` is, and `collect` keeps it.
                let built: Vec<(u32, Vec<u16>)> = affected
                    .into_par_iter()
                    .map_init(TreeScratch::default, |scratch, dst| {
                        let mut row = vec![NO_PORT; nr];
                        build_tree(&csr, &cost, l as u32, dst, scratch, &mut row);
                        (dst, row)
                    })
                    .collect();
                self.rebuilt_trees += built.len() as u64;
                self.rows[l] = built;
                self.sigs[l] = layer_down;
            }
            for (dst, row) in &self.rows[l] {
                out.rewrite_row(l, *dst, row);
            }
        }
        out.finish()
    }
}
