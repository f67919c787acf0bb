//! Routing layers — the core FatPaths abstraction (§V-B).
//!
//! A *layer* is a subset of the physical links. Layer 0 always contains
//! every link (hosting true minimal paths, σ₁ in the paper); layers
//! `1..n` keep a fraction `ρ` of links each, so that *minimal routing
//! within a sparse layer* yields paths that are non-minimal — typically
//! "almost minimal", one hop longer — on the full topology. This encodes
//! non-minimal multipathing in plain destination-based forwarding
//! hardware.
//!
//! This module implements the random uniform edge sampling construction
//! (Listing 1); the interference-minimizing variant (Listing 2) lives in
//! [`crate::interference_min`].

use fatpaths_net::graph::Graph;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Parameters of layered routing: the number of layers `n` and the fraction
/// of surviving edges `ρ` per sparse layer (§V-B1 discusses the interplay).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LayerConfig {
    /// Total number of layers, counting the complete layer 0. Must be ≥ 1.
    pub n_layers: usize,
    /// Fraction of edges kept in each sparsified layer, `ρ ∈ (0, 1]`.
    pub rho: f64,
    /// RNG seed; layer construction is deterministic in it.
    pub seed: u64,
}

impl LayerConfig {
    /// Convenience constructor.
    pub fn new(n_layers: usize, rho: f64, seed: u64) -> Self {
        assert!(n_layers >= 1, "need at least the complete layer");
        assert!(rho > 0.0 && rho <= 1.0, "rho must be in (0, 1]");
        LayerConfig {
            n_layers,
            rho,
            seed,
        }
    }
}

/// A set of routing layers over a common base graph. Layer 0 is the
/// complete edge set; each layer is stored as its own [`Graph`] so
/// per-layer shortest-path queries are direct.
#[derive(Clone, Debug)]
pub struct LayerSet {
    /// Per-layer subgraphs over the same router id space.
    pub graphs: Vec<Graph>,
}

impl LayerSet {
    /// Number of layers (≥ 1).
    pub fn len(&self) -> usize {
        self.graphs.len()
    }

    /// True iff only the complete layer exists.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// The subgraph of layer `i`.
    pub fn layer(&self, i: usize) -> &Graph {
        &self.graphs[i]
    }

    /// Builds a single-layer set (minimal routing only, the paper's
    /// `ρ = 1` baseline).
    pub fn minimal_only(base: &Graph) -> LayerSet {
        LayerSet {
            graphs: vec![base.clone()],
        }
    }

    /// Verifies that every layer is a subgraph of `base` and connected.
    pub fn validate(&self, base: &Graph) -> bool {
        self.graphs.iter().all(|layer| {
            layer.n() == base.n()
                && layer.is_connected()
                && layer.edges().all(|(u, v)| base.has_edge(u, v))
        })
    }
}

/// Listing 1: builds `cfg.n_layers` layers by uniform random edge sampling.
///
/// Layer 0 keeps all edges. Each further layer samples `⌊ρ·|E|⌋` edges
/// u.a.r.; disconnected samples are re-drawn (the paper: "a small number of
/// attempts delivers a connected network"), and as a last resort the sample
/// is patched with original edges bridging its components, keeping the edge
/// budget as close to `⌊ρ·|E|⌋` as possible.
pub fn build_random_layers(base: &Graph, cfg: &LayerConfig) -> LayerSet {
    assert!(base.is_connected(), "base topology must be connected");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let all_edges = base.edge_vec();
    let m = all_edges.len();
    let keep = ((cfg.rho * m as f64).floor() as usize).clamp(1, m);
    let mut graphs = Vec::with_capacity(cfg.n_layers);
    graphs.push(base.clone());
    for _ in 1..cfg.n_layers {
        let layer = sample_connected_layer(base, &all_edges, keep, &mut rng);
        graphs.push(layer);
    }
    LayerSet { graphs }
}

fn sample_connected_layer(
    base: &Graph,
    all_edges: &[(u32, u32)],
    keep: usize,
    rng: &mut StdRng,
) -> Graph {
    let m = all_edges.len();
    let mut idx: Vec<u32> = (0..m as u32).collect();
    for _attempt in 0..50 {
        // Partial Fisher–Yates: the first `keep` entries are a u.a.r. subset.
        for i in 0..keep {
            let j = rng.random_range(i..m);
            idx.swap(i, j);
        }
        let edges: Vec<(u32, u32)> = idx[..keep].iter().map(|&i| all_edges[i as usize]).collect();
        let g = Graph::from_edges(base.n(), &edges);
        if g.is_connected() {
            return g;
        }
    }
    // Patch the last sample: add original edges that bridge components
    // until connected (rare; only for very low ρ), shuffled by the layer
    // RNG.
    let edges = idx[..keep].iter().map(|&i| all_edges[i as usize]).collect();
    connect_with_bridges(base, edges, |bridges| bridges.shuffle(rng))
}

/// Builds the layer graph of `edges`, a subgraph of `base`, adding base
/// edges that bridge its components until it is connected — the one
/// connectivity patch every layer builder shares. Each round collects
/// the bridges in canonical [`Graph::edges`] order, lets `order` reorder
/// them (a shuffle, a sort by weight, or nothing) and adds the first
/// bridge per pair of components. A connected `edges` is built once and
/// returned.
pub(crate) fn connect_with_bridges(
    base: &Graph,
    mut edges: Vec<(u32, u32)>,
    mut order: impl FnMut(&mut Vec<(u32, u32)>),
) -> Graph {
    loop {
        let g = Graph::from_edges(base.n(), &edges);
        let comp = g.component_labels();
        if comp.iter().all(|&c| c == 0) {
            return g;
        }
        let mut bridges: Vec<(u32, u32)> = base
            .edges()
            .filter(|&(u, v)| comp[u as usize] != comp[v as usize])
            .collect();
        assert!(!bridges.is_empty(), "base graph must be connected");
        order(&mut bridges);
        let mut seen = rustc_hash::FxHashSet::default();
        for (u, v) in bridges {
            let (cu, cv) = (comp[u as usize], comp[v as usize]);
            if seen.insert((cu.min(cv), cu.max(cv))) {
                edges.push((u, v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatpaths_net::topo::slimfly::slim_fly;

    #[test]
    fn layer_zero_is_complete() {
        let t = slim_fly(5, 1).unwrap();
        let ls = build_random_layers(&t.graph, &LayerConfig::new(4, 0.6, 1));
        assert_eq!(ls.len(), 4);
        assert_eq!(ls.layer(0).m(), t.graph.m());
    }

    #[test]
    fn sparse_layers_have_rho_fraction() {
        let t = slim_fly(5, 1).unwrap();
        let m = t.graph.m();
        let ls = build_random_layers(&t.graph, &LayerConfig::new(5, 0.7, 2));
        for i in 1..ls.len() {
            let lm = ls.layer(i).m();
            // Equal to ⌊0.7 m⌋ unless connectivity patching added a few.
            assert!(lm >= (0.7 * m as f64) as usize && lm <= (0.75 * m as f64) as usize + 2);
        }
    }

    #[test]
    fn all_layers_connected_and_subgraphs() {
        let t = slim_fly(7, 1).unwrap();
        for rho in [0.3, 0.5, 0.8] {
            let ls = build_random_layers(&t.graph, &LayerConfig::new(6, rho, 3));
            assert!(ls.validate(&t.graph), "rho={rho}");
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let t = slim_fly(5, 1).unwrap();
        let a = build_random_layers(&t.graph, &LayerConfig::new(3, 0.6, 11));
        let b = build_random_layers(&t.graph, &LayerConfig::new(3, 0.6, 11));
        for (ga, gb) in a.graphs.iter().zip(&b.graphs) {
            assert_eq!(ga, gb);
        }
        let c = build_random_layers(&t.graph, &LayerConfig::new(3, 0.6, 12));
        assert_ne!(a.graphs[1], c.graphs[1]);
    }

    #[test]
    fn layers_differ_from_each_other() {
        let t = slim_fly(7, 1).unwrap();
        let ls = build_random_layers(&t.graph, &LayerConfig::new(4, 0.6, 5));
        assert_ne!(ls.graphs[1], ls.graphs[2]);
        assert_ne!(ls.graphs[2], ls.graphs[3]);
    }

    #[test]
    fn minimal_only_single_layer() {
        let t = slim_fly(5, 1).unwrap();
        let ls = LayerSet::minimal_only(&t.graph);
        assert_eq!(ls.len(), 1);
        assert!(ls.validate(&t.graph));
    }

    #[test]
    #[should_panic(expected = "rho must be in")]
    fn zero_rho_rejected() {
        let _ = LayerConfig::new(2, 0.0, 1);
    }
}
