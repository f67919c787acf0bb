//! SPAIN comparison baseline (Mudigonda et al., NSDI'10; Listing 4,
//! Appendix C-B).
//!
//! SPAIN precomputes, per destination, a set of redundancy-exploiting paths,
//! colors them into per-destination VLANs (each VLAN acyclic), and greedily
//! merges VLAN subgraphs across destinations while the union stays acyclic.
//! Layers are therefore *forests* — the structural weakness §VI exploits:
//! a tree holds at most `Nr − 1` of the topology's `Nr·k'/2` links, so
//! `O(k')` to `O(Nr)` layers are needed where FatPaths needs `O(1)`.
//!
//! The per-destination path sets are computed as `k` weighted-BFS trees
//! with disjointness-preferring weight updates rather than SPAIN's
//! path-then-color pipeline: each color class is then a tree by
//! construction, which preserves SPAIN's layer structure (acyclic VLANs,
//! at most `Nr − 1` links each) while keeping the build `O(k · Nr · m)`.
//!
//! Merging keeps one union-find and one edge bitset per merged layer, so
//! testing a tree against a layer walks only the tree's edges the layer
//! lacks and stops at the first cycle. Every tree spans the whole base
//! component of its destination, so a layer holds, per component, either
//! no edge or one spanning tree: a missing edge then closes a cycle
//! exactly when its ends already share a layer component. On a connected
//! base a check ends at the first missing edge.

use crate::layers::LayerSet;
use fatpaths_net::graph::{Graph, RouterId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Configuration for the SPAIN layer build.
#[derive(Clone, Copy, Debug)]
pub struct SpainConfig {
    /// Trees (≈ disjoint paths) computed per destination.
    pub k_paths: usize,
    /// Cap on merged layers (`None` = merge fully, report what results).
    pub max_layers: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SpainConfig {
    fn default() -> Self {
        SpainConfig {
            k_paths: 3,
            max_layers: None,
            seed: 0,
        }
    }
}

/// Result of the SPAIN construction.
#[derive(Clone, Debug)]
pub struct SpainLayers {
    /// Merged acyclic layers (forests), as subgraphs of the base graph.
    pub layers: LayerSet,
    /// Number of VLAN subgraphs before merging (the resource cost §VI-B
    /// compares against).
    pub vlans_before_merge: usize,
}

/// Builds SPAIN layers on `base`.
///
/// Each tree joins the first merged layer it keeps acyclic, or opens a new
/// one. Under a cap only the first `cap` layers are tried and a tree none
/// of them accepts is dropped: a layer's history depends only on the
/// layers before it, so these are exactly the first `cap` layers of the
/// uncapped build.
pub fn build_spain_layers(base: &Graph, cfg: &SpainConfig) -> SpainLayers {
    let nr = base.n();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let arc_eids = base.arc_edge_ids();
    // Per destination: k trees, each a list of edge ids (acyclic by
    // construction).
    let mut subgraphs: Vec<Vec<u32>> = Vec::with_capacity(nr * cfg.k_paths);
    let mut edge_use = vec![0u64; base.m()];
    let mut scratch = TreeScratch::default();
    for dst in 0..nr as u32 {
        for _ in 0..cfg.k_paths {
            let tree = weighted_bfs_tree(base, &arc_eids, dst, &edge_use, &mut rng, &mut scratch);
            for &e in &tree {
                edge_use[e as usize] += 1;
            }
            subgraphs.push(tree);
        }
    }
    let vlans_before_merge = subgraphs.len();
    // Greedy merging (randomized order): union two subgraphs iff acyclic.
    subgraphs.shuffle(&mut rng);
    let ends = base.edge_vec();
    let cap = cfg.max_layers.unwrap_or(usize::MAX);
    let mut merged: Vec<Forest> = Vec::new();
    for tree in &subgraphs {
        let home = (0..merged.len()).find(|&i| merged[i].accepts(tree, &ends));
        match home {
            Some(i) => merged[i].add(tree, &ends),
            None if merged.len() < cap => {
                let mut layer = Forest::new(nr, ends.len());
                layer.add(tree, &ends);
                merged.push(layer);
            }
            None => {}
        }
    }
    let graphs: Vec<Graph> = merged
        .iter()
        .map(|layer| {
            let list: Vec<(u32, u32)> = layer.edge_ids().map(|e| ends[e]).collect();
            Graph::from_edges(nr, &list)
        })
        .collect();
    SpainLayers {
        layers: LayerSet { graphs },
        vlans_before_merge,
    }
}

/// Scratch of [`weighted_bfs_tree`], reused across the trees of a build.
#[derive(Default)]
struct TreeScratch {
    visited: Vec<bool>,
    frontier: Vec<RouterId>,
    next: Vec<RouterId>,
    /// `(use, tiebreak, from, to, edge id)` of one level's candidate arcs.
    cands: Vec<(u64, u64, u32, u32, u32)>,
}

/// BFS tree rooted at `dst` preferring lightly-used edges, as edge ids:
/// neighbors are visited in order of accumulated use count (random
/// tiebreak), the SPAIN "prefer disjoint paths" rule.
fn weighted_bfs_tree(
    base: &Graph,
    arc_eids: &[u32],
    dst: RouterId,
    edge_use: &[u64],
    rng: &mut StdRng,
    s: &mut TreeScratch,
) -> Vec<u32> {
    let mut tree = Vec::with_capacity(base.n().saturating_sub(1));
    s.visited.clear();
    s.visited.resize(base.n(), false);
    s.visited[dst as usize] = true;
    s.frontier.clear();
    s.frontier.push(dst);
    while !s.frontier.is_empty() {
        // Expand the whole frontier level; candidate edges sorted by use.
        s.cands.clear();
        for &u in &s.frontier {
            for (a, &v) in base.arcs(u).zip(base.neighbors(u)) {
                if !s.visited[v as usize] {
                    let e = arc_eids[a];
                    s.cands
                        .push((edge_use[e as usize], rng.random::<u64>(), u, v, e));
                }
            }
        }
        s.cands.sort_unstable();
        s.next.clear();
        for &(_, _, _, v, e) in &s.cands {
            if !s.visited[v as usize] {
                s.visited[v as usize] = true;
                tree.push(e);
                s.next.push(v);
            }
        }
        std::mem::swap(&mut s.frontier, &mut s.next);
    }
    tree
}

/// A merged layer: its edges as a bitset over base edge ids and its
/// connected components as a union-find.
struct Forest {
    parent: Vec<u32>,
    edges: Vec<u64>,
}

impl Forest {
    fn new(nr: usize, m: usize) -> Self {
        Forest {
            parent: (0..nr as u32).collect(),
            edges: vec![0; m.div_ceil(64)],
        }
    }

    #[inline]
    fn has(&self, e: u32) -> bool {
        self.edges[e as usize / 64] >> (e % 64) & 1 == 1
    }

    /// Root of `x`'s component, splitting the path on the way.
    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let p = self.parent[x as usize];
            self.parent[x as usize] = self.parent[p as usize];
            x = p;
        }
        x
    }

    /// True iff the layer plus `tree` stays acyclic. `tree` spans a whole
    /// base component, on which the layer holds no edge (each missing edge
    /// joins two singletons) or a spanning tree (each missing edge closes
    /// a cycle).
    fn accepts(&mut self, tree: &[u32], ends: &[(u32, u32)]) -> bool {
        tree.iter().all(|&e| {
            let (u, v) = ends[e as usize];
            self.has(e) || self.find(u) != self.find(v)
        })
    }

    /// Adds `tree`, which the layer [accepts](Forest::accepts).
    fn add(&mut self, tree: &[u32], ends: &[(u32, u32)]) {
        for &e in tree {
            if self.has(e) {
                continue;
            }
            self.edges[e as usize / 64] |= 1 << (e % 64);
            let (u, v) = ends[e as usize];
            let (ru, rv) = (self.find(u), self.find(v));
            debug_assert_ne!(ru, rv, "an accepted tree closes no cycle");
            self.parent[ru as usize] = rv;
        }
    }

    /// The layer's edge ids, ascending.
    fn edge_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.edges.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits >> b & 1 == 1)
                .map(move |b| w * 64 + b)
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fatpaths_net::topo::{fattree::fat_tree, slimfly::slim_fly};
    use proptest::prelude::*;
    use rustc_hash::{FxHashMap, FxHashSet};

    /// The hash-set build the kernels replaced, kept as their reference:
    /// trees as edge sets, and a merge check that replays the layer and
    /// the tree into a fresh union-find.
    fn oracle_build(base: &Graph, cfg: &SpainConfig) -> SpainLayers {
        let nr = base.n();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut subgraphs: Vec<FxHashSet<(u32, u32)>> = Vec::new();
        let mut edge_use = vec![0u64; base.m()];
        let edge_index: FxHashMap<(u32, u32), u32> = base.edge_vec().into_iter().zip(0..).collect();
        for dst in 0..nr as u32 {
            for _ in 0..cfg.k_paths {
                let tree = oracle_tree(base, dst, &edge_use, &edge_index, &mut rng);
                for &e in &tree {
                    edge_use[edge_index[&e] as usize] += 1;
                }
                subgraphs.push(tree);
            }
        }
        let vlans_before_merge = subgraphs.len();
        subgraphs.shuffle(&mut rng);
        let mut merged: Vec<FxHashSet<(u32, u32)>> = Vec::new();
        for sg in subgraphs {
            match merged.iter_mut().find(|m| union_acyclic(nr, m, &sg)) {
                Some(m) => m.extend(sg.iter().copied()),
                None => merged.push(sg),
            }
        }
        if let Some(cap) = cfg.max_layers {
            merged.truncate(cap);
        }
        let graphs = merged
            .into_iter()
            .map(|edges| Graph::from_edges(nr, &edges.into_iter().collect::<Vec<_>>()))
            .collect();
        SpainLayers {
            layers: LayerSet { graphs },
            vlans_before_merge,
        }
    }

    fn oracle_tree(
        base: &Graph,
        dst: RouterId,
        edge_use: &[u64],
        edge_index: &FxHashMap<(u32, u32), u32>,
        rng: &mut StdRng,
    ) -> FxHashSet<(u32, u32)> {
        let mut tree = FxHashSet::default();
        let mut visited = vec![false; base.n()];
        visited[dst as usize] = true;
        let mut frontier = vec![dst];
        while !frontier.is_empty() {
            let mut next = Vec::new();
            let mut cands: Vec<(u64, u64, u32, u32)> = Vec::new();
            for &u in &frontier {
                for &v in base.neighbors(u) {
                    if !visited[v as usize] {
                        let k = (u.min(v), u.max(v));
                        cands.push((edge_use[edge_index[&k] as usize], rng.random::<u64>(), u, v));
                    }
                }
            }
            cands.sort_unstable();
            for (_, _, u, v) in cands {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    tree.insert((u.min(v), u.max(v)));
                    next.push(v);
                }
            }
            frontier = next;
        }
        tree
    }

    /// True iff `a ∪ b` is acyclic (forest check via union-find).
    fn union_acyclic(nr: usize, a: &FxHashSet<(u32, u32)>, b: &FxHashSet<(u32, u32)>) -> bool {
        let mut parent: Vec<u32> = (0..nr as u32).collect();
        fn find(p: &mut [u32], mut x: u32) -> u32 {
            while p[x as usize] != x {
                p[x as usize] = p[p[x as usize] as usize];
                x = p[x as usize];
            }
            x
        }
        for &(u, v) in a.iter().chain(b.iter().filter(|e| !a.contains(e))) {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            if ru == rv {
                return false;
            }
            parent[ru as usize] = rv;
        }
        true
    }

    /// Random graphs on up to 24 routers: dense ones (cycles, ties) when
    /// `forest` is false, else forests whose routers each link to one
    /// earlier router or to none (disconnected parts, isolated routers).
    pub(crate) fn arb_small_graph() -> impl Strategy<Value = Graph> {
        (
            2usize..24,
            any::<bool>(),
            prop::collection::vec(any::<u64>(), 48..49),
        )
            .prop_map(|(n, forest, draws)| {
                let edges: Vec<(u32, u32)> = if forest {
                    (1..n)
                        .filter(|&v| draws[v] % 5 != 0)
                        .map(|v| (((draws[v] >> 8) % v as u64) as u32, v as u32))
                        .collect()
                } else {
                    draws
                        .iter()
                        .map(|&d| ((d % n as u64) as u32, ((d >> 32) % n as u64) as u32))
                        .filter(|(u, v)| u != v)
                        .take(n + (draws[0] % (2 * n as u64)) as usize)
                        .collect()
                };
                Graph::from_edges(n, &edges)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn build_equals_the_hash_set_oracle(
            g in arb_small_graph(),
            k_paths in 1usize..4,
            cap in 0usize..5,
            seed in 0u64..1000,
        ) {
            // cap 0 means uncapped.
            let cfg = SpainConfig {
                k_paths,
                max_layers: (cap > 0).then_some(cap),
                seed,
            };
            let (got, want) = (build_spain_layers(&g, &cfg), oracle_build(&g, &cfg));
            prop_assert!(got.vlans_before_merge == want.vlans_before_merge);
            prop_assert!(got.layers.graphs == want.layers.graphs);
        }
    }

    #[test]
    fn layers_are_forests() {
        let t = slim_fly(5, 1).unwrap();
        let s = build_spain_layers(&t.graph, &SpainConfig::default());
        for g in &s.layers.graphs {
            // Forest: m ≤ n − components. Cheap check: m < n.
            assert!(g.m() < g.n(), "layer has a cycle: m={} n={}", g.m(), g.n());
        }
        assert!(s.vlans_before_merge >= t.num_routers());
    }

    #[test]
    fn merging_reduces_layer_count() {
        let t = slim_fly(5, 1).unwrap();
        let s = build_spain_layers(&t.graph, &SpainConfig::default());
        assert!(s.layers.len() < s.vlans_before_merge);
        // §VI-B: SPAIN needs at least O(k') layers to cover the links.
        assert!(s.layers.len() >= 3);
    }

    #[test]
    fn spain_on_fat_tree_covers_all_pairs() {
        // SPAIN was designed for Clos: every pair must be connected in at
        // least one layer.
        let t = fat_tree(4, 1);
        let s = build_spain_layers(&t.graph, &SpainConfig::default());
        let rt = crate::fwd::RoutingTables::build(&t.graph, &s.layers);
        for a in 0..t.num_routers() as u32 {
            for b in 0..t.num_routers() as u32 {
                if a != b {
                    assert!(
                        (0..rt.n_layers()).any(|l| rt.ports().get(l, a, b).is_some()),
                        "({a},{b}) unreachable in every SPAIN layer"
                    );
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let t = slim_fly(5, 1).unwrap();
        let a = build_spain_layers(&t.graph, &SpainConfig::default());
        let b = build_spain_layers(&t.graph, &SpainConfig::default());
        assert_eq!(a.layers.len(), b.layers.len());
    }
}
