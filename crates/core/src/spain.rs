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
//! Per DESIGN.md, the per-destination path sets are computed as `k`
//! weighted-BFS trees with disjointness-preferring weight updates (each
//! color class is then a tree by construction), which preserves SPAIN's
//! layer structure while keeping the build `O(k · Nr · m)`.

use crate::layers::LayerSet;
use fatpaths_net::graph::{Graph, RouterId};
use rand::prelude::*;
use rand::rngs::StdRng;
use rustc_hash::FxHashSet;

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
pub fn build_spain_layers(base: &Graph, cfg: &SpainConfig) -> SpainLayers {
    let nr = base.n();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Per destination: k trees, each an edge set (acyclic by construction).
    let mut subgraphs: Vec<FxHashSet<(u32, u32)>> = Vec::new();
    let mut edge_use = vec![0u64; base.m()];
    let edge_index = base.edge_index_map();
    for dst in 0..nr as u32 {
        for _ in 0..cfg.k_paths {
            let tree = weighted_bfs_tree(base, dst, &edge_use, &edge_index, &mut rng);
            for &e in &tree {
                edge_use[edge_index[&e] as usize] += 1;
            }
            subgraphs.push(tree);
        }
    }
    let vlans_before_merge = subgraphs.len();
    // Greedy merging (randomized order): union two subgraphs iff acyclic.
    subgraphs.shuffle(&mut rng);
    let mut merged: Vec<FxHashSet<(u32, u32)>> = Vec::new();
    for sg in subgraphs {
        let mut placed = false;
        for m in merged.iter_mut() {
            if union_acyclic(nr, m, &sg) {
                m.extend(sg.iter().copied());
                placed = true;
                break;
            }
        }
        if !placed {
            merged.push(sg);
        }
    }
    if let Some(cap) = cfg.max_layers {
        merged.truncate(cap);
    }
    let graphs: Vec<Graph> = merged
        .into_iter()
        .map(|edges| {
            let list: Vec<(u32, u32)> = edges.into_iter().collect();
            Graph::from_edges(nr, &list)
        })
        .collect();
    SpainLayers {
        layers: LayerSet { graphs },
        vlans_before_merge,
    }
}

/// BFS tree rooted at `dst` preferring lightly-used edges: neighbors are
/// visited in order of accumulated use count (random tiebreak), the SPAIN
/// "prefer disjoint paths" rule.
fn weighted_bfs_tree(
    base: &Graph,
    dst: RouterId,
    edge_use: &[u64],
    edge_index: &rustc_hash::FxHashMap<(u32, u32), u32>,
    rng: &mut StdRng,
) -> FxHashSet<(u32, u32)> {
    let nr = base.n();
    let mut tree = FxHashSet::default();
    let mut visited = vec![false; nr];
    visited[dst as usize] = true;
    let mut frontier = vec![dst];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        // Expand the whole frontier level; candidate edges sorted by use.
        let mut cands: Vec<(u64, u64, u32, u32)> = Vec::new(); // (use, tiebreak, from, to)
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

#[cfg(test)]
mod tests {
    use super::*;
    use fatpaths_net::topo::{fattree::fat_tree, slimfly::slim_fly};

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
