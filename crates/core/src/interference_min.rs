//! Interference-minimizing layer construction (Listing 2, §V-B3).
//!
//! Instead of sampling edges u.a.r., this variant *places paths*: router
//! pairs are processed in order of how few paths they have been assigned so
//! far, and each gets a minimum-weight path whose length lies in
//! `[Lmin, Lmax]`, where `Lmin` is one hop longer than the pair's minimal
//! distance — the "almost minimal" sweet spot the path-diversity analysis
//! (§IV) identifies. Edge weights `W` grow as paths are placed
//! (`W[vᵢ][vᵢ₊₁] += i·(len−1−i)`, center-loaded as in the listing), steering
//! later paths away from already-used links and thereby minimizing path
//! interference.
//!
//! As in the listing, a per-layer random permutation `π` restricts path
//! search to `π`-increasing edges (guaranteeing acyclicity of the placed
//! path system), shortcut edges between non-adjacent path routers are
//! masked for the rest of the layer, and a budget `M` bounds the paths per
//! layer. The resulting edge union is finally patched to connectivity so
//! that every layer admits a total forwarding function.

use crate::ecmp::DistanceMatrix;
use crate::layers::LayerSet;
use fatpaths_net::graph::Graph;
use rand::prelude::*;
use rand::rngs::StdRng;
use rustc_hash::{FxHashMap, FxHashSet};

/// Extra hops over the pair's minimal distance for `Lmin`: the paper
/// prefers almost-minimal paths, `+1` (§IV, §V-B3).
const LMIN_EXTRA: u32 = 1;
/// Path-length slack: `Lmax = Lmin + LMAX_SLACK`.
const LMAX_SLACK: u32 = 1;
/// Budget `M`: maximum paths placed per layer, as a multiple of `Nr`.
const PATHS_PER_ROUTER: f64 = 3.0;

/// Configuration of the interference-minimizing construction.
#[derive(Clone, Copy, Debug)]
pub struct ImConfig {
    /// Total number of layers including the complete layer 0.
    pub n_layers: usize,
    /// RNG seed.
    pub seed: u64,
}

/// Builds layers with the Listing 2 interference-minimizing heuristic.
///
/// # Panics
///
/// If `base` is disconnected, or if its diameter exceeds
/// [`MAX_HOPS`](crate::ecmp::MAX_HOPS): the base distances behind `Lmin`
/// come from one [`DistanceMatrix`].
pub fn build_interference_min_layers(base: &Graph, cfg: &ImConfig) -> LayerSet {
    assert!(cfg.n_layers >= 1);
    assert!(
        base.is_connected(),
        "interference-minimizing layers need a connected base graph"
    );
    let nr = base.n();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let g = Indexed {
        base,
        arc_eids: base.arc_edge_ids(),
        ends: base.edge_vec(),
    };
    // Global edge weights W, shared across layers (Listing 2 line 5).
    let mut weights = vec![0u64; base.m()];
    // Paths placed per (unordered) pair so far — the priority key.
    let mut pair_paths: FxHashMap<(u32, u32), u32> = FxHashMap::default();
    // Base distances for Lmin.
    let base_dist = DistanceMatrix::build(base);
    let budget = ((PATHS_PER_ROUTER * nr as f64) as usize).max(1);
    let mut scratch = PathScratch::default();

    let mut graphs = Vec::with_capacity(cfg.n_layers);
    graphs.push(base.clone());
    for _layer in 1..cfg.n_layers {
        let mut pi: Vec<u32> = (0..nr as u32).collect();
        pi.shuffle(&mut rng);
        let mut rank = vec![0u32; nr];
        for (i, &v) in pi.iter().enumerate() {
            rank[v as usize] = i as u32;
        }
        let mut layer_edges = create_layer(
            &g,
            &rank,
            &mut weights,
            &mut pair_paths,
            &base_dist,
            budget,
            &mut rng,
            &mut scratch,
        );
        graphs.push(patch_connected(&g, &mut layer_edges, &weights));
    }
    LayerSet { graphs }
}

/// The base graph with its edge ids: per arc in CSR order
/// ([`Graph::arc_edge_ids`]) and the endpoints of each id.
struct Indexed<'a> {
    base: &'a Graph,
    arc_eids: Vec<u32>,
    ends: Vec<(u32, u32)>,
}

impl Indexed<'_> {
    /// Id of base edge `{u, v}`, if it exists.
    #[inline]
    fn eid(&self, u: u32, v: u32) -> Option<usize> {
        let p = self.base.port_of(u, v)?;
        Some(self.arc_eids[self.base.arcs(u).start + p as usize] as usize)
    }
}

/// Places one layer's paths; returns its edges as a membership mask over
/// base edge ids.
#[allow(clippy::too_many_arguments)]
fn create_layer(
    g: &Indexed<'_>,
    rank: &[u32],
    weights: &mut [u64],
    pair_paths: &mut FxHashMap<(u32, u32), u32>,
    base_dist: &DistanceMatrix,
    budget: usize,
    rng: &mut StdRng,
    scratch: &mut PathScratch,
) -> Vec<bool> {
    let nr = g.base.n();
    // Eligible pairs: π(u) < π(v). Sort by (paths placed, random tiebreak)
    // ascending — the priority-queue semantics of Listing 2.
    let sample = (budget * 4).min(nr * (nr - 1) / 2);
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(sample);
    // Draw a deterministic sample of pairs rather than materializing all
    // O(Nr²) of them on large instances.
    let mut seen = FxHashSet::default();
    while pairs.len() < sample {
        let u = rng.random_range(0..nr as u32);
        let v = rng.random_range(0..nr as u32);
        if u == v {
            continue;
        }
        let (u, v) = if rank[u as usize] < rank[v as usize] {
            (u, v)
        } else {
            (v, u)
        };
        if seen.insert((u, v)) {
            pairs.push((u, v));
        }
        if seen.len() >= nr * (nr - 1) / 2 {
            break;
        }
    }
    pairs.sort_by_key(|&(u, v)| (*pair_paths.get(&key(u, v)).unwrap_or(&0), fnv_pair(u, v)));

    let mut layer = vec![false; g.ends.len()];
    // Per-layer masked shortcut edges (incidenceG in the listing).
    let mut masked = vec![false; g.ends.len()];
    let mut placed = 0usize;
    for &(u, v) in &pairs {
        if placed >= budget {
            break;
        }
        let Some(dmin) = base_dist.get(u, v) else {
            continue;
        };
        let lmin = dmin + LMIN_EXTRA;
        let lmax = lmin + LMAX_SLACK;
        if let Some(path) = find_path(g, rank, &masked, weights, u, v, lmin, lmax, scratch) {
            placed += 1;
            let len = path.len() - 1;
            for (i, w) in path.windows(2).enumerate() {
                let e = g.eid(w[0], w[1]).expect("path hops are base edges");
                layer[e] = true;
                // Listing 2 line 47: center-loaded weight increase.
                weights[e] += (i * (len - 1 - i)) as u64;
            }
            *pair_paths.entry(key(u, v)).or_insert(0) += 1;
            // Mask shortcut edges between non-adjacent path routers.
            for i in 0..path.len() {
                for j in (i + 2)..path.len() {
                    if let Some(e) = g.eid(path[i], path[j]) {
                        masked[e] = true;
                    }
                }
            }
        }
    }
    layer
}

#[inline]
fn key(u: u32, v: u32) -> (u32, u32) {
    (u.min(v), u.max(v))
}

#[inline]
fn fnv_pair(u: u32, v: u32) -> u64 {
    crate::fwd::fnv1a(((u as u64) << 32) | v as u64)
}

/// Scratch of [`find_path`], reused across the pairs of a build.
#[derive(Default)]
struct PathScratch {
    /// `cost[h * nr + x]`: cheapest `h`-hop arrival at `x`.
    cost: Vec<u64>,
    /// `parent[h * nr + x]`: the router before `x` on that arrival.
    parent: Vec<u32>,
    frontier: Vec<u32>,
    next: Vec<u32>,
}

/// Minimum-weight `π`-increasing path from `u` to `v` with hop count in
/// `[lmin, lmax]`, avoiding masked edges. DP over (hops, router):
/// `O(lmax · m)`.
#[allow(clippy::too_many_arguments)]
fn find_path(
    g: &Indexed<'_>,
    rank: &[u32],
    masked: &[bool],
    weights: &[u64],
    u: u32,
    v: u32,
    lmin: u32,
    lmax: u32,
    s: &mut PathScratch,
) -> Option<Vec<u32>> {
    let nr = g.base.n();
    const INF: u64 = u64::MAX;
    let rows = lmax as usize + 1;
    s.cost.clear();
    s.cost.resize(rows * nr, INF);
    // Read only where `cost` is finite, so stale entries are harmless.
    s.parent.resize(rows * nr, u32::MAX);
    s.cost[u as usize] = 0;
    s.frontier.clear();
    s.frontier.push(u);
    for h in 0..lmax as usize {
        let (done, rest) = s.cost.split_at_mut((h + 1) * nr);
        let (cur, next) = (&done[h * nr..], &mut rest[..nr]);
        let parent = &mut s.parent[(h + 1) * nr..][..nr];
        s.next.clear();
        for &x in &s.frontier {
            let cx = cur[x as usize];
            if cx == INF {
                continue;
            }
            for (a, &y) in g.base.arcs(x).zip(g.base.neighbors(x)) {
                // π-increasing edges only (acyclicity), skip masked.
                if rank[y as usize] <= rank[x as usize] {
                    continue;
                }
                let e = g.arc_eids[a] as usize;
                if masked[e] {
                    continue;
                }
                let cand = cx.saturating_add(weights[e] + 1);
                if cand < next[y as usize] {
                    if next[y as usize] == INF {
                        s.next.push(y);
                    }
                    next[y as usize] = cand;
                    parent[y as usize] = x;
                }
            }
        }
        std::mem::swap(&mut s.frontier, &mut s.next);
    }
    // Pick the cheapest arrival with hop count in [lmin, lmax].
    let mut best: Option<(u64, usize)> = None;
    for h in lmin as usize..rows {
        let c = s.cost[h * nr + v as usize];
        if c != INF && best.map(|(bc, _)| c < bc).unwrap_or(true) {
            best = Some((c, h));
        }
    }
    let (_, h) = best?;
    let mut path = vec![v];
    let mut cur = v;
    let mut hh = h;
    while cur != u {
        cur = s.parent[hh * nr + cur as usize];
        hh -= 1;
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// Ensures the placed edges (a membership mask over base edge ids) form a
/// connected spanning subgraph by adding the lightest unused base edges
/// that bridge components.
fn patch_connected(g: &Indexed<'_>, edges: &mut [bool], weights: &[u64]) -> Graph {
    loop {
        let list: Vec<(u32, u32)> = g
            .ends
            .iter()
            .zip(&*edges)
            .filter_map(|(&uv, &on)| on.then_some(uv))
            .collect();
        let layer = Graph::from_edges(g.base.n(), &list);
        let labels = layer.component_labels();
        let ncomp = *labels.iter().max().unwrap() + 1;
        if ncomp == 1 {
            return layer;
        }
        // Lightest bridge per component pair this round.
        let mut best: FxHashMap<(u32, u32), (usize, u64)> = FxHashMap::default();
        for (e, &(u, v)) in g.ends.iter().enumerate() {
            let (cu, cv) = (labels[u as usize], labels[v as usize]);
            if cu == cv {
                continue;
            }
            let entry = best.entry(key(cu, cv)).or_insert((e, weights[e]));
            if weights[e] < entry.1 {
                *entry = (e, weights[e]);
            }
        }
        for &(e, _) in best.values() {
            edges[e] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatpaths_net::topo::slimfly::slim_fly;

    #[test]
    fn layers_connected_and_subgraphs() {
        let t = slim_fly(7, 1).unwrap();
        let ls = build_interference_min_layers(
            &t.graph,
            &ImConfig {
                n_layers: 4,
                seed: 3,
            },
        );
        assert_eq!(ls.len(), 4);
        assert!(ls.validate(&t.graph));
    }

    #[test]
    fn placed_paths_are_almost_minimal() {
        // Sparse layers should host paths mostly lmin+1 long for sampled
        // pairs (that is what the heuristic places).
        let t = slim_fly(7, 1).unwrap();
        let ls = build_interference_min_layers(
            &t.graph,
            &ImConfig {
                n_layers: 3,
                seed: 5,
            },
        );
        let mut within = 0;
        let mut total = 0;
        for s in (0..98u32).step_by(11) {
            let (d, in_layer) = (t.graph.bfs(s), ls.layer(1).bfs(s));
            for v in (1..98u32).step_by(7) {
                if s == v {
                    continue;
                }
                let dl = in_layer[v as usize];
                if dl != fatpaths_net::graph::UNREACHABLE {
                    total += 1;
                    if dl <= d[v as usize] + 2 {
                        within += 1;
                    }
                }
            }
        }
        assert!(
            within * 10 >= total * 7,
            "{within}/{total} paths near-minimal"
        );
    }

    #[test]
    fn deterministic() {
        let t = slim_fly(5, 1).unwrap();
        let cfg = ImConfig {
            n_layers: 3,
            seed: 8,
        };
        let a = build_interference_min_layers(&t.graph, &cfg);
        let b = build_interference_min_layers(&t.graph, &cfg);
        for (x, y) in a.graphs.iter().zip(&b.graphs) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn weight_spreading_diversifies_edges() {
        // The union of sparse layers should cover a sizable fraction of the
        // base edges (the heuristic avoids reusing hot edges).
        let t = slim_fly(7, 1).unwrap();
        let ls = build_interference_min_layers(
            &t.graph,
            &ImConfig {
                n_layers: 5,
                seed: 1,
            },
        );
        let mut used = FxHashSet::default();
        for g in &ls.graphs[1..] {
            for e in g.edges() {
                used.insert(e);
            }
        }
        assert!(
            used.len() * 2 >= t.graph.m(),
            "{} of {}",
            used.len(),
            t.graph.m()
        );
    }
}
