//! Count of Disjoint Paths (CDP) — §IV-B1.
//!
//! `c_l(A, B)` is the smallest number of edges whose removal kills every
//! path of length ≤ `l` from set `A` to set `B`. Exact length-bounded
//! min-cut is NP-hard for general `l`, so — exactly like the paper — we use
//! a Ford–Fulkerson-style greedy: repeatedly find a shortest surviving
//! `A→B` path of length ≤ `l` and delete its edges. The number of deleted
//! paths is a set of edge-disjoint bounded-length paths, i.e. the usable
//! multipath supply. For `l = ∞` the exact max-flow (Menger) value is also
//! provided for validation.

use fatpaths_net::graph::{Graph, RouterId};

/// Reusable scratch buffers for masked BFS.
#[derive(Default)]
pub struct CdpScratch {
    dist: Vec<u32>,
    parent: Vec<(u32, u32)>, // (prev node, edge id)
    queue: Vec<u32>,
    removed: Vec<bool>,
    is_target: Vec<bool>,
}

/// Greedy count of edge-disjoint paths of length ≤ `max_len` from any
/// router in `a` to any router in `b` (the paper's `c_l(A,B)`).
///
/// `a` and `b` must be disjoint and non-empty. `eids` is `g`'s
/// [`Graph::arc_edge_ids`]: a deleted path is marked by edge id, so
/// both directions of an edge go at once.
pub fn cdp(g: &Graph, eids: &[u32], a: &[RouterId], b: &[RouterId], max_len: u32) -> u32 {
    let mut scratch = CdpScratch::default();
    cdp_with(g, eids, a, b, max_len, &mut scratch)
}

/// [`cdp`] with caller-provided scratch space (for hot sampling loops).
pub fn cdp_with(
    g: &Graph,
    eids: &[u32],
    a: &[RouterId],
    b: &[RouterId],
    max_len: u32,
    scratch: &mut CdpScratch,
) -> u32 {
    debug_assert!(!a.is_empty() && !b.is_empty());
    debug_assert!(a.iter().all(|x| !b.contains(x)), "A and B must be disjoint");
    let n = g.n();
    scratch.removed.clear();
    scratch.removed.resize(g.m(), false);
    scratch.is_target.clear();
    scratch.is_target.resize(n, false);
    for &t in b {
        scratch.is_target[t as usize] = true;
    }
    let mut count = 0u32;
    while let Some(path_edges) = shortest_surviving_path(g, eids, a, max_len, scratch) {
        for e in path_edges {
            scratch.removed[e as usize] = true;
        }
        count += 1;
    }
    for &t in b {
        scratch.is_target[t as usize] = false;
    }
    count
}

/// BFS over surviving edges from multi-source `a`; returns the edge ids of
/// one shortest path to any marked target within `max_len`, or `None`.
fn shortest_surviving_path(
    g: &Graph,
    eids: &[u32],
    a: &[RouterId],
    max_len: u32,
    s: &mut CdpScratch,
) -> Option<Vec<u32>> {
    let n = g.n();
    s.dist.clear();
    s.dist.resize(n, u32::MAX);
    s.parent.clear();
    s.parent.resize(n, (u32::MAX, u32::MAX));
    s.queue.clear();
    for &src in a {
        s.dist[src as usize] = 0;
        s.queue.push(src);
    }
    let mut head = 0;
    while head < s.queue.len() {
        let u = s.queue[head];
        head += 1;
        let du = s.dist[u as usize];
        if du >= max_len {
            continue;
        }
        for (arc, &v) in g.arcs(u).zip(g.neighbors(u)) {
            let e = eids[arc];
            if s.removed[e as usize] || s.dist[v as usize] != u32::MAX {
                continue;
            }
            s.dist[v as usize] = du + 1;
            s.parent[v as usize] = (u, e);
            if s.is_target[v as usize] {
                // Reconstruct edge ids back to a source.
                let mut path = Vec::with_capacity((du + 1) as usize);
                let mut cur = v;
                while s.parent[cur as usize].0 != u32::MAX {
                    let (prev, e) = s.parent[cur as usize];
                    path.push(e);
                    cur = prev;
                }
                return Some(path);
            }
            s.queue.push(v);
        }
    }
    None
}

/// Minimal-path length and greedy minimal-path CDP for a single pair:
/// `(lmin(s,t), cmin(s,t))` of §IV-B1.
pub fn lmin_cmin(g: &Graph, eids: &[u32], s: RouterId, t: RouterId) -> (u32, u32) {
    let dist = g.bfs(s);
    let l = dist[t as usize];
    assert!(l != u32::MAX, "disconnected pair");
    if l == 0 {
        return (0, 0);
    }
    (l, cdp(g, eids, &[s], &[t], l))
}

/// Exact number of edge-disjoint `s→t` paths with *no* length bound
/// (Menger's theorem / unit-capacity max-flow, BFS augmenting paths).
/// Used to validate the greedy bound: `cdp(..., l=∞) ≤ maxflow`.
pub fn edge_disjoint_maxflow(g: &Graph, s: RouterId, t: RouterId) -> u32 {
    assert_ne!(s, t);
    let n = g.n();
    // Residual: per directed slot, capacity 0/1; an undirected edge becomes
    // two anti-parallel unit arcs.
    let eids = g.arc_edge_ids();
    // flow[e]: -1, 0, +1 on canonical orientation (u<v => +1 means u->v).
    let mut flow = vec![0i8; g.m()];
    let canon: Vec<(u32, u32)> = g.edge_vec();
    let mut total = 0u32;
    loop {
        // BFS in residual graph.
        let mut parent = vec![(u32::MAX, u32::MAX); n]; // (prev node, edge id)
        let mut queue = vec![s];
        parent[s as usize] = (s, u32::MAX);
        let mut head = 0;
        let mut reached = false;
        'bfs: while head < queue.len() {
            let u = queue[head];
            head += 1;
            for (arc, &v) in g.arcs(u).zip(g.neighbors(u)) {
                if parent[v as usize].0 != u32::MAX {
                    continue;
                }
                let e = eids[arc] as usize;
                let forward = canon[e].0 == u; // traveling in canonical direction
                let residual = if forward { flow[e] < 1 } else { flow[e] > -1 };
                if !residual {
                    continue;
                }
                parent[v as usize] = (u, e as u32);
                if v == t {
                    reached = true;
                    break 'bfs;
                }
                queue.push(v);
            }
        }
        if !reached {
            return total;
        }
        // Augment.
        let mut cur = t;
        while cur != s {
            let (prev, e) = parent[cur as usize];
            let e = e as usize;
            if canon[e].0 == prev {
                flow[e] += 1;
            } else {
                flow[e] -= 1;
            }
            cur = prev;
        }
        total += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn theta_graph() -> Graph {
        // Two routers joined by three internally disjoint paths of lengths
        // 1, 2, 3: edges 0-1; 0-2-1; 0-3-4-1.
        Graph::from_edges(5, &[(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
    }

    #[test]
    fn cdp_respects_length_bound() {
        let g = theta_graph();
        let e = g.arc_edge_ids();
        assert_eq!(cdp(&g, &e, &[0], &[1], 1), 1);
        assert_eq!(cdp(&g, &e, &[0], &[1], 2), 2);
        assert_eq!(cdp(&g, &e, &[0], &[1], 3), 3);
        assert_eq!(cdp(&g, &e, &[0], &[1], 10), 3);
    }

    #[test]
    fn lmin_cmin_basic() {
        let g = theta_graph();
        let e = g.arc_edge_ids();
        assert_eq!(lmin_cmin(&g, &e, 0, 1), (1, 1));
        // 2→3: the only length-2 path is 2-0-3 (2-1-4-3 has length 3).
        assert_eq!(lmin_cmin(&g, &e, 2, 3), (2, 1));
    }

    #[test]
    fn maxflow_matches_greedy_on_clique() {
        // K5: 4 edge-disjoint paths between any pair (degree bound).
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let g = Graph::from_edges(5, &edges);
        let e = g.arc_edge_ids();
        assert_eq!(edge_disjoint_maxflow(&g, 0, 4), 4);
        assert_eq!(cdp(&g, &e, &[0], &[4], 2), 4);
    }

    #[test]
    fn greedy_no_more_than_maxflow() {
        let t = fatpaths_net::topo::slimfly::slim_fly(5, 1).unwrap();
        let g = &t.graph;
        let e = g.arc_edge_ids();
        for (s, d) in [(0u32, 7u32), (3, 30), (10, 44)] {
            let mf = edge_disjoint_maxflow(g, s, d);
            let greedy = cdp(g, &e, &[s], &[d], 64);
            assert!(greedy <= mf, "greedy {greedy} > maxflow {mf}");
            // On these dense symmetric graphs greedy is near-exact.
            assert!(
                greedy + 2 >= mf,
                "greedy {greedy} too far from maxflow {mf}"
            );
        }
    }

    #[test]
    fn multi_source_sets() {
        let g = theta_graph();
        let e = g.arc_edge_ids();
        // From {0} to {1,4}: edge-disjoint: 0-1, 0-2-1... and 0-3-4.
        assert_eq!(cdp(&g, &e, &[0], &[1, 4], 2), 3);
    }

    #[test]
    fn sf_three_almost_minimal_paths() {
        // §IV-C2 takeaway: SF offers ≥3 disjoint paths at lmin+1 = 3 hops.
        let t = fatpaths_net::topo::slimfly::slim_fly(7, 1).unwrap();
        let g = &t.graph;
        let e = g.arc_edge_ids();
        let dist = g.bfs(0);
        let far: Vec<u32> = (0..g.n() as u32)
            .filter(|&v| dist[v as usize] == 2)
            .collect();
        let mut ok = 0;
        for &v in far.iter().take(20) {
            if cdp(g, &e, &[0], &[v], 3) >= 3 {
                ok += 1;
            }
        }
        assert!(
            ok >= 18,
            "only {ok}/20 SF pairs have 3 disjoint 3-hop paths"
        );
    }
}
