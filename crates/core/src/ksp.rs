//! k-shortest-paths comparison baseline (Singla et al., ref. 10; Appendix C-D).
//!
//! Yen's algorithm over unweighted graphs (BFS as the shortest-path
//! subroutine): the `k` shortest *loop-free* paths per pair, over which
//! Jellyfish-style routing spreads traffic. Used as the third layered
//! comparison target of §VI.
//!
//! Every spur search of Yen's algorithm removes only the root routers and
//! some first hops out of the spur router, so a search is one BFS on
//! generation-stamped scratch that starts with the root routers marked
//! seen, skips the removed first hops, and stops as soon as it discovers
//! the destination: BFS fixes a router's parent chain when it discovers
//! it.

use fatpaths_net::graph::{Graph, RouterId};

/// Computes up to `k` shortest simple paths `src → dst` (each a router
/// sequence including both endpoints), in non-decreasing length order.
pub fn k_shortest_paths(g: &Graph, src: RouterId, dst: RouterId, k: usize) -> Vec<Vec<RouterId>> {
    k_shortest_paths_in(g, src, dst, k, &mut YenScratch::default())
}

/// Scratch of Yen's algorithm, reused across the pairs a worker runs.
#[derive(Default)]
pub(crate) struct YenScratch {
    /// `seen[v] == generation`: `v` is discovered or removed in the
    /// current search.
    seen: Vec<u32>,
    generation: u32,
    parent: Vec<RouterId>,
    queue: Vec<RouterId>,
    /// First hops out of the spur router the current search may not take.
    cut: Vec<RouterId>,
}

impl YenScratch {
    /// Starts a search on `n` routers with nothing seen.
    fn start(&mut self, n: usize) {
        if self.seen.len() != n {
            self.seen = vec![0; n];
            self.parent = vec![0; n];
            self.generation = 0;
        }
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.seen.fill(0);
            self.generation = 1;
        }
        self.queue.clear();
    }

    #[inline]
    fn mark(&mut self, v: RouterId) {
        self.seen[v as usize] = self.generation;
    }

    /// BFS shortest path `src → dst` avoiding the routers marked since
    /// [`start`](YenScratch::start) and the first hops in `cut`, appended
    /// to `out` without `src`; false if `dst` is unreachable.
    fn bfs_tail(
        &mut self,
        g: &Graph,
        src: RouterId,
        dst: RouterId,
        out: &mut Vec<RouterId>,
    ) -> bool {
        self.mark(src);
        self.queue.push(src);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for &v in g.neighbors(u) {
                if self.seen[v as usize] == self.generation || (u == src && self.cut.contains(&v)) {
                    continue;
                }
                self.mark(v);
                self.parent[v as usize] = u;
                if v == dst {
                    let from = out.len();
                    let mut cur = dst;
                    while cur != src {
                        out.push(cur);
                        cur = self.parent[cur as usize];
                    }
                    out[from..].reverse();
                    return true;
                }
                self.queue.push(v);
            }
        }
        false
    }
}

/// [`k_shortest_paths`] on the caller's scratch.
pub(crate) fn k_shortest_paths_in(
    g: &Graph,
    src: RouterId,
    dst: RouterId,
    k: usize,
    s: &mut YenScratch,
) -> Vec<Vec<RouterId>> {
    assert_ne!(src, dst);
    let mut result: Vec<Vec<u32>> = Vec::with_capacity(k);
    s.start(g.n());
    s.cut.clear();
    let mut first = vec![src];
    if !s.bfs_tail(g, src, dst, &mut first) {
        return result;
    }
    result.push(first);
    // Candidate pool, deduplicated. A spur search never rebuilds an
    // accepted path: it leaves the root through an edge no accepted path
    // with that root takes.
    let mut candidates: Vec<Vec<u32>> = Vec::new();
    let mut path = Vec::new();
    while result.len() < k {
        let prev = &result[result.len() - 1];
        for spur_idx in 0..prev.len() - 1 {
            let root = &prev[..=spur_idx];
            s.start(g.n());
            // Routers removed: the root minus the spur (loop-freedom).
            for &v in &root[..spur_idx] {
                s.mark(v);
            }
            // Edges removed: for every accepted path sharing this root,
            // the edge it takes out of the spur router.
            s.cut.clear();
            s.cut.extend(
                result
                    .iter()
                    .filter(|p| p.len() > spur_idx + 1 && p[..=spur_idx] == *root)
                    .map(|p| p[spur_idx + 1]),
            );
            path.clear();
            path.extend_from_slice(root);
            if s.bfs_tail(g, prev[spur_idx], dst, &mut path) && !candidates.contains(&path) {
                candidates.push(path.clone());
            }
        }
        // Extract the shortest candidate (ties by content).
        let Some(best) = (0..candidates.len()).min_by(|&a, &b| {
            let (a, b) = (&candidates[a], &candidates[b]);
            a.len().cmp(&b.len()).then_with(|| a.cmp(b))
        }) else {
            break;
        };
        result.push(candidates.swap_remove(best));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatpaths_net::graph::UNREACHABLE;
    use proptest::prelude::*;
    use rustc_hash::FxHashSet;

    /// The hash-set Yen the stamped kernel replaced, kept as its
    /// reference: fresh removal sets and a full BFS per spur search.
    fn oracle_ksp(g: &Graph, src: RouterId, dst: RouterId, k: usize) -> Vec<Vec<RouterId>> {
        let mut result: Vec<Vec<u32>> = Vec::with_capacity(k);
        let Some(first) = oracle_bfs(g, src, dst, &FxHashSet::default(), &FxHashSet::default())
        else {
            return result;
        };
        result.push(first);
        let mut candidates: Vec<Vec<u32>> = Vec::new();
        let mut seen: FxHashSet<Vec<u32>> = FxHashSet::default();
        while result.len() < k {
            let prev = result.last().unwrap().clone();
            for spur_idx in 0..prev.len() - 1 {
                let spur = prev[spur_idx];
                let root = &prev[..=spur_idx];
                let mut removed_edges: FxHashSet<(u32, u32)> = FxHashSet::default();
                for p in result.iter() {
                    if p.len() > spur_idx + 1 && p[..=spur_idx] == *root {
                        let (a, b) = (p[spur_idx], p[spur_idx + 1]);
                        removed_edges.insert((a.min(b), a.max(b)));
                    }
                }
                let removed_nodes: FxHashSet<u32> = root[..spur_idx].iter().copied().collect();
                if let Some(tail) = oracle_bfs(g, spur, dst, &removed_nodes, &removed_edges) {
                    let mut path = root[..spur_idx].to_vec();
                    path.extend_from_slice(&tail);
                    if seen.insert(path.clone()) {
                        candidates.push(path);
                    }
                }
            }
            if candidates.is_empty() {
                break;
            }
            let best = candidates
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| (p.len(), (*p).clone()))
                .map(|(i, _)| i)
                .unwrap();
            result.push(candidates.swap_remove(best));
        }
        result
    }

    fn oracle_bfs(
        g: &Graph,
        src: RouterId,
        dst: RouterId,
        removed_nodes: &FxHashSet<u32>,
        removed_edges: &FxHashSet<(u32, u32)>,
    ) -> Option<Vec<u32>> {
        if removed_nodes.contains(&src) || removed_nodes.contains(&dst) {
            return None;
        }
        let mut dist = vec![UNREACHABLE; g.n()];
        let mut parent = vec![u32::MAX; g.n()];
        let mut queue = vec![src];
        dist[src as usize] = 0;
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            if u == dst {
                break;
            }
            for &v in g.neighbors(u) {
                if dist[v as usize] != UNREACHABLE
                    || removed_nodes.contains(&v)
                    || removed_edges.contains(&(u.min(v), u.max(v)))
                {
                    continue;
                }
                dist[v as usize] = dist[u as usize] + 1;
                parent[v as usize] = u;
                queue.push(v);
            }
        }
        if dist[dst as usize] == UNREACHABLE {
            return None;
        }
        let mut path = vec![dst];
        let mut cur = dst;
        while cur != src {
            cur = parent[cur as usize];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Forests (one path or none per pair), disconnected pairs, and `k`
        // up to 12, above the number of simple paths on the sparse draws.
        // One scratch serves every pair, as it does per worker.
        #[test]
        fn yen_equals_the_hash_set_oracle(
            g in crate::spain::tests::arb_small_graph(),
            k in 1usize..13,
        ) {
            let mut scratch = YenScratch::default();
            let n = g.n() as u32;
            for src in 0..n {
                for dst in (0..n).filter(|&d| d != src) {
                    let got = k_shortest_paths_in(&g, src, dst, k, &mut scratch);
                    prop_assert!(got == oracle_ksp(&g, src, dst, k), "{src}->{dst} k {k}");
                }
            }
        }
    }

    fn theta() -> Graph {
        // 0-1 direct; 0-2-1; 0-3-4-1.
        Graph::from_edges(5, &[(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
    }

    #[test]
    fn finds_paths_in_length_order() {
        let g = theta();
        let paths = k_shortest_paths(&g, 0, 1, 3);
        assert_eq!(paths.len(), 3);
        assert_eq!(paths[0], vec![0, 1]);
        assert_eq!(paths[1], vec![0, 2, 1]);
        assert_eq!(paths[2], vec![0, 3, 4, 1]);
    }

    #[test]
    fn stops_when_exhausted() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let paths = k_shortest_paths(&g, 0, 2, 5);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn paths_are_simple_and_valid() {
        let t = fatpaths_net::topo::slimfly::slim_fly(5, 1).unwrap();
        let paths = k_shortest_paths(&t.graph, 0, 33, 8);
        assert_eq!(paths.len(), 8);
        let mut lens: Vec<usize> = paths.iter().map(|p| p.len()).collect();
        let sorted = {
            let mut l = lens.clone();
            l.sort_unstable();
            l
        };
        assert_eq!(lens, sorted, "paths not in length order");
        lens.dedup();
        for p in &paths {
            for w in p.windows(2) {
                assert!(t.graph.has_edge(w[0], w[1]));
            }
            let mut q = p.clone();
            q.sort_unstable();
            q.dedup();
            assert_eq!(q.len(), p.len(), "path has a loop");
        }
        // All paths distinct.
        let set: FxHashSet<&Vec<u32>> = paths.iter().collect();
        assert_eq!(set.len(), paths.len());
    }

    #[test]
    fn sf_ksp_needs_longer_paths() {
        // §IV-C1: SF pairs mostly have one shortest path, so k-shortest
        // paths necessarily includes non-minimal ones (k=4 ⇒ beyond lmin).
        let t = fatpaths_net::topo::slimfly::slim_fly(7, 1).unwrap();
        let paths = k_shortest_paths(&t.graph, 0, 60, 4);
        let lmin = paths[0].len();
        assert!(paths.iter().any(|p| p.len() > lmin));
    }
}
