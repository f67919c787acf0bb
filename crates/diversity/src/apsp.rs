//! All-pairs shortest-path statistics (§IV-B1: `lmin` distributions,
//! diameter, average path length).
//!
//! Every statistic comes from one [`Graph::hop_histogram`]: the
//! bit-parallel multi-source BFS counts each level's newly reached
//! (source, router) pairs with a popcount, so no per-source distance
//! vector is ever materialised.

use fatpaths_net::graph::{hop_totals, Graph, RouterId, UNREACHABLE};

/// Aggregate shortest-path statistics of a connected graph.
#[derive(Clone, Debug, PartialEq)]
pub struct PathStats {
    /// Maximum shortest-path length over all pairs.
    pub diameter: u32,
    /// Mean shortest-path length over ordered pairs (`d` in the paper).
    pub avg_path_length: f64,
    /// `lmin_histogram[l]` = number of ordered router pairs at distance `l`
    /// (index 0 counts the `n` self-pairs).
    pub lmin_histogram: Vec<u64>,
}

impl PathStats {
    /// Fraction of ordered pairs (excluding self-pairs) at distance `l` —
    /// the y-axis of Fig. 6 (top).
    pub fn fraction_at(&self, l: usize) -> f64 {
        let total: u64 = self.lmin_histogram.iter().skip(1).sum();
        if total == 0 || l >= self.lmin_histogram.len() {
            return 0.0;
        }
        self.lmin_histogram[l] as f64 / total as f64
    }
}

/// Computes exact all-pairs statistics from the hop histogram of every
/// router.
///
/// Panics if the graph is disconnected.
pub fn shortest_path_stats(g: &Graph) -> PathStats {
    let n = g.n();
    assert!(n > 0);
    let sources: Vec<RouterId> = (0..n as u32).collect();
    let mut hist = g.hop_histogram(&sources);
    let (diameter, total, reached) = hop_totals(&hist);
    assert!(reached == (n * n) as u64, "graph disconnected");
    if hist.len() < 2 {
        hist.resize(2, 0);
    }
    let pairs = reached - n as u64; // exclude self-pairs
    PathStats {
        diameter,
        avg_path_length: total as f64 / pairs.max(1) as f64,
        lmin_histogram: hist,
    }
}

/// Number of *distinct* shortest paths (not necessarily disjoint) from `src`
/// to every router, via the standard BFS counting DP. Saturating at
/// `u64::MAX`. `tests/prop_cdp.rs` checks it against the matrix method of
/// Appendix B.
pub fn count_shortest_paths(g: &Graph, src: RouterId) -> Vec<u64> {
    let n = g.n();
    let mut dist = vec![UNREACHABLE; n];
    let mut cnt = vec![0u64; n];
    let mut queue = Vec::with_capacity(n);
    dist[src as usize] = 0;
    cnt[src as usize] = 1;
    queue.push(src);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let du = dist[u as usize];
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                queue.push(v);
            }
            if dist[v as usize] == du + 1 {
                cnt[v as usize] = cnt[v as usize].saturating_add(cnt[u as usize]);
            }
        }
    }
    cnt
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cycle_stats() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let s = shortest_path_stats(&g);
        assert_eq!(s.diameter, 3);
        assert!((s.avg_path_length - 1.8).abs() < 1e-12);
        // Distances over ordered pairs: 12 at d=1, 12 at d=2, 6 at d=3.
        assert_eq!(&s.lmin_histogram[1..], &[12, 12, 6]);
        assert!((s.fraction_at(3) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn shortest_path_counts_on_square() {
        // 4-cycle: opposite corners have 2 shortest paths.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let c = count_shortest_paths(&g, 0);
        assert_eq!(c, vec![1, 1, 2, 1]);
    }

    #[test]
    fn slim_fly_has_one_minimal_path_mostly() {
        // §IV-C1: in SF, most router pairs have exactly one shortest path.
        let t = fatpaths_net::topo::slimfly::slim_fly(7, 1).unwrap();
        let mut single = 0usize;
        let mut multi = 0usize;
        for s in 0..t.num_routers() as u32 {
            let c = count_shortest_paths(&t.graph, s);
            let dist = t.graph.bfs(s);
            for v in 0..t.num_routers() {
                if dist[v] == 2 {
                    if c[v] == 1 {
                        single += 1;
                    } else {
                        multi += 1;
                    }
                }
            }
        }
        assert!(
            single > multi,
            "SF should be dominated by unique 2-hop paths"
        );
    }

    /// The scalar formulation: one [`Graph::bfs`] per source, merged in
    /// source order into a histogram of at least two entries.
    fn reference_stats(g: &Graph, sources: &[RouterId]) -> PathStats {
        let (mut diameter, mut total, mut reached) = (0u32, 0u64, 0u64);
        let mut hist = vec![0u64; 2];
        for &src in sources {
            for d in g.bfs(src) {
                if d == UNREACHABLE {
                    continue;
                }
                if d as usize >= hist.len() {
                    hist.resize(d as usize + 1, 0);
                }
                hist[d as usize] += 1;
                diameter = diameter.max(d);
                total += d as u64;
                reached += 1;
            }
        }
        let pairs = reached - sources.len() as u64;
        PathStats {
            diameter,
            avg_path_length: total as f64 / pairs.max(1) as f64,
            lmin_histogram: hist,
        }
    }

    #[test]
    fn stats_equal_scalar_formulation_on_evaluated_topologies() {
        use fatpaths_net::classes::{self, evaluated_kinds, SizeClass};
        for kind in evaluated_kinds() {
            let t = classes::build(kind, SizeClass::Medium, 1);
            let all: Vec<RouterId> = (0..t.num_routers() as u32).collect();
            assert_eq!(
                shortest_path_stats(&t.graph),
                reference_stats(&t.graph, &all)
            );
        }
    }

    #[test]
    #[should_panic(expected = "graph disconnected")]
    fn exact_stats_reject_disconnected_graphs() {
        shortest_path_stats(&Graph::from_edges(4, &[(0, 1), (2, 3)]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Sizes on either side of the 256-source batch width; a random
        // spanning tree under the random edges keeps the graph connected.
        #[test]
        fn stats_equal_scalar_formulation(
            (n, edges, tree) in (0usize..6).prop_flat_map(|i| {
                let n = [1usize, 2, 255, 256, 257, 513][i];
                let r = n as u32;
                (
                    Just(n),
                    prop::collection::vec((0..r, 0..r), 0..n + 1),
                    prop::collection::vec(any::<u32>(), n..n + 1),
                )
            }),
        ) {
            let mut edges: Vec<(u32, u32)> = edges.into_iter().filter(|(u, v)| u != v).collect();
            edges.extend((1..n as u32).map(|v| (v, tree[v as usize] % v)));
            let g = Graph::from_edges(n, &edges);
            let all: Vec<RouterId> = (0..n as u32).collect();
            let exact = shortest_path_stats(&g);
            prop_assert_eq!(&exact, &reference_stats(&g, &all));
            prop_assert_eq!(exact.avg_path_length.to_bits(), reference_stats(&g, &all).avg_path_length.to_bits());
            prop_assert_eq!(&exact, &rayon::run_sequential(|| shortest_path_stats(&g)));
        }
    }
}
