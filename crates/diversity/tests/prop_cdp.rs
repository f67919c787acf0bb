//! Property-based tests for the diversity metrics: monotonicity, degree
//! bounds, and agreement with exact max-flow and with the matrix method
//! of Appendix B.

use fatpaths_diversity::apsp::count_shortest_paths;
use fatpaths_diversity::cdp::{cdp, edge_disjoint_maxflow};
use fatpaths_diversity::collisions::{collision_histogram, fraction_with_at_least};
use fatpaths_net::graph::Graph;
use fatpaths_net::topo::jellyfish::random_regular_edges;
use proptest::prelude::*;

fn connected_regular(n: usize, k: usize, seed: u64) -> Graph {
    Graph::from_edges(n, &random_regular_edges(n, k, seed))
}

/// Saturating product of two dense row-major `n × n` count matrices.
fn mul(x: &[u64], y: &[u64], n: usize) -> Vec<u64> {
    let mut out = vec![0u64; n * n];
    for i in 0..n {
        for k in 0..n {
            let a = x[i * n + k];
            for j in 0..n {
                out[i * n + j] = out[i * n + j].saturating_add(a.saturating_mul(y[k * n + j]));
            }
        }
    }
    out
}

fn identity(n: usize) -> Vec<u64> {
    let mut m = vec![0u64; n * n];
    for i in 0..n {
        m[i * n + i] = 1;
    }
    m
}

fn adjacency(g: &Graph) -> Vec<u64> {
    let n = g.n();
    let mut a = vec![0u64; n * n];
    for u in 0..n as u32 {
        for &v in g.neighbors(u) {
            a[u as usize * n + v as usize] = 1;
        }
    }
    a
}

/// Theorem 1: cell `(i, j)` of `A^l` counts the length-`l` walks from `i`
/// to `j`.
fn walk_counts(g: &Graph, l: u32) -> Vec<u64> {
    let a = adjacency(g);
    (0..l).fold(identity(g.n()), |acc, _| mul(&acc, &a, g.n()))
}

/// The matrix method's shortest-path counts: `S[i][j]` is cell `(i, j)`
/// of `A^l` at the first `l` where it is non-zero (0 if `j` is never
/// reached), since a walk of the shortest length is a shortest path.
fn shortest_path_count_matrix(g: &Graph) -> Vec<u64> {
    let (n, a) = (g.n(), adjacency(g));
    let mut walks = identity(n);
    let mut out = walks.clone();
    for _ in 0..n {
        walks = mul(&walks, &a, n);
        let mut reached_new = false;
        for (o, &w) in out.iter_mut().zip(&walks) {
            if *o == 0 && w > 0 {
                *o = w;
                reached_new = true;
            }
        }
        if !reached_new {
            break;
        }
    }
    out
}

#[test]
fn theorem_1_walk_counts_on_triangle() {
    let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
    let a2 = walk_counts(&g, 2);
    // Walks of length 2 from 0 to 0: 0-1-0 and 0-2-0.
    assert_eq!(a2[0], 2);
    // 0 to 1 in 2 steps: 0-2-1 only.
    assert_eq!(a2[1], 1);
}

#[test]
fn matrix_matches_bfs_shortest_counts() {
    let t = fatpaths_net::topo::hyperx::hyperx(2, 3, 1);
    let n = t.num_routers();
    let m = shortest_path_count_matrix(&t.graph);
    for s in 0..n as u32 {
        let bfs = count_shortest_paths(&t.graph, s);
        assert_eq!(&m[s as usize * n..][..n], &bfs[..], "source {s}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cdp_monotone_in_length(seed in 0u64..100, s in 0u32..29, t in 0u32..29) {
        prop_assume!(s != t);
        let g = connected_regular(30, 5, seed);
        let e = g.arc_edge_ids();
        let mut prev = 0;
        for l in 1..=6u32 {
            let c = cdp(&g, &e, &[s], &[t], l);
            prop_assert!(c >= prev, "CDP decreased when l grew");
            prev = c;
        }
    }

    #[test]
    fn cdp_bounded_by_degree_and_maxflow(seed in 0u64..100, s in 0u32..29, t in 0u32..29) {
        prop_assume!(s != t);
        let g = connected_regular(30, 5, seed);
        let e = g.arc_edge_ids();
        let c = cdp(&g, &e, &[s], &[t], 30);
        let mf = edge_disjoint_maxflow(&g, s, t);
        prop_assert!(c <= 5, "CDP exceeds endpoint degree");
        prop_assert!(c <= mf, "greedy CDP exceeds exact max-flow");
        // Greedy must find at least one path in a connected graph.
        prop_assert!(c >= 1);
    }

    #[test]
    fn bfs_shortest_counts_match_the_matrix_method(seed in 0u64..100) {
        let g = connected_regular(30, 5, seed);
        let m = shortest_path_count_matrix(&g);
        for s in 0..30u32 {
            prop_assert_eq!(&m[s as usize * 30..][..30], &count_shortest_paths(&g, s)[..]);
        }
    }

    #[test]
    fn maxflow_symmetric(seed in 0u64..60, s in 0u32..19, t in 0u32..19) {
        prop_assume!(s != t);
        let g = connected_regular(20, 4, seed);
        prop_assert_eq!(edge_disjoint_maxflow(&g, s, t), edge_disjoint_maxflow(&g, t, s));
    }

    #[test]
    fn collision_histogram_conserves_flows(
        flows in prop::collection::vec((0u32..20, 0u32..20), 0..200)
    ) {
        let hist = collision_histogram(&flows);
        let inter_router = flows.iter().filter(|(s, d)| s != d).count() as u64;
        let total: u64 = hist.iter().enumerate().map(|(c, &n)| c as u64 * n).sum();
        prop_assert_eq!(total, inter_router);
        // Fractions are probabilities.
        let f = fraction_with_at_least(&hist, 2);
        prop_assert!((0.0..=1.0).contains(&f));
    }
}
