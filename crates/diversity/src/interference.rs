//! Path Interference (PI) — §IV-B2.
//!
//! For two communicating router pairs `(a,b)` and `(c,d)`, PI at distance
//! `l` quantifies how much the pairs' path supplies overlap:
//!
//! ```text
//! I^l_{ac,bd} = c_l({a,c},{b}) + c_l({a,c},{d}) − c_l({a,c},{b,d})
//! ```
//!
//! Positive PI means that bandwidth available to either pair shrinks when
//! both communicate (their disjoint-path sets are not independent).

use crate::cdp::{cdp_with, CdpScratch};
use fatpaths_net::graph::{Graph, RouterId};
use rand::prelude::*;
use rand::rngs::StdRng;
use rayon::prelude::*;

/// Computes `I^l_{ac,bd}` for one sample of two communicating pairs.
pub fn path_interference(
    g: &Graph,
    eids: &[u32],
    a: RouterId,
    b: RouterId,
    c: RouterId,
    d: RouterId,
    l: u32,
) -> i64 {
    let mut s = CdpScratch::default();
    path_interference_with(g, eids, a, b, c, d, l, &mut s)
}

/// [`path_interference`] with caller-provided scratch.
#[allow(clippy::too_many_arguments)]
fn path_interference_with(
    g: &Graph,
    eids: &[u32],
    a: RouterId,
    b: RouterId,
    c: RouterId,
    d: RouterId,
    l: u32,
    s: &mut CdpScratch,
) -> i64 {
    let srcs = [a, c];
    let to_b = cdp_with(g, eids, &srcs, &[b], l, s) as i64;
    let to_d = cdp_with(g, eids, &srcs, &[d], l, s) as i64;
    let to_both = cdp_with(g, eids, &srcs, &[b, d], l, s) as i64;
    to_b + to_d - to_both
}

/// One sampled PI observation: the pairs and the interference value.
#[derive(Clone, Copy, Debug)]
pub struct PiSample {
    /// First communicating pair (a → b).
    pub ab: (RouterId, RouterId),
    /// Second communicating pair (c → d).
    pub cd: (RouterId, RouterId),
    /// Interference value.
    pub pi: i64,
}

/// Samples `count` router 4-tuples u.a.r. (all four routers distinct) and
/// returns their PI at distance `l`. Deterministic in `seed`; parallel.
pub fn sample_pi(g: &Graph, eids: &[u32], l: u32, count: usize, seed: u64) -> Vec<PiSample> {
    let all: Vec<u32> = (0..g.n() as u32).collect();
    sample_pi_from(g, eids, l, count, seed, &all)
}

/// Like [`sample_pi`], but routers are drawn from `candidates` only — used
/// for fat trees, where only edge routers host endpoints and communicate
/// (the paper's PI is over *communicating* router pairs).
pub fn sample_pi_from(
    g: &Graph,
    eids: &[u32],
    l: u32,
    count: usize,
    seed: u64,
    candidates: &[RouterId],
) -> Vec<PiSample> {
    assert!(candidates.len() >= 4, "need at least 4 candidate routers");
    // Pre-draw the tuples sequentially for determinism, evaluate in parallel.
    let mut rng = StdRng::seed_from_u64(seed);
    let m = candidates.len();
    let tuples: Vec<[u32; 4]> = (0..count)
        .map(|_| loop {
            let t = [
                candidates[rng.random_range(0..m)],
                candidates[rng.random_range(0..m)],
                candidates[rng.random_range(0..m)],
                candidates[rng.random_range(0..m)],
            ];
            let mut u = t;
            u.sort_unstable();
            if u.windows(2).all(|w| w[0] != w[1]) {
                return t;
            }
        })
        .collect();
    tuples
        .into_par_iter()
        .map_init(CdpScratch::default, |s, [a, b, c, d]| PiSample {
            ab: (a, b),
            cd: (c, d),
            pi: path_interference_with(g, eids, a, b, c, d, l, s),
        })
        .collect()
}

/// Summary statistics of a PI sample: `(mean, tail_percentile_value)`.
pub fn pi_summary(samples: &[PiSample], tail_pct: f64) -> (f64, i64) {
    if samples.is_empty() {
        return (0.0, 0);
    }
    let mut vals: Vec<i64> = samples.iter().map(|s| s.pi).collect();
    vals.sort_unstable();
    let mean = vals.iter().sum::<i64>() as f64 / vals.len() as f64;
    let idx = ((tail_pct / 100.0) * (vals.len() as f64 - 1.0)).round() as usize;
    (mean, vals[idx.min(vals.len() - 1)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatpaths_net::graph::Graph;

    #[test]
    fn disjoint_pairs_have_zero_pi() {
        // Two disjoint triangles bridged by nothing shared: PI must be 0.
        let g = Graph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 0), // component A... must be connected; bridge below
                (4, 5),
                (5, 6),
                (6, 4),
                (2, 3),
                (3, 4), // long bridge
                (0, 7),
                (7, 6), // second long bridge to keep it 2-connected
            ],
        );
        let e = g.arc_edge_ids();
        // (0→1) and (4→5) at l=1 use only their own direct edges.
        assert_eq!(path_interference(&g, &e, 0, 1, 4, 5, 1), 0);
    }

    #[test]
    fn shared_bottleneck_has_positive_pi() {
        // Star around hub 4: pairs (0→1) and (2→3) both need the hub.
        let g = Graph::from_edges(5, &[(0, 4), (1, 4), (2, 4), (3, 4)]);
        let e = g.arc_edge_ids();
        // c_2({0,2},{1}) = 1, c_2({0,2},{3}) = 1, c_2({0,2},{1,3}): paths
        // 0-4-1 and 2-4-3 share no edge → 2. PI = 0 here (edge-disjoint).
        assert_eq!(path_interference(&g, &e, 0, 1, 2, 3, 2), 0);
        // Through a single shared edge it becomes positive: path graph.
        let g2 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let e2 = g2.arc_edge_ids();
        // (0→3) and (1→2) share edge 1-2: c_3({0,1},{3})=1, c_3({0,1},{2})=1,
        // c_3({0,1},{2,3})=1 ⇒ PI=1.
        assert_eq!(path_interference(&g2, &e2, 0, 3, 1, 2, 3), 1);
    }

    #[test]
    fn sampling_is_deterministic() {
        let t = fatpaths_net::topo::slimfly::slim_fly(5, 1).unwrap();
        let e = t.graph.arc_edge_ids();
        let a = sample_pi(&t.graph, &e, 3, 50, 9);
        let b = sample_pi(&t.graph, &e, 3, 50, 9);
        let va: Vec<i64> = a.iter().map(|s| s.pi).collect();
        let vb: Vec<i64> = b.iter().map(|s| s.pi).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn ft_zero_pi_between_edge_routers() {
        // Table IV: FT3 has PI ≈ 0 between communicating (edge) routers —
        // full bisection means disjoint path supplies don't overlap.
        let ft = fatpaths_net::topo::fattree::fat_tree(8, 1);
        let e = ft.graph.arc_edge_ids();
        let edge_routers: Vec<u32> =
            (0..fatpaths_net::topo::fattree::edge_router_count(8)).collect();
        let samples = sample_pi_from(&ft.graph, &e, 4, 60, 3, &edge_routers);
        let (mean, _) = pi_summary(&samples, 99.9);
        assert!(mean.abs() < 0.6, "FT mean PI {mean} not ~0");
    }

    #[test]
    fn pi_summary_percentiles() {
        let samples: Vec<PiSample> = (0..100)
            .map(|i| PiSample {
                ab: (0, 1),
                cd: (2, 3),
                pi: i,
            })
            .collect();
        let (mean, p99) = pi_summary(&samples, 99.0);
        assert!((mean - 49.5).abs() < 1e-9);
        assert_eq!(p99, 98); // (99/100)·(100−1) rounds to index 98
    }
}
