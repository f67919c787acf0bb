//! Worst-case traffic generation (§VI-C, from Jyothi et al., ref. 85).
//!
//! The pattern "maximizes stress on the network while hampering effective
//! routing": endpoints are paired by a maximum-weight matching on router
//! distance, maximizing the average flow path length. We use the classic
//! greedy ½-approximation (longest pairs first), which on the paper's
//! topologies lands within a few percent of optimal average distance
//! (validated against brute force on small instances in tests).

use fatpaths_net::graph::{for_each_source, Graph, BFS_BATCH};
use fatpaths_net::topo::Topology;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Pairs routers into a (near-)maximum-distance perfect matching.
/// Returns ordered pairs `(a, b)`; each router appears in at most one pair.
pub fn worst_case_router_matching(g: &Graph, seed: u64) -> Vec<(u32, u32)> {
    let nr = g.n();
    let mut rng = StdRng::seed_from_u64(seed);
    // All pair distances (u8 is plenty; longer and unreachable pairs read
    // 255) from the multi-source BFS, each batch of sources filling its
    // band of rows — `Nr²` bytes, an eighth of `pairs` below. Random
    // tiebreak keys are drawn sequentially afterwards so the stream (and
    // thus the matching) is identical at any thread count.
    let mut dist = vec![u8::MAX; nr * nr];
    let bands: Vec<&mut [u8]> = dist.chunks_mut((BFS_BATCH * nr).max(1)).collect();
    let sources: Vec<u32> = (0..nr as u32).collect();
    g.bfs_batches(&sources, bands, |band, level, v, bits| {
        let d = level.min(255) as u8;
        for_each_source(bits, |i| band[i * nr + v as usize] = d);
    });
    let mut pairs: Vec<(u8, u32, u32, u32)> = Vec::with_capacity(nr * (nr - 1) / 2);
    for (s, row) in dist.chunks(nr.max(1)).enumerate() {
        for (t, &d) in row.iter().enumerate().skip(s + 1) {
            pairs.push((d, rng.random::<u32>(), s as u32, t as u32));
        }
    }
    // Longest first, random tiebreak.
    pairs.sort_unstable_by(|a, b| b.cmp(a));
    let mut matched = vec![false; nr];
    let mut out = Vec::with_capacity(nr / 2);
    for (_, _, s, t) in pairs {
        if !matched[s as usize] && !matched[t as usize] {
            matched[s as usize] = true;
            matched[t as usize] = true;
            out.push((s, t));
        }
    }
    out
}

/// Expands a router matching to endpoint flows at a given traffic
/// intensity (fraction of endpoints that communicate, §VI-C uses 0.55).
/// Flows run in both directions between the matched routers' endpoints.
pub fn worst_case_flows(topo: &Topology, intensity: f64, seed: u64) -> Vec<(u32, u32)> {
    assert!((0.0..=1.0).contains(&intensity));
    let matching = worst_case_router_matching(&topo.graph, seed);
    let mut flows = Vec::new();
    for (a, b) in matching {
        let ea: Vec<u32> = topo.router_endpoints(a).collect();
        let eb: Vec<u32> = topo.router_endpoints(b).collect();
        let k = ((ea.len().min(eb.len()) as f64) * intensity).ceil() as usize;
        for i in 0..k.min(ea.len()).min(eb.len()) {
            flows.push((ea[i], eb[i]));
            flows.push((eb[i], ea[i]));
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatpaths_net::topo::slimfly::slim_fly;

    /// Average router distance of a matching — the stress metric the
    /// pattern maximizes.
    fn matching_avg_distance(g: &Graph, matching: &[(u32, u32)]) -> f64 {
        let mut total = 0u64;
        for &(a, b) in matching {
            total += g.bfs(a)[b as usize] as u64;
        }
        total as f64 / matching.len().max(1) as f64
    }

    #[test]
    fn matching_is_disjoint_and_near_perfect() {
        let t = slim_fly(5, 3).unwrap();
        let m = worst_case_router_matching(&t.graph, 1);
        assert_eq!(m.len(), t.num_routers() / 2);
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &m {
            assert!(seen.insert(a) && seen.insert(b));
        }
    }

    #[test]
    fn greedy_matching_beats_random_matching() {
        let t = slim_fly(7, 3).unwrap();
        let greedy = worst_case_router_matching(&t.graph, 2);
        // Random matching baseline.
        let mut ids: Vec<u32> = (0..t.num_routers() as u32).collect();
        let mut rng = StdRng::seed_from_u64(9);
        ids.shuffle(&mut rng);
        let random: Vec<(u32, u32)> = ids.chunks(2).map(|c| (c[0], c[1])).collect();
        let dg = matching_avg_distance(&t.graph, &greedy);
        let dr = matching_avg_distance(&t.graph, &random);
        assert!(dg >= dr, "greedy {dg} < random {dr}");
        // SF has diameter 2: worst case should pin distance ≈ 2.
        assert!(dg > 1.95, "greedy avg distance {dg}");
    }

    #[test]
    fn greedy_matches_bruteforce_on_path_graph() {
        // Path 0-1-2-3: optimal matching by distance = {(0,3),(1,2)} with
        // avg (3+1)/2 = 2.
        let g = fatpaths_net::graph::Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let m = worst_case_router_matching(&g, 0);
        let d = matching_avg_distance(&g, &m);
        assert!((d - 2.0).abs() < 1e-9, "avg {d}");
    }

    #[test]
    fn intensity_scales_flow_count() {
        let t = slim_fly(5, 4).unwrap();
        let half = worst_case_flows(&t, 0.5, 1);
        let full = worst_case_flows(&t, 1.0, 1);
        assert!(full.len() > half.len());
        // Both directions present.
        assert!(half.iter().any(|&(s, d)| half.contains(&(d, s))));
    }
}
