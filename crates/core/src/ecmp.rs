//! All-pairs minimal-path state for the ECMP / packet-spray / LetFlow
//! baselines (§VII-A3).
//!
//! [`DistanceMatrix`] stores every router pair's hop distance; with the
//! graph it answers, at any router, which output ports lie on *some*
//! shortest path to a destination ([`DistanceMatrix::minimal_port_set`]).
//! Which of those ports a packet takes — per flow (ECMP), per packet
//! (spraying) or per flowlet (LetFlow) — is the simulator's hash pick,
//! not this module's.

use fatpaths_net::graph::{for_each_source, Graph, RouterId, BFS_BATCH};

/// Largest finite hop distance the `u8` distance stores of this crate
/// ([`DistanceMatrix`], the per-layer distance rows that
/// [`PortTables::build`](crate::fwd::PortTables::build) and layer repair
/// select ports from) hold; `u8::MAX` marks an unreachable pair.
pub const MAX_HOPS: u32 = u8::MAX as u32 - 1;

/// A finite hop distance as a `u8` distance entry. Panics, naming the
/// limit, when the distance exceeds [`MAX_HOPS`]: a clamped entry would
/// make two routers on one shortest path look equally far and silently
/// drop the pair's minimal next hops.
#[inline]
pub(crate) fn hop_byte(level: u32) -> u8 {
    assert!(
        level <= MAX_HOPS,
        "hop distance {level} exceeds the u8 distance limit of {MAX_HOPS} hops"
    );
    level as u8
}

/// All-pairs hop distances stored as `u8` (paths in the paper's networks
/// are ≤ 6 hops; a build panics on a graph with a finite distance above
/// [`MAX_HOPS`]).
///
/// Links are bidirectional in every evaluated topology, so the matrix is
/// symmetric and only the upper triangle (`src ≤ dst`, self-distances
/// included) is stored — `nr·(nr+1)/2` bytes instead of `nr²`, which at
/// the 119k-endpoint fat tree (4 805 routers) halves an 11 MB resident
/// table that would otherwise sit under the whole simulation.
#[derive(Clone, Debug)]
pub struct DistanceMatrix {
    nr: usize,
    /// Row `s` holds `d(s, s..nr)` contiguously.
    dist: Vec<u8>,
}

impl DistanceMatrix {
    /// Offset of row `s` in the triangular layout: rows `0..s` have
    /// lengths `nr, nr−1, …`, so it is `s·(2nr+1−s)/2`.
    #[inline]
    fn row_start(nr: usize, s: usize) -> usize {
        s * (2 * nr + 1 - s) / 2
    }

    /// Index of the `(a, b)` cell in the triangular layout.
    #[inline]
    fn idx(&self, a: usize, b: usize) -> usize {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        Self::row_start(self.nr, lo) + (hi - lo)
    }

    /// Builds the matrix with [`Graph::bfs_batches`]: every router is a
    /// source, and each batch of [`BFS_BATCH`] sources fills its own
    /// contiguous band of triangle rows. Panics if a finite distance
    /// exceeds [`MAX_HOPS`].
    pub fn build(g: &Graph) -> Self {
        let nr = g.n();
        let mut dist = vec![u8::MAX; nr * (nr + 1) / 2];
        let mut bands: Vec<(usize, &mut [u8])> = Vec::with_capacity(nr.div_ceil(BFS_BATCH));
        let mut rest = dist.as_mut_slice();
        for s0 in (0..nr).step_by(BFS_BATCH) {
            let s1 = (s0 + BFS_BATCH).min(nr);
            let (band, tail) = rest.split_at_mut(Self::row_start(nr, s1) - Self::row_start(nr, s0));
            bands.push((s0, band));
            rest = tail;
        }
        let sources: Vec<RouterId> = (0..nr as u32).collect();
        g.bfs_batches(&sources, bands, |(s0, band), level, v, bits| {
            let d = hop_byte(level);
            let v = v as usize;
            let base = Self::row_start(nr, *s0);
            for_each_source(bits, |i| {
                let s = *s0 + i;
                if s <= v {
                    band[Self::row_start(nr, s) - base + (v - s)] = d;
                }
            });
        });
        DistanceMatrix { nr, dist }
    }

    /// Hop distance `src → dst` (`None` if unreachable).
    #[inline]
    pub fn get(&self, src: RouterId, dst: RouterId) -> Option<u32> {
        let d = self.dist[self.idx(src as usize, dst as usize)];
        (d != u8::MAX).then_some(d as u32)
    }

    /// Ports of `src` on a shortest path toward `dst` as a
    /// [`PortSet`](crate::scheme::PortSet), in ascending port order (empty
    /// for `src == dst`) — the `+1`-distance invariant
    /// [`crate::scheme::MinimalScheme`] forwards on.
    pub fn minimal_port_set(
        &self,
        g: &Graph,
        src: RouterId,
        dst: RouterId,
    ) -> crate::scheme::PortSet {
        let mut out = crate::scheme::PortSet::new();
        if src == dst {
            return out;
        }
        let dst = dst as usize;
        let ds = self.dist[self.idx(src as usize, dst)] as u16;
        debug_assert!(ds != u8::MAX as u16);
        for (port, &nb) in g.neighbors(src).iter().enumerate() {
            if self.dist[self.idx(nb as usize, dst)] as u16 + 1 == ds {
                out.push(port as u16);
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::fwd::fnv1a;
    use fatpaths_net::classes::{self, evaluated_kinds, SizeClass};
    use fatpaths_net::graph::UNREACHABLE;
    use fatpaths_net::topo::{fattree::fat_tree, hyperx::hyperx, slimfly::slim_fly};
    use proptest::prelude::*;

    #[test]
    fn distances_match_bfs() {
        let t = slim_fly(5, 1).unwrap();
        let dm = DistanceMatrix::build(&t.graph);
        let d0 = t.graph.bfs(0);
        for v in 0..t.num_routers() as u32 {
            assert_eq!(dm.get(0, v), Some(d0[v as usize]));
        }
    }

    #[test]
    fn sf_has_single_minimal_port_mostly() {
        // Shortest paths fall short (§IV-C1): most SF pairs at distance 2
        // have exactly 1 minimal next hop.
        let t = slim_fly(7, 1).unwrap();
        let dm = DistanceMatrix::build(&t.graph);
        let mut single = 0;
        let mut total = 0;
        for s in 0..t.num_routers() as u32 {
            for d in 0..t.num_routers() as u32 {
                if dm.get(s, d) == Some(2) {
                    total += 1;
                    if dm.minimal_port_set(&t.graph, s, d).len() == 1 {
                        single += 1;
                    }
                }
            }
        }
        assert!(single * 10 > total * 8, "{single}/{total}");
    }

    #[test]
    fn fat_tree_has_many_minimal_ports() {
        // FT inter-pod pairs have k/2 minimal first hops — the diversity
        // ECMP exploits.
        let t = fat_tree(8, 1);
        let dm = DistanceMatrix::build(&t.graph);
        // Edge router 0 (pod 0) → edge router 4 (pod 1).
        assert_eq!(dm.minimal_port_set(&t.graph, 0, 4).len(), 4);
    }

    #[test]
    fn next_hop_sets_are_minimal() {
        // A 4-cycle 0-1-3-2-0, the next-hop-set example of Appendix B-1.
        let g = Graph::from_edges(4, &[(0, 1), (1, 3), (0, 2), (2, 3)]);
        let dm = DistanceMatrix::build(&g);
        // 0→3: both ports of 0 (to 1 and to 2) lie on shortest paths.
        assert_eq!(dm.minimal_port_set(&g, 0, 3).as_slice(), &[0, 1]);
        // 0→1: only the direct port.
        assert_eq!(dm.minimal_port_set(&g, 0, 1).as_slice(), &[0]);
    }

    #[test]
    fn ecmp_is_stable_per_flow_and_spreads_across_flows() {
        let t = hyperx(2, 4, 1);
        let dm = DistanceMatrix::build(&t.graph);
        // HX corner pair with 2 minimal ports.
        let (s, d) = (0u32, 5u32);
        let ports = dm.minimal_port_set(&t.graph, s, d);
        assert!(ports.len() >= 2);
        assert_eq!(
            dm.minimal_port_set(&t.graph, s, d).as_slice(),
            ports.as_slice()
        );
        // A per-flow FNV pick over the set (the simulator's ECMP) uses
        // every port across flow keys.
        let pick = |key: u64| ports.as_slice()[(fnv1a(key) % ports.len() as u64) as usize];
        let seen: std::collections::HashSet<u16> = (0..64u64).map(pick).collect();
        assert_eq!(seen.len(), ports.len());
    }

    /// `n` routers in a line: the end-to-end distance is `n - 1` hops.
    pub(crate) fn path_graph(n: u32) -> Graph {
        let edges: Vec<(u32, u32)> = (1..n).map(|v| (v - 1, v)).collect();
        Graph::from_edges(n as usize, &edges)
    }

    #[test]
    fn longest_storable_path_routes_every_pair() {
        // 255 routers in a line: the end-to-end distance is MAX_HOPS.
        let n = MAX_HOPS + 1;
        let g = path_graph(n);
        let dm = DistanceMatrix::build(&g);
        for s in 0..n {
            for d in 0..n {
                assert_eq!(dm.get(s, d), Some(s.abs_diff(d)));
                let (mut at, mut hops) = (s, 0);
                while at != d {
                    let ports = dm.minimal_port_set(&g, at, d);
                    assert_eq!(ports.len(), 1, "{s}->{d} stuck at {at}");
                    at = g.neighbor_at(at, ports.as_slice()[0] as u32);
                    hops += 1;
                }
                assert_eq!(hops, s.abs_diff(d));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the u8 distance limit of 254 hops")]
    fn path_beyond_the_distance_limit_is_rejected() {
        DistanceMatrix::build(&path_graph(MAX_HOPS + 2));
    }

    /// The scalar formulation: one [`Graph::bfs`] per source row.
    fn reference_triangle(g: &Graph) -> Vec<u8> {
        let nr = g.n();
        let mut dist = Vec::with_capacity(nr * (nr + 1) / 2);
        for s in 0..nr {
            let d = g.bfs(s as u32);
            dist.extend(d[s..].iter().map(
                |&dv| {
                    if dv == UNREACHABLE {
                        u8::MAX
                    } else {
                        dv as u8
                    }
                },
            ));
        }
        dist
    }

    #[test]
    fn triangle_equals_scalar_build_on_evaluated_topologies() {
        for class in [SizeClass::Small, SizeClass::Medium] {
            for kind in evaluated_kinds() {
                let t = classes::build(kind, class, 1);
                let dm = DistanceMatrix::build(&t.graph);
                assert!(
                    dm.dist == reference_triangle(&t.graph),
                    "{kind:?} {class:?}"
                );
            }
        }
    }

    /// Random sparse graphs with router counts on either side of the batch
    /// width, often disconnected and with isolated routers.
    pub(crate) fn arb_graph() -> impl Strategy<Value = Graph> {
        (0usize..7)
            .prop_flat_map(|i| {
                let n = [0usize, 1, 2, 255, 256, 257, 513][i];
                let r = n.max(1) as u32;
                (Just(n), prop::collection::vec((0..r, 0..r), 0..2 * n + 1))
            })
            .prop_map(|(n, edges)| {
                let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(u, v)| u != v).collect();
                Graph::from_edges(n, &edges)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn triangle_equals_scalar_build(g in arb_graph()) {
            let dm = DistanceMatrix::build(&g);
            prop_assert!(dm.dist == reference_triangle(&g));
            let seq = rayon::run_sequential(|| DistanceMatrix::build(&g));
            prop_assert!(dm.dist == seq.dist);
        }
    }
}
