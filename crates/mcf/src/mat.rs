//! Maximum Achievable Throughput (MAT) evaluation per routing scheme —
//! the machinery behind Fig. 9 (§VI-C).
//!
//! For a topology, a routing scheme, and a traffic pattern, MAT is the
//! largest `T` such that every commodity can ship `T · demand`
//! concurrently over the scheme's own candidate paths, which [`mat`]
//! takes as a function of the pair. Fig. 9 reads them where the packet
//! simulator forwards from, `fatpaths-core`'s port tables, through
//! `PortTables::paths` (the distinct per-layer paths, in layer order):
//!
//! * **FatPaths layered routing** — one destination-based path per layer,
//!   from the ports of its `RoutingTables`;
//! * **SPAIN** — the path within each layer (one spanning tree each),
//!   from `PortTables::spain`;
//! * **PAST** — the single tree path of the destination's spanning tree,
//!   from `PortTables::past`.
//!
//! **k-shortest paths** is the exception: Fig. 9 charges it with Yen's
//! k shortest paths themselves (`k_shortest_paths`), not with the layer
//! tables `PortTables::ksp` builds for the simulator, where layer `i`
//! unions every pair's `i`-th shortest path and minimal forwarding inside
//! that union may take another path.

use crate::gk::{max_concurrent_flow, Commodity, McfResult};
use fatpaths_net::graph::{Graph, RouterId, BFS_BATCH, UNREACHABLE};
use rayon::prelude::*;
use rustc_hash::FxHashMap;

/// A demand between two routers.
#[derive(Clone, Copy, Debug)]
pub struct RouterDemand {
    /// Source router.
    pub src: RouterId,
    /// Destination router.
    pub dst: RouterId,
    /// Requested flow.
    pub demand: f64,
}

/// Computes MAT: assembles commodities (router paths → edge-id paths) and
/// runs the Garg–Könemann solver with unit edge capacities. `paths(src,
/// dst)` gives a demand's candidate paths as router sequences
/// (`src ..= dst`).
///
/// Commodity assembly — the table walks / Yen runs behind `paths` — is
/// embarrassingly parallel and dominates wall-clock for large demand
/// sets, so it fans out per demand (hence the `Sync` bound); the GK
/// iterations themselves are data-dependent and stay sequential (see
/// [`crate::gk`]).
pub fn mat(
    g: &Graph,
    demands: &[RouterDemand],
    paths: impl Fn(RouterId, RouterId) -> Vec<Vec<RouterId>> + Sync,
    eps: f64,
) -> McfResult {
    let arc_eids = g.arc_edge_ids();
    let commodities: Vec<Commodity> = demands
        .par_iter()
        .map(|d| {
            let paths = paths(d.src, d.dst)
                .into_iter()
                .map(|p| {
                    p.windows(2)
                        .map(|w| {
                            g.edge_id(&arc_eids, w[0], w[1])
                                .expect("path hops are links")
                        })
                        .collect::<Vec<u32>>()
                })
                .filter(|p| !p.is_empty())
                .collect();
            Commodity {
                demand: d.demand,
                paths,
            }
        })
        .collect();
    let capacities = vec![1.0f64; g.m()];
    max_concurrent_flow(&capacities, &commodities, eps)
}

/// Throughput upper bound for a traffic matrix on a topology, with unit
/// link capacities: the minimum of the router egress/ingress cut bounds
/// (`T · demand_out(r) ≤ degree(r)`, same for ingress) and the
/// volumetric bound (every unit of a commodity consumes at least
/// `dist(src, dst)` capacity units, so `T · Σ dᵢ·distᵢ ≤ m`). This is
/// the denominator of the achieved/optimal ratio the `baselines` and
/// `te` sweeps report.
///
/// These are *true* upper bounds on any routing — minimal or
/// non-minimal, layered or not — so achieved/optimal is always ≤ 1
/// (unlike a k-shortest-path MCF restriction, which grossly
/// under-counts on fat trees where minimal path counts are quadratic in
/// the radix). They are not tight on every instance: a ratio well
/// below 1 can mean headroom *or* a loose cut.
pub fn throughput_upper_bound(
    topo: &fatpaths_net::topo::Topology,
    demands: &[RouterDemand],
) -> f64 {
    let g = &topo.graph;
    let nr = g.n();
    let mut out = vec![0.0f64; nr];
    let mut inn = vec![0.0f64; nr];
    for d in demands {
        if d.src != d.dst {
            out[d.src as usize] += d.demand;
            inn[d.dst as usize] += d.demand;
        }
    }
    let mut bound = f64::INFINITY;
    for r in 0..nr {
        let deg = g.neighbors(r as u32).len() as f64;
        if out[r] > 0.0 {
            bound = bound.min(deg / out[r]);
        }
        if inn[r] > 0.0 {
            bound = bound.min(deg / inn[r]);
        }
    }
    let volume = demand_volume(g, demands);
    if volume > 0.0 {
        bound = bound.min(g.m() as f64 / volume);
    }
    bound
}

/// `Σ demand · dist(src, dst)` over the non-self demands — the capacity
/// the matrix consumes at unit throughput (an unreachable pair counts
/// [`UNREACHABLE`] hops). The distances come
/// from one [`Graph::bfs_batches`] pass over the distinct sources, each
/// batch recording only its own demands' destinations. Demands are summed
/// in `(src, dst)` order, so the `f64` sum — and the bound — does not
/// depend on the caller's demand order.
fn demand_volume(g: &Graph, demands: &[RouterDemand]) -> f64 {
    let mut pairs: Vec<&RouterDemand> = demands.iter().filter(|d| d.src != d.dst).collect();
    pairs.sort_by_key(|d| (d.src, d.dst));
    let mut sources: Vec<RouterId> = pairs.iter().map(|d| d.src).collect();
    sources.dedup();
    // Per batch, its pairs as `(dst, source bit, pair index, hops)`,
    // sorted by destination so a visit finds them by binary search.
    let mut wants: Vec<Vec<(RouterId, usize, usize, u32)>> =
        vec![Vec::new(); sources.len().div_ceil(BFS_BATCH)];
    let mut s = 0;
    for (j, d) in pairs.iter().enumerate() {
        if sources[s] != d.src {
            s += 1;
        }
        wants[s / BFS_BATCH].push((d.dst, s % BFS_BATCH, j, UNREACHABLE));
    }
    for want in &mut wants {
        want.sort_unstable();
    }
    let wants = g.bfs_batches(&sources, wants, |want, level, v, bits| {
        let first = want.partition_point(|w| w.0 < v);
        for w in want[first..].iter_mut().take_while(|w| w.0 == v) {
            if bits[w.1 / 64] >> (w.1 % 64) & 1 == 1 {
                w.3 = level;
            }
        }
    });
    let mut hops = vec![UNREACHABLE; pairs.len()];
    for (_, _, j, h) in wants.into_iter().flatten() {
        hops[j] = h;
    }
    let mut volume = 0.0f64;
    for (d, h) in pairs.iter().zip(hops) {
        volume += d.demand * h as f64;
    }
    volume
}

/// Aggregates endpoint flows into router demands (flows between endpoints
/// of the same router pair merge; intra-router flows are dropped).
pub fn router_demands(
    flows: &[(u32, u32)],
    endpoint_router: impl Fn(u32) -> RouterId,
) -> Vec<RouterDemand> {
    let mut map: FxHashMap<(u32, u32), f64> = FxHashMap::default();
    for &(s, t) in flows {
        let (rs, rt) = (endpoint_router(s), endpoint_router(t));
        if rs != rt {
            *map.entry((rs, rt)).or_insert(0.0) += 1.0;
        }
    }
    map.into_iter()
        .map(|((src, dst), demand)| RouterDemand { src, dst, demand })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worstcase::worst_case_flows;
    use fatpaths_core::layers::{build_random_layers, LayerConfig, LayerSet};
    use fatpaths_core::{PortTables, RoutingTables};
    use fatpaths_net::topo::slimfly::slim_fly;
    use proptest::prelude::*;

    #[test]
    fn layered_beats_past_on_slim_fly_worst_case() {
        // The Fig. 9 headline: FatPaths layered routing outperforms PAST on
        // low-diameter topologies under worst-case traffic.
        let t = slim_fly(5, 3).unwrap();
        let g = &t.graph;
        let flows = worst_case_flows(&t, 0.55, 1);
        let demands = router_demands(&flows, |e| t.endpoint_router(e));
        let ls = build_random_layers(g, &LayerConfig::new(6, 0.6, 2));
        let rt = RoutingTables::build(g, &ls);
        let fat = mat(g, &demands, |s, d| rt.ports().paths(g, s, d), 0.08);
        let pt = PortTables::past(g, 3);
        let past = mat(g, &demands, |s, d| pt.paths(g, s, d), 0.08);
        assert!(
            fat.throughput > past.throughput,
            "FatPaths {} ≤ PAST {}",
            fat.throughput,
            past.throughput
        );
    }

    #[test]
    fn more_layers_do_not_hurt() {
        let t = slim_fly(5, 3).unwrap();
        let g = &t.graph;
        let flows = worst_case_flows(&t, 0.55, 4);
        let demands = router_demands(&flows, |e| t.endpoint_router(e));
        let rt1 = RoutingTables::build(g, &LayerSet::minimal_only(g));
        let single = mat(g, &demands, |s, d| rt1.ports().paths(g, s, d), 0.08);
        let l6 = build_random_layers(g, &LayerConfig::new(6, 0.6, 5));
        let rt6 = RoutingTables::build(g, &l6);
        let six = mat(g, &demands, |s, d| rt6.ports().paths(g, s, d), 0.08);
        assert!(
            six.throughput >= single.throughput * 0.95,
            "{} vs {}",
            six.throughput,
            single.throughput
        );
    }

    #[test]
    fn router_demand_merging() {
        let demands = router_demands(&[(0, 4), (1, 5), (2, 2)], |e| e / 2);
        // (0,4)→routers (0,2); (1,5)→(0,2); (2,2)→(1,1) dropped.
        assert_eq!(demands.len(), 1);
        assert_eq!(demands[0].demand, 2.0);
    }

    /// The scalar volume: one [`Graph::bfs`] per distinct source, summed
    /// in `(src, dst)` order.
    fn reference_volume(g: &Graph, demands: &[RouterDemand]) -> f64 {
        let mut order: Vec<usize> = (0..demands.len()).collect();
        order.sort_by_key(|&i| (demands[i].src, demands[i].dst));
        let mut volume = 0.0f64;
        let mut dist: Vec<u32> = Vec::new();
        let mut dist_src = u32::MAX;
        for &i in &order {
            let d = &demands[i];
            if d.src == d.dst {
                continue;
            }
            if d.src != dist_src {
                dist = g.bfs(d.src);
                dist_src = d.src;
            }
            volume += d.demand * dist[d.dst as usize] as f64;
        }
        volume
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Random, often disconnected graphs on either side of the batch
        // width, with repeated, self and unreachable demands in any order:
        // the batched volume equals the scalar one bit for bit.
        #[test]
        fn volume_equals_scalar_sum(
            n in (0usize..6).prop_map(|i| [1usize, 2, 255, 256, 257, 600][i]),
            edges in prop::collection::vec((0usize..600, 0usize..600), 0..1200),
            raw in prop::collection::vec((0usize..600, 0usize..600, 0u32..8), 0..400),
        ) {
            let edges: Vec<(u32, u32)> = edges
                .iter()
                .map(|&(u, v)| ((u % n) as u32, (v % n) as u32))
                .filter(|(u, v)| u != v)
                .collect();
            let g = Graph::from_edges(n, &edges);
            let demands: Vec<RouterDemand> = raw
                .iter()
                .map(|&(s, t, w)| RouterDemand {
                    src: (s % n) as u32,
                    dst: (t % n) as u32,
                    demand: 0.1 + w as f64 / 3.0,
                })
                .collect();
            let want = reference_volume(&g, &demands);
            prop_assert_eq!(demand_volume(&g, &demands).to_bits(), want.to_bits());
            let seq = rayon::run_sequential(|| demand_volume(&g, &demands));
            prop_assert_eq!(seq.to_bits(), want.to_bits());
        }
    }
}
