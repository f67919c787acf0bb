//! Property-based tests for incremental layered-table repair: under
//! randomly sampled link-failure sets, the repaired tables stay
//! loop-free, never forward onto a down link, keep routing *within* a
//! layer whenever the degraded layer still connects the pair, and fall
//! back to layer 0 (or report unreachable) only when they genuinely
//! must.

use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_core::repair::{DownLinks, RouteRepair};
use fatpaths_core::scheme::RoutingScheme;
use fatpaths_net::fault::{FaultModel, FaultPlan};
use fatpaths_net::graph::{Graph, UNREACHABLE};
use fatpaths_net::topo::slimfly::slim_fly;
use proptest::prelude::*;

/// Simulator-faithful effective lookup: repaired row first, scheme row
/// otherwise. Returns `None` when the entry marks the pair unreachable.
fn effective_port(
    rt: &RoutingTables,
    rep: &RouteRepair,
    layer: u8,
    at: u32,
    dst: u32,
) -> Option<u16> {
    if let Some(e) = rep.lookup(layer, at, dst) {
        return e.first().copied();
    }
    let ports = rt.candidate_ports(layer, at, dst);
    ports.as_slice().first().copied()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn repaired_tables_are_loop_free_and_fall_back_only_when_disconnected(
        n_layers in 3usize..6,
        rho_pct in 50u32..80,
        frac_pct in 5u32..25,
        seed in 0u64..100_000,
    ) {
        let (layer_seed, fault_seed) = (seed, seed ^ 0x9E37_79B9);
        let topo = slim_fly(5, 1).unwrap();
        let g = &topo.graph;
        let nr = g.n() as u32;
        let ls = build_random_layers(g, &LayerConfig::new(n_layers, rho_pct as f64 / 100.0, layer_seed));
        let rt = RoutingTables::build(g, &ls);
        let plan = FaultPlan::sample(
            &topo,
            &FaultModel::UniformFraction { fraction: frac_pct as f64 / 100.0 },
            fault_seed,
        );
        let down = DownLinks::from_links(plan.static_failures());
        let rep = rt.repair(g, &down);

        // Same inputs → same repair (sampled keys).
        let rep2 = rt.repair(g, &down);
        prop_assert_eq!(rep.len(), rep2.len());

        // Degraded views: base and per-layer.
        let degraded_base = g.without_edges(down.as_slice());
        let degraded_layers: Vec<Graph> = (0..n_layers)
            .map(|l| {
                let dead: Vec<(u32, u32)> = down
                    .iter()
                    .filter(|&(u, v)| ls.layer(l).has_edge(u, v))
                    .collect();
                ls.layer(l).without_edges(&dead)
            })
            .collect();

        for l in 0..n_layers as u8 {
            for (s, t) in [(0u32, 41u32), (41, 0), (7, 30), (13, 49), (25, 3), (44, 18)] {
                prop_assert!(s < nr && t < nr);
                let base_dist = degraded_base.bfs(s);
                let base_connected = base_dist[t as usize] != UNREACHABLE;
                let layer_connected =
                    degraded_layers[l as usize].bfs(s)[t as usize] != UNREACHABLE;
                // Walk hop by hop through the repaired tables.
                let mut at = s;
                let mut path = vec![s];
                let reached = loop {
                    if at == t {
                        break true;
                    }
                    let Some(p) = effective_port(&rt, &rep, l, at, t) else {
                        break false;
                    };
                    let next = g.neighbor_at(at, p as u32);
                    // Never forward onto a down link.
                    prop_assert!(
                        !down.contains(at, next),
                        "layer {l} {s}->{t}: crossed down link {at}-{next}"
                    );
                    at = next;
                    path.push(at);
                    // Loop-freedom: a repaired walk never needs more than
                    // one visit per router.
                    prop_assert!(
                        path.len() <= g.n() + 1,
                        "layer {l} {s}->{t}: loop {path:?}"
                    );
                };
                // No router repeats.
                let mut q = path.clone();
                q.sort_unstable();
                q.dedup();
                prop_assert_eq!(q.len(), path.len(), "revisit in {:?}", path);
                // Reach iff the degraded base graph connects the pair:
                // unreachable entries only for genuinely disconnected pairs.
                prop_assert_eq!(
                    reached,
                    base_connected,
                    "layer {} {}->{}: reached={} base_connected={}",
                    l, s, t, reached, base_connected
                );
                // When the degraded *layer* still connects the pair, the
                // repaired route stays entirely within that layer (no
                // premature layer-0 fallback).
                if reached && layer_connected {
                    for w in path.windows(2) {
                        prop_assert!(
                            degraded_layers[l as usize].has_edge(w[0], w[1]),
                            "layer {l} {s}->{t}: left the layer at {}-{} though \
                             the degraded layer connects the pair",
                            w[0], w[1]
                        );
                    }
                }
            }
        }
    }
}
