//! Property-based tests for the node-level fault model: when whole
//! routers die (all incident links at once, `FaultModel::RouterDown`),
//! the repaired layered tables never forward a packet *through* a dead
//! router, and every pair of live routers that the degraded graph still
//! connects remains routed.

use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_core::repair::{DownLinks, RouteRepair};
use fatpaths_core::scheme::RoutingScheme;
use fatpaths_net::fault::{FaultModel, FaultPlan};
use fatpaths_net::graph::UNREACHABLE;
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
    rt.candidate_ports(layer, at, dst)
        .as_slice()
        .first()
        .copied()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn repair_routes_around_dead_routers(
        n_layers in 3usize..6,
        n_dead in 1usize..4,
        seed in 0u64..100_000,
    ) {
        let (layer_seed, fault_seed) = (seed, seed ^ 0xD00D);
        let topo = slim_fly(5, 1).unwrap();
        let g = &topo.graph;
        let nr = g.n() as u32;
        let ls = build_random_layers(g, &LayerConfig::new(n_layers, 0.6, layer_seed));
        let rt = RoutingTables::build(g, &ls);
        let plan = FaultPlan::sample(&topo, &FaultModel::RouterDown { routers: n_dead }, fault_seed);
        let dead = plan.static_router_failures();
        prop_assert_eq!(dead.len(), n_dead);
        let down = DownLinks::from_failures(g, &[], dead);
        // Every incident link of every dead router is in the down set.
        for &r in dead {
            for &nb in g.neighbors(r) {
                prop_assert!(down.contains(r, nb));
            }
        }
        let rep = rt.repair(g, &down);
        let degraded = g.without_edges(down.as_slice());

        for l in 0..n_layers as u8 {
            for (s, t) in [(0u32, 41u32), (41, 0), (7, 30), (13, 49), (25, 3), (44, 18)] {
                prop_assert!(s < nr && t < nr);
                if dead.contains(&s) || dead.contains(&t) {
                    // Pairs incident to a dead router are host-dead
                    // territory (workload filtering), not a routing
                    // obligation.
                    continue;
                }
                let connected = degraded.bfs(s)[t as usize] != UNREACHABLE;
                // Walk hop by hop through the effective tables.
                let mut at = s;
                let mut hops = 0usize;
                let reached = loop {
                    if at == t {
                        break true;
                    }
                    let Some(p) = effective_port(&rt, &rep, l, at, t) else {
                        break false;
                    };
                    let next = g.neighbor_at(at, p as u32);
                    // The core property: a repaired route never crosses
                    // a link into (or out of) a dead router.
                    prop_assert!(
                        !down.contains(at, next),
                        "layer {l} {s}->{t}: crossed down link {at}-{next}"
                    );
                    prop_assert!(
                        !dead.contains(&next),
                        "layer {l} {s}->{t}: routed through dead router {next}"
                    );
                    at = next;
                    hops += 1;
                    prop_assert!(hops <= g.n(), "layer {l} {s}->{t}: loop");
                };
                // Live pairs the degraded graph connects are still
                // routed; disconnected ones are reported unreachable,
                // never silently looped.
                prop_assert_eq!(
                    reached,
                    connected,
                    "layer {} {}->{}: reached={} connected={}",
                    l, s, t, reached, connected
                );
            }
        }
    }
}
