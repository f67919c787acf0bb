//! Static repair judged against a from-scratch rebuild: a
//! `RoutingTables::build` on the degraded layers is the oracle. A row one
//! of whose chosen hops crosses a down link must read, through the
//! overlay, exactly the oracle's row — a pair the degraded sparse layer
//! lost takes the repaired layer-0 route — and every other row must read
//! exactly as before. Independently of both builds, every routed hop of a
//! pair the degraded layer connects must take one step down that layer's
//! `Graph::bfs` distances, so forwarding is loop-free, never crosses a
//! down link, and reaches exactly the pairs the degraded layer connects.
//! Checked on Slim Fly and a three-level fat tree at 1, 2 and 5% link
//! failures, with one link down and with one router dead.

use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig, LayerSet};
use fatpaths_core::repair::{DownLinks, RouteRepair};
use fatpaths_core::scheme::RoutingScheme;
use fatpaths_net::fault::{FaultModel, FaultPlan};
use fatpaths_net::graph::UNREACHABLE;
use fatpaths_net::topo::fattree::fat_tree;
use fatpaths_net::topo::slimfly::slim_fly;
use fatpaths_net::topo::Topology;

/// The simulator's lookup: the overlay entry, else the scheme's row.
/// `None` is unreachable.
fn effective(
    rt: &RoutingTables,
    rep: &RouteRepair,
    layer: usize,
    at: u32,
    dst: u32,
) -> Option<u16> {
    let tag = layer as u8;
    match rep.lookup(tag, at, dst) {
        Some(e) => e.first().copied(),
        None => rt.candidate_ports(tag, at, dst).as_slice().first().copied(),
    }
}

/// Repairs the down set `down` of layers drawn with `seed` and checks it
/// against the rebuild; returns how many rows a down link broke.
fn check_against_rebuild(topo: &Topology, down: &DownLinks, seed: u64, what: &str) -> usize {
    let g = &topo.graph;
    let nr = g.n() as u32;
    let layers = build_random_layers(g, &LayerConfig::new(4, 0.6, seed));
    let rt = RoutingTables::build(g, &layers);
    assert!(!down.is_empty(), "{}: nothing failed at {what}", topo.name);
    let rep = rt.repair(g, down);
    let degraded = LayerSet {
        graphs: layers
            .graphs
            .iter()
            .map(|lg| lg.without_edges(down.as_slice()))
            .collect(),
    };
    let oracle = RoutingTables::build(g, &degraded);
    let mut broken_rows = 0;
    for l in 0..layers.len() {
        let dl = degraded.layer(l);
        for dst in 0..nr {
            let dist = dl.bfs(dst);
            let broken = (0..nr).any(|s| {
                rt.ports()
                    .get(l, s, dst)
                    .is_some_and(|p| down.contains(s, g.neighbor_at(s, p as u32)))
            });
            broken_rows += broken as usize;
            for src in (0..nr).filter(|&s| s != dst) {
                let at = format!("{} at {what}: layer {l} {src}->{dst}", topo.name);
                let got = effective(&rt, &rep, l, src, dst);
                // A broken row reads the rebuild's, any other row as before.
                let (want, what_differs) = if broken {
                    (oracle.ports(), "rebuilt row differs from the rebuild")
                } else {
                    (rt.ports(), "unbroken row changed")
                };
                match want.get(l, src, dst) {
                    Some(p) => assert_eq!(got, Some(p), "{at}: {what_differs}"),
                    None if l == 0 => assert_eq!(got, None, "{at}: disconnected pair routed"),
                    None => assert_eq!(
                        got,
                        effective(&rt, &rep, 0, src, dst),
                        "{at}: pair off the layer must take layer 0"
                    ),
                }
                let d = dist[src as usize];
                if d != UNREACHABLE {
                    let p = got.unwrap_or_else(|| panic!("{at}: connected pair unrouted"));
                    let next = g.neighbor_at(src, p as u32);
                    assert!(
                        dl.has_edge(src, next),
                        "{at}: hop {src}-{next} leaves the degraded layer"
                    );
                    assert_eq!(dist[next as usize] + 1, d, "{at}: hop not one step closer");
                }
            }
        }
    }
    broken_rows
}

#[test]
fn repair_matches_a_rebuild_on_degraded_layers() {
    for topo in [slim_fly(7, 1).unwrap(), fat_tree(8, 1)] {
        let mut broken_rows = 0;
        for fraction in [0.01, 0.02, 0.05] {
            for seed in [1, 2] {
                let plan =
                    FaultPlan::sample(&topo, &FaultModel::UniformFraction { fraction }, seed);
                let down = DownLinks::from_links(plan.static_failures());
                broken_rows += check_against_rebuild(&topo, &down, seed, &format!("{fraction}"));
            }
        }
        assert!(broken_rows > 0, "{}: no row was broken", topo.name);
    }
}

#[test]
fn one_down_link_matches_a_rebuild() {
    // The smallest rebuilt bands: a lone link is the only minimal hop
    // between its two ends, so it breaks at least the rows toward them in
    // each layer that holds it.
    for topo in [slim_fly(7, 1).unwrap(), fat_tree(8, 1)] {
        let g = &topo.graph;
        let down = DownLinks::from_links(&[(0, g.neighbor_at(0, 0))]);
        let broken_rows = check_against_rebuild(&topo, &down, 1, "one down link");
        assert!(broken_rows >= 2, "{}: {broken_rows} rows broken", topo.name);
    }
}

#[test]
fn dead_router_matches_a_rebuild() {
    for topo in [slim_fly(7, 1).unwrap(), fat_tree(8, 1)] {
        let dead = topo.graph.n() as u32 / 2;
        let down = DownLinks::from_failures(&topo.graph, &[], &[dead]);
        let broken_rows = check_against_rebuild(&topo, &down, 2, &format!("router {dead} dead"));
        // The row toward the dead router breaks in each of the 4 layers.
        assert!(broken_rows >= 4, "{}: {broken_rows} rows broken", topo.name);
    }
}
