//! Static repair judged against a from-scratch rebuild: a
//! `RoutingTables::build` on the degraded layers is the oracle. A row the
//! repair rebuilt in full (exactly the rows whose in-layer distances
//! change) must equal the oracle's row, and every repaired entry must
//! take one step down the degraded layer's distances — so forwarding is
//! loop-free, never crosses a down link, and reaches exactly the pairs
//! the degraded layer connects — while a pair the degraded layer lost
//! takes the repaired layer-0 route. Checked on Slim Fly and a
//! three-level fat tree at 1, 2 and 5% link failures, with one link down
//! and with one router dead.

use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig, LayerSet};
use fatpaths_core::repair::{DownLinks, RouteRepair};
use fatpaths_core::scheme::RoutingScheme;
use fatpaths_net::fault::{FaultModel, FaultPlan};
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
/// against the rebuild; returns how many rows the repair had to rebuild
/// in full.
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
    let mut full_rows = 0;
    for l in 0..layers.len() {
        let dl = degraded.layer(l);
        for dst in 0..nr {
            let full =
                (0..nr).any(|s| rt.layer_distance(l, s, dst) != oracle.layer_distance(l, s, dst));
            full_rows += full as usize;
            for src in (0..nr).filter(|&s| s != dst) {
                let at = format!("{} at {what}: layer {l} {src}->{dst}", topo.name);
                let got = effective(&rt, &rep, l, src, dst);
                match oracle.layer_distance(l, src, dst) {
                    Some(d) => {
                        let p = got.unwrap_or_else(|| panic!("{at}: connected pair unrouted"));
                        let next = g.neighbor_at(src, p as u32);
                        assert!(
                            dl.has_edge(src, next),
                            "{at}: hop {src}-{next} leaves the degraded layer"
                        );
                        assert_eq!(
                            oracle.layer_distance(l, next, dst),
                            Some(d - 1),
                            "{at}: hop is not one step closer"
                        );
                        if full {
                            assert_eq!(
                                got,
                                oracle.ports().get(l, src, dst),
                                "{at}: rebuilt row differs from the rebuild"
                            );
                        }
                    }
                    None if l == 0 => assert_eq!(got, None, "{at}: disconnected pair routed"),
                    None => assert_eq!(
                        got,
                        effective(&rt, &rep, 0, src, dst),
                        "{at}: lost pair must take layer 0"
                    ),
                }
            }
        }
    }
    full_rows
}

#[test]
fn repair_matches_a_rebuild_on_degraded_layers() {
    for topo in [slim_fly(7, 1).unwrap(), fat_tree(8, 1)] {
        let mut full_rows = 0;
        for fraction in [0.01, 0.02, 0.05] {
            for seed in [1, 2] {
                let plan =
                    FaultPlan::sample(&topo, &FaultModel::UniformFraction { fraction }, seed);
                let down = DownLinks::from_links(plan.static_failures());
                full_rows += check_against_rebuild(&topo, &down, seed, &format!("{fraction}"));
            }
        }
        assert!(full_rows > 0, "{}: no row needed a rebuild", topo.name);
    }
}

#[test]
fn one_down_link_matches_a_rebuild() {
    // The smallest rebuilt bands: a lone link changes the distances of
    // at least the rows toward its two ends in each layer that holds it.
    for topo in [slim_fly(7, 1).unwrap(), fat_tree(8, 1)] {
        let g = &topo.graph;
        let down = DownLinks::from_links(&[(0, g.neighbor_at(0, 0))]);
        let full_rows = check_against_rebuild(&topo, &down, 1, "one down link");
        assert!(full_rows >= 2, "{}: {full_rows} rows rebuilt", topo.name);
    }
}

#[test]
fn dead_router_matches_a_rebuild() {
    for topo in [slim_fly(7, 1).unwrap(), fat_tree(8, 1)] {
        let dead = topo.graph.n() as u32 / 2;
        let down = DownLinks::from_failures(&topo.graph, &[], &[dead]);
        let full_rows = check_against_rebuild(&topo, &down, 2, &format!("router {dead} dead"));
        // The row toward the dead router changes in each of the 4 layers.
        assert!(full_rows >= 4, "{}: {full_rows} rows rebuilt", topo.name);
    }
}
