//! Pins the static layer-table repair bit for bit: an FNV digest of every
//! overlay row `RoutingTables::repair` returns for 1% and 5% link-failure
//! samples on a Slim Fly and a fat tree. The literals were computed before
//! the overlay assembly was rewritten as one linear pass, so a change to a
//! repaired port, a layer-0 shadow or a sparse-layer fallback fails here.

use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_core::repair::{DownLinks, RouteRepair};
use fatpaths_net::fault::{FaultModel, FaultPlan};
use fatpaths_net::topo::{fattree::fat_tree, slimfly::slim_fly, Topology};

/// Streaming FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of an overlay: its row count, then every row's key and ports
/// in `rows()` order.
fn overlay_digest(rep: &RouteRepair) -> u64 {
    fnv(std::iter::once(rep.len() as u64).chain(rep.rows().flat_map(
        |((layer, at, dst), ports)| {
            [layer as u64, at as u64, dst as u64, ports.len() as u64]
                .into_iter()
                .chain(ports.iter().map(|&p| p as u64))
        },
    )))
}

#[test]
fn static_repair_overlays_are_pinned() {
    // (topology, failed fraction, overlay rows, overlay digest)
    let cases: [(&str, Topology, f64, usize, u64); 4] = [
        (
            "SF",
            slim_fly(7, 1).unwrap(),
            0.01,
            1597,
            1707333673897000673,
        ),
        (
            "SF",
            slim_fly(7, 1).unwrap(),
            0.05,
            7205,
            5629439647820452813,
        ),
        ("FT", fat_tree(8, 1), 0.01, 992, 7096329980445176493),
        ("FT", fat_tree(8, 1), 0.05, 3705, 5126810443053429014),
    ];
    for (name, topo, fraction, rows, digest) in cases {
        let g = &topo.graph;
        let rt = RoutingTables::build(g, &build_random_layers(g, &LayerConfig::new(5, 0.6, 3)));
        let plan = FaultPlan::sample(&topo, &FaultModel::UniformFraction { fraction }, 2);
        let rep = rt.repair(g, &DownLinks::from_links(plan.static_failures()));
        assert_eq!(
            (rep.len(), overlay_digest(&rep)),
            (rows, digest),
            "{name} at {fraction}"
        );
    }
}
