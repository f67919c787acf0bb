//! Pins the negotiated tables bit for bit: an FNV digest of the ports
//! `TeScheme::negotiate` settles on, the bits of its peak and its
//! iteration count (Slim Fly q = 7, four layers, three iterations,
//! worst-case matrix), and a digest of the overlay the static repair rule
//! builds over them for a 2% link failure sample. The negotiation
//! literals were computed before the tree kernel's
//! queue, arc layout and tie pick were rewritten, so a kernel change that
//! moves a distance, a tie-break or a port fails here, not only against
//! the kernel's own test oracle.

use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_core::repair::{DownLinks, RouteRepair};
use fatpaths_net::fault::{FaultModel, FaultPlan};
use fatpaths_net::topo::slimfly::slim_fly;
use fatpaths_te::{endpoint_demands, TeConfig, TeScheme};
use fatpaths_workloads::matrices::{matrix_flows, MatrixSpec};

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
fn negotiated_ports_peak_and_repair_are_pinned() {
    let topo = slim_fly(7, 3).unwrap();
    let g = &topo.graph;
    let rt = RoutingTables::build(g, &build_random_layers(g, &LayerConfig::new(4, 0.6, 1)));
    let pairs = matrix_flows(&topo, &MatrixSpec::WorstCase { intensity: 0.7 }, 1);
    let cfg = TeConfig { max_iterations: 3 };
    let te = TeScheme::negotiate(g, &rt, &endpoint_demands(&topo, &pairs), &cfg);
    let pt = te.tables().ports();
    let ports = fnv((0..pt.n_layers()).flat_map(|l| {
        (0..pt.nr() as u32).flat_map(move |dst| pt.row(l, dst).iter().map(|&p| p as u64))
    }));
    assert_eq!(
        (ports, te.peak().to_bits(), te.iterations()),
        (2645690564476060428, 4620833955170484224, 3),
        "negotiated ports, peak bits, iterations"
    );
    let plan = FaultPlan::sample(&topo, &FaultModel::UniformFraction { fraction: 0.02 }, 1);
    let rep = te
        .tables()
        .repair(g, &DownLinks::from_links(plan.static_failures()));
    assert_eq!(
        (rep.len(), overlay_digest(&rep)),
        (22017, 4913465419320603114),
        "repair at 2%"
    );
}
