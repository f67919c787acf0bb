//! Pins the SPAIN, k-shortest-paths, interference-minimizing and random
//! layer builds bit for bit: FNV digests of their layer sets and port
//! tables on small Slim Fly and fat-tree instances (and, for SPAIN, their
//! disjoint union, where layers are forests rather than spanning trees).
//! The literals were computed before the builders were rewritten as
//! allocation-free kernels, so any change to a layer edge, a tie-break or
//! a port fails here. The KSP case with 20 sampled pairs, the
//! interference-min cases and every random case patch at least one layer
//! to connectivity, so they pin the bridges each builder picks.

use fatpaths_core::interference_min::{build_interference_min_layers, ImConfig};
use fatpaths_core::layers::{build_random_layers, LayerConfig, LayerSet};
use fatpaths_core::scheme::{KspConfig, MAX_LAYERS};
use fatpaths_core::spain::{build_spain_layers, SpainConfig};
use fatpaths_core::PortTables;
use fatpaths_net::graph::Graph;
use fatpaths_net::topo::{fattree::fat_tree, slimfly::slim_fly};

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

/// Digest of a layer set: per layer, its edge count and canonical edges.
fn layers_digest(ls: &LayerSet) -> u64 {
    fnv(ls.graphs.iter().flat_map(|g| {
        std::iter::once(g.m() as u64).chain(g.edges().map(|(u, v)| (u as u64) << 32 | v as u64))
    }))
}

/// Digest of the first [`MAX_LAYERS`] layers of `pt` (the layers tags can
/// address), row by row.
fn ports_digest(pt: &PortTables) -> u64 {
    let nr = pt.nr() as u32;
    let layers = pt.n_layers().min(MAX_LAYERS);
    fnv(std::iter::once(layers as u64).chain(
        (0..layers).flat_map(move |l| {
            (0..nr).flat_map(move |dst| pt.row(l, dst).iter().map(|&p| p as u64))
        }),
    ))
}

fn sf() -> Graph {
    slim_fly(5, 1).unwrap().graph
}

fn ft() -> Graph {
    fat_tree(4, 1).graph
}

/// The disjoint union of [`sf`] and [`ft`].
fn union() -> Graph {
    let (a, b) = (sf(), ft());
    let shift = a.n() as u32;
    let mut edges = a.edge_vec();
    edges.extend(b.edges().map(|(u, v)| (u + shift, v + shift)));
    Graph::from_edges(a.n() + b.n(), &edges)
}

fn spain(k_paths: usize, max_layers: Option<usize>, seed: u64) -> SpainConfig {
    SpainConfig {
        k_paths,
        max_layers,
        seed,
    }
}

#[test]
fn spain_layers_and_ports_are_pinned() {
    // (topology, k_paths, layers, layer-set digest, port digest)
    let cases: [(&str, Graph, usize, usize, u64, u64); 6] = [
        ("SF", sf(), 1, 50, 10176034307460265125, 5839669251880037863),
        ("SF", sf(), 3, 50, 9945299823394773445, 16606491359316007279),
        ("FT", ft(), 1, 20, 2858044375251352004, 15928223807096105589),
        ("FT", ft(), 3, 60, 15265135239955282677, 5290763590692595385),
        (
            "SF+FT",
            union(),
            1,
            50,
            15898300493674501442,
            228380964511660399,
        ),
        (
            "SF+FT",
            union(),
            3,
            60,
            15534415580131863457,
            14908880238452091537,
        ),
    ];
    for (name, g, k, layers, ls_digest, pt_digest) in cases {
        let cfg = spain(k, None, 0);
        let sl = build_spain_layers(&g, &cfg);
        let pt = PortTables::spain(&g, &cfg);
        let got = (
            sl.layers.len(),
            layers_digest(&sl.layers),
            ports_digest(&pt),
        );
        assert_eq!(
            got,
            (layers, ls_digest, pt_digest),
            "{name} SPAIN k_paths {k}"
        );
    }
}

#[test]
fn capped_spain_layer_sets_are_pinned() {
    // fig9's configuration: two trees per destination, six layers.
    let cases: [(&str, Graph, usize, u64); 3] = [
        ("SF", sf(), 6, 13271568691943163909),
        ("FT", ft(), 6, 18052030690234525461),
        ("SF+FT", union(), 6, 2829676843073362003),
    ];
    for (name, g, layers, digest) in cases {
        let sl = build_spain_layers(&g, &spain(2, Some(6), 6));
        let got = (sl.layers.len(), layers_digest(&sl.layers));
        assert_eq!(got, (layers, digest), "{name} SPAIN capped at 6");
    }
}

#[test]
fn spain_ports_beyond_the_tag_space_are_pinned() {
    // 98 routers x 4 trees merge into 309 layers, more than tags address:
    // the addressable ones are pinned, and only they are lowered.
    let g = slim_fly(7, 1).unwrap().graph;
    let pt = PortTables::spain(&g, &spain(4, None, 0));
    assert_eq!(ports_digest(&pt), 6168110562524147006);
    assert_eq!(pt.n_layers(), MAX_LAYERS);
}

#[test]
fn ksp_ports_are_pinned() {
    // (topology, max_pairs, port digest); 500 pairs samples with a stride,
    // and 20 pairs leave layers that need bridging.
    let cases: [(&str, Graph, usize, u64); 4] = [
        ("SF", sf(), 0, 9654369835885283217),
        ("SF", sf(), 500, 4043547462143803830),
        ("SF", sf(), 20, 12252089348903475122),
        ("FT", ft(), 0, 210753948508494497),
    ];
    for (name, g, max_pairs, digest) in cases {
        let pt = PortTables::ksp(&g, &KspConfig { k: 4, max_pairs });
        assert_eq!(
            ports_digest(&pt),
            digest,
            "{name} KSP max_pairs {max_pairs}"
        );
    }
}

#[test]
fn interference_min_layer_sets_are_pinned() {
    let cases: [(&str, Graph, u64, u64); 3] = [
        ("SF", sf(), 1, 9172715578583453200),
        ("SF", sf(), 5, 14042809689227085732),
        ("FT", ft(), 1, 1436844532338048590),
    ];
    for (name, g, seed, digest) in cases {
        let cfg = ImConfig { n_layers: 4, seed };
        let ls = build_interference_min_layers(&g, &cfg);
        assert_eq!(
            layers_digest(&ls),
            digest,
            "{name} interference-min seed {seed}"
        );
    }
}

#[test]
fn patched_random_layer_sets_are_pinned() {
    // ⌊0.2 · 175⌋ = 35 edges cannot span 50 routers, so every sparse
    // layer is the last resampled draw patched with bridges.
    let cases: [(u64, u64); 3] = [
        (1, 2997780095703323843),
        (2, 13556290922183344391),
        (3, 1172441520914601905),
    ];
    for (seed, digest) in cases {
        let ls = build_random_layers(&sf(), &LayerConfig::new(3, 0.2, seed));
        assert_eq!(layers_digest(&ls), digest, "SF random layers seed {seed}");
    }
}
