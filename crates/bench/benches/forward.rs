//! Per-hop forwarding kernel of compiled FIBs: one
//! `CompiledScheme::candidate_ports` call is the lookup every packet
//! pays at every switch on `control_plane` and `cloud_tcp_churn`.
//!
//! Each sample runs a batch of one million lookups over pre-drawn
//! `(tag, switch, destination)` triples (uniform over tags, switch ≠
//! destination, destinations hosting endpoints), so a sample's time in
//! milliseconds reads directly as nanoseconds per lookup. Two shapes:
//!
//! * `forward/sf722_n9_agg` — Slim Fly Medium (q = 19, 722 routers),
//!   nine random layers, aggregated: the irregular, host-route shaped
//!   table;
//! * `forward/ft3_minimal_agg` — three-level fat tree Medium (k = 28,
//!   980 routers), minimal multipath, aggregated: one tag, multi-port
//!   ECMP groups, most rules merged.

use criterion::{criterion_group, criterion_main, Criterion};
use fatpaths_core::ecmp::DistanceMatrix;
use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_core::scheme::{MinimalScheme, RoutingScheme};
use fatpaths_fib::{CompileMode, CompiledScheme};
use fatpaths_net::classes::{build, SizeClass};
use fatpaths_net::topo::{TopoKind, Topology};
use std::hint::black_box;

/// Lookups per sample: milliseconds per sample = nanoseconds per lookup.
const BATCH: usize = 1_000_000;

/// `BATCH` deterministic `(tag, switch, destination)` triples.
fn triples(topo: &Topology, tags: usize) -> Vec<(u8, u32, u32)> {
    let nr = topo.num_routers() as u32;
    let dsts: Vec<u32> = (0..nr)
        .filter(|&r| !topo.router_endpoints(r).is_empty())
        .collect();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move |n: usize| {
        // SplitMix64 step, reduced to `0..n`.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    };
    let mut out = Vec::with_capacity(BATCH);
    while out.len() < BATCH {
        let (tag, at, dst) = (
            next(tags) as u8,
            next(nr as usize) as u32,
            dsts[next(dsts.len())],
        );
        if at != dst {
            out.push((tag, at, dst));
        }
    }
    out
}

/// Sums the candidate counts so no lookup is optimized away.
fn forward<S: RoutingScheme>(scheme: &S, queries: &[(u8, u32, u32)]) -> usize {
    queries
        .iter()
        .map(|&(tag, at, dst)| scheme.candidate_ports(tag, at, dst).len())
        .sum()
}

fn bench_forward(c: &mut Criterion) {
    let sf = build(TopoKind::SlimFly, SizeClass::Medium, 1);
    let layers = build_random_layers(&sf.graph, &LayerConfig::new(9, 0.6, 1));
    let sf_fib = CompiledScheme::compile(
        &sf,
        RoutingTables::build(&sf.graph, &layers),
        CompileMode::Aggregated,
    );
    let sf_queries = triples(&sf, sf_fib.tag_space());

    let ft = build(TopoKind::FatTree, SizeClass::Medium, 1);
    let dm = DistanceMatrix::build(&ft.graph);
    let ft_fib = CompiledScheme::compile(
        &ft,
        MinimalScheme::new(&ft.graph, &dm),
        CompileMode::Aggregated,
    );
    let ft_queries = triples(&ft, ft_fib.tag_space());

    let mut g = c.benchmark_group("forward");
    g.sample_size(20);
    g.bench_function("sf722_n9_agg", |b| {
        b.iter(|| forward(&sf_fib, black_box(&sf_queries)))
    });
    g.bench_function("ft3_minimal_agg", |b| {
        b.iter(|| forward(&ft_fib, black_box(&ft_queries)))
    });
    g.finish();
}

criterion_group!(benches, bench_forward);
criterion_main!(benches);
