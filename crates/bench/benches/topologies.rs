//! Benchmarks for topology construction — the substrate every experiment
//! pays for first — and for the all-pairs builds over it.

use criterion::{criterion_group, criterion_main, Criterion};
use fatpaths_core::ecmp::DistanceMatrix;
use fatpaths_diversity::apsp::shortest_path_stats;
use fatpaths_net::topo::{
    dragonfly::dragonfly, fattree::fat_tree, hyperx::hyperx, jellyfish::jellyfish,
    slimfly::slim_fly, xpander::xpander,
};
use std::hint::black_box;

fn bench_topologies(c: &mut Criterion) {
    let mut g = c.benchmark_group("topology_construction");
    g.bench_function("slim_fly_q19", |b| {
        b.iter(|| black_box(slim_fly(19, 14).unwrap()))
    });
    g.bench_function("dragonfly_p8", |b| b.iter(|| black_box(dragonfly(8))));
    g.bench_function("hyperx_3_11", |b| b.iter(|| black_box(hyperx(3, 11, 10))));
    g.bench_function("fat_tree_k28", |b| b.iter(|| black_box(fat_tree(28, 2))));
    g.bench_function("jellyfish_722_29", |b| {
        b.iter(|| black_box(jellyfish(722, 29, 14, 1)))
    });
    g.bench_function("xpander_k32", |b| {
        b.iter(|| black_box(xpander(32, 32, 16, 1)))
    });
    g.finish();
}

fn bench_graph_ops(c: &mut Criterion) {
    let t = slim_fly(19, 14).unwrap();
    let mut g = c.benchmark_group("graph_ops");
    g.bench_function("bfs_sf722", |b| b.iter(|| black_box(t.graph.bfs(0))));
    g.bench_function("diameter_apl_sampled_64", |b| {
        b.iter(|| black_box(t.graph.diameter_apl_sampled(64)))
    });
    g.finish();
}

/// The all-pairs builds that run through the multi-source BFS kernel:
/// the minimal-routing distance matrix on a fat tree and the §IV-B1 path
/// statistics on Slim Fly (the layered tables are
/// `forwarding_tables/build_sf722_n4` in the `layers` bench).
fn bench_apsp(c: &mut Criterion) {
    let ft = fat_tree(32, 2);
    let sf = slim_fly(19, 14).unwrap();
    let mut g = c.benchmark_group("apsp");
    g.sample_size(10);
    g.bench_function("distance_matrix_ft32", |b| {
        b.iter(|| black_box(DistanceMatrix::build(black_box(&ft.graph))))
    });
    g.bench_function("path_stats_sf722", |b| {
        b.iter(|| black_box(shortest_path_stats(black_box(&sf.graph))))
    });
    g.finish();
}

criterion_group!(benches, bench_topologies, bench_graph_ops, bench_apsp);
criterion_main!(benches);
