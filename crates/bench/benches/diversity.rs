//! Benchmarks for the path-diversity kernels of §IV.

use criterion::{criterion_group, criterion_main, Criterion};
use fatpaths_diversity::cdp::{cdp, edge_disjoint_maxflow};
use fatpaths_diversity::interference::path_interference;
use fatpaths_net::topo::slimfly::slim_fly;
use std::hint::black_box;

fn bench_diversity(c: &mut Criterion) {
    let t = slim_fly(19, 14).unwrap();
    let eids = t.graph.arc_edge_ids();
    let mut g = c.benchmark_group("diversity_sf722");
    g.bench_function("cdp_l3", |b| {
        b.iter(|| black_box(cdp(&t.graph, &eids, &[0], &[500], 3)))
    });
    g.bench_function("cdp_l4", |b| {
        b.iter(|| black_box(cdp(&t.graph, &eids, &[0], &[500], 4)))
    });
    g.bench_function("path_interference_l3", |b| {
        b.iter(|| black_box(path_interference(&t.graph, &eids, 0, 500, 101, 650, 3)))
    });
    g.bench_function("exact_maxflow", |b| {
        b.iter(|| black_box(edge_disjoint_maxflow(&t.graph, 0, 500)))
    });
    g.finish();
}

criterion_group!(benches, bench_diversity);
criterion_main!(benches);
