//! Benchmarks for the FatPaths core: layer construction (both variants)
//! and forwarding-table builds, including the ablation sweeps over ρ and n
//! that DESIGN.md calls out.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::interference_min::{build_interference_min_layers, ImConfig};
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_net::topo::slimfly::slim_fly;
use std::hint::black_box;

fn bench_layer_construction(c: &mut Criterion) {
    let t = slim_fly(19, 14).unwrap();
    let mut g = c.benchmark_group("layer_construction_sf722");
    g.sample_size(10);
    for rho in [0.5, 0.8] {
        g.bench_with_input(
            BenchmarkId::new("random_n9", format!("rho{rho}")),
            &rho,
            |b, &rho| {
                b.iter(|| black_box(build_random_layers(&t.graph, &LayerConfig::new(9, rho, 1))))
            },
        );
    }
    for n in [2usize, 4, 9] {
        g.bench_with_input(
            BenchmarkId::new("random_rho06", format!("n{n}")),
            &n,
            |b, &n| {
                b.iter(|| black_box(build_random_layers(&t.graph, &LayerConfig::new(n, 0.6, 1))))
            },
        );
    }
    g.bench_function("interference_min_n4", |b| {
        b.iter(|| {
            black_box(build_interference_min_layers(
                &t.graph,
                &ImConfig {
                    n_layers: 4,
                    seed: 1,
                    ..ImConfig::default()
                },
            ))
        })
    });
    g.finish();
}

fn bench_forwarding_tables(c: &mut Criterion) {
    let t = slim_fly(19, 14).unwrap();
    let ls = build_random_layers(&t.graph, &LayerConfig::new(4, 0.6, 1));
    let mut g = c.benchmark_group("forwarding_tables");
    g.sample_size(10);
    g.bench_function("build_sf722_n4", |b| {
        b.iter(|| black_box(RoutingTables::build(&t.graph, &ls)))
    });
    // The shape of the `hpc_ndp_sf` benchmark workload: nine layers, ρ = 0.6.
    let ls9 = build_random_layers(&t.graph, &LayerConfig::new(9, 0.6, 1));
    g.bench_function("build_sf722_n9", |b| {
        b.iter(|| black_box(RoutingTables::build(&t.graph, &ls9)))
    });
    let rt = RoutingTables::build(&t.graph, &ls);
    g.bench_function("path_resolution", |b| {
        b.iter(|| black_box(rt.ports().path(&t.graph, 2, 7, 600)))
    });
    g.finish();
}

criterion_group!(benches, bench_layer_construction, bench_forwarding_tables);
criterion_main!(benches);
