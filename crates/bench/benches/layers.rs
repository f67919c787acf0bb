//! Benchmarks for the FatPaths core: layer construction (both variants,
//! with the ablation sweeps over ρ and n behind the README's "Layer
//! density and count" discussion), the SPAIN and k-shortest-paths
//! baselines as the `baselines_sweep` benchmark builds them, and
//! forwarding-table builds.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fatpaths_core::fwd::{PortTables, RoutingTables};
use fatpaths_core::interference_min::{build_interference_min_layers, ImConfig};
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_core::scheme::KspConfig;
use fatpaths_core::spain::SpainConfig;
use fatpaths_net::classes::{build, SizeClass};
use fatpaths_net::topo::{slimfly::slim_fly, TopoKind};
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
    // The baselines on SF Small (242 routers), built and lowered to port
    // tables: SPAIN at one and three trees per destination, KSP at k = 4.
    let t = build(TopoKind::SlimFly, SizeClass::Small, 1);
    let mut g = c.benchmark_group("layer_construction_sf_small");
    g.sample_size(10);
    for k_paths in [1usize, 3] {
        g.bench_function(format!("spain_k{k_paths}"), |b| {
            b.iter(|| {
                black_box(PortTables::spain(
                    &t.graph,
                    &SpainConfig {
                        k_paths,
                        seed: 1,
                        ..SpainConfig::default()
                    },
                ))
            })
        });
    }
    g.bench_function("ksp_k4", |b| {
        b.iter(|| black_box(PortTables::ksp(&t.graph, &KspConfig::default())))
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
