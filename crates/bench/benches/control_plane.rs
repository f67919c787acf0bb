//! Benchmarks for the offline control plane of the `control_plane`
//! workload: one TE negotiation iteration (every `(layer, dst)` tree
//! rebuilt under new prices), the aggregated FIB compile of the
//! negotiated scheme, and the static repair of the layer tables for a 2%
//! link-failure sample and for two down links of it, all on Slim Fly
//! q = 19 with nine layers.

use criterion::{criterion_group, criterion_main, Criterion};
use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_core::repair::DownLinks;
use fatpaths_core::scheme::RoutingScheme;
use fatpaths_fib::CompileMode;
use fatpaths_net::fault::{FaultModel, FaultPlan};
use fatpaths_net::topo::slimfly::slim_fly;
use fatpaths_sim::BuiltScheme;
use fatpaths_te::{endpoint_demands, TeConfig, TeScheme};
use fatpaths_workloads::matrices::{matrix_flows, MatrixSpec};
use std::hint::black_box;

fn bench_control_plane(c: &mut Criterion) {
    let t = slim_fly(19, 14).unwrap();
    let layers = build_random_layers(&t.graph, &LayerConfig::new(9, 0.6, 1));
    let tables = RoutingTables::build(&t.graph, &layers);
    let pairs = matrix_flows(&t, &MatrixSpec::WorstCase { intensity: 0.7 }, 1);
    let demands = endpoint_demands(&t, &pairs);
    let one_iteration = TeConfig { max_iterations: 1 };
    let plan = FaultPlan::sample(&t, &FaultModel::UniformFraction { fraction: 0.02 }, 1);
    let down = DownLinks::from_links(plan.static_failures());
    let two = DownLinks::from_links(&plan.static_failures()[..2]);
    let mut g = c.benchmark_group("control_plane");
    g.sample_size(10);
    g.bench_function("te/rebuild_sf722_n9", |b| {
        b.iter(|| {
            black_box(TeScheme::negotiate(
                &t.graph,
                &tables,
                &demands,
                &one_iteration,
            ))
        })
    });
    // The scheme as the workload compiles it: the negotiated tables behind
    // `BuiltScheme` behind `Box<dyn RoutingScheme + Send + Sync>`, through
    // the compile `CompiledScheme::compile` runs, without moving the
    // scheme into a wrapper each sample.
    let te = TeScheme::negotiate(&t.graph, &tables, &demands, &one_iteration);
    let inner: Box<dyn RoutingScheme + Send + Sync> = Box::new(BuiltScheme::Te(te));
    g.bench_function("fib/compile_te_sf722_n9", |b| {
        b.iter(|| black_box(fatpaths_fib::compile(&t, &inner, CompileMode::Aggregated)))
    });
    g.bench_function("repair/sf722_n9_2pct", |b| {
        b.iter(|| black_box(tables.repair(&t.graph, black_box(&down))))
    });
    g.bench_function("repair/sf722_n9_2links", |b| {
        b.iter(|| black_box(tables.repair(&t.graph, black_box(&two))))
    });
    g.finish();
}

criterion_group!(benches, bench_control_plane);
criterion_main!(benches);
