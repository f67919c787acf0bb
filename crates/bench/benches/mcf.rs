//! Benchmarks for the max-concurrent-flow solver and worst-case traffic
//! generator behind Fig. 9.

use criterion::{criterion_group, criterion_main, Criterion};
use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_mcf::mat::{mat, router_demands};
use fatpaths_mcf::worstcase::{worst_case_flows, worst_case_router_matching};
use fatpaths_net::topo::slimfly::slim_fly;
use std::hint::black_box;

fn bench_mcf(c: &mut Criterion) {
    let t = slim_fly(11, 8).unwrap();
    let flows = worst_case_flows(&t, 0.55, 1);
    let demands = router_demands(&flows, |e| t.endpoint_router(e));
    let ls = build_random_layers(&t.graph, &LayerConfig::new(6, 0.6, 2));
    let rt = RoutingTables::build(&t.graph, &ls);
    let mut g = c.benchmark_group("mcf_sf242");
    g.sample_size(10);
    g.bench_function("worst_case_matching", |b| {
        b.iter(|| black_box(worst_case_router_matching(&t.graph, 1)))
    });
    g.bench_function("gk_layered_eps008", |b| {
        b.iter(|| {
            black_box(mat(
                &t.graph,
                &demands,
                |s, d| rt.ports().paths(&t.graph, s, d),
                0.08,
            ))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_mcf);
criterion_main!(benches);
