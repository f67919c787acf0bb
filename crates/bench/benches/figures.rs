//! End-to-end figure-regeneration benchmarks: one entry per paper artifact
//! family, at miniature scale, so regressions in any pipeline stage
//! (topology → layers → tables → sim → stats) show up in `cargo bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_diversity::cdp::{cdp_with, CdpScratch};
use fatpaths_diversity::collisions::collision_histogram;
use fatpaths_diversity::interference::sample_pi;
use fatpaths_mcf::mat::{mat, router_demands};
use fatpaths_mcf::worstcase::worst_case_flows;
use fatpaths_net::topo::slimfly::slim_fly;
use fatpaths_sim::{LoadBalancing, SimConfig, Simulator};
use fatpaths_workloads::arrivals::{poisson_flows, FlowSpec};
use fatpaths_workloads::patterns::Pattern;
use fatpaths_workloads::sizes::FlowSizeDist;
use std::hint::black_box;

fn bench_figure_pipelines(c: &mut Criterion) {
    let t = slim_fly(7, 5).unwrap();
    let eids = t.graph.arc_edge_ids();
    let mut g = c.benchmark_group("figure_pipelines_sf98");
    g.sample_size(10);

    // Fig. 4 pipeline: pattern → mapping → collision histogram.
    g.bench_function("fig4_collisions", |b| {
        b.iter(|| {
            let pairs = Pattern::stencil_small().flows(t.num_endpoints() as u64, 1);
            let rf: Vec<(u32, u32)> = pairs
                .iter()
                .map(|&(s, d)| (t.endpoint_router(s), t.endpoint_router(d)))
                .collect();
            black_box(collision_histogram(&rf))
        })
    });

    // Fig. 7 pipeline: sampled CDP at l = 3.
    g.bench_function("fig7_cdp_sample", |b| {
        b.iter(|| {
            let mut s = CdpScratch::default();
            let mut acc = 0u32;
            for i in 0..32u32 {
                acc += cdp_with(&t.graph, &eids, &[i], &[i + 49], 3, &mut s);
            }
            black_box(acc)
        })
    });

    // Fig. 8 pipeline: sampled PI.
    g.bench_function("fig8_pi_sample", |b| {
        b.iter(|| black_box(sample_pi(&t.graph, &eids, 3, 32, 5)))
    });

    // Fig. 9 pipeline: worst-case traffic → GK solver.
    g.bench_function("fig9_mat", |b| {
        let flows = worst_case_flows(&t, 0.55, 1);
        let demands = router_demands(&flows, |e| t.endpoint_router(e));
        let ls = build_random_layers(&t.graph, &LayerConfig::new(4, 0.6, 1));
        let rt = RoutingTables::build(&t.graph, &ls);
        b.iter(|| {
            black_box(mat(
                &t.graph,
                &demands,
                |s, d| rt.ports().paths(&t.graph, s, d),
                0.1,
            ))
        })
    });

    // Fig. 2 pipeline: Poisson workload → NDP sim → per-size stats.
    g.bench_function("fig2_sim_slice", |b| {
        let ls = build_random_layers(&t.graph, &LayerConfig::new(4, 0.6, 1));
        let rt = RoutingTables::build(&t.graph, &ls);
        let pairs = Pattern::Permutation.flows(t.num_endpoints() as u64, 2);
        let dist = FlowSizeDist::web_search();
        let flows: Vec<FlowSpec> = poisson_flows(&pairs, 150.0, 0.002, &dist, 3);
        b.iter(|| {
            let mut sim = Simulator::new(
                &t,
                &rt,
                SimConfig {
                    lb: LoadBalancing::FatPathsLayers,
                    ..SimConfig::default()
                },
            );
            sim.add_flows(&flows);
            let res = sim.run();
            black_box(fatpaths_sim::metrics::throughput_by_size(&res))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_figure_pipelines);
criterion_main!(benches);
