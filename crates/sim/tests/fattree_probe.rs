//! Focused probe: NDP on a full-bisection fat tree should sustain high
//! per-flow throughput under a random permutation (it is the topology NDP
//! was designed for).

use fatpaths_net::topo::fattree::fat_tree;
use fatpaths_sim::{LoadBalancing, Scenario, SchemeSpec, Transport};
use fatpaths_workloads::arrivals::FlowSpec;
use fatpaths_workloads::patterns::Pattern;
use fatpaths_workloads::MIB;

#[test]
fn ndp_spray_on_fat_tree_permutation() {
    let topo = fat_tree(8, 1); // 128 endpoints, full bisection
    let pairs = Pattern::Permutation.flows(topo.num_endpoints() as u64, 3);
    let flows: Vec<FlowSpec> = pairs
        .iter()
        .filter(|&&(s, d)| topo.endpoint_router(s) != topo.endpoint_router(d))
        .map(|&(s, d)| FlowSpec {
            src: s,
            dst: d,
            size: MIB,
            start: 0,
        })
        .collect();
    let res = Scenario::on(&topo)
        .scheme(SchemeSpec::Minimal)
        .lb(LoadBalancing::PacketSpray)
        .transport(Transport::Ndp)
        .workload(&flows)
        .run();
    let mean_tp: f64 = res
        .completed()
        .filter_map(|f| f.throughput_mib_s())
        .sum::<f64>()
        / res.flows.len() as f64;
    eprintln!(
        "flows={} trims={} drops={} mean TPF={:.1} MiB/s",
        res.flows.len(),
        res.trims,
        res.drops,
        mean_tp
    );
    assert_eq!(res.completion_rate(), 1.0);
    // A permutation on a non-blocking fat tree should approach line rate.
    assert!(
        mean_tp > 500.0,
        "mean {mean_tp} MiB/s too low for full-bisection FT"
    );
}
