//! The seams of the fault timeline: a shard passes a fault epoch by
//! time, before any event at its instant, and the ones after its last
//! event when a window closes. These runs pin where that meets the
//! window loop — `end_time`, the repair passes reached, the windows
//! stepped and the epochs published — at one shard and at three.

use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::LayerSet;
use fatpaths_net::fault::FaultPlan;
use fatpaths_net::topo::slimfly::slim_fly;
use fatpaths_net::topo::Topology;
use fatpaths_sim::{SimConfig, SimResult, Simulator};
use fatpaths_workloads::arrivals::FlowSpec;

/// `(end_time, repair_ticks, windows, epochs_published)` of `plan` and
/// `flows` on SF q = 5 with minimal routing, at K = 1 and K = 3 (which
/// must agree).
fn seams(
    plan: &FaultPlan,
    flows: &[FlowSpec],
    delay: u64,
    horizon: u64,
) -> (SimResult, (u64, usize, u64, u64)) {
    let topo = slim_fly(5, 1).unwrap();
    let rt = RoutingTables::build(&topo.graph, &LayerSet::minimal_only(&topo.graph));
    let run = |k| {
        let cfg = SimConfig {
            detection_delay: Some(delay),
            horizon,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&topo, &rt, cfg.shards(k));
        sim.apply_fault_plan(plan);
        sim.add_flows(flows);
        let r = sim.run();
        let p = r.profile;
        let seams = (r.end_time, r.repair_ticks(), p.windows, p.epochs_published);
        (r, seams)
    };
    let (r, one) = run(1);
    assert_eq!(run(3).1, one, "K = 3 differs from K = 1");
    (r, one)
}

/// A link no flow here touches (both ends away from routers 0 and 1).
fn far_link(topo: &Topology) -> (u32, u32) {
    let edges = topo.graph.edge_vec();
    edges.into_iter().find(|&(u, v)| u > 1 && v > 1).unwrap()
}

/// One 64 KiB flow between the endpoints of adjacent routers 0 and 1:
/// its last event, fault-free, is at 70_414_400 ps.
fn one_flow(topo: &Topology) -> Vec<FlowSpec> {
    vec![FlowSpec {
        src: topo.router_endpoints(0).start,
        dst: topo.router_endpoints(1).start,
        size: 64 * 1024,
        start: 0,
    }]
}

/// A repair pass after the last packet event, inside the final window:
/// it runs, and the run ends at it.
#[test]
fn repair_in_the_final_window_after_the_last_packet_event() {
    let topo = slim_fly(5, 1).unwrap();
    let (u, v) = far_link(&topo);
    let plan = FaultPlan::none().link_down_at(1_000_000, u, v);
    let (r, pins) = seams(&plan, &one_flow(&topo), 69_500_000, 0);
    assert_eq!(r.completion_rate(), 1.0);
    assert_eq!(pins, (70_500_000, 1, 52, 3));
}

/// No flows at all: the windows step through the fault epochs alone —
/// a burst at 10 µs and a repair pass at 12.5 µs share their windows.
#[test]
fn faulted_run_without_flows_steps_through_the_epochs() {
    let topo = slim_fly(5, 1).unwrap();
    let (u, v) = far_link(&topo);
    let plan = FaultPlan::none()
        .link_down_at(5_000_000, u, v)
        .router_down_at(10_000_000, 10)
        .router_down_at(10_000_000, 20)
        .link_up_at(10_000_000, u, v)
        .router_up_at(10_500_000, 10)
        .router_up_at(30_000_000, 20);
    let (r, pins) = seams(&plan, &[], 2_000_000, 0);
    let log: Vec<u64> = r.repair_log.iter().map(|t| t.at).collect();
    assert_eq!(log, [7_000_000, 12_000_000, 12_500_000, 32_000_000]);
    assert_eq!(pins, (32_000_000, 4, 6, 11));
}

/// Fault events after the last flow completes are published but never
/// reached: the run stops once every flow is resolved.
#[test]
fn fault_events_after_the_last_flow_are_not_reached() {
    let topo = slim_fly(5, 1).unwrap();
    let (u, v) = far_link(&topo);
    let plan = FaultPlan::none()
        .link_down_at(200_000_000, u, v)
        .router_down_at(300_000_000, 10);
    let (r, pins) = seams(&plan, &one_flow(&topo), 1_000_000, 0);
    assert_eq!(r.completion_rate(), 1.0);
    assert_eq!(pins, (70_414_400, 0, 51, 5));
}

/// A horizon inside a same-instant burst's detection delay: the burst
/// applies, its repair pass lies beyond the horizon and never runs.
#[test]
fn horizon_inside_a_bursts_detection_delay() {
    let topo = slim_fly(5, 1).unwrap();
    let plan = FaultPlan::none()
        .router_down_at(20_000_000, 10)
        .router_down_at(20_000_000, 20)
        .router_down_at(20_000_000, 33);
    let (r, pins) = seams(&plan, &one_flow(&topo), 50_000_000, 40_000_000);
    assert_eq!(r.flows[0].finish, None);
    assert_eq!(pins, (39_307_200, 0, 25, 4));
}
