//! Whole-router failures through the public scenario API: a dead router
//! atomically loses all incident links, its endpoints drop out of the
//! workload (`host_dead`, distinct from `unroutable`), and timed
//! `RouterDown`/`RouterUp` events model reboots that strand in-flight
//! flows only until the router returns.

use fatpaths_net::fault::FaultPlan;
use fatpaths_net::topo::slimfly::slim_fly;
use fatpaths_net::topo::Topology;
use fatpaths_sim::{Scenario, SchemeSpec};
use fatpaths_workloads::arrivals::FlowSpec;

fn permutation(topo: &Topology, offset: u64, start: u64) -> Vec<FlowSpec> {
    let n = topo.num_endpoints() as u64;
    (0..n)
        .map(|e| FlowSpec {
            src: e as u32,
            dst: ((e + offset) % n) as u32,
            size: 64 * 1024,
            start,
        })
        .filter(|f| f.src != f.dst)
        .collect()
}

/// Flows whose endpoint sits behind a statically dead router are
/// `host_dead`; every flow between live hosts still completes (the
/// degraded SF stays connected, and detection + repair reroutes).
#[test]
fn host_dead_accounting_excludes_dead_hosts_only() {
    let topo = slim_fly(5, 2).unwrap();
    let dead = 11u32;
    let flows = permutation(&topo, 21, 0);
    let dead_eps: Vec<u32> = topo.router_endpoints(dead).collect();
    let expect_dead = flows
        .iter()
        .filter(|f| dead_eps.contains(&f.src) || dead_eps.contains(&f.dst))
        .count();
    assert!(expect_dead > 0, "the dead router must host endpoints");
    let res = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredRandom {
            n_layers: 4,
            rho: 0.6,
        })
        .workload(&flows)
        .seed(2)
        .detection_delay(50_000_000)
        .fault_plan(FaultPlan::none().fail_router(dead))
        .run();
    assert_eq!(res.host_dead(), expect_dead);
    assert_eq!(res.eligible().count(), flows.len() - expect_dead);
    // Router-dead vs links-dead separability: every eligible flow
    // completes, so nothing host-dead leaked into "stranded" and
    // nothing stranded leaked into "host_dead".
    assert_eq!(
        res.completed().count(),
        flows.len() - expect_dead,
        "an eligible flow was stranded"
    );
    assert_eq!(res.completion_rate(), 1.0);
    // host_dead flows have no finish time.
    assert!(res
        .flows
        .iter()
        .filter(|f| f.host_dead)
        .all(|f| f.finish.is_none()));
}

/// A rebooting router strands its hosts' in-flight flows only until it
/// returns: flows started before the reboot finish after the `RouterUp`,
/// and flows started mid-downtime are `host_dead`.
#[test]
fn reboot_strands_flows_until_revival() {
    let topo = slim_fly(5, 2).unwrap();
    let reboot = 11u32;
    let ep = topo.router_endpoints(reboot).start;
    let other = topo.router_endpoints(30).start;
    let peer = topo.router_endpoints(31).start;
    // The 256 KiB flow needs ≈ 240 µs healthy; cut it at 100 µs and
    // revive the router at 600 µs.
    let down_at = 100_000_000u64; // 100 µs in ps
    let up_at = 600_000_000u64; // 600 µs in ps
    let flows = [
        // Starts healthy, gets cut mid-flight, resumes after revival.
        FlowSpec {
            src: ep,
            dst: other,
            size: 256 * 1024,
            start: 0,
        },
        // Starts while its source router is dead: host_dead.
        FlowSpec {
            src: ep,
            dst: peer,
            size: 64 * 1024,
            start: down_at + 1_000_000,
        },
        // Between live hosts throughout: completes normally.
        FlowSpec {
            src: other,
            dst: peer,
            size: 64 * 1024,
            start: down_at + 1_000_000,
        },
    ];
    let res = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredRandom {
            n_layers: 4,
            rho: 0.6,
        })
        .workload(&flows)
        .seed(2)
        .fault_plan(
            FaultPlan::none()
                .router_down_at(down_at, reboot)
                .router_up_at(up_at, reboot),
        )
        .run();
    assert_eq!(res.host_dead(), 1);
    assert!(res.flows[1].host_dead);
    // The cut flow completed, but only after the router came back.
    let finish = res.flows[0].finish.expect("cut flow must finish");
    assert!(
        finish > up_at,
        "flow through the rebooting router finished at {finish} before the revival at {up_at}"
    );
    // The live-host flow was oblivious to the reboot.
    assert!(res.flows[2].finish.is_some());
    assert!(!res.flows[2].host_dead);
}
