//! Mid-flow host death: a flow whose host dies after injection stalls
//! until the host revives, and then the *same* transfer finishes.

use fatpaths_net::fault::FaultPlan;
use fatpaths_sim::{Scenario, SchemeSpec};
use fatpaths_workloads::arrivals::FlowSpec;

const MS: u64 = 1_000_000_000; // 1 ms in ps

/// One large flow toward router 30's endpoint (still transferring when
/// the router dies at 1 ms and revives at 10 ms), plus an unaffected
/// control flow.
#[test]
fn without_the_knob_the_same_transfer_survives_the_reboot() {
    let topo = fatpaths_net::topo::slimfly::slim_fly(5, 1).unwrap();
    let flows = [
        FlowSpec {
            src: 0,
            dst: 30,
            size: 4 << 20,
            start: 0,
        },
        FlowSpec {
            src: 5,
            dst: 12,
            size: 64 * 1024,
            start: 0,
        },
    ];
    let res = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredRandom {
            n_layers: 4,
            rho: 0.6,
        })
        .workload(&flows)
        .seed(2)
        .horizon(60 * MS)
        .fault_plan(
            FaultPlan::none()
                .router_down_at(MS, 30)
                .router_up_at(10 * MS, 30),
        )
        .run();
    let hit = &res.flows[0];
    assert!(
        !hit.host_dead,
        "the flow *was* injected — its host died later"
    );
    let finish = hit.finish.expect("flow resumes after the host revives");
    assert!(
        finish > 10 * MS,
        "completion {finish} must postdate the 10 ms revival"
    );
    assert!(res.flows[1].finish.is_some(), "control flow unaffected");
    assert_eq!(res.completion_rate(), 1.0);
}
