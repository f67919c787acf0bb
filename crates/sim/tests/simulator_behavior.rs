//! Behavioral validation of the packet simulator: line-rate sanity,
//! congestion behavior, transport correctness, and the paper's headline
//! routing effects at small scale — all through the `RoutingScheme`-based
//! API (direct `Simulator` construction and the `Scenario` builder).

use fatpaths_core::ecmp::DistanceMatrix;
use fatpaths_core::scheme::MinimalScheme;
use fatpaths_net::topo::{complete::complete, slimfly::slim_fly, star::star};
use fatpaths_sim::{
    FaultPlan, LoadBalancing, Scenario, SchemeSpec, SimConfig, Simulator, SpanKind, TcpVariant,
    TelemetryConfig, Transport, HDR_BYTES,
};
use fatpaths_workloads::arrivals::FlowSpec;
use fatpaths_workloads::MIB;

fn ndp_cfg(lb: LoadBalancing) -> SimConfig {
    SimConfig {
        transport: Transport::Ndp,
        lb,
        ..SimConfig::default()
    }
}

fn tcp_cfg(variant: TcpVariant, lb: LoadBalancing) -> SimConfig {
    SimConfig {
        transport: Transport::tcp_default(variant),
        lb,
        ..SimConfig::default()
    }
}

/// 10 Gb/s line rate in MiB/s.
const LINE_MIB_S: f64 = 10e9 / 8.0 / (1024.0 * 1024.0);

#[test]
fn single_ndp_flow_reaches_near_line_rate() {
    let topo = star(4);
    let dm = DistanceMatrix::build(&topo.graph);
    let ms = MinimalScheme::new(&topo.graph, &dm);
    let mut sim = Simulator::new(&topo, &ms, ndp_cfg(LoadBalancing::EcmpFlow));
    sim.add_flows(&[FlowSpec {
        src: 0,
        dst: 1,
        size: MIB,
        start: 0,
    }]);
    let res = sim.run();
    assert_eq!(res.completion_rate(), 1.0);
    let tp = res.flows[0].throughput_mib_s().unwrap();
    assert!(tp > 0.7 * LINE_MIB_S, "throughput {tp} MiB/s too low");
    assert!(tp <= LINE_MIB_S * 1.01, "throughput {tp} exceeds line rate");
    assert_eq!(res.trims, 0);
}

#[test]
fn single_tcp_flow_completes_slower_than_ndp() {
    let topo = star(4);
    let flows = [FlowSpec {
        src: 0,
        dst: 1,
        size: 256 * 1024,
        start: 0,
    }];
    let rn = Scenario::on(&topo)
        .scheme(SchemeSpec::Minimal)
        .transport(Transport::Ndp)
        .workload(&flows)
        .run();
    let rt = Scenario::on(&topo)
        .scheme(SchemeSpec::Minimal)
        .transport(Transport::tcp_default(TcpVariant::Reno))
        .workload(&flows)
        .run();
    assert_eq!(rt.completion_rate(), 1.0);
    // Slow start costs TCP several RTTs that NDP's line-rate start avoids.
    let f_ndp = rn.flows[0].fct_s().unwrap();
    let f_tcp = rt.flows[0].fct_s().unwrap();
    assert!(f_tcp > f_ndp, "TCP {f_tcp}s not slower than NDP {f_ndp}s");
}

#[test]
fn ndp_incast_trims_but_completes_at_line_rate_aggregate() {
    // 8 senders → 1 receiver on a crossbar: the receiver downlink is the
    // bottleneck; trimming keeps it lossless-for-metadata and fully used.
    let topo = star(16);
    let flows: Vec<FlowSpec> = (1..=8)
        .map(|s| FlowSpec {
            src: s,
            dst: 0,
            size: MIB,
            start: 0,
        })
        .collect();
    let res = Scenario::on(&topo)
        .scheme(SchemeSpec::Minimal)
        .workload(&flows)
        .run();
    assert_eq!(res.completion_rate(), 1.0, "incast must complete");
    assert!(res.trims > 0, "incast should trim payloads");
    // Aggregate goodput ≈ line rate: total bytes / makespan.
    let total: u64 = res.flows.iter().map(|f| f.size).sum();
    let makespan_s = res.makespan().unwrap() as f64 / 1e12;
    let agg = total as f64 / (1024.0 * 1024.0) / makespan_s;
    assert!(agg > 0.75 * LINE_MIB_S, "aggregate {agg} MiB/s");
}

#[test]
fn tcp_incast_drops_but_completes() {
    let topo = star(16);
    let flows: Vec<FlowSpec> = (1..=12)
        .map(|s| FlowSpec {
            src: s,
            dst: 0,
            size: 512 * 1024,
            start: 0,
        })
        .collect();
    let res = Scenario::on(&topo)
        .scheme(SchemeSpec::Minimal)
        .transport(Transport::tcp_default(TcpVariant::Reno))
        .workload(&flows)
        .run();
    assert_eq!(res.completion_rate(), 1.0);
    assert!(
        res.drops > 0,
        "12-way TCP incast should overflow 100-pkt queues"
    );
}

#[test]
fn dctcp_keeps_queues_lower_than_reno() {
    // With ECN at 33 packets, DCTCP should lose far fewer packets than
    // Reno under the same incast.
    let topo = star(16);
    let run = |variant| {
        let flows: Vec<FlowSpec> = (1..=12)
            .map(|s| FlowSpec {
                src: s,
                dst: 0,
                size: 512 * 1024,
                start: 0,
            })
            .collect();
        Scenario::on(&topo)
            .scheme(SchemeSpec::Minimal)
            .transport(Transport::tcp_default(variant))
            .workload(&flows)
            .run()
    };
    let reno = run(TcpVariant::Reno);
    let dctcp = run(TcpVariant::Dctcp);
    assert_eq!(dctcp.completion_rate(), 1.0);
    assert!(
        dctcp.drops < reno.drops,
        "DCTCP drops {} not below Reno {}",
        dctcp.drops,
        reno.drops
    );
}

/// Adversarial aligned traffic on Slim Fly: all p endpoints of a router
/// pair collide on the same almost-unique shortest path (§VII-B2).
fn sf_adversarial_flows(topo: &fatpaths_net::Topology) -> Vec<FlowSpec> {
    let p = topo.concentration[0] as u64;
    let n = topo.num_endpoints() as u64;
    let offset = p * (topo.num_routers() as u64 / 2 + 1);
    (0..n)
        .map(|s| FlowSpec {
            src: s as u32,
            dst: ((s + offset) % n) as u32,
            size: 256 * 1024,
            start: 0,
        })
        .collect()
}

#[test]
fn fatpaths_beats_ecmp_on_slim_fly_adversarial() {
    // The paper's headline (Figs. 11/14): non-minimal multipathing resolves
    // SF's single-shortest-path collisions; ECMP cannot.
    let topo = slim_fly(5, 4).unwrap();
    let flows = sf_adversarial_flows(&topo);
    let r_ecmp = Scenario::on(&topo)
        .scheme(SchemeSpec::Minimal)
        .workload(&flows)
        .run();
    let r_fp = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredRandom {
            n_layers: 9,
            rho: 0.6,
        })
        .workload(&flows)
        .seed(1)
        .run();
    assert_eq!(r_ecmp.completion_rate(), 1.0);
    assert_eq!(r_fp.completion_rate(), 1.0);
    let mk_ecmp = r_ecmp.makespan().unwrap();
    let mk_fp = r_fp.makespan().unwrap();
    assert!(
        (mk_fp as f64) < 0.9 * mk_ecmp as f64,
        "FatPaths makespan {mk_fp} not clearly below ECMP {mk_ecmp}"
    );
}

#[test]
fn letflow_between_ecmp_and_fatpaths_on_adversarial_sf() {
    // LetFlow re-picks among *minimal* paths only — on SF there is usually
    // just one, so it cannot beat FatPaths (§VII-C: "both are ineffective
    // on SF and DF which have little minimal-path diversity").
    let topo = slim_fly(5, 4).unwrap();
    let flows = sf_adversarial_flows(&topo);
    let r_lf = Scenario::on(&topo)
        .scheme(SchemeSpec::Minimal)
        .lb(LoadBalancing::LetFlow)
        .workload(&flows)
        .run();
    let r_fp = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredRandom {
            n_layers: 9,
            rho: 0.6,
        })
        .workload(&flows)
        .seed(1)
        .run();
    assert!(r_fp.makespan().unwrap() < r_lf.makespan().unwrap());
}

#[test]
fn runs_are_deterministic() {
    let topo = slim_fly(5, 2).unwrap();
    let flows: Vec<FlowSpec> = (0..40u32)
        .map(|i| FlowSpec {
            src: i,
            dst: (i + 37) % 100,
            size: 128 * 1024,
            start: (i as u64) * 1000,
        })
        .collect();
    let run = || {
        Scenario::on(&topo)
            .scheme(SchemeSpec::LayeredRandom {
                n_layers: 4,
                rho: 0.6,
            })
            .workload(&flows)
            .seed(1)
            .run()
    };
    let a = run();
    let b = run();
    let fa: Vec<_> = a.flows.iter().map(|f| f.finish).collect();
    let fb: Vec<_> = b.flows.iter().map(|f| f.finish).collect();
    assert_eq!(fa, fb);
}

/// The serializer tie, from first principles: a port is busy for exactly
/// the packet's wire time, so a packet reaching it the picosecond the
/// previous one leaves goes straight out. Two one-packet flows leave
/// endpoint 0 for two endpoints of one far router over the same minimal
/// path. A's packet leaves the NIC at `(1000 + 64) B · 8 bit · 100 ps`
/// (10 Gbit/s). B started at that instant trails A by one wire time at
/// every hop and never waits: its FCT equals A's. B started 1 ps earlier
/// waits that 1 ps at the NIC and nowhere else.
#[test]
fn serializer_tie_starts_the_next_packet_on_the_same_picosecond() {
    let topo = slim_fly(5, 2).unwrap();
    assert_eq!(SimConfig::default().link_gbps, 10.0);
    let leave = (1000 + 64) * 8 * 100;
    let far = topo.router_endpoints(30).start;
    for k in [1, 3] {
        for early in [0, 1] {
            let flows = [0, leave - early].map(|start| FlowSpec {
                src: 0,
                dst: far + (start != 0) as u32,
                size: 1000,
                start,
            });
            let r = Scenario::on(&topo)
                .scheme(SchemeSpec::Minimal)
                .workload(&flows)
                .shards(k)
                .run();
            let fct = |i: usize| r.flows[i].finish.unwrap() - r.flows[i].start;
            assert_eq!(fct(1), fct(0) + early, "K = {k}, B {early} ps early");
        }
    }
}

#[test]
fn minimal_layer_set_equals_single_path_routing() {
    // FatPaths with only layer 0 must route like plain minimal routing.
    let topo = slim_fly(5, 2).unwrap();
    let res = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredMinimal)
        .workload(&[FlowSpec {
            src: 0,
            dst: 55,
            size: MIB,
            start: 0,
        }])
        .run();
    assert_eq!(res.completion_rate(), 1.0);
    let tp = res.flows[0].throughput_mib_s().unwrap();
    assert!(tp > 0.6 * LINE_MIB_S, "{tp}");
}

#[test]
fn horizon_cuts_off_unfinished_flows() {
    let topo = star(4);
    let res = Scenario::on(&topo)
        .scheme(SchemeSpec::Minimal)
        .horizon(10_000_000) // 10 µs
        .workload(&[FlowSpec {
            src: 0,
            dst: 1,
            size: 64 * MIB,
            start: 0,
        }])
        .run();
    assert_eq!(res.completion_rate(), 0.0);
    assert!(res.flows[0].finish.is_none());
}

/// The retransmission timer against times worked out by hand. One
/// two-packet DCTCP flow crosses the one link of a two-router complete
/// graph, 3 store-and-forward hops each way. The link is down over
/// [0, 2 ms) and [4 ms, 8 ms). No retransmission ever yields an RTT
/// sample (Karn), so the base RTO stays at the 1 ms initial value and
/// doubles per backoff:
///
/// * both packets are lost; timeouts at 1 ms and 3 ms (backoff 1); the
///   second retransmits packet 0 over the repaired link, and the timer
///   event queued then is due at 3 + 4 = 7 ms;
/// * packet 0's ACK at `3 ms + rtt` resets the backoff and moves the
///   deadline *earlier*, to `3 ms + rtt + 1 ms`. Packet 1, lost at the
///   start, waits for a timeout and nothing else is sent, so the next
///   timeout lands exactly there, not at 7 ms;
/// * that retransmission and the one 2 ms later die on the downed link;
///   the superseded 7 ms event then fires and must do nothing. The
///   link is back for the timeout 4 ms later, which completes the flow.
///
/// Six timer events run: five timeouts and the superseded one. Had the
/// superseded event counted as live, it would have re-queued a second
/// event for the deadline: seven.
#[test]
fn tcp_timeouts_land_at_last_arming_plus_rto() {
    const MS: u64 = 1_000_000_000;
    let topo = complete(1, 1);
    let dm = DistanceMatrix::build(&topo.graph);
    let ms = MinimalScheme::new(&topo.graph, &dm);
    let mut cfg = tcp_cfg(TcpVariant::Dctcp, LoadBalancing::EcmpFlow);
    cfg.telemetry = TelemetryConfig {
        span_every: 1,
        ..TelemetryConfig::on()
    };
    let mss = cfg.transport.payload();
    // Serialization plus the paper's fixed 1 µs of link latency.
    let hop = |bytes| cfg.ser_time(bytes) + 1_000_000;
    let (data_way, ack_way) = (3 * hop(mss + HDR_BYTES), 3 * hop(HDR_BYTES));
    let mut sim = Simulator::new(&topo, &ms, cfg);
    sim.apply_fault_plan(
        &FaultPlan::none()
            .link_down_at(0, 0, 1)
            .link_up_at(2 * MS, 0, 1)
            .link_down_at(4 * MS, 0, 1)
            .link_up_at(8 * MS, 0, 1),
    );
    sim.add_flows(&[FlowSpec {
        src: 0,
        dst: 1,
        size: 2 * mss as u64,
        start: 0,
    }]);
    let (res, trace) = sim.run_traced();
    let rtos: Vec<u64> = trace
        .expect("telemetry on")
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Rto)
        .map(|s| s.t)
        .collect();
    let reset = 3 * MS + data_way + ack_way + MS;
    assert_eq!(rtos, [MS, 3 * MS, reset, reset + 2 * MS, reset + 6 * MS]);
    assert_eq!(res.flows[0].finish, Some(reset + 6 * MS + data_way));
    assert_eq!(res.flows[0].retx, 5);
    assert_eq!(res.profile.dispatched.timers, 6);
}
