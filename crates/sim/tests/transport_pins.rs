//! Literal pins on the transports' shared endpoint decisions: the
//! arrival split, the timeout rule of the one lazy timer and the
//! flowlet re-pick, on Slim Fly with 48 flows. Each run is pinned
//! twice, at one shard and at three (which must agree): an outcome
//! digest of every `FlowRecord` field, the drop, trim and unroutable
//! counters and every span event, and `end_time` as its own literal.
//! The split keeps what the transports decided apart from engine
//! bookkeeping: the time of the last event dispatched can move with the
//! event schedule while every outcome stays put. TCP runs also pin the
//! timer events dispatched, an exact work count: a timer that queued
//! one event per ACK again would multiply it several times over while
//! every outcome stays put. The spans matter: a re-pick can land on
//! another layer without moving a single time. A self-consistency suite
//! passes when both legs share a mistake; a literal does not. With
//! every flow sampled, each run also shows it reached the code it pins:
//! a nonzero `LayerSwitch` span count, or `Rto` spans for the reboot
//! run, whose `LayerSwitch` spans must also chain layer to layer.

use fatpaths_core::fwd::fnv1a;
use fatpaths_net::topo::slimfly::slim_fly;
use fatpaths_net::topo::Topology;
use fatpaths_sim::{
    AdaptiveMode, FaultPlan, LoadBalancing, Scenario, SchemeSpec, SimResult, Simulator, SpanEvent,
    SpanKind, TcpVariant, TelemetryConfig, Transport,
};
use fatpaths_workloads::arrivals::FlowSpec;

const US: u64 = 1_000_000; // 1 µs in ps
const MS: u64 = 1_000 * US;

const LAYERS: SchemeSpec = SchemeSpec::LayeredRandom {
    n_layers: 4,
    rho: 0.6,
};

/// 48 flows of 32–128 KiB from endpoints `0..48` to `dst(i, n)` of the
/// `n` endpoints, in six waves 20 µs apart.
fn flows(topo: &Topology, dst: fn(u32, u32) -> u32) -> Vec<FlowSpec> {
    let n = topo.num_endpoints() as u32;
    (0..48u32)
        .map(|i| FlowSpec {
            src: i,
            dst: dst(i, n),
            size: 32 * 1024 * (1 + i as u64 % 4),
            start: (i as u64 % 6) * 20 * US,
        })
        .collect()
}

/// Onto 12 destination endpoints: trims, ECN marks and flowlet gaps.
fn incast(i: u32, n: u32) -> u32 {
    (48 + (i * 7) % 12 * 4) % n
}

/// Every source router's endpoints onto one far router: first-hop
/// contention that steering can relieve.
fn shift(i: u32, n: u32) -> u32 {
    (i + n / 2) % n
}

/// What a run is pinned on: the outcome digest, `end_time`, the timer
/// events dispatched, and the `LayerSwitch` and `Rto` span counts.
#[derive(Debug, PartialEq)]
struct Pin {
    outcome: u64,
    end_time: u64,
    timers: u64,
    switches: usize,
    rtos: usize,
}

/// Every flow record, the drop, trim and unroutable counters and every
/// span — everything a run decides, and not when its last event ran.
fn outcome(r: &SimResult, spans: &[SpanEvent]) -> u64 {
    let mut h = 0u64;
    let mut mix = |x: u64| h = fnv1a(h ^ x);
    for f in &r.flows {
        mix(f.size);
        mix(f.start);
        mix(f.finish.map_or(u64::MAX, |t| t));
        mix(f.retx as u64);
        mix(f.trims as u64);
        mix(f.host_dead as u64);
        mix(f.aborted as u64);
    }
    for x in [r.drops, r.trims, r.unroutable] {
        mix(x);
    }
    for s in spans {
        mix(s.t);
        mix((s.flow as u64) << 40 | (s.kind as u64) << 32 | s.a as u64);
        mix(s.b as u64);
    }
    h
}

/// Runs `sc` with `plan` on `w` on `k` shards, every flow sampled: the
/// result and every span.
fn traced(
    topo: &Topology,
    sc: &Scenario,
    plan: &FaultPlan,
    w: &[FlowSpec],
    k: u32,
) -> (SimResult, Vec<SpanEvent>) {
    let scheme = sc.build_scheme();
    let mut cfg = sc.sim_config().shards(k);
    cfg.telemetry = TelemetryConfig {
        span_every: 1,
        ..TelemetryConfig::on()
    };
    let mut sim = Simulator::new(topo, &scheme, cfg);
    sim.apply_fault_plan(plan);
    sim.add_flows(w);
    let (r, trace) = sim.run_traced();
    (r, trace.expect("telemetry on").spans)
}

/// Runs `sc` with `plan` on `w`, every flow sampled, at K = 1 and K = 3.
fn pin(topo: &Topology, sc: Scenario, plan: &FaultPlan, w: &[FlowSpec]) -> Pin {
    let run = |k| {
        let (r, spans) = traced(topo, &sc, plan, w, k);
        let count = |keep: &dyn Fn(&SpanEvent) -> bool| spans.iter().filter(|s| keep(s)).count();
        Pin {
            outcome: outcome(&r, &spans),
            end_time: r.end_time,
            timers: r.profile.dispatched.timers,
            switches: count(&|s| s.kind == SpanKind::LayerSwitch),
            rtos: count(&|s| s.kind == SpanKind::Rto),
        }
    };
    let one = run(1);
    assert_eq!(run(3), one, "K = 3 differs from K = 1");
    one
}

fn dctcp(topo: &Topology) -> Scenario<'_> {
    Scenario::on(topo)
        .transport(Transport::tcp_default(TcpVariant::Dctcp))
        .seed(3)
        .horizon(50 * MS)
}

/// NDP over FatPaths layers, oblivious: gap re-picks, receiver layer
/// suggestions and the NDP arrival dispatch.
#[test]
fn ndp_layers_oblivious() {
    let topo = slim_fly(5, 2).unwrap();
    let sc = Scenario::on(&topo).scheme(LAYERS).seed(3);
    let p = pin(&topo, sc, &FaultPlan::none(), &flows(&topo, incast));
    assert!(p.switches > 0, "{p:?}");
    assert_eq!(p.outcome, 0x75b2_a99e_02da_df1d);
    assert_eq!(p.end_time, 541_080_000);
}

/// NDP over FatPaths layers under queue-depth steering.
#[test]
fn ndp_layers_queue_depth() {
    let topo = slim_fly(5, 2).unwrap();
    let sc = Scenario::on(&topo)
        .scheme(LAYERS)
        .adaptive(AdaptiveMode::QueueDepth)
        .seed(3);
    let p = pin(&topo, sc, &FaultPlan::none(), &flows(&topo, incast));
    assert!(p.switches > 0, "{p:?}");
    assert_eq!(p.outcome, 0x317c_3fa9_fcd8_7f30);
    assert_eq!(p.end_time, 541_131_200);
}

/// DCTCP over FatPaths layers: window reductions and timeouts re-pick
/// the layer with the TCP salt, gaps with the gap salt.
#[test]
fn dctcp_layers_window_reduction_repicks() {
    let topo = slim_fly(5, 2).unwrap();
    let p = pin(
        &topo,
        dctcp(&topo).scheme(LAYERS),
        &FaultPlan::none(),
        &flows(&topo, incast),
    );
    assert!(p.switches > 0, "{p:?}");
    assert_eq!(p.outcome, 0x5f23_6723_6d4c_780c);
    assert_eq!(p.end_time, 3_906_926_400);
    assert_eq!(p.timers, 394);
}

/// DCTCP with minimal routing and LetFlow under queue-depth steering:
/// the first-hop nonce search at every flowlet boundary. SF q = 5 is the
/// Hoffman–Singleton graph, where every minimal path is unique and the
/// search has nothing to choose, so this run is on SF q = 7 with four
/// endpoints per router. A nonce moves no layer, so the search shows as
/// a result that differs from the oblivious nonce hash, which is
/// pinned too.
#[test]
fn dctcp_letflow_queue_depth_nonce_search() {
    let topo = slim_fly(7, 4).unwrap();
    let sc = dctcp(&topo)
        .scheme(SchemeSpec::Minimal)
        .lb(LoadBalancing::LetFlow);
    let (none, w) = (FaultPlan::none(), flows(&topo, shift));
    let oblivious = pin(&topo, sc.clone(), &none, &w);
    let p = pin(&topo, sc.adaptive(AdaptiveMode::QueueDepth), &none, &w);
    assert_eq!(oblivious.outcome, 0x8dae_77c2_bb87_6810);
    assert_eq!(oblivious.end_time, 388_441_600);
    assert_eq!(oblivious.timers, 47);
    assert_ne!(p.outcome, oblivious.outcome);
    assert_eq!(p.outcome, 0x0918_f4bc_b34a_046a);
    assert_eq!(p.end_time, 338_804_800);
    assert_eq!(p.timers, 44);
}

/// NDP through a rolling reboot with a detection delay: a flow whose
/// host dies mid-transfer keeps timing out until the host revives, and
/// then finishes; no transfer aborts.
#[test]
fn ndp_rolling_reboot_aborts() {
    let topo = slim_fly(5, 2).unwrap();
    let (sc, plan) = rolling_reboot(&topo);
    let p = pin(&topo, sc, &plan, &flows(&topo, incast));
    assert_eq!(p.rtos, 81, "{p:?}");
    assert_eq!(p.outcome, 0xfccb_9c18_ea78_bda6);
    assert_eq!(p.end_time, 12_428_785_600);
}

/// The rolling-reboot scenario of [`ndp_rolling_reboot_aborts`].
fn rolling_reboot(topo: &Topology) -> (Scenario<'_>, FaultPlan) {
    let plan = FaultPlan::rolling_reboot(topo, 0.2, 40 * US, 20 * US, 8 * MS, 4);
    let sc = Scenario::on(topo)
        .scheme(LAYERS)
        .seed(3)
        .horizon(60 * MS)
        .detection_delay(200 * US);
    (sc, plan)
}

/// Every layer change records a `LayerSwitch` span, timeouts included:
/// each flow's spans chain from layer 0, every span leaving the layer
/// the one before entered. Spans of one flow at one instant are sorted
/// by `(a, b)`, not by when they were recorded, so an instant's spans
/// may chain in any order.
#[test]
fn ndp_layer_switches_chain_through_timeouts() {
    let topo = slim_fly(5, 2).unwrap();
    let (sc, plan) = rolling_reboot(&topo);
    let w = flows(&topo, incast);
    let (_, spans) = traced(&topo, &sc, &plan, &w, 1);
    let mut switches: Vec<&SpanEvent> = spans
        .iter()
        .filter(|s| s.kind == SpanKind::LayerSwitch)
        .collect();
    switches.sort_by_key(|s| (s.flow, s.t));
    let (mut instants, mut broken) = (0, 0);
    let mut layer = vec![0u32; w.len()];
    for group in switches.chunk_by(|x, y| (x.flow, x.t) == (y.flow, y.t)) {
        instants += 1;
        let at = &mut layer[group[0].flow as usize];
        let mut left: Vec<&SpanEvent> = group.to_vec();
        while let Some(i) = left.iter().position(|s| s.a == *at) {
            *at = left.swap_remove(i).b;
        }
        if let Some(s) = left.first() {
            broken += 1;
            *at = s.b;
        }
    }
    assert!(instants > 0);
    assert_eq!(
        broken, 0,
        "{broken} of {instants} switch instants break the chain"
    );
}
