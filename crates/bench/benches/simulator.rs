//! Benchmarks for the packet simulator's event rate and the fluid solver —
//! the cost ceiling for every §VII experiment — plus the routing-dispatch
//! comparison backing the `RoutingScheme` redesign: concrete-type (static),
//! trait-object (dyn), and `BuiltScheme`-enum dispatch on the same run.

use criterion::{criterion_group, criterion_main, Criterion};
use fatpaths_core::ecmp::DistanceMatrix;
use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_core::scheme::{MinimalScheme, RoutingScheme};
use fatpaths_net::topo::slimfly::slim_fly;
use fatpaths_sim::engine::{EvKind, EventQueue, TimePs};
use fatpaths_sim::fluid::max_min_rates;
use fatpaths_sim::{LoadBalancing, Scenario, SchemeSpec, SimConfig, Simulator};
use fatpaths_workloads::arrivals::FlowSpec;
use std::hint::black_box;

fn adversarial_flows(n: u64, p: u64, nr: u64, size: u64) -> Vec<FlowSpec> {
    let offset = p * (nr / 2 + 1);
    (0..n)
        .map(|e| FlowSpec {
            src: e as u32,
            dst: ((e + offset) % n) as u32,
            size,
            start: 0,
        })
        .collect()
}

fn bench_packet_sim(c: &mut Criterion) {
    let t = slim_fly(7, 5).unwrap();
    let flows = adversarial_flows(
        t.num_endpoints() as u64,
        5,
        t.num_routers() as u64,
        256 * 1024,
    );
    let ls = build_random_layers(&t.graph, &LayerConfig::new(9, 0.6, 1));
    let rt = RoutingTables::build(&t.graph, &ls);
    let dm = DistanceMatrix::build(&t.graph);
    let ms = MinimalScheme::new(&t.graph, &dm);
    let mut g = c.benchmark_group("packet_sim_sf98_490flows");
    g.sample_size(10);
    g.bench_function("ndp_fatpaths", |b| {
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
            black_box(sim.run())
        })
    });
    g.bench_function("ndp_ecmp", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(
                &t,
                &ms,
                SimConfig {
                    lb: LoadBalancing::EcmpFlow,
                    ..SimConfig::default()
                },
            );
            sim.add_flows(&flows);
            black_box(sim.run())
        })
    });
    g.bench_function("tcp_dctcp_fatpaths", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(
                &t,
                &rt,
                SimConfig {
                    transport: fatpaths_sim::Transport::tcp_default(
                        fatpaths_sim::TcpVariant::Dctcp,
                    ),
                    lb: LoadBalancing::FatPathsLayers,
                    ..SimConfig::default()
                },
            );
            sim.add_flows(&flows);
            black_box(sim.run())
        })
    });
    g.finish();
}

/// The same layered NDP run under the three dispatch mechanisms the
/// redesign offers. This quantifies the vtable cost of `dyn
/// RoutingScheme` on the per-packet hot path and what the `BuiltScheme`
/// enum shim buys back.
fn bench_dispatch(c: &mut Criterion) {
    let t = slim_fly(7, 5).unwrap();
    let flows = adversarial_flows(
        t.num_endpoints() as u64,
        5,
        t.num_routers() as u64,
        128 * 1024,
    );
    let ls = build_random_layers(&t.graph, &LayerConfig::new(9, 0.6, 1));
    let rt = RoutingTables::build(&t.graph, &ls);
    let cfg = SimConfig {
        lb: LoadBalancing::FatPathsLayers,
        seed: 1,
        ..SimConfig::default()
    };
    let mut g = c.benchmark_group("routing_dispatch_sf98");
    g.sample_size(10);
    g.bench_function("static_concrete_type", |b| {
        b.iter(|| {
            let mut sim = Simulator::new(&t, &rt, cfg);
            sim.add_flows(&flows);
            black_box(sim.run())
        })
    });
    g.bench_function("dyn_trait_object", |b| {
        b.iter(|| {
            let scheme: &dyn RoutingScheme = &rt;
            let mut sim: Simulator<'_> = Simulator::new(&t, scheme, cfg);
            sim.add_flows(&flows);
            black_box(sim.run())
        })
    });
    g.bench_function("builtscheme_enum", |b| {
        let sc = Scenario::on(&t)
            .scheme(SchemeSpec::LayeredRandom {
                n_layers: 9,
                rho: 0.6,
            })
            .workload(&flows)
            .seed(1);
        let built = sc.build_scheme();
        b.iter(|| black_box(sc.run_with(&built)))
    });
    g.finish();
}

/// The packet engine's scheduling deltas at the default 10 Gbit/s /
/// 1 µs link, in roughly the proportions a bulk NDP run pushes them:
/// header and jumbo-frame serialization (51 ns, 7.25 µs), the same plus
/// link latency for the arrival (8.25 µs), "now", and — rarely, since a
/// flow keeps one lazy timer — the 2 ms RTO.
fn hold_delta(rng: &mut u64) -> TimePs {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    match *rng & 255 {
        0 => 2_000_000_000,
        1..=15 => 0,
        16..=95 => 51_200,
        96..=175 => 7_250_000,
        _ => 8_250_000,
    }
}

/// The event queue on its own, under the classic hold model: pop the
/// earliest event, push one back at `now + delta`, with the population
/// held at 1 k (fits L1) and 100 k (the `hpc_ndp_sf` benchmark's
/// resident size). A queue change can be judged here in seconds before
/// the full benchmark is run.
fn bench_event_queue(c: &mut Criterion) {
    const HOLDS: usize = 1_000_000;
    let mut g = c.benchmark_group("event_queue");
    g.sample_size(10);
    for resident in [1_000u32, 100_000] {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut q = EventQueue::default();
        for port in 0..resident {
            q.push(hold_delta(&mut rng), EvKind::PortPop { port });
        }
        // The queue carries over between samples (the untimed warm-up
        // sample brings it to steady state), so each sample times
        // `HOLDS` pop-push pairs on a stationary population.
        g.bench_function(format!("hold_1M_at_{resident}_resident"), |b| {
            b.iter(|| {
                for _ in 0..HOLDS {
                    let (now, ev) = q.pop().expect("a hold never drains the queue");
                    q.push(now + hold_delta(&mut rng), ev);
                }
                black_box(q.len())
            })
        });
    }
    g.finish();
}

fn bench_fluid(c: &mut Criterion) {
    // 10k flows over 20k links, 3 links per path.
    let paths: Vec<Vec<u32>> = (0..10_000u32)
        .map(|i| vec![i % 20_000, (i * 7 + 1) % 20_000, (i * 13 + 2) % 20_000])
        .collect();
    let mut g = c.benchmark_group("fluid");
    g.sample_size(10);
    g.bench_function("max_min_10k_flows", |b| {
        b.iter(|| black_box(max_min_rates(&paths, 20_000, 10.0)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_packet_sim,
    bench_dispatch,
    bench_event_queue,
    bench_fluid
);
criterion_main!(benches);
