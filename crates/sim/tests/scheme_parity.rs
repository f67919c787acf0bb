//! API-parity regression tests for the `RoutingScheme` redesign: the
//! trait-based simulator must produce bit-identical results no matter how
//! the scheme is dispatched (concrete type, trait object, or the
//! `Scenario` builder's enum), preserving the behavior of the old
//! hard-coded `Routing` enum paths. Plus smoke tests that the previously
//! theory-only baselines complete real workloads.

use fatpaths_core::ecmp::DistanceMatrix;
use fatpaths_core::fwd::{PortTables, RoutingTables};
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_core::past::PastVariant;
use fatpaths_core::scheme::{MinimalScheme, RoutingScheme};
use fatpaths_core::spain::SpainConfig;
use fatpaths_net::classes::{build, SizeClass};
use fatpaths_net::topo::{fattree::fat_tree, slimfly::slim_fly, TopoKind, Topology};
use fatpaths_sim::{
    LoadBalancing, Scenario, SchemeSpec, SimConfig, SimResult, Simulator, Transport,
};
use fatpaths_workloads::arrivals::FlowSpec;

fn permutation_flows(topo: &Topology, offset: u64, size: u64) -> Vec<FlowSpec> {
    let n = topo.num_endpoints() as u64;
    (0..n)
        .filter_map(|e| {
            let d = ((e + offset) % n) as u32;
            (topo.endpoint_router(e as u32) != topo.endpoint_router(d)).then_some(FlowSpec {
                src: e as u32,
                dst: d,
                size,
                start: (e * 10_000),
            })
        })
        .collect()
}

/// Flow-level fingerprint: finish times, retransmits, trims — equal
/// fingerprints mean bit-identical simulation outcomes.
fn fingerprint(r: &SimResult) -> Vec<(Option<u64>, u32, u32)> {
    r.flows
        .iter()
        .map(|f| (f.finish, f.retx, f.trims))
        .collect()
}

/// The old `Routing::Layered` path, reconstructed: static dispatch on
/// `RoutingTables` must equal dynamic dispatch and the builder, for the
/// same seed, on a fat tree and on a Slim Fly.
#[test]
fn layered_dispatch_paths_are_bit_identical() {
    for topo in [slim_fly(5, 2).unwrap(), fat_tree(4, 2)] {
        let flows = permutation_flows(&topo, 7, 96 * 1024);
        let ls = build_random_layers(&topo.graph, &LayerConfig::new(4, 0.6, 11));
        let rt = RoutingTables::build(&topo.graph, &ls);
        let cfg = SimConfig {
            lb: LoadBalancing::FatPathsLayers,
            seed: 11,
            ..SimConfig::default()
        };

        // Static dispatch (concrete scheme type).
        let mut sim_static = Simulator::new(&topo, &rt, cfg);
        sim_static.add_flows(&flows);
        let r_static = sim_static.run();

        // Dynamic dispatch (trait object — the default Simulator type).
        let dyn_scheme: &dyn RoutingScheme = &rt;
        let mut sim_dyn: Simulator<'_> = Simulator::new(&topo, dyn_scheme, cfg);
        sim_dyn.add_flows(&flows);
        let r_dyn = sim_dyn.run();

        // Builder (enum dispatch), same seed.
        let r_builder = Scenario::on(&topo)
            .scheme(SchemeSpec::LayeredRandom {
                n_layers: 4,
                rho: 0.6,
            })
            .workload(&flows)
            .seed(11)
            .run();

        assert_eq!(fingerprint(&r_static), fingerprint(&r_dyn), "{}", topo.name);
        assert_eq!(
            fingerprint(&r_static),
            fingerprint(&r_builder),
            "{}",
            topo.name
        );
        assert_eq!(r_static.end_time, r_dyn.end_time);
        assert_eq!(r_static.trims, r_builder.trims);
        assert_eq!(r_static.completion_rate(), 1.0);
    }
}

/// The old `Routing::Minimal` path, reconstructed, across all three
/// ECMP-family balancers on a fat tree and a Slim Fly.
#[test]
fn minimal_dispatch_paths_are_bit_identical() {
    for topo in [slim_fly(5, 2).unwrap(), fat_tree(4, 2)] {
        let flows = permutation_flows(&topo, 13, 64 * 1024);
        let dm = DistanceMatrix::build(&topo.graph);
        let ms = MinimalScheme::new(&topo.graph, &dm);
        for lb in [
            LoadBalancing::EcmpFlow,
            LoadBalancing::PacketSpray,
            LoadBalancing::LetFlow,
        ] {
            let cfg = SimConfig {
                lb,
                seed: 2,
                ..SimConfig::default()
            };
            let mut sim_static = Simulator::new(&topo, &ms, cfg);
            sim_static.add_flows(&flows);
            let r_static = sim_static.run();

            let dyn_scheme: &dyn RoutingScheme = &ms;
            let mut sim_dyn: Simulator<'_> = Simulator::new(&topo, dyn_scheme, cfg);
            sim_dyn.add_flows(&flows);
            let r_dyn = sim_dyn.run();

            let r_builder = Scenario::on(&topo)
                .scheme(SchemeSpec::Minimal)
                .lb(lb)
                .workload(&flows)
                .seed(2)
                .run();

            assert_eq!(
                fingerprint(&r_static),
                fingerprint(&r_dyn),
                "{:?} {}",
                lb,
                topo.name
            );
            assert_eq!(
                fingerprint(&r_static),
                fingerprint(&r_builder),
                "{:?} {}",
                lb,
                topo.name
            );
            assert_eq!(r_static.completion_rate(), 1.0, "{:?} {}", lb, topo.name);
        }
    }
}

/// SPAIN completes every flow of a permutation on a small topology, under
/// both transports — the baseline is simulatable, not just scorable.
#[test]
fn spain_adapter_completes_all_flows() {
    let topo = slim_fly(5, 2).unwrap();
    let flows = permutation_flows(&topo, 21, 64 * 1024);
    let spain = PortTables::spain(
        &topo.graph,
        &SpainConfig {
            k_paths: 2,
            ..SpainConfig::default()
        },
    );
    assert!(spain.num_layers() >= 2);
    for transport in [
        Transport::Ndp,
        Transport::tcp_default(fatpaths_sim::TcpVariant::Dctcp),
    ] {
        let cfg = SimConfig {
            transport,
            lb: LoadBalancing::FatPathsLayers,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&topo, &spain, cfg);
        sim.add_flows(&flows);
        let res = sim.run();
        assert_eq!(res.completion_rate(), 1.0, "SPAIN under {transport:?}");
    }
}

/// PAST completes every flow of a permutation on a small topology; its
/// single-path-per-pair nature shows up as a strictly worse makespan than
/// FatPaths on the same workload.
#[test]
fn past_adapter_completes_all_flows() {
    let topo = slim_fly(5, 2).unwrap();
    let flows = permutation_flows(&topo, 21, 64 * 1024);
    let past = PortTables::past(&topo.graph, PastVariant::Bfs, 4);
    let cfg = SimConfig {
        lb: LoadBalancing::EcmpFlow,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(&topo, &past, cfg);
    sim.add_flows(&flows);
    let res = sim.run();
    assert_eq!(res.completion_rate(), 1.0);

    let fp = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredRandom {
            n_layers: 9,
            rho: 0.6,
        })
        .workload(&flows)
        .seed(1)
        .run();
    assert!(
        fp.makespan().unwrap() <= res.makespan().unwrap(),
        "layered routing should not lose to single-path PAST"
    );
}

/// KSP and Valiant complete the adversarial workload on the small-class
/// Slim Fly through the builder — the full §VII comparison set runs.
#[test]
fn ksp_and_valiant_complete_on_small_class_sf() {
    let topo = build(TopoKind::SlimFly, SizeClass::Small, 1);
    let p = topo.concentration[0] as u64;
    let offset = p * (topo.num_routers() as u64 / 2 + 1);
    let flows = permutation_flows(&topo, offset, 32 * 1024);
    for spec in [
        SchemeSpec::Ksp { k: 3 },
        SchemeSpec::Valiant { n_layers: 4 },
    ] {
        let res = Scenario::on(&topo)
            .scheme(spec)
            .workload(&flows)
            .seed(2)
            .run();
        assert_eq!(res.completion_rate(), 1.0, "{}", spec.label());
    }
}
