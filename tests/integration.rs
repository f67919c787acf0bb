//! Cross-crate integration tests: the paper's pipeline end to end, from
//! topology generation through layered routing to simulation and analysis.

use fatpaths::diversity::apsp::shortest_path_stats;
use fatpaths::diversity::cdp::cdp;
use fatpaths::mcf::mat::{mat, router_demands, LayeredPaths, PastPaths};
use fatpaths::mcf::worstcase::worst_case_flows;
use fatpaths::net::cost::{cost, PriceBook};
use fatpaths::prelude::*;
use fatpaths::sim::metrics::mean;
use fatpaths::workloads::{apply_mapping, poisson_flows, random_mapping};

/// The paper's §IV headline on the canonical SF instance: one shortest
/// path for most pairs, but ≥3 disjoint almost-minimal paths.
#[test]
fn shortest_paths_fall_short_but_almost_shortest_do_not() {
    let topo = fatpaths::net::topo::slimfly::slim_fly(11, 8).unwrap();
    let eids = topo.graph.arc_edge_ids();
    let stats = shortest_path_stats(&topo.graph);
    assert_eq!(stats.diameter, 2);
    let mut unique = 0usize;
    let mut enough_nonminimal = 0usize;
    let mut total = 0usize;
    for s in (0..topo.num_routers() as u32).step_by(17) {
        let dist = topo.graph.bfs(s);
        for t in (1..topo.num_routers() as u32).step_by(13) {
            if s == t {
                continue;
            }
            total += 1;
            if cdp(&topo.graph, &eids, &[s], &[t], dist[t as usize]) == 1 {
                unique += 1;
            }
            if cdp(&topo.graph, &eids, &[s], &[t], dist[t as usize] + 1) >= 3 {
                enough_nonminimal += 1;
            }
        }
    }
    assert!(
        unique * 2 > total,
        "most pairs should have a unique shortest path"
    );
    assert!(
        enough_nonminimal * 10 >= total * 9,
        "almost all pairs should have ≥3 disjoint almost-minimal paths"
    );
}

/// End-to-end Fig. 11-style comparison at miniature scale: FatPaths beats
/// minimal-path routing on SF under aligned adversarial traffic, with the
/// full pipeline (topology → layers → tables → NDP sim → stats).
#[test]
fn adversarial_pipeline_fatpaths_wins() {
    let topo = build(TopoKind::SlimFly, SizeClass::Small, 1);
    let n = topo.num_endpoints() as u64;
    let p = topo.concentration[0] as u64;
    let offset = p * (topo.num_routers() as u64 / 2 + 1);
    let flows: Vec<FlowSpec> = (0..n)
        .map(|e| FlowSpec {
            src: e as u32,
            dst: ((e + offset) % n) as u32,
            size: 128 * 1024,
            start: (e * 50_000),
        })
        .collect();
    let run = |spec: SchemeSpec| {
        Scenario::on(&topo)
            .scheme(spec)
            .workload(&flows)
            .seed(1)
            .run()
    };
    let minimal = run(SchemeSpec::LayeredMinimal);
    let layered = run(SchemeSpec::LayeredRandom {
        n_layers: 9,
        rho: 0.6,
    });
    assert_eq!(minimal.completion_rate(), 1.0);
    assert_eq!(layered.completion_rate(), 1.0);
    let (m_min, m_fat) = (mean(&minimal.fcts(None)), mean(&layered.fcts(None)));
    assert!(
        m_fat < m_min * 0.8,
        "FatPaths mean FCT {m_fat} not clearly below minimal {m_min}"
    );
}

/// Randomized workload mapping (§III-D) reduces adversarial congestion on
/// its own, even with minimal routing.
#[test]
fn workload_randomization_helps() {
    let topo = build(TopoKind::SlimFly, SizeClass::Small, 1);
    let n = topo.num_endpoints() as u32;
    let p = topo.concentration[0] as u64;
    let offset = (p * (topo.num_routers() as u64 / 2 + 1)) as u32;
    let pairs: Vec<(u32, u32)> = (0..n).map(|e| (e, (e + offset) % n)).collect();
    let mapped = apply_mapping(&random_mapping(n, 5), &pairs);
    let run = |pairs: &[(u32, u32)]| {
        let flows: Vec<FlowSpec> = pairs
            .iter()
            .filter(|(s, d)| topo.endpoint_router(*s) != topo.endpoint_router(*d))
            .map(|&(s, d)| FlowSpec {
                src: s,
                dst: d,
                size: 128 * 1024,
                start: 0,
            })
            .collect();
        Scenario::on(&topo)
            .scheme(SchemeSpec::Minimal)
            .lb(LoadBalancing::EcmpFlow)
            .workload(&flows)
            .run()
    };
    let aligned = run(&pairs);
    let randomized = run(&mapped);
    let (fa, fr) = (mean(&aligned.fcts(None)), mean(&randomized.fcts(None)));
    assert!(
        fr < fa,
        "randomized mapping {fr} not faster than aligned {fa}"
    );
}

/// §VI: layered FatPaths routing achieves higher MAT than PAST under
/// worst-case traffic, with comparable layer budgets.
#[test]
fn mat_pipeline_fatpaths_beats_past() {
    let topo = fatpaths::net::topo::slimfly::slim_fly(7, 5).unwrap();
    let flows = worst_case_flows(&topo, 0.55, 2);
    let demands = router_demands(&flows, |e| topo.endpoint_router(e));
    let layers = build_interference_min_layers(
        &topo.graph,
        &ImConfig {
            n_layers: 6,
            seed: 4,
        },
    );
    let tables = RoutingTables::build(&topo.graph, &layers);
    let fat = mat(
        &topo.graph,
        &demands,
        &LayeredPaths {
            base: &topo.graph,
            tables: &tables,
        },
        0.08,
    );
    let trees = fatpaths::core::past::PastTrees::build(&topo.graph, 5);
    let past = mat(&topo.graph, &demands, &PastPaths { trees: &trees }, 0.08);
    assert!(fat.throughput > past.throughput);
}

/// The comparable-cost premise of §VII-A2 holds for the instances every
/// performance figure uses.
#[test]
fn evaluation_topologies_have_comparable_cost() {
    let costs: Vec<f64> = fatpaths::net::classes::evaluated_kinds()
        .iter()
        .map(|&k| {
            let t = build(k, SizeClass::Small, 1);
            cost(&t, &PriceBook::default()).per_endpoint(t.num_endpoints())
        })
        .collect();
    let lo = costs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = costs.iter().cloned().fold(0.0f64, f64::max);
    assert!(hi / lo < 2.5, "cost spread too wide: {lo}..{hi}");
}

/// TCP and NDP transports both complete a mixed Poisson workload on every
/// evaluation topology (cross-topology smoke of the full stack).
#[test]
fn all_topologies_run_both_transports() {
    for kind in [TopoKind::SlimFly, TopoKind::Dragonfly, TopoKind::HyperX] {
        let topo = build(kind, SizeClass::Small, 2);
        let pairs = Pattern::Permutation.flows(topo.num_endpoints() as u64, 3);
        let pairs: Vec<(u32, u32)> = pairs
            .into_iter()
            .filter(|&(s, d)| topo.endpoint_router(s) != topo.endpoint_router(d))
            .take(200)
            .collect();
        let dist = FlowSizeDist::web_search();
        let flows = poisson_flows(&pairs, 100.0, 0.002, &dist, 7);
        let sc = Scenario::on(&topo)
            .scheme(SchemeSpec::LayeredRandom {
                n_layers: 4,
                rho: 0.7,
            })
            .workload(&flows)
            .seed(5);
        let scheme = sc.build_scheme();
        for transport in [Transport::Ndp, Transport::tcp_default(TcpVariant::Dctcp)] {
            let res = sc.clone().transport(transport).run_with(&scheme);
            assert_eq!(res.completion_rate(), 1.0, "{kind:?} {transport:?}");
        }
    }
}

/// The facade prelude exposes a working end-to-end workflow (doc parity).
#[test]
fn prelude_quickstart_compiles_and_runs() {
    let topo = fatpaths::net::topo::slimfly::slim_fly(5, 3).unwrap();
    let flows: Vec<FlowSpec> = (0..topo.num_endpoints() as u32 / 2)
        .map(|e| FlowSpec {
            src: e,
            dst: e + 75,
            size: 64 * 1024,
            start: 0,
        })
        .collect();
    let result = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredRandom {
            n_layers: 6,
            rho: 0.6,
        })
        .transport(Transport::Ndp)
        .workload(&flows)
        .seed(1)
        .run();
    assert_eq!(result.completion_rate(), 1.0);
}

/// Every §VII baseline — including the four previously theory-only ones —
/// runs through the same simulator on the same workload (the tentpole
/// promise of the `RoutingScheme` redesign, exercised from the facade).
#[test]
fn all_baselines_simulate_through_one_api() {
    let topo = fatpaths::net::topo::slimfly::slim_fly(5, 2).unwrap();
    let n = topo.num_endpoints() as u64;
    let flows: Vec<FlowSpec> = (0..n)
        .map(|e| FlowSpec {
            src: e as u32,
            dst: ((e + 31) % n) as u32,
            size: 48 * 1024,
            start: 0,
        })
        .filter(|f| topo.endpoint_router(f.src) != topo.endpoint_router(f.dst))
        .collect();
    for spec in [
        SchemeSpec::LayeredRandom {
            n_layers: 4,
            rho: 0.6,
        },
        SchemeSpec::Minimal,
        SchemeSpec::Spain { k_paths: 2 },
        SchemeSpec::Past {
            variant: PastVariant::Bfs,
        },
        SchemeSpec::Ksp { k: 3 },
        SchemeSpec::Valiant { n_layers: 4 },
    ] {
        let res = Scenario::on(&topo)
            .scheme(spec)
            .workload(&flows)
            .seed(4)
            .run();
        assert_eq!(res.completion_rate(), 1.0, "{} failed", spec.label());
    }
}
