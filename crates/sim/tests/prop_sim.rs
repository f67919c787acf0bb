//! Property-based tests for the simulators: determinism, physical lower
//! bounds, and fluid-model conservation.

use fatpaths_core::ecmp::DistanceMatrix;
use fatpaths_core::scheme::MinimalScheme;
use fatpaths_net::topo::star::star;
use fatpaths_sim::fluid::max_min_rates;
use fatpaths_sim::{LoadBalancing, SimConfig, Simulator, Transport};
use fatpaths_workloads::arrivals::FlowSpec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn fct_never_beats_physics(size in 10_000u64..2_000_000, ndp in any::<bool>()) {
        let topo = star(4);
        let dm = DistanceMatrix::build(&topo.graph);
        let ms = MinimalScheme::new(&topo.graph, &dm);
        let cfg = SimConfig {
            transport: if ndp {
                Transport::Ndp
            } else {
                Transport::tcp_default(fatpaths_sim::TcpVariant::Reno)
            },
            lb: LoadBalancing::EcmpFlow,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&topo, &ms, cfg);
        sim.add_flows(&[FlowSpec { src: 0, dst: 1, size, start: 0 }]);
        let res = sim.run();
        prop_assert_eq!(res.completion_rate(), 1.0);
        let fct = res.flows[0].fct_s().unwrap();
        // Lower bound: payload serialization at 10 Gb/s.
        let ideal = size as f64 * 8.0 / 10e9;
        prop_assert!(fct >= ideal, "fct {fct} < physical bound {ideal}");
        // Sanity upper bound for a lone flow: 40x the ideal time + 1 ms.
        prop_assert!(fct <= ideal * 40.0 + 1e-3, "lone flow too slow: {fct}");
    }

    #[test]
    fn simulation_deterministic(nflows in 2u32..20, size in 50_000u64..500_000) {
        let topo = star(32);
        let dm = DistanceMatrix::build(&topo.graph);
        let ms = MinimalScheme::new(&topo.graph, &dm);
        let flows: Vec<FlowSpec> = (0..nflows)
            .map(|i| FlowSpec { src: i, dst: (i + 13) % 32, size, start: i as u64 * 777 })
            .collect();
        let run = || {
            let mut sim = Simulator::new(
                &topo,
                &ms,
                SimConfig { lb: LoadBalancing::EcmpFlow, ..SimConfig::default() },
            );
            sim.add_flows(&flows);
            sim.run()
        };
        let (a, b) = (run(), run());
        for (x, y) in a.flows.iter().zip(&b.flows) {
            prop_assert_eq!(x.finish, y.finish);
        }
    }

    #[test]
    fn max_min_never_oversubscribes(
        paths in prop::collection::vec(prop::collection::vec(0u32..12, 1..4), 1..30)
    ) {
        let rates = max_min_rates(&paths, 12, 5.0);
        let mut per_link = [0.0f64; 12];
        for (p, &r) in paths.iter().zip(&rates) {
            prop_assert!(r > 0.0, "starved flow");
            let mut seen = std::collections::HashSet::new();
            for &l in p {
                if seen.insert(l) {
                    per_link[l as usize] += r;
                }
            }
        }
        // NOTE: duplicate links within one path count once above because a
        // flow cannot use the same link twice in a simple path model.
        for (l, &u) in per_link.iter().enumerate() {
            prop_assert!(u <= 5.0 * (1.0 + 1e-6), "link {l} oversubscribed: {u}");
        }
    }
}
