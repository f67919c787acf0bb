//! Property-based tests for layered routing: for *any* (n, ρ, seed) on a
//! connected topology, layers must stay connected subgraphs and forwarding
//! must be loop-free, complete, and layer-minimal.

use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::ksp::k_shortest_paths;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_net::graph::UNREACHABLE;
use fatpaths_net::topo::slimfly::slim_fly;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_layers_always_valid(
        n in 1usize..8,
        rho in 0.2f64..1.0,
        seed in 0u64..1000,
    ) {
        let t = slim_fly(5, 1).unwrap();
        let ls = build_random_layers(&t.graph, &LayerConfig::new(n, rho, seed));
        prop_assert_eq!(ls.len(), n);
        prop_assert!(ls.validate(&t.graph));
    }

    #[test]
    fn forwarding_complete_and_loop_free(
        n in 2usize..6,
        rho in 0.3f64..0.9,
        seed in 0u64..200,
    ) {
        let t = slim_fly(5, 1).unwrap();
        let ls = build_random_layers(&t.graph, &LayerConfig::new(n, rho, seed));
        let rt = RoutingTables::build(&t.graph, &ls);
        let nr = t.num_routers() as u32;
        for layer in 0..n {
            for (s, d) in [(0u32, nr - 1), (3, 17), (nr / 2, 1)] {
                if s == d { continue; }
                let path = rt.ports().path(&t.graph, layer, s, d);
                prop_assert!(path.is_some(), "unreachable in connected layer");
                let path = path.unwrap();
                // Loop-free: no repeated routers.
                let mut q = path.clone();
                q.sort_unstable();
                q.dedup();
                prop_assert_eq!(q.len(), path.len());
                // Hop count equals the layer BFS distance (layer-minimal).
                prop_assert_eq!(path.len() as u32 - 1, ls.layer(layer).bfs(s)[d as usize]);
            }
        }
    }

    #[test]
    fn layer_paths_never_shorter_than_base_distance(
        rho in 0.3f64..0.9,
        seed in 0u64..100,
    ) {
        let t = slim_fly(5, 1).unwrap();
        let ls = build_random_layers(&t.graph, &LayerConfig::new(4, rho, seed));
        let base = t.graph.bfs(0);
        for layer in 0..4 {
            let in_layer = ls.layer(layer).bfs(0);
            for d in 1..t.num_routers() {
                prop_assert!(in_layer[d] != UNREACHABLE, "layer disconnected");
                prop_assert!(in_layer[d] >= base[d], "layer path beats base shortest path");
            }
        }
    }

    #[test]
    fn ksp_sorted_simple_distinct(k in 1usize..8, s in 0u32..49, d in 0u32..49) {
        prop_assume!(s != d);
        let t = slim_fly(5, 1).unwrap();
        let paths = k_shortest_paths(&t.graph, s, d, k);
        prop_assert!(!paths.is_empty());
        prop_assert!(paths.len() <= k);
        let mut prev = 0;
        for p in &paths {
            prop_assert!(p.len() >= prev, "not sorted by length");
            prev = p.len();
            prop_assert_eq!(*p.first().unwrap(), s);
            prop_assert_eq!(*p.last().unwrap(), d);
            for w in p.windows(2) {
                prop_assert!(t.graph.has_edge(w[0], w[1]));
            }
        }
        let set: std::collections::HashSet<_> = paths.iter().collect();
        prop_assert_eq!(set.len(), paths.len());
    }
}
