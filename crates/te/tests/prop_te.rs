//! Property coverage of negotiation safety and determinism: negotiated
//! tables stay within the layer's edge set, forward loop-free, converge
//! or cleanly hit the iteration budget, and are bit-identical across
//! thread counts.

use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_te::{endpoint_demands, TeConfig, TeScheme};
use fatpaths_workloads::matrices::{matrix_flows, MatrixSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]
    #[test]
    fn negotiated_tables_are_safe_and_thread_count_invariant(
        n_layers in 2usize..5,
        rho in 0.4f64..0.8,
        layer_seed in 0u64..1_000,
        matrix_seed in 0u64..1_000,
    ) {
        let hot = 1 + (matrix_seed as usize) % 2;
        rayon::ensure_pool(4);
        let topo = fatpaths_net::topo::slimfly::slim_fly(5, 2).unwrap();
        let g = &topo.graph;
        let nr = g.n() as u32;
        let ls = build_random_layers(g, &LayerConfig::new(n_layers, rho, layer_seed));
        let rt = RoutingTables::build(g, &ls);
        let spec = MatrixSpec::HeavyHitter { hotspots: hot, skew: 0.5 };
        let demands = endpoint_demands(&topo, &matrix_flows(&topo, &spec, matrix_seed));
        let cfg = TeConfig::default();
        let te = TeScheme::negotiate(g, &rt, &demands, &cfg);

        // Converge, or cleanly exhaust the budget.
        prop_assert!(te.iterations() <= cfg.max_iterations);
        if !te.converged() {
            prop_assert_eq!(te.iterations(), cfg.max_iterations);
        }

        // Every negotiated port is an edge of its own layer subgraph, and
        // every pair forwards loop-free within its layer (with the layer-0
        // fallback resolution `candidate_ports` applies).
        for l in 0..n_layers {
            let lg = rt.layer_set().layer(l);
            for dst in 0..nr {
                for src in 0..nr {
                    if src == dst {
                        continue;
                    }
                    if let Some(p) = te.tables().ports().get(l, src, dst) {
                        let nb = g.neighbor_at(src, p as u32);
                        prop_assert!(lg.has_edge(src, nb),
                            "layer {l} row {src}->{dst} leaves the layer edge set");
                    }
                    let path = te.tables().ports().path(g, l, src, dst);
                    prop_assert!(path.is_some(), "layer {l} {src}->{dst} unroutable/looping");
                }
            }
        }

        // Bit-identical on one thread: same ports, same trajectory.
        let seq = rayon::run_sequential(|| TeScheme::negotiate(g, &rt, &demands, &cfg));
        prop_assert_eq!(te.iterations(), seq.iterations());
        prop_assert_eq!(te.converged(), seq.converged());
        prop_assert_eq!(te.peak().to_bits(), seq.peak().to_bits());
        for l in 0..n_layers {
            for dst in 0..nr {
                for src in 0..nr {
                    prop_assert_eq!(te.tables().ports().get(l, src, dst), seq.tables().ports().get(l, src, dst));
                }
            }
        }
    }
}
