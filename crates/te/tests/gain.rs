//! The headline acceptance pin: on low-diameter topologies under an
//! adversarial matrix, negotiated TE tables achieve strictly higher
//! throughput than the static FatPaths tables they start from — at the
//! same layer budget, under the same equal-flowlet-split demand model,
//! against the same `fatpaths-mcf` upper bound (which cancels in the
//! comparison but is asserted sane).

use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_net::topo::Topology;
use fatpaths_te::{achieved_throughput, edge_loads, endpoint_demands, TeConfig, TeScheme};
use fatpaths_workloads::matrices::{matrix_flows, MatrixSpec};

fn gain_on(topo: &Topology, n_layers: usize, layer_seed: u64, matrix_seed: u64) -> (f64, f64) {
    let ls = build_random_layers(&topo.graph, &LayerConfig::new(n_layers, 0.6, layer_seed));
    let rt = RoutingTables::build(&topo.graph, &ls);
    let flows = matrix_flows(topo, &MatrixSpec::WorstCase { intensity: 0.7 }, matrix_seed);
    let demands = endpoint_demands(topo, &flows);
    assert!(!demands.is_empty());
    let te = TeScheme::negotiate(&topo.graph, &rt, &demands, &TeConfig::default());
    let static_t = achieved_throughput(&edge_loads(&rt, &topo.graph, &demands));
    let te_t = achieved_throughput(&edge_loads(te.tables(), &topo.graph, &demands));
    // Negotiation keeps the best iteration and iteration 0 is the static
    // tables, so TE can never be worse; the pin below demands strictly
    // better.
    assert!(
        te_t >= static_t,
        "{}: TE ({te_t}) fell below its own starting point ({static_t})",
        topo.name
    );
    (te_t, static_t)
}

#[test]
fn te_strictly_beats_static_fatpaths_on_slim_fly() {
    let topo = fatpaths_net::topo::slimfly::slim_fly(5, 2).unwrap();
    let (te_t, static_t) = gain_on(&topo, 5, 7, 3);
    assert!(
        te_t > static_t,
        "SF: TE {te_t} must strictly beat static {static_t}"
    );
}

#[test]
fn te_strictly_beats_static_fatpaths_on_fat_tree() {
    let topo = fatpaths_net::topo::fattree::fat_tree(4, 1);
    let (te_t, static_t) = gain_on(&topo, 5, 7, 3);
    assert!(
        te_t > static_t,
        "FT3: TE {te_t} must strictly beat static {static_t}"
    );
}

#[test]
fn te_ratio_against_upper_bound_is_sane() {
    let topo = fatpaths_net::topo::slimfly::slim_fly(5, 2).unwrap();
    let ls = build_random_layers(&topo.graph, &LayerConfig::new(5, 0.6, 7));
    let rt = RoutingTables::build(&topo.graph, &ls);
    let flows = matrix_flows(&topo, &MatrixSpec::WorstCase { intensity: 0.7 }, 3);
    let demands = endpoint_demands(&topo, &flows);
    let upper = fatpaths_mcf::throughput_upper_bound(&topo, &demands);
    assert!(upper.is_finite() && upper > 0.0);
    let te = TeScheme::negotiate(&topo.graph, &rt, &demands, &TeConfig::default());
    let ratio = achieved_throughput(&edge_loads(te.tables(), &topo.graph, &demands)) / upper;
    // The k-path relaxation is near-optimal; a fixed-tree scheme under
    // equal split must land in a sane band around it.
    assert!(ratio > 0.1 && ratio < 1.6, "ratio {ratio} out of band");
}
