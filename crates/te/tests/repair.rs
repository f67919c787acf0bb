//! Negotiated-table repair semantics: repaired routes avoid dead links
//! and stay loop-free, and an empty down set repairs nothing.

use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_core::repair::{DownLinks, RouteRepair};
use fatpaths_core::scheme::RoutingScheme;
use fatpaths_net::graph::Graph;
use fatpaths_net::topo::Topology;
use fatpaths_te::{endpoint_demands, TeConfig, TeScheme};
use fatpaths_workloads::matrices::{matrix_flows, MatrixSpec};

fn negotiated(topo: &Topology) -> TeScheme {
    let ls = build_random_layers(&topo.graph, &LayerConfig::new(4, 0.6, 11));
    let rt = RoutingTables::build(&topo.graph, &ls);
    let flows = matrix_flows(topo, &MatrixSpec::WorstCase { intensity: 0.6 }, 5);
    let demands = endpoint_demands(topo, &flows);
    TeScheme::negotiate(&topo.graph, &rt, &demands, &TeConfig::default())
}

/// Simulator lookup order: overlay first, then `candidate_ports`.
fn walk_repaired(
    g: &Graph,
    te: &TeScheme,
    rep: &RouteRepair,
    layer: usize,
    src: u32,
    dst: u32,
) -> Option<Vec<u32>> {
    let mut at = src;
    let mut path = vec![src];
    while at != dst {
        let port = match rep.lookup(layer as u8, at, dst) {
            Some([]) => return None,
            Some(e) => e[0],
            None => te.candidate_ports(layer as u8, at, dst).as_slice()[0],
        };
        at = g.neighbor_at(at, port as u32);
        path.push(at);
        assert!(path.len() <= g.n() + 1, "loop: {path:?}");
    }
    Some(path)
}

#[test]
fn repaired_routes_avoid_dead_links_and_stay_loop_free() {
    let topo = fatpaths_net::topo::slimfly::slim_fly(5, 2).unwrap();
    let g = &topo.graph;
    let te = negotiated(&topo);
    // Fail the first hop of a negotiated layer-0 route.
    let p0 = te.ports().path(g, 0, 0, 41).unwrap();
    let down = DownLinks::from_links(&[(p0[0], p0[1])]);
    let rep = te.repair_routes(g, &down);
    assert!(!rep.is_empty());
    for layer in 0..RoutingScheme::num_layers(&te) {
        for (s, t) in [(0u32, 41u32), (41, 0), (7, 30), (3, 44)] {
            let p = walk_repaired(g, &te, &rep, layer, s, t)
                .expect("one dead link cannot disconnect SF");
            for w in p.windows(2) {
                assert!(
                    !down.contains(w[0], w[1]),
                    "layer {layer} {s}->{t} crossed the dead link: {p:?}"
                );
            }
            let mut q = p.clone();
            q.sort_unstable();
            q.dedup();
            assert_eq!(q.len(), p.len(), "repeated router in {p:?}");
        }
    }
}

#[test]
fn empty_down_set_repairs_nothing() {
    let topo = fatpaths_net::topo::slimfly::slim_fly(5, 2).unwrap();
    let g = &topo.graph;
    let te = negotiated(&topo);
    assert!(te.repair_routes(g, &DownLinks::from_links(&[])).is_empty());
}
