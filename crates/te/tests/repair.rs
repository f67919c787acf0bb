//! Negotiated-table repair semantics. The negotiated tables repair
//! through `RoutingTables::repair`, the static tables' rule: the overlay
//! holds keys of the rows a down link breaks and of no other row, and
//! every broken row reads exactly a from-scratch static build on the
//! degraded layers, a pair a degraded sparse layer lost taking the
//! repaired layer-0 route. Repaired routes avoid dead links and stay
//! loop-free, and an empty down set repairs nothing.

use fatpaths_core::fwd::{PortTables, RoutingTables};
use fatpaths_core::layers::{build_random_layers, LayerConfig, LayerSet};
use fatpaths_core::repair::{DownLinks, RouteRepair};
use fatpaths_core::scheme::RoutingScheme;
use fatpaths_net::fault::{FaultModel, FaultPlan};
use fatpaths_net::graph::Graph;
use fatpaths_net::topo::Topology;
use fatpaths_te::{endpoint_demands, TeConfig, TeScheme};
use fatpaths_workloads::matrices::{matrix_flows, MatrixSpec};

/// The static tables and their negotiation under a worst-case matrix,
/// drawn so that negotiation moves off the static tables.
fn negotiated(topo: &Topology) -> (RoutingTables, TeScheme) {
    let ls = build_random_layers(&topo.graph, &LayerConfig::new(4, 0.6, 2));
    let rt = RoutingTables::build(&topo.graph, &ls);
    let flows = matrix_flows(topo, &MatrixSpec::WorstCase { intensity: 0.7 }, 3);
    let demands = endpoint_demands(topo, &flows);
    let te = TeScheme::negotiate(&topo.graph, &rt, &demands, &TeConfig::default());
    (rt, te)
}

/// The simulator's lookup: the overlay entry, else the tables' row.
/// `None` is unreachable.
fn effective(
    tables: &RoutingTables,
    rep: &RouteRepair,
    layer: usize,
    at: u32,
    dst: u32,
) -> Option<u16> {
    let tag = layer as u8;
    match rep.lookup(tag, at, dst) {
        Some(ports) => ports.first().copied(),
        None => tables
            .candidate_ports(tag, at, dst)
            .as_slice()
            .first()
            .copied(),
    }
}

/// Whether a down link breaks `layer`'s row toward `dst`: one of its
/// chosen hops crosses it.
fn broken(tables: &RoutingTables, g: &Graph, down: &DownLinks, layer: usize, dst: u32) -> bool {
    (0..g.n() as u32).any(|s| {
        tables
            .ports()
            .get(layer, s, dst)
            .is_some_and(|p| down.contains(s, g.neighbor_at(s, p as u32)))
    })
}

/// Repairs the negotiated tables for `down` and checks the overlay
/// against a static build on the degraded layers; returns how many pairs
/// a degraded sparse layer lost and layer 0 resolved.
fn check_against_rebuild(g: &Graph, tables: &RoutingTables, down: &DownLinks) -> usize {
    let nr = g.n() as u32;
    let rep = tables.repair(g, down);
    for ((layer, at, dst), _) in rep.rows() {
        assert!(
            broken(tables, g, down, layer as usize, dst),
            "overlay key ({layer}, {at}, {dst}) lies in a row no down link breaks"
        );
    }
    let degraded = LayerSet {
        graphs: tables
            .layer_set()
            .graphs
            .iter()
            .map(|lg| lg.without_edges(down.as_slice()))
            .collect(),
    };
    let oracle = PortTables::build(g, &degraded);
    let mut lost = 0;
    for l in 0..tables.n_layers() {
        for dst in (0..nr).filter(|&dst| broken(tables, g, down, l, dst)) {
            for src in (0..nr).filter(|&s| s != dst) {
                let at = format!("layer {l} {src}->{dst}");
                let got = effective(tables, &rep, l, src, dst);
                match oracle.get(l, src, dst) {
                    Some(p) => assert_eq!(got, Some(p), "{at}: rebuilt row differs"),
                    None if l == 0 => assert_eq!(got, None, "{at}: disconnected pair routed"),
                    None => {
                        let route0 = effective(tables, &rep, 0, src, dst);
                        assert_eq!(got, route0, "{at}: pair off the layer must take layer 0");
                        lost += route0.is_some() as usize;
                    }
                }
            }
        }
    }
    lost
}

#[test]
fn negotiated_repair_is_the_static_rebuild_of_the_broken_rows() {
    let topo = fatpaths_net::topo::slimfly::slim_fly(5, 2).unwrap();
    let g = &topo.graph;
    let (rt, te) = negotiated(&topo);
    // Under unit prices a price-aware rebuild is the static one; the
    // negotiation must have moved off the static tables for the check to
    // tell the two rules apart.
    assert!(te.iterations() > 0);
    let tables = te.tables();
    let negotiated_rows = (0..tables.n_layers())
        .any(|l| (0..g.n() as u32).any(|dst| tables.ports().row(l, dst) != rt.ports().row(l, dst)));
    assert!(negotiated_rows, "negotiation kept the static tables");
    // At 30% down the sparse layers lose pairs that layer 0 still routes.
    let mut lost = 0;
    for (fraction, seed) in [(0.02, 1), (0.05, 2), (0.1, 3), (0.3, 4)] {
        let plan = FaultPlan::sample(&topo, &FaultModel::UniformFraction { fraction }, seed);
        let down = DownLinks::from_links(plan.static_failures());
        assert!(!down.is_empty(), "nothing failed at {fraction}");
        lost += check_against_rebuild(g, tables, &down);
    }
    // A dead router breaks every row through it.
    lost += check_against_rebuild(g, tables, &DownLinks::from_failures(g, &[], &[3]));
    assert!(lost > 0, "no sparse layer lost a pair layer 0 still routes");
}

/// Simulator lookup order: overlay first, then `candidate_ports`.
fn walk_repaired(
    g: &Graph,
    tables: &RoutingTables,
    rep: &RouteRepair,
    layer: usize,
    src: u32,
    dst: u32,
) -> Option<Vec<u32>> {
    let mut at = src;
    let mut path = vec![src];
    while at != dst {
        let port = effective(tables, rep, layer, at, dst)?;
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
    let (_, te) = negotiated(&topo);
    let tables = te.tables();
    // Fail the first hop of a negotiated layer-0 route.
    let p0 = tables.ports().path(g, 0, 0, 41).unwrap();
    let down = DownLinks::from_links(&[(p0[0], p0[1])]);
    let rep = tables.repair(g, &down);
    assert!(!rep.is_empty());
    for layer in 0..RoutingScheme::num_layers(tables) {
        for (s, t) in [(0u32, 41u32), (41, 0), (7, 30), (3, 44)] {
            let p = walk_repaired(g, tables, &rep, layer, s, t)
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
    let (_, te) = negotiated(&topo);
    let tables = te.tables();
    assert!(tables
        .repair(&topo.graph, &DownLinks::from_links(&[]))
        .is_empty());
}
