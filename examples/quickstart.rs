//! Quickstart: build a Slim Fly, analyze its path diversity, construct
//! FatPaths layered routing, and simulate an adversarial workload with the
//! purified transport — the end-to-end story of the paper in ~80 lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fatpaths::diversity::cdp::cdp;
use fatpaths::prelude::*;

fn main() {
    // 1. Topology: Slim Fly MMS(q=11) — 242 routers, k'=17, diameter 2.
    let topo = fatpaths::net::topo::slimfly::slim_fly(11, 8).expect("valid q");
    println!(
        "topology  {}  routers={} endpoints={} k'={} diameter={}",
        topo.name,
        topo.num_routers(),
        topo.num_endpoints(),
        topo.network_radix(),
        topo.diameter
    );

    // 2. Shortest paths fall short: count minimal vs almost-minimal
    //    disjoint paths for a sample pair (§IV).
    let eids = topo.graph.arc_edge_ids();
    let (s, t) = (0u32, 141u32);
    let lmin = topo.graph.bfs(s)[t as usize];
    let cmin = cdp(&topo.graph, &eids, &[s], &[t], lmin);
    let c_plus1 = cdp(&topo.graph, &eids, &[s], &[t], lmin + 1);
    println!("pair ({s},{t}): lmin={lmin}, disjoint minimal paths={cmin}, at lmin+1: {c_plus1}");

    // 3. FatPaths layered routing: 9 layers, ρ = 0.6 (§V).
    let layers = build_random_layers(&topo.graph, &LayerConfig::new(9, 0.6, 7));
    let tables = RoutingTables::build(&topo.graph, &layers);
    for layer in [0usize, 1, 2] {
        let path = tables.ports().path(&topo.graph, layer, s, t).unwrap();
        println!("layer {layer}: path {:?} ({} hops)", path, path.len() - 1);
    }

    // 4. Adversarial aligned workload: every endpoint of a router collides
    //    on the same destination router (§VII-B2).
    let n = topo.num_endpoints() as u64;
    let p = topo.concentration[0] as u64;
    let offset = p * (topo.num_routers() as u64 / 2 + 1);
    let flows: Vec<FlowSpec> = (0..n)
        .map(|e| FlowSpec {
            src: e as u32,
            dst: ((e + offset) % n) as u32,
            size: 512 * 1024,
            start: 0,
        })
        .collect();

    // 5. Simulate: FatPaths (flowlets over layers, purified transport) vs
    //    single-path minimal routing — one builder line per scheme.
    let run = |spec: SchemeSpec| {
        Scenario::on(&topo)
            .scheme(spec)
            .transport(Transport::Ndp)
            .workload(&flows)
            .seed(7)
            .run()
    };
    let minimal = run(SchemeSpec::LayeredMinimal);
    let fatpaths = run(SchemeSpec::LayeredRandom {
        n_layers: 9,
        rho: 0.6,
    });
    let mk = |r: &SimResult| r.makespan().unwrap() as f64 / 1e9;
    println!("\nadversarial workload ({} flows of 512 KiB):", flows.len());
    println!(
        "  minimal routing : makespan {:>8.2} ms, trims {}",
        mk(&minimal),
        minimal.trims
    );
    println!(
        "  FatPaths (n=9)  : makespan {:>8.2} ms, trims {}",
        mk(&fatpaths),
        fatpaths.trims
    );
    println!(
        "  speedup {:.2}x — non-minimal path diversity absorbs the collisions",
        mk(&minimal) / mk(&fatpaths)
    );
}
