//! Theory/analysis experiments: Fig. 9 (MAT per routing scheme), Fig. 10
//! (cost model), Fig. 19 (edge density / radix scaling), Tables I and V.

use crate::common::{f, label, topo_set, write_summary, Table};
use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::interference_min::{build_interference_min_layers, ImConfig};
use fatpaths_core::past::PastTrees;
use fatpaths_core::spain::{build_spain_layers, SpainConfig};
use fatpaths_mcf::mat::{mat, router_demands, KspPaths, LayeredPaths, PastPaths};
use fatpaths_mcf::worstcase::worst_case_flows;
use fatpaths_net::classes::{build, SizeClass};
use fatpaths_net::cost::{cost, PriceBook};
use fatpaths_net::topo::jellyfish::equivalent_jellyfish;
use fatpaths_net::topo::{
    dragonfly::dragonfly, fattree::fat_tree, hyperx::hyperx, slimfly::slim_fly, xpander::xpander,
    TopoKind, Topology,
};
use rayon::prelude::*;
use std::io;

/// Fig. 9: maximum achievable throughput of FatPaths (interference-min
/// layers), SPAIN, PAST, and k-shortest paths under the worst-case traffic
/// pattern at intensity 0.55, across topology sizes.
pub fn fig9(quick: bool) -> io::Result<()> {
    let mut configs: Vec<Topology> = Vec::new();
    // A size sweep per family (kept below ≈1600 routers for SPAIN/Yen).
    for q in [5u32, 7, 11, 13] {
        configs.push(slim_fly(q, ((3 * q + 1) / 4).max(1)).unwrap());
    }
    for p in [2u32, 3, 4] {
        configs.push(dragonfly(p));
    }
    for s in [4u32, 6, 8] {
        configs.push(hyperx(3, s, s - 1));
    }
    for k in [8u32, 12, 16] {
        configs.push(xpander(k, k, k / 2, 3));
    }
    for k in [8u32, 12, 16] {
        configs.push(fat_tree(k, 1));
    }
    let sf_for_jf = slim_fly(11, 8).unwrap();
    configs.push(equivalent_jellyfish(&sf_for_jf, 5));
    if quick {
        configs.retain(|t| t.num_routers() <= 300);
    }
    let eps = 0.08;
    let n_layers = 6;
    let mut table = Table::new(&["topology", "endpoints", "scheme", "throughput", "layers"]);
    let mut summary =
        String::from("Fig. 9 — MAT per scheme (worst-case traffic, intensity 0.55)\n");
    // Per topology: (scheme, throughput, layers) of the four schemes.
    let rows: Vec<[(&str, f64, usize); 4]> = configs
        .par_iter()
        .map(|t| {
            let flows = worst_case_flows(t, 0.55, 17);
            let demands = router_demands(&flows, |e| t.endpoint_router(e));
            // FatPaths, interference-minimizing construction.
            let ls = build_interference_min_layers(&t.graph, &ImConfig { n_layers, seed: 5 });
            let rt = RoutingTables::build(&t.graph, &ls);
            let fp = mat(
                &t.graph,
                &demands,
                &LayeredPaths {
                    base: &t.graph,
                    tables: &rt,
                },
                eps,
            );
            // SPAIN (capped to the same layer budget for fairness, §VI-C).
            let spain = build_spain_layers(
                &t.graph,
                &SpainConfig {
                    k_paths: 2,
                    max_layers: Some(n_layers),
                    seed: 6,
                },
            );
            let srt = RoutingTables::build(&t.graph, &spain.layers);
            let sp = mat(
                &t.graph,
                &demands,
                &LayeredPaths {
                    base: &t.graph,
                    tables: &srt,
                },
                eps,
            );
            // PAST.
            let trees = PastTrees::build(&t.graph, 7);
            let pa = mat(&t.graph, &demands, &PastPaths { trees: &trees }, eps);
            // k-shortest paths.
            let ks = mat(
                &t.graph,
                &demands,
                &KspPaths {
                    graph: &t.graph,
                    k: n_layers,
                },
                eps,
            );
            [
                ("fatpaths", fp.throughput, n_layers),
                ("spain", sp.throughput, spain.layers.len()),
                ("past", pa.throughput, t.num_routers()),
                ("ksp", ks.throughput, n_layers),
            ]
        })
        .collect();
    // Aggregate per-scheme wins for the summary.
    let mut fat_wins = 0usize;
    let mut total = 0usize;
    for (t, group) in configs.iter().zip(&rows) {
        let [fp, sp, pa, ks] = group.map(|(_, tp, _)| tp);
        summary.push_str(&format!(
            "{:<4} N={:<6} fatpaths={:.3} spain={:.3} past={:.3} ksp={:.3}\n",
            label(t),
            t.num_endpoints(),
            fp,
            sp,
            pa,
            ks
        ));
        if label(t) != "FT3" {
            total += 1;
            if fp >= sp.max(pa) {
                fat_wins += 1;
            }
        }
        for (scheme, tp, layers) in group {
            table.row(&[&label(t), &t.num_endpoints(), scheme, &f(*tp), layers]);
        }
    }
    table.write("fig9_mat")?;
    summary.push_str(&format!(
        "FatPaths ≥ SPAIN,PAST on {fat_wins}/{total} low-diameter configs \
         (paper: FatPaths wins everywhere except SPAIN-on-fat-tree).\n"
    ));
    write_summary("fig9_mat", &summary)
}

/// Fig. 10: itemized per-endpoint cost at N≈10k with 100 GbE prices.
pub fn fig10(_quick: bool) -> io::Result<()> {
    let mut table = Table::new(&[
        "topology",
        "endpoints",
        "routers_usd",
        "interconnect_usd",
        "endpoint_links_usd",
        "per_endpoint_usd",
    ]);
    let prices = PriceBook::default();
    let mut summary = String::from("Fig. 10 — cost per endpoint (100GbE model)\n");
    let mut topos = topo_set(SizeClass::Medium, 1);
    // Order as in the figure: SF, JF-SF, XP, DF, FT3, HX3.
    topos.sort_by_key(|t| match t.kind {
        TopoKind::SlimFly => 0,
        TopoKind::Jellyfish => 1,
        TopoKind::Xpander => 2,
        TopoKind::Dragonfly => 3,
        TopoKind::FatTree => 4,
        _ => 5,
    });
    for t in &topos {
        let c = cost(t, &prices);
        let n = t.num_endpoints();
        table.row(&[
            &label(t),
            &n,
            &f(c.routers),
            &f(c.interconnect_cables),
            &f(c.endpoint_cables),
            &f(c.per_endpoint(n)),
        ]);
        summary.push_str(&format!(
            "{:<5} ${:>7.0}/endpoint (routers {:.0}%, cables {:.0}%)\n",
            label(t),
            c.per_endpoint(n),
            100.0 * c.routers / c.total(),
            100.0 * (c.interconnect_cables + c.endpoint_cables) / c.total(),
        ));
    }
    table.write("fig10_cost")?;
    summary.push_str("Paper: ≈$2–3k per endpoint; HX3 most expensive (oversized radix).\n");
    write_summary("fig10_cost", &summary)
}

/// Fig. 19: edge density and router radix as functions of network size.
pub fn fig19(_quick: bool) -> io::Result<()> {
    let mut table = Table::new(&["topology", "endpoints", "edge_density", "radix"]);
    let mut summary = String::from("Fig. 19 — edge density and radix vs N\n");
    for class in SizeClass::all() {
        if class == SizeClass::Huge {
            continue; // the generators handle it, but the table gets long
        }
        for kind in fatpaths_net::classes::evaluated_kinds() {
            let t = build(kind, class, 1);
            table.row(&[
                &label(&t),
                &t.num_endpoints(),
                &f(t.edge_density()),
                &t.router_radix(),
            ]);
        }
    }
    // Asymptotic check: densities stay ~constant per family.
    for kind in [TopoKind::SlimFly, TopoKind::Dragonfly, TopoKind::FatTree] {
        let small = build(kind, SizeClass::Small, 1).edge_density();
        let large = build(kind, SizeClass::Large, 1).edge_density();
        summary.push_str(&format!(
            "{:<4} density small→large: {:.2} → {:.2}\n",
            kind.label(),
            small,
            large
        ));
    }
    table.write("fig19_scaling")?;
    summary.push_str("Paper: density ≈ constant (2.1–3.0) per family; DF needs most cables.\n");
    write_summary("fig19_scaling", &summary)
}

/// Table I: the routing-scheme feature matrix.
pub fn table1(_quick: bool) -> io::Result<()> {
    let text = fatpaths_core::schemes::render_table_i();
    std::fs::write(
        crate::common::results_dir()?.join("table1_schemes.txt"),
        &text,
    )?;
    write_summary("table1_schemes", &text)
}

/// Table V: topology structure parameters per size class.
pub fn table5(_quick: bool) -> io::Result<()> {
    let mut table = Table::new(&[
        "topology",
        "class",
        "routers",
        "endpoints",
        "kprime",
        "p",
        "diameter",
        "avg_path_len",
    ]);
    let mut summary = String::from("Table V — generated topology parameters\n");
    for class in [SizeClass::Small, SizeClass::Medium] {
        for kind in fatpaths_net::classes::evaluated_kinds() {
            let t = build(kind, class, 1);
            let (d, apl) = if t.num_routers() <= 1500 {
                t.graph.diameter_apl()
            } else {
                t.graph.diameter_apl_sampled(64)
            };
            table.row(&[
                &label(&t),
                &format!("{class:?}"),
                &t.num_routers(),
                &t.num_endpoints(),
                &t.network_radix(),
                &t.concentration.iter().copied().max().unwrap_or(0),
                &d,
                &f(apl),
            ]);
            if class == SizeClass::Medium {
                summary.push_str(&format!(
                    "{:<5} Nr={:<5} N={:<6} k'={:<3} D={} d={:.2}\n",
                    label(&t),
                    t.num_routers(),
                    t.num_endpoints(),
                    t.network_radix(),
                    d,
                    apl
                ));
            }
        }
    }
    table.write("table5_topologies")?;
    write_summary("table5_topologies", &summary)
}
