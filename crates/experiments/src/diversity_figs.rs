//! Path-diversity experiments: Fig. 4 (collision histograms), Fig. 6
//! (minimal path lengths/counts), Fig. 7 (non-minimal CDP distributions),
//! Fig. 8 (path-interference distributions), Table IV (CDP/PI summary).

use crate::common::{class_for, f, label, write_summary, Table};
use fatpaths_diversity::cdp::{cdp_with, lmin_cmin, CdpScratch};
use fatpaths_diversity::collisions::{collision_histogram, fraction_with_at_least};
use fatpaths_diversity::interference::{pi_summary, sample_pi_from};
use fatpaths_net::classes::{build, SizeClass};
use fatpaths_net::topo::jellyfish::equivalent_jellyfish;
use fatpaths_net::topo::{TopoKind, Topology};
use fatpaths_workloads::mapping::{apply_mapping, random_mapping};
use fatpaths_workloads::patterns::Pattern;
use rand::prelude::*;
use rand::rngs::StdRng;
use rayon::prelude::*;
use std::io;

/// Routers with endpoints (fat trees: edge routers only).
fn hosting_routers(t: &Topology) -> Vec<u32> {
    (0..t.num_routers() as u32)
        .filter(|&r| t.concentration[r as usize] > 0)
        .collect()
}

/// Deterministic sample of distinct router pairs among `candidates`.
fn sample_pairs(candidates: &[u32], count: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let m = candidates.len();
    (0..count)
        .map(|_| loop {
            let a = candidates[rng.random_range(0..m)];
            let b = candidates[rng.random_range(0..m)];
            if a != b {
                return (a, b);
            }
        })
        .collect()
}

/// Fig. 4: histogram of colliding paths per router pair under five traffic
/// patterns, for a complete graph, Slim Fly, and Dragonfly.
pub fn fig4(quick: bool) -> io::Result<()> {
    let class = class_for(quick);
    let topos = vec![
        build(TopoKind::Complete, class, 1),
        build(TopoKind::SlimFly, class, 1),
        build(TopoKind::Dragonfly, class, 1),
    ];
    let mut table = Table::new(&["topology", "pattern", "collisions", "pairs"]);
    let mut summary = String::from("Fig. 4 — collision multiplicity per router pair\n");
    for t in &topos {
        let n = t.num_endpoints() as u64;
        let patterns: Vec<(&str, Vec<(u32, u32)>)> = vec![
            ("permutation", Pattern::Permutation.flows(n, 11)),
            (
                "offdiag",
                Pattern::OffDiagonal { offset: n / 3 + 1 }.flows(n, 12),
            ),
            ("shuffle", Pattern::Shuffle.flows(n, 13)),
            ("4perms", Pattern::MultiPermutation { k: 4 }.flows(n, 14)),
            ("stencil", Pattern::stencil_small().flows(n, 15)),
        ];
        for (name, pairs) in patterns {
            // Random mapping (the §IV-A assumption).
            let m = random_mapping(n as u32, 1000 + n);
            let mapped = apply_mapping(&m, &pairs);
            let router_flows: Vec<(u32, u32)> = mapped
                .iter()
                .map(|&(s, d)| (t.endpoint_router(s), t.endpoint_router(d)))
                .collect();
            let hist = collision_histogram(&router_flows);
            for (c, &count) in hist.iter().enumerate().skip(1) {
                if count > 0 {
                    table.row(&[&label(t), &name, &c, &count]);
                }
            }
            let frac4 = fraction_with_at_least(&hist, 4);
            summary.push_str(&format!(
                "{:<4} {:<12} max={:<3} frac(≥4)={:.4}\n",
                label(t),
                name,
                fatpaths_diversity::collisions::max_collisions(&hist),
                frac4
            ));
        }
    }
    println!("→ {}", table.write("fig4_collisions")?.display());
    summary.push_str("Paper: for D≥2 fewer than 1% of pairs see ≥4 collisions; D=1 sees ≥9.\n");
    write_summary("fig4_collisions", &summary)
}

/// Fig. 6: distributions of minimal path lengths and minimal-path
/// diversity (cmin) for the five topologies and their Jellyfish controls.
pub fn fig6(quick: bool) -> io::Result<()> {
    let class = class_for(quick);
    let mut table = Table::new(&["topology", "variant", "metric", "value", "fraction"]);
    let mut summary = String::from("Fig. 6 — minimal path lengths and counts\n");
    let kinds = [
        TopoKind::Dragonfly,
        TopoKind::FatTree,
        TopoKind::HyperX,
        TopoKind::SlimFly,
        TopoKind::Xpander,
    ];
    for kind in kinds {
        let base = build(kind, class, 2);
        let jf = equivalent_jellyfish(&base, 7);
        for (variant, t) in [("default", &base), ("jellyfish", &jf)] {
            let hosts = hosting_routers(t);
            let pairs = sample_pairs(&hosts, if quick { 300 } else { 1500 }, 42);
            let eids = t.graph.arc_edge_ids();
            let results: Vec<(u32, u32)> = pairs
                .par_iter()
                .map(|&(a, b)| lmin_cmin(&t.graph, &eids, a, b))
                .collect();
            // Length histogram.
            let max_l = results.iter().map(|r| r.0).max().unwrap_or(0);
            for l in 1..=max_l {
                let frac =
                    results.iter().filter(|r| r.0 == l).count() as f64 / results.len() as f64;
                if frac > 0.0 {
                    table.row(&[&label(&base), &variant, &"lmin", &l, &f(frac)]);
                }
            }
            // cmin histogram (1, 2, 3, >3).
            let buckets = [(1u32, "1"), (2, "2"), (3, "3")];
            for (c, name) in buckets {
                let frac =
                    results.iter().filter(|r| r.1 == c).count() as f64 / results.len() as f64;
                table.row(&[&label(&base), &variant, &"cmin", &name, &f(frac)]);
            }
            let frac_gt3 = results.iter().filter(|r| r.1 > 3).count() as f64 / results.len() as f64;
            table.row(&[&label(&base), &variant, &"cmin", &">3", &f(frac_gt3)]);
            let unique = results.iter().filter(|r| r.1 == 1).count() as f64 / results.len() as f64;
            summary.push_str(&format!(
                "{:<4} {:<9} unique-minimal-path fraction: {:.2}\n",
                label(&base),
                variant,
                unique
            ));
        }
    }
    table.write("fig6_minimal_paths")?;
    summary.push_str("Paper: in DF/SF most pairs have ONE minimal path; HX/FT3 have several.\n");
    write_summary("fig6_minimal_paths", &summary)
}

/// Fig. 7: distribution of non-minimal disjoint path counts c_l(A,B) for
/// l ∈ {2,3,4} on SF, DF, HX, SF-JF.
pub fn fig7(quick: bool) -> io::Result<()> {
    let class = class_for(quick);
    let sf = build(TopoKind::SlimFly, class, 3);
    let df = build(TopoKind::Dragonfly, class, 3);
    let hx = build(TopoKind::HyperX, class, 3);
    let sfjf = equivalent_jellyfish(&sf, 3);
    let mut table = Table::new(&["topology", "l", "cdp", "fraction"]);
    let mut summary = String::from("Fig. 7 — non-minimal disjoint path counts\n");
    for (name, t) in [("SF", &sf), ("DF", &df), ("HX", &hx), ("SF-JF", &sfjf)] {
        let hosts = hosting_routers(t);
        let pairs = sample_pairs(&hosts, if quick { 200 } else { 800 }, 5);
        let eids = t.graph.arc_edge_ids();
        for l in [2u32, 3, 4] {
            let counts: Vec<u32> = pairs
                .par_iter()
                .map_init(CdpScratch::default, |s, &(a, b)| {
                    cdp_with(&t.graph, &eids, &[a], &[b], l, s)
                })
                .collect();
            let max_c = counts.iter().copied().max().unwrap_or(0);
            for c in 0..=max_c {
                let frac = counts.iter().filter(|&&x| x == c).count() as f64 / counts.len() as f64;
                if frac > 0.0 {
                    table.row(&[&name, &l, &c, &f(frac)]);
                }
            }
            let mean = counts.iter().sum::<u32>() as f64 / counts.len() as f64;
            let radix_frac = mean / t.network_radix() as f64;
            summary.push_str(&format!(
                "{:<6} l={} mean CDP {:.1} ({:.0}% of k')\n",
                name,
                l,
                mean,
                100.0 * radix_frac
            ));
        }
    }
    table.write("fig7_nonminimal_cdp")?;
    summary.push_str("Paper: all topologies reach ≥3 disjoint paths by l = lmin+1.\n");
    write_summary("fig7_nonminimal_cdp", &summary)
}

/// Fig. 8: path-interference distributions at l ∈ {2,3,4,5}.
pub fn fig8(quick: bool) -> io::Result<()> {
    let class = class_for(quick);
    let mut table = Table::new(&["topology", "l", "pi", "fraction"]);
    let mut summary = String::from("Fig. 8 — path interference distributions\n");
    let mut entries: Vec<(String, Topology)> = Vec::new();
    for kind in [
        TopoKind::Dragonfly,
        TopoKind::FatTree,
        TopoKind::HyperX,
        TopoKind::SlimFly,
    ] {
        let t = build(kind, class, 4);
        let jf = equivalent_jellyfish(&t, 9);
        entries.push((label(&t), t));
        if kind != TopoKind::FatTree {
            entries.push((format!("{}-JF", kind.label()), jf));
        }
    }
    let samples = if quick { 150 } else { 600 };
    for (name, t) in &entries {
        let eids = t.graph.arc_edge_ids();
        let hosts = hosting_routers(t);
        for l in [2u32, 3, 4, 5] {
            let s = sample_pi_from(&t.graph, &eids, l, samples, 77, &hosts);
            let vals: Vec<i64> = s.iter().map(|x| x.pi).collect();
            let max_v = vals.iter().copied().max().unwrap_or(0);
            for v in 0..=max_v {
                let frac = vals.iter().filter(|&&x| x == v).count() as f64 / vals.len() as f64;
                if frac > 0.0 {
                    table.row(&[name, &l, &v, &f(frac)]);
                }
            }
            let (mean, p999) = pi_summary(&s, 99.9);
            summary.push_str(&format!(
                "{:<7} l={} mean PI {:.2} (99.9% {})\n",
                name, l, mean, p999
            ));
        }
    }
    table.write("fig8_interference")?;
    summary.push_str("Paper: most PI sits at l=3..4; FT3 shows none; SF has outlier tails.\n");
    write_summary("fig8_interference", &summary)
}

/// Table IV: CDP (mean, 1% tail) and PI (mean, 99.9% tail) at distance d′
/// for the paper's exact configurations and their Jellyfish controls.
pub fn table4(quick: bool) -> io::Result<()> {
    let mut table = Table::new(&[
        "topology",
        "dprime",
        "kprime",
        "nr",
        "n",
        "cdp_mean_pct",
        "cdp_tail1_pct",
        "pi_mean_pct",
        "pi_tail999_pct",
    ]);
    // (name, topology, d′) — Table IV's exact parameters.
    let mut rows: Vec<(String, Topology, u32)> = vec![
        (
            "clique".into(),
            build(TopoKind::Complete, SizeClass::Medium, 1),
            2,
        ),
        (
            "SF".into(),
            build(TopoKind::SlimFly, SizeClass::Medium, 1),
            3,
        ),
        (
            "XP".into(),
            build(TopoKind::Xpander, SizeClass::Medium, 1),
            3,
        ),
        (
            "HX".into(),
            build(TopoKind::HyperX, SizeClass::Medium, 1),
            3,
        ),
        (
            "DF".into(),
            build(TopoKind::Dragonfly, SizeClass::Medium, 1),
            4,
        ),
        (
            "FT3".into(),
            build(TopoKind::FatTree, SizeClass::Medium, 1),
            4,
        ),
    ];
    let jf_rows: Vec<(String, Topology, u32)> = rows
        .iter()
        .filter(|(n, ..)| n != "clique")
        .map(|(n, t, d)| (format!("{n}-JF"), equivalent_jellyfish(t, 5), *d))
        .collect();
    rows.extend(jf_rows);
    let pair_samples = if quick { 150 } else { 600 };
    let mut summary = String::from(
        "Table IV — CDP and PI at d' (radix-invariant percentages)\n\
         topo      d'  CDPmean  CDP1%   PImean  PI99.9%\n",
    );
    for (name, t, dprime) in &rows {
        let eids = t.graph.arc_edge_ids();
        let hosts = hosting_routers(t);
        // Radix-invariant normalization uses the *communicating* routers'
        // network radix (fat trees: edge-router uplinks, the paper's k'=18).
        let kprime = hosts.iter().map(|&r| t.graph.degree(r)).max().unwrap() as f64;
        let pairs = sample_pairs(&hosts, pair_samples, 21);
        let mut cdps: Vec<f64> = pairs
            .par_iter()
            .map_init(CdpScratch::default, |s, &(a, b)| {
                cdp_with(&t.graph, &eids, &[a], &[b], *dprime, s) as f64 / kprime
            })
            .collect();
        cdps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let cdp_mean = cdps.iter().sum::<f64>() / cdps.len() as f64;
        let cdp_tail = cdps[(0.01 * (cdps.len() as f64 - 1.0)) as usize];
        let pis = sample_pi_from(&t.graph, &eids, *dprime, pair_samples, 31, &hosts);
        let (pi_mean_abs, pi_tail_abs) = pi_summary(&pis, 99.9);
        let (pi_mean, pi_tail) = (pi_mean_abs / kprime, pi_tail_abs as f64 / kprime);
        table.row(&[
            name,
            dprime,
            &(kprime as u32),
            &t.num_routers(),
            &t.num_endpoints(),
            &f(cdp_mean * 100.0),
            &f(cdp_tail * 100.0),
            &f(pi_mean * 100.0),
            &f(pi_tail * 100.0),
        ]);
        summary.push_str(&format!(
            "{:<9} {:<3} {:>6.0}%  {:>5.0}%  {:>6.0}%  {:>6.0}%\n",
            name,
            dprime,
            cdp_mean * 100.0,
            cdp_tail * 100.0,
            pi_mean * 100.0,
            pi_tail * 100.0
        ));
    }
    table.write("table4_cdp_pi")?;
    summary.push_str(
        "Paper (Table IV): SF CDP≈89%/10%, XP 49%/34%, HX 25%/10%, DF 25%/13%, FT3 100%/100%;\n\
         deterministic topologies beat their JFs on mean but have worse tails.\n",
    );
    write_summary("table4_cdp_pi", &summary)
}
