//! Bare-Ethernet (htsim-style, NDP transport) performance experiments:
//! Fig. 2 (randomized workload, FatPaths vs NDP fat tree), Fig. 11
//! (skewed adversarial workload), Fig. 12 (layer count × ρ sweep),
//! Fig. 21 (λ sweep: fat tree vs crossbar baseline).
//!
//! Every figure's scenario grid runs as a parallel [`Grid`] sweep; CSV
//! rows and summary lines are assembled serially in grid order
//! afterwards, so output is identical for any thread count.

use crate::common::{
    adversarial_long_flows, adversarial_pattern, class_for, f, label, pattern_workload, per_topo,
    post_warmup, topo_set, write_summary, SchemeArm, Table, FATPATHS,
};
use fatpaths_net::classes::{build, SizeClass};
use fatpaths_net::topo::{star::star, TopoKind, Topology};
use fatpaths_sim::metrics::{mean, percentile, throughput_by_size};
use fatpaths_sim::{cell_seed, coord_str, Grid, LoadBalancing, Scenario, SchemeSpec};
use fatpaths_workloads::patterns::Pattern;
use std::io;

/// FatPaths non-minimal multipathing (9 layers, ρ=0.6).
fn fatpaths() -> SchemeArm {
    SchemeArm::new("fatpaths", FATPATHS)
}

/// The baseline: NDP on minimal paths (packet spraying, no layers).
fn ndp_minimal() -> SchemeArm {
    SchemeArm::new("ndp_minimal", SchemeSpec::Minimal).lb(LoadBalancing::PacketSpray)
}

/// A topology's native NDP scheme: FatPaths for low-diameter networks;
/// NDP packet spraying for the fat tree (per §VII-A3).
fn native(topo: &Topology) -> SchemeArm {
    if topo.kind == TopoKind::FatTree {
        ndp_minimal()
    } else {
        fatpaths()
    }
}

/// Fig. 2: per-flow throughput vs flow size, randomized permutation
/// workload, similar-cost networks.
pub fn fig2(quick: bool) -> io::Result<()> {
    let class = class_for(quick);
    let window = if quick { 0.004 } else { 0.008 };
    let lambda = 300.0;
    let mut table = Table::new(&["topology", "flow_kib", "mean_mib_s", "tail1_mib_s", "flows"]);
    let mut summary = String::from("Fig. 2 — throughput/flow (randomized workload, NDP-style)\n");
    let topos = topo_set(class, 3);
    // One cell per topology: workload generation + the simulation.
    let results = Grid::new([topos.len()]).run(|[ti]| {
        let topo = &topos[ti];
        let flows = pattern_workload(topo, &Pattern::Permutation, lambda, window, true, 9);
        let sc = Scenario::on(topo).workload(&flows).seed(4);
        post_warmup(native(topo).on(sc).run(), window)
    });
    let mut ft_mean = 0.0;
    let mut ld_best: f64 = 0.0;
    for ([ti], res) in results.iter() {
        let topo = &topos[ti];
        let mut all = Vec::new();
        for (size, m, t1, n) in throughput_by_size(res) {
            table.row(&[&label(topo), &(size / 1024), &f(m), &f(t1), &n]);
            all.push(m);
        }
        let overall = mean(&all);
        summary.push_str(&format!(
            "{:<5} mean TPF over sizes: {:>7.1} MiB/s ({} flows, trims {})\n",
            label(topo),
            overall,
            res.flows.len(),
            res.trims
        ));
        if topo.kind == TopoKind::FatTree {
            ft_mean = overall;
        } else {
            ld_best = ld_best.max(overall);
        }
    }
    table.write("fig2_throughput")?;
    summary.push_str(&format!(
        "Best low-diameter vs fat tree: {:.1} vs {:.1} MiB/s ({:+.0}%) — paper: ≈+15%.\n",
        ld_best,
        ft_mean,
        100.0 * (ld_best / ft_mean - 1.0)
    ));
    write_summary("fig2_throughput", &summary)
}

/// Fig. 11: skewed (non-randomized) adversarial traffic: FatPaths
/// non-minimal routing vs minimal-only NDP baseline on each topology.
pub fn fig11(quick: bool) -> io::Result<()> {
    let class = class_for(quick);
    let window = if quick { 0.004 } else { 0.008 };
    let mut table = Table::new(&[
        "topology",
        "scheme",
        "flow_kib",
        "mean_mib_s",
        "tail1_mib_s",
    ]);
    let mut summary = String::from("Fig. 11 — skewed adversarial traffic (no randomization)\n");
    let topos = topo_set(class, 3);
    let arms = [fatpaths(), ndp_minimal()];
    let results = Grid::new([topos.len(), arms.len()]).run(|[ti, ai]| {
        let topo = &topos[ti];
        let flows = pattern_workload(topo, &adversarial_pattern(topo), 200.0, window, false, 11);
        let sc = Scenario::on(topo).workload(&flows).seed(6);
        post_warmup(arms[ai].on(sc).run(), window)
    });
    for ([ti, ai], res) in results.iter() {
        let topo = &topos[ti];
        for (size, m, t1, _) in throughput_by_size(res) {
            table.row(&[&label(topo), &arms[ai].name, &(size / 1024), &f(m), &f(t1)]);
        }
        if ai == 1 {
            // The baseline closes the topology's pair: compare.
            let m_fp = mean(&results[[ti, 0]].fcts(None));
            let m_base = mean(&res.fcts(None));
            summary.push_str(&format!(
                "{:<5} mean FCT: fatpaths {:>8.3} ms vs minimal {:>8.3} ms ({:.1}x)\n",
                label(topo),
                m_fp * 1e3,
                m_base * 1e3,
                m_base / m_fp.max(1e-12)
            ));
        }
    }
    table.write("fig11_adversarial")?;
    summary.push_str(
        "Paper: non-minimal layered routing improves FCT up to 30x; HX benefits least\n\
         (it already has minimal-path diversity).\n",
    );
    write_summary("fig11_adversarial", &summary)
}

/// Fig. 12: effect of layer count n and edge fraction ρ on the FCT of
/// 1 MiB flows, for a complete graph, SF, and DF.
pub fn fig12(quick: bool) -> io::Result<()> {
    let class = class_for(quick);
    let topos = [
        build(TopoKind::Complete, class, 1),
        build(TopoKind::SlimFly, class, 1),
        build(TopoKind::Dragonfly, class, 1),
    ];
    let ns: &[usize] = if quick {
        &[2, 4, 9]
    } else {
        &[2, 4, 9, 16, 33]
    };
    let rhos = [0.5f64, 0.7, 0.8];
    let window = if quick { 0.003 } else { 0.005 };
    let mut table = Table::new(&[
        "topology",
        "n_layers",
        "rho",
        "fct_mean_ms",
        "fct_p10_ms",
        "fct_p99_ms",
    ]);
    let mut summary = String::from("Fig. 12 — FCT vs (n, ρ), 1 MiB flows\n");
    // Shared per-topology adversarial workload.
    let flows_per_topo = per_topo(&topos, |topo| adversarial_long_flows(topo, window, 1, 2));
    // Grid: (topology, n, ρ); the scenario seed (layer sampling) derives
    // from the cell's coordinate *values* — the topology coordinate is
    // its label, not its grid position, so seeds survive
    // reordering/filtering of the topology set — and each (n, ρ) point
    // gets a decorrelated layer sample regardless of sweep order or
    // thread count.
    let results = Grid::new([topos.len(), ns.len(), rhos.len()]).run(|[ti, ni, ri]| {
        let (n_layers, rho) = (ns[ni], rhos[ri]);
        let coords = [
            coord_str(&label(&topos[ti])),
            n_layers as u64,
            rho.to_bits(),
        ];
        let seed = cell_seed("fig12", &coords);
        let res = post_warmup(
            Scenario::on(&topos[ti])
                .scheme(SchemeSpec::LayeredRandom { n_layers, rho })
                .workload(&flows_per_topo[ti])
                .seed(seed)
                .run(),
            window,
        );
        let fcts = res.fcts(None);
        (
            mean(&fcts) * 1e3,
            percentile(&fcts, 10.0) * 1e3,
            percentile(&fcts, 99.0) * 1e3,
        )
    });
    for ([ti, ni, ri], &(m, p10, p99)) in results.iter() {
        let (topo, n, rho) = (&topos[ti], ns[ni], rhos[ri]);
        table.row(&[&label(topo), &n, &f(rho), &f(m), &f(p10), &f(p99)]);
        summary.push_str(&format!(
            "{:<4} n={:<3} rho={:.1}: mean {:>7.2} ms p99 {:>8.2} ms\n",
            label(topo),
            n,
            rho,
            m,
            p99
        ));
    }
    table.write("fig12_layers")?;
    summary.push_str("Paper: 9 layers suffice for SF/DF; with more layers, higher ρ wins.\n");
    write_summary("fig12_layers", &summary)
}

/// Fig. 21: NDP λ sweep — 2× oversubscribed fat tree vs the star baseline.
pub fn fig21(quick: bool) -> io::Result<()> {
    let ft = if quick {
        build(TopoKind::FatTree, SizeClass::Small, 1)
    } else {
        fatpaths_net::topo::fattree::fat_tree(16, 2)
    };
    let st = star(ft.num_endpoints() as u32);
    let lambdas: &[f64] = if quick {
        &[100.0, 300.0]
    } else {
        &[100.0, 200.0, 300.0, 400.0, 500.0]
    };
    let window = 0.004;
    let mut table = Table::new(&[
        "topology",
        "lambda",
        "flow_kib",
        "fct_p10_norm",
        "fct_mean_norm",
        "fct_p99_norm",
    ]);
    let mut summary = String::from("Fig. 21 — NDP λ sweep (normalized FCT; fat tree vs star)\n");
    let series = [("fattree", &ft), ("star", &st)];
    let results = Grid::new([series.len(), lambdas.len()]).run(|[si, li]| {
        let topo = series[si].1;
        let lb = if topo.kind == TopoKind::FatTree {
            LoadBalancing::PacketSpray
        } else {
            LoadBalancing::EcmpFlow
        };
        let flows = pattern_workload(topo, &Pattern::Uniform, lambdas[li], window, true, 21);
        post_warmup(
            Scenario::on(topo)
                .scheme(SchemeSpec::Minimal)
                .lb(lb)
                .workload(&flows)
                .seed(3)
                .run(),
            window,
        )
    });
    for ([si, li], res) in results.iter() {
        let (name, lambda) = (series[si].0, lambdas[li]);
        // Normalize by the ideal line-rate FCT per size (µ=10Gb/s).
        for (size, _grp_mean, _t1, _) in throughput_by_size(res) {
            let fcts: Vec<f64> = res
                .completed()
                .filter(|fl| fl.size == size)
                .filter_map(|fl| fl.fct_s())
                .collect();
            let ideal = size as f64 / (10e9 / 8.0);
            table.row(&[
                &name,
                &f(lambda),
                &(size / 1024),
                &f(percentile(&fcts, 10.0) / ideal),
                &f(mean(&fcts) / ideal),
                &f(percentile(&fcts, 99.0) / ideal),
            ]);
        }
        let all = res.fcts(None);
        summary.push_str(&format!(
            "{:<8} λ={:<5} mean FCT {:>8.3} ms (flows {})\n",
            name,
            lambda,
            mean(&all) * 1e3,
            all.len()
        ));
    }
    table.write("fig21_lambda_ndp")?;
    summary.push_str("Paper: λ≤200 shows no oversubscription penalty; λ≥300 loads the core.\n");
    write_summary("fig21_lambda_ndp", &summary)
}
