//! Full-TCP-stack (cloud) experiments: Fig. 14 (FatPaths vs ECMP vs
//! LetFlow speedups), Fig. 15 (SF long-flow FCT distribution vs queueing
//! model), Fig. 16 (ρ sweep on TCP), Fig. 17 (stencil + barrier), Fig. 20
//! (λ behavior on a crossbar).
//!
//! Scenario grids run as parallel [`Grid`] sweeps with ordered
//! post-processing (speedups against the ECMP cell of the same group are
//! computed after the sweep, from grid-ordered results).

use crate::common::{
    adversarial_long_flows, f, is_smoke, label, pattern_workload, per_topo, post_warmup, topo_set,
    write_summary, SchemeArm, Table,
};
use fatpaths_net::classes::{build, SizeClass};
use fatpaths_net::topo::{star::star, TopoKind, Topology};
use fatpaths_sim::metrics::{histogram, mean, percentile};
use fatpaths_sim::{
    cell_seed, coord_str, Grid, LoadBalancing, Scenario, SchemeSpec, SimResult, TcpVariant,
    Transport,
};
use fatpaths_workloads::arrivals::poisson_flows;
use fatpaths_workloads::patterns::Pattern;
use fatpaths_workloads::sizes::FlowSizeDist;
use std::io;

/// The four §VII-C comparison schemes: ECMP, LetFlow, FatPaths ρ=0.6, and
/// FatPaths ρ=1 (minimal-path layers), all with n=4 layers.
fn schemes() -> [SchemeArm; 4] {
    let layered = |name, rho| SchemeArm::new(name, SchemeSpec::LayeredRandom { n_layers: 4, rho });
    [
        SchemeArm::new("ecmp", SchemeSpec::Minimal).lb(LoadBalancing::EcmpFlow),
        SchemeArm::new("letflow", SchemeSpec::Minimal).lb(LoadBalancing::LetFlow),
        layered("fatpaths_rho06", 0.6),
        layered("fatpaths_rho1", 1.0),
    ]
}

/// The [`schemes`] arm of that name, and its position — looked up by
/// name so speedup baselines survive reordering of the scheme list.
fn scheme_named(name: &str) -> (usize, SchemeArm) {
    let arms = schemes();
    let i = arms
        .iter()
        .position(|a| a.name == name)
        .unwrap_or_else(|| panic!("schemes() must contain {name}"));
    (i, arms[i])
}

fn run_scheme(
    topo: &Topology,
    arm: &SchemeArm,
    flows: &[fatpaths_workloads::FlowSpec],
) -> SimResult {
    // The paper's TCP runs use ECN (§VII-A6). Layered arms sample their
    // layers from seed 5.
    let seed = if arm.lb.is_none() { 5 } else { 3 };
    arm.on(Scenario::on(topo)
        .transport(Transport::tcp_default(TcpVariant::Dctcp))
        .workload(flows)
        .seed(seed))
        .run()
}

fn class_for(quick: bool) -> SizeClass {
    let _ = quick;
    SizeClass::Small // TCP packets are 6× smaller than jumbo; stay at ≈1k eps
}

/// Fig. 14: mean and 99%-tail FCT speedup over ECMP by flow size.
pub fn fig14(quick: bool) -> io::Result<()> {
    let window = if quick { 0.01 } else { 0.02 };
    let mut table = Table::new(&[
        "topology",
        "scheme",
        "flow_kib",
        "speedup_mean",
        "speedup_p99",
    ]);
    let mut summary = String::from("Fig. 14 — TCP FCT speedup over ECMP (n=4)\n");
    let mut topos = topo_set(class_for(quick), 3);
    if is_smoke() {
        // Smoke proves the pipeline runs end-to-end; two topologies keep
        // the size buckets populated (≥5 flows → CSV rows) at a fraction
        // of the six-topology cost.
        topos.truncate(2);
    }
    // Grid: (topology, scheme); the workload is shared per topology and
    // regenerated inside the cell from the topology-indexed seed (cheap
    // next to the simulation, and keeps cells self-contained).
    let arms = schemes();
    let (ecmp_i, _) = scheme_named("ecmp");
    let results = Grid::new([topos.len(), arms.len()]).run(|[ti, si]| {
        let topo = &topos[ti];
        let flows = pattern_workload(topo, &Pattern::Permutation, 200.0, window, true, 31);
        post_warmup(run_scheme(topo, &arms[si], &flows), window)
    });
    for (ti, topo) in topos.iter().enumerate() {
        // Speedups relative to ECMP per size bucket.
        let ecmp = &results[[ti, ecmp_i]];
        let sizes: Vec<u64> = {
            let mut s: Vec<u64> = ecmp.completed().map(|f| f.size).collect();
            s.sort_unstable();
            s.dedup();
            s
        };
        for ([_, si], res) in results.under(ti) {
            let scheme = arms[si].name;
            let mut mean_sp = Vec::new();
            let mut best_tail = 0.0f64;
            for &size in &sizes {
                let base = ecmp.fcts(Some(size));
                let ours = res.fcts(Some(size));
                if base.len() < 5 || ours.len() < 5 {
                    continue; // too few flows in this size bucket
                }
                let sp_mean = mean(&base) / mean(&ours).max(1e-12);
                let sp_p99 = percentile(&base, 99.0) / percentile(&ours, 99.0).max(1e-12);
                table.row(&[
                    &label(topo),
                    &scheme,
                    &(size / 1024),
                    &f(sp_mean),
                    &f(sp_p99),
                ]);
                mean_sp.push(sp_mean);
                best_tail = best_tail.max(sp_p99);
            }
            summary.push_str(&format!(
                "{:<5} {:<15} avg speedup {:>5.2}x, best tail speedup {:>5.2}x\n",
                label(topo),
                scheme,
                mean(&mean_sp),
                best_tail
            ));
        }
    }
    table.write("fig14_tcp_speedup")?;
    summary.push_str(
        "Paper: FatPaths ρ=0.6 beats ECMP/LetFlow, up to 2.5x on SF; LetFlow/ECMP are\n\
         ineffective on SF and DF (no minimal-path diversity).\n",
    );
    write_summary("fig14_tcp_speedup", &summary)
}

/// Fig. 15: FCT distribution of 1 MiB flows on SF — ECMP vs FatPaths vs a
/// simple M/M/1-style queueing prediction.
pub fn fig15(quick: bool) -> io::Result<()> {
    let topo = build(TopoKind::SlimFly, class_for(quick), 1);
    let window = if quick { 0.02 } else { 0.04 };
    let pairs = Pattern::Permutation.flows(topo.num_endpoints() as u64, 3);
    let dist = FlowSizeDist::fixed(1 << 20);
    let lambda = 150.0;
    let flows = poisson_flows(&pairs, lambda, window, &dist, 4);
    // Two independent cells: FatPaths and ECMP.
    let series = [
        ("fatpaths", scheme_named("fatpaths_rho06").1),
        ("ecmp", scheme_named("ecmp").1),
    ];
    let runs = Grid::new([series.len()])
        .run(|[i]| post_warmup(run_scheme(&topo, &series[i].1, &flows), window));
    // Queueing prediction (see sim::queueing): M/M/1-PS sojourn for a
    // 1 MiB job at per-endpoint-link utilization ρ = λ·E[S].
    let service = (1u64 << 20) as f64 / (10e9 / 8.0);
    let model = fatpaths_sim::queueing::QueueModel {
        lambda,
        mean_service_s: service,
    };
    let predicted = model.mm1_ps_fct(service);
    let mut table = Table::new(&["scheme", "fct_ms_bin", "count"]);
    let mut summary = String::from("Fig. 15 — FCT distribution of 1 MiB flows on SF (TCP)\n");
    for ([i], res) in runs.iter() {
        let scheme = series[i].0;
        let fcts: Vec<f64> = res.fcts(None).iter().map(|s| s * 1e3).collect();
        let hist = histogram(&fcts, 0.0, 40.0, 40);
        for (bin, &c) in hist.counts.iter().enumerate() {
            if c > 0 {
                table.row(&[&scheme, &bin, &c]);
            }
        }
        summary.push_str(&format!(
            "{:<9} mean {:>7.2} ms  p99 {:>8.2} ms  (model predicts {:.2} ms)\n",
            scheme,
            mean(&fcts),
            percentile(&fcts, 99.0),
            predicted * 1e3
        ));
    }
    table.write("fig15_fct_dist")?;
    summary.push_str("Paper: FatPaths tracks the queueing model; ECMP grows a collision tail.\n");
    write_summary("fig15_fct_dist", &summary)
}

/// Fig. 16: impact of ρ on long-flow FCT with TCP, n = 4.
pub fn fig16(quick: bool) -> io::Result<()> {
    let window = if quick { 0.01 } else { 0.02 };
    let rhos: &[f64] = if quick {
        &[0.5, 0.7, 1.0]
    } else {
        &[0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
    };
    let mut table = Table::new(&["topology", "rho", "fct_mean_ms", "fct_p10_ms", "fct_p99_ms"]);
    let mut summary = String::from("Fig. 16 — ρ sweep, TCP long flows (1 MiB), n=4\n");
    let topos: Vec<Topology> = topo_set(class_for(quick), 3)
        .into_iter()
        .filter(|t| t.kind != TopoKind::FatTree) // figure covers the low-diameter set
        .collect();
    let flows_per_topo = per_topo(&topos, |topo| adversarial_long_flows(topo, window, 2, 6));
    // Layer-sampling seed from the cell's coordinate values; the topology
    // coordinate is its label, so seeds survive set reordering/filtering.
    let results = Grid::new([topos.len(), rhos.len()]).run(|[ti, ri]| {
        let rho = rhos[ri];
        let seed = cell_seed("fig16", &[coord_str(&label(&topos[ti])), rho.to_bits()]);
        let res = post_warmup(
            Scenario::on(&topos[ti])
                .scheme(SchemeSpec::LayeredRandom { n_layers: 4, rho })
                .transport(Transport::tcp_default(TcpVariant::Dctcp))
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
    for ([ti, ri], &(m, p10, p99)) in results.iter() {
        let (topo, rho) = (&topos[ti], rhos[ri]);
        table.row(&[&label(topo), &f(rho), &f(m), &f(p10), &f(p99)]);
        summary.push_str(&format!(
            "{:<6} rho={:.1}: mean {:>7.2} ms p99 {:>8.2} ms\n",
            label(topo),
            rho,
            m,
            p99
        ));
    }
    table.write("fig16_rho_tcp")?;
    summary.push_str("Paper: ρ≈0.6–0.8 optimal for SF/DF (2x tail gain); ρ=1 fine for HX.\n");
    write_summary("fig16_rho_tcp", &summary)
}

/// Fig. 17: stencil + barrier workload — total completion speedup over
/// ECMP for LetFlow and FatPaths (ρ ∈ {0.6, 1}). The stencil traffic
/// pattern (4 off-diagonals) runs with Poisson arrivals and a fixed
/// message size per series; "completion" is the post-warmup makespan.
pub fn fig17(quick: bool) -> io::Result<()> {
    let msg_sizes: &[u64] = if quick {
        &[200_000]
    } else {
        &[20_000, 200_000, 2_000_000]
    };
    let window = if quick { 0.008 } else { 0.015 };
    let mut table = Table::new(&[
        "topology",
        "scheme",
        "message_bytes",
        "completion_ms",
        "speedup_vs_ecmp",
    ]);
    let mut summary = String::from("Fig. 17 — stencil+barrier completion speedup\n");
    let topos = topo_set(class_for(quick), 3);
    // Per-topology randomized stencil pairs, shared across the grid.
    let pairs_per_topo = per_topo(&topos, |topo| {
        let n = topo.num_endpoints() as u64;
        let mapping = fatpaths_workloads::mapping::random_mapping(n as u32, 5);
        let pairs = fatpaths_workloads::mapping::apply_mapping(
            &mapping,
            &Pattern::stencil_small().flows(n, 2),
        );
        pairs
            .into_iter()
            .filter(|&(s, d)| topo.endpoint_router(s) != topo.endpoint_router(d))
            .collect::<Vec<(u32, u32)>>()
    });
    // Grid: (topology, message size, scheme) — barrier percentile per cell.
    let arms = schemes();
    let (ecmp_i, _) = scheme_named("ecmp");
    let results = Grid::new([topos.len(), msg_sizes.len(), arms.len()]).run(|[ti, mi, si]| {
        let dist = FlowSizeDist::fixed(msg_sizes[mi]);
        let flows = poisson_flows(&pairs_per_topo[ti], 200.0, window, &dist, 6);
        let res = post_warmup(run_scheme(&topos[ti], &arms[si], &flows), window);
        // Barrier semantics: an iteration completes when its slowest
        // exchange does — p99 FCT is the robust version of that max.
        percentile(&res.fcts(None), 99.0) * 1e3
    });
    for ([ti, mi, si], &ms) in results.iter() {
        let (topo, msg, scheme) = (&topos[ti], msg_sizes[mi], arms[si].name);
        let speedup = results[[ti, mi, ecmp_i]] / ms.max(1e-12);
        table.row(&[&label(topo), &scheme, &msg, &f(ms), &f(speedup)]);
        if msg == 200_000 {
            summary.push_str(&format!(
                "{:<5} {:<15} msg=200K: {:>8.2} ms ({:>4.2}x vs ECMP)\n",
                label(topo),
                scheme,
                ms,
                speedup
            ));
        }
    }
    table.write("fig17_stencil")?;
    summary.push_str("Paper: >2.5x on SF and ≈2x on XP for 200K/2M messages.\n");
    write_summary("fig17_stencil", &summary)
}

/// Fig. 20: TCP behavior vs flow arrival rate λ on a 60-endpoint crossbar.
pub fn fig20(quick: bool) -> io::Result<()> {
    let topo = star(60);
    let lambdas: &[f64] = if quick {
        &[100.0, 400.0]
    } else {
        &[50.0, 100.0, 200.0, 400.0, 800.0]
    };
    let mut table = Table::new(&["lambda", "fct_p10_ms", "fct_mean_ms", "fct_p90_ms", "flows"]);
    let mut summary = String::from("Fig. 20 — TCP crossbar λ sweep (2 MB flows)\n");
    let results = Grid::new([lambdas.len()]).run(|[li]| {
        let pairs = Pattern::Uniform.flows(60, 3);
        let dist = FlowSizeDist::fixed(2_000_000);
        let window = 0.05;
        let flows = poisson_flows(&pairs, lambdas[li], window, &dist, 8);
        let res = post_warmup(
            Scenario::on(&topo)
                .scheme(SchemeSpec::Minimal)
                .transport(Transport::tcp_default(TcpVariant::Reno))
                .workload(&flows)
                .seed(3)
                .run(),
            window,
        );
        res.fcts(None).iter().map(|s| s * 1e3).collect::<Vec<f64>>()
    });
    for ([li], fcts) in results.iter() {
        let lambda = lambdas[li];
        table.row(&[
            &f(lambda),
            &f(percentile(fcts, 10.0)),
            &f(mean(fcts)),
            &f(percentile(fcts, 90.0)),
            &fcts.len(),
        ]);
        summary.push_str(&format!(
            "λ={:<6} mean {:>8.2} ms p90 {:>8.2} ms ({} flows)\n",
            lambda,
            mean(fcts),
            percentile(fcts, 90.0),
            fcts.len()
        ));
    }
    table.write("fig20_lambda_tcp")?;
    summary.push_str("Paper: saturation knee beyond λ≈250 on the 60-endpoint crossbar.\n");
    write_summary("fig20_lambda_tcp", &summary)
}
