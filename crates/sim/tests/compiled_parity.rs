//! Compiled-FIB parity: the flagship guarantee of the FIB subsystem.
//! Simulating on [`CompiledScheme`] tables — per-switch prefix rules +
//! ECMP groups, matched per packet — must produce **byte-identical**
//! results to the analytic schemes they were compiled from, across the
//! whole baselines grid (every scheme family of the paper's
//! comparison), in both compile modes, and through a fault + repair
//! run. Any divergence means the compiled state is not the state the
//! analytic evaluation assumed switches would hold, which would void
//! the deployment argument (§V-E).

use fatpaths_core::past::PastVariant;
use fatpaths_net::fault::{FaultModel, FaultPlan};
use fatpaths_net::topo::Topology;
use fatpaths_sim::{CompileMode, LoadBalancing, Scenario, SchemeSpec, SimResult};
use fatpaths_workloads::arrivals::FlowSpec;

/// The full baselines scheme matrix (same specs as the `baselines`
/// experiment).
fn matrix() -> Vec<(SchemeSpec, Option<LoadBalancing>)> {
    vec![
        (
            SchemeSpec::LayeredRandom {
                n_layers: 4,
                rho: 0.6,
            },
            None,
        ),
        (SchemeSpec::Minimal, Some(LoadBalancing::EcmpFlow)),
        (SchemeSpec::Minimal, Some(LoadBalancing::PacketSpray)),
        (SchemeSpec::Minimal, Some(LoadBalancing::LetFlow)),
        (SchemeSpec::Spain { k_paths: 2 }, None),
        (
            SchemeSpec::Past {
                variant: PastVariant::Bfs,
            },
            None,
        ),
        (SchemeSpec::Ksp { k: 3 }, None),
        (SchemeSpec::Valiant { n_layers: 4 }, None),
    ]
}

fn mini_topos() -> Vec<Topology> {
    vec![
        fatpaths_net::topo::slimfly::slim_fly(5, 2).unwrap(),
        fatpaths_net::topo::fattree::fat_tree(4, 1),
    ]
}

fn permutation(topo: &Topology, offset: u64) -> Vec<FlowSpec> {
    let n = topo.num_endpoints() as u64;
    (0..n)
        .map(|e| FlowSpec {
            src: e as u32,
            dst: ((e + offset) % n) as u32,
            size: 48 * 1024,
            start: 0,
        })
        .filter(|f| f.src != f.dst)
        .collect()
}

/// Serializes everything a result CSV could ever derive — per-flow
/// records and global counters — so equality here is equality of any
/// downstream artifact. FIB rewrite pricing is metadata about the
/// *scheme representation* and intentionally excluded; overlay row
/// counts and tick times must still match.
fn fingerprint(r: &SimResult) -> String {
    use std::fmt::Write as _;
    let mut s = format!(
        "end={} drops={} trims={} unroutable={}\n",
        r.end_time, r.drops, r.trims, r.unroutable
    );
    for f in &r.flows {
        let _ = writeln!(
            s,
            "{},{},{:?},{},{},{},{}",
            f.size, f.start, f.finish, f.retx, f.trims, f.host_dead, f.aborted
        );
    }
    for t in &r.repair_log {
        let _ = writeln!(s, "tick {} rows={}", t.at, t.rows);
    }
    s
}

/// Healthy-network parity: all eight baselines, both compile modes,
/// two topologies.
#[test]
fn compiled_fib_runs_are_byte_identical_to_analytic_runs() {
    for topo in mini_topos() {
        let flows = permutation(&topo, 17);
        for (spec, lb) in matrix() {
            let scenario = |compiled: Option<CompileMode>| {
                let mut sc = Scenario::on(&topo).scheme(spec).workload(&flows).seed(3);
                if let Some(lb) = lb {
                    sc = sc.lb(lb);
                }
                if let Some(mode) = compiled {
                    sc = sc.compiled(mode);
                }
                sc.run()
            };
            let analytic = fingerprint(&scenario(None));
            for mode in [CompileMode::HostRoutes, CompileMode::Aggregated] {
                let compiled = fingerprint(&scenario(Some(mode)));
                assert!(
                    analytic == compiled,
                    "{} {:?} diverged on {} (lb {:?})",
                    spec.label(),
                    mode,
                    topo.name,
                    lb
                );
            }
        }
    }
}

/// Fault parity: static failures + mid-run churn with detection-driven
/// repair. The compiled scheme delegates routing repair to its inner
/// scheme and prices it in FIB rows, so the packet-visible behavior —
/// including every repair tick's overlay — must match exactly, while
/// the compiled run additionally reports nonzero rewritten FIB rows.
#[test]
fn compiled_fib_fault_repair_runs_match_analytic_runs() {
    let topo = fatpaths_net::topo::slimfly::slim_fly(5, 2).unwrap();
    let flows = permutation(&topo, 21);
    let plan = FaultPlan::sample(&topo, &FaultModel::UniformFraction { fraction: 0.06 }, 11)
        .router_down_at(2_000_000_000, 7)
        .router_up_at(6_000_000_000, 7);
    let run = |compiled: Option<CompileMode>| {
        let mut sc = Scenario::on(&topo)
            .scheme(SchemeSpec::LayeredRandom {
                n_layers: 4,
                rho: 0.6,
            })
            .workload(&flows)
            .seed(3)
            .horizon(40_000_000_000)
            .fault_plan(plan.clone())
            .detection_delay(50_000_000);
        if let Some(mode) = compiled {
            sc = sc.compiled(mode);
        }
        sc.run()
    };
    let analytic = run(None);
    let compiled = run(Some(CompileMode::Aggregated));
    assert_eq!(fingerprint(&analytic), fingerprint(&compiled));
    assert!(analytic.repair_ticks() >= 2, "churn must trigger repairs");
    assert_eq!(analytic.fib_rows(), 0, "analytic schemes carry no FIB");
    assert!(
        compiled.fib_rows() > 0,
        "compiled repair must price rewritten FIB rows"
    );
    assert!(compiled.repair_rows() == analytic.repair_rows());
}

/// The `+fib` label marks compiled scenarios for CSV rows.
#[test]
fn compiled_label_is_distinct() {
    let topo = fatpaths_net::topo::slimfly::slim_fly(5, 1).unwrap();
    let sc = Scenario::on(&topo).scheme(SchemeSpec::Minimal);
    assert_eq!(sc.clone().label(), "minimal");
    assert_eq!(
        sc.compiled(CompileMode::Aggregated).label(),
        "minimal+fib(agg)"
    );
}

/// TE compiled parity — the PR 6 acceptance pin: negotiated TE tables
/// compile through `crates/fib` like any other scheme, and simulating
/// on the compiled form is byte-identical to the analytic TE run, both
/// healthy and through a fault + detection-driven repair (which
/// rebuilds broken trees under the negotiated prices rather than through
/// the static-table repair).
#[test]
fn te_compiled_fib_runs_match_analytic_runs() {
    for topo in mini_topos() {
        let flows = permutation(&topo, 13);
        let plan = FaultPlan::sample(&topo, &FaultModel::UniformFraction { fraction: 0.04 }, 9);
        let run = |compiled: Option<CompileMode>, faulty: bool| {
            let mut sc = Scenario::on(&topo)
                .scheme(SchemeSpec::LayeredRandom {
                    n_layers: 4,
                    rho: 0.6,
                })
                .traffic_engineered(fatpaths_sim::TeConfig::default())
                .workload(&flows)
                .seed(5)
                .horizon(40_000_000_000);
            if faulty {
                sc = sc.fault_plan(plan.clone()).detection_delay(50_000_000);
            }
            if let Some(mode) = compiled {
                sc = sc.compiled(mode);
            }
            sc.run()
        };
        for faulty in [false, true] {
            let analytic = run(None, faulty);
            for mode in [CompileMode::HostRoutes, CompileMode::Aggregated] {
                let compiled = run(Some(mode), faulty);
                assert!(
                    fingerprint(&analytic) == fingerprint(&compiled),
                    "te {:?} diverged on {} (faulty {faulty})",
                    mode,
                    topo.name
                );
                if faulty {
                    assert!(
                        compiled.fib_rows() > 0,
                        "TE repair must price rewritten FIB rows"
                    );
                }
            }
            if faulty {
                assert!(
                    analytic.repair_ticks() >= 1,
                    "static faults must trigger a TE repair tick on {}",
                    topo.name
                );
                assert_eq!(analytic.fib_rows(), 0, "analytic TE carries no FIB");
            }
        }
    }
}

/// The `+te` label slots between the scheme label and the `+fib` suffix.
#[test]
fn te_label_composes() {
    let topo = fatpaths_net::topo::slimfly::slim_fly(5, 1).unwrap();
    let sc = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredRandom {
            n_layers: 4,
            rho: 0.6,
        })
        .traffic_engineered(fatpaths_sim::TeConfig::default());
    assert_eq!(sc.clone().label(), "layered(n=4,rho=0.6)+te");
    assert_eq!(
        sc.compiled(CompileMode::Aggregated).label(),
        "layered(n=4,rho=0.6)+te+fib(agg)"
    );
}
