//! Sharded-execution parity: the flagship guarantee of the sharded
//! event engine. Running a scenario on K event-loop shards — each with
//! its own queue and packet arena, stepped in conservative-lookahead
//! windows on the thread pool — must produce **byte-identical** results
//! to the single-shard run, for every routing scheme of the baselines
//! grid, healthy and under fault/churn/TE/compiled-FIB configurations,
//! at any shard and thread count. Any divergence means event order
//! leaked through the cross-shard merge, which is ordered by
//! `(time, src_shard, seq)` and never by arrival order.

use fatpaths_core::past::PastVariant;
use fatpaths_net::fault::{FaultModel, FaultPlan};
use fatpaths_net::topo::Topology;
use fatpaths_sim::{
    AdaptiveMode, CompileMode, LoadBalancing, Scenario, SchemeSpec, SimResult, TelemetryConfig,
    Trace,
};
use fatpaths_workloads::arrivals::FlowSpec;
use proptest::prelude::*;

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

/// SF exercises the BFS partition (no domains), FT3 the domain walk.
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
/// records, global counters, and the repair log — so equality here is
/// equality of any downstream artifact.
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
        let _ = writeln!(s, "tick {} rows={} fib={}", t.at, t.rows, t.fib_rows);
    }
    s
}

/// Healthy-network parity: all eight baselines, two topology families,
/// shard counts from degenerate to finer than the domain structure.
#[test]
fn sharded_runs_are_byte_identical_to_single_shard() {
    rayon::ensure_pool(4);
    for topo in mini_topos() {
        let flows = permutation(&topo, 17);
        for (spec, lb) in matrix() {
            let run = |k: u32| {
                let mut sc = Scenario::on(&topo)
                    .scheme(spec)
                    .workload(&flows)
                    .seed(3)
                    .shards(k);
                if let Some(lb) = lb {
                    sc = sc.lb(lb);
                }
                sc.run()
            };
            let single = fingerprint(&run(1));
            for k in [2, 3, 4, 9] {
                let sharded = fingerprint(&run(k));
                assert!(
                    single == sharded,
                    "{} diverged at {k} shards on {} (lb {:?})",
                    spec.label(),
                    topo.name,
                    lb
                );
            }
        }
    }
}

/// The work counters (`RunProfile::dispatched`, one per event class,
/// and their sum `RunProfile::events`) count traffic events only —
/// faults and repair passes are epochs of the shared timeline — so none
/// may move with the shard count, healthy or under churn with repair,
/// or host ns/event would not compare across K.
#[test]
fn traffic_event_count_is_shard_count_invariant() {
    rayon::ensure_pool(4);
    for topo in mini_topos() {
        let flows = permutation(&topo, 19);
        let churn = FaultPlan::sample(&topo, &FaultModel::UniformFraction { fraction: 0.06 }, 11)
            .router_down_at(2_000_000_000, 7)
            .router_up_at(6_000_000_000, 7);
        for plan in [None, Some(&churn)] {
            let events = |k: u32| {
                let mut sc = Scenario::on(&topo)
                    .scheme(SchemeSpec::LayeredRandom {
                        n_layers: 4,
                        rho: 0.6,
                    })
                    .workload(&flows)
                    .seed(3)
                    .horizon(40_000_000_000)
                    .shards(k);
                if let Some(plan) = plan {
                    sc = sc
                        .fault_plan(plan.clone())
                        .detection_delay(50_000_000)
                        .abort_on_host_death(3);
                }
                let r = sc.run();
                assert_eq!(r.repair_ticks() >= 2, plan.is_some());
                assert_eq!(r.profile.events, r.profile.dispatched.total());
                r.profile.dispatched
            };
            let single = events(1);
            // A start and at least two arrivals per flow.
            let n = flows.len() as u64;
            assert_eq!(single.flow_starts, n);
            assert!(single.router_arrivals + single.endpoint_arrivals >= 2 * n);
            assert!(single.serializer_turns > 0 && single.pull_ticks > 0);
            for k in [2, 4, 9] {
                assert_eq!(events(k), single, "{k} shards on {}", topo.name);
            }
        }
    }
}

/// Fault parity: static failures plus mid-run router churn with
/// detection-driven repair. Fault state is replicated per shard, so the
/// repair log — assembled from shard 0's replica — must match the
/// single-shard run tick for tick (the `SimResult` deterministic-merge
/// guarantee), and so must every packet-visible outcome.
#[test]
fn sharded_fault_churn_repair_runs_match_single_shard() {
    rayon::ensure_pool(4);
    for topo in mini_topos() {
        let flows = permutation(&topo, 21);
        let plan = FaultPlan::sample(&topo, &FaultModel::UniformFraction { fraction: 0.06 }, 11)
            .router_down_at(2_000_000_000, 7)
            .router_up_at(6_000_000_000, 7);
        let run = |k: u32| {
            Scenario::on(&topo)
                .scheme(SchemeSpec::LayeredRandom {
                    n_layers: 4,
                    rho: 0.6,
                })
                .workload(&flows)
                .seed(3)
                .horizon(40_000_000_000)
                .fault_plan(plan.clone())
                .detection_delay(50_000_000)
                .abort_on_host_death(3)
                .shards(k)
                .run()
        };
        let single = run(1);
        assert!(
            single.repair_ticks() >= 2,
            "churn must trigger repairs on {}",
            topo.name
        );
        for k in [2, 4] {
            let sharded = run(k);
            assert_eq!(
                single.repair_log, sharded.repair_log,
                "repair log diverged at {k} shards on {}",
                topo.name
            );
            assert!(
                fingerprint(&single) == fingerprint(&sharded),
                "fault run diverged at {k} shards on {}",
                topo.name
            );
        }
    }
}

/// Adaptive flowlet steering reads live queue depths at the sender's
/// attachment router — state that is shard-local by construction — so
/// every boundary decision sees the same snapshot at the same canonical
/// event time regardless of how routers are sharded. Pins both
/// adaptive-capable load balancers (layered FatPaths re-picks the
/// least-loaded layer, LetFlow the least-loaded minimal port) across
/// shard counts AND both thread configurations.
#[test]
fn sharded_adaptive_runs_match_single_shard() {
    rayon::ensure_pool(4);
    for topo in mini_topos() {
        let flows = permutation(&topo, 17);
        for (spec, lb) in [
            (
                SchemeSpec::LayeredRandom {
                    n_layers: 4,
                    rho: 0.6,
                },
                None,
            ),
            (SchemeSpec::Minimal, Some(LoadBalancing::LetFlow)),
        ] {
            let run = |k: u32| {
                let mut sc = Scenario::on(&topo)
                    .scheme(spec)
                    .adaptive(AdaptiveMode::QueueDepth)
                    .workload(&flows)
                    .seed(3)
                    .shards(k);
                if let Some(lb) = lb {
                    sc = sc.lb(lb);
                }
                sc.run()
            };
            let single = fingerprint(&run(1));
            for k in [2, 4] {
                assert!(
                    single == fingerprint(&run(k)),
                    "adaptive {} diverged at {k} shards on {} (lb {:?})",
                    spec.label(),
                    topo.name,
                    lb
                );
            }
            let sequential = fingerprint(&rayon::run_sequential(|| run(4)));
            assert!(
                single == sequential,
                "adaptive {} differs between pooled and single-threaded execution on {}",
                spec.label(),
                topo.name
            );
        }
    }
}

/// Adaptive steering under static faults plus mid-run churn: down
/// candidates are excluded from the depth snapshot (scored `u32::MAX`),
/// and repaired rows replace the scheme's candidate set — both paths
/// must stay byte-identical across shard counts, repair log included.
#[test]
fn sharded_adaptive_fault_churn_runs_match_single_shard() {
    rayon::ensure_pool(4);
    for topo in mini_topos() {
        let flows = permutation(&topo, 21);
        let plan = FaultPlan::sample(&topo, &FaultModel::UniformFraction { fraction: 0.06 }, 11)
            .router_down_at(2_000_000_000, 7)
            .router_up_at(6_000_000_000, 7);
        let run = |k: u32| {
            Scenario::on(&topo)
                .scheme(SchemeSpec::LayeredRandom {
                    n_layers: 4,
                    rho: 0.6,
                })
                .adaptive(AdaptiveMode::QueueDepth)
                .workload(&flows)
                .seed(3)
                .horizon(40_000_000_000)
                .fault_plan(plan.clone())
                .detection_delay(50_000_000)
                .abort_on_host_death(3)
                .shards(k)
                .run()
        };
        let single = run(1);
        assert!(
            single.repair_ticks() >= 2,
            "churn must trigger repairs on {}",
            topo.name
        );
        for k in [2, 4] {
            let sharded = run(k);
            assert_eq!(
                single.repair_log, sharded.repair_log,
                "adaptive repair log diverged at {k} shards on {}",
                topo.name
            );
            assert!(
                fingerprint(&single) == fingerprint(&sharded),
                "adaptive fault run diverged at {k} shards on {}",
                topo.name
            );
        }
    }
}

/// TE-negotiated tables and compiled FIBs ride the same sharded engine:
/// both must stay byte-identical to their single-shard runs.
#[test]
fn sharded_te_and_compiled_runs_match_single_shard() {
    rayon::ensure_pool(4);
    let topo = fatpaths_net::topo::fattree::fat_tree(4, 1);
    let flows = permutation(&topo, 13);
    for (te, compiled) in [(true, None), (false, Some(CompileMode::Aggregated))] {
        let run = |k: u32| {
            let mut sc = Scenario::on(&topo)
                .scheme(SchemeSpec::LayeredRandom {
                    n_layers: 4,
                    rho: 0.6,
                })
                .workload(&flows)
                .seed(5)
                .shards(k);
            if te {
                sc = sc.traffic_engineered(fatpaths_sim::TeConfig::default());
            }
            if let Some(mode) = compiled {
                sc = sc.compiled(mode);
            }
            sc.run()
        };
        let single = fingerprint(&run(1));
        let sharded = fingerprint(&run(4));
        assert!(
            single == sharded,
            "te={te} compiled={compiled:?} diverged at 4 shards"
        );
    }
}

/// Thread count is orthogonal to shard count: a 4-shard run on the
/// 4-thread pool and the same 4-shard run forced onto one thread via
/// `rayon::run_sequential` are byte-identical — window execution order
/// across shards must never matter.
#[test]
fn sharded_runs_match_across_thread_counts() {
    rayon::ensure_pool(4);
    let topo = fatpaths_net::topo::slimfly::slim_fly(5, 2).unwrap();
    let flows = permutation(&topo, 7);
    let run = || {
        Scenario::on(&topo)
            .scheme(SchemeSpec::LayeredRandom {
                n_layers: 4,
                rho: 0.6,
            })
            .workload(&flows)
            .seed(9)
            .shards(4)
            .run()
    };
    let pooled = fingerprint(&run());
    let sequential = fingerprint(&rayon::run_sequential(run));
    assert!(
        pooled == sequential,
        "4-shard run differs between pooled and single-threaded execution"
    );
}

/// Telemetry determinism contract: for a fixed shard count, the exported
/// NDJSON trace and time-series CSV are byte-identical whether the
/// 4-shard windows run on the 4-thread pool or inline on one thread —
/// collection is shard-local and the merge runs in canonical shard
/// order, so thread scheduling must never show in an artifact. Also pins
/// the NDJSON round trip (parse → re-export is the identity) and that
/// observation is pure: the traced run's `SimResult` fingerprints equal
/// the untraced run's.
#[test]
fn telemetry_exports_are_byte_identical_across_thread_counts() {
    rayon::ensure_pool(4);
    for topo in mini_topos() {
        let flows = permutation(&topo, 17);
        let run = || {
            Scenario::on(&topo)
                .scheme(SchemeSpec::LayeredRandom {
                    n_layers: 4,
                    rho: 0.6,
                })
                .workload(&flows)
                .seed(3)
                .shards(4)
                .telemetry(TelemetryConfig {
                    span_every: 1,
                    seed: 3,
                    ..TelemetryConfig::on()
                })
                .run_traced()
        };
        let (res_pool, tr_pool) = run();
        let (res_seq, tr_seq) = rayon::run_sequential(run);
        assert!(
            fingerprint(&res_pool) == fingerprint(&res_seq),
            "traced results diverged across thread counts on {}",
            topo.name
        );
        let ndjson = tr_pool.to_ndjson();
        assert!(
            ndjson == tr_seq.to_ndjson(),
            "NDJSON trace differs between pooled and single-threaded runs on {}",
            topo.name
        );
        assert!(
            tr_pool.to_timeseries_csv() == tr_seq.to_timeseries_csv(),
            "time-series CSV differs between pooled and single-threaded runs on {}",
            topo.name
        );
        // The artifact is real, not an empty stub.
        assert!(!tr_pool.link_rows.is_empty() && !tr_pool.spans.is_empty());
        // Round trip: parse → re-export is the identity.
        let parsed = Trace::parse_ndjson(&ndjson).expect("own NDJSON must parse");
        assert!(parsed.to_ndjson() == ndjson, "NDJSON round trip diverged");
        // Observation is pure: the untraced run is bit-identical.
        let untraced = Scenario::on(&topo)
            .scheme(SchemeSpec::LayeredRandom {
                n_layers: 4,
                rho: 0.6,
            })
            .workload(&flows)
            .seed(3)
            .shards(4)
            .run();
        assert!(
            fingerprint(&untraced) == fingerprint(&res_pool),
            "telemetry perturbed the simulation on {}",
            topo.name
        );
    }
}

/// Telemetry parity across *shard* counts is a non-goal (interval rows
/// are per shard by design), but the disabled path is a hard contract:
/// no collectors are installed, `run_traced` returns no trace, and the
/// run costs exactly one `Option` check per wire start.
#[test]
fn disabled_telemetry_emits_nothing() {
    let topo = fatpaths_net::topo::slimfly::slim_fly(5, 1).unwrap();
    let flows = permutation(&topo, 5);
    let sc = Scenario::on(&topo)
        .scheme(SchemeSpec::LayeredRandom {
            n_layers: 3,
            rho: 0.6,
        })
        .workload(&flows)
        .seed(2);
    let scheme = sc.build_scheme();
    let mut sim = fatpaths_sim::Simulator::new(&topo, &scheme, sc.sim_config());
    sim.add_flows(&flows);
    let (res, trace) = sim.run_traced();
    assert!(trace.is_none(), "disabled telemetry must yield no trace");
    assert_eq!(res.completion_rate(), 1.0);
}

/// MPTCP subflow groups (pinned layers, coupled congestion avoidance)
/// survive sharding bit-for-bit, including the group structure.
#[test]
fn sharded_mptcp_runs_match_single_shard() {
    rayon::ensure_pool(4);
    let topo = fatpaths_net::topo::slimfly::slim_fly(5, 2).unwrap();
    let flows = permutation(&topo, 11);
    let run = |k: u32| {
        Scenario::on(&topo)
            .scheme(SchemeSpec::LayeredRandom {
                n_layers: 4,
                rho: 0.6,
            })
            .transport(fatpaths_sim::Transport::tcp_default(
                fatpaths_sim::TcpVariant::Dctcp,
            ))
            .workload(&flows)
            .seed(3)
            .shards(k)
            .run_mptcp(3)
    };
    let (res1, groups1) = run(1);
    let (res4, groups4) = run(4);
    assert_eq!(groups1, groups4);
    assert!(fingerprint(&res1) == fingerprint(&res4));
}

/// Strategy for the cross-shard merge key. The engine realizes this
/// order through canonical per-transmission uids; the model here is the
/// contract the docs state: time first, then source shard, then send
/// sequence. Small ranges force plenty of per-component ties.
fn merge_key() -> impl Strategy<Value = (u64, u32, u64)> {
    (0u64..16, 0u32..4, 0u64..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // `(time, src_shard, seq)` is a total order: antisymmetric,
    // transitive, total — so a merge keyed on it admits exactly one
    // result, independent of mailbox arrival order.
    #[test]
    fn merge_key_is_a_total_order(
        a in merge_key(),
        b in merge_key(),
        c in merge_key(),
    ) {
        use std::cmp::Ordering;
        // Totality + antisymmetry: exactly one relation holds.
        let ab = a.cmp(&b);
        let ba = b.cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        prop_assert_eq!(ab == Ordering::Equal, a == b);
        // Transitivity over the sampled triple.
        if a.cmp(&b) != Ordering::Greater && b.cmp(&c) != Ordering::Greater {
            prop_assert!(a.cmp(&c) != Ordering::Greater);
        }
    }

    // Sorting any permutation of a key multiset yields the same
    // sequence: the merge result cannot depend on arrival order.
    #[test]
    fn merge_order_is_arrival_order_independent(
        mut keys in prop::collection::vec(merge_key(), 0..40),
        rot in 0usize..40,
    ) {
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        let r = rot % keys.len().max(1);
        keys.rotate_left(r);
        keys.sort_unstable();
        prop_assert_eq!(keys, sorted);
    }

    // `partition_routers` contract: deterministic across repeated
    // calls, shard ids in range, sizes within 2x of perfectly
    // balanced, and failure domains (fat-tree pods) never straddle a
    // shard boundary while there are at least as many domain groups
    // as shards. Covers both assignment paths — whole-domain chunking
    // (small k) and the BFS fallback (k exceeds the group count).
    #[test]
    fn partition_routers_is_balanced_domain_whole_and_deterministic(
        half_k in 2u32..5,
        k in 1usize..12,
    ) {
        let topo = fatpaths_net::topo::fattree::fat_tree(2 * half_k, 1);
        let nr = topo.num_routers();
        let a = fatpaths_sim::partition_routers(&topo, k);
        prop_assert_eq!(&a, &fatpaths_sim::partition_routers(&topo, k));
        prop_assert_eq!(a.len(), nr);
        let kk = k.clamp(1, nr);
        prop_assert!(a.iter().all(|&s| (s as usize) < kk));
        let mut sizes = vec![0usize; kk];
        for &s in &a {
            sizes[s as usize] += 1;
        }
        let balanced = nr.div_ceil(kk);
        for &sz in &sizes {
            prop_assert!(sz <= 2 * balanced, "shard size {} > 2x balanced {}", sz, balanced);
        }
        if kk <= topo.domains.len() {
            for d in &topo.domains {
                let s0 = a[d.start as usize];
                prop_assert!((d.start..d.end).all(|r| a[r as usize] == s0));
            }
        }
    }

    // The adaptive flowlet boundary decision is a pure function of its
    // three inputs — (local queue-depth snapshot, flow id, flowlet
    // counter) — and nothing else: deterministic across calls, always
    // an index of minimum depth, never a dead (`u32::MAX`-scored)
    // candidate, and `None` exactly when no live candidate exists.
    // This is the property that makes adaptivity shard- and
    // thread-count invariant: no clocks, no RNG state, no global load.
    #[test]
    fn adaptive_boundary_decision_is_a_pure_minimum_pick(
        raw in prop::collection::vec(0u32..10, 0..12),
        flow in 0u32..1_000_000,
        ctr in 0u32..64,
    ) {
        // Draws of 8..10 model dead candidates (down ports / empty
        // rows), which the snapshot scores `u32::MAX`.
        let depths: Vec<u32> = raw
            .into_iter()
            .map(|d| if d >= 8 { u32::MAX } else { d })
            .collect();
        let pick = fatpaths_sim::least_loaded(&depths, flow, ctr);
        prop_assert_eq!(pick, fatpaths_sim::least_loaded(&depths, flow, ctr));
        let min = depths.iter().copied().min();
        match pick {
            Some(i) => {
                prop_assert!(i < depths.len());
                prop_assert!(depths[i] != u32::MAX);
                prop_assert_eq!(Some(depths[i]), min);
            }
            None => prop_assert!(min.is_none() || min == Some(u32::MAX)),
        }
    }

    // End-to-end sharded parity over randomized workloads: arbitrary
    // flow sets (sizes, starts, pairs) on the layered scheme stay
    // byte-identical between one and three shards.
    #[test]
    fn random_workloads_are_shard_count_invariant(
        picks in prop::collection::vec((0u32..50, 0u32..50, 1u64..200_000, 0u64..4), 1..12),
    ) {
        let topo = fatpaths_net::topo::slimfly::slim_fly(5, 1).unwrap();
        let n = topo.num_endpoints() as u32;
        let flows: Vec<FlowSpec> = picks
            .iter()
            .map(|&(s, d, size, start)| FlowSpec {
                src: s % n,
                dst: d % n,
                size,
                start: start * 1_000_000,
            })
            .filter(|f| f.src != f.dst)
            .collect();
        prop_assume!(!flows.is_empty());
        let run = |k: u32| {
            Scenario::on(&topo)
                .scheme(SchemeSpec::LayeredRandom { n_layers: 3, rho: 0.7 })
                .workload(&flows)
                .seed(2)
                .shards(k)
                .run()
        };
        prop_assert_eq!(fingerprint(&run(1)), fingerprint(&run(3)));
    }
}

/// All-to-all permutation (`e → e + n/2 mod n`) of 16 KiB NDP flows on
/// `fat_tree(k, 2)`, run through the raw simulator API so the spec
/// vector can be dropped before the run (the simulator owns its own
/// flow state; keeping a redundant multi-MB spec copy alive would
/// land in the measured high-water mark).
fn permutation_run(k: u32, shards: u32) -> fatpaths_sim::SimResult {
    let topo = fatpaths_net::topo::fattree::fat_tree(k, 2);
    let n = topo.num_endpoints() as u64;
    let flows: Vec<FlowSpec> = (0..n)
        .map(|e| FlowSpec {
            src: e as u32,
            dst: ((e + n / 2) % n) as u32,
            size: 16 * 1024,
            start: 0,
        })
        .filter(|f| f.src != f.dst)
        .collect();
    let dm = fatpaths_core::ecmp::DistanceMatrix::build(&topo.graph);
    let scheme = fatpaths_core::scheme::MinimalScheme::new(&topo.graph, &dm);
    let cfg = fatpaths_sim::SimConfig {
        lb: LoadBalancing::PacketSpray,
        ..Default::default()
    }
    .shards(shards);
    let mut sim = fatpaths_sim::Simulator::new(&topo, &scheme, cfg);
    sim.add_flows(&flows);
    drop(flows);
    sim.run()
}

/// Scale acceptance: a full FT3 at ≥100k endpoints completes on the
/// sharded engine within a fixed memory budget. `fat_tree(62, 2)` is
/// 4805 routers / 119,164 endpoints; minimal routing + packet spray
/// keeps scheme construction tractable while every packet still
/// crosses the sharded fabric. The peak-RSS ceiling is half the
/// pre-optimization figure for this exact run (221,760 kB) — the gate
/// that keeps the allocation-lean hot loop lean.
///
/// Gated, not `#[ignore]`d: runs when `FATPATHS_SCALE=1` (set by the
/// CI scale-smoke step; the run takes minutes in release and must be
/// the only test in the process for a clean high-water mark):
/// `FATPATHS_SCALE=1 cargo test --release -p fatpaths-sim --test
/// shard_parity --  --exact hundred_k_endpoint_fat_tree_completes_within_rss_budget`.
#[test]
fn hundred_k_endpoint_fat_tree_completes_within_rss_budget() {
    if std::env::var_os("FATPATHS_SCALE").is_none() {
        eprintln!("skipped: set FATPATHS_SCALE=1 to run the 119k-endpoint sweep");
        return;
    }
    rayon::ensure_pool(4);
    let res = permutation_run(62, 8);
    assert_eq!(res.completion_rate(), 1.0);
    const RSS_BUDGET_KB: u64 = 110_880; // 221,760 kB baseline / 2
    assert!(
        res.profile.peak_rss_kb <= RSS_BUDGET_KB,
        "peak RSS {} kB exceeds the {} kB budget",
        res.profile.peak_rss_kb,
        RSS_BUDGET_KB
    );
}

/// Million-endpoint acceptance: `fat_tree(126, 2)` is 19,845 routers /
/// 1,000,188 endpoints. Completion is the only criterion — the run
/// takes tens of minutes in release.
/// Run manually: `cargo test --release -- --ignored million`.
#[test]
#[ignore = "million-endpoint run; takes tens of minutes, exercised manually"]
fn million_endpoint_fat_tree_completes() {
    rayon::ensure_pool(4);
    let res = permutation_run(126, 8);
    assert_eq!(res.completion_rate(), 1.0);
}
