//! Parallel-execution trajectory benchmark: times the pool-bound
//! pipeline stages — APSP, layered routing-table construction, a
//! single sharded packet simulation (with and without telemetry), a
//! scenario-grid sweep, the degraded/churn fault sweeps, and the
//! adaptive-flowlet sweep — at
//! 1, 2, and N threads, and writes the results to
//! `BENCH_parallel.json` so future PRs have a perf baseline to
//! compare against.
//!
//! The pool size is fixed at process start, so the harness re-executes
//! itself once per (stage, threads) cell with `FATPATHS_THREADS` set,
//! parses the child's wall-clock, and assembles the JSON:
//!
//! ```text
//! parallel_bench                 # writes BENCH_parallel.json (cwd)
//! parallel_bench --quick         # CI mode: 1- and 2-thread cells only
//! parallel_bench --stage apsp    # child mode: prints seconds to stdout
//! parallel_bench --profile       # execution-layer profile of the
//!                                # 119k-endpoint scale scenario, JSON
//! ```
//!
//! `--quick` keeps each stage's workload identical to the full run (so
//! its numbers compare against the committed baseline on matching
//! (stage, threads) keys — see `bench_check`) and only trims the
//! thread-count axis.

use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_diversity::apsp::shortest_path_stats;
use fatpaths_net::fault::{FaultModel, FaultPlan};
use fatpaths_net::topo::slimfly::slim_fly;
use fatpaths_sim::{cell_seed, LoadBalancing, Scenario, SchemeSpec, SweepRunner};
use fatpaths_workloads::arrivals::FlowSpec;
use std::fmt::Write as _;
use std::time::Instant;

/// Stages measured, in report order.
const STAGES: [&str; 11] = [
    "apsp",
    "layer_build",
    "fib_compile",
    "te_negotiate",
    "sim_run",
    "sim_scale",
    "telemetry_overhead",
    "sweep",
    "degraded_sweep",
    "churn_sweep",
    "adaptive_sweep",
];

/// The endpoint-scale scenario shared by the `sim_scale` stage and
/// `--profile`: an all-to-all permutation (`e → e + n/2`) of 16 KiB NDP
/// flows on `fat_tree(62, 2)` — 4805 routers / 119,164 endpoints —
/// under minimal routing + packet spray. The same configuration as the
/// `FATPATHS_SCALE=1` acceptance test, so a wall-clock or memory
/// regression here is a regression of the scale story itself.
fn scale_run(shards: u32) -> fatpaths_sim::SimResult {
    let t = fatpaths_net::topo::fattree::fat_tree(62, 2);
    let n = t.num_endpoints() as u64;
    let flows: Vec<FlowSpec> = (0..n)
        .map(|e| FlowSpec {
            src: e as u32,
            dst: ((e + n / 2) % n) as u32,
            size: 16 * 1024,
            start: 0,
        })
        .filter(|f| f.src != f.dst)
        .collect();
    let r = Scenario::on(&t)
        .scheme(SchemeSpec::Minimal)
        .lb(LoadBalancing::PacketSpray)
        .workload(&flows)
        .shards(shards)
        .run();
    assert!(r.completion_rate() == 1.0);
    r
}

/// Runs one stage and returns its wall-clock seconds.
fn run_stage(stage: &str) -> f64 {
    match stage {
        "apsp" => {
            // §IV-B1 statistics on a Large-class Slim Fly (~80k
            // endpoints): one BFS per source, fanned out on the pool.
            let t = fatpaths_net::classes::build(
                fatpaths_net::topo::TopoKind::SlimFly,
                fatpaths_net::classes::SizeClass::Large,
                1,
            );
            let start = Instant::now();
            let stats = shortest_path_stats(&t.graph);
            assert_eq!(stats.diameter, 2);
            start.elapsed().as_secs_f64()
        }
        "layer_build" => {
            // The paper's headline configuration on a Medium-class Slim
            // Fly: 9 random layers + full per-(layer, destination) tables.
            let t = fatpaths_net::classes::build(
                fatpaths_net::topo::TopoKind::SlimFly,
                fatpaths_net::classes::SizeClass::Medium,
                1,
            );
            let ls = build_random_layers(&t.graph, &LayerConfig::new(9, 0.6, 7));
            let start = Instant::now();
            let rt = RoutingTables::build(&t.graph, &ls);
            assert_eq!(rt.n_layers(), 9);
            start.elapsed().as_secs_f64()
        }
        "fib_compile" => {
            // The FIB compiler on the paper's headline configuration
            // (9 layers, ρ = 0.6) over a Medium-class Slim Fly: per-
            // switch rule rows compile in parallel on the pool, in both
            // host-route and aggregated modes (~9.4M candidate-port
            // enumerations total).
            use fatpaths_fib::{compile, CompileMode};
            let t = fatpaths_net::classes::build(
                fatpaths_net::topo::TopoKind::SlimFly,
                fatpaths_net::classes::SizeClass::Medium,
                1,
            );
            let ls = build_random_layers(&t.graph, &LayerConfig::new(9, 0.6, 7));
            let rt = RoutingTables::build(&t.graph, &ls);
            let start = Instant::now();
            let host = compile(&t, &rt, CompileMode::HostRoutes);
            let agg = compile(&t, &rt, CompileMode::Aggregated);
            let (hs, ags) = (host.stats(), agg.stats());
            assert_eq!(hs.raw_entries, ags.raw_entries);
            assert!(ags.entries_total <= hs.entries_total);
            start.elapsed().as_secs_f64()
        }
        "te_negotiate" => {
            // Congestion negotiation on a Small-class Slim Fly under the
            // worst-case matrix: per-iteration tree rebuilds fan out over
            // (layer, destination) on the pool; load measurement and
            // pricing stay sequential by design.
            use fatpaths_te::{endpoint_demands, TeConfig, TeScheme};
            use fatpaths_workloads::matrices::{matrix_flows, MatrixSpec};
            let t = fatpaths_net::classes::build(
                fatpaths_net::topo::TopoKind::SlimFly,
                fatpaths_net::classes::SizeClass::Small,
                1,
            );
            let ls = build_random_layers(&t.graph, &LayerConfig::new(9, 0.6, 7));
            let rt = RoutingTables::build(&t.graph, &ls);
            let flows = matrix_flows(&t, &MatrixSpec::WorstCase { intensity: 0.7 }, 3);
            let demands = endpoint_demands(&t, &flows);
            let cfg = TeConfig {
                max_iterations: 12,
                ..TeConfig::default()
            };
            let start = Instant::now();
            let te = TeScheme::negotiate(&t.graph, &rt, &demands, &cfg);
            assert!(te.peak().is_finite() && te.iterations() >= 1);
            start.elapsed().as_secs_f64()
        }
        "sim_run" => {
            // Single-scenario latency (not sweep throughput): one
            // Medium-class fat tree (~11k endpoints), NDP + FatPaths
            // layers, permutation traffic — the sharded event loop is
            // the only parallelism, so the thread axis doubles as the
            // shard axis (1 shard at 1 thread, 2 at 2, …).
            let shards: u32 = std::env::var("FATPATHS_THREADS")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(1);
            let t = fatpaths_net::topo::fattree::fat_tree(28, 2);
            let n = t.num_endpoints() as u64;
            let flows: Vec<FlowSpec> = (0..n)
                .map(|e| FlowSpec {
                    src: e as u32,
                    dst: ((e + 37) % n) as u32,
                    size: 64 * 1024,
                    start: 0,
                })
                .filter(|f| t.endpoint_router(f.src) != t.endpoint_router(f.dst))
                .collect();
            let start = Instant::now();
            let r = Scenario::on(&t)
                .scheme(SchemeSpec::LayeredRandom {
                    n_layers: 9,
                    rho: 0.6,
                })
                .workload(&flows)
                .seed(2)
                .shards(shards)
                .run();
            assert!(r.completion_rate() == 1.0);
            start.elapsed().as_secs_f64()
        }
        "sim_scale" => {
            // Endpoint-scale latency: the 119k-endpoint permutation from
            // `scale_run`, with the thread axis doubling as the shard
            // axis (as in `sim_run`). Guards the hot loop's allocation
            // discipline — wall-clock here moves when per-packet work or
            // arena churn regresses at scale.
            let shards: u32 = std::env::var("FATPATHS_THREADS")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(1);
            let start = Instant::now();
            scale_run(shards);
            start.elapsed().as_secs_f64()
        }
        "telemetry_overhead" => {
            // The `sim_run` workload with full telemetry on (interval
            // probes + span sampling of every flow). Priced against the
            // `sim_run` baseline this stage bounds the *enabled* cost;
            // the *disabled* cost is bounded by `sim_run` itself staying
            // flat, since its hot loop sees telemetry only as one
            // `Option` check per wire start.
            use fatpaths_sim::TelemetryConfig;
            let shards: u32 = std::env::var("FATPATHS_THREADS")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(1);
            let t = fatpaths_net::topo::fattree::fat_tree(28, 2);
            let n = t.num_endpoints() as u64;
            let flows: Vec<FlowSpec> = (0..n)
                .map(|e| FlowSpec {
                    src: e as u32,
                    dst: ((e + 37) % n) as u32,
                    size: 64 * 1024,
                    start: 0,
                })
                .filter(|f| t.endpoint_router(f.src) != t.endpoint_router(f.dst))
                .collect();
            let start = Instant::now();
            let (r, trace) = Scenario::on(&t)
                .scheme(SchemeSpec::LayeredRandom {
                    n_layers: 9,
                    rho: 0.6,
                })
                .workload(&flows)
                .seed(2)
                .shards(shards)
                .telemetry(TelemetryConfig {
                    span_every: 1,
                    seed: 2,
                    ..TelemetryConfig::on()
                })
                .run_traced();
            assert!(r.completion_rate() == 1.0);
            assert!(trace.total_wire_bytes() > 0);
            start.elapsed().as_secs_f64()
        }
        "sweep" => {
            // A miniature baselines-style grid: 4 schemes × 4 permutation
            // offsets, each cell a scheme build + packet simulation.
            let t = slim_fly(5, 2).unwrap();
            let n = t.num_endpoints() as u64;
            let specs = [
                SchemeSpec::LayeredRandom {
                    n_layers: 4,
                    rho: 0.6,
                },
                SchemeSpec::Minimal,
                SchemeSpec::Ksp { k: 3 },
                SchemeSpec::Valiant { n_layers: 4 },
            ];
            let mut cells = Vec::new();
            for si in 0..specs.len() {
                for offset in [21u64, 33, 47, 61] {
                    cells.push((si, offset));
                }
            }
            let start = Instant::now();
            let results = SweepRunner::new("bench-sweep", cells).run(|_, &(si, offset)| {
                let flows: Vec<FlowSpec> = (0..n)
                    .map(|e| FlowSpec {
                        src: e as u32,
                        dst: ((e + offset) % n) as u32,
                        size: 192 * 1024,
                        start: 0,
                    })
                    .filter(|f| t.endpoint_router(f.src) != t.endpoint_router(f.dst))
                    .collect();
                Scenario::on(&t)
                    .scheme(specs[si])
                    .workload(&flows)
                    .seed(2)
                    .run()
                    .completion_rate()
            });
            assert!(results.iter().all(|&r| r == 1.0));
            start.elapsed().as_secs_f64()
        }
        "degraded_sweep" => {
            // Resilience-style cells: packet runs on a degraded Slim Fly
            // (per-port down-bitmask on the hot path, detection-triggered
            // route repair mid-run) across schemes × failure fractions.
            let t = slim_fly(5, 2).unwrap();
            let n = t.num_endpoints() as u64;
            let specs = [
                SchemeSpec::LayeredRandom {
                    n_layers: 9,
                    rho: 0.6,
                },
                SchemeSpec::Minimal,
            ];
            let mut cells = Vec::new();
            for si in 0..specs.len() {
                for frac_pct in [5u64, 10] {
                    for offset in [21u64, 47] {
                        cells.push((si, frac_pct, offset));
                    }
                }
            }
            let start = Instant::now();
            let results =
                SweepRunner::new("bench-degraded", cells).run(|_, &(si, frac_pct, offset)| {
                    let flows: Vec<FlowSpec> = (0..n)
                        .map(|e| FlowSpec {
                            src: e as u32,
                            dst: ((e + offset) % n) as u32,
                            size: 128 * 1024,
                            start: 0,
                        })
                        .filter(|f| t.endpoint_router(f.src) != t.endpoint_router(f.dst))
                        .collect();
                    let plan = FaultPlan::sample(
                        &t,
                        &FaultModel::UniformFraction {
                            fraction: frac_pct as f64 / 100.0,
                        },
                        cell_seed("bench-degraded", &[frac_pct]),
                    );
                    Scenario::on(&t)
                        .scheme(specs[si])
                        .workload(&flows)
                        .seed(2)
                        .horizon(30_000_000_000)
                        .fault_plan(plan)
                        .detection_delay(50_000_000)
                        .run()
                        .completion_rate()
                });
            // Repaired routing delivers everything on a still-connected
            // degraded SF (a correctness canary inside the benchmark).
            assert!(results.iter().all(|&r| r > 0.99), "{results:?}");
            start.elapsed().as_secs_f64()
        }
        "churn_sweep" => {
            // Rolling-reboot cells: timed router-down/up events, the
            // host-dead workload filter, and one batched repair pass per
            // event on the detection path — across schemes × staggers.
            let t = slim_fly(5, 2).unwrap();
            let n = t.num_endpoints() as u64;
            let specs = [
                SchemeSpec::LayeredRandom {
                    n_layers: 9,
                    rho: 0.6,
                },
                SchemeSpec::Minimal,
            ];
            let mut cells = Vec::new();
            for si in 0..specs.len() {
                for stagger_us in [500u64, 2_000] {
                    for offset in [21u64, 47] {
                        cells.push((si, stagger_us, offset));
                    }
                }
            }
            let start = Instant::now();
            let results =
                SweepRunner::new("bench-churn", cells).run(|_, &(si, stagger_us, offset)| {
                    let flows: Vec<FlowSpec> = (0..n)
                        .map(|e| FlowSpec {
                            src: e as u32,
                            dst: ((e + offset) % n) as u32,
                            size: 64 * 1024,
                            start: 0,
                        })
                        .filter(|f| t.endpoint_router(f.src) != t.endpoint_router(f.dst))
                        .collect();
                    let plan = FaultPlan::rolling_reboot(
                        &t,
                        0.1,
                        1_000_000_000,
                        stagger_us * 1_000_000,
                        3_000_000_000,
                        cell_seed("bench-churn", &[stagger_us]),
                    );
                    Scenario::on(&t)
                        .scheme(specs[si])
                        .workload(&flows)
                        .seed(2)
                        .horizon(30_000_000_000)
                        .fault_plan(plan)
                        .detection_delay(50_000_000)
                        .run()
                        .completion_rate()
                });
            // Eligible flows all complete once the roll ends within the
            // horizon (a correctness canary inside the benchmark).
            assert!(results.iter().all(|&r| r > 0.99), "{results:?}");
            start.elapsed().as_secs_f64()
        }
        "adaptive_sweep" => {
            // Adaptive-flowlet cells: every flowlet boundary snapshots
            // the sender's attachment-router queue depths and runs the
            // least-loaded pick, so this stage prices the adaptive hot
            // path against the oblivious hash on the same adversarial
            // matrices the `adaptive` experiment scores.
            use fatpaths_sim::AdaptiveMode;
            use fatpaths_workloads::matrices::{matrix_flows, MatrixSpec};
            let t = slim_fly(5, 2).unwrap();
            let specs = [
                MatrixSpec::HeavyHitter {
                    hotspots: 2,
                    skew: 0.5,
                },
                MatrixSpec::Incast {
                    targets: 4,
                    fan_in: 8,
                },
            ];
            let mut cells = Vec::new();
            for mi in 0..specs.len() {
                for adaptive in [false, true] {
                    for seed in [3u64, 9] {
                        cells.push((mi, adaptive, seed));
                    }
                }
            }
            let start = Instant::now();
            let results =
                SweepRunner::new("bench-adaptive", cells).run(|_, &(mi, adaptive, seed)| {
                    let flows: Vec<FlowSpec> = matrix_flows(&t, &specs[mi], seed)
                        .into_iter()
                        .map(|(src, dst)| FlowSpec {
                            src,
                            dst,
                            size: 256 * 1024,
                            start: 0,
                        })
                        .collect();
                    let mut sc = Scenario::on(&t)
                        .scheme(SchemeSpec::LayeredRandom {
                            n_layers: 9,
                            rho: 0.6,
                        })
                        .workload(&flows)
                        .seed(2)
                        .horizon(30_000_000_000);
                    if adaptive {
                        sc = sc.adaptive(AdaptiveMode::QueueDepth);
                    }
                    sc.run().completion_rate()
                });
            // Skewed SF cells all drain within the horizon whether the
            // boundary steers or hashes (a correctness canary inside
            // the benchmark).
            assert!(results.iter().all(|&r| r > 0.99), "{results:?}");
            start.elapsed().as_secs_f64()
        }
        other => panic!("unknown stage '{other}'"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--stage") {
        let stage = args.get(pos + 1).expect("--stage needs a name");
        println!("{:.6}", run_stage(stage));
        return;
    }
    if args.iter().any(|a| a == "--profile") {
        // Execution-layer profile of the scale scenario: window count,
        // mailbox traffic, fault-epoch publications, traffic events
        // (and wall ns per event), and peak RSS, as
        // JSON on stdout. `FATPATHS_THREADS` picks the shard count.
        let shards: u32 = std::env::var("FATPATHS_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1);
        let start = Instant::now();
        let r = scale_run(shards);
        let secs = start.elapsed().as_secs_f64();
        let p = r.profile;
        let mut json = String::from("{\n");
        let _ = writeln!(json, "  \"scenario\": \"sim_scale\",");
        let _ = writeln!(json, "  \"wall_clock_seconds\": {secs:.6},");
        let _ = writeln!(json, "  \"shards\": {},", p.shards);
        let _ = writeln!(json, "  \"windows\": {},", p.windows);
        let _ = writeln!(json, "  \"mailbox_msgs\": {},", p.mailbox_msgs);
        let _ = writeln!(json, "  \"mailbox_bytes\": {},", p.mailbox_bytes);
        let _ = writeln!(json, "  \"epochs_published\": {},", p.epochs_published);
        let _ = writeln!(json, "  \"repair_ticks\": {},", p.repair_ticks);
        // Wall clock over the whole scenario (scheme build included)
        // per traffic event — an upper bound on the engine's own cost.
        let _ = writeln!(json, "  \"events\": {},", p.events);
        let _ = writeln!(
            json,
            "  \"wall_ns_per_event\": {:.1},",
            secs * 1e9 / p.events.max(1) as f64
        );
        let _ = writeln!(json, "  \"peak_rss_kb\": {}", p.peak_rss_kb);
        json.push_str("}\n");
        print!("{json}");
        return;
    }

    let machine = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let quick = args.iter().any(|a| a == "--quick");
    let mut thread_counts = if quick {
        // CI mode: only the 1- and 2-thread cells, so the run stays
        // cheap and its keys exist in any full baseline. bench_check
        // still compares only when the baseline came from a machine
        // with the same core count (wall-clock across machine classes
        // is noise) — regenerate the baseline on a CI-class machine to
        // arm the gate there.
        vec![1usize, 2]
    } else {
        vec![1usize, 2, machine]
    };
    thread_counts.dedup();
    thread_counts.sort_unstable();
    thread_counts.dedup();

    let exe = std::env::current_exe().expect("current_exe");
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"generated_by\": \"parallel_bench\",");
    let _ = writeln!(json, "  \"machine_threads\": {machine},");
    let _ = writeln!(json, "  \"wall_clock_seconds\": {{");
    // Quick (CI) mode feeds a ±25% regression gate, so damp scheduler
    // jitter by keeping the best of two runs per cell.
    let runs = if quick { 2 } else { 1 };
    for (si, stage) in STAGES.iter().enumerate() {
        let _ = write!(json, "    \"{stage}\": {{");
        for (ti, &threads) in thread_counts.iter().enumerate() {
            let mut secs = f64::INFINITY;
            for _ in 0..runs {
                let out = std::process::Command::new(&exe)
                    .args(["--stage", stage])
                    .env("FATPATHS_THREADS", threads.to_string())
                    .output()
                    .expect("spawn child bench");
                assert!(
                    out.status.success(),
                    "stage {stage} at {threads} threads failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
                let run_secs: f64 = String::from_utf8_lossy(&out.stdout)
                    .trim()
                    .parse()
                    .expect("child printed seconds");
                secs = secs.min(run_secs);
            }
            eprintln!("{stage:<12} threads={threads}: {secs:.3}s");
            let sep = if ti + 1 < thread_counts.len() {
                ", "
            } else {
                ""
            };
            let _ = write!(json, "\"{threads}\": {secs:.6}{sep}");
        }
        let sep = if si + 1 < STAGES.len() { "," } else { "" };
        let _ = writeln!(json, "}}{sep}");
    }
    let _ = writeln!(json, "  }}");
    json.push_str("}\n");

    let path = std::env::var("FATPATHS_BENCH_OUT").unwrap_or_else(|_| "BENCH_parallel.json".into());
    std::fs::write(&path, &json).expect("write BENCH_parallel.json");
    eprintln!("→ {path}");
    print!("{json}");
}
