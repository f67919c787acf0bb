//! Parallel-vs-single-thread parity: the flagship guarantee of the
//! execution layer. Extends PR 1's dispatch-parity suite (which pinned
//! bit-identical results across static/dyn/enum dispatch) to the new
//! axis — *thread count*. Every stage that fans out on the pool must
//! produce byte-identical artifacts whether it runs on the 4-thread pool
//! pinned here or inline on one thread via `rayon::run_sequential`.
//!
//! The headline test runs the full `baselines` matrix (all eight schemes
//! on SF, DF, and FT3) both ways and compares the CSV and the summary
//! byte for byte.

use fatpaths_core::ecmp::DistanceMatrix;
use fatpaths_core::fwd::{PortTables, RoutingTables};
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_core::scheme::{KspConfig, RoutingScheme};
use fatpaths_diversity::apsp::shortest_path_stats;
use fatpaths_experiments::adaptive::adaptive_matrix_on;
use fatpaths_experiments::baselines::baselines_matrix_on;
use fatpaths_experiments::churn::churn_matrix_on;
use fatpaths_experiments::memory::memory_matrix_on;
use fatpaths_experiments::resilience::resilience_matrix_on;
use fatpaths_experiments::te::te_matrix_on;
use fatpaths_net::topo::slimfly::slim_fly;
use fatpaths_net::topo::Topology;

/// Pin the process-global pool wide enough that the "parallel" side of
/// every comparison really crosses threads, even on a 1-core runner.
fn wide_pool() {
    rayon::ensure_pool(4);
}

/// Miniature instances of the three `baselines` topologies — the same
/// families as the real experiment (SF/DF/FT3), small enough that the
/// 24-cell matrix runs twice within a debug test budget. Parity does
/// not depend on instance size or on the statistics being meaningful.
fn mini_topos() -> Vec<Topology> {
    vec![
        slim_fly(5, 2).unwrap(),
        fatpaths_net::topo::dragonfly::dragonfly(3),
        fatpaths_net::topo::fattree::fat_tree(4, 1),
    ]
}

/// The `baselines` experiment — the full (topology × scheme) grid on
/// SF/DF/FT3 — emits byte-identical CSV and summary text on the pool
/// and on a single thread.
#[test]
fn baselines_matrix_is_bit_identical_across_thread_counts() {
    wide_pool();
    let window = 0.002;
    let (csv_par, summary_par) = baselines_matrix_on(mini_topos(), window);
    let (csv_seq, summary_seq) =
        rayon::run_sequential(|| baselines_matrix_on(mini_topos(), window));
    assert!(
        csv_par == csv_seq,
        "baselines CSV differs between pooled and single-threaded runs"
    );
    assert!(
        summary_par == summary_seq,
        "baselines summary differs between pooled and single-threaded runs"
    );
    // Sanity: the artifact is the real matrix, not an empty stub.
    assert_eq!(
        csv_par.lines().count(),
        1 + 3 * 8,
        "3 topologies × 8 schemes"
    );
}

/// The `resilience` experiment — fault sampling, degraded-network
/// simulation, and route repair across the (topology × scheme ×
/// fraction × detection) grid — emits byte-identical CSV and summary
/// on the pool and on a single thread. Fault sets are seeded from cell
/// coordinates via `cell_seed`, so this holds by construction; the test
/// pins it.
#[test]
fn resilience_matrix_is_bit_identical_across_thread_counts() {
    wide_pool();
    let topos = || {
        vec![
            slim_fly(5, 2).unwrap(),
            fatpaths_net::topo::fattree::fat_tree(4, 1),
        ]
    };
    let fractions = [0.0, 0.05];
    let (csv_par, summary_par) = resilience_matrix_on(topos(), &fractions);
    let (csv_seq, summary_seq) =
        rayon::run_sequential(|| resilience_matrix_on(topos(), &fractions));
    assert!(
        csv_par == csv_seq,
        "resilience CSV differs between pooled and single-threaded runs"
    );
    assert!(
        summary_par == summary_seq,
        "resilience summary differs between pooled and single-threaded runs"
    );
    // Sanity: 2 topologies × 4 schemes × 2 fractions × 2 detection modes.
    assert_eq!(csv_par.lines().count(), 1 + 2 * 4 * 2 * 2);
}

/// The `churn` experiment — rolling-reboot schedules, timed
/// router-down/up events, host-dead workload filtering, and batched
/// route repair across the (topology × scheme × fraction × stagger)
/// grid — emits byte-identical CSV and summary on the pool and on a
/// single thread. Reboot schedules are seeded from cell coordinates
/// via `cell_seed`, so this holds by construction; the test pins it.
#[test]
fn churn_matrix_is_bit_identical_across_thread_counts() {
    wide_pool();
    let topos = || {
        vec![
            slim_fly(5, 2).unwrap(),
            fatpaths_net::topo::fattree::fat_tree(4, 1),
        ]
    };
    let (fractions, staggers) = ([0.1], [500u64]);
    let (csv_par, summary_par) = churn_matrix_on(topos(), &fractions, &staggers);
    let (csv_seq, summary_seq) =
        rayon::run_sequential(|| churn_matrix_on(topos(), &fractions, &staggers));
    assert!(
        csv_par == csv_seq,
        "churn CSV differs between pooled and single-threaded runs"
    );
    assert!(
        summary_par == summary_seq,
        "churn summary differs between pooled and single-threaded runs"
    );
    // Sanity: 2 topologies × 4 schemes × 1 fraction × 1 stagger × 2 samplers.
    assert_eq!(csv_par.lines().count(), 1 + 2 * 4 * 2);
}

/// The `memory` experiment — FIB compilation (parallel per-switch row
/// builds) and table statistics across the (topology × scheme × layer
/// count × compile mode) grid — emits byte-identical CSV and summary
/// on the pool and on a single thread. Compilation is a pure function
/// of the cell coordinates, so this holds by construction; the test
/// pins it (the acceptance criterion of the FIB subsystem).
#[test]
fn memory_matrix_is_bit_identical_across_thread_counts() {
    wide_pool();
    let topos = || {
        vec![
            slim_fly(5, 2).unwrap(),
            fatpaths_net::topo::fattree::fat_tree(4, 1),
        ]
    };
    let layer_counts = [3usize];
    let (csv_par, summary_par) = memory_matrix_on(topos(), &layer_counts);
    let (csv_seq, summary_seq) = rayon::run_sequential(|| memory_matrix_on(topos(), &layer_counts));
    assert!(
        csv_par == csv_seq,
        "memory CSV differs between pooled and single-threaded runs"
    );
    assert!(
        summary_par == summary_seq,
        "memory summary differs between pooled and single-threaded runs"
    );
    // Sanity: 2 topologies × 2 schemes (layered@3 + ecmp) × 2 modes.
    assert_eq!(csv_par.lines().count(), 1 + 2 * 2 * 2);
}

/// The `te` experiment — PathFinder-style congestion negotiation
/// (parallel per-(layer, destination) tree rebuilds each pricing
/// iteration), matrix scoring, and the analytic throughput bound across
/// the (topology × matrix × scheme) grid — emits byte-identical CSV and
/// summary on the pool and on a single thread. Negotiation accumulates
/// loads sequentially in demand order and rebuilds trees as pure
/// functions of the iteration's price vector, so this holds by
/// construction; the test pins it.
#[test]
fn te_matrix_is_bit_identical_across_thread_counts() {
    wide_pool();
    let topos = || {
        vec![
            slim_fly(5, 2).unwrap(),
            fatpaths_net::topo::fattree::fat_tree(4, 1),
        ]
    };
    let (csv_par, summary_par) = te_matrix_on(topos(), 4, 0.6);
    let (csv_seq, summary_seq) = rayon::run_sequential(|| te_matrix_on(topos(), 4, 0.6));
    assert!(
        csv_par == csv_seq,
        "te CSV differs between pooled and single-threaded runs"
    );
    assert!(
        summary_par == summary_seq,
        "te summary differs between pooled and single-threaded runs"
    );
    // Sanity: 2 topologies × 2 matrices × 3 schemes.
    assert_eq!(csv_par.lines().count(), 1 + 2 * 2 * 3);
}

/// The `adaptive` experiment — queue-depth flowlet steering scored
/// against oblivious hashing across the (topology × matrix × routing ×
/// boundary) grid — emits byte-identical CSV and summary on the pool
/// and on a single thread. The boundary decision is a pure function of
/// shard-local queue snapshots taken at canonical event times, so this
/// holds by construction; the test pins it (the acceptance criterion of
/// the adaptive subsystem, alongside `shard_parity`'s shard-count leg).
#[test]
fn adaptive_matrix_is_bit_identical_across_thread_counts() {
    wide_pool();
    let topos = || {
        vec![
            slim_fly(5, 2).unwrap(),
            fatpaths_net::topo::fattree::fat_tree(4, 1),
        ]
    };
    let (csv_par, summary_par) = adaptive_matrix_on(topos(), 4, 0.6);
    let (csv_seq, summary_seq) = rayon::run_sequential(|| adaptive_matrix_on(topos(), 4, 0.6));
    assert!(
        csv_par == csv_seq,
        "adaptive CSV differs between pooled and single-threaded runs"
    );
    assert!(
        summary_par == summary_seq,
        "adaptive summary differs between pooled and single-threaded runs"
    );
    // Sanity: 2 topologies × 3 matrices × 2 routings × 2 boundaries.
    assert_eq!(csv_par.lines().count(), 1 + 2 * 3 * 2 * 2);
}

/// APSP statistics (parallel BFS fan-out per source) are identical in
/// every field, including the f64 average, across execution modes.
#[test]
fn apsp_stats_parity() {
    wide_pool();
    let t = slim_fly(7, 1).unwrap();
    let par = shortest_path_stats(&t.graph);
    let seq = rayon::run_sequential(|| shortest_path_stats(&t.graph));
    assert_eq!(par, seq);
    assert_eq!(par.avg_path_length.to_bits(), seq.avg_path_length.to_bits());
}

/// Routing-table construction (layers in parallel, each a pass over its
/// destination bands) yields identical tables, and every port steps one
/// hop down the layer's own BFS distances.
#[test]
fn routing_table_build_parity() {
    wide_pool();
    let t = slim_fly(7, 1).unwrap();
    let ls = build_random_layers(&t.graph, &LayerConfig::new(6, 0.6, 9));
    let par = RoutingTables::build(&t.graph, &ls);
    let seq = rayon::run_sequential(|| RoutingTables::build(&t.graph, &ls));
    assert_eq!(par.n_layers(), seq.n_layers());
    for layer in 0..par.n_layers() {
        let lg = ls.layer(layer);
        for d in (0..t.num_routers() as u32).step_by(7) {
            let dist = lg.bfs(d);
            for s in 0..t.num_routers() as u32 {
                let port = par.ports().get(layer, s, d);
                assert_eq!(port, seq.ports().get(layer, s, d));
                if let Some(p) = port {
                    let next = t.graph.neighbor_at(s, p as u32);
                    assert_eq!(dist[next as usize] + 1, dist[s as usize]);
                }
            }
        }
    }
}

/// Distance-matrix and KSP scheme construction (parallel BFS rows /
/// parallel Yen runs) agree with their single-threaded selves.
#[test]
fn scheme_construction_parity() {
    wide_pool();
    let t = slim_fly(5, 1).unwrap();
    let dm_par = DistanceMatrix::build(&t.graph);
    let dm_seq = rayon::run_sequential(|| DistanceMatrix::build(&t.graph));
    for s in 0..t.num_routers() as u32 {
        for d in 0..t.num_routers() as u32 {
            assert_eq!(dm_par.get(s, d), dm_seq.get(s, d));
        }
    }
    let cfg = KspConfig {
        k: 3,
        max_pairs: 400,
    };
    let ksp_par = PortTables::ksp(&t.graph, &cfg);
    let ksp_seq = rayon::run_sequential(|| PortTables::ksp(&t.graph, &cfg));
    for layer in 0..ksp_par.num_layers() as u8 {
        for s in (0..t.num_routers() as u32).step_by(3) {
            for d in (1..t.num_routers() as u32).step_by(5) {
                let a = ksp_par.candidate_ports(layer, s, d);
                let b = ksp_seq.candidate_ports(layer, s, d);
                assert_eq!(a.as_slice(), b.as_slice(), "layer {layer} {s}->{d}");
            }
        }
    }
}

/// The `trace` experiment's telemetry artifacts — the NDJSON trace and
/// the per-interval time-series CSV — are byte-identical on the pool
/// and on a single thread. This is the export-layer face of the
/// telemetry determinism contract: shard-local collection plus a
/// canonical-order merge means thread scheduling can never leak into a
/// trace a user diffs or archives from CI.
#[test]
fn telemetry_trace_artifacts_are_bit_identical_across_thread_counts() {
    use fatpaths_sim::{Scenario, SchemeSpec, TelemetryConfig};
    use fatpaths_workloads::arrivals::FlowSpec;
    wide_pool();
    let topo = slim_fly(5, 2).unwrap();
    let n = topo.num_endpoints() as u64;
    let flows: Vec<FlowSpec> = (0..n)
        .map(|e| FlowSpec {
            src: e as u32,
            dst: ((e + 21) % n) as u32,
            size: 64 * 1024,
            start: 0,
        })
        .filter(|fl| fl.src != fl.dst)
        .collect();
    let run = || {
        Scenario::on(&topo)
            .scheme(SchemeSpec::LayeredRandom {
                n_layers: 4,
                rho: 0.6,
            })
            .workload(&flows)
            .seed(7)
            .shards(4)
            .telemetry(TelemetryConfig {
                span_every: 1,
                seed: 7,
                ..TelemetryConfig::on()
            })
            .run_traced()
            .1
    };
    let tr_par = run();
    let tr_seq = rayon::run_sequential(run);
    assert!(
        tr_par.to_ndjson() == tr_seq.to_ndjson(),
        "trace NDJSON differs between pooled and single-threaded runs"
    );
    assert!(
        tr_par.to_timeseries_csv() == tr_seq.to_timeseries_csv(),
        "trace time-series CSV differs between pooled and single-threaded runs"
    );
    // Sanity: the artifact carries real samples and spans.
    assert!(tr_par.total_wire_bytes() > 0);
    assert!(!tr_par.spans.is_empty());
}
