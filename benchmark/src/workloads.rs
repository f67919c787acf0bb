//! The six benchmark workloads. Each is one function that builds its
//! inputs from the seed, drives the libraries through their public
//! functions only, times the calls from outside, checks the outputs,
//! and — in the per-layer pass — runs the twins the ratio metrics need.
//!
//! Why these six: every one puts a different layer on the critical
//! path and leaves others idle, so an optimisation has a workload that
//! exercises it and one that bypasses it (see [`WORKLOADS`] and
//! `benchmark/README.md`).
//!
//! Every measured stage runs on one thread ([`Probe::time`]); the thread
//! pool is used only by the twins that report what a second thread
//! buys, which inform but do not gate.

use crate::probe::{current_rss_kb, Open, Probe};
use crate::stats::{median, samples_beyond};
use fatpaths_core::ecmp::DistanceMatrix;
use fatpaths_core::fwd::RoutingTables;
use fatpaths_core::layers::{build_random_layers, LayerConfig, LayerSet};
use fatpaths_core::past::PastVariant;
use fatpaths_core::repair::DownLinks;
use fatpaths_diversity::apsp::shortest_path_stats;
use fatpaths_fib::{CompileMode, CompiledScheme, FibStats};
use fatpaths_mcf::throughput_upper_bound;
use fatpaths_net::classes::{self, SizeClass};
use fatpaths_net::fault::{FaultModel, FaultPlan};
use fatpaths_net::topo::fattree::fat_tree;
use fatpaths_net::topo::slimfly::slim_fly;
use fatpaths_net::topo::{TopoKind, Topology};
use fatpaths_sim::{
    cell_seed, BuiltScheme, LoadBalancing, RoutingScheme, Scenario, SchemeSpec, SimConfig,
    SimResult, Simulator, Summary, SweepRunner, TcpVariant, TelemetryConfig, Trace, Transport,
};
use fatpaths_te::{endpoint_demands, RouterDemand, TeConfig, TeScheme};
use fatpaths_workloads::arrivals::{bulk_flows, poisson_flows, FlowSpec};
use fatpaths_workloads::mapping::{apply_mapping, random_mapping};
use fatpaths_workloads::matrices::{matrix_flows, MatrixSpec};
use fatpaths_workloads::patterns::Pattern;
use fatpaths_workloads::sizes::FlowSizeDist;
use std::time::Instant;

const KIB: u64 = 1024;

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    /// One line: which layer does the work here, and which does not.
    pub why: &'static str,
    run: fn(&mut Probe, &Params) -> Rep,
}

impl Workload {
    /// Runs one repetition: set-up, run, output checks.
    pub fn run(&self, probe: &mut Probe, params: &Params) -> Rep {
        (self.run)(probe, params)
    }
}

/// The benchmark's workloads, in report order.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "hpc_ndp_sf",
        why:
            "Paper's headline HPC case on one shard: the packet engine's per-event cost dominates; \
              sharding, faults, TCP, FIB and telemetry are idle",
        run: |p, q| hpc_ndp_sf(p, q, false),
    },
    Workload {
        name: "hpc_ndp_sf_traced",
        why: "Same scenario on two shards with telemetry on and exported: a telemetry or \
              shard-sync change shows here and must not move hpc_ndp_sf",
        run: |p, q| hpc_ndp_sf(p, q, true),
    },
    Workload {
        name: "scale_ft_sharded",
        why: "119k-endpoint fat tree, minimal routing, two shards: bytes per endpoint, per-flow \
              state and mailbox cost dominate; layered tables, TE, FIB and faults are absent",
        run: scale_ft_sharded,
    },
    Workload {
        name: "cloud_tcp_churn",
        why: "DCTCP with Poisson arrivals, compiled FIB and a rolling reboot: tiny windows, fault \
              epochs and repaired-row lookups; a gain for NDP bulk that costs TCP shows here",
        run: cloud_tcp_churn,
    },
    Workload {
        name: "control_plane",
        why:
            "APSP, layer tables, TE, FIB compile and offline repair in set-up, then a short traced \
              run: set-up dominates, so a control-plane gain is visible end to end",
        run: control_plane,
    },
    Workload {
        name: "baselines_sweep",
        why:
            "All eight routing schemes x two matrices as sweep cells, each a scheme build plus a \
              run: what experiments users run, and the only place SPAIN, PAST, KSP, Valiant execute",
        run: baselines_sweep,
    },
];

/// Inputs of one invocation.
pub struct Params {
    /// Seeds the permutation / Poisson / fault-plan / layer draws.
    pub seed: u64,
    /// Toy sizes: checks on, timings meaningless.
    pub smoke: bool,
}

impl Params {
    /// An independent seed stream per purpose, so e.g. the layer draw
    /// and the permutation never share one.
    fn sub(&self, purpose: &str) -> u64 {
        cell_seed(purpose, &[self.seed])
    }
}

/// What one repetition of a workload measured.
pub struct Rep {
    /// Host seconds before the event loop starts.
    pub setup_s: f64,
    /// Host seconds of the run proper (plus summarising and exports).
    pub run_s: f64,
    /// The simulated outcome — identical for identical seeds.
    pub sim: SimSummary,
}

/// Simulated-time results of a repetition: counts pooled over its runs
/// (one, or a sweep's cells), distribution statistics as the median
/// over them.
#[derive(Clone, Debug, PartialEq)]
pub struct SimSummary {
    pub flows: u64,
    /// Flows injected (both hosts alive at start): the attempts.
    pub eligible: u64,
    pub completed: u64,
    pub aborted: u64,
    pub host_dead: u64,
    /// Flows recorded in two terminal states at once (finished and also
    /// host-dead or aborted) — always 0 in a sound result.
    pub contradictory: u64,
    /// Payload bytes of completed flows.
    pub payload_completed: u64,
    /// Median FCT of completed flows; median over the runs.
    pub fct_p50_us: f64,
    /// 99th-percentile FCT; median over the runs. (Pooling a sweep's
    /// flows, or averaging its cells, puts the number at the mercy of
    /// the one cell whose tail sits on the edge of the 2 ms NDP timeout,
    /// where it jumps from seed to seed.)
    pub fct_p99_us: f64,
    /// Completed flows slower than the run's p99; least over the runs.
    pub beyond_p99: usize,
    /// Mean over completed flows of payload x 8 / FCT (the paper's
    /// throughput per flow), in Gbit/s; median over the runs.
    pub goodput_gbps: f64,
    pub trims: u64,
    pub drops: u64,
    pub retx: u64,
    pub unroutable: u64,
    /// Latest simulated finish, in ps.
    pub last_finish_ps: u64,
    /// FNV-1a over every flow record and counter.
    pub digest: u64,
}

impl SimSummary {
    /// Eligible flows that did not complete.
    pub fn failed(&self) -> u64 {
        self.eligible - self.completed
    }

    /// Share of eligible flows that completed.
    pub fn completion_share(&self) -> f64 {
        if self.eligible == 0 {
            1.0
        } else {
            self.completed as f64 / self.eligible as f64
        }
    }
}

fn fnv1a(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Summarises the results of a repetition's runs (one, or a sweep's
/// cells in grid order) into a [`SimSummary`].
pub fn summarise<'a>(results: impl IntoIterator<Item = &'a SimResult>) -> SimSummary {
    let mut s = SimSummary {
        flows: 0,
        eligible: 0,
        completed: 0,
        aborted: 0,
        host_dead: 0,
        contradictory: 0,
        payload_completed: 0,
        fct_p50_us: 0.0,
        fct_p99_us: 0.0,
        beyond_p99: usize::MAX,
        goodput_gbps: 0.0,
        trims: 0,
        drops: 0,
        retx: 0,
        unroutable: 0,
        last_finish_ps: 0,
        digest: 0xcbf2_9ce4_8422_2325,
    };
    let (mut p50s, mut p99s, mut goodputs) = (Vec::new(), Vec::new(), Vec::new());
    let mut fcts_us = Vec::new();
    for r in results {
        fcts_us.clear();
        let mut goodput_sum = 0.0;
        for f in &r.flows {
            s.flows += 1;
            s.eligible += !f.host_dead as u64;
            s.aborted += f.aborted as u64;
            s.host_dead += f.host_dead as u64;
            s.retx += f.retx as u64;
            if let Some(finish) = f.finish {
                s.contradictory += (f.host_dead || f.aborted) as u64;
                s.completed += 1;
                s.payload_completed += f.size;
                s.last_finish_ps = s.last_finish_ps.max(finish);
                let fct_ps = (finish - f.start).max(1) as f64;
                fcts_us.push(fct_ps / 1e6);
                // bytes x 8 bits / (ps x 1e-12 s) / 1e9 = bytes x 8000 / ps.
                goodput_sum += f.size as f64 * 8000.0 / fct_ps;
            }
            for x in [
                f.size,
                f.start,
                f.finish.unwrap_or(u64::MAX),
                f.retx as u64,
                f.trims as u64,
                f.host_dead as u64 | (f.aborted as u64) << 1,
            ] {
                fnv1a(&mut s.digest, x);
            }
        }
        s.trims += r.trims;
        s.drops += r.drops;
        s.unroutable += r.unroutable;
        for x in [r.trims, r.drops, r.unroutable, r.end_time] {
            fnv1a(&mut s.digest, x);
        }
        let fct = Summary::of(&fcts_us);
        p50s.push(fct.p50);
        p99s.push(fct.p99);
        goodputs.push(goodput_sum / fcts_us.len().max(1) as f64);
        s.beyond_p99 = s.beyond_p99.min(samples_beyond(fcts_us.len(), 99.0));
    }
    if p50s.is_empty() {
        s.beyond_p99 = 0;
    } else {
        s.fct_p50_us = median(&p50s);
        s.fct_p99_us = median(&p99s);
        s.goodput_gbps = median(&goodputs);
    }
    s
}

/// One packet simulation, ready to be built and run — and re-run with a
/// different shard count or telemetry setting by the twins.
struct Job<'a> {
    topo: &'a Topology,
    scheme: &'a BuiltScheme<'a>,
    cfg: SimConfig,
    faults: &'a FaultPlan,
    flows: &'a [FlowSpec],
}

impl<'a> Job<'a> {
    /// `Simulator::new` + `apply_fault_plan` + `add_flows`, in a span.
    fn build(&self, p: &mut Probe, span: &'static str) -> Simulator<'a, BuiltScheme<'a>> {
        p.time(span, || {
            let mut sim = Simulator::new(self.topo, self.scheme, self.cfg);
            sim.apply_fault_plan(self.faults);
            sim.add_flows(self.flows);
            sim
        })
    }

    /// The same job at another shard count and telemetry setting.
    fn twin(&self, shards: u32, telemetry: TelemetryConfig) -> Job<'a> {
        Job {
            cfg: SimConfig {
                shards,
                telemetry,
                ..self.cfg
            },
            ..*self
        }
    }
}

/// `Simulator::run_traced` in a span, with the memory peak sampled on
/// both sides (the run resets the kernel's high-water mark). `pooled`
/// lets the shards step on two threads — twins only.
fn run_sim(
    sim: Simulator<'_, BuiltScheme<'_>>,
    p: &mut Probe,
    span: &'static str,
    pooled: bool,
) -> (SimResult, Option<Trace>) {
    p.sample_rss();
    let out = if pooled {
        p.time_pooled(span, || sim.run_traced())
    } else {
        p.time(span, || sim.run_traced())
    };
    p.sample_rss();
    out
}

/// Telemetry as the traced workloads use it: every flow's span sampled.
fn full_telemetry(seed: u64) -> TelemetryConfig {
    TelemetryConfig {
        span_every: 1,
        seed,
        ..TelemetryConfig::on()
    }
}

/// Interval probes only: the cheapest setting that still counts wire
/// bytes exactly.
fn counting_telemetry() -> TelemetryConfig {
    TelemetryConfig {
        span_every: 0,
        ..TelemetryConfig::on()
    }
}

/// Ends the set-up phase: closes its span and returns its seconds.
fn end_setup(p: &mut Probe, wall: Instant, open: Open) -> f64 {
    p.end(open);
    wall.elapsed().as_secs_f64()
}

/// Exports a trace the way a user would (`to_ndjson`, optionally the
/// time-series CSV) and returns the NDJSON text.
fn export_trace(p: &mut Probe, trace: &Trace, csv: bool) -> String {
    let ndjson = p.time("telemetry.ndjson", || trace.to_ndjson());
    if csv {
        let csv = p.time("telemetry.csv", || trace.to_timeseries_csv());
        std::hint::black_box(csv.len());
    }
    p.set("telemetry.ndjson_bytes", ndjson.len() as f64);
    p.set("telemetry.spans", trace.spans.len() as f64);
    p.set("telemetry.intervals", trace.shard_rows.len() as f64);
    ndjson
}

/// Output checks every workload shares, and — where `offered` gives the
/// payload a fault-free run must deliver — that everything completes
/// and the completed payload is exactly the payload offered.
/// `lossless` adds that no packet was dropped.
fn check_outputs(
    p: &mut Probe,
    q: &Params,
    name: &str,
    s: &SimSummary,
    offered: Option<u64>,
    lossless: bool,
) {
    // completed + unfinished (aborted among them) + host-dead = flows,
    // each flow in exactly one of the three.
    p.check(s.contradictory == 0 && s.aborted <= s.failed(), || {
        format!("{name}: flow accounting does not add up: {s:?}")
    });
    p.check(
        s.completed > 0 && s.fct_p50_us > 0.0 && s.goodput_gbps > 0.0,
        || format!("{name}: no completed flows to report on"),
    );
    p.check(q.smoke || s.beyond_p99 >= 10, || {
        format!("{name}: p99 has only {} samples beyond it", s.beyond_p99)
    });
    p.check(!lossless || s.drops == 0, || {
        format!("{name}: {} packets dropped in a fault-free run", s.drops)
    });
    if let Some(offered) = offered {
        p.check(
            s.completed == s.flows && s.payload_completed == offered,
            || {
                format!(
                "{name}: fault-free run completed {} of {} flows, {} of {offered} payload bytes",
                s.completed, s.flows, s.payload_completed
            )
            },
        );
    }
}

fn note_inputs(p: &mut Probe, topo: &Topology, flows: &[FlowSpec]) {
    p.set("net.routers", topo.num_routers() as f64);
    p.set("net.endpoints", topo.num_endpoints() as f64);
    p.set("net.links", topo.graph.m() as f64);
    p.set("workloads.flows", flows.len() as f64);
    p.set(
        "workloads.payload_bytes",
        flows.iter().map(|f| f.size).sum::<u64>() as f64,
    );
}

/// Copies the stage spans a workload may have into the ledger.
fn note_stage_times(p: &mut Probe) {
    for (metric, span) in [
        ("net.build_s", "net.build"),
        ("workloads.gen_s", "workloads.gen"),
        ("diversity.apsp_s", "diversity.apsp"),
        ("core.layers_s", "core.layers"),
        ("core.tables_s", "core.tables"),
        ("core.dm_s", "core.dm"),
        ("core.repair_s", "core.repair"),
        ("te.negotiate_s", "te.negotiate"),
        ("fib.compile_s", "fib.compile"),
        ("mcf.bound_s", "mcf.bound"),
        ("sim.build_s", "sim.build"),
        ("telemetry.ndjson_s", "telemetry.ndjson"),
        ("telemetry.csv_s", "telemetry.csv"),
        ("telemetry.parse_s", "telemetry.parse"),
    ] {
        p.set(metric, p.secs(span));
    }
    let ndjson_s = p.secs("telemetry.ndjson");
    if ndjson_s > 0.0 {
        p.set(
            "telemetry.ndjson_mb_per_s",
            p.get("telemetry.ndjson_bytes") / 1e6 / ndjson_s,
        );
    }
}

fn note_tables(p: &mut Probe, rows: usize) {
    p.set("core.table_rows", rows as f64);
    p.set(
        "core.tables_ns_per_row",
        p.secs("core.tables") * 1e9 / rows as f64,
    );
}

fn note_fib(p: &mut Probe, fib: &FibStats) {
    p.set("fib.raw_entries", fib.raw_entries as f64);
    p.set("fib.entries", fib.entries_total as f64);
    p.set("fib.compression", fib.compression);
    p.set(
        "fib.ns_per_raw_entry",
        p.secs("fib.compile") * 1e9 / fib.raw_entries as f64,
    );
}

/// Per-layer ledger entries of the simulated outcome.
fn note_summary(p: &mut Probe, s: &SimSummary) {
    p.set("sim.trims", s.trims as f64);
    p.set("sim.drops", s.drops as f64);
    p.set("sim.retx", s.retx as f64);
    // Retransmissions per jumbo frame's worth of delivered payload.
    p.set(
        "sim.retx_share",
        s.retx as f64 * 9000.0 / s.payload_completed.max(1) as f64,
    );
    p.set("sim.unroutable", s.unroutable as f64);
    p.set("sim.host_dead", s.host_dead as f64);
    p.set("sim.aborted", s.aborted as f64);
    p.set("sim.flows_completed", s.completed as f64);
    // 48 bits: exact in the f64 every metric value travels as.
    p.set("sim.digest", (s.digest & 0xffff_ffff_ffff) as f64);
}

/// Per-layer ledger entries of a single packet run: the engine's work
/// counters, and the memory the simulator added on top of `rss_before`.
fn note_run(p: &mut Probe, job: &Job<'_>, r: &SimResult, s: &SimSummary, rss_before_kb: u64) {
    let prof = r.profile;
    let run_s = p.secs("sim.run");
    p.set("sim.run_s", run_s);
    p.set("sim.sim_time_ms", r.end_time as f64 / 1e9);
    p.set(
        "sim.host_s_per_sim_ms",
        run_s / (r.end_time.max(1) as f64 / 1e9),
    );
    p.set("sim.windows", prof.windows as f64);
    p.set(
        "sim.us_per_window",
        run_s * 1e6 / prof.windows.max(1) as f64,
    );
    p.set("sim.mailbox_msgs", prof.mailbox_msgs as f64);
    p.set("sim.mailbox_bytes", prof.mailbox_bytes as f64);
    p.set(
        "sim.mailbox_msgs_per_window",
        prof.mailbox_msgs as f64 / prof.windows.max(1) as f64,
    );
    p.set("sim.epochs_published", prof.epochs_published as f64);
    p.set("sim.repair_ticks", r.repair_ticks() as f64);
    p.set("sim.repair_rows", r.repair_rows() as f64);
    p.set("sim.fib_rows", r.fib_rows() as f64);
    let rss_kb = prof.peak_rss_kb.saturating_sub(rss_before_kb) as f64;
    p.set("sim.rss_delta_mb", rss_kb / 1024.0);
    p.set(
        "sim.bytes_per_endpoint",
        rss_kb * 1024.0 / job.topo.num_endpoints() as f64,
    );
    note_summary(p, s);
}

/// The twins of a packet workload (per-layer pass only):
///
/// * sharded runs get a K = 1 twin on one thread — what sharding costs
///   before any parallel gain; the digest must not depend on K — and a
///   twin on two threads — what the second thread buys;
/// * every run gets a twin with telemetry flipped — exact wire bytes
///   from whichever of the two is traced, and what observing costs.
fn packet_twins(p: &mut Probe, job: &Job<'_>, main: &SimSummary, main_trace: Option<&Trace>) {
    let twins = p.begin("twins");
    let run_s = p.get("sim.run_s");
    let main_rss = p.get("sim.rss_delta_mb");
    let same_result = |p: &mut Probe, r: &SimResult, what: &str| {
        let digest = summarise([r]).digest;
        p.check(digest == main.digest, || {
            format!(
                "{what} changed the result: {digest:016x}, not {:016x}",
                main.digest
            )
        });
    };
    if job.cfg.shards > 1 {
        let sim = job.twin(1, job.cfg.telemetry).build(p, "twin.build");
        let (r, _) = run_sim(sim, p, "twin.run_k1", false);
        p.set("sim.run_s_k1", p.secs("twin.run_k1"));
        p.set(
            "sim.shard_overhead_share",
            run_s / p.secs("twin.run_k1") - 1.0,
        );
        same_result(p, &r, "K = 1");
        let sim = job.build(p, "twin.build");
        let (r, _) = run_sim(sim, p, "twin.run_2t", true);
        p.set("sim.run_s_2t", p.secs("twin.run_2t"));
        p.set("sim.speedup_2t", run_s / p.secs("twin.run_2t"));
        same_result(p, &r, "stepping the shards on two threads");
    }
    let flipped = if job.cfg.telemetry.enabled {
        TelemetryConfig::disabled()
    } else {
        counting_telemetry()
    };
    let rss_before = current_rss_kb();
    let sim = job.twin(job.cfg.shards, flipped).build(p, "twin.build");
    let (r, twin_trace) = run_sim(sim, p, "twin.run_telemetry", false);
    same_result(p, &r, "flipping telemetry");
    let twin_s = p.secs("twin.run_telemetry");
    let twin_rss = r.profile.peak_rss_kb.saturating_sub(rss_before) as f64 / 1024.0;
    let (on_s, off_s, on_rss, off_rss) = if job.cfg.telemetry.enabled {
        (run_s, twin_s, main_rss, twin_rss)
    } else {
        (twin_s, run_s, twin_rss, main_rss)
    };
    p.set("telemetry.run_overhead_share", on_s / off_s - 1.0);
    p.set("telemetry.rss_overhead_mb", on_rss - off_rss);
    let trace = main_trace
        .or(twin_trace.as_ref())
        .expect("one of the two runs is traced");
    let wire = trace.total_wire_bytes();
    p.set("sim.wire_bytes", wire as f64);
    p.set("sim.ns_per_wire_kib", run_s * 1e9 / (wire as f64 / 1024.0));
    p.check(wire >= main.payload_completed, || {
        format!(
            "{wire} wire bytes cannot carry {} payload bytes",
            main.payload_completed
        )
    });
    p.end(twins);
}

/// Times `f` with the pool available, in a span of its own name, and
/// returns `(seconds, result)`.
fn pooled<T>(p: &mut Probe, span: &'static str, f: impl FnOnce() -> T) -> (f64, T) {
    let out = p.time_pooled(span, f);
    (p.secs(span), out)
}

/// `hpc_ndp_sf` and `hpc_ndp_sf_traced`: Slim Fly, nine random layers at
/// rho = 0.6, NDP, a seeded random permutation of equal flows all
/// starting at t = 0. Plain on one shard; the traced variant on two
/// shards with every flow's span sampled and the trace exported.
fn hpc_ndp_sf(p: &mut Probe, q: &Params, traced: bool) -> Rep {
    let name = if traced {
        "hpc_ndp_sf_traced"
    } else {
        "hpc_ndp_sf"
    };
    let (class, flow_bytes) = if q.smoke {
        (SizeClass::Small, 32 * KIB)
    } else {
        (SizeClass::Medium, 128 * KIB)
    };
    let wall = Instant::now();
    let setup = p.begin("setup");
    let topo = p.time("net.build", || {
        classes::build(TopoKind::SlimFly, class, q.seed)
    });
    let flows = p.time("workloads.gen", || {
        let pairs = Pattern::Permutation.flows(topo.num_endpoints() as u64, q.sub("permutation"));
        bulk_flows(&pairs, flow_bytes, 0)
    });
    let layers = p.time("core.layers", || {
        build_random_layers(&topo.graph, &LayerConfig::new(9, 0.6, q.sub("layers")))
    });
    let tables = p.time("core.tables", || RoutingTables::build(&topo.graph, &layers));
    let table_rows = tables.n_layers() * tables.nr() * tables.nr();
    let scheme = BuiltScheme::Layered(tables);
    let faults = FaultPlan::none();
    let job = Job {
        topo: &topo,
        scheme: &scheme,
        cfg: SimConfig {
            seed: q.seed,
            shards: if traced { 2 } else { 1 },
            telemetry: if traced {
                full_telemetry(q.seed)
            } else {
                TelemetryConfig::disabled()
            },
            ..SimConfig::default()
        },
        faults: &faults,
        flows: &flows,
    };
    let rss_before = current_rss_kb();
    let sim = job.build(p, "sim.build");
    let setup_s = end_setup(p, wall, setup);

    let run = p.begin("run");
    let (result, trace) = run_sim(sim, p, "sim.run", false);
    let sim_summary = p.time("harness.summarise", || summarise([&result]));
    let ndjson = trace.as_ref().map(|t| export_trace(p, t, true));
    p.end(run);
    let run_s = wall.elapsed().as_secs_f64() - setup_s;

    let offered = flows.iter().map(|f| f.size).sum();
    check_outputs(p, q, name, &sim_summary, Some(offered), true);
    if p.layers() {
        if let (Some(trace), Some(text)) = (&trace, &ndjson) {
            let parsed = p.time("telemetry.parse", || Trace::parse_ndjson(text));
            check_round_trip(p, trace, parsed);
        }
        note_inputs(p, &topo, &flows);
        note_stage_times(p);
        note_tables(p, table_rows);
        note_run(p, &job, &result, &sim_summary, rss_before);
        let (pooled_s, again) = pooled(p, "twin.tables_2t", || {
            RoutingTables::build(&topo.graph, &layers)
        });
        std::hint::black_box(again.nr());
        p.set("core.tables_speedup_2t", p.secs("core.tables") / pooled_s);
        packet_twins(p, &job, &sim_summary, trace.as_ref());
    }
    Rep {
        setup_s,
        run_s,
        sim: sim_summary,
    }
}

/// `parse_ndjson(to_ndjson())` must preserve the wire-byte total and the
/// spans, and the per-link rows must add up to the total.
fn check_round_trip(p: &mut Probe, trace: &Trace, parsed: Result<Trace, String>) {
    match parsed {
        Ok(back) => {
            let per_link: u64 = back.top_links(usize::MAX).iter().map(|&(_, b)| b).sum();
            p.check(
                back.total_wire_bytes() == trace.total_wire_bytes()
                    && per_link == trace.total_wire_bytes()
                    && back.spans.len() == trace.spans.len(),
                || "NDJSON round trip changed the trace".to_string(),
            );
        }
        Err(e) => p.check(false, || format!("exported NDJSON does not parse: {e}")),
    }
}

/// `scale_ft_sharded`: `fat_tree(62, 2)` (4,805 routers / 119,164
/// endpoints), minimal routing with packet spraying, NDP, every
/// endpoint sending one packet of 4–9 KB half-way around the machine,
/// two shards.
fn scale_ft_sharded(p: &mut Probe, q: &Params) -> Rep {
    let k = if q.smoke { 8 } else { 62 };
    let wall = Instant::now();
    let setup = p.begin("setup");
    let topo = p.time("net.build", || fat_tree(k, 2));
    let flows: Vec<FlowSpec> = p.time("workloads.gen", || {
        let n = topo.num_endpoints() as u64;
        // e -> e + n/2, rotated by the seed so seeds differ in input
        // without leaving the all-traffic-crosses-the-core regime.
        let offset = n / 2 + q.seed.wrapping_sub(1) % (n / 4);
        // Seeded sizes up to one full frame (xorshift64): with one fixed
        // size and no contention every seed would give the same FCTs.
        let mut x = q.sub("sizes");
        (0..n)
            .map(|e| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                FlowSpec {
                    src: e as u32,
                    dst: ((e + offset) % n) as u32,
                    size: 4 * KIB + x % (9000 - 4 * KIB + 1),
                    start: 0,
                }
            })
            .collect()
    });
    let dm = p.time("core.dm", || DistanceMatrix::build(&topo.graph));
    let scheme = BuiltScheme::Minimal { topo: &topo, dm };
    let faults = FaultPlan::none();
    let job = Job {
        topo: &topo,
        scheme: &scheme,
        cfg: SimConfig {
            lb: LoadBalancing::PacketSpray,
            seed: q.seed,
            shards: 2,
            ..SimConfig::default()
        },
        faults: &faults,
        flows: &flows,
    };
    let rss_before = current_rss_kb();
    let sim = job.build(p, "sim.build");
    let setup_s = end_setup(p, wall, setup);

    let run = p.begin("run");
    let (result, _) = run_sim(sim, p, "sim.run", false);
    let sim_summary = p.time("harness.summarise", || summarise([&result]));
    p.end(run);
    let run_s = wall.elapsed().as_secs_f64() - setup_s;

    let offered = flows.iter().map(|f| f.size).sum();
    check_outputs(p, q, "scale_ft_sharded", &sim_summary, Some(offered), true);
    if p.layers() {
        note_inputs(p, &topo, &flows);
        note_stage_times(p);
        note_run(p, &job, &result, &sim_summary, rss_before);
        packet_twins(p, &job, &sim_summary, None);
    }
    Rep {
        setup_s,
        run_s,
        sim: sim_summary,
    }
}

/// `cloud_tcp_churn`: Xpander, DCTCP, four layers compiled to an
/// aggregated FIB, a randomly mapped permutation with Poisson arrivals,
/// a rolling reboot of 10% of the routers inside the arrival window,
/// detection after 50 us, two shards. Runs until the last flow ends (no
/// horizon), so no flow is cut off and counted as failed.
fn cloud_tcp_churn(p: &mut Probe, q: &Params) -> Rep {
    let window_ps: u64 = if q.smoke {
        1_000_000_000
    } else {
        6_000_000_000
    };
    let wall = Instant::now();
    let setup = p.begin("setup");
    let topo = p.time("net.build", || {
        classes::build(TopoKind::Xpander, SizeClass::Small, q.sub("xpander"))
    });
    let (flows, faults) = p.time("workloads.gen", || {
        let n = topo.num_endpoints() as u32;
        let pairs = apply_mapping(
            &random_mapping(n, q.sub("mapping")),
            &Pattern::Permutation.flows(n as u64, q.sub("permutation")),
        );
        // Many short flows rather than the paper's 1 MiB mean: the same
        // byte load (3200/s x 64 KiB per endpoint) spread over ~18000
        // flows keeps the run short and its p99 out of the regime where
        // a dozen RTO-backoff stragglers decide it.
        let sizes = FlowSizeDist::log_spaced(4 * KIB, 256 * KIB, 20, (64 * KIB) as f64);
        let window_s = window_ps as f64 / 1e12;
        let flows = poisson_flows(&pairs, 3200.0, window_s, &sizes, q.sub("poisson"));
        let faults = FaultPlan::rolling_reboot(
            &topo,
            0.10,
            window_ps / 4,
            window_ps / 30,
            window_ps / 5,
            q.sub("reboot"),
        );
        (flows, faults)
    });
    let layers = p.time("core.layers", || {
        build_random_layers(&topo.graph, &LayerConfig::new(4, 0.6, q.sub("layers")))
    });
    let tables = p.time("core.tables", || RoutingTables::build(&topo.graph, &layers));
    let table_rows = tables.n_layers() * tables.nr() * tables.nr();
    let compiled = p.time("fib.compile", || {
        let inner: Box<dyn RoutingScheme + Send + Sync> = Box::new(BuiltScheme::Layered(tables));
        CompiledScheme::compile(&topo, inner, CompileMode::Aggregated)
    });
    let fib = compiled.fib().stats();
    let scheme = BuiltScheme::Compiled(compiled);
    let job = Job {
        topo: &topo,
        scheme: &scheme,
        cfg: SimConfig {
            transport: Transport::tcp_default(TcpVariant::Dctcp),
            seed: q.seed,
            detection_delay: Some(50_000_000),
            shards: 2,
            ..SimConfig::default()
        },
        faults: &faults,
        flows: &flows,
    };
    let rss_before = current_rss_kb();
    let sim = job.build(p, "sim.build");
    let setup_s = end_setup(p, wall, setup);

    let run = p.begin("run");
    let (result, _) = run_sim(sim, p, "sim.run", false);
    let sim_summary = p.time("harness.summarise", || summarise([&result]));
    p.end(run);
    let run_s = wall.elapsed().as_secs_f64() - setup_s;

    check_outputs(p, q, "cloud_tcp_churn", &sim_summary, None, false);
    p.check(sim_summary.failed() == 0, || {
        format!(
            "cloud_tcp_churn: {} flows never finished",
            sim_summary.failed()
        )
    });
    p.check(
        result.repair_ticks() > 0 && sim_summary.host_dead > 0,
        || "cloud_tcp_churn: the reboot schedule touched nothing".to_string(),
    );
    if p.layers() {
        note_inputs(p, &topo, &flows);
        note_stage_times(p);
        note_tables(p, table_rows);
        note_fib(p, &fib);
        note_run(p, &job, &result, &sim_summary, rss_before);
        packet_twins(p, &job, &sim_summary, None);
    }
    Rep {
        setup_s,
        run_s,
        sim: sim_summary,
    }
}

/// Closed-form diameters the APSP pass is checked against.
fn closed_form_diameter(kind: TopoKind) -> Option<u32> {
    match kind {
        TopoKind::SlimFly => Some(2),
        TopoKind::Dragonfly | TopoKind::HyperX => Some(3),
        TopoKind::FatTree => Some(4),
        _ => None,
    }
}

/// `control_plane`: the whole pipeline once. Set-up builds the six
/// evaluated topologies and their APSP statistics, then on a Slim Fly:
/// nine layers, tables, TE negotiation against the worst-case matrix,
/// the aggregated FIB, an offline repair of the layer tables for a 2%
/// link-failure sample and the throughput bound. The run is short: that scheme, 32 KiB
/// flows on the same matrix, two shards, traced, exported and parsed.
fn control_plane(p: &mut Probe, q: &Params) -> Rep {
    let class = if q.smoke {
        SizeClass::Small
    } else {
        SizeClass::Medium
    };
    let flow_bytes = 32 * KIB;
    let wall = Instant::now();
    let setup = p.begin("setup");
    let mut apsp_pairs = 0;
    let mut survey = Vec::new();
    for kind in classes::evaluated_kinds() {
        let t = p.time("net.build", || classes::build(kind, class, q.sub("survey")));
        let stats = p.time("diversity.apsp", || shortest_path_stats(&t.graph));
        apsp_pairs += t.num_routers() * t.num_routers();
        if let Some(d) = closed_form_diameter(kind) {
            p.check(stats.diameter == d, || {
                format!(
                    "{}: APSP diameter {} is not the closed-form {d}",
                    t.name, stats.diameter
                )
            });
        }
        if p.layers() {
            survey.push(t); // kept for the two-thread twin
        }
    }
    let topo = p.time("net.build", || {
        classes::build(TopoKind::SlimFly, class, q.seed)
    });
    // One fixed layer draw: which iteration TE keeps flips with the
    // draw, and with it every simulated metric by a third. The seed
    // varies the matrix, the failure sample and the random topologies.
    let layers = p.time("core.layers", || {
        build_random_layers(
            &topo.graph,
            &LayerConfig::new(9, 0.6, cell_seed("layers", &[1])),
        )
    });
    let tables = p.time("core.tables", || RoutingTables::build(&topo.graph, &layers));
    let table_rows = tables.n_layers() * tables.nr() * tables.nr();
    let (flows, demands) = p.time("workloads.gen", || {
        let pairs = matrix_flows(
            &topo,
            &MatrixSpec::WorstCase { intensity: 0.7 },
            q.sub("matrix"),
        );
        let demands = endpoint_demands(&topo, &pairs);
        (bulk_flows(&pairs, flow_bytes, 0), demands)
    });
    let te_cfg = TeConfig {
        max_iterations: 1,
        ..TeConfig::default()
    };
    let te = p.time("te.negotiate", || {
        TeScheme::negotiate(&topo.graph, &tables, &demands, &te_cfg)
    });
    let (te_iterations, te_peak) = (te.iterations(), te.peak());
    let compiled = p.time("fib.compile", || {
        let inner: Box<dyn RoutingScheme + Send + Sync> = Box::new(BuiltScheme::Te(te));
        CompiledScheme::compile(&topo, inner, CompileMode::Aggregated)
    });
    let fib = compiled.fib().stats();
    let scheme = BuiltScheme::Compiled(compiled);
    let down = DownLinks::from_links(
        FaultPlan::sample(
            &topo,
            &FaultModel::UniformFraction { fraction: 0.02 },
            q.sub("failures"),
        )
        .static_failures(),
    );
    let repair = p.time("core.repair", || tables.repair_routes(&topo.graph, &down));
    let bound = p.time("mcf.bound", || throughput_upper_bound(&topo, &demands));
    let faults = FaultPlan::none();
    let job = Job {
        topo: &topo,
        scheme: &scheme,
        cfg: SimConfig {
            seed: q.seed,
            shards: 2,
            telemetry: full_telemetry(q.seed),
            ..SimConfig::default()
        },
        faults: &faults,
        flows: &flows,
    };
    let rss_before = current_rss_kb();
    let sim = job.build(p, "sim.build");
    let setup_s = end_setup(p, wall, setup);

    let run = p.begin("run");
    let (result, trace) = run_sim(sim, p, "sim.run", false);
    let trace = trace.expect("telemetry is on");
    let sim_summary = p.time("harness.summarise", || summarise([&result]));
    let ndjson = export_trace(p, &trace, false);
    let parsed = p.time("telemetry.parse", || Trace::parse_ndjson(&ndjson));
    p.end(run);
    let run_s = wall.elapsed().as_secs_f64() - setup_s;

    let offered = flows.iter().map(|f| f.size).sum();
    check_outputs(p, q, "control_plane", &sim_summary, Some(offered), true);
    check_round_trip(p, &trace, parsed);
    p.check(!repair.is_empty(), || {
        "control_plane: the repair pass repaired nothing".to_string()
    });
    // Every flow carries the same payload from t = 0 to the makespan at
    // the latest, so that rate was sustained concurrently by every
    // commodity and cannot exceed the cut/volumetric bound, which is in
    // link capacities.
    let link_bps = job.cfg.link_gbps * 1e9;
    let makespan_s = sim_summary.last_finish_ps as f64 / 1e12;
    let achieved = flow_bytes as f64 * 8.0 / makespan_s / link_bps;
    p.check(achieved <= bound, || {
        format!("control_plane: achieved throughput {achieved} exceeds the bound {bound}")
    });
    if p.layers() {
        note_inputs(p, &topo, &flows);
        note_stage_times(p);
        note_tables(p, table_rows);
        note_fib(p, &fib);
        note_run(p, &job, &result, &sim_summary, rss_before);
        p.set(
            "diversity.apsp_ns_per_pair",
            p.secs("diversity.apsp") * 1e9 / apsp_pairs as f64,
        );
        p.set("core.repair_rows", repair.len() as f64);
        p.set(
            "core.repair_ns_per_row",
            p.secs("core.repair") * 1e9 / repair.len() as f64,
        );
        p.set("te.iterations", te_iterations as f64);
        p.set(
            "te.s_per_iteration",
            p.secs("te.negotiate") / te_iterations.max(1) as f64,
        );
        p.set("mcf.bound", bound);
        p.set("sim.achieved_over_bound", achieved / bound);
        let stages = Stages {
            survey: &survey,
            topo: &topo,
            layers: &layers,
            demands: &demands,
            te_cfg: &te_cfg,
            te_peak,
            fib: &fib,
        };
        control_plane_twins(p, &stages);
        packet_twins(p, &job, &sim_summary, Some(&trace));
    }
    Rep {
        setup_s,
        run_s,
        sim: sim_summary,
    }
}

/// What `control_plane`'s set-up produced, as its twins re-run it.
struct Stages<'a> {
    survey: &'a [Topology],
    topo: &'a Topology,
    layers: &'a LayerSet,
    demands: &'a [RouterDemand],
    te_cfg: &'a TeConfig,
    te_peak: f64,
    fib: &'a FibStats,
}

/// Two-thread twins of the four pool-parallel control-plane stages, the
/// static-tables peak the negotiated one is compared with, and the
/// host-route FIB the aggregated one must not exceed.
fn control_plane_twins(p: &mut Probe, s: &Stages<'_>) {
    let twins = p.begin("twins.two_threads");
    let (apsp_s, ()) = pooled(p, "twin.apsp_2t", || {
        for t in s.survey {
            std::hint::black_box(shortest_path_stats(&t.graph).diameter);
        }
    });
    p.set(
        "diversity.apsp_speedup_2t",
        p.secs("diversity.apsp") / apsp_s,
    );
    let (tables_s, tables) = pooled(p, "twin.tables_2t", || {
        RoutingTables::build(&s.topo.graph, s.layers)
    });
    p.set("core.tables_speedup_2t", p.secs("core.tables") / tables_s);
    let (te_s, te) = pooled(p, "twin.te_2t", || {
        TeScheme::negotiate(&s.topo.graph, &tables, s.demands, s.te_cfg)
    });
    p.set("te.negotiate_speedup_2t", p.secs("te.negotiate") / te_s);
    p.check(te.peak() == s.te_peak, || {
        "TE negotiation differs between one and two threads".to_string()
    });
    let static_cfg = TeConfig {
        max_iterations: 0,
        ..*s.te_cfg
    };
    let static_peak = TeScheme::negotiate(&s.topo.graph, &tables, s.demands, &static_cfg).peak();
    p.set("te.peak_over_static", s.te_peak / static_peak);
    p.check(s.te_peak <= static_peak, || {
        format!(
            "TE peak {} is worse than the static tables' {static_peak}",
            s.te_peak
        )
    });
    let te = BuiltScheme::Te(te);
    let (compile_s, aggregated) = pooled(p, "twin.fib_2t", || {
        fatpaths_fib::compile(s.topo, &te, CompileMode::Aggregated).stats()
    });
    p.set("fib.compile_speedup_2t", p.secs("fib.compile") / compile_s);
    let host = fatpaths_fib::compile(s.topo, &te, CompileMode::HostRoutes).stats();
    p.check(
        aggregated == *s.fib
            && host.raw_entries == s.fib.raw_entries
            && s.fib.entries_total <= host.entries_total,
        || {
            format!(
                "aggregated FIB ({} entries of {} raw) against host routes ({} of {})",
                s.fib.entries_total, s.fib.raw_entries, host.entries_total, host.raw_entries
            )
        },
    );
    p.end(twins);
}

/// The eight routing-scheme families of the paper's comparison.
const SWEEP_SPECS: [SchemeSpec; 8] = [
    SchemeSpec::LayeredRandom {
        n_layers: 9,
        rho: 0.6,
    },
    SchemeSpec::LayeredInterferenceMin { n_layers: 4 },
    SchemeSpec::LayeredMinimal,
    SchemeSpec::Minimal,
    SchemeSpec::Spain { k_paths: 1 },
    SchemeSpec::Past {
        variant: PastVariant::Bfs,
    },
    SchemeSpec::Ksp { k: 4 },
    SchemeSpec::Valiant { n_layers: 4 },
];

/// One sweep cell's outcome: the result, when the cell started, had its
/// scheme built and ended (seconds from the sweep's start), and the
/// peak RSS it saw.
struct Cell {
    result: SimResult,
    start_s: f64,
    built_s: f64,
    end_s: f64,
    peak_rss_kb: u64,
}

/// `baselines_sweep`: every scheme family x {random permutation,
/// worst-case matrix at 0.7} on a Slim Fly, NDP, each cell a
/// `build_scheme` + run, through `SweepRunner`. As on every workload,
/// building a scheme is set-up: the cells' build seconds count towards
/// `setup_s`, the rest of the sweep towards `run_s`. Some baselines
/// (SPAIN's forests) overflow queues by design, so drops are not an
/// error here.
fn baselines_sweep(p: &mut Probe, q: &Params) -> Rep {
    let flow_bytes = if q.smoke { 16 * KIB } else { 96 * KIB };
    let wall = Instant::now();
    let setup = p.begin("setup");
    let topo = p.time("net.build", || {
        if q.smoke {
            slim_fly(5, 2).expect("q = 5 is a valid Slim Fly")
        } else {
            classes::build(TopoKind::SlimFly, SizeClass::Small, q.seed)
        }
    });
    let matrices: [Vec<FlowSpec>; 2] = p.time("workloads.gen", || {
        let permutation =
            Pattern::Permutation.flows(topo.num_endpoints() as u64, q.sub("permutation"));
        let worst = matrix_flows(
            &topo,
            &MatrixSpec::WorstCase { intensity: 0.7 },
            q.sub("matrix"),
        );
        [
            bulk_flows(&permutation, flow_bytes, 0),
            bulk_flows(&worst, flow_bytes, 0),
        ]
    });
    let cells: Vec<(usize, usize)> = (0..SWEEP_SPECS.len())
        .flat_map(|spec| (0..matrices.len()).map(move |matrix| (spec, matrix)))
        .collect();
    let runner = SweepRunner::new("baselines_sweep", cells);
    let scheme_seed = q.sub("schemes");
    let sweep = |base: Instant| {
        runner.run(|_, &(spec, matrix)| {
            let start_s = base.elapsed().as_secs_f64();
            let scenario = Scenario::on(&topo)
                .scheme(SWEEP_SPECS[spec])
                .workload(&matrices[matrix])
                .seed(scheme_seed)
                .shards(1);
            let scheme = scenario.build_scheme();
            let built_s = base.elapsed().as_secs_f64();
            // The run resets the kernel's peak mark: read it on both sides.
            let before = fatpaths_sim::peak_rss_kb();
            let result = scenario.run_with(&scheme);
            Cell {
                peak_rss_kb: before.max(result.profile.peak_rss_kb),
                result,
                start_s,
                built_s,
                end_s: base.elapsed().as_secs_f64(),
            }
        })
    };
    let inputs_s = end_setup(p, wall, setup);

    let run = p.begin("run");
    let span = p.begin("sweep.run");
    let base = Instant::now();
    let cells = rayon::run_sequential(|| sweep(base));
    for c in &cells {
        p.record("sweep.cell", base, c.start_s, c.end_s);
        p.fold_rss(c.peak_rss_kb);
    }
    p.end(span);
    let sim_summary = p.time("harness.summarise", || {
        summarise(cells.iter().map(|c| &c.result))
    });
    p.end(run);
    let builds_s: f64 = cells.iter().map(|c| c.built_s - c.start_s).sum();
    let setup_s = inputs_s + builds_s;
    let run_s = wall.elapsed().as_secs_f64() - setup_s;

    let offered = SWEEP_SPECS.len() as u64 * matrices.iter().flatten().map(|f| f.size).sum::<u64>();
    check_outputs(p, q, "baselines_sweep", &sim_summary, Some(offered), false);
    if p.layers() {
        note_inputs(p, &topo, &matrices.concat());
        note_stage_times(p);
        note_summary(p, &sim_summary);
        let cell_s =
            |cells: &[Cell]| -> Vec<f64> { cells.iter().map(|c| c.end_s - c.start_s).collect() };
        let longest = cell_s(&cells).into_iter().fold(0.0, f64::max);
        let sweep_s = p.secs("sweep.run");
        p.set("sweep.cells", cells.len() as f64);
        p.set("sweep.build_s_sum", builds_s);
        p.set("sweep.cell_s_max", longest);
        p.set("sweep.cell_max_share", longest / sweep_s);
        let windows: u64 = cells.iter().map(|c| c.result.profile.windows).sum();
        p.set("sim.windows", windows as f64);
        let sim_time_ps: u64 = cells.iter().map(|c| c.result.end_time).sum();
        p.set("sim.sim_time_ms", sim_time_ps as f64 / 1e9);
        // The same grid on the two-thread pool: the speed-up, how busy
        // the pool was, and cell order must not change any result.
        let base = Instant::now();
        let (pooled_s, pooled_cells) = pooled(p, "twin.sweep_2t", || sweep(base));
        p.set("sweep.run_s_2t", pooled_s);
        p.set("sweep.speedup_2t", sweep_s / pooled_s);
        p.set(
            "sweep.pool_efficiency",
            cell_s(&pooled_cells).iter().sum::<f64>()
                / (rayon::current_num_threads() as f64 * pooled_s),
        );
        let pooled_digest = summarise(pooled_cells.iter().map(|c| &c.result)).digest;
        p.check(pooled_digest == sim_summary.digest, || {
            "the sweep's results depend on whether its cells run in parallel".to_string()
        });
    }
    Rep {
        setup_s,
        run_s,
        sim: sim_summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatpaths_sim::FlowRecord;

    fn flow(size: u64, start: u64, finish: Option<u64>) -> FlowRecord {
        FlowRecord {
            size,
            start,
            finish,
            retx: 1,
            trims: 2,
            host_dead: false,
            aborted: false,
        }
    }

    fn result(flows: Vec<FlowRecord>) -> SimResult {
        SimResult {
            flows,
            drops: 3,
            trims: 4,
            ..SimResult::default()
        }
    }

    #[test]
    fn summary_counts_and_averages() {
        // 1000 bytes in 1 us = 8 Gbit/s; 1000 bytes in 4 us = 2 Gbit/s.
        let a = result(vec![
            flow(1000, 0, Some(1_000_000)),
            flow(1000, 1_000_000, Some(5_000_000)),
            flow(500, 0, None),
        ]);
        let dead = FlowRecord {
            host_dead: true,
            ..flow(700, 0, None)
        };
        let b = result(vec![flow(1000, 0, Some(2_000_000)), dead]);
        let s = summarise([&a, &b]);
        assert_eq!(
            (s.flows, s.eligible, s.completed, s.host_dead),
            (5, 4, 3, 1)
        );
        assert_eq!((s.failed(), s.contradictory, s.aborted), (1, 0, 0));
        assert_eq!(s.completion_share(), 0.75);
        assert_eq!(
            (s.payload_completed, s.retx, s.drops, s.trims),
            (3000, 5, 6, 8)
        );
        assert_eq!(s.last_finish_ps, 5_000_000);
        // Run a: goodput (8 + 2) / 2 = 5; run b: 4. Median over the runs.
        assert!((s.goodput_gbps - 4.5).abs() < 1e-12);
        // p50: nearest rank of [1, 4] is 4 (rank rounds up), of [2] is 2.
        assert_eq!(s.fct_p50_us, 3.0);
        // With a third run the median is the middle one, not the mean.
        let c = result(vec![flow(1000, 0, Some(100_000_000))]);
        assert_eq!(summarise([&a, &b, &c]).fct_p50_us, 4.0);
        assert_eq!(s.beyond_p99, 0);
        assert_eq!(summarise([]).beyond_p99, 0);
        assert_eq!(summarise([]).completion_share(), 1.0);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = result(vec![flow(1000, 0, Some(1_000_000)), flow(500, 0, None)]);
        let pinned = summarise([&a]).digest;
        // The FNV-1a fold is part of the result format: a commit that
        // changes this value changes every recorded digest.
        assert_eq!(pinned, 0x22da_a85b_df87_51e1);
        assert_eq!(summarise([&a]).digest, pinned);
        let mut later = a.clone();
        later.flows[0].finish = Some(1_000_001);
        assert_ne!(summarise([&later]).digest, pinned);
        let mut dropped = a.clone();
        dropped.drops += 1;
        assert_ne!(summarise([&dropped]).digest, pinned);
        let mut flagged = a.clone();
        flagged.flows[1].aborted = true;
        assert_ne!(summarise([&flagged]).digest, pinned);
        // Order of runs matters: cells are summarised in grid order.
        let b = result(vec![flow(9, 9, Some(99))]);
        assert_ne!(summarise([&a, &b]).digest, summarise([&b, &a]).digest);
    }

    #[test]
    fn seeds_give_independent_streams() {
        let (one, two) = (
            Params {
                seed: 1,
                smoke: true,
            },
            Params {
                seed: 2,
                smoke: true,
            },
        );
        assert_eq!(one.sub("layers"), one.sub("layers"));
        assert_ne!(one.sub("layers"), two.sub("layers"));
        assert_ne!(one.sub("layers"), one.sub("permutation"));
    }
}
