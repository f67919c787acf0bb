//! Execution-layer profile of the 119k-endpoint scale scenario:
//!
//! ```text
//! parallel_bench --profile       # RunProfile as JSON on stdout
//! ```
//!
//! Timing of the pipeline stages lives in the repo benchmark
//! (`BENCHMARK.json`, `benchmark/README.md`); this binary only archives
//! one run's [`fatpaths_sim::SimResult::profile`] for CI, `events` with
//! its per-class split (`events_<class>`).
//!
//! `wall_ns_per_event` does not compare across the change that made a
//! serializer turn an event only when a packet waits behind a
//! transmission: its denominator fell from 7,511,729 to 5,140,059
//! events on this scenario at unchanged simulated outcomes.

use fatpaths_sim::{LoadBalancing, Scenario, SchemeSpec};
use fatpaths_workloads::arrivals::FlowSpec;
use std::fmt::Write as _;
use std::time::Instant;

/// The endpoint-scale scenario: an all-to-all permutation
/// (`e → e + n/2`) of 16 KiB NDP flows on `fat_tree(62, 2)` — 4805
/// routers / 119,164 endpoints — under minimal routing + packet spray.
/// The same configuration as the `FATPATHS_SCALE=1` acceptance test, so
/// a memory regression here is a regression of the scale story itself.
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

fn main() {
    if !std::env::args().any(|a| a == "--profile") {
        eprintln!("usage: parallel_bench --profile");
        std::process::exit(2);
    }
    // Window count, mailbox traffic, fault-epoch publications, traffic
    // events (per class, and wall ns per event), and peak RSS, as JSON
    // on stdout.
    // `FATPATHS_THREADS` picks the shard count.
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
    let d = p.dispatched;
    for (class, n) in [
        ("flow_starts", d.flow_starts),
        ("serializer_turns", d.serializer_turns),
        ("router_arrivals", d.router_arrivals),
        ("endpoint_arrivals", d.endpoint_arrivals),
        ("pull_ticks", d.pull_ticks),
        ("timers", d.timers),
    ] {
        let _ = writeln!(json, "  \"events_{class}\": {n},");
    }
    let _ = writeln!(
        json,
        "  \"wall_ns_per_event\": {:.1},",
        secs * 1e9 / p.events.max(1) as f64
    );
    let _ = writeln!(json, "  \"peak_rss_kb\": {}", p.peak_rss_kb);
    json.push_str("}\n");
    print!("{json}");
}
