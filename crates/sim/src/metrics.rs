//! Per-flow records and summary statistics (§VII-A5: FCT, throughput per
//! flow, workload completion time).

use crate::engine::TimePs;
use fatpaths_telemetry::RepairSample;

/// Outcome of one simulated flow.
#[derive(Clone, Copy, Debug)]
pub struct FlowRecord {
    /// Payload size in bytes.
    pub size: u64,
    /// Injection time.
    pub start: TimePs,
    /// Completion time (`None` if the horizon cut it off).
    pub finish: Option<TimePs>,
    /// Retransmitted packets.
    pub retx: u32,
    /// NDP payload trims observed by this flow's receiver.
    pub trims: u32,
    /// The flow was never injected: its source or destination host sat
    /// behind a dead router at start time. Distinct from an incomplete
    /// flow (`finish = None` with `host_dead = false`), which was
    /// injected but cut off by the horizon, and from `unroutable`
    /// drops, which are the network's failure between live hosts.
    pub host_dead: bool,
    /// Always `false`: the simulator never aborts a transfer (a flow
    /// whose host dies after injection stalls until the host revives or
    /// the horizon passes). Kept only because the benchmark harness
    /// reads and builds it.
    pub aborted: bool,
}

impl FlowRecord {
    /// Flow completion time in seconds.
    pub fn fct_s(&self) -> Option<f64> {
        self.finish.map(|f| (f - self.start) as f64 / 1e12)
    }

    /// Throughput per flow in MiB/s (size / FCT) — Fig. 2's metric.
    pub fn throughput_mib_s(&self) -> Option<f64> {
        self.fct_s()
            .map(|s| self.size as f64 / (1024.0 * 1024.0) / s)
    }
}

/// Execution-layer counters for one run: how many lookahead windows the
/// driver stepped, how much traffic crossed shard boundaries, and how
/// much fault state was published. Purely observational — none of it
/// feeds back into the simulation, so the determinism contract (results
/// bit-identical across shard and thread counts) is unaffected; the
/// counters themselves (except `peak_rss_kb`, a process-wide OS
/// measurement) are deterministic for a fixed shard count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunProfile {
    /// Shards the run executed with.
    pub shards: u32,
    /// Conservative-lookahead windows stepped.
    pub windows: u64,
    /// Boundary packets exchanged through the mailboxes.
    pub mailbox_msgs: u64,
    /// Wire bytes those boundary packets carried.
    pub mailbox_bytes: u64,
    /// Fault epochs published by the writer (≥ 1: the post-static
    /// snapshot counts).
    pub epochs_published: u64,
    /// Events dispatched: the sum of [`RunProfile::dispatched`]. Faults
    /// and repair passes are epochs of the shared timeline, not events,
    /// so the count is the same at every shard count — the denominator
    /// for host ns per event.
    pub events: u64,
    /// Events dispatched per class, summed over shards in shard order.
    pub dispatched: EventCounts,
    /// Peak resident set size of the process in KiB (`VmHWM`), read at
    /// the end of the run; 0 where `/proc` is unavailable.
    pub peak_rss_kb: u64,
}

/// Events a run dispatched, one count per event class. Each is exact
/// work, a function of the simulated schedule alone: the same at every
/// shard and thread count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Flow starts.
    pub flow_starts: u64,
    /// Serializer turns: a transmission ended with a packet waiting
    /// behind it. A transmission nothing waits behind schedules none.
    pub serializer_turns: u64,
    /// Packet arrivals at routers.
    pub router_arrivals: u64,
    /// Packet arrivals at endpoints.
    pub endpoint_arrivals: u64,
    /// Paced NDP pull ticks.
    pub pull_ticks: u64,
    /// Retransmission timer events: timeouts, deferrals to a moved
    /// deadline and superseded events.
    pub timers: u64,
}

impl EventCounts {
    /// Events over every class.
    pub fn total(&self) -> u64 {
        self.flow_starts
            + self.serializer_turns
            + self.router_arrivals
            + self.endpoint_arrivals
            + self.pull_ticks
            + self.timers
    }
}

impl std::ops::AddAssign for EventCounts {
    fn add_assign(&mut self, o: Self) {
        self.flow_starts += o.flow_starts;
        self.serializer_turns += o.serializer_turns;
        self.router_arrivals += o.router_arrivals;
        self.endpoint_arrivals += o.endpoint_arrivals;
        self.pull_ticks += o.pull_ticks;
        self.timers += o.timers;
    }
}

/// Best-effort reset of the process peak-RSS high-water mark: writes
/// `5` to `/proc/self/clear_refs` (Linux: reset `VmHWM` to the current
/// RSS). [`Simulator::run`](crate::Simulator::run) calls this at run
/// start so each run's [`RunProfile::peak_rss_kb`] measures *that* run
/// instead of the process-lifetime peak. Silently a no-op where the
/// file is absent or not writable (non-Linux, locked-down containers) —
/// the residual caveat there is the old behavior: only the first large
/// run in a process measures itself accurately. Even on Linux the reset
/// floor is the *current* RSS, so memory still held from earlier runs
/// (allocator caches, leaked arenas) stays in the baseline.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in KiB (Linux `VmHWM`), or 0
/// where `/proc/self/status` is unavailable. A high-water mark: it
/// never decreases on its own over a process lifetime — pair with
/// [`reset_peak_rss`] to scope it to a run.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Aggregate simulation result.
#[derive(Clone, Debug, Default)]
pub struct SimResult {
    /// Per-flow outcomes, in flow order.
    pub flows: Vec<FlowRecord>,
    /// Packets dropped at tail-drop queues (TCP mode) or on down links.
    pub drops: u64,
    /// Payloads trimmed (NDP mode).
    pub trims: u64,
    /// Packets dropped because routing had no live candidate port — the
    /// destination was unreachable in the degraded network.
    pub unroutable: u64,
    /// Time the last event executed.
    pub end_time: TimePs,
    /// One record per control-plane repair pass, in execution order: the
    /// rows a trace carries as its repairs.
    pub repair_log: Vec<RepairSample>,
    /// Execution-layer counters (windows, mailbox traffic, memory).
    pub profile: RunProfile,
}

impl SimResult {
    /// Completed flows only.
    pub fn completed(&self) -> impl Iterator<Item = &FlowRecord> {
        self.flows.iter().filter(|f| f.finish.is_some())
    }

    /// Flows that were actually injected — both endpoints alive at start
    /// time. The denominator for completion accounting: `host_dead`
    /// flows are a property of the fault plan (the host is gone), not of
    /// the routing scheme under test.
    pub fn eligible(&self) -> impl Iterator<Item = &FlowRecord> {
        self.flows.iter().filter(|f| !f.host_dead)
    }

    /// Flows excluded from the workload because an endpoint was behind a
    /// dead router at start time.
    pub fn host_dead(&self) -> usize {
        self.flows.iter().filter(|f| f.host_dead).count()
    }

    /// Number of control-plane repair passes that ran.
    pub fn repair_ticks(&self) -> usize {
        self.repair_log.len()
    }

    /// Total routing rows touched across all repair passes.
    pub fn repair_rows(&self) -> u64 {
        self.repair_log.iter().map(|r| r.rows).sum()
    }

    /// Total FIB rows rewritten across all repair passes (nonzero only
    /// for FIB-compiled schemes).
    pub fn fib_rows(&self) -> u64 {
        self.repair_log.iter().map(|r| r.fib_rows).sum()
    }

    /// Fraction of eligible flows that completed (`host_dead` flows are
    /// excluded from the denominator; 1.0 when nothing was eligible).
    pub fn completion_rate(&self) -> f64 {
        let eligible = self.eligible().count();
        if eligible == 0 {
            return 1.0;
        }
        self.completed().count() as f64 / eligible as f64
    }

    /// Makespan of a bulk phase: last finish − first start.
    pub fn makespan(&self) -> Option<TimePs> {
        let first = self.flows.iter().map(|f| f.start).min()?;
        let last = self.flows.iter().filter_map(|f| f.finish).max()?;
        Some(last - first)
    }

    /// FCTs (seconds) of completed flows, optionally restricted to flows of
    /// exactly `size` bytes.
    pub fn fcts(&self, size: Option<u64>) -> Vec<f64> {
        self.completed()
            .filter(|f| size.is_none_or(|s| f.size == s))
            .filter_map(|f| f.fct_s())
            .collect()
    }
}

/// Mean of a sample (0 for empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `pct`-th percentile by nearest-rank on a copy (0 for empty);
/// `pct` in `[0, 100]`. For the common mean/p50/p99/max bundle prefer
/// [`Summary::of`], which sorts once instead of once per percentile.
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[rank(v.len(), pct)]
}

/// Nearest-rank index for `pct` in `[0, 100]` over a sorted sample of
/// `n` elements — the one formula [`percentile`] and [`Summary`] share.
fn rank(n: usize, pct: f64) -> usize {
    let idx = ((pct / 100.0) * (n as f64 - 1.0)).round() as usize;
    idx.min(n - 1)
}

/// The standard sample digest every sweep reports — computed with a
/// single sort instead of one sort per [`percentile`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Arithmetic mean (0 for an empty sample).
    pub mean: f64,
    /// Median by nearest-rank.
    pub p50: f64,
    /// 99th percentile by nearest-rank.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Digest of `xs`. Percentiles use the same nearest-rank formula as
    /// [`percentile`], so `Summary::of(xs).p99 == percentile(xs, 99.0)`
    /// exactly; the mean is summed in input order, matching [`mean`].
    pub fn of(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Summary::default();
        }
        let mean = mean(xs);
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Summary {
            mean,
            p50: v[rank(v.len(), 50.0)],
            p99: v[rank(v.len(), 99.0)],
            max: v[v.len() - 1],
            n: v.len(),
        }
    }
}

/// [`histogram`]'s result: per-bin counts over `[lo, hi)` plus explicit
/// counts of the samples that fell outside the range — previously those
/// were dropped silently, which made a histogram over a misjudged range
/// indistinguishable from one over a sparse sample.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramResult {
    /// Per-bin counts; bin `i` covers `[lo + i·w, lo + (i+1)·w)`.
    pub counts: Vec<u64>,
    /// Samples below `lo`.
    pub underflow: u64,
    /// Samples at or above `hi`.
    pub overflow: u64,
}

impl HistogramResult {
    /// Samples that landed inside `[lo, hi)`.
    #[cfg(test)]
    fn in_range(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Total samples seen, out-of-range included.
    #[cfg(test)]
    fn total(&self) -> u64 {
        self.in_range() + self.underflow + self.overflow
    }
}

/// Histogram with fixed-width bins over `[lo, hi)`. Out-of-range
/// samples are counted, not dropped — see [`HistogramResult`].
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> HistogramResult {
    assert!(hi > lo && bins > 0);
    let mut h = HistogramResult {
        counts: vec![0u64; bins],
        ..HistogramResult::default()
    };
    let w = (hi - lo) / bins as f64;
    for &x in xs {
        if x < lo {
            h.underflow += 1;
        } else if x >= hi {
            h.overflow += 1;
        } else {
            // A sample a few ulps below `hi` can divide out to `bins`.
            h.counts[(((x - lo) / w) as usize).min(bins - 1)] += 1;
        }
    }
    h
}

/// Groups completed flows by size and reports
/// `(size, mean TPF, tail-1% TPF, count)` per group, ascending by size —
/// the rows of Figs. 2 and 11.
pub fn throughput_by_size(result: &SimResult) -> Vec<(u64, f64, f64, usize)> {
    use rustc_hash::FxHashMap;
    let mut groups: FxHashMap<u64, Vec<f64>> = FxHashMap::default();
    for f in result.completed() {
        if let Some(tp) = f.throughput_mib_s() {
            groups.entry(f.size).or_default().push(tp);
        }
    }
    let mut out: Vec<(u64, f64, f64, usize)> = groups
        .into_iter()
        .map(|(size, tps)| (size, mean(&tps), percentile(&tps, 1.0), tps.len()))
        .collect();
    out.sort_unstable_by_key(|&(s, ..)| s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fct_and_throughput() {
        let f = FlowRecord {
            size: 1 << 20,
            start: 0,
            finish: Some(1_000_000_000_000),
            retx: 0,
            trims: 0,
            host_dead: false,
            aborted: false,
        };
        assert_eq!(f.fct_s(), Some(1.0));
        assert!((f.throughput_mib_s().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 50.0), 51.0); // round(0.5·99)=50 → xs[50]
    }

    #[test]
    fn histogram_bins() {
        let xs = [0.5, 1.5, 1.6, 9.9, 10.0, -0.1];
        let h = histogram(&xs, 0.0, 10.0, 10);
        assert_eq!(h.counts[0], 1);
        assert_eq!(h.counts[1], 2);
        assert_eq!(h.counts[9], 1);
        assert_eq!(h.overflow, 1); // 10.0 sits outside [lo, hi)
        assert_eq!(h.underflow, 1);
        assert_eq!(h.in_range(), 4);
        assert_eq!(h.total(), xs.len() as u64);
        // 0.9999999999999999 / (1/3) rounds to 3.0: the last bin, not past it.
        let top = histogram(&[0.9999999999999999], 0.0, 1.0, 3);
        assert_eq!(top.counts, vec![0, 0, 1]);
        assert_eq!(top.overflow, 0);
    }

    #[test]
    fn summary_matches_scalar_helpers() {
        let xs: Vec<f64> = (1..=100).rev().map(|i| i as f64).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.mean, mean(&xs));
        assert_eq!(s.p50, percentile(&xs, 50.0));
        assert_eq!(s.p99, percentile(&xs, 99.0));
        assert_eq!(s.max, 100.0);
        assert_eq!(s.n, 100);
        assert_eq!(Summary::of(&[]), Summary::default());
    }

    #[test]
    fn group_by_size() {
        let mk = |size, fct_ps| FlowRecord {
            size,
            start: 0,
            finish: Some(fct_ps),
            retx: 0,
            trims: 0,
            host_dead: false,
            aborted: false,
        };
        let r = SimResult {
            flows: vec![mk(100, 1_000_000), mk(100, 2_000_000), mk(200, 1_000_000)],
            ..Default::default()
        };
        let g = throughput_by_size(&r);
        assert_eq!(g.len(), 2);
        assert_eq!(g[0].0, 100);
        assert_eq!(g[0].3, 2);
    }

    #[test]
    fn completion_rate() {
        let r = SimResult {
            flows: vec![
                FlowRecord {
                    size: 1,
                    start: 0,
                    finish: Some(5),
                    retx: 0,
                    trims: 0,
                    host_dead: false,
                    aborted: false,
                },
                FlowRecord {
                    size: 1,
                    start: 0,
                    finish: None,
                    retx: 0,
                    trims: 0,
                    host_dead: false,
                    aborted: false,
                },
            ],
            ..Default::default()
        };
        assert_eq!(r.completion_rate(), 0.5);
    }

    #[test]
    fn host_dead_flows_leave_the_denominator() {
        let mk = |finish, host_dead| FlowRecord {
            size: 1,
            start: 0,
            finish,
            retx: 0,
            trims: 0,
            host_dead,
            aborted: false,
        };
        let r = SimResult {
            // One completed, one stranded, two host-dead.
            flows: vec![
                mk(Some(5), false),
                mk(None, false),
                mk(None, true),
                mk(None, true),
            ],
            ..Default::default()
        };
        assert_eq!(r.host_dead(), 2);
        assert_eq!(r.eligible().count(), 2);
        assert_eq!(r.completion_rate(), 0.5);
        // All flows host-dead: nothing was eligible, nothing failed.
        let all_dead = SimResult {
            flows: vec![mk(None, true)],
            ..Default::default()
        };
        assert_eq!(all_dead.completion_rate(), 1.0);
    }
}
