//! The harness's own instrumentation: spans recorded around each call
//! into a library layer, the per-layer metric ledger, the output
//! checks, and process memory readings. Nothing here reaches into the
//! libraries — in-program tracing is a later change.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span: a named interval with the span that caused it.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recording (`None` for a root).
    pub parent: Option<usize>,
}

/// Handle of an open span, returned by [`Probe::begin`].
#[derive(Clone, Copy)]
pub struct Open(Option<usize>);

/// Spans, ledger and checks of one benchmark invocation.
///
/// With `layers` off (the end-to-end pass) spans and ledger writes are
/// no-ops, so the timed code runs with the harness's tracing off; the
/// output checks and memory readings work in both modes.
pub struct Probe {
    layers: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ledger: BTreeMap<&'static str, f64>,
    failures: Vec<String>,
    peak_rss_kb: u64,
}

impl Probe {
    pub fn new(layers: bool) -> Probe {
        Probe {
            layers,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ledger: BTreeMap::new(),
            failures: Vec::new(),
            peak_rss_kb: 0,
        }
    }

    /// True in the per-layer pass: spans are recorded and the workloads
    /// run their twins and extra checks.
    pub fn layers(&self) -> bool {
        self.layers
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses further spans; close it with
    /// [`Probe::end`].
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.layers {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes the span opened by the matching [`Probe::begin`].
    pub fn end(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span named `name`, on this thread alone:
    /// parallel operations inside `f` execute inline. Every measured
    /// stage goes through here — the reference container's second core
    /// delivers anything between nothing and a full core from one minute
    /// to the next, so only one-thread timings repeat.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.time_pooled(name, || rayon::run_sequential(f))
    }

    /// Runs `f` inside a leaf span with the thread pool available — for
    /// the two-thread twins of the per-layer pass only.
    pub fn time_pooled<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// Records a span measured elsewhere (a sweep cell timed on a pool
    /// thread), as offsets from `base`, under the innermost open span.
    pub fn record(&mut self, name: &'static str, base: Instant, start_s: f64, end_s: f64) {
        if !self.layers {
            return;
        }
        let base_ns = base.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: base_ns + (start_s * 1e9) as u64,
            end_ns: base_ns + (end_s * 1e9) as u64,
            parent: self.open.last().copied(),
        });
    }

    /// Total seconds spent in spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Sets a per-layer metric (ignored in the end-to-end pass).
    pub fn set(&mut self, name: &'static str, value: f64) {
        if self.layers {
            self.ledger.insert(name, value);
        }
    }

    /// A per-layer metric as recorded so far (0 when never set).
    pub fn get(&self, name: &str) -> f64 {
        self.ledger.get(name).copied().unwrap_or(0.0)
    }

    /// An output check: a failed one makes the whole invocation report
    /// `correct: false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Failed output checks so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Folds the process's current peak RSS into the invocation's peak.
    /// `Simulator::run` resets the kernel's high-water mark when it
    /// starts, so the harness samples before and after every run and
    /// keeps the maximum itself.
    pub fn sample_rss(&mut self) {
        self.fold_rss(fatpaths_sim::peak_rss_kb());
    }

    /// Folds a peak-RSS reading taken elsewhere (inside a sweep cell)
    /// into the invocation's peak.
    pub fn fold_rss(&mut self, peak_kb: u64) {
        self.peak_rss_kb = self.peak_rss_kb.max(peak_kb);
    }

    /// Peak RSS seen by [`Probe::sample_rss`], in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_kb as f64 / 1024.0
    }

    /// Self time of every span: its duration minus the part of it that
    /// its child spans cover (children may overlap — sweep cells run on
    /// two threads — so their union is taken).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
                if a < b {
                    children[p].push((a, b));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(s, kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// The recording as NDJSON, one span per line.
    pub fn spans_ndjson(&self, workload: &str) -> String {
        let self_ns = self.self_ns();
        let mut out = String::new();
        for (id, (s, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\": \"{workload}\", \"id\": {id}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {own}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Current resident set size of this process in KiB (Linux `VmRSS`),
/// 0 where `/proc` is unavailable.
pub fn current_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut p = Probe::new(true);
        p.spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` (parallel cell) and sticks out of the parent.
            span("b", 30, 120, Some(0)),
            span("leaf", 12, 20, Some(1)),
        ];
        // root: 100 − |[10, 100)| = 10; a: 30 − 8; b and leaf: whole.
        assert_eq!(p.self_ns(), vec![10, 22, 90, 8]);
        assert_eq!(p.secs("a"), 30e-9);
        let text = p.spans_ndjson("w");
        assert_eq!(text.lines().count(), 4);
        for line in text.lines() {
            let v = crate::json::parse(line).unwrap();
            assert_eq!(v.get("workload").and_then(|w| w.as_str()), Some("w"));
        }
    }

    #[test]
    fn spans_nest_and_are_off_in_the_end_to_end_pass() {
        let mut p = Probe::new(true);
        let outer = p.begin("outer");
        let x = p.time("inner", || 7);
        p.end(outer);
        assert_eq!(x, 7);
        assert_eq!(p.spans.len(), 2);
        assert_eq!(p.spans[1].parent, Some(0));
        assert!(p.spans[0].end_ns >= p.spans[1].end_ns);
        p.set("m", 2.0);
        assert_eq!(p.get("m"), 2.0);

        let mut off = Probe::new(false);
        let outer = off.begin("outer");
        off.time("inner", || ());
        off.end(outer);
        off.set("m", 2.0);
        assert!(off.spans.is_empty());
        assert_eq!(off.get("m"), 0.0);
        off.check(false, || "still checked".into());
        assert_eq!(off.failures().len(), 1);
    }
}
