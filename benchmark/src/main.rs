//! The repository's benchmark: six named workloads, seven end-to-end
//! metrics, a per-layer ledger. See `benchmark/README.md`.
//!
//! ```text
//! fatpaths-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! fatpaths-benchmark suite [--rounds R] [--seed N] [--seconds S] [--smoke] [--out FILE]
//! fatpaths-benchmark compare <a.json> <b.json>
//! fatpaths-benchmark spec                     # prints BENCHMARK.json
//! ```
//!
//! The first form is what the benchmark driver calls: one workload in
//! one process. `--trace 0` is the end-to-end pass — the workload is
//! repeated for `--seconds` with the harness's spans off, and the host
//! timings are medians over the repetitions. `--trace 1` is the
//! per-layer pass — one repetition with spans on, plus the twins the
//! ratio metrics need. Both print one `workload metric value unit` line
//! per metric, run the output checks, and end with the result object
//! the driver reads.

mod json;
mod metrics;
mod probe;
mod stats;
mod suite;
mod workloads;

use json::Value;
use metrics::{Metric, END_TO_END, PER_LAYER};
use probe::Probe;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Params, Rep, Workload, WORKLOADS};

/// The pool size: the core count of the reference container. Measured
/// stages run on one thread of it (see [`Probe::time`]); the second
/// serves the two-thread twins of the per-layer pass.
const THREADS: usize = 2;

/// How long one end-to-end invocation measures unless `--seconds` says
/// otherwise; `run_seconds` in `BENCHMARK.json`.
const RUN_SECONDS: f64 = 15.0;

/// Repetitions of the end-to-end pass, however short `--seconds` is:
/// below three a median is just a sample.
const MIN_REPS: usize = 3;

/// Where the per-layer pass and the suite leave their files.
fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Command-line options of all three forms.
struct Options {
    workload: Option<String>,
    seed: u64,
    /// `None`: the form's default ([`RUN_SECONDS`], or the suite's).
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    rounds: usize,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        rounds: 5,
        out: None,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value("a workload name")?),
            "--seed" => o.seed = parse_number(&value("a whole number")?, arg)?,
            "--seconds" => {
                let seconds: f64 = parse_number(&value("a number of seconds")?, arg)?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(format!("--seconds cannot take {seconds}"));
                }
                o.seconds = Some(seconds);
            }
            "--rounds" => o.rounds = parse_number(&value("a whole number")?, arg)?,
            "--out" => o.out = Some(value("a file name")?),
            "--trace" => {
                o.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--smoke" => o.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => o.positional.push(arg.clone()),
        }
    }
    Ok(o)
}

fn parse_number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} cannot take {text:?}"))
}

fn find_workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })
}

/// A fixed integer/heap kernel, timed in every per-layer pass: it does
/// the same work on every commit, so a change in it is the host, not
/// the code (`compare` flags a set as noisy when it moves by > 10%).
fn calibrate() -> f64 {
    let start = Instant::now();
    let mut heap = std::collections::BinaryHeap::new();
    let (mut x, mut acc) = (0x9e37_79b9_7f4a_7c15u64, 0u64);
    for i in 0..8_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(x);
        if i % 4 == 3 {
            acc = acc.wrapping_add(heap.pop().unwrap_or(0));
        }
    }
    std::hint::black_box((acc, heap.len()));
    start.elapsed().as_secs_f64()
}

/// One invocation's measurements, ready to print.
struct Outcome {
    values: Vec<(&'static Metric, f64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// The end-to-end pass: repeats the workload for `seconds` (at least
/// [`MIN_REPS`] times) and reports medians of the host timings.
fn end_to_end_pass(w: &Workload, params: &Params, seconds: f64) -> Outcome {
    let mut probe = Probe::new(false);
    let begin = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        reps.push(w.run(&mut probe, params));
        let elapsed = begin.elapsed().as_secs_f64();
        let per_rep = elapsed / reps.len() as f64;
        if reps.len() >= MIN_REPS && elapsed + per_rep > seconds {
            break;
        }
    }
    let first = &reps[0].sim;
    probe.check(reps.iter().all(|r| r.sim == *first), || {
        format!(
            "{}: repetitions of one seed gave different simulated results",
            w.name
        )
    });
    let column = |f: fn(&Rep) -> f64| stats::median(&reps.iter().map(f).collect::<Vec<_>>());
    let values = [
        column(|r| r.setup_s),
        column(|r| r.run_s),
        probe.peak_rss_mb(),
        first.completion_share(),
        first.fct_p50_us,
        first.fct_p99_us,
        first.goodput_gbps,
    ];
    Outcome {
        values: END_TO_END.iter().zip(values).collect(),
        attempted: first.eligible * reps.len() as u64,
        failed: first.failed() * reps.len() as u64,
        failures: probe.failures().to_vec(),
    }
}

/// The per-layer pass: one repetition with spans on (the workload also
/// runs its twins), the ledger as metrics, the spans as NDJSON.
fn per_layer_pass(w: &Workload, params: &Params) -> Outcome {
    let mut probe = Probe::new(true);
    probe.set("harness.calib_s", calibrate());
    probe.set("harness.threads", rayon::current_num_threads() as f64);
    let rep_span = probe.begin("rep");
    let rep = w.run(&mut probe, params);
    probe.end(rep_span);
    let rep_s = rep.setup_s + rep.run_s;
    probe.set("harness.rep_s", rep_s);
    probe.set("sim.run_share", probe.get("sim.run_s") / rep_s);
    let path = out_dir().join(format!("{}.spans.ndjson", w.name));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, probe.spans_ndjson(w.name)));
    probe.check(written.is_ok(), || {
        format!("cannot write {}: {written:?}", path.display())
    });
    Outcome {
        values: PER_LAYER.iter().map(|m| (m, probe.get(m.name))).collect(),
        attempted: rep.sim.eligible,
        failed: rep.sim.failed(),
        failures: probe.failures().to_vec(),
    }
}

/// Runs one workload in this process and prints its result.
fn run_workload(o: &Options) -> Result<ExitCode, String> {
    let name = o.workload.as_deref().ok_or("--workload is required")?;
    let w = find_workload(name)?;
    let threads = rayon::ensure_pool(THREADS);
    if threads != THREADS {
        return Err(format!(
            "the pool has {threads} threads, the benchmark needs {THREADS}"
        ));
    }
    let params = Params {
        seed: o.seed,
        smoke: o.smoke,
    };
    let outcome = if o.trace {
        per_layer_pass(w, &params)
    } else {
        end_to_end_pass(w, &params, o.seconds.unwrap_or(RUN_SECONDS))
    };
    let mut correct = outcome.failures.is_empty();
    for failure in &outcome.failures {
        eprintln!("CHECK FAILED: {failure}");
    }
    for (metric, value) in &outcome.values {
        if !value.is_finite() {
            eprintln!("CHECK FAILED: {} is not a finite number", metric.name);
            correct = false;
        }
        println!("{} {} {value:?} {}", w.name, metric.name, metric.unit);
    }
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.values)
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `BENCHMARK.json`, written from the catalogue (`spec > BENCHMARK.json`
/// after editing `metrics.rs` or `WORKLOADS`; a test compares the two).
fn spec() -> Value {
    let strings = |list: &[&str]| Value::Arr(list.iter().map(|s| Value::str(*s)).collect());
    let metric = |m: &Metric| {
        let mut entry = vec![
            ("name", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            ("better", Value::str(m.better)),
        ];
        entry.extend(m.bound.map(|b| ("bound", Value::Num(b))));
        Value::obj(entry)
    };
    let workload =
        |w: &Workload| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]);
    Value::obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::Num(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(WORKLOADS.iter().map(workload).collect()),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}

/// The result object the driver reads, on one line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[(&'static Metric, f64)],
) -> String {
    let metrics = Value::obj(values.iter().map(|(metric, value)| {
        let entry = Value::obj([
            ("value", Value::Num(*value)),
            ("unit", Value::str(metric.unit)),
        ]);
        (metric.name, entry)
    }));
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        attempted.max(1)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        parse_options(&args).and_then(|o| match o.positional.first().map(String::as_str) {
            None => run_workload(&o),
            Some("suite") => suite::suite(&o),
            Some("compare") => suite::compare(&o.positional[1..]),
            Some("spec") => {
                print!("{}", spec().pretty());
                Ok(ExitCode::SUCCESS)
            }
            Some(other) => Err(format!("unknown command {other:?}")),
        });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("fatpaths-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let o = parse_options(&args(&[
            "--workload",
            "hpc_ndp_sf",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("hpc_ndp_sf"));
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.smoke),
            (7, Some(10.0), true, false)
        );
        let d = parse_options(&args(&["--workload", "x"])).unwrap();
        assert_eq!((d.seed, d.trace), (1, false));
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--bogus"],
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad:?}");
        }
        assert!(find_workload("nope").is_err());
    }

    #[test]
    fn names_are_plain_and_unique() {
        let plain = |s: &str| {
            s.len() <= 64
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        };
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(plain(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }

    /// `BENCHMARK.json` is the driver's copy of the catalogue in
    /// `metrics.rs` / `WORKLOADS`; the two must say the same.
    #[test]
    fn benchmark_json_matches_the_harness() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(committed, spec(), "regenerate with `spec > BENCHMARK.json`");
        let bounds: Vec<f64> = END_TO_END.iter().filter_map(|m| m.bound).collect();
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25));
        // Set-up time carries the largest bound.
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert_eq!(bounds[0], bounds.iter().copied().fold(0.0, f64::max));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(spec().pretty().len() < 64 * 1024);
    }

    #[test]
    fn result_line_is_the_drivers_shape() {
        let line = result_line(true, 1000, 0, &[(&END_TO_END[1], 1.25)]);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"run_s": {"value": 1.25, "unit": "s"}}}"#
        );
        let back = json::parse(&line).unwrap();
        let keys: Vec<&str> = back
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(result_line(false, 0, 0, &[]).contains("\"attempted\": 1,"));
    }

    /// Every workload at toy size, both passes: checks on (among them
    /// that repetitions and twins of one seed agree), timings ignored.
    /// Also: the seed changes the inputs (the digest moves) but not the
    /// metric names.
    #[test]
    fn smoke_every_workload() {
        assert_eq!(rayon::ensure_pool(THREADS), THREADS);
        let digest = |o: &Outcome| {
            let found = o.values.iter().find(|(m, _)| m.name == "sim.digest");
            found.expect("the digest is a per-layer metric").1
        };
        let names = |o: &Outcome| o.values.iter().map(|(m, _)| m.name).collect::<Vec<_>>();
        for w in &WORKLOADS {
            let smoke = |seed| Params { seed, smoke: true };
            let run = end_to_end_pass(w, &smoke(1), 0.0);
            assert_eq!(run.failures, Vec::<String>::new(), "{}", w.name);
            assert_eq!(run.failed, 0, "{}", w.name);
            assert!(run.attempted > 0, "{}", w.name);
            for (m, v) in &run.values {
                assert!(v.is_finite() && *v > 0.0, "{} {} = {v}", w.name, m.name);
            }
            let layers = per_layer_pass(w, &smoke(1));
            assert_eq!(layers.failures, Vec::<String>::new(), "{}", w.name);
            let other_seed = per_layer_pass(w, &smoke(2));
            assert_eq!(other_seed.failures, Vec::<String>::new(), "{}", w.name);
            assert_ne!(digest(&layers), digest(&other_seed), "{}", w.name);
            assert_eq!(names(&layers), names(&other_seed), "{}", w.name);
        }
    }
}
