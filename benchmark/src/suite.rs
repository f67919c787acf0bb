//! `suite` — every workload, end-to-end rounds interleaved, then the
//! per-layer pass, aggregated into one results file — and `compare`,
//! which applies the end-to-end metrics' bounds (the ones
//! `BENCHMARK.json` states) to two such files.

use crate::json::{self, Value};
use crate::metrics::END_TO_END;
use crate::stats::{quartiles, spread};
use crate::workloads::WORKLOADS;
use crate::{out_dir, Options, THREADS};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// How long one end-to-end invocation of the suite measures unless
/// `--seconds` says otherwise: shorter than the driver's 15 s, so that
/// five rounds — enough for real quartiles — fit the five-minute budget.
const SUITE_SECONDS: f64 = 9.0;

/// One child invocation's parsed result line.
struct Child {
    correct: bool,
    /// `(metric, value, unit)` in the order printed.
    metrics: Vec<(String, f64, String)>,
}

/// Runs one workload in a fresh process — a user of the CLI pays the
/// cold start on every run, and it scopes the peak-memory reading —
/// and parses the result object on its last line.
fn run_child(o: &Options, workload: &str, trace: bool, seconds: f64) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ])
    .args(["--seed", &o.seed.to_string()])
    .args(["--seconds", &seconds.to_string()])
    .stderr(Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload} printed nothing"))?;
    let result = json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let metrics = result
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or_else(|| format!("{workload}: result line has no metrics"))?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64);
            let unit = m.get("unit").and_then(Value::as_str);
            match (value, unit) {
                (Some(value), Some(unit)) => Ok((name.clone(), value, unit.to_string())),
                _ => Err(format!("{workload}: metric {name} has no value or unit")),
            }
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Child {
        correct: out.status.success() && result.get("correct") == Some(&Value::Bool(true)),
        metrics,
    })
}

/// Summary statistics of one end-to-end metric over the rounds.
fn distribution(unit: &str, values: &[f64]) -> Value {
    let (q1, median, q3) = quartiles(values);
    Value::obj([
        ("unit", Value::str(unit)),
        ("median", Value::Num(median)),
        (
            "min",
            Value::Num(values.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        ("q1", Value::Num(q1)),
        ("q3", Value::Num(q3)),
        ("n", Value::Num(values.len() as f64)),
        (
            "values",
            Value::Arr(values.iter().map(|&v| Value::Num(v)).collect()),
        ),
    ])
}

/// `suite`: the whole benchmark in one command.
pub fn suite(o: &Options) -> Result<ExitCode, String> {
    if o.rounds == 0 {
        return Err("--rounds must be at least 1".into());
    }
    let seconds = o.seconds.unwrap_or(SUITE_SECONDS);
    let mut ok = true;
    let started = Instant::now();
    // Interleaved: round 1 of every workload, then round 2, ... so that
    // drift of the host over the minutes this takes spreads evenly.
    let mut rounds: Vec<Vec<Child>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    for round in 1..=o.rounds {
        for (w, runs) in WORKLOADS.iter().zip(&mut rounds) {
            eprintln!("[run {round}/{}] {}", o.rounds, w.name);
            runs.push(run_child(o, w.name, false, seconds)?);
        }
    }
    let run_pass_s = started.elapsed().as_secs_f64();
    let mut layers = Vec::new();
    for w in &WORKLOADS {
        eprintln!("[layers] {}", w.name);
        layers.push(run_child(o, w.name, true, seconds)?);
    }
    let layers_pass_s = started.elapsed().as_secs_f64() - run_pass_s;

    let mut workloads = Vec::new();
    let mut spans = String::new();
    for ((w, runs), layer_run) in WORKLOADS.iter().zip(&rounds).zip(&layers) {
        for (i, child) in runs.iter().chain([layer_run]).enumerate() {
            if !child.correct {
                eprintln!(
                    "FAILED: {} (invocation {}) did not pass its checks",
                    w.name,
                    i + 1
                );
                ok = false;
            }
        }
        let mut end_to_end = Vec::new();
        let mut rep_median_s = 0.0;
        for (col, metric) in END_TO_END.iter().enumerate() {
            let values: Vec<f64> = runs.iter().map(|c| c.metrics[col].1).collect();
            let host_time = matches!(metric.name, "setup_s" | "run_s");
            let simulated = !host_time && metric.name != "peak_rss_mb";
            if simulated && values.iter().any(|v| v.to_bits() != values[0].to_bits()) {
                eprintln!(
                    "FAILED: {} {} differs between rounds: {values:?}",
                    w.name, metric.name
                );
                ok = false;
            }
            let (q1, median, q3) = quartiles(&values);
            if host_time {
                rep_median_s += median;
            }
            println!(
                "{} {} {median:?} {} (q1 {q1:?}, q3 {q3:?}, n {})",
                w.name,
                metric.name,
                metric.unit,
                values.len()
            );
            end_to_end.push((metric.name, distribution(metric.unit, &values)));
        }
        let mut per_layer = Vec::new();
        for (name, value, unit) in &layer_run.metrics {
            println!("{} {name} {value:?} {unit}", w.name);
            let entry = Value::obj([
                ("unit", Value::str(unit.as_str())),
                ("value", Value::Num(*value)),
            ]);
            per_layer.push((name.clone(), entry));
            if name == "harness.rep_s" && rep_median_s > 0.0 {
                // Spans-on repetition against the spans-off median: what
                // the harness's own tracing costs.
                let share = value / rep_median_s - 1.0;
                println!("{} harness.trace_overhead_share {share:?} ratio", w.name);
                let entry =
                    Value::obj([("unit", Value::str("ratio")), ("value", Value::Num(share))]);
                per_layer.push(("harness.trace_overhead_share".into(), entry));
            }
        }
        workloads.push(Value::obj([
            ("name", Value::str(w.name)),
            ("end_to_end", Value::obj(end_to_end)),
            ("per_layer", Value::obj(per_layer)),
        ]));
        let path = out_dir().join(format!("{}.spans.ndjson", w.name));
        spans += &std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    }

    // The budget the suite is meant to fit on two cores.
    let (run_budget_s, layers_budget_s) = (300.0, 120.0);
    println!(
        "time budget: run pass {run_pass_s:.0} s of {run_budget_s} s, \
         layers pass {layers_pass_s:.0} s of {layers_budget_s} s"
    );
    if !o.smoke && (run_pass_s > run_budget_s || layers_pass_s > layers_budget_s) {
        eprintln!("over the time budget: cut --rounds before --seconds");
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let results = Value::obj([
        ("harness", Value::str("fatpaths-benchmark")),
        (
            "machine",
            Value::obj([
                ("nproc", Value::Num(nproc as f64)),
                ("threads", Value::Num(THREADS as f64)),
            ]),
        ),
        ("seed", Value::Num(o.seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("rounds", Value::Num(o.rounds as f64)),
        ("smoke", Value::Bool(o.smoke)),
        ("workloads", Value::Arr(workloads)),
        (
            "budget",
            Value::obj([
                ("run_pass_s", Value::Num(run_pass_s)),
                ("layers_pass_s", Value::Num(layers_pass_s)),
            ]),
        ),
        ("checks_passed", Value::Bool(ok)),
        ("claim", Value::Null),
    ]);
    let results_path = o
        .out
        .as_ref()
        .map_or_else(|| out_dir().join("results.json"), std::path::PathBuf::from);
    let trace_path = out_dir().join("trace.ndjson");
    std::fs::write(&results_path, format!("{results}\n"))
        .and_then(|()| std::fs::write(&trace_path, spans))
        .map_err(|e| format!("cannot write the results: {e}"))?;
    println!(
        "results: {}  spans: {}",
        results_path.display(),
        trace_path.display()
    );
    println!("\"claim\": null");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One workload's distribution of one end-to-end metric in a results file.
struct Dist {
    median: f64,
    q1: f64,
    q3: f64,
    values: Vec<f64>,
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workload_entry<'a>(results: &'a Value, name: &str) -> Option<&'a Value> {
    results
        .get("workloads")?
        .as_arr()?
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

fn dist_of(results: &Value, workload: &str, metric: &str) -> Option<Dist> {
    let d = workload_entry(results, workload)?
        .get("end_to_end")?
        .get(metric)?;
    let num = |k: &str| d.get(k).and_then(Value::as_f64);
    Some(Dist {
        median: num("median")?,
        q1: num("q1")?,
        q3: num("q3")?,
        values: d
            .get("values")?
            .as_arr()?
            .iter()
            .filter_map(Value::as_f64)
            .collect(),
    })
}

/// Median over the workloads of the host-reference kernel's time.
fn calibration(results: &Value) -> Option<f64> {
    let times: Vec<f64> = results
        .get("workloads")?
        .as_arr()?
        .iter()
        .filter_map(|w| {
            w.get("per_layer")?
                .get("harness.calib_s")?
                .get("value")?
                .as_f64()
        })
        .collect();
    (!times.is_empty()).then(|| quartiles(&times).1)
}

/// The verdict on one (workload, metric) pair: is `b` worse than `a`
/// by more than `bound` of `a`'s median?
fn verdict(a: &Dist, b: &Dist, lower_is_better: bool, bound: f64) -> &'static str {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (b.median - a.median) / a.median.abs();
    if worse_by > bound {
        return "worse";
    }
    // A spread wider than the bound cannot resolve a change of the
    // bound's size — unless every run of b beats every run of a.
    let every_b_better = a
        .values
        .iter()
        .all(|&x| b.values.iter().all(|&y| sign * (y - x) < 0.0));
    if spread(&a.values).max(spread(&b.values)) > bound && !every_b_better {
        return "unresolved";
    }
    "ok"
}

/// `compare a.json b.json`: one row per (workload, end-to-end metric)
/// with both medians, quartiles and the verdict under the metric's
/// bound. Exits 0 only when every row is `ok`.
pub fn compare(files: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = files else {
        return Err("compare takes two results files".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "| workload | metric | a median [q1, q3] | b median [q1, q3] | change | bound | verdict |"
    );
    println!("|---|---|---|---|---|---|---|");
    let mut not_ok = 0;
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (name, unit) = (m.name, m.unit);
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let (Some(da), Some(db)) = (dist_of(&a, w.name, name), dist_of(&b, w.name, name))
            else {
                println!(
                    "| {} | {name} | missing | missing | | | unresolved |",
                    w.name
                );
                not_ok += 1;
                continue;
            };
            let v = verdict(&da, &db, m.better == "lower", bound);
            not_ok += (v != "ok") as u32;
            println!(
                "| {} | {name} | {:.5} [{:.5}, {:.5}] {unit} | {:.5} [{:.5}, {:.5}] {unit} | {:+.2}% | {:.0}% | {v} |",
                w.name,
                da.median,
                da.q1,
                da.q3,
                db.median,
                db.q1,
                db.q3,
                (db.median - da.median) / da.median.abs() * 100.0,
                bound * 100.0,
            );
        }
    }
    if let (Some(ca), Some(cb)) = (calibration(&a), calibration(&b)) {
        let drift = (cb - ca) / ca;
        let note = if drift.abs() > 0.10 {
            " — NOISY HOST: the sets are not comparable"
        } else {
            ""
        };
        println!(
            "\nhost reference kernel: a {ca:.4} s, b {cb:.4} s ({:+.1}%){note}",
            drift * 100.0
        );
    }
    println!("{not_ok} rows not ok");
    Ok(if not_ok == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(values: &[f64]) -> Dist {
        let (q1, median, q3) = quartiles(values);
        Dist {
            median,
            q1,
            q3,
            values: values.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = dist(&[1.00, 1.01, 0.99, 1.00, 1.02]);
        // Within the bound, tight spread.
        assert_eq!(
            verdict(&a, &dist(&[1.05, 1.04, 1.06, 1.05, 1.05]), true, 0.10),
            "ok"
        );
        // Worse by more than the bound (and better when higher is better).
        let slow = dist(&[1.20, 1.21, 1.19, 1.2, 1.22]);
        assert_eq!(verdict(&a, &slow, true, 0.10), "worse");
        assert_eq!(verdict(&a, &slow, false, 0.10), "ok");
        assert_eq!(verdict(&slow, &a, false, 0.10), "worse");
        // Spread wider than the bound: cannot tell ...
        let noisy = dist(&[0.8, 1.3, 1.0, 0.9, 1.2]);
        assert_eq!(verdict(&a, &noisy, true, 0.10), "unresolved");
        // ... unless every run of b beats every run of a.
        let fast_noisy = dist(&[0.5, 0.9, 0.7, 0.6, 0.8]);
        assert_eq!(verdict(&a, &fast_noisy, true, 0.10), "ok");
        // Deterministic metrics: equal is ok, any worsening past the bound is not.
        let one = dist(&[1.0, 1.0, 1.0]);
        assert_eq!(verdict(&one, &one, false, 0.01), "ok");
        assert_eq!(
            verdict(&one, &dist(&[0.98, 0.98, 0.98]), false, 0.01),
            "worse"
        );
    }

    #[test]
    fn distributions_round_trip_through_the_results_file() {
        let values = [3.0, 1.0, 2.0, 4.0];
        let results = Value::obj([(
            "workloads",
            Value::Arr(vec![Value::obj([
                ("name", Value::str("w")),
                (
                    "end_to_end",
                    Value::obj([("run_s", distribution("s", &values))]),
                ),
                (
                    "per_layer",
                    Value::obj([(
                        "harness.calib_s",
                        Value::obj([("unit", Value::str("s")), ("value", Value::Num(0.25))]),
                    )]),
                ),
            ])]),
        )]);
        let back = json::parse(&results.to_string()).unwrap();
        let d = dist_of(&back, "w", "run_s").unwrap();
        assert_eq!((d.q1, d.median, d.q3), quartiles(&values));
        assert_eq!(d.values, values);
        assert!(dist_of(&back, "w", "missing").is_none());
        assert!(dist_of(&back, "other", "run_s").is_none());
        assert_eq!(calibration(&back), Some(0.25));
    }
}
