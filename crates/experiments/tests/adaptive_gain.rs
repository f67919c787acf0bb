//! Acceptance pin for the adaptive flowlet sweep: on every topology of
//! the acceptance pair at least one congestion-dominated cell
//! (heavy-hitter or incast, either routing) must show adaptive on-time
//! goodput at or above its oblivious twin, and the adaptive data path
//! must demonstrably engage — some cell's packet-visible counters
//! (trims, FCT) must differ from the oblivious run, proving boundary
//! decisions actually fired rather than the sweep comparing a no-op
//! against itself. The grid is deterministic at any thread and shard
//! count (see `parallel_parity` / `shard_parity`), so these pins are
//! stable across machines.

use fatpaths_experiments::adaptive::adaptive_matrix_on;
use fatpaths_net::topo::slimfly::slim_fly;

/// One parsed CSV row of the adaptive sweep artifact.
struct Row {
    topology: String,
    matrix: String,
    routing: String,
    boundary: String,
    goodput_gbps: f64,
    trims: u64,
    fct_mean_ms: f64,
    fct_p99_ms: f64,
}

/// Splits one CSV line into fields, honouring RFC 4180 quotes (the
/// scheme label `layered(n=4,rho=0.6)` carries a comma).
fn split_csv(line: &str) -> Vec<String> {
    let mut fields = vec![String::new()];
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                chars.next();
                fields.last_mut().unwrap().push('"');
            }
            '"' => quoted = !quoted,
            ',' if !quoted => fields.push(String::new()),
            c => fields.last_mut().unwrap().push(c),
        }
    }
    fields
}

/// Parses the artifact, locating every column by its header name.
fn parse(csv: &str) -> Vec<Row> {
    let mut lines = csv.lines();
    let header = split_csv(lines.next().expect("header row"));
    let col = |name: &str| {
        header
            .iter()
            .position(|h| h == name)
            .unwrap_or_else(|| panic!("no column {name} in {header:?}"))
    };
    let (topology, matrix, routing, boundary) = (
        col("topology"),
        col("matrix"),
        col("routing"),
        col("boundary"),
    );
    let (goodput, trims, fct_mean, fct_p99) = (
        col("goodput_gbps"),
        col("trims"),
        col("fct_mean_ms"),
        col("fct_p99_ms"),
    );
    lines
        .map(|line| {
            let c = split_csv(line);
            assert_eq!(c.len(), header.len(), "ragged row: {line}");
            Row {
                topology: c[topology].clone(),
                matrix: c[matrix].clone(),
                routing: c[routing].clone(),
                boundary: c[boundary].clone(),
                goodput_gbps: c[goodput].parse().unwrap(),
                trims: c[trims].parse().unwrap(),
                fct_mean_ms: c[fct_mean].parse().unwrap(),
                fct_p99_ms: c[fct_p99].parse().unwrap(),
            }
        })
        .collect()
}

#[test]
fn adaptive_meets_oblivious_on_a_congested_cell_per_topology() {
    rayon::ensure_pool(4);
    let (csv, summary) = adaptive_matrix_on(
        vec![
            slim_fly(5, 2).unwrap(),
            fatpaths_net::topo::fattree::fat_tree(4, 1),
        ],
        4,
        0.6,
    );
    let rows = parse(&csv);
    // The goodput column is the goodput the summary reports: the first
    // summary line after the SF banner is SF/worstcase/static, and its
    // two Gb/s figures are the CSV's oblivious and adaptive cells. (A
    // parser that reads `trims` for `goodput_gbps` fails here.)
    let line = summary.lines().nth(2).expect("SF worstcase summary line");
    assert!(line.starts_with("worstcase static"), "{line}");
    let said: Vec<&str> = line
        .split_whitespace()
        .zip(line.split_whitespace().skip(1))
        .filter_map(|(v, unit)| (unit == "Gb/s").then_some(v))
        .collect();
    let cells: Vec<String> = rows
        .iter()
        .filter(|r| r.topology == "SF" && r.matrix == "worstcase" && r.routing == "static")
        .map(|r| format!("{:.4}", r.goodput_gbps))
        .collect();
    assert_eq!(said, cells, "summary goodput vs CSV goodput_gbps");
    for topo in ["SF", "FT3"] {
        let mut met = false;
        let mut engaged = false;
        for obl in rows
            .iter()
            .filter(|r| r.topology == topo && r.boundary == "oblivious")
        {
            let ada = rows
                .iter()
                .find(|r| {
                    r.topology == topo
                        && r.matrix == obl.matrix
                        && r.routing == obl.routing
                        && r.boundary == "adaptive"
                })
                .unwrap_or_else(|| {
                    panic!(
                        "missing adaptive twin for {topo}/{}/{}",
                        obl.matrix, obl.routing
                    )
                });
            // The acceptance cell: a skewed or incast matrix where
            // queue-depth steering holds or beats the oblivious draw.
            if obl.matrix != "worstcase" && ada.goodput_gbps >= obl.goodput_gbps {
                met = true;
            }
            if ada.trims != obl.trims
                || ada.fct_mean_ms != obl.fct_mean_ms
                || ada.fct_p99_ms != obl.fct_p99_ms
            {
                engaged = true;
            }
        }
        assert!(
            met,
            "{topo}: no heavy-hitter/incast cell with adaptive goodput >= oblivious"
        );
        assert!(
            engaged,
            "{topo}: adaptive runs are byte-identical to oblivious — boundary decisions never fired"
        );
    }
}
