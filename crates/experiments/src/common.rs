//! Shared plumbing for the experiment harnesses: the one CSV [`Table`],
//! topology sets, scheme arms, and workload generation. Simulation
//! itself goes through the [`Scenario`] builder — harnesses declare a
//! [`SchemeSpec`] (or a [`SchemeArm`] of a scheme axis) instead of
//! hand-wiring tables and configs — and every grid through
//! [`fatpaths_sim::Grid`].

use fatpaths_net::classes::{build, SizeClass};
use fatpaths_net::topo::{fattree::fat_tree, slimfly::slim_fly, TopoKind, Topology};
use fatpaths_sim::{CompileMode, Grid, LoadBalancing, Scenario, SchemeSpec, SimResult};
use fatpaths_workloads::arrivals::{poisson_flows, FlowSpec};
use fatpaths_workloads::mapping::{apply_mapping, random_mapping};
use fatpaths_workloads::patterns::{adversarial_for, Pattern};
use fatpaths_workloads::sizes::FlowSizeDist;
use std::fmt::{Display, Write};
use std::io;
use std::path::PathBuf;

/// Output directory for all experiment artifacts.
pub fn results_dir() -> io::Result<PathBuf> {
    let dir = std::env::var("FATPATHS_RESULTS").unwrap_or_else(|_| "results".into());
    std::fs::create_dir_all(&dir)?;
    Ok(PathBuf::from(dir))
}

/// A CSV artifact: header and rows held together, so neither can gain
/// a column the other lacks. The only CSV writer of the harnesses.
pub struct Table {
    columns: usize,
    text: String,
}

impl Table {
    /// An empty table with the given column names.
    pub fn new(header: &[&str]) -> Table {
        let mut t = Table {
            columns: header.len(),
            text: String::new(),
        };
        t.push_line(header.iter());
        t
    }

    /// Appends one row; cells are anything `Display`. Panics when the
    /// row's arity differs from the header's. Cells containing `,`, `"`
    /// or a line break are quoted per RFC 4180.
    pub fn row(&mut self, cells: &[&dyn Display]) {
        assert!(
            cells.len() == self.columns,
            "row has {} cells, header has {} columns",
            cells.len(),
            self.columns
        );
        self.push_line(cells.iter());
    }

    fn push_line<C: Display>(&mut self, cells: impl Iterator<Item = C>) {
        for (i, c) in cells.enumerate() {
            if i > 0 {
                self.text.push(',');
            }
            let start = self.text.len();
            write!(self.text, "{c}").expect("formatting into a String cannot fail");
            if self.text[start..].contains([',', '"', '\n', '\r']) {
                let quoted = format!("\"{}\"", self.text[start..].replace('"', "\"\""));
                self.text.replace_range(start.., &quoted);
            }
        }
        self.text.push('\n');
    }

    /// The CSV text (what the `*_matrix_on` entry points return).
    pub fn into_text(self) -> String {
        self.text
    }

    /// Writes `results/<name>.csv` and reports the path.
    pub fn write(self, name: &str) -> io::Result<PathBuf> {
        write_text(&format!("{name}.csv"), &self.text)
    }
}

/// Formats a float with fixed precision for CSV cells.
pub fn f(x: f64) -> String {
    format!("{x:.6}")
}

/// The evaluation topology set at a class: SF, DF, HX, XP, SF-JF, FT3.
pub fn topo_set(class: SizeClass, seed: u64) -> Vec<Topology> {
    fatpaths_net::classes::evaluated_kinds()
        .iter()
        .map(|&k| build(k, class, seed))
        .collect()
}

/// Small-class instances of `kinds`, built in parallel.
pub fn small_topos(kinds: &[TopoKind]) -> Vec<Topology> {
    Grid::new([kinds.len()])
        .run(|[i]| build(kinds[i], SizeClass::Small, 1))
        .into_vec()
}

/// One value per topology (a shared workload, say), computed in
/// parallel ahead of the grid that uses it.
pub fn per_topo<R: Send>(topos: &[Topology], f: impl Fn(&Topology) -> R + Sync + Send) -> Vec<R> {
    Grid::new([topos.len()])
        .run(|[ti]| f(&topos[ti]))
        .into_vec()
}

/// The size class of the analysis and NDP figures: Medium, Small
/// under `--quick`.
pub fn class_for(quick: bool) -> SizeClass {
    if quick {
        SizeClass::Small
    } else {
        SizeClass::Medium
    }
}

/// The acceptance pair SF + FT3 with its FatPaths layer count:
/// miniature instances (50-router SF, k = 4 fat tree; 4 layers) when
/// `mini` — what `--quick` and the CI smoke gate run — else the small
/// class at the paper's 9 layers.
pub fn acceptance_pair(mini: bool) -> (Vec<Topology>, usize) {
    if mini {
        let sf = slim_fly(5, 2).expect("q = 5 is a Slim Fly prime power");
        (vec![sf, fat_tree(4, 1)], 4)
    } else {
        (small_topos(&[TopoKind::SlimFly, TopoKind::FatTree]), 9)
    }
}

/// The paper's headline FatPaths configuration: 9 layers, ρ = 0.6.
pub const FATPATHS: SchemeSpec = SchemeSpec::LayeredRandom {
    n_layers: 9,
    rho: 0.6,
};

/// One arm of a scheme axis: the CSV label and everything that
/// distinguishes the arm's [`Scenario`] from its neighbours'.
#[derive(Clone, Copy)]
pub struct SchemeArm {
    /// CSV `scheme` cell.
    pub name: &'static str,
    /// Routing scheme.
    pub spec: SchemeSpec,
    /// Load-balancer override (`None`: the spec's default).
    pub lb: Option<LoadBalancing>,
    /// Run from FIBs compiled in this mode.
    pub compiled: Option<CompileMode>,
    /// Control-plane detection delay in ps (`None`: never repaired).
    pub detect: Option<u64>,
}

impl SchemeArm {
    /// An arm running `spec` with its default balancer, analytic
    /// tables and no control plane.
    pub fn new(name: &'static str, spec: SchemeSpec) -> SchemeArm {
        SchemeArm {
            name,
            spec,
            lb: None,
            compiled: None,
            detect: None,
        }
    }

    /// Overrides the load balancer.
    pub fn lb(mut self, lb: LoadBalancing) -> SchemeArm {
        self.lb = Some(lb);
        self
    }

    /// Runs the arm from compiled FIBs.
    pub fn compiled(mut self, mode: CompileMode) -> SchemeArm {
        self.compiled = Some(mode);
        self
    }

    /// Repairs routing `delay_ps` after every link-state change.
    pub fn detect(mut self, delay_ps: u64) -> SchemeArm {
        self.detect = Some(delay_ps);
        self
    }

    /// Applies the arm to a scenario.
    pub fn on<'a>(&self, sc: Scenario<'a>) -> Scenario<'a> {
        let mut sc = sc.scheme(self.spec);
        if let Some(lb) = self.lb {
            sc = sc.lb(lb);
        }
        if let Some(mode) = self.compiled {
            sc = sc.compiled(mode);
        }
        if let Some(delay) = self.detect {
            sc = sc.detection_delay(delay);
        }
        sc
    }
}

/// Poisson workload from a pattern with web-search sizes, optionally with
/// randomized endpoint mapping (§III-D).
pub fn pattern_workload(
    topo: &Topology,
    pattern: &Pattern,
    lambda: f64,
    window_s: f64,
    randomize: bool,
    seed: u64,
) -> Vec<FlowSpec> {
    let n = topo.num_endpoints() as u64;
    let mut pairs = pattern.flows(n, seed);
    if randomize {
        let m = random_mapping(n as u32, seed ^ 0xA11CE);
        pairs = apply_mapping(&m, &pairs);
    }
    pairs.retain(|&(s, d)| s != d);
    let dist = FlowSizeDist::web_search();
    poisson_flows(&pairs, lambda, window_s, &dist, seed ^ 0xF10)
}

/// The skewed adversarial pattern (§VII-A7) sized to `topo`.
pub fn adversarial_pattern(topo: &Topology) -> Pattern {
    let p = topo.concentration.iter().copied().max().unwrap_or(0);
    adversarial_for(p, topo.num_routers() as u32)
}

/// Poisson arrivals (λ = 100) of 1 MiB flows over the adversarial
/// pattern: the long-flow workload of the layer-count and ρ sweeps.
pub fn adversarial_long_flows(
    topo: &Topology,
    window_s: f64,
    pattern_seed: u64,
    arrival_seed: u64,
) -> Vec<FlowSpec> {
    let pairs = adversarial_pattern(topo).flows(topo.num_endpoints() as u64, pattern_seed);
    let dist = FlowSizeDist::fixed(1 << 20);
    poisson_flows(&pairs, 100.0, window_s, &dist, arrival_seed)
}

/// One endpoint-permutation flow set: endpoint `e` sends `size` bytes to
/// `e + offset (mod n)` at `t = 0` (self-pairs skipped).
pub fn permutation_flows(topo: &Topology, offset: u64, size: u64) -> Vec<FlowSpec> {
    let n = topo.num_endpoints() as u64;
    (0..n)
        .map(|e| FlowSpec {
            src: e as u32,
            dst: ((e + offset) % n) as u32,
            size,
            start: 0,
        })
        .filter(|fl| fl.src != fl.dst)
        .collect()
}

/// Filters out flows recorded before the warmup cutoff (first half of the
/// injection window), per §VII-A8.
pub fn post_warmup(mut result: SimResult, window_s: f64) -> SimResult {
    let cutoff = (window_s * 0.5 * 1e12) as u64;
    result.flows.retain(|fl| fl.start >= cutoff);
    result
}

/// On-time bound for sustained goodput: one 2 ms NDP RTO (the earliest
/// moment a sender can re-route around a silent down-port loss) plus
/// transfer slack. Completions beyond this outwaited the congestion or
/// fault event instead of routing around it.
pub const ON_TIME_PS: u64 = 2_500_000_000; // 2.5 ms

/// Flows that completed within [`ON_TIME_PS`] of injection, and their
/// goodput: on-time payload bits per `window_ps`, in Gb/s.
pub fn on_time_goodput(res: &SimResult, window_ps: u64) -> (usize, f64) {
    let (mut flows, mut bytes) = (0, 0u64);
    for fl in res.completed() {
        if fl.finish.is_some_and(|t| t - fl.start <= ON_TIME_PS) {
            flows += 1;
            bytes += fl.size;
        }
    }
    (flows, bytes as f64 * 8_000.0 / window_ps as f64)
}

/// Writes a fully assembled artifact (a [`Table`]'s text, a trace)
/// under `results/<name>`.
pub fn write_text(name: &str, text: &str) -> io::Result<PathBuf> {
    let path = results_dir()?.join(name);
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Writes a short text summary next to the CSVs.
pub fn write_summary(name: &str, text: &str) -> io::Result<()> {
    let path = results_dir()?.join(format!("{name}.txt"));
    std::fs::write(&path, text)?;
    println!("{text}");
    println!("→ {}", path.display());
    Ok(())
}

/// True if the harness runs in reduced-scale mode.
pub fn is_quick(args: &[String]) -> bool {
    args.iter().any(|a| a == "--quick")
}

/// True when `FATPATHS_SMOKE` is set (and not `0`): the CI smoke gate's
/// even-further-reduced scale. Smoke runs exist to prove every
/// experiment binary still executes end-to-end and emits a non-empty
/// artifact — numbers only need to be produced, not be meaningful — so
/// experiments may shrink grids and size classes beyond `--quick`.
pub fn is_smoke() -> bool {
    std::env::var("FATPATHS_SMOKE").is_ok_and(|v| v != "0")
}

/// Per-topology label for CSV rows.
pub fn label(topo: &Topology) -> String {
    match topo.kind {
        TopoKind::Jellyfish => topo.name.split('(').next().unwrap_or("JF").to_string(),
        _ => topo.kind.label().to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::Table;

    /// A minimal RFC 4180 reader: records of fields, quotes honoured.
    fn read_csv(text: &str) -> Vec<Vec<String>> {
        let mut records = vec![vec![String::new()]];
        let mut quoted = false;
        let mut chars = text.chars().peekable();
        while let Some(c) = chars.next() {
            let record = records.last_mut().unwrap();
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    chars.next();
                    record.last_mut().unwrap().push('"');
                }
                '"' => quoted = !quoted,
                ',' if !quoted => record.push(String::new()),
                '\n' if !quoted => records.push(vec![String::new()]),
                c => record.last_mut().unwrap().push(c),
            }
        }
        assert_eq!(records.pop(), Some(vec![String::new()]), "no final newline");
        records
    }

    #[test]
    #[should_panic(expected = "row has 2 cells, header has 3 columns")]
    fn row_with_the_wrong_arity_panics() {
        Table::new(&["a", "b", "c"]).row(&[&1, &2]);
    }

    #[test]
    fn awkward_cells_round_trip_through_an_rfc4180_reader() {
        let cells = ["layered(n=4,rho=0.6)", "say \"hi\"", "two\nlines", "plain"];
        let mut t = Table::new(&["comma", "quote", "newline", "plain"]);
        t.row(&[&cells[0], &cells[1], &cells[2], &cells[3]]);
        t.row(&[&1.5, &2u64, &"", &'x']);
        let text = t.into_text();
        assert!(text.contains("\"layered(n=4,rho=0.6)\",\"say \"\"hi\"\"\",\"two\nlines\",plain\n"));
        let records = read_csv(&text);
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.len() == 4), "{records:?}");
        assert_eq!(records[1], cells);
        assert_eq!(records[2], ["1.5", "2", "", "x"]);
    }

    #[test]
    fn a_table_without_rows_is_its_header() {
        assert_eq!(Table::new(&["x", "y"]).into_text(), "x,y\n");
    }
}
