//! Churn sweep: rolling-reboot (maintenance-roll) schedules as a
//! first-class experiment axis — the node-level, *time-varying*
//! counterpart of the static link-failure `resilience` sweep.
//!
//! Grid: topology × routing scheme × reboot fraction × stagger. Each
//! cell replays the *same* seeded [`FaultPlan::rolling_reboot`]
//! schedule (routers sampled and ordered from the cell's coordinates
//! via [`cell_seed`]) under a wave workload that keeps flows starting
//! throughout the churn window, then measures what actually got
//! delivered:
//!
//! * `host_dead` — flows whose source or destination host sat behind a
//!   dead router at start time; excluded from the denominator (no
//!   scheme can serve a dead host), identical across schemes by
//!   construction.
//! * `completed` / `stranded` — eligible flows that did / did not
//!   finish by the horizon (churn end + one tail).
//! * `on_time` / `goodput_gbps` — completed-flow goodput *sustained
//!   through the roll*: payload bits of flows that completed within
//!   [`ON_TIME_PS`](crate::common::ON_TIME_PS) of injection (one
//!   RTO-driven re-route plus the transfer), per churn-window second. A flow that outwaits a
//!   rebooting router's multi-RTO downtime still counts as `completed`,
//!   but it did not sustain goodput during the event. This is the §V-G
//!   contrast in time-varying form: FatPaths' preprovisioned layers
//!   re-route a cut flow at its next timeout, so it lands on time,
//!   while flow-hash ECMP on a single minimal path replays the same
//!   dead path until the router returns — so ECMP goodput decays with
//!   reboot fraction while layered routing holds.
//!
//! Detection is part of the scheme axis (`*_rep` rows repair routing
//! 50 µs after every event batch), bracketing the design space the
//! same way the resilience sweep does: multipath masking without any
//! control plane vs. control-plane repair.

use crate::common::{
    f, is_smoke, label, on_time_goodput, small_topos, write_summary, write_text, SchemeArm, Table,
    FATPATHS,
};
use fatpaths_net::fault::{Change, FaultPlan};
use fatpaths_net::topo::{TopoKind, Topology};
use fatpaths_sim::metrics::Summary;
use fatpaths_sim::{cell_seed, coord_str, Grid, LoadBalancing, Scenario, SchemeSpec};
use fatpaths_workloads::arrivals::FlowSpec;
use std::io;

/// Fractions of routers rebooted by the roll (sweep axis).
const REBOOT_FRACTIONS: [f64; 2] = [0.05, 0.12];

/// Stagger between consecutive reboots, in µs (sweep axis).
const STAGGERS_US: [u64; 2] = [500, 2_000];

/// Reboot-sampler axis: `uniform` draws routers independently
/// ([`FaultPlan::rolling_reboot`]); `domain` walks failure domains —
/// a fat-tree pod's aggregation layer, a Dragonfly group — in sequence
/// ([`FaultPlan::rolling_domain_reboot`]), concentrating simultaneous
/// downtime inside fate-sharing units the way real maintenance rolls
/// do. Topologies without domain metadata (SF) degrade to the uniform
/// draw, so their two rows coincide by construction.
const SAMPLERS: [&str; 2] = ["uniform", "domain"];

/// Per-router downtime: long against the 2 ms NDP RTO, so a stuck
/// single-path flow pays many timeouts while a layered one re-picks
/// once (a real firmware reboot is seconds; 8 ms = 4 RTOs keeps the
/// same ordering at simulable scale).
const DOWNTIME_PS: u64 = 8_000_000_000; // 8 ms

/// The roll starts here (the first wave of flows launches healthy).
const CHURN_START_PS: u64 = 1_000_000_000; // 1 ms

/// Flow waves launched across the churn window.
const N_WAVES: u64 = 5;

/// Horizon tail past the last revival: enough for one more RTO + a
/// transfer, so late-cut layered flows finish while flows that sat
/// stuck on a down path through the window are cut off.
const TAIL_PS: u64 = 1_500_000_000; // 1.5 ms

/// Payload per flow (4 NDP jumbo packets).
const FLOW_BYTES: u64 = 32 * 1024;

/// The scheme matrix: FatPaths layers vs flow-hash ECMP over minimal
/// paths, each with and without a 50 µs-detection control plane.
fn schemes() -> Vec<SchemeArm> {
    let fat = |name| SchemeArm::new(name, FATPATHS);
    let ecmp = |name| SchemeArm::new(name, SchemeSpec::Minimal).lb(LoadBalancing::EcmpFlow);
    vec![
        fat("fatpaths"),
        ecmp("ecmp"),
        fat("fatpaths_rep").detect(50_000_000),
        ecmp("ecmp_rep").detect(50_000_000),
    ]
}

/// The deterministic churn schedule of one `(topology, fraction,
/// stagger, sampler)` coordinate, plus its end time (`last revival`).
/// The seed ignores the sampler, so uniform and domain rows of one
/// coordinate draw from the same stream (and coincide exactly on
/// domain-less topologies).
fn reboot_plan(topo: &Topology, fraction: f64, stagger_us: u64, sampler: &str) -> (FaultPlan, u64) {
    let seed = cell_seed(
        "churn-faults",
        &[coord_str(&label(topo)), fraction.to_bits(), stagger_us],
    );
    let stagger = stagger_us * 1_000_000; // µs → ps
    let plan = match sampler {
        "domain" => FaultPlan::rolling_domain_reboot(
            topo,
            fraction,
            CHURN_START_PS,
            stagger,
            DOWNTIME_PS,
            seed,
        ),
        _ => FaultPlan::rolling_reboot(topo, fraction, CHURN_START_PS, stagger, DOWNTIME_PS, seed),
    };
    let n = reboots(&plan);
    let end = CHURN_START_PS + n.saturating_sub(1) * stagger + DOWNTIME_PS;
    (plan, end)
}

/// Routers a churn plan reboots: one death each.
fn reboots(plan: &FaultPlan) -> u64 {
    let downs = plan
        .changes()
        .iter()
        .filter(|(_, c)| matches!(c, Change::RouterDown(_)));
    downs.count() as u64
}

/// Wave workload: `N_WAVES` endpoint permutations spread evenly from
/// `t = 0` to the end of the churn window, so reboots hit flows in
/// every phase — before, during, and between their transfers.
fn wave_flows(topo: &Topology, churn_end: u64) -> Vec<FlowSpec> {
    let n = topo.num_endpoints() as u64;
    let gap = churn_end / N_WAVES;
    let mut flows = Vec::new();
    for w in 0..N_WAVES {
        let offset = [21u64, 33, 47, 5, 11][w as usize % 5] % n.max(2);
        flows.extend(
            (0..n)
                .map(|e| FlowSpec {
                    src: e as u32,
                    dst: ((e + offset) % n) as u32,
                    size: FLOW_BYTES,
                    start: w * gap,
                })
                .filter(|fl| fl.src != fl.dst),
        );
    }
    flows
}

/// Metrics of one grid cell, pre-assembly.
struct CellOut {
    rebooted: u64,
    flows: usize,
    host_dead: usize,
    completed: usize,
    on_time: usize,
    goodput_gbps: f64,
    fct: Summary,
    drops: u64,
    unroutable: u64,
    repair_ticks: usize,
    repair_rows: u64,
}

/// Runs the churn grid and returns `(csv_text, summary_text)`,
/// assembled in grid order after the parallel phase (bit-identical for
/// any thread count; fault schedules and workloads are pure functions
/// of cell coordinates).
pub fn churn_matrix_on(
    topos: Vec<Topology>,
    fractions: &[f64],
    staggers_us: &[u64],
) -> (String, String) {
    let arms = schemes();
    let results = Grid::new([
        topos.len(),
        arms.len(),
        fractions.len(),
        staggers_us.len(),
        SAMPLERS.len(),
    ])
    .run(|[ti, si, fi, sti, sai]| {
        let topo = &topos[ti];
        let (plan, churn_end) = reboot_plan(topo, fractions[fi], staggers_us[sti], SAMPLERS[sai]);
        let rebooted = reboots(&plan);
        let flows = wave_flows(topo, churn_end);
        let res = arms[si]
            .on(Scenario::on(topo)
                .workload(&flows)
                .seed(5)
                .horizon(churn_end + TAIL_PS)
                .fault_plan(plan))
            .run();
        // Goodput sustained *through* the roll: only bytes delivered
        // on time count (a flow that outwaits a rebooting router's
        // multi-RTO downtime completed, but it did not sustain goodput
        // during the event), per churn-window second.
        let (on_time, goodput_gbps) = on_time_goodput(&res, churn_end);
        CellOut {
            rebooted,
            flows: res.flows.len(),
            host_dead: res.host_dead(),
            completed: res.completed().count(),
            on_time,
            goodput_gbps,
            fct: Summary::of(&res.fcts(None)),
            drops: res.drops,
            unroutable: res.unroutable,
            repair_ticks: res.repair_ticks(),
            repair_rows: res.repair_rows(),
        }
    });
    let mut table = Table::new(&[
        "topology",
        "scheme",
        "fraction",
        "stagger_us",
        "sampler",
        "rebooted",
        "flows",
        "host_dead",
        "completed",
        "on_time",
        "stranded",
        "goodput_gbps",
        "fct_mean_ms",
        "fct_p99_ms",
        "drops",
        "unroutable",
        "repair_ticks",
        "repair_rows",
    ]);
    let mut summary = String::from(
        "Churn — completed-flow goodput through a rolling reboot (FatPaths vs ECMP)\n",
    );
    for (ti, topo) in topos.iter().enumerate() {
        summary.push_str(&format!(
            "-- {} ({} endpoints, {} routers) --\n",
            label(topo),
            topo.num_endpoints(),
            topo.num_routers()
        ));
        for ([_, si, fi, sti, sai], c) in results.under(ti) {
            let name = arms[si].name;
            let stranded = c.flows - c.host_dead - c.completed;
            table.row(&[
                &label(topo),
                &name,
                &f(fractions[fi]),
                &staggers_us[sti],
                &SAMPLERS[sai],
                &c.rebooted,
                &c.flows,
                &c.host_dead,
                &c.completed,
                &c.on_time,
                &stranded,
                &f(c.goodput_gbps),
                &f(c.fct.mean * 1e3),
                &f(c.fct.p99 * 1e3),
                &c.drops,
                &c.unroutable,
                &c.repair_ticks,
                &c.repair_rows,
            ]);
            // The summary shows the widest stagger only.
            if sti + 1 == staggers_us.len() {
                summary.push_str(&format!(
                    "{:<12} f={:.2} stagger={:>5}us {:<7}: {:>5}/{:<5} done \
                     ({} host_dead, {} stranded), {:>7.3} Gb/s, \
                     {} repair rows\n",
                    name,
                    fractions[fi],
                    staggers_us[sti],
                    SAMPLERS[sai],
                    c.completed,
                    c.flows - c.host_dead,
                    c.host_dead,
                    stranded,
                    c.goodput_gbps,
                    c.repair_rows
                ));
            }
        }
    }
    summary.push_str(
        "Rolling reboots (node-level churn): a dead router takes its hosts out of the\n\
         workload (host_dead) and its whole radix off the network at once. FatPaths'\n\
         preprovisioned layers re-route cut flows one RTO after the hit; flow-hash\n\
         ECMP strands them until the router returns, so its completed-flow goodput\n\
         decays with reboot fraction. Detection + batched repair (*_rep) closes most\n\
         of the gap for both. Domain walks (sampler=domain) concentrate the same\n\
         reboot budget inside one fate-sharing unit — a pod's aggregation layer, a\n\
         DF group — stressing repair harder than scattered uniform draws;\n\
         repair_rows counts the routing rows the control plane rewrote per run.\n",
    );
    (table.into_text(), summary)
}

/// The shipped experiment: small-class SF, DF, and FT3 under the
/// reboot-fraction × stagger rolling-reboot sweep.
pub fn churn(quick: bool) -> io::Result<()> {
    let reduced = quick || is_smoke();
    let kinds: &[TopoKind] = if reduced {
        &[TopoKind::SlimFly, TopoKind::FatTree]
    } else {
        &[TopoKind::SlimFly, TopoKind::Dragonfly, TopoKind::FatTree]
    };
    let (fractions, staggers): (&[f64], &[u64]) = if reduced {
        (&[0.05], &[500])
    } else {
        (&REBOOT_FRACTIONS, &STAGGERS_US)
    };
    let (csv, summary) = churn_matrix_on(small_topos(kinds), fractions, staggers);
    write_text("churn.csv", &csv)?;
    write_summary("churn", &summary)
}
