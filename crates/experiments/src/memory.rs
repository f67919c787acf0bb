//! Memory sweep: the paper's routing-table overhead analysis (§V-E,
//! §VII-C) made a first-class experiment — how much switch-resident
//! forwarding state does layered routing actually cost, topology by
//! topology, and does prefix aggregation keep it inside commodity
//! table budgets?
//!
//! Grid: topology × routing scheme × layer count × compile mode
//! ({host-routes, aggregated}). Each cell builds the scheme, compiles
//! it to per-switch FIBs with `fatpaths_fib`, and reports entry counts
//! (mean + max per switch), ECMP group counts, the compression ratio of
//! aggregation over host routes, a byte estimate, and how many switches
//! overflow a low-end commodity [`TableBudget`]. The paper's
//! deployability claim shows up directly in the numbers: structured
//! topologies (fat tree, Dragonfly, HyperX) collapse under aggregation
//! because their fate-sharing domains occupy contiguous endpoint-id
//! ranges, while irregular ones (SF, JF, XP) stay near the host-route
//! floor and pay for layers linearly.
//!
//! Everything is a pure function of the grid coordinates, so the CSV is
//! byte-identical at any thread count (pinned by `parallel_parity`).

use crate::common::{f, is_smoke, label, small_topos, write_summary, write_text, Table};
use fatpaths_fib::{compile, CompileMode, TableBudget};
use fatpaths_net::classes::evaluated_kinds;
use fatpaths_net::topo::{TopoKind, Topology};
use fatpaths_sim::{Grid, Scenario, SchemeSpec};
use std::io;

/// Layer counts swept for the layered scheme (the §V-B knob that
/// multiplies table state).
const LAYER_COUNTS: [usize; 3] = [3, 6, 9];

/// Compile modes swept.
const MODES: [CompileMode; 2] = [CompileMode::HostRoutes, CompileMode::Aggregated];

/// The scheme axis: FatPaths layers at each swept count, plus
/// minimal-path ECMP (multi-port groups — the group-dedup stress case).
fn schemes(layer_counts: &[usize]) -> Vec<(&'static str, SchemeSpec)> {
    let mut out: Vec<(&'static str, SchemeSpec)> = layer_counts
        .iter()
        .map(|&n| {
            (
                "fatpaths",
                SchemeSpec::LayeredRandom {
                    n_layers: n,
                    rho: 0.6,
                },
            )
        })
        .collect();
    out.push(("ecmp", SchemeSpec::Minimal));
    out
}

/// Metrics of one grid cell, pre-assembly.
struct CellOut {
    layers: usize,
    stats: fatpaths_fib::FibStats,
    overflow: usize,
}

/// Runs the memory grid and returns `(csv_text, summary_text)`,
/// assembled in grid order after the parallel phase (bit-identical for
/// any thread count; compilation is deterministic per cell).
pub fn memory_matrix_on(topos: Vec<Topology>, layer_counts: &[usize]) -> (String, String) {
    let specs = schemes(layer_counts);
    let budget = TableBudget::default();
    let results = Grid::new([topos.len(), specs.len(), MODES.len()]).run(|[ti, si, mi]| {
        let topo = &topos[ti];
        let scheme = Scenario::on(topo)
            .scheme(specs[si].1)
            .seed(1)
            .build_scheme();
        let fib = compile(topo, &scheme, MODES[mi]);
        CellOut {
            layers: fib.tag_space(),
            stats: fib.stats(),
            overflow: fib.overflowing_switches(&budget),
        }
    });
    let mut table = Table::new(&[
        "topology",
        "scheme",
        "layers",
        "mode",
        "switches",
        "endpoints",
        "raw_entries",
        "entries_total",
        "entries_mean",
        "entries_max",
        "groups_mean",
        "groups_max",
        "compression",
        "kib_total",
        "overflow_switches",
    ]);
    let mut summary = String::from(
        "Memory — per-switch FIB state of layered routing (entries / groups / budget)\n",
    );
    for (ti, topo) in topos.iter().enumerate() {
        summary.push_str(&format!(
            "-- {} ({} routers, {} endpoints) --\n",
            label(topo),
            topo.num_routers(),
            topo.num_endpoints()
        ));
        for ([_, si, mi], c) in results.under(ti) {
            let (name, mode, s) = (specs[si].0, MODES[mi].label(), &c.stats);
            table.row(&[
                &label(topo),
                &name,
                &c.layers,
                &mode,
                &s.switches,
                &topo.num_endpoints(),
                &s.raw_entries,
                &s.entries_total,
                &f(s.entries_mean),
                &s.entries_max,
                &f(s.groups_mean),
                &s.groups_max,
                &f(s.compression),
                &f(s.bytes_total as f64 / 1024.0),
                &c.overflow,
            ]);
            summary.push_str(&format!(
                "{:<9} layers={:<2} {:<4}: {:>8.1} entries/switch (max {:>6}), \
                 {:>6.1} groups, {:>6.2}x compressed, {:>4} over budget\n",
                name,
                c.layers,
                mode,
                s.entries_mean,
                s.entries_max,
                s.groups_mean,
                s.compression,
                c.overflow
            ));
        }
    }
    summary.push_str(&format!(
        "Budget: {} rules / {} ECMP groups per switch (a low-end commodity ToR).\n\
         Aggregation merges adjacent destination ranges that share an ECMP group:\n\
         structured topologies (FT3/DF/HX) collapse toward one rule per remote\n\
         domain, irregular ones (SF/JF/XP) stay near host routes — the shape of the\n\
         paper's memory-overhead argument across the whole topology zoo.\n",
        budget.entries, budget.groups
    ));
    (table.into_text(), summary)
}

/// The shipped experiment: the full topology zoo (the five low-diameter
/// families + fat tree + the complete graph) at the small class under
/// the layer-count × compile-mode sweep.
pub fn memory(quick: bool) -> io::Result<()> {
    let kinds: Vec<TopoKind> = if is_smoke() {
        vec![TopoKind::SlimFly, TopoKind::FatTree]
    } else {
        let mut k = evaluated_kinds().to_vec();
        k.push(TopoKind::Complete);
        k
    };
    let layer_counts: &[usize] = if is_smoke() {
        &[3]
    } else if quick {
        &[3, 9]
    } else {
        &LAYER_COUNTS
    };
    let (csv, summary) = memory_matrix_on(small_topos(&kinds), layer_counts);
    write_text("memory.csv", &csv)?;
    write_summary("memory", &summary)
}
