//! The differential oracle of the dense group index: a compiler that
//! stores `Vec<FibEntry>` per `(switch, tag)`, builds rules by
//! run-length merging while compiling, finds them by binary search, and
//! prices repair by the stored rule covering an endpoint. The proptests
//! below pin the dense index, its derived rules, its statistics and its
//! repair pricing to this builder.

use crate::compile::CompileMode;
use crate::table::{FibEntry, FibStats, TableBudget, ENTRY_BYTES, GROUP_HDR_BYTES};
use fatpaths_core::repair::RouteRepair;
use fatpaths_core::scheme::{PortSet, RoutingScheme};
use fatpaths_net::graph::RouterId;
use fatpaths_net::topo::Topology;
use rustc_hash::FxHashMap;

/// Per-switch sorted rule vectors plus interned groups.
struct OracleSwitch {
    layers: Vec<Vec<FibEntry>>,
    groups: Vec<PortSet>,
}

impl OracleSwitch {
    fn num_entries(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }
}

/// The stored-rule FIB.
struct OracleFib {
    switches: Vec<OracleSwitch>,
    endpoint_offset: Vec<u32>,
    tag_space: usize,
    raw_entries: u64,
    mode: CompileMode,
}

/// Compiles `scheme` by building and storing every range rule.
fn compile<S: RoutingScheme + ?Sized>(topo: &Topology, scheme: &S, mode: CompileMode) -> OracleFib {
    let nr = topo.num_routers() as u32;
    let tag_space = scheme.tag_space().max(1);
    let dsts: Vec<u32> = (0..nr)
        .filter(|&r| !topo.router_endpoints(r).is_empty())
        .collect();
    let mut raw_entries = 0u64;
    let mut switches = Vec::new();
    for r in 0..nr {
        let mut groups: Vec<PortSet> = Vec::new();
        let mut intern: FxHashMap<Vec<u16>, u32> = FxHashMap::default();
        let mut layers = Vec::with_capacity(tag_space);
        for l in 0..tag_space {
            let mut rules: Vec<FibEntry> = Vec::new();
            for &t in &dsts {
                if t == r {
                    continue;
                }
                let ports = scheme.candidate_ports(l as u8, r, t);
                if ports.is_empty() {
                    continue;
                }
                raw_entries += 1;
                let gid = *intern.entry(ports.as_slice().to_vec()).or_insert_with(|| {
                    groups.push(ports.clone());
                    (groups.len() - 1) as u32
                });
                let range = topo.router_endpoints(t);
                match rules.last_mut() {
                    Some(prev)
                        if mode == CompileMode::Aggregated
                            && prev.hi == range.start
                            && prev.group == gid =>
                    {
                        prev.hi = range.end;
                    }
                    _ => rules.push(FibEntry {
                        lo: range.start,
                        hi: range.end,
                        group: gid,
                    }),
                }
            }
            layers.push(rules);
        }
        switches.push(OracleSwitch { layers, groups });
    }
    let mut endpoint_offset = vec![0u32];
    endpoint_offset.extend((0..nr).map(|r| topo.router_endpoints(r).end));
    OracleFib {
        switches,
        endpoint_offset,
        tag_space,
        raw_entries,
        mode,
    }
}

impl OracleFib {
    /// The stored rule of switch `at` covering endpoint `ep` on `layer`.
    fn stored(&self, at: RouterId, layer: usize, ep: u32) -> Option<FibEntry> {
        let rules = self.switches[at as usize].layers.get(layer)?;
        let i = rules.partition_point(|e| e.hi <= ep);
        rules.get(i).filter(|e| e.lo <= ep).copied()
    }

    fn lookup(&self, at: RouterId, layer: usize, ep: u32) -> Option<&PortSet> {
        let e = self.stored(at, layer, ep)?;
        Some(&self.switches[at as usize].groups[e.group as usize])
    }

    fn stats(&self) -> FibStats {
        let n = self.switches.len();
        let entries = || self.switches.iter().map(OracleSwitch::num_entries);
        let groups = || self.switches.iter().map(|s| s.groups.len());
        let entries_total = entries().sum::<usize>() as u64;
        let groups_total = groups().sum::<usize>() as u64;
        let bytes_total = self
            .switches
            .iter()
            .map(|s| {
                s.num_entries() as u64 * ENTRY_BYTES
                    + s.groups
                        .iter()
                        .map(|g| GROUP_HDR_BYTES + 2 * g.len() as u64)
                        .sum::<u64>()
            })
            .sum();
        FibStats {
            switches: n,
            raw_entries: self.raw_entries,
            entries_total,
            entries_mean: entries_total as f64 / n.max(1) as f64,
            entries_max: entries().max().unwrap_or(0),
            groups_mean: groups_total as f64 / n.max(1) as f64,
            groups_max: groups().max().unwrap_or(0),
            compression: if entries_total > 0 {
                self.raw_entries as f64 / entries_total as f64
            } else {
                1.0
            },
            bytes_total,
        }
    }

    fn overflowing_switches(&self, budget: &TableBudget) -> usize {
        self.switches
            .iter()
            .filter(|s| {
                s.num_entries() > budget.entries as usize || s.groups.len() > budget.groups as usize
            })
            .count()
    }

    /// Rows the overlay `rep` rewrites: run-length merged changed keys
    /// plus the remnants of stored rules split at a segment's ends.
    fn rewritten_rows(&self, rep: &RouteRepair) -> u64 {
        let off = &self.endpoint_offset;
        let aggregated = self.mode == CompileMode::Aggregated;
        let keys = rep.rows().filter(|&((l, _, dst), _)| {
            (l as usize) < self.tag_space && off[dst as usize] < off[dst as usize + 1]
        });
        let close_segment = |s: Option<(RouterId, u8, u32, u32)>| {
            let Some((at, l, seg_lo, seg_hi)) = s else {
                return 0u64;
            };
            let l = l as usize;
            u64::from(self.stored(at, l, seg_lo).is_some_and(|e| e.lo < seg_lo))
                + u64::from(
                    self.stored(at, l, seg_hi - 1)
                        .is_some_and(|e| e.hi > seg_hi),
                )
        };
        let mut rows = 0u64;
        let mut remnants = 0u64;
        let mut prev: Option<(RouterId, u8, u32, &[u16])> = None;
        let mut seg: Option<(RouterId, u8, u32, u32)> = None;
        for ((l, at, dst), ports) in keys {
            let (lo, hi) = (off[dst as usize], off[dst as usize + 1]);
            let merges = aggregated
                && prev.is_some_and(|(pat, pl, phi, pports)| {
                    pat == at && pl == l && phi == lo && pports == ports
                });
            if !merges {
                rows += 1;
            }
            prev = Some((at, l, hi, ports));
            if aggregated {
                match seg {
                    Some((sat, sl, slo, shi)) if sat == at && sl == l && shi == lo => {
                        seg = Some((sat, sl, slo, hi));
                    }
                    _ => {
                        remnants += close_segment(seg);
                        seg = Some((at, l, lo, hi));
                    }
                }
            }
        }
        rows + remnants + close_segment(seg)
    }
}

mod tests {
    use super::*;
    use crate::{CompiledScheme, Fib};
    use fatpaths_core::ecmp::DistanceMatrix;
    use fatpaths_core::fwd::RoutingTables;
    use fatpaths_core::layers::{build_random_layers, LayerConfig};
    use fatpaths_core::repair::DownLinks;
    use fatpaths_core::scheme::MinimalScheme;
    use fatpaths_net::fault::{FaultModel, FaultPlan};
    use fatpaths_net::topo::{dragonfly::dragonfly, fattree::fat_tree, slimfly::slim_fly};
    use proptest::prelude::*;

    /// SF (irregular, host-route shaped), DF (groups contiguous in id
    /// space) and FT3 (core and aggregation routers host no endpoints).
    fn topo_for(pick: u8) -> Topology {
        match pick % 3 {
            0 => slim_fly(5, 2).unwrap(),
            1 => dragonfly(2),
            _ => fat_tree(4, 2),
        }
    }

    /// Dense index vs. oracle on everything the stored rules answered.
    fn assert_matches(topo: &Topology, scheme: &dyn RoutingScheme, fib: &Fib, oracle: &OracleFib) {
        let nr = topo.num_routers() as u32;
        assert_eq!(fib.tag_space(), oracle.tag_space);
        assert_eq!(fib.stats(), oracle.stats());
        let st = fib.stats();
        for budget in [
            TableBudget::default(),
            TableBudget {
                entries: (st.entries_max as u32).saturating_sub(1),
                groups: u32::MAX,
            },
            TableBudget {
                entries: st.entries_mean as u32,
                groups: st.groups_mean as u32,
            },
        ] {
            assert_eq!(
                fib.overflowing_switches(&budget),
                oracle.overflowing_switches(&budget),
                "{budget:?}"
            );
        }
        for at in 0..nr {
            let s = fib.switch(at);
            assert_eq!(s.groups, oracle.switches[at as usize].groups, "switch {at}");
            for l in 0..fib.tag_space() {
                let rules: Vec<FibEntry> = fib.rules(at, l).collect();
                assert_eq!(
                    rules, oracle.switches[at as usize].layers[l],
                    "switch {at} tag {l}"
                );
                for ep in 0..=topo.num_endpoints() as u32 {
                    let got = fib.lookup(at, l, ep);
                    assert_eq!(
                        got.map(PortSet::as_slice),
                        oracle.lookup(at, l, ep).map(PortSet::as_slice),
                        "switch {at} tag {l} ep {ep}"
                    );
                    if ep == topo.num_endpoints() as u32 {
                        assert!(got.is_none(), "past the last endpoint");
                        continue;
                    }
                    let dst = topo.endpoint_router(ep);
                    if dst == at || scheme.candidate_ports(l as u8, at, dst).is_empty() {
                        assert!(got.is_none(), "self/unreachable must miss: {at}->{dst}");
                    }
                }
            }
        }
    }

    /// Compiles `make()` in both modes and checks the dense index, its
    /// statistics and its repair pricing on sampled link failures
    /// against the oracle.
    fn check<S: RoutingScheme + Sync>(topo: &Topology, make: impl Fn() -> S, fault_seed: u64) {
        let plan = FaultPlan::sample(
            topo,
            &FaultModel::UniformFraction { fraction: 0.1 },
            fault_seed,
        );
        let down = DownLinks::from_links(plan.static_failures());
        for mode in [CompileMode::HostRoutes, CompileMode::Aggregated] {
            let cs = CompiledScheme::compile(topo, make(), mode);
            let oracle = compile(topo, cs.inner(), mode);
            assert_matches(topo, cs.inner(), cs.fib(), &oracle);
            let rep = RoutingScheme::repair_routes(&cs, &topo.graph, &down);
            let rep_inner = cs.inner().repair_routes(&topo.graph, &down);
            assert_eq!(
                rep.fib_rows_rewritten,
                oracle.rewritten_rows(&rep_inner),
                "{mode:?}, {} links down",
                down.len()
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(9))]

        #[test]
        fn dense_index_matches_stored_rules_on_random_layers(
            pick in 0u8..3,
            n_layers in 2usize..6,
            rho_pct in 45u32..85,
            seed in 0u64..50_000,
        ) {
            let topo = topo_for(pick);
            let ls = build_random_layers(
                &topo.graph,
                &LayerConfig::new(n_layers, rho_pct as f64 / 100.0, seed),
            );
            let rt = RoutingTables::build(&topo.graph, &ls);
            check(&topo, || rt.clone(), seed);
        }

        #[test]
        fn dense_index_matches_stored_rules_on_minimal_groups(
            pick in 0u8..3,
            seed in 0u64..50_000,
        ) {
            let topo = topo_for(pick);
            let dm = DistanceMatrix::build(&topo.graph);
            check(&topo, || MinimalScheme::new(&topo.graph, &dm), seed);
        }
    }
}
