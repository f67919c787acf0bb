//! The FIB compiler: enumerates a scheme's forwarding function and
//! materializes it as per-switch prefix rules + interned ECMP groups.
//!
//! For every switch `r`, layer tag `l`, and destination router `t` that
//! hosts endpoints, the compiler asks
//! [`RoutingScheme::candidate_ports`]`(l, r, t)` and stores the answer
//! as a rule mapping `t`'s endpoint-id range to an ECMP group. In
//! [`CompileMode::Aggregated`] a run-length pass merges adjacent
//! destination ranges resolving to the same group into one rule —
//! router-major endpoint numbering makes structural domains (fat-tree
//! pods, Dragonfly groups, HyperX rows) contiguous, so the merge is the
//! prefix aggregation §V-E relies on without any per-topology special
//! cases. Destinations with an empty candidate set get **no** rule
//! (lookup miss = unreachable), and local delivery (`t == r`) is the
//! switch's endpoint ports, not network FIB state.
//!
//! Switch rows compile independently and in parallel on the shim pool;
//! output is a pure function of `(topology, scheme, mode)`, so compiled
//! tables are bit-identical at any thread count.
//!
//! [`RoutingScheme::candidate_ports`]: fatpaths_core::scheme::RoutingScheme::candidate_ports

use crate::table::{Fib, FibEntry, SwitchFib};
use fatpaths_core::scheme::RoutingScheme;
use fatpaths_net::topo::Topology;
use rayon::prelude::*;
use rustc_hash::FxHashMap;

/// How destination rules are laid out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompileMode {
    /// One rule per reachable `(layer, destination router)` — the
    /// uncompressed floor every switch could always fall back to.
    HostRoutes,
    /// Adjacent destination ranges sharing an ECMP group merge into one
    /// rule (run-length aggregation over the endpoint address space).
    Aggregated,
}

impl CompileMode {
    /// Stable label for CSV rows.
    pub fn label(self) -> &'static str {
        match self {
            CompileMode::HostRoutes => "host",
            CompileMode::Aggregated => "agg",
        }
    }
}

/// Compiles `scheme` on `topo` into per-switch forwarding state.
pub fn compile<S: RoutingScheme + Sync + ?Sized>(
    topo: &Topology,
    scheme: &S,
    mode: CompileMode,
) -> Fib {
    let nr = topo.num_routers();
    let tag_space = scheme.tag_space().max(1);
    // Destination routers that host endpoints, ascending — the only
    // routers packets are ever destined to (fat-tree aggregation/core
    // routers carry no rules, exactly like their real counterparts).
    let dsts: Vec<u32> = (0..nr as u32)
        .filter(|&r| !topo.router_endpoints(r).is_empty())
        .collect();
    let per_switch: Vec<(SwitchFib, u64)> = (0..nr as u32)
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|r| compile_switch(topo, scheme, mode, r, tag_space, &dsts))
        .collect();
    let mut switches = Vec::with_capacity(nr);
    let mut raw_entries = 0u64;
    for (sf, raw) in per_switch {
        switches.push(sf);
        raw_entries += raw;
    }
    let mut endpoint_offset = Vec::with_capacity(nr + 1);
    endpoint_offset.push(0u32);
    for r in 0..nr as u32 {
        endpoint_offset.push(topo.router_endpoints(r).end);
    }
    Fib {
        switches,
        endpoint_offset,
        tag_space,
        raw_entries,
        mode,
    }
}

/// Compiles one switch's rows; returns the table and its host-route
/// (pre-aggregation) rule count.
fn compile_switch<S: RoutingScheme + Sync + ?Sized>(
    topo: &Topology,
    scheme: &S,
    mode: CompileMode,
    r: u32,
    tag_space: usize,
    dsts: &[u32],
) -> (SwitchFib, u64) {
    let mut groups: Vec<fatpaths_core::scheme::PortSet> = Vec::new();
    let mut intern: FxHashMap<Vec<u16>, u32> = FxHashMap::default();
    let mut layers = Vec::with_capacity(tag_space);
    let mut raw = 0u64;
    for l in 0..tag_space {
        let mut rules: Vec<FibEntry> = Vec::new();
        for &t in dsts {
            if t == r {
                continue;
            }
            let ports = scheme.candidate_ports(l as u8, r, t);
            if ports.is_empty() {
                continue; // no rule: lookup miss = unreachable
            }
            raw += 1;
            let gid = *intern.entry(ports.as_slice().to_vec()).or_insert_with(|| {
                groups.push(ports.clone());
                (groups.len() - 1) as u32
            });
            let range = topo.router_endpoints(t);
            match rules.last_mut() {
                // Run-length merge: contiguous address range, same group.
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
    (SwitchFib { layers, groups }, raw)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBudget;
    use fatpaths_core::ecmp::DistanceMatrix;
    use fatpaths_core::fwd::{PortTables, RoutingTables};
    use fatpaths_core::layers::{build_random_layers, LayerConfig};
    use fatpaths_core::scheme::MinimalScheme;
    use fatpaths_net::topo::fattree::fat_tree;
    use fatpaths_net::topo::slimfly::slim_fly;

    #[test]
    fn host_routes_count_matches_reachable_pairs() {
        let t = slim_fly(5, 2).unwrap();
        let ls = build_random_layers(&t.graph, &LayerConfig::new(3, 0.6, 1));
        let rt = RoutingTables::build(&t.graph, &ls);
        let fib = compile(&t, &rt, CompileMode::HostRoutes);
        let nr = t.num_routers() as u64;
        // Every pair reachable in every layer (fallback to layer 0), so
        // raw = stored = layers · nr · (nr − 1).
        let st = fib.stats();
        assert_eq!(st.raw_entries, 3 * nr * (nr - 1));
        assert_eq!(st.entries_total, st.raw_entries);
        assert_eq!(st.compression, 1.0);
        assert_eq!(fib.tag_space(), 3);
    }

    /// Packets carry a `u8` tag, so a scheme with more than 255 layers
    /// compiles tags `0..255` only: tags 256.. would re-read tags 0...
    #[test]
    fn tag_space_is_capped_at_255_layers() {
        let t = slim_fly(5, 1).unwrap();
        let nr = t.num_routers();
        let ls = build_random_layers(&t.graph, &LayerConfig::new(1, 1.0, 1));
        let rt = RoutingTables::build(&t.graph, &ls);
        let layer0: Vec<u16> = (0..nr as u32)
            .flat_map(|dst| rt.ports().row(0, dst).iter().copied())
            .collect();
        let mut pt = PortTables::new(300, nr);
        for table in pt.layers_mut() {
            table.copy_from_slice(&layer0);
        }
        let fib = compile(&t, &pt, CompileMode::HostRoutes);
        assert_eq!(fib.tag_space(), 255);
    }

    #[test]
    fn aggregation_compresses_fat_tree_up_routes() {
        // Edge routers of a fat tree send everything outside their own
        // range up through the same aggregation port set, so aggregated
        // tables collapse to a handful of rules per switch.
        let t = fat_tree(4, 1);
        let dm = DistanceMatrix::build(&t.graph);
        let ms = MinimalScheme::new(&t.graph, &dm);
        let host = compile(&t, &ms, CompileMode::HostRoutes);
        let agg = compile(&t, &ms, CompileMode::Aggregated);
        let (hs, ags) = (host.stats(), agg.stats());
        assert_eq!(hs.raw_entries, ags.raw_entries);
        assert!(
            ags.entries_total * 2 < hs.entries_total,
            "FT aggregation must compress >2x: {} vs {}",
            ags.entries_total,
            hs.entries_total
        );
        assert!(ags.compression > 2.0);
        // Forwarding state is identical in content.
        for r in 0..t.num_routers() as u32 {
            for &d in &[0u32, 3, 7] {
                if t.endpoint_router(d) == r {
                    continue;
                }
                let a = host.lookup(r, 0, d);
                let b = agg.lookup(r, 0, d);
                assert_eq!(
                    a.map(|p| p.as_slice()),
                    b.map(|p| p.as_slice()),
                    "switch {r} ep {d}"
                );
            }
        }
    }

    #[test]
    fn fat_tree_core_routers_hold_no_destination_rules_for_themselves() {
        // Aggregation and core routers host no endpoints, so no switch
        // stores a rule whose range belongs to them; edge destinations
        // cover the whole endpoint space.
        let t = fat_tree(4, 1);
        let dm = DistanceMatrix::build(&t.graph);
        let ms = MinimalScheme::new(&t.graph, &dm);
        let fib = compile(&t, &ms, CompileMode::Aggregated);
        let core = (t.num_routers() - 1) as u32;
        assert!(t.router_endpoints(core).is_empty());
        // A core switch still forwards toward every edge destination.
        for d in 0..t.num_endpoints() as u32 {
            assert!(
                fib.lookup(core, 0, d).is_some(),
                "core switch missing rule for ep {d}"
            );
        }
    }

    #[test]
    fn ecmp_groups_dedup_across_destinations() {
        // On a fat-tree edge switch, every inter-pod destination shares
        // the same up-port ECMP group: group count stays far below rule
        // count even in host-route mode.
        let t = fat_tree(4, 1);
        let dm = DistanceMatrix::build(&t.graph);
        let ms = MinimalScheme::new(&t.graph, &dm);
        let fib = compile(&t, &ms, CompileMode::HostRoutes);
        let edge = fib.switch(0);
        assert!(
            edge.num_groups() * 2 < edge.num_entries(),
            "groups {} vs entries {}",
            edge.num_groups(),
            edge.num_entries()
        );
        // And the default commodity budget holds this tiny instance.
        assert_eq!(fib.overflowing_switches(&TableBudget::default()), 0);
    }

    #[test]
    fn compile_is_deterministic() {
        let t = slim_fly(5, 1).unwrap();
        let ls = build_random_layers(&t.graph, &LayerConfig::new(4, 0.6, 9));
        let rt = RoutingTables::build(&t.graph, &ls);
        let a = compile(&t, &rt, CompileMode::Aggregated);
        let b = rayon::run_sequential(|| compile(&t, &rt, CompileMode::Aggregated));
        assert_eq!(a.stats(), b.stats());
        for r in 0..t.num_routers() as u32 {
            for l in 0..a.tag_space() {
                assert_eq!(a.switch(r).rules(l), b.switch(r).rules(l));
            }
        }
    }
}
