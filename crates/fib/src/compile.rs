//! The FIB compiler: enumerates a scheme's forwarding function and
//! materializes it as one dense group index per switch + interned ECMP
//! groups.
//!
//! For every switch `r`, layer tag `l`, and destination router `t` that
//! hosts endpoints, the compiler asks
//! [`RoutingScheme::candidate_ports`]`(l, r, t)`, interns the answer as
//! an ECMP group of `r`, and writes its id at `route[l · nr + t]`.
//! Destinations with an empty candidate set get **no** rule (lookup
//! miss = unreachable), and local delivery (`t == r`) is the switch's
//! endpoint ports, not network FIB state. The rule count the
//! [`CompileMode`] implies is counted here, once, by the run-length
//! rule of [`Fib::rules`]: in [`CompileMode::Aggregated`] adjacent
//! destination ranges resolving to the same group make one rule —
//! router-major endpoint numbering makes structural domains (fat-tree
//! pods, Dragonfly groups, HyperX rows) contiguous, so the merge is the
//! prefix aggregation §V-E relies on without any per-topology special
//! cases.
//!
//! Switch rows compile independently and in parallel on the shim pool;
//! output is a pure function of `(topology, scheme, mode)`, so compiled
//! tables are bit-identical at any thread count.
//!
//! [`RoutingScheme::candidate_ports`]: fatpaths_core::scheme::RoutingScheme::candidate_ports

use crate::table::{row_rules, Fib, SwitchFib, MAX_GROUPS};
use fatpaths_core::scheme::{PortSet, RoutingScheme};
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
    let mut endpoint_offset = Vec::with_capacity(nr + 1);
    endpoint_offset.push(0u32);
    for r in 0..nr as u32 {
        endpoint_offset.push(topo.router_endpoints(r).end);
    }
    let per_switch: Vec<(SwitchFib, u64)> = (0..nr as u32)
        .collect::<Vec<_>>()
        .into_par_iter()
        .map(|r| compile_switch(scheme, mode, r, tag_space, &dsts, &endpoint_offset))
        .collect();
    let mut switches = Vec::with_capacity(nr);
    let mut raw_entries = 0u64;
    for (sf, raw) in per_switch {
        switches.push(sf);
        raw_entries += raw;
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
    scheme: &S,
    mode: CompileMode,
    r: u32,
    tag_space: usize,
    dsts: &[u32],
    endpoint_offset: &[u32],
) -> (SwitchFib, u64) {
    let nr = endpoint_offset.len() - 1;
    let mut groups: Vec<PortSet> = Vec::new();
    // Group id + 1 by port list; a key is allocated only for a new group.
    let mut intern: FxHashMap<Vec<u16>, u16> = FxHashMap::default();
    let mut route = vec![0u16; tag_space * nr].into_boxed_slice();
    let mut raw = 0u64;
    for (l, row) in route.chunks_exact_mut(nr.max(1)).enumerate() {
        for &t in dsts {
            if t == r {
                continue;
            }
            let ports = scheme.candidate_ports(l as u8, r, t);
            if ports.is_empty() {
                continue; // no rule: lookup miss = unreachable
            }
            raw += 1;
            row[t as usize] = match intern.get(ports.as_slice()) {
                Some(&id) => id,
                None => {
                    assert!(
                        groups.len() < MAX_GROUPS,
                        "switch {r} needs more than {MAX_GROUPS} ECMP groups, \
                         the limit of its u16 group ids"
                    );
                    intern.insert(ports.as_slice().to_vec(), groups.len() as u16 + 1);
                    groups.push(ports);
                    groups.len() as u16
                }
            };
        }
    }
    let aggregated = mode == CompileMode::Aggregated;
    let entries = route
        .chunks_exact(nr.max(1))
        .map(|row| row_rules(row, endpoint_offset, aggregated).count())
        .sum();
    let sf = SwitchFib {
        route,
        groups,
        entries,
    };
    (sf, raw)
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

    /// Switch 0 of a 258-router line asked for `groups` distinct port
    /// sets, one per `(tag, destination)` in order; every other switch
    /// holds nothing. 255 tags × 257 destinations = `MAX_GROUPS + 1`
    /// pairs, so the limit sits inside the scheme's reach.
    struct DistinctGroups {
        groups: usize,
    }

    const LINE: u32 = 258;

    impl RoutingScheme for DistinctGroups {
        fn num_layers(&self) -> usize {
            255
        }

        fn candidate_ports(&self, layer: u8, at: u32, dst: u32) -> PortSet {
            let mut ports = PortSet::new();
            if at != 0 {
                return ports;
            }
            let i = layer as usize * (LINE as usize - 1) + dst as usize - 1;
            if i < self.groups {
                ports.push((i >> 8) as u16);
                ports.push((i & 0xff) as u16);
            }
            ports
        }
    }

    fn compile_line(groups: usize) -> Fib {
        use fatpaths_net::topo::{LinkClass, TopoKind};
        let topo = Topology::assemble(
            TopoKind::Star,
            "line".into(),
            LINE as usize,
            (1..LINE).map(|r| (r - 1, r, LinkClass::Short)).collect(),
            vec![1; LINE as usize],
            LINE - 1,
        );
        compile(&topo, &DistinctGroups { groups }, CompileMode::HostRoutes)
    }

    #[test]
    fn group_ids_fill_the_u16_index() {
        let fib = compile_line(MAX_GROUPS);
        assert_eq!(fib.switch(0).num_groups(), MAX_GROUPS);
        // The last group interned reads back through the index.
        let (layer, dst) = ((MAX_GROUPS - 1) / 257, (MAX_GROUPS - 1) % 257 + 1);
        let last = fib.lookup_router(0, layer, dst as u32).unwrap();
        assert_eq!(last.as_slice(), &[((MAX_GROUPS - 1) >> 8) as u16, 0xfd]);
    }

    #[test]
    #[should_panic(expected = "switch 0 needs more than 65534 ECMP groups")]
    fn a_switch_past_the_group_limit_panics() {
        compile_line(MAX_GROUPS + 1);
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
                assert!(a.rules(r, l).eq(b.rules(r, l)));
            }
        }
    }
}
