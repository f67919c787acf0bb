//! The FIB compiler: enumerates a scheme's forwarding function and
//! materializes it as one dense group index per switch + interned ECMP
//! groups.
//!
//! For every switch `r`, layer tag `l`, and destination router `t` that
//! hosts endpoints, the compiler asks
//! [`RoutingScheme::candidate_ports`]`(l, r, t)`, interns the answer as
//! an ECMP group of `r`, and writes its id at `route[l · nr + t]`. Ids
//! are assigned in first-use order. A one-port group — every group of
//! the table-driven schemes (FatPaths layers, TE, SPAIN, KSP, PAST) — is
//! interned through a per-switch `port → id` array, without hashing; a
//! multi-port group (minimal multipath, Valiant) through a hash map
//! keyed by its port list.
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
    // Single-port groups — every group of a port-table scheme — are
    // interned by port in `single` instead, without hashing.
    let mut intern: FxHashMap<Vec<u16>, u16> = FxHashMap::default();
    let mut single: Vec<u16> = Vec::new();
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
            let known = match *ports.as_slice() {
                [p] => {
                    if single.len() <= p as usize {
                        single.resize(p as usize + 1, 0);
                    }
                    single[p as usize]
                }
                _ => intern.get(ports.as_slice()).copied().unwrap_or(0),
            };
            row[t as usize] = if known != 0 {
                known
            } else {
                assert!(
                    groups.len() < MAX_GROUPS,
                    "switch {r} needs more than {MAX_GROUPS} ECMP groups, \
                     the limit of its u16 group ids"
                );
                let id = groups.len() as u16 + 1;
                match *ports.as_slice() {
                    [p] => single[p as usize] = id,
                    _ => _ = intern.insert(ports.as_slice().to_vec(), id),
                }
                groups.push(ports);
                id
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

    /// Streaming FNV-1a over the little-endian bytes of `words`.
    fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Digests of a compiled FIB: every switch's dense index, its groups
    /// (length, then ports) in id order, and its rule counts.
    fn digests(fib: &Fib) -> (u64, u64, u64) {
        let sw = &fib.switches;
        let route = fnv(sw.iter().flat_map(|s| s.route.iter().map(|&g| g as u64)));
        let groups = fnv(sw.iter().flat_map(|s| {
            s.groups.iter().flat_map(|g| {
                std::iter::once(g.len() as u64).chain(g.as_slice().iter().map(|&p| p as u64))
            })
        }));
        let entries = fnv(sw.iter().map(|s| s.entries as u64).chain([fib.raw_entries]));
        (route, groups, entries)
    }

    // The literals were computed before the compiler interned single-port
    // groups through a per-switch array, so a change to a group id, its
    // order or a rule count fails here.
    #[test]
    fn compiled_outputs_are_pinned() {
        use fatpaths_te::{endpoint_demands, TeConfig, TeScheme};
        use fatpaths_workloads::matrices::{matrix_flows, MatrixSpec};
        // (route, groups, entries) digests per topology, scheme (layer
        // tables, TE, minimal) and mode (host routes, aggregated), in
        // that nesting order.
        let want: [[u64; 3]; 12] = [
            [
                3018889466820306018,
                18002743374189872485,
                1216979908827095627,
            ],
            [
                3018889466820306018,
                18002743374189872485,
                18062765496172666651,
            ],
            [
                1531031605242404421,
                18133693329941046596,
                1216979908827095627,
            ],
            [
                1531031605242404421,
                18133693329941046596,
                13602370892335162718,
            ],
            [
                1001050964400596837,
                18002743374189872485,
                12788593303979226292,
            ],
            [
                1001050964400596837,
                18002743374189872485,
                10609197673622804643,
            ],
            [
                11451844574690808904,
                10287696886677507109,
                15059888585955047336,
            ],
            [
                11451844574690808904,
                10287696886677507109,
                5600035069144122538,
            ],
            [
                16181928141612093324,
                17525316508622433476,
                15059888585955047336,
            ],
            [
                16181928141612093324,
                17525316508622433476,
                6078210268992093656,
            ],
            [
                9721399223175003941,
                10005492980583988005,
                5390127172511054514,
            ],
            [
                9721399223175003941,
                10005492980583988005,
                2781317058434632274,
            ],
        ];
        // Each topology with the layer seed, matrix, matrix seed and
        // iteration cap under which negotiation moves off the static tables.
        let hot = MatrixSpec::HeavyHitter {
            hotspots: 2,
            skew: 0.5,
        };
        let cases = [
            (
                slim_fly(5, 2).unwrap(),
                2,
                MatrixSpec::WorstCase { intensity: 0.7 },
                3,
                3,
            ),
            (fat_tree(8, 1), 5, hot, 1, 16),
        ];
        let mut got = Vec::new();
        for (t, layer_seed, matrix, matrix_seed, max_iterations) in cases {
            let g = &t.graph;
            let ls = build_random_layers(g, &LayerConfig::new(4, 0.6, layer_seed));
            let rt = RoutingTables::build(g, &ls);
            let pairs = matrix_flows(&t, &matrix, matrix_seed);
            let cfg = TeConfig {
                max_iterations,
                ..TeConfig::default()
            };
            let te = TeScheme::negotiate(g, &rt, &endpoint_demands(&t, &pairs), &cfg);
            let moved =
                (0..g.n() as u32).any(|dst| te.ports().row(1, dst) != rt.ports().row(1, dst));
            assert!(moved, "{}: negotiation kept the static tables", t.name);
            let dm = DistanceMatrix::build(g);
            let ms = MinimalScheme::new(g, &dm);
            let schemes: [&(dyn RoutingScheme + Sync); 3] = [&rt, &te, &ms];
            for scheme in schemes {
                for mode in [CompileMode::HostRoutes, CompileMode::Aggregated] {
                    let (route, groups, entries) = digests(&compile(&t, scheme, mode));
                    got.push([route, groups, entries]);
                }
            }
        }
        assert_eq!(got, want);
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
