//! The switch-memory model: per-switch forwarding state of
//! `(layer tag, destination router) → ECMP group`, the range rules a
//! switch would hold for it, and the capacity/statistics vocabulary
//! built on them.
//!
//! Endpoint ids are dense and router-major (`Topology` attaches the
//! endpoints of router `r` as one contiguous id range), so a
//! "destination prefix" is modeled as a half-open endpoint-id range —
//! the range-rule form TCAMs implement directly, and the shape §V-E's
//! address-bit layering produces.
//!
//! What is *stored* is one dense group index per switch, `route[tag ·
//! nr + dst_router]` = ECMP group id + 1 (`0` = no rule), two bytes per
//! `(tag, destination)`: a router-keyed lookup is one read, and an
//! endpoint-keyed one first maps the endpoint to its router. The range
//! rules are a *derived view* ([`Fib::rules`]): a run-length pass over a
//! `(switch, tag)` row in destination order, one rule per router in
//! [`CompileMode::HostRoutes`], adjacent routers sharing a group merged
//! in [`CompileMode::Aggregated`]. Rule counts, [`FibStats`] and the
//! modeled TCAM bytes ([`FibStats::bytes_total`]) are those of the derived
//! rules; the per-switch count is taken once, at compile time. A lookup
//! miss means the destination has no forwarding state here
//! (unreachable — the packet drops).

use crate::compile::CompileMode;
use fatpaths_core::scheme::PortSet;
use fatpaths_net::graph::RouterId;

/// One forwarding rule: destinations in `lo..hi` (endpoint ids) leave
/// through ECMP group `group` of the owning switch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FibEntry {
    /// First endpoint id covered (inclusive).
    pub lo: u32,
    /// One past the last endpoint id covered (exclusive).
    pub hi: u32,
    /// Index into the owning switch's ECMP group table.
    pub group: u32,
}

/// Most ECMP groups one switch may hold. The dense index stores `group
/// id + 1` in a `u16` with `0` meaning "no rule", so ids `0..MAX_GROUPS`
/// fit with `u16::MAX` to spare; [`compile`](crate::compile::compile)
/// panics, naming the switch, rather than wrap an id past it.
pub const MAX_GROUPS: usize = u16::MAX as usize - 1;

/// Forwarding state of one switch: the dense group index, the
/// deduplicated ECMP group table it points into, and the rule count its
/// compile mode lays out.
#[derive(Clone, Debug, Default)]
pub struct SwitchFib {
    /// `route[tag · nr + dst_router]` = group id + 1, `0` = no rule.
    pub(crate) route: Box<[u16]>,
    /// Interned ECMP groups, in first-use order. Shared across layers
    /// and destinations: every rule resolving to the same candidate
    /// port set points at one slot, the ASIC group-table sharing that
    /// keeps ECMP state sublinear in rule count.
    pub(crate) groups: Vec<PortSet>,
    /// Number of range rules [`Fib::rules`] derives over all tags.
    pub(crate) entries: usize,
}

impl SwitchFib {
    /// Total rule count across all layers.
    pub fn num_entries(&self) -> usize {
        self.entries
    }

    /// Number of distinct ECMP groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }
}

/// The range rules of one `(switch, tag)` row of the dense index: a
/// run-length pass over the destination routers in id order. Routers
/// without endpoints own empty ranges and are transparent; a router
/// with no rule ends the current run. With `aggregated`, consecutive
/// routers sharing a group extend one rule, otherwise every router
/// with a rule is its own.
pub(crate) fn row_rules<'a>(
    row: &'a [u16],
    endpoint_offset: &'a [u32],
    aggregated: bool,
) -> impl Iterator<Item = FibEntry> + 'a {
    let hosts = |r: usize| endpoint_offset[r] < endpoint_offset[r + 1];
    let mut r = 0;
    std::iter::from_fn(move || {
        while r < row.len() && (row[r] == 0 || !hosts(r)) {
            r += 1;
        }
        let id = *row.get(r)?;
        let lo = endpoint_offset[r];
        r += 1;
        while aggregated && r < row.len() && (!hosts(r) || row[r] == id) {
            r += 1;
        }
        Some(FibEntry {
            lo,
            hi: endpoint_offset[r],
            group: id as u32 - 1,
        })
    })
}

/// Per-switch hardware capacities the compiled state is judged against.
/// The defaults model a low-end commodity ToR profile — small enough
/// that host-route tables overflow on ≈250-router networks at nine
/// layers while aggregated tables on structured topologies fit, which
/// is exactly the contrast the paper's deployment argument turns on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TableBudget {
    /// Prefix-rule (TCAM) capacity per switch.
    pub entries: u32,
    /// ECMP group (SRAM) capacity per switch.
    pub groups: u32,
}

impl Default for TableBudget {
    fn default() -> Self {
        TableBudget {
            entries: 2048,
            groups: 512,
        }
    }
}

/// Aggregate statistics of a [`Fib`], the `memory` experiment's raw
/// material.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FibStats {
    /// Number of switches compiled.
    pub switches: usize,
    /// Rule count before aggregation (one per reachable
    /// `(layer, destination router)` pair — the host-route floor).
    /// Identical across compile modes by construction.
    pub raw_entries: u64,
    /// Rules actually stored, summed over switches.
    pub entries_total: u64,
    /// Mean rules per switch.
    pub entries_mean: f64,
    /// Max rules on any one switch (the overflow-critical figure).
    pub entries_max: usize,
    /// ECMP groups summed over switches.
    pub groups_total: u64,
    /// Mean groups per switch.
    pub groups_mean: f64,
    /// Max groups on any one switch.
    pub groups_max: usize,
    /// `raw_entries / entries_total` (1.0 = no compression).
    pub compression: f64,
    /// Coarse byte estimate of the modeled switch state: [`ENTRY_BYTES`]
    /// per rule plus [`GROUP_HDR_BYTES`]` + 2·ports` per ECMP group.
    /// This models TCAM/SRAM on the switch, not the dense index this
    /// crate keeps in host memory.
    pub bytes_total: u64,
}

/// Compiled forwarding state for every switch of one topology under one
/// routing scheme. Produced by [`compile`](crate::compile::compile).
#[derive(Clone, Debug)]
pub struct Fib {
    pub(crate) switches: Vec<SwitchFib>,
    /// Prefix sums of per-router endpoint counts (length `n + 1`):
    /// router `r` owns endpoint ids `endpoint_offset[r] ..
    /// endpoint_offset[r + 1]`. Copied from the topology at compile
    /// time so lookups need no `Topology` handle.
    pub(crate) endpoint_offset: Vec<u32>,
    pub(crate) tag_space: usize,
    pub(crate) raw_entries: u64,
    pub(crate) mode: CompileMode,
}

/// Modeled bytes per stored rule: an 8-byte range key (or equivalently
/// prefix + mask) plus a 4-byte group pointer.
pub const ENTRY_BYTES: u64 = 12;

/// Modeled bytes per ECMP group: a 4-byte header plus 2 bytes per
/// member port.
pub const GROUP_HDR_BYTES: u64 = 4;

impl Fib {
    /// The compiled state of switch `r`.
    pub fn switch(&self, r: RouterId) -> &SwitchFib {
        &self.switches[r as usize]
    }

    /// The layer-tag span compiled (`RoutingScheme::tag_space`).
    pub fn tag_space(&self) -> usize {
        self.tag_space
    }

    /// Which compile mode produced this state.
    pub fn mode(&self) -> CompileMode {
        self.mode
    }

    /// The router owning endpoint `ep`, or `None` past the last one.
    fn endpoint_router(&self, ep: u32) -> Option<usize> {
        let i = self.endpoint_offset.partition_point(|&o| o <= ep);
        (i < self.endpoint_offset.len()).then(|| i - 1)
    }

    /// The candidate ports switch `at` holds for endpoint `ep` on
    /// `layer`, if any rule covers it. Endpoints of `at` itself (local
    /// delivery), unreachable destinations, endpoint ids past the last
    /// one and tags outside the compiled span all miss.
    pub fn lookup(&self, at: RouterId, layer: usize, ep: u32) -> Option<&PortSet> {
        let dst = self.endpoint_router(ep)?;
        self.lookup_router(at, layer, dst as RouterId)
    }

    /// Router-keyed lookup, the per-hop path of the simulator adapter:
    /// one read of the dense index. Tags outside the compiled span miss.
    /// Must only be called for routers that host endpoints (the
    /// simulator only ever routes toward a flow's destination router,
    /// which does by construction).
    #[inline]
    pub fn lookup_router(
        &self,
        at: RouterId,
        layer: usize,
        dst_router: RouterId,
    ) -> Option<&PortSet> {
        let nr = self.switches.len();
        let dst = dst_router as usize;
        debug_assert!(
            dst < nr,
            "router {dst_router} is not in the {nr}-router FIB"
        );
        debug_assert!(
            self.endpoint_offset[dst] < self.endpoint_offset[dst + 1],
            "router {dst_router} hosts no endpoints — nothing routes toward it"
        );
        if layer >= self.tag_space {
            return None;
        }
        let s = &self.switches[at as usize];
        let id = s.route[layer * nr + dst];
        id.checked_sub(1).map(|g| &s.groups[g as usize])
    }

    /// The range rules switch `at` holds on `layer`, sorted and
    /// disjoint — derived from the dense index by the compile mode's
    /// run-length rule (see the [module docs](self)).
    pub fn rules(&self, at: RouterId, layer: usize) -> impl Iterator<Item = FibEntry> + '_ {
        row_rules(
            self.row(at, layer),
            &self.endpoint_offset,
            self.mode == CompileMode::Aggregated,
        )
    }

    /// The dense index of switch `at` on `layer`, one entry per router.
    fn row(&self, at: RouterId, layer: usize) -> &[u16] {
        let nr = self.switches.len();
        &self.switches[at as usize].route[layer * nr..][..nr]
    }

    /// Whether one rule of switch `at` on `layer` covers both endpoint
    /// `ep - 1` and `ep`, i.e. a rule straddles the address boundary
    /// just below `ep`. Only aggregated rules span routers.
    pub(crate) fn straddles(&self, at: RouterId, layer: usize, ep: u32) -> bool {
        let (Some(a), Some(b)) = (
            ep.checked_sub(1).and_then(|e| self.endpoint_router(e)),
            self.endpoint_router(ep),
        ) else {
            return false;
        };
        let row = self.row(at, layer);
        row[a] != 0 && row[a] == row[b] && (a == b || self.mode == CompileMode::Aggregated)
    }

    /// Aggregate table statistics.
    pub fn stats(&self) -> FibStats {
        let switches = self.switches.len().max(1);
        let entries_total: u64 = self.switches.iter().map(|s| s.num_entries() as u64).sum();
        let groups_total: u64 = self.switches.iter().map(|s| s.num_groups() as u64).sum();
        let entries_max = self
            .switches
            .iter()
            .map(SwitchFib::num_entries)
            .max()
            .unwrap_or(0);
        let groups_max = self
            .switches
            .iter()
            .map(SwitchFib::num_groups)
            .max()
            .unwrap_or(0);
        FibStats {
            switches: self.switches.len(),
            raw_entries: self.raw_entries,
            entries_total,
            entries_mean: entries_total as f64 / switches as f64,
            entries_max,
            groups_total,
            groups_mean: groups_total as f64 / switches as f64,
            groups_max,
            compression: if entries_total > 0 {
                self.raw_entries as f64 / entries_total as f64
            } else {
                1.0
            },
            bytes_total: self.memory_bytes(),
        }
    }

    /// [`FibStats::bytes_total`].
    fn memory_bytes(&self) -> u64 {
        self.switches
            .iter()
            .map(|s| {
                s.num_entries() as u64 * ENTRY_BYTES
                    + s.groups
                        .iter()
                        .map(|g| GROUP_HDR_BYTES + 2 * g.len() as u64)
                        .sum::<u64>()
            })
            .sum()
    }

    /// Number of switches whose rule or group count exceeds `budget` —
    /// the state that would spill out of a real ASIC's tables.
    pub fn overflowing_switches(&self, budget: &TableBudget) -> usize {
        self.switches
            .iter()
            .filter(|s| {
                s.num_entries() > budget.entries as usize || s.num_groups() > budget.groups as usize
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four routers at switch 3's view: router 0 owns endpoints `0..4`,
    /// router 1 `4..8` (no rule), router 2 `8..10`, router 3 none. One
    /// tag; routers 0 and 2 point at different groups.
    fn two_rule_fib(mode: CompileMode) -> Fib {
        let mut g0 = PortSet::new();
        g0.push(1);
        g0.push(3);
        let sw = SwitchFib {
            route: vec![1, 0, 2, 0].into_boxed_slice(),
            groups: vec![g0, PortSet::single(7)],
            entries: 2,
        };
        let empty = SwitchFib {
            route: vec![0; 4].into_boxed_slice(),
            ..SwitchFib::default()
        };
        Fib {
            switches: vec![empty.clone(), empty.clone(), empty, sw],
            endpoint_offset: vec![0, 4, 8, 10, 10],
            tag_space: 1,
            raw_entries: 4,
            mode,
        }
    }

    #[test]
    fn lookup_hits_ranges_and_misses_gaps() {
        let fib = two_rule_fib(CompileMode::Aggregated);
        assert_eq!(fib.lookup(3, 0, 0).unwrap().as_slice(), &[1, 3]);
        assert_eq!(fib.lookup(3, 0, 3).unwrap().as_slice(), &[1, 3]);
        assert!(fib.lookup(3, 0, 4).is_none(), "gap between rules");
        assert_eq!(fib.lookup(3, 0, 9).unwrap().as_slice(), &[7]);
        assert!(fib.lookup(3, 0, 10).is_none(), "past the last endpoint");
        assert!(fib.lookup(3, 1, 0).is_none(), "no such layer");
        assert!(fib.lookup_router(3, 1, 0).is_none(), "no such layer");
        assert_eq!(fib.lookup_router(3, 0, 2).unwrap().as_slice(), &[7]);
        assert_eq!(
            fib.rules(3, 0).collect::<Vec<_>>(),
            [
                FibEntry {
                    lo: 0,
                    hi: 4,
                    group: 0
                },
                FibEntry {
                    lo: 8,
                    hi: 10,
                    group: 1
                }
            ]
        );
        assert_eq!(fib.switch(3).num_entries(), 2);
        assert_eq!(fib.switch(3).num_groups(), 2);
    }

    #[test]
    fn aggregated_rows_merge_across_routers_without_endpoints() {
        // Routers 0 and 2 share group 1 with router 1 (no endpoints)
        // between them: one aggregated rule, two host routes.
        let row = [1u16, 0, 1, 2];
        let off = [0u32, 2, 2, 5, 6];
        let agg: Vec<_> = row_rules(&row, &off, true).collect();
        let host: Vec<_> = row_rules(&row, &off, false).collect();
        let rule = |lo, hi, group| FibEntry { lo, hi, group };
        assert_eq!(agg, [rule(0, 5, 0), rule(5, 6, 1)]);
        assert_eq!(host, [rule(0, 2, 0), rule(2, 5, 0), rule(5, 6, 1)]);
    }

    #[test]
    fn budget_flags_overflow() {
        let fib = two_rule_fib(CompileMode::Aggregated);
        assert_eq!(
            fib.overflowing_switches(&TableBudget {
                entries: 1,
                groups: 512
            }),
            1
        );
        assert_eq!(
            fib.overflowing_switches(&TableBudget {
                entries: 2048,
                groups: 1
            }),
            1
        );
        assert_eq!(fib.overflowing_switches(&TableBudget::default()), 0);
        let st = fib.stats();
        assert_eq!(st.entries_total, 2);
        assert_eq!(st.raw_entries, 4);
        assert_eq!(st.compression, 2.0);
        assert_eq!(st.entries_max, 2);
        // 2 rules · 12 B + group(2 ports) 8 B + group(1 port) 6 B.
        assert_eq!(st.bytes_total, 24 + 8 + 6);
    }
}
