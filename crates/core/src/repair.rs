//! Route repair: the routing-side response to link failures.
//!
//! When links die, a routing scheme has three options (§V-G and the
//! fault-resiliency literature): do nothing and let end-to-end recovery
//! re-pick layers (the FatPaths default — failures are masked by
//! preprovisioned path diversity), *repair* the affected forwarding rows
//! in place, or rebuild from the degraded topology. This module provides
//! the shared vocabulary for the last two:
//!
//! * [`DownLinks`] — the canonical set of currently-down links, with
//!   O(1) membership and deterministic (sorted) iteration;
//! * [`RouteRepair`] — a sparse overlay of repaired forwarding rows the
//!   simulator consults *before* the scheme's own
//!   [`candidate_ports`](crate::scheme::RoutingScheme::candidate_ports).
//!
//! A repair entry stores the scheme's **final** decision for a
//! `(layer, at_router, dst_router)` key — including any internal
//! fallback (e.g. a sparse layer falling back to layer 0) — so the
//! simulator stays scheme-agnostic: present + non-empty means "use
//! exactly these ports", present + empty means "genuinely unreachable in
//! the degraded network, drop", absent means "the original row is still
//! valid, ask the scheme".
//!
//! The overlay has two representations. During construction it is a
//! *staged* hash map, so scheme repair passes can interleave inserts and
//! lookups freely. [`RouteRepair::seal`] then collapses the staged rows
//! into sorted destination-range intervals ([`lookup`] becomes a row-index
//! probe plus a binary search over that row's few spans): repairs
//! cluster on the contiguous router-id ranges behind a
//! failure (a fat-tree pod, a dragonfly group), so the sealed form's
//! size tracks the *damage*, not the network — the property that lets
//! one shared copy serve every simulation shard at million-endpoint
//! scale.
//!
//! Schemes that repair by rewriting whole destination rows of a
//! per-layer port table (the static layer tables and the negotiated TE
//! tables) assemble their overlay through one [`OverlayBuilder`].
//!
//! [`lookup`]: RouteRepair::lookup

use crate::fwd::NO_PORT;
use crate::scheme::{assert_layer_tags, PortSet};
use fatpaths_net::graph::{Graph, RouterId};
use rustc_hash::{FxHashMap, FxHashSet};

/// The set of currently-down bidirectional links, canonicalized to
/// `(min, max)` pairs. Iteration order is sorted, so everything derived
/// from a `DownLinks` is deterministic regardless of how the set was
/// accumulated.
#[derive(Clone, Debug, Default)]
pub struct DownLinks {
    sorted: Vec<(RouterId, RouterId)>,
    set: FxHashSet<(RouterId, RouterId)>,
}

impl DownLinks {
    /// Builds the set from links in any orientation (duplicates collapse).
    pub fn from_links(links: &[(RouterId, RouterId)]) -> DownLinks {
        let mut sorted: Vec<(RouterId, RouterId)> =
            links.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let set = sorted.iter().copied().collect();
        DownLinks { sorted, set }
    }

    /// Builds the set from explicitly failed links *plus* whole-router
    /// failures: a dead router loses every incident link at once (the
    /// node-level fault model), so `graph` is consulted to expand each
    /// router in `dead_routers` into its incident links. Schemes stay
    /// router-agnostic — a repair pass over this set routes around the
    /// dead node because no live link reaches it.
    pub fn from_failures(
        graph: &Graph,
        links: &[(RouterId, RouterId)],
        dead_routers: &[RouterId],
    ) -> DownLinks {
        let mut all: Vec<(RouterId, RouterId)> = links.to_vec();
        for &r in dead_routers {
            all.extend(graph.neighbors(r).iter().map(|&nb| (r, nb)));
        }
        DownLinks::from_links(&all)
    }

    /// True iff link `{u, v}` is down (orientation-insensitive).
    #[inline]
    pub fn contains(&self, u: RouterId, v: RouterId) -> bool {
        self.set.contains(&(u.min(v), u.max(v)))
    }

    /// The down links in canonical sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (RouterId, RouterId)> + '_ {
        self.sorted.iter().copied()
    }

    /// The down links as a canonical sorted slice.
    pub fn as_slice(&self) -> &[(RouterId, RouterId)] {
        &self.sorted
    }

    /// Number of down links.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True iff nothing is down.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

/// One sealed repair interval: every destination in
/// `dst_start..dst_end` shares the same repaired row at
/// `(layer, at)`.
#[derive(Clone, Debug)]
struct RepairSpan {
    layer: u8,
    at: RouterId,
    dst_start: RouterId,
    /// Exclusive.
    dst_end: RouterId,
    ports: PortSet,
}

/// A sparse overlay of repaired forwarding rows, keyed by
/// `(layer, at_router, dst_router)`.
///
/// Semantics of [`RouteRepair::lookup`]:
/// * `None` — the scheme's original row survived the failures; use
///   [`candidate_ports`](crate::scheme::RoutingScheme::candidate_ports).
/// * `Some(ports)` non-empty — the repaired candidates (already
///   including any scheme-internal fallback).
/// * `Some(ports)` empty — the destination is unreachable from here in
///   the degraded network; the packet cannot be forwarded.
///
/// Construction uses the staged hash-map form ([`insert`]/[`lookup`]
/// interleave freely); [`seal`] converts to the interval form that the
/// simulator shares read-only across shards. Sealing is optional —
/// every read works in either state.
///
/// [`insert`]: RouteRepair::insert
/// [`lookup`]: RouteRepair::lookup
/// [`seal`]: RouteRepair::seal
#[derive(Clone, Debug, Default)]
pub struct RouteRepair {
    /// Staged rows (construction form; empty once sealed).
    staged: FxHashMap<(u8, RouterId, RouterId), PortSet>,
    /// Sealed destination-range intervals, sorted by
    /// `(layer, at, dst_start)` with no overlap within `(layer, at)`.
    spans: Vec<RepairSpan>,
    /// `(layer, at)` → that row's `start..end` range in `spans`, built
    /// by [`RouteRepair::seal`]: the per-hop lookup — a miss for almost
    /// every row, since repairs touch few — is one hash probe instead
    /// of a binary search over every span. Probed only, never iterated,
    /// so hash order cannot leak into results.
    row_index: FxHashMap<(u8, RouterId), (u32, u32)>,
    /// Row count covered by `spans` (cached: spans compress rows).
    sealed_rows: usize,
    /// Control-plane cost of realizing this overlay in compiled
    /// switch-forwarding state: the number of FIB rows (prefix rules)
    /// that must be installed, rewritten, or deleted across all
    /// switches. Zero for analytic schemes, which carry no FIB; the
    /// FIB-compiled adapter (`fatpaths_fib::CompiledScheme`) fills it
    /// from the range-merged overlay delta.
    pub fib_rows_rewritten: u64,
}

impl RouteRepair {
    /// An overlay with no repaired rows.
    pub fn none() -> RouteRepair {
        RouteRepair::default()
    }

    /// Installs a repaired row (empty `ports` = unreachable).
    pub fn insert(&mut self, layer: u8, at: RouterId, dst: RouterId, ports: PortSet) {
        debug_assert!(self.spans.is_empty(), "insert into a sealed overlay");
        self.staged.insert((layer, at, dst), ports);
    }

    /// Looks up a repaired row; see the type docs for the semantics.
    #[inline]
    pub fn lookup(&self, layer: u8, at: RouterId, dst: RouterId) -> Option<&PortSet> {
        if !self.staged.is_empty() {
            return self.staged.get(&(layer, at, dst));
        }
        let &(start, end) = self.row_index.get(&(layer, at))?;
        let row = &self.spans[start as usize..end as usize];
        let s = row[..row.partition_point(|s| s.dst_start <= dst)].last()?;
        (dst < s.dst_end).then_some(&s.ports)
    }

    /// The sealed lookup as it was before the row index: a binary
    /// search over the whole span vector. Kept as the test reference.
    #[cfg(test)]
    fn lookup_unindexed(&self, layer: u8, at: RouterId, dst: RouterId) -> Option<&PortSet> {
        let i = self
            .spans
            .partition_point(|s| (s.layer, s.at, s.dst_start) <= (layer, at, dst));
        let s = self.spans[..i].last()?;
        (s.layer == layer && s.at == at && dst < s.dst_end).then_some(&s.ports)
    }

    /// Collapses the staged rows into sorted destination-range
    /// intervals: adjacent destinations with identical repaired ports at
    /// the same `(layer, at)` merge into one span, so memory tracks the
    /// damage (failures repair contiguous id ranges — pods, groups),
    /// not the network size. Idempotent; every read works before or
    /// after.
    pub fn seal(&mut self) {
        if self.staged.is_empty() {
            return;
        }
        let mut rows: Vec<((u8, RouterId, RouterId), PortSet)> =
            std::mem::take(&mut self.staged).into_iter().collect();
        rows.sort_unstable_by_key(|&(k, _)| k);
        self.sealed_rows = rows.len();
        for ((layer, at, dst), ports) in rows {
            if let Some(last) = self.spans.last_mut() {
                if last.layer == layer
                    && last.at == at
                    && last.dst_end == dst
                    && last.ports == ports
                {
                    last.dst_end = dst + 1;
                    continue;
                }
            }
            self.spans.push(RepairSpan {
                layer,
                at,
                dst_start: dst,
                dst_end: dst + 1,
                ports,
            });
        }
        for (i, s) in self.spans.iter().enumerate() {
            let i = i as u32;
            self.row_index.entry((s.layer, s.at)).or_insert((i, i)).1 = i + 1;
        }
    }

    /// Sealed intervals currently held (0 before [`RouteRepair::seal`]).
    pub fn num_spans(&self) -> usize {
        self.spans.len()
    }

    /// Number of repaired rows (in either representation).
    pub fn len(&self) -> usize {
        self.staged.len() + self.sealed_rows
    }

    /// Iterates over the repaired rows as `((layer, at, dst), ports)`,
    /// in unspecified order before sealing and sorted key order after
    /// (sort the keys before deriving anything order-sensitive from an
    /// unsealed overlay).
    pub fn rows(&self) -> impl Iterator<Item = ((u8, RouterId, RouterId), &PortSet)> + '_ {
        self.staged.iter().map(|(&k, v)| (k, v)).chain(
            self.spans.iter().flat_map(|s| {
                (s.dst_start..s.dst_end).map(move |d| ((s.layer, s.at, d), &s.ports))
            }),
        )
    }

    /// True iff the overlay repairs nothing (the fast-path gate for the
    /// simulator's per-hop lookup).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty() && self.spans.is_empty()
    }
}

/// Assembles a [`RouteRepair`] against healthy per-layer port tables laid
/// out `healthy[layer][dst * nr + src]` ([`NO_PORT`] = no route), with
/// layer 0 the complete layer. Feed layers in ascending order: a pair a
/// sparse layer loses resolves against the already-repaired layer 0.
/// Every layer is keyed by its own `u8` tag, so the table set may hold at
/// most [`MAX_LAYERS`](crate::scheme::MAX_LAYERS) layers.
pub struct OverlayBuilder<'a> {
    healthy: &'a [Vec<u16>],
    nr: usize,
    rep: RouteRepair,
    /// `(src, dst)` pairs whose layer-0 entry was rewritten, in rewrite
    /// order; [`OverlayBuilder::finish`] shadows them in sparse layers.
    layer0_touched: Vec<(RouterId, RouterId)>,
}

impl<'a> OverlayBuilder<'a> {
    /// An empty overlay over `healthy` (`nr` routers per row). Panics if
    /// `healthy` has more than [`MAX_LAYERS`](crate::scheme::MAX_LAYERS)
    /// layers.
    pub fn new(healthy: &'a [Vec<u16>], nr: usize) -> Self {
        assert_layer_tags(healthy.len());
        OverlayBuilder {
            healthy,
            nr,
            rep: RouteRepair::none(),
            layer0_touched: Vec::new(),
        }
    }

    /// Replaces the entry at `(layer, at, dst)` with the single `port`.
    pub fn set_port(&mut self, layer: usize, at: RouterId, dst: RouterId, port: u16) {
        self.insert(layer, at, dst, PortSet::single(port));
    }

    /// Installs `layer`'s rebuilt row toward `dst` (`new_row[src]`, same
    /// encoding as the healthy table) as the entries that differ from the
    /// healthy row. The effective forwarding becomes exactly the rebuilt
    /// tree, so the overlay never mixes two trees and stays loop-free. A
    /// pair the rebuilt row cannot reach is unreachable in layer 0 (the
    /// complete layer) and takes the repaired layer-0 route elsewhere.
    pub fn rewrite_row(&mut self, layer: usize, dst: RouterId, new_row: &[u16]) {
        let old_row = &self.healthy[layer][dst as usize * self.nr..][..self.nr];
        for (src, (&np, &op)) in new_row.iter().zip(old_row).enumerate() {
            let src = src as RouterId;
            if src == dst || np == op {
                continue;
            }
            let entry = if np != NO_PORT {
                PortSet::single(np)
            } else if layer == 0 {
                PortSet::new()
            } else {
                self.layer0_route(src, dst)
            };
            self.insert(layer, src, dst, entry);
        }
    }

    /// The overlay. Pairs a sparse layer never reached forward through the
    /// scheme's internal layer-0 fallback, which reads the *healthy*
    /// layer-0 table; wherever layer 0 was rewritten, those sparse-layer
    /// keys are shadowed with the repaired entry so the fallback cannot
    /// resurrect a dead port.
    pub fn finish(mut self) -> RouteRepair {
        for &(src, dst) in &self.layer0_touched {
            let repaired = self
                .rep
                .lookup(0, src, dst)
                .expect("touched layer-0 rows have entries")
                .clone();
            for l in 1..self.healthy.len() {
                let tag = l as u8; // in range: checked in `new`
                if self.healthy[l][dst as usize * self.nr + src as usize] == NO_PORT
                    && self.rep.lookup(tag, src, dst).is_none()
                {
                    self.rep.insert(tag, src, dst, repaired.clone());
                }
            }
        }
        self.rep
    }

    fn insert(&mut self, layer: usize, at: RouterId, dst: RouterId, ports: PortSet) {
        if layer == 0 {
            self.layer0_touched.push((at, dst));
        }
        self.rep.insert(layer as u8, at, dst, ports); // checked in `new`
    }

    /// The layer-0 route for `(src, dst)`: the overlay entry if layer 0
    /// was rewritten there, else the healthy one.
    fn layer0_route(&self, src: RouterId, dst: RouterId) -> PortSet {
        if let Some(e) = self.rep.lookup(0, src, dst) {
            return e.clone();
        }
        match self.healthy[0][dst as usize * self.nr + src as usize] {
            NO_PORT => PortSet::new(),
            p => PortSet::single(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn down_links_canonicalize_and_sort() {
        let d = DownLinks::from_links(&[(7, 2), (0, 1), (2, 7), (1, 0)]);
        assert_eq!(d.as_slice(), &[(0, 1), (2, 7)]);
        assert_eq!(d.len(), 2);
        assert!(d.contains(7, 2));
        assert!(d.contains(2, 7));
        assert!(!d.contains(0, 2));
        assert!(DownLinks::from_links(&[]).is_empty());
    }

    #[test]
    fn from_failures_expands_dead_routers() {
        // Triangle 0-1-2 plus a pendant 3 on router 1.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (1, 3)]);
        let d = DownLinks::from_failures(&g, &[(0, 2)], &[1]);
        assert_eq!(d.as_slice(), &[(0, 1), (0, 2), (1, 2), (1, 3)]);
        // Dedup across sources: the explicit link may also be incident.
        let d2 = DownLinks::from_failures(&g, &[(1, 0)], &[1]);
        assert_eq!(d2.as_slice(), &[(0, 1), (1, 2), (1, 3)]);
        // No routers → same as from_links.
        let d3 = DownLinks::from_failures(&g, &[(2, 0)], &[]);
        assert_eq!(d3.as_slice(), DownLinks::from_links(&[(0, 2)]).as_slice());
    }

    #[test]
    fn repair_lookup_semantics() {
        let mut r = RouteRepair::none();
        assert!(r.is_empty());
        r.insert(1, 4, 9, PortSet::single(3));
        r.insert(1, 5, 9, PortSet::new());
        assert_eq!(r.len(), 2);
        assert_eq!(r.lookup(1, 4, 9).unwrap().as_slice(), &[3]);
        assert!(r.lookup(1, 5, 9).unwrap().is_empty());
        assert!(r.lookup(0, 4, 9).is_none());
    }

    #[test]
    fn sealed_overlay_answers_identically() {
        let mut r = RouteRepair::none();
        // Two contiguous dst runs with equal ports (merge), one row with
        // different ports (breaks the run), plus an unreachable row.
        for dst in 10..14 {
            r.insert(0, 2, dst, PortSet::single(7));
        }
        r.insert(0, 2, 14, PortSet::single(8));
        r.insert(1, 2, 10, PortSet::new());
        r.insert(0, 3, 11, PortSet::single(7));
        let staged: Vec<_> = {
            let mut v: Vec<_> = r.rows().map(|(k, p)| (k, p.clone())).collect();
            v.sort_unstable_by_key(|&(k, _)| k);
            v
        };
        r.seal();
        assert_eq!(r.len(), 7);
        assert_eq!(r.num_spans(), 4, "contiguous equal rows must merge");
        let sealed: Vec<_> = r.rows().map(|(k, p)| (k, p.clone())).collect();
        assert_eq!(staged, sealed, "rows() must survive sealing");
        for &(k, ref p) in &staged {
            assert_eq!(
                r.lookup(k.0, k.1, k.2).map(|x| x.as_slice()),
                Some(p.as_slice())
            );
        }
        // Misses on either side of the spans.
        assert!(r.lookup(0, 2, 9).is_none());
        assert!(r.lookup(0, 2, 15).is_none());
        assert!(r.lookup(0, 4, 11).is_none());
        assert!(r.lookup(2, 2, 10).is_none());
        // Unreachable row stays Some(empty) after sealing.
        assert!(r.lookup(1, 2, 10).unwrap().is_empty());
        // Sealing twice is a no-op.
        r.seal();
        assert_eq!(r.len(), 7);
        assert_eq!(r.num_spans(), 4);
    }

    proptest! {
        // Every `(layer, at, dst)` — hits, gaps inside a row, rows that
        // were never repaired — answers the same from the staged map,
        // the sealed whole-vector search and the sealed row index.
        #[test]
        fn staged_sealed_and_indexed_lookups_agree(
            rows in prop::collection::vec((0u8..3, 0u32..6, 0u32..24, 0u16..3), 0..80),
        ) {
            let mut staged = RouteRepair::none();
            for &(layer, at, dst, port) in &rows {
                // Port 0 stands for an unreachable (empty) row.
                let ports = if port == 0 { PortSet::new() } else { PortSet::single(port) };
                staged.insert(layer, at, dst, ports);
            }
            let mut sealed = staged.clone();
            sealed.seal();
            prop_assert_eq!(sealed.len(), staged.len());
            for layer in 0..4u8 {
                for at in 0..7u32 {
                    for dst in 0..26u32 {
                        let want = staged.lookup(layer, at, dst).map(|p| p.as_slice());
                        let old = sealed.lookup_unindexed(layer, at, dst).map(|p| p.as_slice());
                        let new = sealed.lookup(layer, at, dst).map(|p| p.as_slice());
                        prop_assert_eq!(old, want);
                        prop_assert_eq!(new, want);
                    }
                }
            }
        }
    }

    #[test]
    fn sealing_an_empty_overlay_is_empty() {
        let mut r = RouteRepair::none();
        r.seal();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(r.lookup(0, 0, 0).is_none());
    }
}
