//! Route repair: the routing-side response to link failures.
//!
//! When links die, a routing scheme has three options (§V-G and the
//! fault-resiliency literature): do nothing and let end-to-end recovery
//! re-pick layers (the FatPaths default — failures are masked by
//! preprovisioned path diversity), *repair* the affected forwarding rows
//! in place, or rebuild from the degraded topology. This module provides
//! the shared vocabulary for the last two:
//!
//! * [`DownLinks`] — the canonical set of currently-down links, one
//!   sorted vector: binary-search membership and deterministic
//!   iteration;
//! * [`RouteRepair`] — a sparse overlay of repaired forwarding rows the
//!   simulator consults *before* the scheme's own
//!   [`candidate_ports`](crate::scheme::RoutingScheme::candidate_ports).
//!
//! A repair entry stores the scheme's **final** decision for a
//! `(layer, at_router, dst_router)` key — including the repair-time
//! fallback (a pair a degraded sparse layer lost takes the repaired
//! layer-0 route) — so the
//! simulator stays scheme-agnostic: present + non-empty means "use
//! exactly these ports", present + empty means "genuinely unreachable in
//! the degraded network, drop", absent means "the original row is still
//! valid, ask the scheme".
//!
//! The overlay is built once, by [`RouteRepair::from_rows`]: rows given
//! once each in ascending `(at, layer, dst)` order (checked) become
//! destination-range spans whose ports sit in
//! one shared `u16` pool ([`lookup`] is a row-index probe plus a binary
//! search over that row's few spans). Equal adjacent rows share a span, so
//! where repairs cluster on contiguous router ids (a fat-tree pod, a
//! dragonfly group) the size tracks the *damage*, not the network; on Slim
//! Fly merging saves under 2%, ≈ 16 bytes per repaired row. One shared
//! copy serves every simulation shard.
//!
//! Schemes that repair by rewriting whole destination rows of a
//! per-layer port table (the static layer tables and the negotiated TE
//! tables) rewrite exactly the [`broken_rows`], each rebuilt on the
//! degraded layer, and assemble their overlay through one
//! [`OverlayBuilder`]. Both emit their rows once each in ascending
//! `(layer, dst)` order, which the builder checks. It keeps the entries
//! that differ from the healthy rows and lays them out in linear time: a
//! stable counting sort on the router puts them in the overlay's
//! `(at, layer, dst)` order, and the same pass resolves sparse-layer
//! entries to the layer-0 route, straight into the spans — no comparison
//! sort and no lookup into an intermediate overlay. Every healthy layer
//! routes every pair ([`RoutingTables::build`](crate::fwd::RoutingTables::build)
//! checks it), so no healthy key needs a repaired entry unless its own
//! row broke.
//!
//! [`lookup`]: RouteRepair::lookup

use crate::fwd::{PortTables, NO_PORT};
use crate::scheme::assert_layer_tags;
use fatpaths_net::graph::{Graph, RouterId};

/// The set of currently-down bidirectional links, canonicalized to
/// `(min, max)` pairs. Iteration order is sorted, so everything derived
/// from a `DownLinks` is deterministic regardless of how the set was
/// accumulated.
#[derive(Clone, Debug, Default)]
pub struct DownLinks {
    sorted: Vec<(RouterId, RouterId)>,
}

impl DownLinks {
    /// Builds the set from links in any orientation (duplicates collapse).
    pub fn from_links(links: &[(RouterId, RouterId)]) -> DownLinks {
        let mut sorted: Vec<(RouterId, RouterId)> =
            links.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        sorted.sort_unstable();
        sorted.dedup();
        DownLinks { sorted }
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
        self.sorted.binary_search(&(u.min(v), u.max(v))).is_ok()
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

/// One repair interval: every destination in `dst_start..dst_end` of
/// its `(layer, at)` row shares the ports `pool[off..off + len]`.
#[derive(Clone, Copy, Debug)]
struct RepairSpan {
    dst_start: RouterId,
    /// Exclusive.
    dst_end: RouterId,
    off: u32,
    len: u32,
}

const _: () = assert!(std::mem::size_of::<RepairSpan>() <= 16);

/// A key of [`RouteRepair`]: `(layer, at_router, dst_router)`.
pub type RepairKey = (u8, RouterId, RouterId);

/// A sparse overlay of repaired forwarding rows, keyed by
/// `(layer, at_router, dst_router)`.
///
/// Semantics of [`RouteRepair::lookup`]:
/// * `None` — the scheme's original row survived the failures; use
///   [`candidate_ports`](crate::scheme::RoutingScheme::candidate_ports).
/// * `Some(ports)` non-empty — the repaired candidates (already
///   including the repair-time layer-0 fallback).
/// * `Some(ports)` empty — the destination is unreachable from here in
///   the degraded network; the packet cannot be forwarded.
#[derive(Clone, Debug, Default)]
pub struct RouteRepair {
    /// Intervals sorted by `(at, layer, dst_start)`, disjoint in a row.
    spans: Vec<RepairSpan>,
    /// Every span's ports, concatenated in span order.
    pool: Vec<u16>,
    /// One more than the highest repaired layer tag.
    tags: usize,
    /// The row index: row `(layer, at)` is `r = at * tags + layer`, its
    /// spans `spans[row_start[r]..row_start[r + 1]]`. The per-hop lookup
    /// — a miss for almost every row — is two loads, with no hashing.
    row_start: Vec<u32>,
    /// Row count covered by `spans` (cached: spans compress rows).
    len: usize,
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

    /// The overlay holding `rows` (empty ports = unreachable), given once
    /// each in strictly ascending `(at, layer, dst)` order — the order
    /// [`rows`](Self::rows) returns. Panics, naming both keys, on a key out
    /// of order or given twice.
    pub fn from_rows<P: AsRef<[u16]>>(rows: impl IntoIterator<Item = (RepairKey, P)>) -> Self {
        let mut out = SpanWriter::default();
        for (key, ports) in rows {
            out.push(key, ports.as_ref());
        }
        out.finish()
    }

    /// Looks up a repaired row; see the type docs for the semantics.
    #[inline]
    pub fn lookup(&self, layer: u8, at: RouterId, dst: RouterId) -> Option<&[u16]> {
        if layer as usize >= self.tags {
            return None;
        }
        let row = at as usize * self.tags + layer as usize;
        let (start, end) = (*self.row_start.get(row)?, *self.row_start.get(row + 1)?);
        let spans = &self.spans[start as usize..end as usize];
        let s = spans[..spans.partition_point(|s| s.dst_start <= dst)].last()?;
        (dst < s.dst_end).then(|| self.ports(s))
    }

    /// The lookup without the row index: a scan of [`rows`](Self::rows).
    /// Kept as the test reference.
    #[cfg(test)]
    fn lookup_unindexed(&self, layer: u8, at: RouterId, dst: RouterId) -> Option<&[u16]> {
        self.rows()
            .find(|&(key, _)| key == (layer, at, dst))
            .map(|(_, ports)| ports)
    }

    #[inline]
    fn ports(&self, s: &RepairSpan) -> &[u16] {
        &self.pool[s.off as usize..][..s.len as usize]
    }

    /// Number of repaired rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Iterates over the repaired rows as `((layer, at, dst), ports)`,
    /// sorted by `(at, layer, dst)`.
    pub fn rows(&self) -> impl Iterator<Item = (RepairKey, &[u16])> + '_ {
        self.row_start
            .windows(2)
            .enumerate()
            .flat_map(move |(row, w)| {
                let (at, layer) = ((row / self.tags) as RouterId, (row % self.tags) as u8);
                self.spans[w[0] as usize..w[1] as usize]
                    .iter()
                    .flat_map(move |s| {
                        let ports = self.ports(s);
                        (s.dst_start..s.dst_end).map(move |dst| ((layer, at, dst), ports))
                    })
            })
    }

    /// True iff the overlay repairs nothing (the fast-path gate for the
    /// simulator's per-hop lookup).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }
}

/// Assembles a [`RouteRepair`] from rows given in strictly ascending
/// `(at, layer, dst)` order (checked): equal adjacent rows of one
/// `(layer, at)` row extend one span, and the row index is laid out at the
/// end, once the highest layer tag is known.
#[derive(Default)]
struct SpanWriter {
    spans: Vec<RepairSpan>,
    pool: Vec<u16>,
    /// Each non-empty `(at, layer)` row with the index of its first span.
    rows: Vec<(RouterId, u8, u32)>,
    len: usize,
    /// The last key pushed, as `(at, layer, dst)`.
    last: Option<(RouterId, u8, RouterId)>,
}

impl SpanWriter {
    /// A writer with room for `rows` single spans and `ports` pool entries.
    fn with_capacity(rows: usize, ports: usize) -> Self {
        SpanWriter {
            spans: Vec::with_capacity(rows),
            pool: Vec::with_capacity(ports),
            ..SpanWriter::default()
        }
    }

    fn push(&mut self, (layer, at, dst): RepairKey, ports: &[u16]) {
        let key = (at, layer, dst);
        if let Some(last) = self.last {
            assert!(
                last < key,
                "repair rows must arrive in strictly ascending (at, layer, dst) order: \
                 {key:?} after {last:?}"
            );
        }
        self.last = Some(key);
        self.len += 1;
        if self
            .rows
            .last()
            .is_some_and(|&(a, l, _)| (a, l) == (at, layer))
        {
            let last = self.spans.last_mut().expect("a row holds a span");
            if last.dst_end == dst && self.pool[last.off as usize..][..last.len as usize] == *ports
            {
                last.dst_end += 1; // extends the row's last span
                return;
            }
        } else {
            self.rows.push((at, layer, self.spans.len() as u32));
        }
        self.spans.push(RepairSpan {
            dst_start: dst,
            dst_end: dst + 1,
            off: self.pool.len() as u32,
            len: ports.len() as u32,
        });
        self.pool.extend_from_slice(ports);
    }

    /// The overlay, its spans and pool shrunk to their length: the writer
    /// is sized by an upper bound ([`OverlayBuilder::finish`]) or grown
    /// row by row ([`RouteRepair::from_rows`]), and a simulation keeps
    /// every repair pass's overlay for the whole run.
    fn finish(mut self) -> RouteRepair {
        self.spans.shrink_to_fit();
        self.pool.shrink_to_fit();
        let tags = self
            .rows
            .iter()
            .map(|&(_, l, _)| l as usize + 1)
            .max()
            .unwrap_or(0);
        // Row `r` starts at the first span of the first non-empty row at
        // or after it; one more entry closes the last row.
        let mut row_start = Vec::new();
        for &(at, layer, first) in &self.rows {
            row_start.resize(at as usize * tags + layer as usize + 1, first);
        }
        row_start.push(self.spans.len() as u32);
        RouteRepair {
            spans: self.spans,
            pool: self.pool,
            tags,
            row_start,
            len: self.len,
            fib_rows_rewritten: 0,
        }
    }
}

/// The destinations whose row of `layer` in `tables` a down link breaks:
/// a row crosses link `{a, b}` iff `a`'s entry is its port toward `b` or
/// `b`'s its port toward `a`. Every other row is a tree of live links and
/// stays valid as it is. Links not in `base` break nothing.
pub fn broken_rows(
    tables: &PortTables,
    base: &Graph,
    layer: usize,
    down: &DownLinks,
) -> Vec<RouterId> {
    let hops: Vec<(usize, u16)> = down
        .iter()
        .flat_map(|(a, b)| [(a, b), (b, a)])
        .filter_map(|(a, b)| Some((a as usize, base.port_of(a, b)? as u16)))
        .collect();
    (0..tables.nr() as RouterId)
        .filter(|&dst| {
            let row = tables.row(layer, dst);
            hops.iter().any(|&(a, port)| row[a] == port)
        })
        .collect()
}

/// Assembles a [`RouteRepair`] against healthy per-layer [`PortTables`],
/// with layer 0 the complete layer. Every layer is keyed by its own `u8`
/// tag, so the table set may hold at most
/// [`MAX_LAYERS`](crate::scheme::MAX_LAYERS) layers.
pub struct OverlayBuilder<'a> {
    healthy: &'a PortTables,
    /// One `(layer, dst, end)` per rewritten row, in ascending
    /// `(layer, dst)` order: its entries are `entries[end of the previous
    /// row..end]`.
    rows: Vec<(u8, RouterId, usize)>,
    /// The entries that differ from the healthy rows, as `(src, port)`.
    /// [`NO_PORT`] is "unreachable" in layer 0 and "the layer-0 route" in
    /// a sparse layer, resolved by `finish`.
    entries: Vec<(RouterId, u16)>,
}

impl<'a> OverlayBuilder<'a> {
    /// An empty overlay over `healthy`. Panics if `healthy` has more than
    /// [`MAX_LAYERS`](crate::scheme::MAX_LAYERS) layers.
    pub fn new(healthy: &'a PortTables) -> Self {
        assert_layer_tags(healthy.n_layers());
        OverlayBuilder {
            healthy,
            rows: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Installs `layer`'s rebuilt row toward `dst` (`new_row[src]`, same
    /// encoding as the healthy table) as the entries that differ from the
    /// healthy row. The effective forwarding becomes exactly the rebuilt
    /// tree, so the overlay never mixes two trees and stays loop-free. A
    /// pair the rebuilt row cannot reach is unreachable in layer 0 (the
    /// complete layer) and takes the repaired layer-0 route elsewhere.
    ///
    /// Rows arrive once each in strictly ascending `(layer, dst)` order,
    /// as both table repairs emit them; panics, naming both rows, on a row
    /// out of order or given twice.
    pub fn rewrite_row(&mut self, layer: usize, dst: RouterId, new_row: &[u16]) {
        let key = (layer as u8, dst);
        if let Some(&(l, d, _)) = self.rows.last() {
            assert!(
                (l, d) < key,
                "rewritten rows must arrive in strictly ascending (layer, dst) order: \
                 {key:?} after {:?}",
                (l, d)
            );
        }
        let old_row = self.healthy.row(layer, dst);
        for (src, (&np, &op)) in new_row.iter().zip(old_row).enumerate() {
            let src = src as RouterId;
            if src != dst && np != op {
                self.entries.push((src, np));
            }
        }
        self.rows.push((layer as u8, dst, self.entries.len()));
    }

    /// The overlay. A sparse-layer entry its rebuilt row cannot reach
    /// resolves to the layer-0 route at its router: the repaired one where
    /// layer 0 was rewritten, the healthy one elsewhere.
    ///
    /// Linear in the entries: a stable counting sort by router puts them
    /// in the overlay's `(at, layer, dst)` order, and one pass per router
    /// resolves the layer-0 routes.
    pub fn finish(self) -> RouteRepair {
        let healthy = self.healthy;
        let (start, by_at) = self.entries_by_router();
        let mut out = SpanWriter::with_capacity(by_at.len(), by_at.len());
        // Per destination, the repaired layer-0 port at the current router
        // (`NO_PORT`: unreachable), or `None` where layer 0 kept its row.
        let mut route0: Vec<Option<u16>> = vec![None; healthy.nr()];
        for (at, w) in start.windows(2).enumerate() {
            let (at, here) = (at as RouterId, &by_at[w[0]..w[1]]);
            for &(layer, dst, port) in here {
                let port = match (layer, port) {
                    (0, _) => {
                        route0[dst as usize] = Some(port);
                        port
                    }
                    (_, NO_PORT) => {
                        route0[dst as usize].unwrap_or(healthy.row(0, dst)[at as usize])
                    }
                    _ => port,
                };
                out.push((layer, at, dst), port_slice(&port));
            }
            for &(_, dst, _) in here.iter().take_while(|e| e.0 == 0) {
                route0[dst as usize] = None;
            }
        }
        out.finish()
    }

    /// The entries bucketed by router, each bucket in `(layer, dst)` order
    /// (the rows' own order): `by_at[start[at]..start[at + 1]]` holds
    /// router `at`'s entries as `(layer, dst, port)`, dealt out by a
    /// stable counting sort on the router.
    fn entries_by_router(self) -> (Vec<usize>, Vec<(u8, RouterId, u16)>) {
        let nr = self.healthy.nr();
        let mut start = vec![0usize; nr + 1];
        for &(src, _) in &self.entries {
            start[src as usize + 1] += 1;
        }
        for at in 0..nr {
            start[at + 1] += start[at];
        }
        let mut fill = start.clone();
        let mut by_at = vec![(0, 0, NO_PORT); self.entries.len()];
        let mut begin = 0;
        for &(layer, dst, end) in &self.rows {
            for &(src, port) in &self.entries[begin..end] {
                by_at[fill[src as usize]] = (layer, dst, port);
                fill[src as usize] += 1;
            }
            begin = end;
        }
        (start, by_at)
    }
}

/// One port as an overlay row's port set: [`NO_PORT`] is none.
fn port_slice(port: &u16) -> &[u16] {
    if *port == NO_PORT {
        &[]
    } else {
        std::slice::from_ref(port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn down_set_canonicalizes_and_sorts() {
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
        assert!(RouteRepair::none().is_empty());
        let r = RouteRepair::from_rows([((1, 4, 9), &[3][..]), ((1, 5, 9), &[])]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.lookup(1, 4, 9).unwrap(), &[3]);
        assert!(r.lookup(1, 5, 9).unwrap().is_empty());
        assert!(r.lookup(0, 4, 9).is_none());
    }

    #[test]
    fn equal_adjacent_rows_merge_into_one_span() {
        // Two contiguous dst runs with equal ports (merge), one row with
        // different ports (breaks the run), plus an unreachable row.
        let mut rows: Vec<(RepairKey, &[u16])> =
            (10..14).map(|dst| ((0, 2, dst), &[7][..])).collect();
        rows.extend([
            ((0, 2, 14), &[8][..]),
            ((1, 2, 10), &[]),
            ((0, 3, 11), &[7]),
        ]);
        let r = RouteRepair::from_rows(rows.iter().copied());
        assert_eq!(r.len(), 7);
        assert_eq!(r.spans.len(), 4, "contiguous equal rows must merge");
        for &((layer, at, dst), ports) in &rows {
            assert_eq!(r.lookup(layer, at, dst), Some(ports));
        }
        // Misses on either side of the spans.
        assert!(r.lookup(0, 2, 9).is_none());
        assert!(r.lookup(0, 2, 15).is_none());
        assert!(r.lookup(0, 4, 11).is_none());
        assert!(r.lookup(2, 2, 10).is_none());
        // The unreachable row is Some(empty).
        assert!(r.lookup(1, 2, 10).unwrap().is_empty());
    }

    proptest! {
        // Random rows with empty, single- and multi-port sets, collected
        // into a `BTreeMap` model keyed in `rows()` order and fed in that
        // order: every `(layer, at, dst)` — hits, gaps inside a row, rows
        // never repaired — answers the same from the model, the row index
        // and the unindexed search.
        #[test]
        fn lookups_and_rows_match_a_btreemap_model(
            rows in prop::collection::vec((0u8..3, 0u32..6, 0u32..24, 0u16..12), 0..120),
        ) {
            // `code % 4` ports from `code / 4` up: 0 is unreachable.
            let ports = |code: u16| (code / 4..code / 4 + code % 4).collect::<Vec<u16>>();
            let mut model = BTreeMap::new();
            for &(layer, at, dst, code) in &rows {
                model.insert((at, layer, dst), ports(code));
            }
            let r = RouteRepair::from_rows(
                model.iter().map(|(&(at, layer, dst), p)| ((layer, at, dst), p)),
            );
            prop_assert_eq!(r.len(), model.len());
            let got: Vec<(RepairKey, Vec<u16>)> = r.rows().map(|(k, p)| (k, p.to_vec())).collect();
            let want: Vec<(RepairKey, Vec<u16>)> = model
                .iter()
                .map(|(&(at, layer, dst), p)| ((layer, at, dst), p.clone()))
                .collect();
            prop_assert_eq!(got, want);
            for layer in 0..4u8 {
                for at in 0..7u32 {
                    for dst in 0..26u32 {
                        let want = model.get(&(at, layer, dst)).map(|p| p.as_slice());
                        prop_assert_eq!(r.lookup(layer, at, dst), want);
                        prop_assert_eq!(r.lookup_unindexed(layer, at, dst), want);
                    }
                }
            }
        }
    }

    /// The overlay `OverlayBuilder::finish` assembles, written plainly as
    /// its reference: every entry of `calls` (`rewrite_row` arguments) that
    /// differs from its healthy row, keyed in a `BTreeMap` by
    /// `(at, layer, dst)`, a sparse-layer entry with no port resolved to
    /// the layer-0 route at its router, repaired or healthy.
    fn finish_reference(
        healthy: &PortTables,
        calls: &[(usize, RouterId, Vec<u16>)],
    ) -> RouteRepair {
        let mut rows: BTreeMap<(RouterId, u8, RouterId), u16> = BTreeMap::new();
        for (layer, dst, new_row) in calls {
            let old_row = healthy.row(*layer, *dst);
            for (src, (&np, &op)) in new_row.iter().zip(old_row).enumerate() {
                if src as RouterId != *dst && np != op {
                    rows.insert((src as RouterId, *layer as u8, *dst), np);
                }
            }
        }
        let route0 = |at: RouterId, dst: RouterId| match rows.get(&(at, 0, dst)) {
            Some(&port) => port,
            None => healthy.row(0, dst)[at as usize],
        };
        RouteRepair::from_rows(rows.iter().map(|(&(at, layer, dst), &port)| {
            let port = if layer != 0 && port == NO_PORT {
                route0(at, dst)
            } else {
                port
            };
            ((layer, at, dst), port_slice(&port).to_vec())
        }))
    }

    proptest! {
        // Random healthy tables (every layer routes every pair: no holes
        // off the diagonal) and rewrites, ascending in `(layer, dst)` and
        // once each: the one-pass assembly returns the reference's rows,
        // and answers every lookup as the reference does.
        #[test]
        fn overlay_assembly_equals_the_reference(
            n_layers in 1usize..4,
            healthy in prop::collection::vec(0u16..4, 147..148),
            calls in prop::collection::vec((0usize..3, 0u32..7, prop::collection::vec(0u16..5, 7..8)), 0..12),
        ) {
            let nr = 7;
            let mut tables = PortTables::new(n_layers, nr);
            for (l, table) in tables.layers_mut().enumerate() {
                for (i, entry) in table.iter_mut().enumerate() {
                    if i / nr != i % nr {
                        *entry = healthy[l * nr * nr + i];
                    }
                }
            }
            // Code 4 is no port in a rewrite: unreachable in layer 0, the
            // layer-0 route in a sparse layer.
            let port = |code: u16| if code == 4 { NO_PORT } else { code };
            let mut calls: Vec<(usize, RouterId, Vec<u16>)> = calls
                .into_iter()
                .map(|(l, dst, row)| (l % n_layers, dst, row.into_iter().map(port).collect()))
                .collect();
            calls.sort_by_key(|&(l, dst, _)| (l, dst));
            calls.dedup_by_key(|&mut (l, dst, _)| (l, dst));
            let mut builder = OverlayBuilder::new(&tables);
            for (l, dst, row) in &calls {
                builder.rewrite_row(*l, *dst, row);
            }
            let got = builder.finish();
            let want = finish_reference(&tables, &calls);
            prop_assert_eq!(got.len(), want.len());
            prop_assert!(got.rows().eq(want.rows()));
            for layer in 0..4u8 {
                for at in 0..nr as u32 {
                    for dst in 0..nr as u32 {
                        prop_assert_eq!(got.lookup(layer, at, dst), want.lookup(layer, at, dst));
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(
        expected = "rewritten rows must arrive in strictly ascending (layer, dst) order: (0, 2) after (1, 0)"
    )]
    fn rewrite_row_rejects_a_row_out_of_order() {
        let healthy = PortTables::new(2, 3);
        let mut builder = OverlayBuilder::new(&healthy);
        builder.rewrite_row(1, 0, &[NO_PORT; 3]);
        builder.rewrite_row(0, 2, &[NO_PORT; 3]);
    }

    #[test]
    #[should_panic(
        expected = "rewritten rows must arrive in strictly ascending (layer, dst) order: (1, 2) after (1, 2)"
    )]
    fn rewrite_row_rejects_a_row_given_twice() {
        let healthy = PortTables::new(2, 3);
        let mut builder = OverlayBuilder::new(&healthy);
        builder.rewrite_row(1, 2, &[NO_PORT; 3]);
        builder.rewrite_row(1, 2, &[NO_PORT; 3]);
    }

    #[test]
    #[should_panic(
        expected = "repair rows must arrive in strictly ascending (at, layer, dst) order: (1, 1, 7) after (2, 0, 5)"
    )]
    fn from_rows_rejects_a_key_out_of_order() {
        RouteRepair::from_rows([((0, 2, 5), [1]), ((1, 1, 7), [2])]);
    }

    #[test]
    #[should_panic(
        expected = "repair rows must arrive in strictly ascending (at, layer, dst) order: (2, 0, 5) after (2, 0, 5)"
    )]
    fn from_rows_rejects_a_key_given_twice() {
        RouteRepair::from_rows([((0, 2, 5), [1]), ((0, 2, 5), [2])]);
    }

    #[test]
    fn an_empty_overlay_is_empty() {
        let r = RouteRepair::from_rows(std::iter::empty::<(RepairKey, [u16; 0])>());
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert!(r.lookup(0, 0, 0).is_none());
        assert_eq!(r.rows().count(), 0);
    }
}
