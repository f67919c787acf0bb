//! The negotiated-tree kernel: one Dijkstra per `(layer, dst)` tree over a
//! per-layer CSR view, recording every router's tight predecessors while
//! it relaxes.
//!
//! Tree builds are the hot loop of negotiation (each iteration rebuilds
//! every `(layer, dst)` tree) and of TE repair. A [`LayerCsr`] is built
//! once per layer per negotiation — neighbour, base port, base edge id and
//! the bit of each arc's reverse among its head's neighbour slots — so a
//! build never searches the base graph or hashes an edge. An iteration's
//! per-edge prices are laid out per arc once ([`LayerCsr::gather`]), and
//! [`build_tree`] runs Dijkstra on an indexed 4-ary heap (decrease-key,
//! keyed on the bit pattern of the non-negative `f64` distance) with
//! per-worker scratch.
//!
//! The rows are exactly those of the scan formulation (the test oracle
//! `weighted_tree`). Prices are ≥ 1, so a neighbour `u` with
//! `fl(dist[u] + c) == dist[v]` — a *tight* predecessor of `v` — settles
//! strictly before `v`: final labels do not depend on pop order, and
//! relaxing `u → v` sees `u`'s final label. Resetting `v`'s mask on each
//! strict improvement and OR-ing on each equal relaxation thus leaves
//! exactly the tight predecessors, as a bitmask over `v`'s own neighbour
//! slots; candidate order stays neighbour order, and the `fnv1a` pick
//! reads the mask instead of scanning the arcs a second time. Routers of
//! degree above 64 do not fit a mask and fall back to the scan.

use fatpaths_core::fwd::fnv1a;
use fatpaths_core::repair::DownLinks;
use fatpaths_net::graph::{Graph, RouterId};
use std::ops::Range;

/// Neighbour slots a tight-predecessor mask covers.
const MASK_SLOTS: usize = 64;

/// One layer's arcs in CSR form, as [`build_tree`] reads them.
#[derive(Clone, Debug)]
pub(crate) struct LayerCsr {
    /// Arcs of router `u` are `start[u]..start[u + 1]`.
    start: Vec<u32>,
    /// Head of each arc, ascending per tail (the layer's neighbour order).
    head: Vec<RouterId>,
    /// Base-graph port of each arc.
    port: Vec<u16>,
    /// Base edge id of each arc: its index into a per-edge price vector.
    eid: Vec<u32>,
    /// `1 << j` when the arc's reverse is slot `j < 64` of its head, else 0.
    rev_bit: Vec<u64>,
}

impl LayerCsr {
    /// The view of layer graph `lg`; `arc_eids` is the base's
    /// [`Graph::arc_edge_ids`].
    pub(crate) fn new(base: &Graph, lg: &Graph, arc_eids: &[u32]) -> Self {
        Self::from_arcs(lg.n(), |u| {
            lg.neighbors(u).iter().map(move |&v| {
                let p = base
                    .port_of(u, v)
                    .expect("layer edge must exist in base graph") as usize;
                (v, p as u16, arc_eids[base.arcs(u).start + p])
            })
        })
    }

    /// This view without the arcs of `down`: the degraded layer.
    pub(crate) fn without(&self, down: &DownLinks) -> Self {
        Self::from_arcs(self.n(), |u| {
            self.slots(u)
                .filter(move |&i| !down.contains(u, self.head[i]))
                .map(|i| (self.head[i], self.port[i], self.eid[i]))
        })
    }

    /// Builds the view from each router's `(head, port, edge id)` arcs,
    /// which must be ascending by head and symmetric.
    fn from_arcs<I>(n: usize, arcs: impl Fn(RouterId) -> I) -> Self
    where
        I: Iterator<Item = (RouterId, u16, u32)>,
    {
        let mut csr = LayerCsr {
            start: Vec::with_capacity(n + 1),
            head: Vec::new(),
            port: Vec::new(),
            eid: Vec::new(),
            rev_bit: Vec::new(),
        };
        csr.start.push(0);
        for u in 0..n as RouterId {
            for (v, p, e) in arcs(u) {
                csr.head.push(v);
                csr.port.push(p);
                csr.eid.push(e);
            }
            csr.start.push(csr.head.len() as u32);
        }
        // Tails are stored ascending and every list is ascending and
        // symmetric, so the k-th stored arc into `v` comes from `v`'s k-th
        // neighbour: its reverse is slot k of `v`.
        let mut into = vec![0usize; n];
        csr.rev_bit = csr
            .head
            .iter()
            .map(|&v| {
                let k = into[v as usize];
                into[v as usize] += 1;
                if k < MASK_SLOTS {
                    1 << k
                } else {
                    0
                }
            })
            .collect();
        csr
    }

    fn n(&self) -> usize {
        self.start.len() - 1
    }

    fn slots(&self, u: RouterId) -> Range<usize> {
        self.start[u as usize] as usize..self.start[u as usize + 1] as usize
    }

    /// Per-edge `prices` laid out per arc, the cost array [`build_tree`]
    /// reads.
    pub(crate) fn gather(&self, prices: &[f64]) -> Vec<f64> {
        self.eid.iter().map(|&e| prices[e as usize]).collect()
    }
}

/// Branching factor of [`Heap`].
const ARITY: usize = 4;

/// [`Heap::pos`] of a router that is not queued.
const ABSENT: u32 = u32::MAX;

/// Indexed 4-ary min-heap of routers with decrease-key.
#[derive(Default)]
struct Heap {
    /// `(key, router)` in heap order.
    items: Vec<(u64, RouterId)>,
    /// Index of each router in `items`, or [`ABSENT`].
    pos: Vec<u32>,
}

impl Heap {
    fn reset(&mut self, n: usize) {
        self.items.clear();
        self.pos.clear();
        self.pos.resize(n, ABSENT);
    }

    /// Queues `v` at `key`, or lowers its key if it is already queued
    /// (keys only ever fall).
    fn push_or_decrease(&mut self, v: RouterId, key: u64) {
        let i = match self.pos[v as usize] {
            ABSENT => {
                self.items.push((key, v));
                self.items.len() - 1
            }
            i => i as usize,
        };
        self.sift_up(i, (key, v));
    }

    fn pop(&mut self) -> Option<RouterId> {
        let (_, top) = *self.items.first()?;
        self.pos[top as usize] = ABSENT;
        let last = self.items.pop().expect("the heap is not empty");
        if !self.items.is_empty() {
            self.sift_down(0, last);
        }
        Some(top)
    }

    fn place(&mut self, i: usize, item: (u64, RouterId)) {
        self.items[i] = item;
        self.pos[item.1 as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize, item: (u64, RouterId)) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.items[parent].0 <= item.0 {
                break;
            }
            self.place(i, self.items[parent]);
            i = parent;
        }
        self.place(i, item);
    }

    fn sift_down(&mut self, mut i: usize, item: (u64, RouterId)) {
        let len = self.items.len();
        loop {
            let first = i * ARITY + 1;
            if first >= len {
                break;
            }
            let child = (first..(first + ARITY).min(len))
                .min_by_key(|&c| self.items[c].0)
                .expect("at least one child");
            if self.items[child].0 >= item.0 {
                break;
            }
            self.place(i, self.items[child]);
            i = child;
        }
        self.place(i, item);
    }
}

/// Scratch of [`build_tree`], reused across the trees one worker builds.
#[derive(Default)]
pub(crate) struct TreeScratch {
    dist: Vec<f64>,
    /// Per router, its tight predecessors as a mask over its own slots.
    tight: Vec<u64>,
    heap: Heap,
}

/// Builds one negotiated `(layer, dst)` tree into `trow` (entries of
/// `dst` and of sources that cannot reach it are left untouched): per
/// source, the base port toward one tight predecessor under the arc
/// prices `cost` ([`LayerCsr::gather`]), picked among them in neighbour
/// order by `fnv1a(layer, src, dst)` — the static tables' discipline.
/// Loop-free: prices are ≥ 1, so every hop strictly lowers the distance
/// to `dst`.
pub(crate) fn build_tree(
    csr: &LayerCsr,
    cost: &[f64],
    layer: u32,
    dst: RouterId,
    scratch: &mut TreeScratch,
    trow: &mut [u16],
) {
    let n = csr.n();
    let TreeScratch { dist, tight, heap } = scratch;
    dist.clear();
    dist.resize(n, f64::INFINITY);
    // Every reached router's mask is reset by its first relaxation.
    tight.resize(n, 0);
    heap.reset(n);
    dist[dst as usize] = 0.0;
    heap.push_or_decrease(dst, 0.0f64.to_bits());
    while let Some(u) = heap.pop() {
        let du = dist[u as usize];
        for i in csr.slots(u) {
            let v = csr.head[i] as usize;
            let nd = du + cost[i];
            if nd < dist[v] {
                dist[v] = nd;
                tight[v] = csr.rev_bit[i];
                heap.push_or_decrease(v as RouterId, nd.to_bits());
            } else if nd == dist[v] {
                tight[v] |= csr.rev_bit[i];
            }
        }
    }
    for src in 0..n as RouterId {
        let ds = dist[src as usize];
        if src == dst || ds == f64::INFINITY {
            continue;
        }
        let slots = csr.slots(src);
        let key = (layer as u64) << 48 | (src as u64) << 24 | dst as u64;
        let hash = fnv1a(key);
        let slot = if slots.len() <= MASK_SLOTS {
            let mut mask = tight[src as usize];
            for _ in 0..hash % mask.count_ones() as u64 {
                mask &= mask - 1;
            }
            slots.start + mask.trailing_zeros() as usize
        } else {
            let is_tight = |i: &usize| dist[csr.head[*i] as usize] + cost[*i] == ds;
            let count = slots.clone().filter(is_tight).count() as u64;
            slots
                .filter(is_tight)
                .nth((hash % count) as usize)
                .expect("the neighbour that relaxed `src` is tight")
        };
        trow[src as usize] = csr.port[slot];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatpaths_core::fwd::NO_PORT;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// `f64` ordered by `total_cmp` so it can key the oracle's heap.
    #[derive(Clone, Copy, PartialEq)]
    struct OrdF64(f64);
    impl Eq for OrdF64 {}
    impl PartialOrd for OrdF64 {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for OrdF64 {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0.total_cmp(&other.0)
        }
    }

    /// The scan formulation [`build_tree`] must equal: a lazy-deletion
    /// binary-heap Dijkstra from `dst` over `lg` under per-edge `costs`
    /// (`eids[u][i]` is the edge id of `lg.neighbors(u)[i]`), `skip`
    /// masking down links, then a second pass over every source's arcs
    /// counting and picking the tight ones.
    #[allow(clippy::too_many_arguments)]
    fn weighted_tree(
        base: &Graph,
        lg: &Graph,
        eids: &[Vec<u32>],
        costs: &[f64],
        skip: Option<&DownLinks>,
        layer: u32,
        dst: u32,
        trow: &mut [u16],
    ) {
        let n = lg.n();
        let mut dist = vec![f64::INFINITY; n];
        let mut heap: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();
        dist[dst as usize] = 0.0;
        heap.push(Reverse((OrdF64(0.0), dst)));
        while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
            if d > dist[u as usize] {
                continue;
            }
            for (i, &v) in lg.neighbors(u).iter().enumerate() {
                if skip.is_some_and(|s| s.contains(u, v)) {
                    continue;
                }
                let nd = d + costs[eids[u as usize][i] as usize];
                if nd < dist[v as usize] {
                    dist[v as usize] = nd;
                    heap.push(Reverse((OrdF64(nd), v)));
                }
            }
        }
        for src in 0..n as u32 {
            let ds = dist[src as usize];
            if src == dst || !ds.is_finite() {
                continue;
            }
            let nbs = lg.neighbors(src);
            let cand = |i: usize, v: u32| {
                !skip.is_some_and(|s| s.contains(src, v))
                    && dist[v as usize] + costs[eids[src as usize][i] as usize] == ds
            };
            let count = nbs.iter().enumerate().filter(|&(i, &v)| cand(i, v)).count();
            let key = (layer as u64) << 48 | (src as u64) << 24 | dst as u64;
            let pick = (fnv1a(key) % count as u64) as usize;
            let (_, &chosen) = nbs
                .iter()
                .enumerate()
                .filter(|&(i, &v)| cand(i, v))
                .nth(pick)
                .unwrap();
            trow[src as usize] = base.port_of(src, chosen).unwrap() as u16;
        }
    }

    /// Few distinct prices, so equal-cost ties are common; 1.1 / 2.2 / 3.3
    /// add sums that tie or miss by one rounding depending on the order
    /// they are formed in.
    const PRICES: [f64; 5] = [1.0, 1.1, 2.0, 2.2, 3.3];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        // Random graphs where router 0 has degree ≥ 65 (the scan
        // fallback), the complete graph and a sparse layer of it, with and
        // without down links: every row equals the oracle's byte for byte.
        #[test]
        fn rows_equal_the_scan_oracle(
            n in 66usize..96,
            extra in prop::collection::vec((0usize..96, 0usize..96), 0..200),
            price_of in prop::collection::vec(0usize..PRICES.len(), 1..64),
            down_mod in 2usize..9,
        ) {
            let layer = (n % 4) as u32;
            let mut edges: Vec<(u32, u32)> = (1..66).map(|v| (0, v)).collect();
            edges.extend(
                extra
                    .iter()
                    .map(|&(u, v)| ((u % n) as u32, (v % n) as u32))
                    .filter(|(u, v)| u != v),
            );
            let g = Graph::from_edges(n, &edges);
            let canonical = g.edge_vec();
            let prices: Vec<f64> = (0..g.m()).map(|e| PRICES[price_of[e % price_of.len()]]).collect();
            let index = g.edge_index_map();
            let eid = |u: u32, v: u32| index[&(u.min(v), u.max(v))];
            let arc_eids = g.arc_edge_ids();
            let sparse = g.without_edges(
                &canonical.iter().copied().enumerate().filter(|(e, _)| e % 3 == 1).map(|(_, uv)| uv).collect::<Vec<_>>(),
            );
            let down = DownLinks::from_links(
                &canonical.iter().copied().enumerate().filter(|(e, _)| e % down_mod == 0).map(|(_, uv)| uv).collect::<Vec<_>>(),
            );
            for lg in [&g, &sparse] {
                let eids: Vec<Vec<u32>> = (0..n as u32)
                    .map(|u| lg.neighbors(u).iter().map(|&v| eid(u, v)).collect())
                    .collect();
                let healthy = LayerCsr::new(&g, lg, &arc_eids);
                for skip in [None, Some(&down)] {
                    let csr = match skip {
                        Some(d) => healthy.without(d),
                        None => healthy.clone(),
                    };
                    let cost = csr.gather(&prices);
                    let mut scratch = TreeScratch::default();
                    for dst in 0..n as u32 {
                        let mut want = vec![NO_PORT; n];
                        weighted_tree(&g, lg, &eids, &prices, skip, layer, dst, &mut want);
                        let mut got = vec![NO_PORT; n];
                        build_tree(&csr, &cost, layer, dst, &mut scratch, &mut got);
                        prop_assert_eq!(&got, &want, "dst {} down {}", dst, skip.is_some());
                    }
                }
            }
        }
    }
}
