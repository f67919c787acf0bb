//! The negotiated-tree kernel: one Dijkstra per `(layer, dst)` tree over a
//! per-layer CSR view, recording every router's tight predecessors while
//! it relaxes.
//!
//! Tree builds are the hot loop of negotiation (each iteration rebuilds
//! every `(layer, dst)` tree) and of TE repair. A [`LayerCsr`] is built
//! once per layer per negotiation — neighbour, base port, base edge id and
//! the slot of each arc's reverse among its head's neighbour slots — so a
//! build never searches the base graph or hashes an edge. An iteration's
//! per-edge prices are gathered once into one [`PricedArc`] record per arc
//! (head, reverse slot, price; [`LayerCsr::gather`]), and [`build_tree`]
//! runs Dijkstra over those records on a [`RadixQueue`] — a monotone
//! radix heap keyed on the bit pattern of the non-negative `f64`
//! distance, exact because that pattern orders like the value — with
//! lazy deletion (a router is re-queued on each strict improvement, and a
//! popped entry whose key is no longer its router's label is skipped) and
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
//! reads the mask instead of scanning the arcs a second time — or is
//! skipped when the mask has one bit, the only candidate any hash picks.
//! Routers of degree above 64 do not fit a mask and fall back to the
//! scan.

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
    /// The slot of each arc's reverse among its head's neighbours.
    rev: Vec<u32>,
}

/// One arc as a tree build relaxes it: everything the inner loop reads,
/// in one record.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PricedArc {
    head: RouterId,
    /// The slot of the reverse arc at `head`: the bit this arc sets in
    /// `head`'s tight-predecessor mask (taken mod 64). Masks are read only
    /// at routers of at most [`MASK_SLOTS`] neighbours, where every slot
    /// is below 64, so the wrapped bits of wider routers are never read.
    rev: u32,
    price: f64,
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
            rev: Vec::new(),
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
        let mut into = vec![0u32; n];
        csr.rev = csr
            .head
            .iter()
            .map(|&v| {
                let k = into[v as usize];
                into[v as usize] += 1;
                k
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

    /// Per-edge `prices` laid out per arc with each arc's head and reverse
    /// slot: the records [`build_tree`] relaxes.
    pub(crate) fn gather(&self, prices: &[f64]) -> Vec<PricedArc> {
        self.head
            .iter()
            .zip(&self.rev)
            .zip(&self.eid)
            .map(|((&head, &rev), &e)| PricedArc {
                head,
                rev,
                price: prices[e as usize],
            })
            .collect()
    }
}

/// Buckets of [`RadixQueue`]: keys are non-negative `f64` bit patterns,
/// so bit 63 never differs and 63 bit positions plus "equal" suffice.
const BUCKETS: usize = 64;

/// Exact monotone priority queue of routers keyed by `u64`: a radix heap.
/// Every key pushed must be at least the last key popped (Dijkstra's
/// labels only grow), so a key's bucket is the position of the highest
/// bit in which it differs from that last key; a pop empties the lowest
/// bucket, and when that is not the bucket of keys equal to the last one
/// it first moves the bucket's minimum there and redistributes the rest,
/// each into a strictly lower bucket. Equal keys pop in no particular
/// order, and a router may be queued more than once: the caller skips
/// entries whose key is stale.
struct RadixQueue {
    /// The last key popped (0 before the first pop).
    last: u64,
    /// `buckets[0]` holds keys equal to `last`; `buckets[i]`, `i > 0`,
    /// keys whose highest bit differing from `last` is bit `i - 1`.
    buckets: [Vec<(u64, RouterId)>; BUCKETS],
    /// Bit `i` is set iff `buckets[i]` is non-empty.
    occupied: u64,
}

impl Default for RadixQueue {
    fn default() -> Self {
        RadixQueue {
            last: 0,
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
        }
    }
}

impl RadixQueue {
    /// Empties the queue, keeping its buckets' capacity.
    fn reset(&mut self) {
        while self.occupied != 0 {
            let b = self.occupied.trailing_zeros() as usize;
            self.buckets[b].clear();
            self.occupied &= self.occupied - 1;
        }
        self.last = 0;
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        (u64::BITS - (key ^ self.last).leading_zeros()) as usize
    }

    /// Queues `v` at `key`, which must be at least the last key popped and
    /// below `2^63` (the bit pattern of a non-negative `f64`).
    #[inline]
    fn push(&mut self, key: u64, v: RouterId) {
        debug_assert!(
            key >= self.last && key >> 63 == 0,
            "key {key} below {}",
            self.last
        );
        let b = self.bucket(key);
        self.buckets[b].push((key, v));
        self.occupied |= 1 << b;
    }

    /// Pops an entry of the least key.
    fn pop(&mut self) -> Option<(u64, RouterId)> {
        if self.occupied & 1 == 0 {
            if self.occupied == 0 {
                return None;
            }
            let b = self.occupied.trailing_zeros() as usize;
            let mut moved = std::mem::take(&mut self.buckets[b]);
            self.occupied &= !(1 << b);
            self.last = moved
                .iter()
                .map(|&(k, _)| k)
                .min()
                .expect("bucket is occupied");
            for &(k, v) in &moved {
                let i = self.bucket(k);
                self.buckets[i].push((k, v));
                self.occupied |= 1 << i;
            }
            moved.clear();
            self.buckets[b] = moved;
        }
        let item = self.buckets[0].pop();
        if self.buckets[0].is_empty() {
            self.occupied &= !1;
        }
        item
    }
}

/// The label of a router not reached (yet): the pattern of `+∞`.
const UNREACHED: u64 = f64::INFINITY.to_bits();

/// Scratch of [`build_tree`], reused across the trees one worker builds.
#[derive(Default)]
pub(crate) struct TreeScratch {
    /// Per router, the bit pattern of its distance label: patterns of
    /// non-negative `f64`s order like their values, so labels compare as
    /// integers.
    dist: Vec<u64>,
    /// Per router, its tight predecessors as a mask over its own slots.
    tight: Vec<u64>,
    queue: RadixQueue,
}

/// Builds one negotiated `(layer, dst)` tree into `trow` (entries of
/// `dst` and of sources that cannot reach it are left untouched): per
/// source, the base port toward one tight predecessor under the arc
/// records `arcs` ([`LayerCsr::gather`]), picked among them in neighbour
/// order by `fnv1a(layer, src, dst)` — the static tables' discipline.
/// Loop-free: prices are ≥ 1, so every hop strictly lowers the distance
/// to `dst`.
pub(crate) fn build_tree(
    csr: &LayerCsr,
    arcs: &[PricedArc],
    layer: u32,
    dst: RouterId,
    scratch: &mut TreeScratch,
    trow: &mut [u16],
) {
    let n = csr.n();
    let TreeScratch { dist, tight, queue } = scratch;
    dist.clear();
    dist.resize(n, UNREACHED);
    // Every reached router's mask is reset by its first relaxation.
    tight.resize(n, 0);
    let (dist, tight) = (&mut dist[..], &mut tight[..n]);
    queue.reset();
    dist[dst as usize] = 0.0f64.to_bits();
    queue.push(dist[dst as usize], dst);
    while let Some((key, u)) = queue.pop() {
        if key != dist[u as usize] {
            continue; // stale: `u` was queued again at a lower label
        }
        let du = f64::from_bits(key);
        for a in &arcs[csr.slots(u)] {
            let v = a.head as usize;
            let nd = (du + a.price).to_bits();
            if nd < dist[v] {
                dist[v] = nd;
                tight[v] = 1u64.wrapping_shl(a.rev);
                queue.push(nd, a.head);
            } else if nd == dist[v] {
                tight[v] |= 1u64.wrapping_shl(a.rev);
            }
        }
    }
    for src in 0..n as RouterId {
        let ds = dist[src as usize];
        if src == dst || ds == UNREACHED {
            continue;
        }
        let slots = csr.slots(src);
        let key = (layer as u64) << 48 | (src as u64) << 24 | dst as u64;
        let slot = if slots.len() <= MASK_SLOTS {
            let mut mask = tight[src as usize];
            let count = mask.count_ones() as u64;
            if count > 1 {
                for _ in 0..fnv1a(key) % count {
                    mask &= mask - 1;
                }
            }
            slots.start + mask.trailing_zeros() as usize
        } else {
            let is_tight = |i: &usize| {
                let a = &arcs[*i];
                (f64::from_bits(dist[a.head as usize]) + a.price).to_bits() == ds
            };
            let count = slots.clone().filter(is_tight).count() as u64;
            slots
                .filter(is_tight)
                .nth((fnv1a(key) % count) as usize)
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
    /// they are formed in. `1 + 2^-52` sums to labels one ulp apart (the
    /// queue's lowest bucket boundaries), and 1e3 / 1e9 to labels many
    /// exponents apart, where a cheap detour ties or beats one dear arc
    /// and most routers keep a single tight predecessor.
    const PRICES: [f64; 8] = [1.0, 1.0 + f64::EPSILON, 1.1, 2.0, 2.2, 3.3, 1e3, 1e9];

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
            let index: std::collections::HashMap<(u32, u32), u32> = canonical.iter().copied().zip(0..).collect();
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

    /// A label the queue proptest pushes: `last` plus a step of one of
    /// many magnitudes (0 and one ulp included), so keys span 0 to past
    /// 1e9 and land in every bucket.
    fn step(last: f64, kind: usize, frac: f64) -> f64 {
        match kind {
            0 => last,
            1 => f64::from_bits(last.to_bits() + 1),
            2 => last + frac,
            3 => last + frac * 1e3,
            4 => last + frac * 1e6,
            _ => last + frac * 1e9,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Random monotone runs as Dijkstra drives the queue: pushes at or
        // above the last key popped (equal keys, one-ulp steps, jumps of
        // many exponents), re-pushes of a queued router at a lower label
        // leaving a stale entry, pops that skip stale entries. Every pop
        // returns the key a `BinaryHeap` holding the same entries pops,
        // every live pop the least live label, and both pop the same
        // entries overall.
        #[test]
        fn radix_queue_pops_like_a_binary_heap(
            ops in prop::collection::vec((0u8..5, 0u32..24, 0usize..6, 0.0f64..1.0), 1..400),
        ) {
            let mut queue = RadixQueue::default();
            let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
            // Per router its live label (the least pushed since its last
            // live pop), as the tree build's `dist` holds it.
            let mut label: Vec<Option<u64>> = vec![None; 24];
            let (mut got, mut want) = (Vec::new(), Vec::new());
            for &(op, v, kind, frac) in &ops {
                if op < 4 {
                    let key = step(f64::from_bits(queue.last), kind, frac).to_bits();
                    if label[v as usize].is_none_or(|old| key < old) {
                        label[v as usize] = Some(key);
                        queue.push(key, v);
                        heap.push(Reverse((key, v)));
                    }
                    continue;
                }
                // One live pop.
                let least = label.iter().flatten().min().copied();
                loop {
                    let (a, b) = (queue.pop(), heap.pop().map(|Reverse(e)| e));
                    prop_assert_eq!(a.map(|e| e.0), b.map(|e| e.0));
                    got.extend(a);
                    want.extend(b);
                    match a {
                        None => {
                            prop_assert_eq!(least, None);
                            break;
                        }
                        Some((k, u)) if label[u as usize] == Some(k) => {
                            prop_assert_eq!(Some(k), least);
                            label[u as usize] = None;
                            break;
                        }
                        Some(_) => {} // stale
                    }
                }
            }
            while let Some(a) = queue.pop() {
                let b = heap.pop().map(|Reverse(e)| e);
                prop_assert_eq!(Some(a.0), b.map(|e| e.0));
                got.push(a);
                want.extend(b);
            }
            prop_assert!(heap.is_empty());
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
