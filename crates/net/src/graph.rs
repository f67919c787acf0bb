//! Compact undirected graph used for all topology and routing work.
//!
//! The graph is stored in CSR (compressed sparse row) form with sorted
//! neighbor lists, so membership queries are `O(log k')` and the whole
//! structure is two flat allocations. Routers are identified by dense
//! `u32` ids (`RouterId`), matching the paper's model where endpoints are
//! not part of the router graph (§II-A).
//!
//! Every all-pairs computation in the workspace (distance matrices,
//! per-layer forwarding tables, path statistics, diameter) runs through
//! one kernel, [`Graph::bfs_batches`]; [`Graph::bfs`] serves single-source
//! callers and is the kernel's reference.

use rayon::prelude::*;

/// Dense identifier of a router (the paper's vertex set `V`).
pub type RouterId = u32;

/// Distance value returned by BFS; `UNREACHABLE` marks disconnected pairs.
pub const UNREACHABLE: u32 = u32::MAX;

/// Sources one pass of [`Graph::bfs_batches`] runs together, one bit each
/// in a [`SourceBits`] word per router.
pub const BFS_BATCH: usize = 256;

/// A set of sources of one batch: bit `i % 64` of word `i / 64` stands for
/// the batch's `i`-th source.
pub type SourceBits = [u64; BFS_BATCH / 64];

/// Calls `f` with the in-batch index of every source in `bits`, ascending.
#[inline]
pub fn for_each_source(bits: &SourceBits, mut f: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate() {
        let mut rest = word;
        while rest != 0 {
            f(w * 64 + rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
    }
}

/// `(farthest level, Σ level·count, Σ count)` of a
/// [`Graph::hop_histogram`]: the largest distance, the distance sum and
/// the number of pairs it counts.
pub fn hop_totals(hist: &[u64]) -> (u32, u64, u64) {
    let total = hist.iter().enumerate().map(|(l, &c)| l as u64 * c).sum();
    (
        hist.len().saturating_sub(1) as u32,
        total,
        hist.iter().sum(),
    )
}

/// Work arrays of one batch of [`Graph::bfs_batches`], reused by the
/// batches a worker runs in turn.
#[derive(Default)]
struct BatchLanes {
    /// Sources that have reached each router so far.
    seen: Vec<SourceBits>,
    /// Sources that reached each router at the previous level.
    frontier: Vec<SourceBits>,
    /// Sources that reach each router at the current level.
    next: Vec<SourceBits>,
}

/// An undirected simple graph over routers `0..n` in CSR form.
///
/// Neighbor lists are sorted, which gives each incident edge of a router a
/// stable *port number* (its index in the list) — the simulator and the
/// forwarding tables address links through these ports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<u32>,
    neigh: Vec<RouterId>,
}

impl Graph {
    /// Builds a graph with `n` routers from an undirected edge list.
    ///
    /// Self-loops are rejected; duplicate edges (in either orientation) are
    /// collapsed. Panics if an endpoint is out of range.
    pub fn from_edges(n: usize, edges: &[(RouterId, RouterId)]) -> Self {
        let mut adj: Vec<Vec<RouterId>> = vec![Vec::new(); n];
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u},{v}) out of range for n={n}"
            );
            assert_ne!(u, v, "self-loop at router {u}");
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neigh = Vec::with_capacity(edges.len() * 2);
        offsets.push(0);
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            neigh.extend_from_slice(list);
            offsets.push(neigh.len() as u32);
        }
        Graph { offsets, neigh }
    }

    /// Number of routers.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.neigh.len() / 2
    }

    /// Sorted neighbor list of `u`; index into it is the port number.
    #[inline]
    pub fn neighbors(&self, u: RouterId) -> &[RouterId] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.neigh[lo..hi]
    }

    /// Degree (network radix `k'` for regular topologies) of `u`.
    #[inline]
    pub fn degree(&self, u: RouterId) -> usize {
        self.neighbors(u).len()
    }

    /// Maximum degree over all routers.
    pub fn max_degree(&self) -> usize {
        (0..self.n())
            .map(|u| self.degree(u as u32))
            .max()
            .unwrap_or(0)
    }

    /// Minimum degree over all routers.
    fn min_degree(&self) -> usize {
        (0..self.n())
            .map(|u| self.degree(u as u32))
            .min()
            .unwrap_or(0)
    }

    /// True iff every router has the same degree.
    pub fn is_regular(&self) -> bool {
        self.max_degree() == self.min_degree()
    }

    /// True iff `{u, v}` is an edge.
    #[inline]
    pub fn has_edge(&self, u: RouterId, v: RouterId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Port of `u` that leads to `v`, if the link exists.
    #[inline]
    pub fn port_of(&self, u: RouterId, v: RouterId) -> Option<u32> {
        self.neighbors(u).binary_search(&v).ok().map(|p| p as u32)
    }

    /// Neighbor of `u` behind port `port`.
    #[inline]
    pub fn neighbor_at(&self, u: RouterId, port: u32) -> RouterId {
        self.neighbors(u)[port as usize]
    }

    /// Iterates over undirected edges as `(u, v)` with `u < v`, in canonical
    /// order (by `u`, then by `v`). Parallel metadata (e.g. link classes) is
    /// stored in this order.
    pub fn edges(&self) -> impl Iterator<Item = (RouterId, RouterId)> + '_ {
        (0..self.n() as u32)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
    }

    /// Collects the canonical edge list.
    pub fn edge_vec(&self) -> Vec<(RouterId, RouterId)> {
        self.edges().collect()
    }

    /// The arcs of `u` in CSR order: `arcs(u).start + p` is the arc
    /// behind port `p`, an index into [`Graph::arc_edge_ids`].
    #[inline]
    pub fn arcs(&self, u: RouterId) -> std::ops::Range<usize> {
        self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize
    }

    /// The canonical edge id ([`Graph::edge_vec`] index) of every arc in
    /// CSR order: entry `arcs(u).start + p` is the id of `u`'s edge behind
    /// port `p`. Both arcs of an edge carry its id.
    pub fn arc_edge_ids(&self) -> Vec<u32> {
        let mut ids = vec![0u32; self.neigh.len()];
        let mut next = 0u32;
        for u in 0..self.n() as u32 {
            for (a, &v) in self.arcs(u).zip(self.neighbors(u)) {
                ids[a] = if u < v {
                    next += 1;
                    next - 1
                } else {
                    // The edge was numbered from `v`'s side.
                    let p = self.port_of(v, u).expect("neighbour lists are symmetric");
                    ids[self.arcs(v).start + p as usize]
                };
            }
        }
        ids
    }

    /// Canonical id of edge `{u, v}`, if the link exists, read from
    /// `arc_eids` — this graph's [`Graph::arc_edge_ids`] — behind `u`'s
    /// port toward `v`.
    #[inline]
    pub fn edge_id(&self, arc_eids: &[u32], u: RouterId, v: RouterId) -> Option<u32> {
        let p = self.port_of(u, v)?;
        Some(arc_eids[self.arcs(u).start + p as usize])
    }

    /// BFS hop distances from `src`. Unreached routers get
    /// [`UNREACHABLE`].
    pub fn bfs(&self, src: RouterId) -> Vec<u32> {
        let mut dist = vec![UNREACHABLE; self.n()];
        let mut queue = Vec::new();
        dist[src as usize] = 0;
        queue.push(src);
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            let du = dist[u as usize];
            for &v in self.neighbors(u) {
                if dist[v as usize] == UNREACHABLE {
                    dist[v as usize] = du + 1;
                    queue.push(v);
                }
            }
        }
        dist
    }

    /// BFS from every router of `sources` at once — the bit-parallel
    /// multi-source BFS of Then et al. ("The More the Merrier", VLDB 2015).
    ///
    /// `sources` is cut into batches of [`BFS_BATCH`]; batch `b` (sources
    /// `b·BFS_BATCH..`) owns `sinks[b]`. `visit(sink, level, v, bits)` is
    /// called once per hop level and router `v` that some source of the
    /// batch first reaches at that level, with `bits` those sources (in
    /// the batch's numbering, see [`for_each_source`]); level 0 reports
    /// each source at itself. So every (source, reachable router) pair is
    /// reported exactly once, with its exact, unclamped hop distance, and
    /// unreachable pairs never are. Levels of one batch arrive in
    /// ascending order. Sources may repeat and need not be contiguous.
    ///
    /// A level is one pull over the CSR — a router's new bits are the OR
    /// of its neighbours' frontier bits minus the sources that already
    /// reached it — so a batch costs `O(levels · m)` word operations for
    /// up to 256 sources. Batches run on the pool, each writing only its
    /// own sink, and the sinks come back in batch order: the result is the
    /// same at any thread count.
    pub fn bfs_batches<S, F>(&self, sources: &[RouterId], sinks: Vec<S>, visit: F) -> Vec<S>
    where
        S: Send,
        F: Fn(&mut S, u32, RouterId, &SourceBits) + Sync,
    {
        assert_eq!(
            sinks.len(),
            sources.len().div_ceil(BFS_BATCH),
            "bfs_batches takes one sink per batch of {BFS_BATCH} sources"
        );
        sinks
            .into_par_iter()
            .enumerate()
            .map_init(BatchLanes::default, |lanes, (b, mut sink)| {
                let batch = &sources[b * BFS_BATCH..sources.len().min((b + 1) * BFS_BATCH)];
                self.bfs_batch(batch, lanes, |level, v, bits| {
                    visit(&mut sink, level, v, bits)
                });
                sink
            })
            .collect()
    }

    /// One batch (≤ [`BFS_BATCH`] sources) of [`Graph::bfs_batches`].
    fn bfs_batch(
        &self,
        sources: &[RouterId],
        lanes: &mut BatchLanes,
        mut visit: impl FnMut(u32, RouterId, &SourceBits),
    ) {
        const NONE: SourceBits = [0; BFS_BATCH / 64];
        let n = self.n();
        let BatchLanes {
            seen,
            frontier,
            next,
        } = lanes;
        frontier.clear();
        frontier.resize(n, NONE);
        next.clear();
        next.resize(n, NONE);
        let mut all = NONE;
        for (i, &s) in sources.iter().enumerate() {
            frontier[s as usize][i / 64] |= 1 << (i % 64);
            all[i / 64] |= 1 << (i % 64);
        }
        seen.clear();
        seen.extend_from_slice(frontier);
        for (v, bits) in frontier.iter().enumerate() {
            if *bits != NONE {
                visit(0, v as RouterId, bits);
            }
        }
        let mut level = 0;
        loop {
            level += 1;
            let mut reached = false;
            for (v, (sv, nv)) in seen.iter_mut().zip(next.iter_mut()).enumerate() {
                let mut new = NONE;
                if *sv != all {
                    let lo = self.offsets[v] as usize;
                    let hi = self.offsets[v + 1] as usize;
                    for &u in &self.neigh[lo..hi] {
                        let fu = &frontier[u as usize];
                        for w in 0..new.len() {
                            new[w] |= fu[w];
                        }
                    }
                    for w in 0..new.len() {
                        new[w] &= !sv[w];
                        sv[w] |= new[w];
                    }
                    if new != NONE {
                        visit(level, v as RouterId, &new);
                        reached = true;
                    }
                }
                *nv = new;
            }
            if !reached {
                return;
            }
            std::mem::swap(frontier, next);
        }
    }

    /// `hist[l]` = number of (source, router) pairs at hop distance `l`,
    /// over every source of `sources` and every router it reaches (so
    /// `hist[0]` counts the sources themselves; unreachable pairs are not
    /// counted). The vector ends at the farthest level reached.
    pub fn hop_histogram(&self, sources: &[RouterId]) -> Vec<u64> {
        let sinks = vec![Vec::new(); sources.len().div_ceil(BFS_BATCH)];
        let per_batch = self.bfs_batches(sources, sinks, |hist: &mut Vec<u64>, level, _, bits| {
            let l = level as usize;
            if l >= hist.len() {
                hist.resize(l + 1, 0);
            }
            hist[l] += bits.iter().map(|w| w.count_ones() as u64).sum::<u64>();
        });
        let mut hist: Vec<u64> = Vec::new();
        for h in per_batch {
            if h.len() > hist.len() {
                hist.resize(h.len(), 0);
            }
            for (acc, c) in hist.iter_mut().zip(h) {
                *acc += c;
            }
        }
        hist
    }

    /// The connected-component label of every router. Components are
    /// numbered `0, 1, …` in the order of their smallest router, so the
    /// labels do not depend on the traversal order.
    pub fn component_labels(&self) -> Vec<u32> {
        let mut label = vec![u32::MAX; self.n()];
        let mut next = 0u32;
        let mut stack = Vec::new();
        for s in 0..self.n() as RouterId {
            if label[s as usize] != u32::MAX {
                continue;
            }
            label[s as usize] = next;
            stack.push(s);
            while let Some(u) = stack.pop() {
                for &v in self.neighbors(u) {
                    if label[v as usize] == u32::MAX {
                        label[v as usize] = next;
                        stack.push(v);
                    }
                }
            }
            next += 1;
        }
        label
    }

    /// True iff the graph is connected (vacuously true for `n == 0`).
    pub fn is_connected(&self) -> bool {
        if self.n() == 0 {
            return true;
        }
        let dist = self.bfs(0);
        dist.iter().all(|&d| d != UNREACHABLE)
    }

    /// Exact diameter and average shortest path length over all ordered
    /// router pairs, from the [`Graph::hop_histogram`] of every router
    /// (`⌈n/256⌉ · levels · m` word operations). Returns `(diameter,
    /// avg_path_length)`. Panics if the graph is disconnected.
    pub fn diameter_apl(&self) -> (u32, f64) {
        let n = self.n() as u64;
        let sources: Vec<RouterId> = (0..self.n() as u32).collect();
        let (diam, total, reached) = hop_totals(&self.hop_histogram(&sources));
        assert!(reached == n * n, "graph disconnected");
        (diam, total as f64 / (n * (n - 1)) as f64)
    }

    /// Sampled estimate of `(diameter_lower_bound, avg_path_length)` from
    /// the [`Graph::hop_histogram`] of `samples` deterministically spaced
    /// sources, for instances where all pairs are too many. Unreachable
    /// pairs are left out.
    pub fn diameter_apl_sampled(&self, samples: usize) -> (u32, f64) {
        let n = self.n();
        let take = samples.min(n).max(1);
        let stride = (n / take).max(1);
        let sources: Vec<RouterId> = (0..take).map(|i| ((i * stride) % n) as u32).collect();
        let (diam, total, reached) = hop_totals(&self.hop_histogram(&sources));
        let pairs = reached - take as u64; // exclude each src->src zero
        (diam, total as f64 / pairs.max(1) as f64)
    }

    /// Sum of all degrees (`2m`), i.e. total directed link count.
    pub fn total_ports(&self) -> usize {
        self.neigh.len()
    }

    /// Degraded view: the same router set with the given links removed
    /// (either orientation; links absent from the graph are ignored).
    ///
    /// **Port numbering caveat:** the returned graph renumbers ports
    /// (CSR neighbor indices shift when edges vanish), so it is meant for
    /// *connectivity and distance* queries — degraded BFS, reachability,
    /// rebuilding routing state. Forwarding tables that must keep
    /// addressing the physical ports of the original graph should be
    /// rebuilt with the original graph as the port-lookup base (see
    /// `RoutingTables::build`, which takes layer graphs and a base).
    pub fn without_edges(&self, removed: &[(RouterId, RouterId)]) -> Graph {
        let dead: rustc_hash::FxHashSet<(RouterId, RouterId)> =
            removed.iter().map(|&(u, v)| (u.min(v), u.max(v))).collect();
        let edges: Vec<(RouterId, RouterId)> = self
            .edges()
            .filter(|&(u, v)| !dead.contains(&(u, v)))
            .collect();
        Graph::from_edges(self.n(), &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn csr_layout_and_ports() {
        let g = path3();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.port_of(1, 2), Some(1));
        assert_eq!(g.port_of(0, 2), None);
        assert_eq!(g.neighbor_at(1, 0), 0);
    }

    /// Components are numbered by their smallest router, whatever the
    /// edge order: {0, 3, 5}, then {1, 4}, then the isolated 2 and 6.
    #[test]
    fn component_labels_number_by_smallest_router() {
        let g = Graph::from_edges(7, &[(5, 3), (4, 1), (3, 0)]);
        assert_eq!(g.component_labels(), [0, 1, 2, 0, 1, 0, 3]);
        assert_eq!(path3().component_labels(), [0, 0, 0]);
        assert!(Graph::from_edges(0, &[]).component_labels().is_empty());
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.m(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let _ = Graph::from_edges(2, &[(0, 0)]);
    }

    #[test]
    fn bfs_distances() {
        let g = path3();
        assert_eq!(g.bfs(0), vec![0, 1, 2]);
        assert_eq!(g.bfs(1), vec![1, 0, 1]);
    }

    #[test]
    fn disconnected_detected() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        assert_eq!(g.bfs(0)[2], UNREACHABLE);
    }

    #[test]
    fn diameter_of_cycle() {
        // 6-cycle: diameter 3, APL = (1+1+2+2+3)/5 = 1.8
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let (d, apl) = g.diameter_apl();
        assert_eq!(d, 3);
        assert!((apl - 1.8).abs() < 1e-9);
    }

    #[test]
    fn edges_canonical_order() {
        let g = Graph::from_edges(4, &[(2, 1), (0, 3), (0, 1)]);
        let edges = g.edge_vec();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2)]);
        let ids = g.arc_edge_ids();
        assert_eq!(g.edge_id(&ids, 3, 0), Some(1));
        assert_eq!(g.edge_id(&ids, 1, 3), None);
    }

    #[test]
    fn arc_edge_ids_match_the_canonical_order() {
        let t = crate::topo::slimfly::slim_fly(5, 1).unwrap();
        let g = &t.graph;
        let idx: rustc_hash::FxHashMap<(u32, u32), u32> =
            g.edge_vec().into_iter().zip(0..).collect();
        let ids = g.arc_edge_ids();
        assert_eq!(ids.len(), 2 * g.m());
        for u in 0..g.n() as u32 {
            for (p, &v) in g.neighbors(u).iter().enumerate() {
                assert_eq!(ids[g.arcs(u).start + p], idx[&(u.min(v), u.max(v))]);
                assert_eq!(g.edge_id(&ids, u, v), Some(idx[&(u.min(v), u.max(v))]));
            }
        }
    }

    #[test]
    fn complete_graph_props() {
        let n = 8u32;
        let mut e = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                e.push((u, v));
            }
        }
        let g = Graph::from_edges(n as usize, &e);
        assert!(g.is_regular());
        assert_eq!(g.degree(0), 7);
        let (d, apl) = g.diameter_apl();
        assert_eq!(d, 1);
        assert!((apl - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampled_apl_close_to_exact_on_symmetric_graph() {
        let mut e = Vec::new();
        let n = 20u32;
        for u in 0..n {
            e.push((u, (u + 1) % n));
        }
        let g = Graph::from_edges(n as usize, &e);
        let (d_exact, apl_exact) = g.diameter_apl();
        let (d_s, apl_s) = g.diameter_apl_sampled(20);
        assert_eq!(d_exact, d_s);
        assert!((apl_exact - apl_s).abs() < 1e-9);
    }
}
