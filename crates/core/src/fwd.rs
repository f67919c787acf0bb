//! Per-layer destination-based forwarding tables (Listing 3, §V-C/§V-E).
//!
//! For each layer `i` and destination router `t`, the forwarding function
//! `σᵢ(s, t)` returns the output *port of the base graph* that is the first
//! hop of a minimal path from `s` to `t` **within layer i**. Tables store
//! one `u16` port per (destination, source): the `O(Nr)`-per-destination
//! compression of §V-E (all endpoints of a router share its routes).
//!
//! A build runs in two passes. First every layer's distance rows — one
//! per destination, `O(Nr · m)` work per layer — come from the
//! bit-parallel [`Graph::bfs_batches`], each batch of destinations
//! filling its own band of rows. Then one band kernel selects a whole
//! band of up to [`BFS_BATCH`] destinations at once, walking sources
//! instead of destinations: it transposes the band's distance rows into
//! one lane per destination at every router, and for each source counts
//! and ranks the minimal next hops of all lanes together in branch-free
//! passes over the source's layer neighbours. Layers run on the pool,
//! and each layer's bands run as a parallel op nested in its unit, so
//! idle workers help with the last layers instead of waiting. Repair
//! rebuilds the rows a down link breaks with the same two passes over
//! the degraded layer, the band set to those rows.
//!
//! When several neighbors lie on minimal paths, the tie is broken by a
//! deterministic hash of `(layer, src, dst)`, which decorrelates the
//! choices across layers ("we try to pick different next-hop choices for
//! each layer", §V-B) and across sources.
//!
//! [`PortTables`] owns the table format: the `[layer][dst · nr + src]`
//! layout, lookups, rows and path resolution, and [`PortTables::build`]
//! runs the two passes. [`RoutingTables`] is `PortTables` plus the layer
//! graphs its repair rebuilds rows on: [`RoutingTables::build`] selects
//! the rows, and the negotiated TE tables pair their own rows with the
//! same layers ([`RoutingTables::from_parts`]). The SPAIN / KSP / PAST
//! baselines hold a `PortTables` alone, SPAIN and KSP lowering their
//! layers through `PortTables::build` as `RoutingTables::build` does.
//!
//! Every layer of a production table set routes every pair (σᵢ is
//! defined inside layer `i`, and Listing 1 redraws a sparse layer until
//! it is connected): [`RoutingTables::build`] checks it and the baselines
//! check for a connected base, so forwarding reads the tagged layer
//! alone. Only repair crosses layers: a pair a degraded sparse layer lost
//! takes the repaired layer-0 route ([`RoutingTables::repair`]).

use crate::ecmp::hop_byte;
use crate::layers::LayerSet;
use crate::repair::{broken_rows, DownLinks, OverlayBuilder, RouteRepair};
use fatpaths_net::graph::{for_each_source, Graph, RouterId, BFS_BATCH};
use rayon::prelude::*;
use std::ops::{BitAnd, BitOr, Not};

/// Marker for "no route" / "self" in the flat tables.
pub const NO_PORT: u16 = u16::MAX;

/// Per-layer destination-based port tables σᵢ: entry `(layer, src, dst)`
/// is the base-graph output port at `src` toward `dst` within the layer
/// ([`NO_PORT`] = no route, or `src == dst`). The one owner of the
/// `[layer][dst · nr + src]` layout: every table-driven scheme (FatPaths
/// layers, the negotiated TE tables, SPAIN, k-shortest paths, PAST)
/// forwards from it, and nothing else indexes it.
///
/// As a [`RoutingScheme`](crate::scheme::RoutingScheme) it forwards by the
/// FatPaths rule: the tag is clamped to the last layer, and that layer
/// alone decides.
#[derive(Clone, Debug)]
pub struct PortTables {
    nr: usize,
    /// `tables[layer][dst * nr + src]`.
    tables: Vec<Vec<u16>>,
}

impl PortTables {
    /// `n_layers` tables over `nr` routers, every entry [`NO_PORT`].
    pub fn new(n_layers: usize, nr: usize) -> Self {
        PortTables {
            nr,
            tables: vec![vec![NO_PORT; nr * nr]; n_layers],
        }
    }

    /// The port tables of `layers` over `base`, which must be the graph
    /// the layers were sampled from; a layer may leave pairs unreachable
    /// ([`NO_PORT`]). Panics if a finite in-layer distance exceeds
    /// [`MAX_HOPS`](crate::ecmp::MAX_HOPS). Layers run in
    /// parallel, each unit filling one layer's distance rows into its
    /// worker's scratch and then selecting that layer's bands as a nested
    /// parallel op, so memory beyond the tables stays at one layer's
    /// distance rows per running unit however many layers there are.
    pub fn build(base: &Graph, layers: &LayerSet) -> Self {
        let nr = base.n();
        let all: Vec<RouterId> = (0..nr as u32).collect();
        let mut tables = PortTables::new(layers.len(), nr);
        let units: Vec<(usize, &mut [u16])> = tables.layers_mut().enumerate().collect();
        units
            .into_par_iter()
            .for_each_init(Vec::new, |dists, (li, table)| {
                let lg = layers.layer(li);
                assert_eq!(lg.n(), nr, "layer router count mismatch");
                distance_rows_into(lg, &all, dists);
                let ports = LayerPorts::new(base, lg);
                select_bands(Band::split(lg, &ports, li, &all, dists, table).collect());
            });
        tables
    }

    /// Number of layers.
    #[inline]
    pub fn n_layers(&self) -> usize {
        self.tables.len()
    }

    /// Number of routers.
    #[inline]
    pub fn nr(&self) -> usize {
        self.nr
    }

    /// The port at `src` toward `dst` in `layer`, or `None` if `dst` is
    /// unreachable there (or `src == dst`).
    #[inline]
    pub fn get(&self, layer: usize, src: RouterId, dst: RouterId) -> Option<u16> {
        let p = self.tables[layer][dst as usize * self.nr + src as usize];
        (p != NO_PORT).then_some(p)
    }

    /// `layer`'s row toward `dst`: entry `src` is the port at `src`.
    #[inline]
    pub fn row(&self, layer: usize, dst: RouterId) -> &[u16] {
        &self.tables[layer][dst as usize * self.nr..][..self.nr]
    }

    /// Every layer's table as one mutable slice of `nr` rows (row `dst`
    /// at `dst * nr`), in layer order.
    pub fn layers_mut(&mut self) -> impl Iterator<Item = &mut [u16]> {
        self.tables.iter_mut().map(Vec::as_mut_slice)
    }

    /// The forwarding rule: the port at `at` toward `dst` in `layer`
    /// clamped to the last layer.
    #[inline]
    pub(crate) fn forward(&self, layer: usize, at: RouterId, dst: RouterId) -> Option<u16> {
        self.get(layer.min(self.n_layers() - 1), at, dst)
    }

    /// Resolves the full router path `src → dst` that a packet tagged
    /// `layer` takes, hop by hop under the forwarding rule: `layer` is
    /// clamped to the last layer, and every hop stays inside it. Returns
    /// `None` if a hop has no port there; the result includes both
    /// endpoints. Panics on a forwarding loop, naming the layer and pair.
    pub fn path(
        &self,
        base: &Graph,
        layer: usize,
        src: RouterId,
        dst: RouterId,
    ) -> Option<Vec<RouterId>> {
        let mut path = vec![src];
        let mut at = src;
        while at != dst {
            let port = self.forward(layer, at, dst)?;
            at = base.neighbor_at(at, port as u32);
            path.push(at);
            assert!(
                path.len() <= self.nr + 1,
                "forwarding loop in layer {layer} from {src} to {dst}"
            );
        }
        Some(path)
    }

    /// The distinct paths `src → dst` over every layer, in layer order:
    /// each layer adds the [`path`](PortTables::path) it routes the pair
    /// on, unless it has no route or an earlier layer already gave that
    /// path. This is the path set a layered scheme offers a pair, which
    /// the maximum-achievable-throughput analysis (Fig. 9) charges it
    /// with.
    pub fn paths(&self, base: &Graph, src: RouterId, dst: RouterId) -> Vec<Vec<RouterId>> {
        let mut out: Vec<Vec<RouterId>> = Vec::new();
        for layer in 0..self.n_layers() {
            if let Some(p) = self.path(base, layer, src, dst) {
                if !out.contains(&p) {
                    out.push(p);
                }
            }
        }
        out
    }
}

/// Forwarding tables for every layer of a [`LayerSet`]: the [`PortTables`]
/// plus the layer graphs repair rebuilds broken rows on.
#[derive(Clone, Debug)]
pub struct RoutingTables {
    ports: PortTables,
    layers: LayerSet,
}

/// FNV-1a on a 64-bit key — the deterministic tie-breaker (the paper's
/// routers use Fowler–Noll–Vo hashing for ECMP; we reuse it here).
#[inline]
pub fn fnv1a(key: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..8 {
        h ^= (key >> (8 * i)) & 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl RoutingTables {
    /// Builds tables for all layers through [`PortTables::build`] and keeps
    /// a copy of the layers. `base` must be the graph the layers were
    /// sampled from (ports refer to it). Panics unless every layer is a
    /// connected subgraph of `base` ([`LayerSet::validate`]), and if a
    /// finite in-layer distance exceeds [`MAX_HOPS`](crate::ecmp::MAX_HOPS).
    pub fn build(base: &Graph, layers: &LayerSet) -> Self {
        assert!(
            layers.validate(base),
            "every layer must be a connected subgraph of the base graph"
        );
        RoutingTables {
            ports: PortTables::build(base, layers),
            layers: layers.clone(),
        }
    }

    /// Pairs `ports` with the `layers` they route in: the tables another
    /// builder selects over a built set's layers (the negotiated TE
    /// tables), which then forward and repair like the built ones. Every
    /// row must be a tree of its layer's edges toward its destination
    /// that reaches every router. Panics unless the layer and router
    /// counts agree.
    pub fn from_parts(ports: PortTables, layers: LayerSet) -> Self {
        assert_eq!(ports.n_layers(), layers.len(), "layer count mismatch");
        assert!(
            layers.graphs.iter().all(|lg| lg.n() == ports.nr()),
            "layer router count mismatch"
        );
        RoutingTables { ports, layers }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.ports.n_layers()
    }

    /// Number of routers.
    pub fn nr(&self) -> usize {
        self.ports.nr()
    }

    /// The port tables.
    pub fn ports(&self) -> &PortTables {
        &self.ports
    }

    /// The layer subgraphs the tables were built from.
    pub fn layer_set(&self) -> &LayerSet {
        &self.layers
    }

    /// Link-failure repair (the layered and TE arms of
    /// [`RoutingScheme::repair_routes`](crate::scheme::RoutingScheme::repair_routes)):
    /// returns a sparse overlay covering exactly the `(layer, dst)` rows
    /// the down links break.
    ///
    /// A row is broken when one of its chosen hops crosses a down link
    /// (`repair::broken_rows`); every other row is a tree of live links and
    /// stays as it is. A layer's broken rows are rebuilt in one
    /// [`Graph::bfs_batches`] pass over the degraded layer graph and
    /// through the build's band kernel, so a repaired row is exactly the
    /// row a from-scratch build on the degraded layers selects, whichever
    /// builder chose the healthy rows ([`RoutingTables::from_parts`]). Routers
    /// left unable to reach `dst` within a sparse layer fall back to the
    /// (repaired) layer-0 route; an empty overlay entry marks pairs
    /// disconnected even in the degraded base graph.
    ///
    /// Assumes layer 0 is the complete layer (true for FatPaths tables),
    /// so layer-0 reachability equals degraded-base reachability. Panics
    /// if there are more layers than `u8` tags
    /// ([`MAX_LAYERS`](crate::scheme::MAX_LAYERS)).
    pub fn repair(&self, base: &Graph, down: &DownLinks) -> RouteRepair {
        if down.is_empty() {
            return RouteRepair::none();
        }
        let nr = self.nr();
        let mut out = OverlayBuilder::new(&self.ports);
        for l in 0..self.n_layers() {
            let broken = broken_rows(&self.ports, base, l, down);
            if broken.is_empty() {
                continue;
            }
            let degraded = self.layers.layer(l).without_edges(down.as_slice());
            let ports = LayerPorts::new(base, &degraded);
            let dists = distance_rows(&degraded, &broken);
            let mut rows = vec![NO_PORT; dists.len()];
            select_bands(Band::split(&degraded, &ports, l, &broken, &dists, &mut rows).collect());
            for (&dst, row) in broken.iter().zip(rows.chunks(nr)) {
                out.rewrite_row(l, dst, row);
            }
        }
        out.finish()
    }
}

/// In-layer distance rows of `lg` toward each of `dsts`: entry
/// `i * nr + src` is `d(src, dsts[i])` (`u8::MAX` if unreachable). Each
/// batch of destinations fills its own band of rows.
fn distance_rows(lg: &Graph, dsts: &[RouterId]) -> Vec<u8> {
    let mut dist = Vec::new();
    distance_rows_into(lg, dsts, &mut dist);
    dist
}

/// [`distance_rows`] into `dist`, resized and overwritten.
fn distance_rows_into(lg: &Graph, dsts: &[RouterId], dist: &mut Vec<u8>) {
    let nr = lg.n();
    dist.clear();
    dist.resize(dsts.len() * nr, u8::MAX);
    let bands: Vec<&mut [u8]> = dist.chunks_mut((BFS_BATCH * nr).max(1)).collect();
    lg.bfs_batches(dsts, bands, |band, level, src, bits| {
        let d = hop_byte(level);
        for_each_source(bits, |i| band[i * nr + src as usize] = d);
    });
}

/// Base-graph ports of a layer's edges in the layer's CSR order: entry `i`
/// of [`LayerPorts::of`]`(u)` is the base port behind
/// `lg.neighbors(u)[i]`. Built once per layer, so row selection never
/// searches the base graph.
struct LayerPorts {
    start: Vec<u32>,
    ports: Vec<u16>,
    /// The layer's maximum degree: picks the band kernel's lane width.
    max_degree: usize,
}

impl LayerPorts {
    fn new(base: &Graph, lg: &Graph) -> Self {
        let mut start = Vec::with_capacity(lg.n() + 1);
        let mut ports = Vec::with_capacity(lg.total_ports());
        let mut max_degree = 0;
        start.push(0);
        for u in 0..lg.n() as u32 {
            ports.extend(lg.neighbors(u).iter().map(|&v| {
                base.port_of(u, v)
                    .expect("layer edge must exist in base graph") as u16
            }));
            max_degree = max_degree.max(lg.degree(u));
            start.push(ports.len() as u32);
        }
        LayerPorts {
            start,
            ports,
            max_degree,
        }
    }

    #[inline]
    fn of(&self, u: RouterId) -> &[u16] {
        &self.ports[self.start[u as usize] as usize..self.start[u as usize + 1] as usize]
    }
}

/// One `(layer, band)` unit of the band kernel: up to [`BFS_BATCH`]
/// destinations of one layer, their distance rows (`dists[i * nr + src]`
/// = `d(src, dsts[i])`) and the port rows it fills, laid out the same
/// way.
struct Band<'a> {
    lg: &'a Graph,
    ports: &'a LayerPorts,
    layer: usize,
    dsts: &'a [RouterId],
    dists: &'a [u8],
    table: &'a mut [u16],
}

/// Runs the band kernel over `bands` on the pool, each worker reusing one
/// [`BandScratch`].
fn select_bands(bands: Vec<Band<'_>>) {
    bands
        .into_par_iter()
        .for_each_init(BandScratch::default, |scratch, band| band.select(scratch));
}

/// Per-worker scratch of the band kernel, reused by the units a worker
/// runs in turn.
#[derive(Default)]
struct BandScratch {
    /// The band's distances router-major: `lanes[v * k + i]` =
    /// `d(v, dsts[i])` for a band of `k` destinations.
    lanes: Vec<u8>,
    narrow: LaneState<u8>,
    wide: LaneState<u16>,
}

/// The per-lane state of one source: candidate counts, the chosen slot
/// (an index into the source's layer neighbours), the candidate rank to
/// select and the running rank of pass 2.
#[derive(Default)]
struct LaneState<W> {
    count: Vec<W>,
    slot: Vec<W>,
    pick: Vec<W>,
    rank: Vec<W>,
}

/// Width of the kernel's candidate counters and slot ids. `u8` holds
/// every count and slot of a layer whose maximum degree is at most 255
/// and packs twice the lanes of `u16` into a vector; `u16` covers every
/// degree a `u16` port can address. Lane updates are mask arithmetic, not
/// branches, so the compiler vectorizes them.
trait Lane:
    Copy + Default + Eq + BitAnd<Output = Self> + BitOr<Output = Self> + Not<Output = Self>
{
    /// Never a rank (ranks stay below the degree): marks lanes pass 2
    /// must leave alone.
    const NONE: Self;
    fn of(x: usize) -> Self;
    fn get(self) -> usize;
    /// `self + 1` if `hit`, else `self`.
    fn plus(self, hit: bool) -> Self;
    /// All ones if `hit`, else zero.
    fn mask(hit: bool) -> Self;
    /// `to` where `mask` is all ones, `self` where it is zero.
    #[inline]
    fn set_if(self, mask: Self, to: Self) -> Self {
        (self & !mask) | (to & mask)
    }
}

macro_rules! lane {
    ($($t:ty),*) => {$(
        impl Lane for $t {
            const NONE: Self = <$t>::MAX;
            #[inline]
            fn of(x: usize) -> Self {
                x as $t
            }
            #[inline]
            fn get(self) -> usize {
                self as usize
            }
            #[inline]
            fn plus(self, hit: bool) -> Self {
                self + hit as $t
            }
            #[inline]
            fn mask(hit: bool) -> Self {
                (hit as $t).wrapping_neg()
            }
        }
    )*};
}

lane!(u8, u16);

impl<'a> Band<'a> {
    /// Cuts the rows toward `dsts` (one row of `nr` entries each in
    /// `dists` and `table`) into bands of [`BFS_BATCH`] destinations.
    fn split(
        lg: &'a Graph,
        ports: &'a LayerPorts,
        layer: usize,
        dsts: &'a [RouterId],
        dists: &'a [u8],
        table: &'a mut [u16],
    ) -> impl Iterator<Item = Band<'a>> {
        let rows = (BFS_BATCH * lg.n()).max(1);
        dsts.chunks(BFS_BATCH)
            .zip(dists.chunks(rows))
            .zip(table.chunks_mut(rows))
            .map(move |((dsts, dists), table)| Band {
                lg,
                ports,
                layer,
                dsts,
                dists,
                table,
            })
    }

    /// Transposes the band into router-major lanes, then selects at the
    /// lane width the layer's maximum degree allows.
    fn select(self, scratch: &mut BandScratch) {
        let k = self.dsts.len();
        let lanes = &mut scratch.lanes;
        lanes.clear();
        lanes.resize(self.lg.n() * k, 0);
        for (i, row) in self.dists.chunks(self.lg.n()).enumerate() {
            for (v, &d) in row.iter().enumerate() {
                lanes[v * k + i] = d;
            }
        }
        if self.ports.max_degree <= u8::MAX as usize {
            self.select_lanes(lanes, &mut scratch.narrow);
        } else {
            self.select_lanes(lanes, &mut scratch.wide);
        }
    }

    /// For every source and every lane `i` that reaches `dsts[i]`, writes
    /// a hash-picked minimal next hop (a layer neighbour one hop closer).
    /// Entries of a destination itself and of sources that cannot reach it
    /// are left untouched.
    ///
    /// A neighbour `v` of `s` is a candidate of lane `i` iff
    /// `d(v) + 1 == d(s)` in wrapping `u8` arithmetic: a source and its
    /// neighbours share a component, so an unreachable `u8::MAX` on one
    /// side is unreachable on both and never matches.
    fn select_lanes<W: Lane>(self, lanes: &[u8], st: &mut LaneState<W>) {
        let (nr, k) = (self.lg.n(), self.dsts.len());
        for v in [&mut st.count, &mut st.slot, &mut st.pick, &mut st.rank] {
            v.clear();
            v.resize(k, W::default());
        }
        for s in 0..nr {
            let ds = &lanes[s * k..][..k];
            let nbs = self.lg.neighbors(s as RouterId);
            // Pass 1: count the candidates.
            st.count.fill(W::default());
            for &v in nbs {
                let dv = &lanes[v as usize * k..][..k];
                for ((n, &dv), &ds) in st.count.iter_mut().zip(dv).zip(ds) {
                    *n = n.plus(dv.wrapping_add(1) == ds);
                }
            }
            // The candidate rank to select: the hash's pick for ties, the
            // only candidate otherwise.
            for (i, (&n, pick)) in st.count.iter().zip(&mut st.pick).enumerate() {
                *pick = match n.get() {
                    0 => W::NONE,
                    1 => W::of(0),
                    n => {
                        let key =
                            (self.layer as u64) << 48 | (s as u64) << 24 | self.dsts[i] as u64;
                        W::of((fnv1a(key) % n as u64) as usize)
                    }
                };
            }
            // Pass 2: rank the candidates, select the picked one.
            st.rank.fill(W::default());
            for (j, &v) in nbs.iter().enumerate() {
                let dv = &lanes[v as usize * k..][..k];
                let j = W::of(j);
                for (((rank, slot), &pick), (&dv, &ds)) in st
                    .rank
                    .iter_mut()
                    .zip(&mut st.slot)
                    .zip(&st.pick)
                    .zip(dv.iter().zip(ds))
                {
                    let hit = dv.wrapping_add(1) == ds;
                    *slot = slot.set_if(W::mask(hit) & W::mask(*rank == pick), j);
                    *rank = rank.plus(hit);
                }
            }
            let ports = self.ports.of(s as RouterId);
            for (i, (&n, &slot)) in st.count.iter().zip(&st.slot).enumerate() {
                if n.get() >= 1 {
                    self.table[i * nr + s] = ports[slot.get()];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecmp::tests::path_graph;
    use crate::layers::{build_random_layers, LayerConfig, LayerSet};
    use crate::scheme::MAX_LAYERS;
    use fatpaths_net::graph::UNREACHABLE;
    use fatpaths_net::topo::slimfly::slim_fly;
    use proptest::prelude::*;

    fn tables_for(q: u32, n_layers: usize, rho: f64) -> (Graph, RoutingTables) {
        let t = slim_fly(q, 1).unwrap();
        let ls = build_random_layers(&t.graph, &LayerConfig::new(n_layers, rho, 7));
        let rt = RoutingTables::build(&t.graph, &ls);
        (t.graph.clone(), rt)
    }

    #[test]
    fn layer_zero_paths_are_minimal() {
        let (g, rt) = tables_for(5, 3, 0.6);
        for (s, t) in [(0u32, 17u32), (3, 44), (10, 29)] {
            let p = rt.ports().path(&g, 0, s, t).unwrap();
            let d = g.bfs(s)[t as usize];
            assert_eq!(p.len() as u32 - 1, d, "layer-0 path not minimal");
        }
    }

    #[test]
    fn sparse_layer_paths_valid_and_loop_free() {
        let (g, rt) = tables_for(7, 5, 0.5);
        for layer in 0..rt.n_layers() {
            for (s, t) in [(0u32, 90u32), (5, 60), (33, 12)] {
                let p = rt.ports().path(&g, layer, s, t).expect("connected layer");
                // Consecutive hops are base edges.
                for w in p.windows(2) {
                    assert!(g.has_edge(w[0], w[1]));
                }
                assert_eq!(p.first(), Some(&s));
                assert_eq!(p.last(), Some(&t));
                // No router repeats (loop-freedom).
                let mut q = p.clone();
                q.sort_unstable();
                q.dedup();
                assert_eq!(q.len(), p.len());
            }
        }
    }

    #[test]
    fn sparse_layers_yield_non_minimal_paths() {
        // §V-B: minimal routes in a sparse layer are usually non-minimal on
        // the full topology — that is the whole point.
        let (g, rt) = tables_for(7, 6, 0.4);
        let mut longer = 0;
        let mut total = 0;
        for layer in 1..rt.n_layers() {
            for s in (0..98u32).step_by(13) {
                let (base, in_layer) = (g.bfs(s), rt.layer_set().layer(layer).bfs(s));
                for t in (1..98u32).step_by(17) {
                    if s == t {
                        continue;
                    }
                    let d_min = base[t as usize];
                    let d_layer = in_layer[t as usize];
                    assert!(d_layer != UNREACHABLE && d_layer >= d_min);
                    total += 1;
                    if d_layer > d_min {
                        longer += 1;
                    }
                }
            }
        }
        assert!(
            longer * 3 > total,
            "expected a large fraction of non-minimal layer paths ({longer}/{total})"
        );
    }

    #[test]
    fn path_length_matches_layer_distance() {
        let (g, rt) = tables_for(5, 4, 0.5);
        for layer in 0..4 {
            for (s, t) in [(1u32, 40u32), (8, 31)] {
                let p = rt.ports().path(&g, layer, s, t).unwrap();
                let d = rt.layer_set().layer(layer).bfs(s)[t as usize];
                assert_eq!(p.len() as u32 - 1, d);
            }
        }
    }

    #[test]
    fn different_layers_give_different_paths() {
        let (g, rt) = tables_for(7, 8, 0.5);
        // For a sample of pairs, at least one sparse layer must route
        // differently than layer 0 (path diversity across layers).
        let mut diverse = 0;
        let pairs = [(0u32, 50u32), (3, 77), (20, 91), (40, 13), (60, 25)];
        for &(s, t) in &pairs {
            let p0 = rt.ports().path(&g, 0, s, t).unwrap();
            if (1..rt.n_layers()).any(|l| rt.ports().path(&g, l, s, t).unwrap() != p0) {
                diverse += 1;
            }
        }
        assert!(diverse >= 4, "only {diverse}/5 pairs saw layer diversity");
    }

    #[test]
    fn minimal_only_tables() {
        let t = slim_fly(5, 1).unwrap();
        let ls = LayerSet::minimal_only(&t.graph);
        let rt = RoutingTables::build(&t.graph, &ls);
        assert_eq!(rt.n_layers(), 1);
        assert!(rt.ports().get(0, 0, 49).is_some());
        assert_eq!(rt.ports().get(0, 7, 7), None);
    }

    /// Walks `src → dst` in `layer` through tables + repair overlay the
    /// way the simulator does (overlay first, then the scheme's
    /// `candidate_ports`). Returns the path, or `None` if an unreachable
    /// entry is hit.
    fn walk_repaired(
        g: &Graph,
        rt: &RoutingTables,
        rep: &crate::repair::RouteRepair,
        layer: usize,
        src: u32,
        dst: u32,
    ) -> Option<Vec<u32>> {
        use crate::scheme::RoutingScheme;
        let mut at = src;
        let mut path = vec![src];
        while at != dst {
            let port = match rep.lookup(layer as u8, at, dst) {
                Some([]) => return None,
                Some(e) => e[0],
                None => rt.candidate_ports(layer as u8, at, dst).as_slice()[0],
            };
            at = g.neighbor_at(at, port as u32);
            path.push(at);
            assert!(path.len() <= g.n() + 1, "loop: {path:?}");
        }
        Some(path)
    }

    #[test]
    fn empty_down_set_repairs_nothing() {
        let (g, rt) = tables_for(5, 3, 0.6);
        let rep = rt.repair(&g, &crate::repair::DownLinks::from_links(&[]));
        assert!(rep.is_empty());
    }

    #[test]
    fn repair_routes_around_single_failed_link() {
        let (g, rt) = tables_for(5, 4, 0.6);
        // Fail the first hop of layer 0's 0→41 path.
        let p0 = rt.ports().path(&g, 0, 0, 41).unwrap();
        let down = crate::repair::DownLinks::from_links(&[(p0[0], p0[1])]);
        let rep = rt.repair(&g, &down);
        assert!(!rep.is_empty());
        for layer in 0..rt.n_layers() {
            for (s, t) in [(0u32, 41u32), (41, 0), (7, 30), (3, 44)] {
                let p = walk_repaired(&g, &rt, &rep, layer, s, t)
                    .expect("one dead link cannot disconnect SF");
                // The repaired route never crosses the dead link.
                for w in p.windows(2) {
                    assert!(
                        !(w[0] == p0[0] && w[1] == p0[1] || w[0] == p0[1] && w[1] == p0[0]),
                        "layer {layer} {s}->{t} crossed the dead link: {p:?}"
                    );
                }
                // No router repeats (loop-freedom).
                let mut q = p.clone();
                q.sort_unstable();
                q.dedup();
                assert_eq!(q.len(), p.len());
            }
        }
    }

    #[test]
    fn repair_marks_disconnected_pairs_unreachable() {
        // Star-ish: cut the only edge to a leaf.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (1, 3), (2, 3)]);
        let ls = LayerSet::minimal_only(&g);
        let rt = RoutingTables::build(&g, &ls);
        let rep = rt.repair(&g, &crate::repair::DownLinks::from_links(&[(0, 1)]));
        // 0 is now isolated: every pair involving 0 must be an empty entry.
        for other in 1..4u32 {
            assert!(rep.lookup(0, 0, other).unwrap().is_empty());
            assert!(rep.lookup(0, other, 0).unwrap().is_empty());
        }
        // The triangle 1-2-3 stays routable.
        assert!(walk_repaired(&g, &rt, &rep, 0, 2, 3).is_some());
    }

    /// A 4-cycle with a sparse layer 1 that leaves router 3 isolated.
    fn cycle_with_isolating_layer() -> (Graph, LayerSet) {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let layer1 = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        let ls = LayerSet {
            graphs: vec![g.clone(), layer1],
        };
        (g, ls)
    }

    #[test]
    #[should_panic(expected = "every layer must be a connected subgraph of the base graph")]
    fn routing_tables_reject_a_layer_that_isolates_a_router() {
        let (g, ls) = cycle_with_isolating_layer();
        RoutingTables::build(&g, &ls);
    }

    #[test]
    fn port_tables_clamp_the_tag_and_read_only_that_layer() {
        use crate::scheme::RoutingScheme;
        let (g, ls) = cycle_with_isolating_layer();
        let pt = &PortTables::build(&g, &ls);
        let port = |u, v| g.port_of(u, v).unwrap() as u16;
        // Layer 1 routes 0 -> 2 the long way round, layer 0 directly.
        assert_eq!(pt.get(1, 0, 2), Some(port(0, 1)));
        // Tags past the last layer clamp to it.
        for tag in [1, 2, 200] {
            assert_eq!(pt.candidate_ports(tag, 0, 2).as_slice(), &[port(0, 1)]);
        }
        // Layer 1 has no port toward 3, and no other layer stands in.
        assert_eq!(pt.get(0, 0, 3), Some(port(0, 3)));
        assert_eq!(pt.get(1, 0, 3), None);
        assert!(pt.candidate_ports(1, 0, 3).is_empty());
        assert_eq!(pt.path(&g, 1, 0, 3), None);
        assert_eq!(pt.path(&g, 0, 0, 3), Some(vec![0, 3]));
        // The path set skips a layer without a route and a repeated path.
        assert_eq!(pt.paths(&g, 0, 3), vec![vec![0, 3]]);
        assert_eq!(pt.paths(&g, 0, 1), vec![vec![0, 1]]);
        // No router forwards to itself: `NO_PORT` on every diagonal.
        for l in 0..pt.n_layers() {
            for r in 0..4 {
                assert_eq!(pt.row(l, r)[r as usize], NO_PORT);
                assert_eq!(pt.get(l, r, r), None);
                assert!(pt.candidate_ports(l as u8, r, r).is_empty());
                assert_eq!(pt.path(&g, l, r, r), Some(vec![r]));
            }
        }
    }

    #[test]
    fn port_tables_path_is_none_where_no_layer_routes() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let pt = PortTables::build(&g, &LayerSet::minimal_only(&g));
        assert_eq!(pt.path(&g, 0, 0, 2), None);
        assert_eq!(pt.path(&g, 0, 0, 1), Some(vec![0, 1]));
    }

    #[test]
    #[should_panic(expected = "forwarding loop in layer 0 from 0 to 2")]
    fn port_tables_path_panics_on_a_forwarding_loop() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut pt = PortTables::new(1, 3);
        let table = pt.layers_mut().next().unwrap();
        // Toward 2: router 0 forwards to 1, and 1 back to 0.
        table[2 * 3] = g.port_of(0, 1).unwrap() as u16;
        table[2 * 3 + 1] = g.port_of(1, 0).unwrap() as u16;
        pt.path(&g, 0, 0, 2);
    }

    #[test]
    fn fnv_is_deterministic_and_spread() {
        let a = fnv1a(1);
        let b = fnv1a(1);
        let c = fnv1a(2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn longest_storable_path_routes_every_pair() {
        // 255 routers in a line: the end-to-end distance is MAX_HOPS.
        let n = crate::ecmp::MAX_HOPS + 1;
        let g = path_graph(n);
        let rt = RoutingTables::build(&g, &LayerSet::minimal_only(&g));
        for s in 0..n {
            for d in 0..n {
                let p = rt.ports().path(&g, 0, s, d).expect("every pair routes");
                assert_eq!(p.len() as u32 - 1, s.abs_diff(d));
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the u8 distance limit of 254 hops")]
    fn path_beyond_the_distance_limit_is_rejected() {
        let g = path_graph(crate::ecmp::MAX_HOPS + 2);
        RoutingTables::build(&g, &LayerSet::minimal_only(&g));
    }

    fn triangle_layers(n_layers: usize) -> (Graph, LayerSet) {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let ls = LayerSet {
            graphs: vec![g.clone(); n_layers],
        };
        (g, ls)
    }

    #[test]
    fn widest_layer_tag_repairs_under_its_own_tag() {
        let (g, ls) = triangle_layers(MAX_LAYERS);
        let rt = RoutingTables::build(&g, &ls);
        let rep = rt.repair(&g, &crate::repair::DownLinks::from_links(&[(0, 1)]));
        // Every layer detours 0 -> 2 -> 1 under its own tag: one entry
        // per layer and direction, none folded onto a wrapped tag.
        let detour = g.port_of(0, 2).unwrap() as u16;
        assert_eq!(rep.len(), 2 * MAX_LAYERS);
        let last = (MAX_LAYERS - 1) as u8;
        assert_eq!(rep.lookup(last, 0, 1).unwrap(), &[detour]);
    }

    #[test]
    #[should_panic(expected = "257 layers exceed the u8 layer tag limit of 256 layers")]
    fn repair_beyond_the_tag_width_is_rejected() {
        // Forest-layered schemes build such tables; repairing them would
        // fold layer 256 onto tag 0.
        let (g, ls) = triangle_layers(MAX_LAYERS + 1);
        let rt = RoutingTables::build(&g, &ls);
        rt.repair(&g, &crate::repair::DownLinks::from_links(&[(0, 1)]));
    }

    /// The port tables of the scalar formulation: one [`Graph::bfs`] per
    /// (layer, destination), then a count + nth pick per source with a
    /// `port_of` search.
    fn reference_tables(base: &Graph, layers: &LayerSet) -> Vec<Vec<u16>> {
        let nr = base.n();
        let mut out = Vec::new();
        for (li, lg) in layers.graphs.iter().enumerate() {
            let mut trows = vec![NO_PORT; nr * nr];
            for dst in 0..nr as u32 {
                let at = dst as usize * nr;
                let dist = lg.bfs(dst);
                for (src, &d) in dist.iter().enumerate() {
                    if d == UNREACHABLE || src as u32 == dst {
                        continue;
                    }
                    let src = src as u32;
                    let nbs = lg.neighbors(src);
                    let is_minimal = |v: &&u32| dist[**v as usize] + 1 == d;
                    let count = nbs.iter().filter(is_minimal).count();
                    let key = (li as u64) << 48 | (src as u64) << 24 | dst as u64;
                    let pick = (fnv1a(key) % count as u64) as usize;
                    let v = *nbs.iter().filter(is_minimal).nth(pick).unwrap();
                    trows[at + src as usize] = base.port_of(src, v).unwrap() as u16;
                }
            }
            out.push(trows);
        }
        out
    }

    fn assert_matches_reference(base: &Graph, layers: &LayerSet, what: &str) -> PortTables {
        let pt = PortTables::build(base, layers);
        assert!(
            pt.tables == reference_tables(base, layers),
            "{what}: tables differ"
        );
        pt
    }

    #[test]
    fn tables_equal_scalar_build_on_evaluated_topologies() {
        use fatpaths_net::classes::{self, evaluated_kinds, SizeClass};
        for class in [SizeClass::Small, SizeClass::Medium] {
            for kind in evaluated_kinds() {
                let t = classes::build(kind, class, 1);
                let mut ls = build_random_layers(&t.graph, &LayerConfig::new(2, 0.6, 3));
                if class == SizeClass::Medium {
                    // The sparse layer alone keeps the debug-build oracle
                    // affordable; Small covers the complete layer too.
                    ls.graphs.remove(0);
                }
                assert_matches_reference(&t.graph, &ls, &format!("{kind:?} {class:?}"));
            }
        }
    }

    /// Two hubs `0` and `1` joined to every router of a ring `2..2 + n`:
    /// each hub has degree `n`, and `0 → 1` ties over all `n` of its
    /// ports.
    fn twin_hubs(n: u32) -> Graph {
        let ring = 2..2 + n;
        let mut edges: Vec<(u32, u32)> = ring.clone().flat_map(|r| [(0, r), (1, r)]).collect();
        edges.extend(ring.map(|r| (r, 2 + (r - 1) % n)));
        Graph::from_edges(2 + n as usize, &edges)
    }

    #[test]
    fn hub_layers_equal_scalar_build_at_every_lane_width() {
        // 255 is the widest degree the u8 lanes hold (a 255-way tie
        // ranks 0..=254); 256 and 300 take the u16 lanes.
        for n in [255, 256, 300] {
            let g = twin_hubs(n);
            let sparse: Vec<(u32, u32)> = (2..2 + n).step_by(7).map(|r| (0, r)).collect();
            let layers = LayerSet {
                graphs: vec![g.clone(), g.without_edges(&sparse)],
            };
            let pt = assert_matches_reference(&g, &layers, &format!("hubs of degree {n}"));
            let seq = rayon::run_sequential(|| PortTables::build(&g, &layers));
            assert!(pt.tables == seq.tables);
        }
    }

    #[test]
    fn one_destination_band_equals_its_row_of_the_build() {
        let (g, rt) = tables_for(5, 2, 0.6);
        let nr = g.n();
        for l in 0..rt.n_layers() {
            let lg = rt.layers.layer(l);
            let ports = LayerPorts::new(&g, lg);
            for dst in [0u32, 17, nr as u32 - 1] {
                let dists = distance_rows(lg, &[dst]);
                let mut table = vec![NO_PORT; nr];
                select_bands(Band::split(lg, &ports, l, &[dst], &dists, &mut table).collect());
                assert_eq!(table, rt.ports.row(l, dst), "layer {l} dst {dst}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        // Random bases (often disconnected) with random sub-layers, so
        // rows hold unreachable pairs, isolated routers and ties.
        #[test]
        fn tables_equal_scalar_build(
            g in crate::ecmp::tests::arb_graph(),
            keep in prop::collection::vec(0u64..4, 2..4),
        ) {
            let edges = g.edge_vec();
            let mut graphs = vec![g.clone()];
            for (li, &k) in keep.iter().enumerate() {
                // Layer li+1 drops edge e when a hash of (li, e) hits k.
                let dropped: Vec<(u32, u32)> = edges
                    .iter()
                    .enumerate()
                    .filter(|&(e, _)| fnv1a((li as u64) << 32 | e as u64) % 4 <= k)
                    .map(|(_, &uv)| uv)
                    .collect();
                graphs.push(g.without_edges(&dropped));
            }
            let layers = LayerSet { graphs };
            let pt = assert_matches_reference(&g, &layers, "random layers");
            let seq = rayon::run_sequential(|| PortTables::build(&g, &layers));
            prop_assert!(pt.tables == seq.tables);
        }
    }
}
