//! The open routing-scheme interface: every scheme the paper compares —
//! FatPaths layers, ECMP-family minimal multipath, SPAIN, PAST,
//! k-shortest-paths, and Valiant load balancing — exposes the same
//! hop-by-hop forwarding contract, so the packet simulator (and any other
//! consumer) is generic over routing.
//!
//! The contract is destination-based forwarding with a per-packet layer
//! tag, which is what commodity hardware implements (§V-E): at router `r`,
//! a packet tagged `layer` and destined to `dst_router` may leave through
//! any port in [`RoutingScheme::candidate_ports`]. Load balancing (which
//! candidate a packet actually takes, and when a flow changes its layer
//! tag) stays in the simulator — schemes only define the *path sets*.
//!
//! Schemes that need mid-route state transitions (Valiant's two phases)
//! implement [`RoutingScheme::update_layer`], a per-hop tag rewrite — the
//! software analogue of VLAN rewriting / segment popping. Tags the
//! endpoints may *select* are `0..num_layers()`; rewritten internal tags
//! may exceed that range and are owned entirely by the scheme.

use crate::ecmp::DistanceMatrix;
use crate::fwd::{fnv1a, PortTables, RoutingTables};
use crate::ksp::{k_shortest_paths_in, YenScratch};
use crate::layers::{connect_with_bridges, LayerSet};
use crate::past::tree_toward;
use crate::repair::{DownLinks, RouteRepair};
use crate::spain::{build_spain_layers, SpainConfig};
use fatpaths_net::graph::{Graph, RouterId};

/// Inline capacity of a [`PortSet`]; candidate sets beyond this spill to
/// the heap. Sized to cover the largest minimal-multipath fan-out the
/// evaluation uses — a Large-class fat tree (k = 54) has k/2 = 27
/// minimal up-ports per inter-pod hop — so the per-packet hot path stays
/// allocation-free on every paper-size topology.
const PORTSET_INLINE: usize = 28;

/// Most layers a scheme can address by tag: layer tags are `u8` in
/// packets, in [`RoutingScheme::candidate_ports`] and in repair-overlay
/// keys. Forest-layered schemes (SPAIN, KSP) may hold more layers, of
/// which tags address only the first `MAX_LAYERS`; per-layer repair and TE
/// negotiation write every layer under its own tag and check this bound.
pub const MAX_LAYERS: usize = u8::MAX as usize + 1;

/// Panics, naming the limit, if `n_layers` exceeds [`MAX_LAYERS`].
pub fn assert_layer_tags(n_layers: usize) {
    assert!(
        n_layers <= MAX_LAYERS,
        "{n_layers} layers exceed the u8 layer tag limit of {MAX_LAYERS} layers"
    );
}

/// A small set of candidate output ports, inline up to
/// `PORTSET_INLINE` (28) entries. Order is part of the contract: load
/// balancers index into it deterministically, so schemes must emit ports
/// in a stable order (ascending, for every scheme in this crate).
#[derive(Clone, Debug, Default)]
pub struct PortSet {
    len: u32,
    inline: [u16; PORTSET_INLINE],
    spill: Vec<u16>,
}

impl PortSet {
    /// The empty set.
    pub fn new() -> PortSet {
        PortSet::default()
    }

    /// A one-port set.
    pub fn single(port: u16) -> PortSet {
        let mut s = PortSet::default();
        s.push(port);
        s
    }

    /// Appends a candidate port.
    pub fn push(&mut self, port: u16) {
        let n = self.len as usize;
        if self.spill.is_empty() && n < PORTSET_INLINE {
            self.inline[n] = port;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline[..n]);
            }
            self.spill.push(port);
        }
        self.len += 1;
    }

    /// The candidates as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[u16] {
        if self.spill.is_empty() {
            &self.inline[..self.len as usize]
        } else {
            &self.spill
        }
    }

    /// Number of candidates.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True iff no candidate exists (destination unreachable).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Set equality is slice equality (order is part of the contract), so
/// an inline set equals its spilled twin.
impl PartialEq for PortSet {
    fn eq(&self, other: &PortSet) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PortSet {}

impl AsRef<[u16]> for PortSet {
    fn as_ref(&self) -> &[u16] {
        self.as_slice()
    }
}

/// A pluggable routing scheme: per (layer, router, destination-router)
/// candidate output ports plus metadata. Implementations must be
/// loop-free per layer: following any candidate port must make progress
/// toward the destination under the scheme's own forwarding rule.
///
/// `Sync` is a supertrait: the sharded simulator shares one scheme
/// reference across all shard workers, so lookups must be safe from
/// multiple threads. Every scheme is immutable routing state after
/// construction, so this costs implementations nothing — it only rules
/// out interior mutability (`Cell`/`RefCell`) in hot lookup paths.
pub trait RoutingScheme: Sync {
    /// Number of endpoint-selectable layers, in `1..=255`. Endpoints tag
    /// packets with layers in `0..num_layers()`; flowlet load balancing
    /// re-picks within that range. Packets carry a `u8` tag and `0xff`
    /// is NDP's "no suggestion" marker, so a scheme with more layers
    /// exposes only its first 255: a larger count would wrap tags onto
    /// the low layers wherever a caller reduces a pick modulo it.
    fn num_layers(&self) -> usize;

    /// Total span of layer tags that may appear on a packet under this
    /// scheme: the endpoint-selectable tags `0..num_layers()` plus any
    /// scheme-internal rewritten tags ([`RoutingScheme::update_layer`]
    /// results, e.g. Valiant's phase-2 tags). FIB compilation
    /// materializes one per-switch table row set per tag in this range,
    /// so [`candidate_ports`](RoutingScheme::candidate_ports) must be
    /// total over `0..tag_space()`.
    ///
    /// **Wrapper contract.** A scheme that wraps another (the FIB-
    /// compiled scheme, the TE scheme over static tables, `Box<T>`) must
    /// forward this method to the inner scheme rather than inherit the
    /// `num_layers()` default: a wrapper that drops the override
    /// silently truncates the inner tag range, and every packet carrying
    /// a rewritten tag ≥ `num_layers()` becomes unroutable after
    /// compilation. The blanket `Box` impl below forwards it; the
    /// `boxed_wrappers_forward_the_whole_contract` test pins that this
    /// stays true for non-default implementations.
    fn tag_space(&self) -> usize {
        self.num_layers()
    }

    /// Output ports of `at_router` through which a packet tagged `layer`
    /// and destined to an endpoint of `dst_router` may leave. Never
    /// called with `at_router == dst_router`. An empty set means the
    /// destination is unreachable (the simulator treats this as fatal).
    fn candidate_ports(&self, layer: u8, at_router: RouterId, dst_router: RouterId) -> PortSet;

    /// Per-hop layer-tag rewrite, applied when a packet arrives at
    /// `at_router` before port selection. Identity for single-phase
    /// schemes; Valiant uses it to switch from the "toward intermediate"
    /// phase to the "toward destination" phase.
    fn update_layer(&self, layer: u8, at_router: RouterId, dst_router: RouterId) -> u8 {
        let _ = (at_router, dst_router);
        layer
    }

    /// Link-state-change hook: the scheme's routing response to the given
    /// set of down links, as a sparse [`RouteRepair`] overlay the
    /// simulator consults before [`candidate_ports`]
    /// (see the overlay's docs for entry semantics).
    ///
    /// The default returns an empty overlay — the scheme does not reroute
    /// and recovery stays end-to-end (senders re-pick layers after
    /// timeouts, §V-G). [`RoutingTables`] rebuilds the `(layer, dst)`
    /// rows a down link breaks on the degraded layer; [`MinimalScheme`]
    /// rebuilds its distance view from the degraded graph.
    ///
    /// **Wrapper contract.** A wrapper scheme must delegate this hook to
    /// (or derive it from) its inner scheme — never inherit the empty
    /// default. A wrapper that drops it silently disables fault repair
    /// for every scheme it wraps: simulations still run, but failures
    /// are only ever recovered end-to-end, which corrupts any resilience
    /// comparison. The FIB-compiled scheme delegates and re-prices the
    /// overlay in FIB rows; `Box<T>` forwards verbatim (pinned by
    /// `boxed_wrappers_forward_the_whole_contract`).
    ///
    /// [`candidate_ports`]: RoutingScheme::candidate_ports
    fn repair_routes(&self, base: &Graph, down: &DownLinks) -> RouteRepair {
        let _ = (base, down);
        RouteRepair::none()
    }
}

/// Boxed schemes forward the whole contract — lets adapters (e.g. the
/// FIB-compiled scheme) own an arbitrary inner scheme as
/// `Box<dyn RoutingScheme>` while staying a `RoutingScheme` themselves.
impl<T: RoutingScheme + ?Sized> RoutingScheme for Box<T> {
    fn num_layers(&self) -> usize {
        (**self).num_layers()
    }

    fn tag_space(&self) -> usize {
        (**self).tag_space()
    }

    fn candidate_ports(&self, layer: u8, at_router: RouterId, dst_router: RouterId) -> PortSet {
        (**self).candidate_ports(layer, at_router, dst_router)
    }

    fn update_layer(&self, layer: u8, at_router: RouterId, dst_router: RouterId) -> u8 {
        (**self).update_layer(layer, at_router, dst_router)
    }

    fn repair_routes(&self, base: &Graph, down: &DownLinks) -> RouteRepair {
        (**self).repair_routes(base, down)
    }
}

/// Table-driven forwarding: one deterministic port per (layer, src, dst),
/// read from the tagged layer clamped to the last. FatPaths, TE and the
/// baselines route every pair in every layer (checked where they are
/// built), so the tagged layer alone decides.
impl RoutingScheme for PortTables {
    fn num_layers(&self) -> usize {
        self.n_layers().min(255)
    }

    #[inline]
    fn candidate_ports(&self, layer: u8, at_router: RouterId, dst_router: RouterId) -> PortSet {
        match self.forward(layer as usize, at_router, dst_router) {
            Some(p) => PortSet::single(p),
            None => PortSet::new(),
        }
    }
}

/// Forwards from its [`PortTables`]; repairs through
/// [`RoutingTables::repair`].
impl RoutingScheme for RoutingTables {
    fn num_layers(&self) -> usize {
        self.ports().num_layers()
    }

    fn candidate_ports(&self, layer: u8, at_router: RouterId, dst_router: RouterId) -> PortSet {
        self.ports().candidate_ports(layer, at_router, dst_router)
    }

    fn repair_routes(&self, base: &Graph, down: &DownLinks) -> RouteRepair {
        self.repair(base, down)
    }
}

/// Minimal multipath over a [`DistanceMatrix`] — the ECMP / packet-spray /
/// LetFlow substrate. This is the `DistanceMatrix` adapter: the matrix
/// alone cannot enumerate ports (it stores distances, not adjacency), so
/// the adapter pairs it with the graph it was built from.
#[derive(Clone, Copy, Debug)]
pub struct MinimalScheme<'a> {
    /// The topology's router graph.
    pub graph: &'a Graph,
    /// All-pairs hop distances over `graph`.
    pub dm: &'a DistanceMatrix,
}

impl<'a> MinimalScheme<'a> {
    /// Pairs a distance matrix with its base graph.
    pub fn new(graph: &'a Graph, dm: &'a DistanceMatrix) -> Self {
        MinimalScheme { graph, dm }
    }
}

impl RoutingScheme for MinimalScheme<'_> {
    fn num_layers(&self) -> usize {
        1
    }

    fn candidate_ports(&self, _layer: u8, at_router: RouterId, dst_router: RouterId) -> PortSet {
        self.dm.minimal_port_set(self.graph, at_router, dst_router)
    }

    /// Adapter rebuild: recompute all-pairs distances on the degraded
    /// graph and overlay every pair whose minimal port set changed —
    /// ports stay numbered by the *original* graph (the physical ports
    /// the simulator addresses), with down links filtered out.
    fn repair_routes(&self, base: &Graph, down: &DownLinks) -> RouteRepair {
        if down.is_empty() {
            return RouteRepair::none();
        }
        let degraded = base.without_edges(down.as_slice());
        let dm2 = DistanceMatrix::build(&degraded);
        let nr = base.n() as u32;
        let pairs = (0..nr).flat_map(|src| (0..nr).map(move |dst| (src, dst)));
        RouteRepair::from_rows(
            pairs
                .filter(|&(src, dst)| src != dst)
                .filter_map(|(src, dst)| {
                    let new = degraded_minimal_ports(base, &dm2, down, src, dst);
                    let old = self.dm.minimal_port_set(self.graph, src, dst);
                    (new != old).then_some(((0, src, dst), new))
                }),
        )
    }
}

/// Minimal ports of `src` toward `dst` under degraded distances `dm2`,
/// numbered by the original `base` graph, skipping down links. Empty when
/// the pair is disconnected in the degraded graph.
fn degraded_minimal_ports(
    base: &Graph,
    dm2: &DistanceMatrix,
    down: &DownLinks,
    src: RouterId,
    dst: RouterId,
) -> PortSet {
    let mut out = PortSet::new();
    let Some(ds) = dm2.get(src, dst) else {
        return out;
    };
    for (port, &nb) in base.neighbors(src).iter().enumerate() {
        if down.contains(src, nb) {
            continue;
        }
        if dm2.get(nb, dst) == Some(ds - 1) {
            out.push(port as u16);
        }
    }
    debug_assert!(!out.is_empty(), "reachable pair must have a minimal port");
    out
}

/// Configuration of the [`PortTables::ksp`] build.
#[derive(Clone, Copy, Debug)]
pub struct KspConfig {
    /// Paths per pair (= layers of the compiled scheme).
    pub k: usize,
    /// Cap on the number of (src, dst) pairs Yen's algorithm runs on;
    /// larger graphs are sampled with a deterministic stride. `0` = all.
    pub max_pairs: usize,
}

impl Default for KspConfig {
    fn default() -> Self {
        KspConfig {
            k: 4,
            max_pairs: 4000,
        }
    }
}

/// The forest- and tree-layered baselines, lowered into bare port tables
/// that forward by the [`PortTables`] rule: SPAIN (Mudigonda et al.,
/// NSDI'10; one layer per merged VLAN forest), k-shortest paths (Singla et
/// al.; Appendix C-D; one layer per path rank) and PAST (Stephens et al.,
/// CoNEXT'12; one layer of per-destination trees, exactly one path per
/// pair — the §VI deficiency made measurable). None of them repairs: their
/// published constructions are static, so recovery stays end-to-end.
///
/// Each build checks that `base` is connected and panics otherwise. On a
/// connected base every layer routes every pair, so the tagged layer
/// alone decides: a SPAIN layer is one spanning tree (two distinct
/// spanning trees never merge acyclically), KSP layers are patched to
/// connectivity, and PAST's one layer holds a spanning tree per
/// destination.
impl PortTables {
    /// Runs the SPAIN construction on `base` and compiles its layers into
    /// port tables. Only the first [`MAX_LAYERS`] layers, the ones tags
    /// address, are built and lowered.
    pub fn spain(base: &Graph, cfg: &SpainConfig) -> Self {
        assert!(
            base.is_connected(),
            "SPAIN routing needs a connected base graph"
        );
        let cap = cfg.max_layers.unwrap_or(MAX_LAYERS).min(MAX_LAYERS);
        let cfg = SpainConfig {
            max_layers: Some(cap),
            ..*cfg
        };
        PortTables::build(base, &build_spain_layers(base, &cfg).layers)
    }

    /// k-shortest-paths routing: runs Yen's algorithm over the (sampled)
    /// pairs — in parallel, one task per pair — and unions the i-th
    /// shortest paths into layer i's subgraph. Minimal forwarding within
    /// each layer then realizes "spread over the k shortest paths" with
    /// plain destination-based tables, mirroring how §VI treats KSP as a
    /// layered comparison target.
    ///
    /// # Panics
    ///
    /// If `base` is disconnected: every sampled pair needs a path.
    pub fn ksp(base: &Graph, cfg: &KspConfig) -> Self {
        PortTables::build(base, &ksp_layers(base, cfg))
    }

    /// PAST as one layer of port tables: destination `dst`'s row is its
    /// spanning tree, each router's port toward its tree parent.
    pub fn past(g: &Graph, seed: u64) -> Self {
        assert!(
            g.is_connected(),
            "PAST routing needs a connected base graph"
        );
        let nr = g.n();
        let mut ports = PortTables::new(1, nr);
        for table in ports.layers_mut() {
            for (dst, row) in (0..nr as u32).zip(table.chunks_mut(nr)) {
                let parent = tree_toward(g, dst, seed);
                for ((src, entry), &next) in (0..nr as u32).zip(row).zip(&parent) {
                    if src != dst {
                        let p = g
                            .port_of(src, next)
                            .expect("PAST tree edge must exist in the graph");
                        *entry = p as u16;
                    }
                }
            }
        }
        ports
    }
}

/// The KSP layers: layer i is the union of the (sampled) pairs' i-th
/// shortest paths, patched to connectivity.
fn ksp_layers(base: &Graph, cfg: &KspConfig) -> LayerSet {
    assert!(cfg.k >= 1, "need at least one path per pair");
    assert!(
        base.is_connected(),
        "k-shortest-paths routing needs a connected base graph"
    );
    let nr = base.n();
    let mut edge_sets: Vec<rustc_hash::FxHashSet<(u32, u32)>> =
        vec![rustc_hash::FxHashSet::default(); cfg.k];
    let total_pairs = nr * (nr - 1);
    let stride = if cfg.max_pairs == 0 || total_pairs <= cfg.max_pairs {
        1
    } else {
        total_pairs.div_ceil(cfg.max_pairs)
    };
    let mut sampled: Vec<(u32, u32)> = Vec::new();
    let mut idx = 0usize;
    for s in 0..nr as u32 {
        for d in 0..nr as u32 {
            if s == d {
                continue;
            }
            idx += 1;
            if idx.is_multiple_of(stride) {
                sampled.push((s, d));
            }
        }
    }
    use rayon::prelude::*;
    let per_pair: Vec<Vec<Vec<u32>>> = sampled
        .into_par_iter()
        .map_init(YenScratch::default, |scratch, (s, d)| {
            k_shortest_paths_in(base, s, d, cfg.k, scratch)
        })
        .collect();
    // Union the rank-i paths sequentially (pair order, deterministic).
    for paths in &per_pair {
        for (i, set) in edge_sets.iter_mut().enumerate() {
            // Rank i path, or the longest available one.
            let p = paths.get(i).or(paths.last()).unwrap();
            for w in p.windows(2) {
                set.insert((w[0].min(w[1]), w[0].max(w[1])));
            }
        }
    }
    let graphs: Vec<Graph> = edge_sets
        .into_iter()
        .map(|set| {
            // Bridges in canonical order: the build stays deterministic.
            connect_with_bridges(base, set.into_iter().collect(), |_| {})
        })
        .collect();
    LayerSet { graphs }
}

/// Valiant load balancing (VLB): route minimally to a per-(layer,
/// destination) intermediate router, then minimally to the destination.
/// The two phases are encoded in the layer tag — phase-1 tags are
/// `0..n_vlb` (endpoint-selectable), and [`RoutingScheme::update_layer`]
/// rewrites tag `l` to `n_vlb + l` when the packet reaches the
/// intermediate. Both phases follow strictly decreasing BFS distances, so
/// forwarding is loop-free.
#[derive(Clone, Debug)]
pub struct ValiantScheme<'a> {
    graph: &'a Graph,
    dm: DistanceMatrix,
    n_vlb: usize,
    seed: u64,
}

impl<'a> ValiantScheme<'a> {
    /// Builds VLB with `n_vlb` selectable intermediates per destination.
    pub fn build(graph: &'a Graph, n_vlb: usize, seed: u64) -> Self {
        assert!(
            (1..=127).contains(&n_vlb),
            "layer tag is u8: phase bit needs n_vlb <= 127"
        );
        ValiantScheme {
            graph,
            dm: DistanceMatrix::build(graph),
            n_vlb,
            seed,
        }
    }

    /// The intermediate router of layer `l` toward `dst`.
    #[inline]
    fn intermediate(&self, l: usize, dst: RouterId) -> RouterId {
        let nr = self.graph.n() as u64;
        (fnv1a(self.seed ^ ((l as u64) << 40) ^ dst as u64) % nr) as u32
    }
}

impl RoutingScheme for ValiantScheme<'_> {
    fn num_layers(&self) -> usize {
        self.n_vlb
    }

    /// Phase-1 tags `0..n_vlb` are endpoint-selectable; `update_layer`
    /// rewrites tag `l` to `n_vlb + l` at the intermediate, so the full
    /// tag span a packet can carry is twice the selectable range.
    fn tag_space(&self) -> usize {
        2 * self.n_vlb
    }

    fn candidate_ports(&self, layer: u8, at_router: RouterId, dst_router: RouterId) -> PortSet {
        let l = layer as usize;
        let target = if l < self.n_vlb {
            let w = self.intermediate(l, dst_router);
            // Degenerate draws (w == current router is handled by
            // update_layer; w == dst makes phase 1 the whole route).
            if w == at_router {
                dst_router
            } else {
                w
            }
        } else {
            dst_router
        };
        self.dm.minimal_port_set(self.graph, at_router, target)
    }

    fn update_layer(&self, layer: u8, at_router: RouterId, dst_router: RouterId) -> u8 {
        let l = layer as usize;
        if l < self.n_vlb && self.intermediate(l, dst_router) == at_router {
            (self.n_vlb + l) as u8
        } else {
            layer
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{build_random_layers, LayerConfig};
    use fatpaths_net::topo::slimfly::slim_fly;

    /// Walks hop-by-hop through `scheme` from `s` to `t` on `layer`,
    /// always taking the first candidate; applies `update_layer` like the
    /// simulator does. Returns the router path.
    fn walk(scheme: &dyn RoutingScheme, g: &Graph, mut layer: u8, s: u32, t: u32) -> Vec<u32> {
        let mut at = s;
        let mut path = vec![s];
        while at != t {
            layer = scheme.update_layer(layer, at, t);
            let ports = scheme.candidate_ports(layer, at, t);
            assert!(!ports.is_empty(), "unreachable at {at} toward {t}");
            at = g.neighbor_at(at, ports.as_slice()[0] as u32);
            path.push(at);
            assert!(path.len() <= g.n() + 2, "forwarding loop: {path:?}");
        }
        path
    }

    #[test]
    fn portset_inline_and_spill() {
        let mut s = PortSet::new();
        assert!(s.is_empty());
        for p in 0..(PORTSET_INLINE as u16 + 5) {
            s.push(p);
        }
        assert_eq!(s.len(), PORTSET_INLINE + 5);
        let expect: Vec<u16> = (0..(PORTSET_INLINE as u16 + 5)).collect();
        assert_eq!(s.as_slice(), &expect[..]);
        assert_eq!(PortSet::single(7).as_slice(), &[7]);
    }

    #[test]
    fn routing_tables_scheme_matches_next_port() {
        let t = slim_fly(5, 1).unwrap();
        let ls = build_random_layers(&t.graph, &LayerConfig::new(4, 0.6, 1));
        let rt = RoutingTables::build(&t.graph, &ls);
        for layer in 0..4u8 {
            for (s, d) in [(0u32, 30u32), (7, 44), (21, 3)] {
                let ps = rt.candidate_ports(layer, s, d);
                assert_eq!(
                    ps.as_slice(),
                    &[rt.ports().get(layer as usize, s, d).unwrap()]
                );
            }
        }
        // Out-of-range layer clamps like the old simulator did.
        let clamped = rt.candidate_ports(200, 0, 30);
        assert_eq!(clamped.as_slice(), &[rt.ports().get(3, 0, 30).unwrap()]);
        assert_eq!(RoutingScheme::num_layers(&rt), 4);
    }

    #[test]
    fn minimal_scheme_ports_match_distance_matrix() {
        let t = slim_fly(5, 1).unwrap();
        let dm = DistanceMatrix::build(&t.graph);
        let ms = MinimalScheme::new(&t.graph, &dm);
        for (s, d) in [(0u32, 17u32), (3, 44), (10, 29)] {
            // Ports whose neighbour is one hop closer to `d`, by plain BFS.
            let to_d = t.graph.bfs(d);
            let expect: Vec<u16> = (0..t.graph.degree(s) as u32)
                .filter(|&p| to_d[t.graph.neighbor_at(s, p) as usize] + 1 == to_d[s as usize])
                .map(|p| p as u16)
                .collect();
            assert_eq!(ms.candidate_ports(0, s, d).as_slice(), &expect[..]);
        }
        assert_eq!(ms.num_layers(), 1);
    }

    #[test]
    fn spain_scheme_reaches_every_pair() {
        let t = slim_fly(5, 1).unwrap();
        let sp = PortTables::spain(&t.graph, &SpainConfig::default());
        assert!(sp.num_layers() >= 2);
        for (s, d) in [(0u32, 49u32), (13, 7), (25, 40)] {
            for layer in 0..sp.num_layers() as u8 {
                let p = walk(&sp, &t.graph, layer, s, d);
                assert_eq!(*p.last().unwrap(), d);
            }
        }
    }

    #[test]
    fn past_scheme_single_deterministic_path() {
        let t = slim_fly(5, 1).unwrap();
        let parent = tree_toward(&t.graph, 37, 3);
        let ps = PortTables::past(&t.graph, 3);
        let p = walk(&ps, &t.graph, 0, 4, 37);
        let mut tree_path = vec![4];
        while *tree_path.last().unwrap() != 37 {
            tree_path.push(parent[*tree_path.last().unwrap() as usize]);
        }
        assert_eq!(p, tree_path);
        // Layer tag is irrelevant: same path on any tag.
        assert_eq!(walk(&ps, &t.graph, 5, 4, 37), p);
    }

    #[test]
    fn ksp_layers_cover_all_pairs_and_rank0_is_minimal() {
        let t = slim_fly(5, 1).unwrap();
        let ks = PortTables::ksp(&t.graph, &KspConfig { k: 3, max_pairs: 0 });
        assert_eq!(ks.num_layers(), 3);
        for (s, d) in [(0u32, 49u32), (11, 30), (42, 2)] {
            let p0 = walk(&ks, &t.graph, 0, s, d);
            // Rank-0 layer contains every pair's shortest path.
            assert_eq!(p0.len() as u32 - 1, t.graph.bfs(s)[d as usize]);
            for layer in 1..3u8 {
                let p = walk(&ks, &t.graph, layer, s, d);
                assert_eq!(*p.last().unwrap(), d);
            }
        }
    }

    fn two_triangles() -> Graph {
        Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    }

    #[test]
    #[should_panic(expected = "k-shortest-paths routing needs a connected base graph")]
    fn ksp_on_a_disconnected_base_names_the_precondition() {
        PortTables::ksp(&two_triangles(), &KspConfig { k: 2, max_pairs: 0 });
    }

    #[test]
    #[should_panic(expected = "SPAIN routing needs a connected base graph")]
    fn spain_on_a_disconnected_base_names_the_precondition() {
        PortTables::spain(&two_triangles(), &SpainConfig::default());
    }

    #[test]
    #[should_panic(expected = "PAST routing needs a connected base graph")]
    fn past_on_a_disconnected_base_names_the_precondition() {
        PortTables::past(&two_triangles(), 11);
    }

    /// The baselines' own lookup — SPAIN's end host tries the tagged VLAN,
    /// then the next ones in cyclic order — written against the raw
    /// [`PortTables::build`] of the same layers.
    fn cyclic_oracle(pt: &PortTables, tag: usize, at: u32, dst: u32) -> Vec<u16> {
        let n = pt.n_layers();
        (tag..tag + n)
            .find_map(|l| pt.get(l % n, at, dst))
            .into_iter()
            .collect()
    }

    fn assert_cyclic(scheme: &PortTables, g: &Graph, layers: &LayerSet, what: &str) {
        let pt = PortTables::build(g, layers);
        assert_eq!(scheme.n_layers(), pt.n_layers(), "{what}");
        let nr = g.n() as u32;
        for tag in 0..scheme.n_layers() {
            for at in 0..nr {
                for dst in (0..nr).filter(|&dst| dst != at) {
                    assert_eq!(
                        scheme.candidate_ports(tag as u8, at, dst).as_slice(),
                        cyclic_oracle(&pt, tag, at, dst),
                        "{what}: tag {tag} {at}->{dst}"
                    );
                }
            }
        }
    }

    fn oracle_topologies() -> [(&'static str, Graph); 2] {
        [
            ("SF q=5", slim_fly(5, 1).unwrap().graph),
            ("FT k=4", fatpaths_net::topo::fattree::fat_tree(4, 1).graph),
        ]
    }

    #[test]
    fn spain_and_ksp_equal_a_cyclic_scan_of_their_layer_tables() {
        // Every SPAIN layer is one spanning tree (two distinct spanning
        // trees never merge acyclically) and every KSP layer is patched
        // to connectivity, so the scan stops at the tagged layer.
        for (name, g) in oracle_topologies() {
            for k_paths in [2, 3] {
                let cfg = SpainConfig {
                    k_paths,
                    ..SpainConfig::default()
                };
                let what = format!("{name} SPAIN k_paths {k_paths}");
                let layers = build_spain_layers(&g, &cfg).layers;
                assert_cyclic(&PortTables::spain(&g, &cfg), &g, &layers, &what);
            }
            for k in [3, 4] {
                let cfg = KspConfig { k, max_pairs: 0 };
                let what = format!("{name} KSP k {k}");
                assert_cyclic(&PortTables::ksp(&g, &cfg), &g, &ksp_layers(&g, &cfg), &what);
            }
        }
    }

    #[test]
    fn past_equals_its_tree_next_hops() {
        for (name, g) in oracle_topologies() {
            let ps = PortTables::past(&g, 11);
            assert_eq!(ps.n_layers(), 1);
            let nr = g.n() as u32;
            for dst in 0..nr {
                let parent = tree_toward(&g, dst, 11);
                for at in (0..nr).filter(|&at| at != dst) {
                    let want = [g.port_of(at, parent[at as usize]).unwrap() as u16];
                    let got = ps.candidate_ports(0, at, dst);
                    assert_eq!(got.as_slice(), want, "{name} {at}->{dst}");
                }
            }
        }
    }

    #[test]
    fn valiant_routes_via_intermediate_and_terminates() {
        let t = slim_fly(7, 1).unwrap();
        let vs = ValiantScheme::build(&t.graph, 4, 9);
        assert_eq!(vs.num_layers(), 4);
        let mut detoured = 0;
        for (s, d) in [(0u32, 60u32), (5, 90), (33, 12), (80, 2)] {
            let dmin = t.graph.bfs(s)[d as usize];
            for l in 0..4u8 {
                let p = walk(&vs, &t.graph, l, s, d);
                assert_eq!(*p.last().unwrap(), d);
                let w = vs.intermediate(l as usize, d);
                if w != s && w != d {
                    assert!(p.contains(&w), "VLB path skipped its intermediate");
                }
                if p.len() as u32 - 1 > dmin {
                    detoured += 1;
                }
            }
        }
        assert!(detoured > 0, "VLB never took a non-minimal route");
    }

    #[test]
    fn default_update_layer_is_identity() {
        let t = slim_fly(5, 1).unwrap();
        let dm = DistanceMatrix::build(&t.graph);
        let ms = MinimalScheme::new(&t.graph, &dm);
        assert_eq!(ms.update_layer(3, 0, 10), 3);
    }

    /// A scheme overriding every defaultable method with sentinel
    /// behavior; if boxing reached a trait default instead of the
    /// override, the sentinels vanish.
    struct SentinelScheme;

    impl RoutingScheme for SentinelScheme {
        fn num_layers(&self) -> usize {
            2
        }
        fn tag_space(&self) -> usize {
            5
        }
        fn candidate_ports(&self, layer: u8, _at: RouterId, _dst: RouterId) -> PortSet {
            PortSet::single(layer as u16)
        }
        fn update_layer(&self, layer: u8, _at: RouterId, _dst: RouterId) -> u8 {
            layer + 1
        }
        fn repair_routes(&self, _base: &Graph, down: &DownLinks) -> RouteRepair {
            RouteRepair::from_rows([((0, down.len() as u32, 9), [7])])
        }
    }

    /// Wrappers must forward the *whole* contract: a `Box<dyn
    /// RoutingScheme>` (the representation compiled/TE wrappers own
    /// their inner scheme as) must hit the inner overrides of
    /// `tag_space` and `repair_routes`, not the trait defaults — a
    /// wrapper that reaches the defaults silently truncates the tag
    /// range and disables fault repair for everything it wraps.
    #[test]
    fn boxed_wrappers_forward_the_whole_contract() {
        let t = slim_fly(5, 1).unwrap();
        let boxed: Box<dyn RoutingScheme> = Box::new(SentinelScheme);
        assert_eq!(boxed.num_layers(), 2);
        assert_eq!(boxed.tag_space(), 5, "tag_space fell back to num_layers");
        assert_eq!(boxed.candidate_ports(3, 0, 1).as_slice(), &[3]);
        assert_eq!(boxed.update_layer(3, 0, 1), 4);
        let down = DownLinks::from_links(&[(0, 1)]);
        let rep = boxed.repair_routes(&t.graph, &down);
        assert_eq!(rep.len(), 1, "repair_routes fell back to the empty default");
        assert_eq!(rep.lookup(0, 1, 9).unwrap(), &[7]);
    }
}
