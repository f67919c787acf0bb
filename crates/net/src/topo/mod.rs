//! Topology zoo of the FatPaths paper (§II-B, Appendix A, Table V).
//!
//! Every generator returns a [`Topology`]: the router graph, the number of
//! endpoints attached to each router (*concentration* `p`), a cable class
//! per link for the cost model, and structural metadata.

pub mod complete;
pub mod dragonfly;
pub mod fattree;
pub mod hyperx;
pub mod jellyfish;
pub mod slimfly;
pub mod star;
pub mod xpander;

use crate::graph::{Graph, RouterId};

/// Which family a topology instance belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopoKind {
    /// Slim Fly MMS graphs, diameter 2 (Besta & Hoefler, SC'14).
    SlimFly,
    /// Balanced Dragonfly, diameter 3 (Kim et al., ISCA'08).
    Dragonfly,
    /// Random regular graph (Singla et al., NSDI'12).
    Jellyfish,
    /// Lifted complete graph (Valadarsky et al., HotNets'15).
    Xpander,
    /// Hamming graph / generalized Flattened Butterfly (Ahn et al., SC'09).
    HyperX,
    /// Three-stage fat tree (Leiserson / Al-Fares et al.).
    FatTree,
    /// Fully connected router graph, diameter 1.
    Complete,
    /// Single crossbar switch with endpoints (baseline validation, App. D).
    Star,
}

impl TopoKind {
    /// Short display name used in result tables (matches the paper's labels).
    pub fn label(self) -> &'static str {
        match self {
            TopoKind::SlimFly => "SF",
            TopoKind::Dragonfly => "DF",
            TopoKind::Jellyfish => "JF",
            TopoKind::Xpander => "XP",
            TopoKind::HyperX => "HX",
            TopoKind::FatTree => "FT3",
            TopoKind::Complete => "CG",
            TopoKind::Star => "ST",
        }
    }
}

/// Cable class for the cost model (§VII-A2): copper for short links
/// (endpoint and intra-group), fiber for long inter-group/global runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkClass {
    /// Short electrical cable (intra-group / intra-pod).
    Short,
    /// Long optical cable (inter-group / global / core-level).
    Long,
}

/// A concrete network instance: router graph + endpoint attachment + cable
/// classes + structural metadata.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Topology family.
    pub kind: TopoKind,
    /// Human-readable instance name, e.g. `"SF(q=19)"`.
    pub name: String,
    /// Router-to-router graph.
    pub graph: Graph,
    /// Endpoints attached to each router (the paper's concentration `p`;
    /// zero for non-edge routers of a fat tree).
    pub concentration: Vec<u32>,
    /// Cable class per canonical edge (same order as [`Graph::edges`]).
    pub link_classes: Vec<LinkClass>,
    /// Structural diameter `D` of the router graph.
    pub diameter: u32,
    /// Maintenance / failure domains: router-id ranges that share fate
    /// under correlated maintenance — a fat-tree pod's aggregation
    /// layer, a Dragonfly group, a HyperX dimension-0 row. Generators
    /// of structured topologies fill this after
    /// [`Topology::assemble`]; irregular families (Slim Fly, Jellyfish,
    /// Xpander) leave it empty, and domain-aware samplers
    /// ([`FaultPlan::rolling_domain_reboot`]) then degrade to
    /// per-router domains.
    ///
    /// [`FaultPlan::rolling_domain_reboot`]: crate::fault::FaultPlan::rolling_domain_reboot
    pub domains: Vec<std::ops::Range<RouterId>>,
    /// Prefix sums over `concentration`, length `n+1`; endpoint ids are
    /// dense in `0..num_endpoints()`.
    endpoint_offset: Vec<u32>,
}

impl Topology {
    /// Assembles a topology, building the graph from a classed edge list and
    /// aligning `link_classes` with the canonical edge order.
    pub fn assemble(
        kind: TopoKind,
        name: String,
        n: usize,
        edges: Vec<(RouterId, RouterId, LinkClass)>,
        concentration: Vec<u32>,
        diameter: u32,
    ) -> Self {
        assert_eq!(concentration.len(), n);
        let plain: Vec<(u32, u32)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let graph = Graph::from_edges(n, &plain);
        // Re-derive classes in canonical order (duplicates collapse to the
        // first class seen).
        let mut class_map = rustc_hash::FxHashMap::default();
        for &(u, v, c) in &edges {
            let key = (u.min(v), u.max(v));
            class_map.entry(key).or_insert(c);
        }
        let link_classes: Vec<LinkClass> = graph.edges().map(|e| class_map[&e]).collect();
        let mut endpoint_offset = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        endpoint_offset.push(0);
        for &c in &concentration {
            acc += c;
            endpoint_offset.push(acc);
        }
        Topology {
            kind,
            name,
            graph,
            concentration,
            link_classes,
            diameter,
            domains: Vec::new(),
            endpoint_offset,
        }
    }

    /// Number of routers `Nr`.
    #[inline]
    pub fn num_routers(&self) -> usize {
        self.graph.n()
    }

    /// Number of endpoints `N`.
    #[inline]
    pub fn num_endpoints(&self) -> usize {
        *self.endpoint_offset.last().unwrap() as usize
    }

    /// Router hosting endpoint `e`.
    #[inline]
    pub fn endpoint_router(&self, e: u32) -> RouterId {
        debug_assert!((e as usize) < self.num_endpoints());
        // partition_point returns the first offset > e; subtract one router.
        (self.endpoint_offset.partition_point(|&o| o <= e) - 1) as RouterId
    }

    /// Endpoint id range attached to router `r`.
    #[inline]
    pub fn router_endpoints(&self, r: RouterId) -> std::ops::Range<u32> {
        self.endpoint_offset[r as usize]..self.endpoint_offset[r as usize + 1]
    }

    /// Network radix `k'` (max router-to-router degree).
    pub fn network_radix(&self) -> usize {
        self.graph.max_degree()
    }

    /// Full router radix `k = k' + p` (max over routers).
    pub fn router_radix(&self) -> usize {
        (0..self.num_routers())
            .map(|r| self.graph.degree(r as u32) + self.concentration[r] as usize)
            .max()
            .unwrap_or(0)
    }

    /// Edge density `(m + N) / N` — cables (including endpoint links) per
    /// endpoint, as plotted in Fig. 19.
    pub fn edge_density(&self) -> f64 {
        let n = self.num_endpoints() as f64;
        (self.graph.m() as f64 + n) / n
    }

    /// Uniform-concentration helper: `p` endpoints on every router.
    pub(crate) fn uniform_concentration(n: usize, p: u32) -> Vec<u32> {
        vec![p; n]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Topology {
        Topology::assemble(
            TopoKind::Complete,
            "tiny".into(),
            3,
            vec![
                (0, 1, LinkClass::Short),
                (1, 2, LinkClass::Long),
                (0, 2, LinkClass::Long),
            ],
            vec![2, 0, 3],
            1,
        )
    }

    #[test]
    fn endpoint_mapping_roundtrip() {
        let t = tiny();
        assert_eq!(t.num_endpoints(), 5);
        assert_eq!(t.endpoint_router(0), 0);
        assert_eq!(t.endpoint_router(1), 0);
        assert_eq!(t.endpoint_router(2), 2);
        assert_eq!(t.endpoint_router(4), 2);
        assert_eq!(t.router_endpoints(0), 0..2);
        assert_eq!(t.router_endpoints(1), 2..2);
        assert_eq!(t.router_endpoints(2), 2..5);
    }

    #[test]
    fn link_classes_align_with_canonical_edges() {
        let t = tiny();
        let edges = t.graph.edge_vec();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(
            t.link_classes,
            vec![LinkClass::Short, LinkClass::Long, LinkClass::Long]
        );
    }

    #[test]
    fn radix_accounts_for_endpoints() {
        let t = tiny();
        assert_eq!(t.network_radix(), 2);
        assert_eq!(t.router_radix(), 2 + 3);
    }
}
