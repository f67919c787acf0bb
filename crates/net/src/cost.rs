//! Construction cost model (§VII-A2, Fig. 10).
//!
//! Following the linear router/cable models of Kim et al. (ref. 23), Besta &
//! Hoefler (ref. 55), and Kim/Dally/Abts (ref. 57), parameterized with 100 GbE
//! list-price ballpark figures of the paper's era (Mellanox gear via
//! ColfaxDirect). Costs split into:
//!
//! * **routers** — `base + per_port · radix` (radix counts endpoint ports);
//! * **interconnect cables** — copper for [`LinkClass::Short`] runs, fiber
//!   (transceivers included) for [`LinkClass::Long`];
//! * **endpoint cables** — copper.
//!
//! Absolute dollars are indicative; what the reproduction preserves is the
//! *relative* per-endpoint cost across topologies (Fig. 10's shape: HX3
//! highest due to oversized radix, DF cable-light, SF/JF/XP cheapest).

use crate::topo::{LinkClass, Topology};

/// Price book for the cost model. All values in USD.
#[derive(Clone, Copy, Debug)]
pub struct PriceBook {
    /// Fixed per-router cost (chassis, fans, management).
    pub router_base: f64,
    /// Cost per router port (switching silicon scales ~linearly in radix).
    pub router_per_port: f64,
    /// Short electrical cable (intra-group / endpoint link).
    pub copper_cable: f64,
    /// Long optical cable with transceivers (global / inter-group link).
    pub fiber_cable: f64,
}

impl Default for PriceBook {
    /// 100 GbE-era defaults (cf. Fig. 10's ≈ $1.5–3k per endpoint).
    fn default() -> Self {
        PriceBook {
            router_base: 1_500.0,
            router_per_port: 350.0,
            copper_cable: 110.0,
            fiber_cable: 480.0,
        }
    }
}

/// Itemized cost of one topology instance.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostBreakdown {
    /// Switch hardware.
    pub routers: f64,
    /// Router-to-router cables.
    pub interconnect_cables: f64,
    /// Endpoint (NIC-to-switch) cables.
    pub endpoint_cables: f64,
}

impl CostBreakdown {
    /// Total cost.
    pub fn total(&self) -> f64 {
        self.routers + self.interconnect_cables + self.endpoint_cables
    }

    /// Cost normalized per endpoint, the metric of Fig. 10.
    pub fn per_endpoint(&self, n_endpoints: usize) -> f64 {
        self.total() / n_endpoints.max(1) as f64
    }
}

/// Computes the itemized construction cost of `topo` under `prices`.
pub fn cost(topo: &Topology, prices: &PriceBook) -> CostBreakdown {
    let mut routers = 0.0;
    for r in 0..topo.num_routers() {
        let radix = topo.graph.degree(r as u32) + topo.concentration[r] as usize;
        routers += prices.router_base + prices.router_per_port * radix as f64;
    }
    let mut interconnect = 0.0;
    for class in &topo.link_classes {
        interconnect += match class {
            LinkClass::Short => prices.copper_cable,
            LinkClass::Long => prices.fiber_cable,
        };
    }
    let endpoint_cables = topo.num_endpoints() as f64 * prices.copper_cable;
    CostBreakdown {
        routers,
        interconnect_cables: interconnect,
        endpoint_cables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{build, SizeClass};
    use crate::topo::TopoKind;

    /// Per-endpoint cost with the default price book.
    fn cost_per_endpoint(topo: &Topology) -> f64 {
        cost(topo, &PriceBook::default()).per_endpoint(topo.num_endpoints())
    }

    #[test]
    fn breakdown_sums() {
        let t = build(TopoKind::SlimFly, SizeClass::Small, 1);
        let c = cost(&t, &PriceBook::default());
        assert!(c.routers > 0.0 && c.interconnect_cables > 0.0 && c.endpoint_cables > 0.0);
        assert!((c.total() - (c.routers + c.interconnect_cables + c.endpoint_cables)).abs() < 1e-9);
    }

    #[test]
    fn figure_10_shape_hx_most_expensive() {
        // Fig. 10: HX3's per-endpoint cost clearly exceeds the others'.
        let hx = cost_per_endpoint(&build(TopoKind::HyperX, SizeClass::Medium, 1));
        for kind in [TopoKind::SlimFly, TopoKind::Dragonfly, TopoKind::Xpander] {
            let other = cost_per_endpoint(&build(kind, SizeClass::Medium, 1));
            assert!(hx > other, "{:?}: {other} !< HX {hx}", kind);
        }
    }

    #[test]
    fn comparable_cost_within_class() {
        // The class configurations were chosen for comparable cost: all
        // medium-class topologies must be within ~2.2x of the cheapest.
        let costs: Vec<f64> = crate::classes::evaluated_kinds()
            .iter()
            .map(|&k| cost_per_endpoint(&build(k, SizeClass::Medium, 1)))
            .collect();
        let lo = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = costs.iter().cloned().fold(0.0, f64::max);
        assert!(hi / lo < 2.2, "cost spread {lo}..{hi}");
    }

    #[test]
    fn ballpark_matches_figure_10() {
        // Fig. 10 shows ≈ $1.5k–3k per endpoint at N≈10k with 100GbE gear.
        for kind in crate::classes::evaluated_kinds() {
            let c = cost_per_endpoint(&build(kind, SizeClass::Medium, 1));
            assert!((800.0..4000.0).contains(&c), "{:?}: ${c}", kind);
        }
    }
}
