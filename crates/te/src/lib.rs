//! # fatpaths-te
//!
//! Traffic engineering for FatPaths layers: **negotiated-congestion
//! routing** in the style of PathFinder (the classic FPGA routing
//! algorithm), transplanted from FPGA wires to network links.
//!
//! Static FatPaths tables are oblivious — layer subgraphs are sampled at
//! random and every `(layer, destination)` tree picks hash-tie-broken
//! minimal next hops with no knowledge of the traffic. Under adversarial
//! matrices many trees pile onto the same links. The TE subsystem keeps
//! the FatPaths forwarding model (destination-based per-layer tables,
//! flowlet load balancing over layers) but *specializes the trees to a
//! traffic matrix*:
//!
//! 1. route every `(layer, destination)` tree, initially the static
//!    tables;
//! 2. measure per-link load under the matrix (equal flowlet split over
//!    layers — the same demand model the simulator's hashing realizes);
//! 3. re-price each link with a *present* cost proportional to its
//!    current load and an accumulated *historic* cost for persistent
//!    oversubscription (PathFinder's `pfac` 0.8 and `hfac` 0.4);
//! 4. rebuild all trees as shortest-path trees under the new prices and
//!    repeat until the peak load changes by less than 0.1% or
//!    [`TeConfig::max_iterations`] is hit.
//!
//! The negotiation is deterministic end to end — stable demand ordering,
//! the same `fnv1a(layer, src, dst)` tie-break as the static tables, no
//! RNG — so negotiated tables are bit-identical at any thread count.
//!
//! * [`TeScheme`] — the negotiated scheme; a drop-in
//!   [`RoutingScheme`](fatpaths_core::scheme::RoutingScheme) that
//!   compiles through `fatpaths-fib` and repairs through
//!   `repair_routes` like every other scheme: under faults it reroutes
//!   only the trees that cross a down link, on the degraded layer and
//!   under the negotiated prices.
//! * [`score`] — matrix scoring shared with the experiments: per-edge
//!   loads of any scheme under equal flowlet split, and the achieved
//!   throughput `1 / max_load` compared against the
//!   `fatpaths-mcf` upper bound.

pub mod negotiate;
pub mod score;
mod tree;

pub use fatpaths_mcf::RouterDemand;
pub use negotiate::{TeConfig, TeScheme};
pub use score::{achieved_throughput, edge_loads, peak_load};

use fatpaths_net::topo::Topology;

/// Aggregates endpoint flow pairs into router-level demands — the traffic
/// matrix the negotiation and the scorer consume. Thin wrapper over
/// [`fatpaths_mcf::router_demands`] with the result sorted by
/// `(src, dst)` so downstream float accumulation is order-stable.
pub fn endpoint_demands(topo: &Topology, pairs: &[(u32, u32)]) -> Vec<RouterDemand> {
    let mut demands = fatpaths_mcf::router_demands(pairs, |e| topo.endpoint_router(e));
    demands.sort_by_key(|d| (d.src, d.dst));
    demands
}
