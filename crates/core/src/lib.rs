//! # fatpaths-core
//!
//! The FatPaths paper's primary contribution — **layered routing** (§V) —
//! plus every comparison routing scheme of §VI, unified behind one
//! interface:
//!
//! * [`scheme`] — the **[`RoutingScheme`] trait**:
//!   per `(layer, router, destination)` candidate-port sets plus
//!   metadata. Everything below implements it (directly or through an
//!   adapter), so the packet simulator and the analysis pipelines treat
//!   FatPaths and all its baselines interchangeably — an open scheme
//!   registry rather than a hardcoded two-way branch;
//! * [`layers`] — layer abstraction + random uniform edge sampling
//!   (Listing 1);
//! * [`interference_min`] — the path-interference-minimizing construction
//!   (Listing 2);
//! * [`fwd`] — per-layer destination-based forwarding tables σᵢ
//!   (Listing 3), `O(Nr)` entries per destination: [`PortTables`], the
//!   one port-table format every table-driven scheme (FatPaths, TE,
//!   SPAIN, KSP, PAST) forwards from, and the FatPaths
//!   [`RoutingTables`] built on it; both implement [`RoutingScheme`]
//!   directly;
//! * [`repair`] — the route-repair vocabulary
//!   ([`DownLinks`],
//!   [`RouteRepair`]) behind the
//!   [`RoutingScheme::repair_routes`]
//!   link-state hook: layered tables rebuild the rows a down link
//!   breaks, adapters rebuild from the degraded graph;
//! * [`ecmp`] — minimal multipath port sets, ECMP flow hashing, packet
//!   spraying (adapter: [`MinimalScheme`]);
//! * [`spain`], [`past`], [`ksp`] — the SPAIN, PAST and k-shortest-paths
//!   baselines (Appendix C), lowered into bare [`PortTables`]
//!   ([`PortTables::spain`] / [`PortTables::past`] /
//!   [`PortTables::ksp`]); Valiant load balancing is
//!   [`ValiantScheme`]. [`PortTables::paths`] lists the distinct paths a
//!   table set offers a pair, one per layer, which Fig. 9's
//!   maximum-achievable-throughput analysis charges each table-driven
//!   scheme with (`fatpaths-mcf` takes the paths as a function and does
//!   not depend on this crate); [`k_shortest_paths`] gives KSP's;
//! * [`schemes`] — Table I's feature matrix as data.
//!
//! To add a new routing scheme, implement
//! [`RoutingScheme`] (and, for the fluent config
//! API, add a `SchemeSpec` variant in `fatpaths-sim`); the simulator's
//! event loop needs no changes.

pub mod ecmp;
pub mod fwd;
pub mod interference_min;
pub mod ksp;
pub mod layers;
pub mod past;
pub mod repair;
pub mod scheme;
pub mod schemes;
pub mod spain;

pub use ecmp::DistanceMatrix;
pub use fwd::{fnv1a, PortTables, RoutingTables, NO_PORT};
pub use interference_min::{build_interference_min_layers, ImConfig};
pub use ksp::k_shortest_paths;
pub use layers::{build_random_layers, LayerConfig, LayerSet};
pub use past::PastVariant;
pub use repair::{DownLinks, RouteRepair};
pub use scheme::{KspConfig, MinimalScheme, PortSet, RoutingScheme, ValiantScheme};
pub use spain::{build_spain_layers, SpainConfig, SpainLayers};
