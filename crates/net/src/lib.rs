//! # fatpaths-net
//!
//! Network model and topology generators for the FatPaths reproduction
//! (Besta et al., "FatPaths: Routing in Supercomputers and Data Centers when
//! Shortest Paths Fall Short", SC'20).
//!
//! This crate provides:
//!
//! * [`graph::Graph`] — a compact CSR undirected graph with port numbering;
//! * [`topo`] — generators for every topology the paper evaluates
//!   (Slim Fly, Dragonfly, Jellyfish, Xpander, HyperX, fat tree, complete
//!   graph, star), each returning a [`topo::Topology`];
//! * [`classes`] — the paper's comparable-cost size classes (≈1k…≈1M
//!   endpoints) with the Table IV configurations;
//! * [`cost`] — the router/cable cost model behind Fig. 10;
//! * [`fault`] — deterministic link-failure plans
//!   ([`fault::FaultPlan`]): seeded samplers (uniform link fraction,
//!   whole routers down) and timed up/down events, plus the
//!   degraded view [`Graph::without_edges`](graph::Graph::without_edges).

pub mod classes;
pub mod cost;
pub mod fault;
pub mod graph;
pub mod topo;

pub use classes::{build, SizeClass};
pub use fault::{FaultModel, FaultPlan, LinkEvent};
pub use graph::{Graph, RouterId, UNREACHABLE};
pub use topo::{LinkClass, TopoKind, Topology};
