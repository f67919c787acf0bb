//! # fatpaths-diversity
//!
//! Path-diversity analysis from §IV of the FatPaths paper: the machinery
//! behind Figs. 4, 6, 7, 8 and Table IV.
//!
//! * [`apsp`] — minimal path lengths/counts, diameter, average path length;
//! * [`cdp`](mod@cdp) — count of disjoint paths `c_l(A,B)` (greedy length-bounded
//!   Ford–Fulkerson, §IV-B1) and exact Menger max-flow for validation;
//! * [`interference`] — path interference `I^l_{ac,bd}` (§IV-B2);
//! * [`tnl`] — total network load bound (§IV-B3);
//! * [`collisions`] — flow-collision histograms (§IV-A).

pub mod apsp;
pub mod cdp;
pub mod collisions;
pub mod interference;
pub mod tnl;

pub use apsp::{count_shortest_paths, shortest_path_stats, PathStats};
pub use cdp::{cdp, edge_disjoint_maxflow, lmin_cmin};
pub use collisions::collision_histogram;
pub use interference::{path_interference, sample_pi, PiSample};
