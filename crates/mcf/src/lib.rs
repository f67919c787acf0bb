//! # fatpaths-mcf
//!
//! Maximum-Achievable-Throughput (MAT) analysis of §VI: a Garg–Könemann
//! max-concurrent-flow solver over per-scheme candidate path sets, the
//! worst-case traffic generator, and the glue that reproduces Fig. 9.
//!
//! [`mat()`] takes each demand's candidate paths as a function of the
//! router pair, so this crate needs no routing scheme. Fig. 9 passes the
//! paths the packet simulator forwards on: FatPaths, SPAIN and PAST walk
//! their `fatpaths-core` port tables (`PortTables::paths`, one path per
//! layer); k-shortest paths passes Yen's paths (`k_shortest_paths`),
//! because Fig. 9 charges KSP with its k shortest paths rather than with
//! the layer tables `PortTables::ksp` builds from their union (see
//! [`mat`](mod@mat)).

pub mod gk;
pub mod mat;
pub mod worstcase;

pub use gk::{max_concurrent_flow, Commodity, McfResult};
pub use mat::{mat, router_demands, throughput_upper_bound, RouterDemand};
pub use worstcase::{worst_case_flows, worst_case_router_matching};
