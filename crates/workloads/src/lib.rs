//! # fatpaths-workloads
//!
//! Workload model of the FatPaths evaluation (§II-C, §VII-A4):
//!
//! * [`patterns`] — the traffic patterns (uniform, permutation,
//!   off-diagonal, shuffle, stencil, multi-permutation, adversarial);
//! * [`matrices`] — topology-aware adversarial matrices (worst-case
//!   permutation, heavy-hitter skew) for the TE sweep;
//! * [`sizes`] — the 20-point web-search-like flow-size distribution
//!   (mean 1 MiB on [32 KiB, 2 MiB]);
//! * [`arrivals`] — Poisson flow arrivals and bulk-synchronous phases;
//! * [`mapping`] — randomized workload mapping (§III-D);
//! * [`stencil`] — the bulk-synchronous stencil + barrier workload
//!   (Fig. 17).

pub mod arrivals;
pub mod mapping;
pub mod matrices;
pub mod patterns;
pub mod sizes;
pub mod stencil;

pub use arrivals::{bulk_flows, poisson_flows, FlowSpec, TimePs};
pub use mapping::{apply_mapping, random_mapping};
pub use matrices::{matrix_flows, MatrixSpec};
pub use patterns::{adversarial_for, Pattern};
pub use sizes::{FlowSizeDist, KIB, MIB};
pub use stencil::StencilWorkload;
