//! # fatpaths-sim
//!
//! Packet-level discrete-event network simulator (the htsim/OMNeT++ role in
//! the paper's evaluation, §VII-A6) plus a flow-level fluid simulator for
//! huge-scale runs:
//!
//! * [`engine`] — deterministic event queue and packet slab;
//! * [`config`] — §VII-A6 constants (9 KB jumbo / 8-pkt windows for NDP,
//!   100-pkt queues / ECN@33 / 200 µs min-RTO for TCP, 50 µs flowlets);
//! * [`simulator`] — ports, queues (trim+priority / taildrop+ECN), links,
//!   routing and load balancing (ECMP, spraying, LetFlow, FatPaths layers);
//! * `ndp` (internal) — the purified receiver-driven transport (§III-C);
//! * `tcp` (internal) — Reno and DCTCP (§VIII-A);
//! * [`fluid`] — max-min fluid model (Fig. 13 at 1M endpoints);
//! * [`metrics`] — FCT/throughput statistics;
//! * [`sweep`] — [`SweepRunner`]: deterministic parallel execution of
//!   scenario grids (bit-identical output for any thread count);
//! * [`scenario`] — the [`Scenario`]/[`SchemeSpec`] builder: declare a
//!   topology + routing scheme + transport + workload, get a
//!   [`SimResult`]. The [`Simulator`] itself is generic over any
//!   [`RoutingScheme`], so every baseline (layered, ECMP-family, SPAIN,
//!   PAST, k-shortest-paths, Valiant) is simulatable, not just scored.

pub mod config;
pub mod engine;
mod faults;
pub mod fluid;
pub mod metrics;
mod ndp;
pub mod queueing;
pub mod scenario;
mod shard;
pub mod simulator;
pub mod sweep;
mod tcp;

pub use config::{AdaptiveMode, LoadBalancing, SimConfig, TcpVariant, Transport, HDR_BYTES};
pub use engine::{least_loaded, TimePs};
pub use fatpaths_core::repair::{DownLinks, RouteRepair};
pub use fatpaths_core::scheme::{PortSet, RoutingScheme};
pub use fatpaths_fib::{CompileMode, CompiledScheme, Fib, FibStats, TableBudget};
pub use fatpaths_net::fault::{FaultModel, FaultPlan};
pub use fatpaths_te::{TeConfig, TeScheme};
pub use fatpaths_telemetry::{SpanEvent, SpanKind, TelemetryConfig, Trace, TraceMeta};
pub use metrics::{
    histogram, mean, peak_rss_kb, percentile, reset_peak_rss, throughput_by_size, EventCounts,
    FlowRecord, HistogramResult, RepairTickRecord, RunProfile, SimResult, Summary,
};
pub use scenario::{BuiltScheme, Scenario, SchemeSpec};
pub use shard::partition_routers;
pub use simulator::Simulator;
pub use sweep::{cell_seed, coord_str, Grid, GridResults, SweepRunner};
