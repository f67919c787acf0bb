//! # FatPaths
//!
//! A from-scratch Rust reproduction of **"FatPaths: Routing in
//! Supercomputers and Data Centers when Shortest Paths Fall Short"**
//! (Besta et al., ACM/IEEE Supercomputing 2020).
//!
//! FatPaths is a routing architecture for modern *low-diameter* topologies
//! (Slim Fly, Dragonfly, Jellyfish, Xpander, HyperX). Its insight: these
//! networks have almost no shortest-path diversity — usually exactly one
//! minimal path per router pair — but plenty of **"almost" minimal paths**
//! (one hop longer). FatPaths encodes that diversity in commodity
//! destination-based forwarding by splitting links into **layers**, routing
//! minimally *within* each layer, and balancing elastic **flowlets** across
//! layers, on top of an NDP-derived "purified" transport.
//!
//! ## The routing-scheme registry
//!
//! Every routing scheme — FatPaths layered routing *and* all the paper's
//! comparison baselines — implements the
//! [`RoutingScheme`](core::scheme::RoutingScheme) trait: per
//! `(layer, router, destination)` candidate output ports plus metadata.
//! The packet simulator is generic over the trait, so SPAIN, PAST,
//! k-shortest-paths, Valiant, ECMP-family, and layered routing all run
//! through the same event loop under identical transports and workloads
//! (the comparison §VII makes, now executable end to end). New schemes
//! plug in without touching the simulator.
//!
//! | Scheme | Adapter | Paths per pair |
//! |---|---|---|
//! | FatPaths layers | [`RoutingTables`](core::fwd::RoutingTables) | one per layer (non-minimal in sparse layers) |
//! | ECMP / spray / LetFlow | [`MinimalScheme`](core::scheme::MinimalScheme) | all minimal next hops |
//! | SPAIN | [`PortTables::spain`](core::fwd::PortTables::spain) | one per merged VLAN forest |
//! | PAST | [`PortTables::past`](core::fwd::PortTables::past) | exactly one (per-destination tree) |
//! | k shortest paths | [`PortTables::ksp`](core::fwd::PortTables::ksp) | one per path rank |
//! | Valiant (VLB) | [`ValiantScheme`](core::scheme::ValiantScheme) | one per intermediate |
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`net`] | graph model, topology generators, size classes, cost model, fault plans (seeded link-failure samplers + timed events) |
//! | [`diversity`] | path-diversity metrics: CDP, PI, TNL, collisions (§IV) |
//! | [`core`] | layered routing, forwarding tables, the [`RoutingScheme`](core::scheme::RoutingScheme) trait and every baseline adapter (§V–VI) |
//! | [`mcf`] | max-achievable-throughput solver over caller-supplied candidate paths (Fig. 9 passes the port tables' [`paths`](core::fwd::PortTables::paths), and Yen's paths for KSP), worst-case traffic (§VI) |
//! | [`workloads`] | traffic patterns, flow sizes, arrivals, mappings (§II-C) |
//! | [`fib`] | FIB compilation: per-switch prefix rules + ECMP groups, table budgets, and the [`CompiledScheme`](fib::CompiledScheme) adapter (§V-E) |
//! | [`sim`] | packet-level simulator (NDP + TCP/DCTCP), fluid model, and the [`Scenario`](sim::Scenario) builder (§VII) |
//! | [`telemetry`] | deterministic in-simulation telemetry: time-series probes, flow spans, NDJSON/CSV trace export, and the `fatpaths-trace` inspector |
//!
//! ## Quickstart
//!
//! Declare a scenario — topology, scheme, transport, workload, seed — and
//! run it:
//!
//! ```
//! use fatpaths::prelude::*;
//!
//! // A Slim Fly MMS(q=5) with 3 endpoints per router.
//! let topo = fatpaths::net::topo::slimfly::slim_fly(5, 3).unwrap();
//!
//! // An adversarial workload: all endpoints hit the same remote router.
//! let flows: Vec<FlowSpec> = (0..topo.num_endpoints() as u32 / 2)
//!     .map(|e| FlowSpec { src: e, dst: e + 75, size: 64 * 1024, start: 0 })
//!     .collect();
//!
//! // FatPaths layered routing over the purified transport.
//! let result = Scenario::on(&topo)
//!     .scheme(SchemeSpec::LayeredRandom { n_layers: 6, rho: 0.6 })
//!     .transport(Transport::Ndp)
//!     .workload(&flows)
//!     .seed(1)
//!     .run();
//! assert_eq!(result.completion_rate(), 1.0);
//!
//! // Swap a single line to simulate any baseline instead:
//! let spain = Scenario::on(&topo)
//!     .scheme(SchemeSpec::Spain { k_paths: 3 })
//!     .workload(&flows)
//!     .seed(1)
//!     .run();
//! assert_eq!(spain.completion_rate(), 1.0);
//! ```
//!
//! For full control (custom schemes, link failures), construct the
//! [`Simulator`](sim::Simulator) directly with any
//! [`RoutingScheme`](core::scheme::RoutingScheme) implementation.

pub use fatpaths_core as core;
pub use fatpaths_diversity as diversity;
pub use fatpaths_fib as fib;
pub use fatpaths_mcf as mcf;
pub use fatpaths_net as net;
pub use fatpaths_sim as sim;
pub use fatpaths_telemetry as telemetry;
pub use fatpaths_workloads as workloads;

/// One-stop imports for the common workflow.
pub mod prelude {
    pub use fatpaths_core::ecmp::DistanceMatrix;
    pub use fatpaths_core::fwd::{PortTables, RoutingTables};
    pub use fatpaths_core::interference_min::{build_interference_min_layers, ImConfig};
    pub use fatpaths_core::layers::{build_random_layers, LayerConfig, LayerSet};
    pub use fatpaths_core::past::PastVariant;
    pub use fatpaths_core::scheme::{
        KspConfig, MinimalScheme, PortSet, RoutingScheme, ValiantScheme,
    };
    pub use fatpaths_fib::{compile, CompileMode, CompiledScheme, TableBudget};
    pub use fatpaths_net::classes::{build, SizeClass};
    pub use fatpaths_net::fault::{FaultModel, FaultPlan};
    pub use fatpaths_net::topo::{TopoKind, Topology};
    pub use fatpaths_sim::{
        BuiltScheme, LoadBalancing, Scenario, SchemeSpec, SimConfig, SimResult, Simulator,
        TcpVariant, TelemetryConfig, Trace, Transport,
    };
    pub use fatpaths_workloads::arrivals::FlowSpec;
    pub use fatpaths_workloads::patterns::Pattern;
    pub use fatpaths_workloads::sizes::FlowSizeDist;
}
