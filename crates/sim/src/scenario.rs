//! Declarative experiment configuration: a [`SchemeSpec`] names any
//! routing scheme the paper compares, [`Scenario`] wires it to a
//! topology, transport, load balancer, workload, and seed, and `run()`
//! produces a [`SimResult`] — one fluent path from "what to simulate" to
//! numbers:
//!
//! ```
//! use fatpaths_net::topo::slimfly::slim_fly;
//! use fatpaths_sim::{Scenario, SchemeSpec, Transport};
//! use fatpaths_workloads::arrivals::FlowSpec;
//!
//! let topo = slim_fly(5, 2).unwrap();
//! let flows = [FlowSpec { src: 0, dst: 55, size: 64 * 1024, start: 0 }];
//! let result = Scenario::on(&topo)
//!     .scheme(SchemeSpec::LayeredRandom { n_layers: 4, rho: 0.6 })
//!     .transport(Transport::Ndp)
//!     .workload(&flows)
//!     .seed(7)
//!     .run();
//! assert_eq!(result.completion_rate(), 1.0);
//! ```
//!
//! Scheme construction (table builds, Yen's algorithm, …) dominates setup
//! cost, so it is split out: [`Scenario::build_scheme`] once, then
//! [`Scenario::run_with`] per workload/seed. [`BuiltScheme`] is an enum —
//! the hot-path port lookups dispatch statically through one `match`
//! instead of a vtable (the "thin enum shim"; `cargo bench` compares
//! both).

use crate::config::{AdaptiveMode, LoadBalancing, SimConfig, Transport};
use crate::engine::TimePs;
use crate::metrics::SimResult;
use crate::simulator::Simulator;
use fatpaths_core::ecmp::DistanceMatrix;
use fatpaths_core::fwd::{PortTables, RoutingTables};
use fatpaths_core::interference_min::{build_interference_min_layers, ImConfig};
use fatpaths_core::layers::{build_random_layers, LayerConfig, LayerSet};
use fatpaths_core::past::PastVariant;
use fatpaths_core::repair::{DownLinks, RouteRepair};
use fatpaths_core::scheme::{KspConfig, MinimalScheme, PortSet, RoutingScheme, ValiantScheme};
use fatpaths_core::spain::SpainConfig;
use fatpaths_fib::{CompileMode, CompiledScheme};
use fatpaths_net::fault::FaultPlan;
use fatpaths_net::graph::{Graph, RouterId};
use fatpaths_net::topo::Topology;
use fatpaths_te::{TeConfig, TeScheme};
use fatpaths_telemetry::{TelemetryConfig, Trace};
use fatpaths_workloads::arrivals::FlowSpec;

/// Declarative routing-scheme selection — every baseline of the paper's
/// comparison (§VI / §VII-A3), all simulatable through the same
/// [`RoutingScheme`] machinery.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SchemeSpec {
    /// FatPaths with random uniform edge-sampled layers (Listing 1).
    LayeredRandom {
        /// Total layers including the complete layer 0.
        n_layers: usize,
        /// Fraction of edges kept per sparse layer.
        rho: f64,
    },
    /// FatPaths with interference-minimizing layers (Listing 2).
    LayeredInterferenceMin {
        /// Total layers including the complete layer 0.
        n_layers: usize,
    },
    /// Single complete layer: minimal-path forwarding through the layered
    /// tables (the ρ=1 FatPaths baseline).
    LayeredMinimal,
    /// Minimal multipath port sets (the ECMP / packet-spray / LetFlow
    /// substrate; pick the balancer with [`Scenario::lb`]).
    Minimal,
    /// SPAIN's merged VLAN forests as layers.
    Spain {
        /// Trees (≈ disjoint paths) computed per destination.
        k_paths: usize,
    },
    /// PAST: one spanning tree per destination.
    Past {
        /// Tree construction (destination-rooted BFS, the only one).
        variant: PastVariant,
    },
    /// k-shortest-paths layers (Jellyfish-style).
    Ksp {
        /// Paths per pair.
        k: usize,
    },
    /// Valiant load balancing via per-(layer, destination) intermediates.
    Valiant {
        /// Selectable intermediates per destination.
        n_layers: usize,
    },
}

impl SchemeSpec {
    /// Stable label for CSV rows and logs.
    pub fn label(&self) -> String {
        match *self {
            SchemeSpec::LayeredRandom { n_layers, rho } => {
                format!("layered(n={n_layers},rho={rho})")
            }
            SchemeSpec::LayeredInterferenceMin { n_layers } => format!("layered_im(n={n_layers})"),
            SchemeSpec::LayeredMinimal => "layered_minimal".into(),
            SchemeSpec::Minimal => "minimal".into(),
            SchemeSpec::Spain { k_paths } => format!("spain(k={k_paths})"),
            SchemeSpec::Past { .. } => "past_bfs".into(),
            SchemeSpec::Ksp { k } => format!("ksp(k={k})"),
            SchemeSpec::Valiant { n_layers } => format!("valiant(n={n_layers})"),
        }
    }

    /// The load balancer this scheme pairs with unless overridden:
    /// flowlets-over-layers for every layered family, flow-hash ECMP for
    /// minimal/PAST (single candidate path sets leave nothing to spray).
    fn default_lb(&self) -> LoadBalancing {
        match self {
            SchemeSpec::Minimal | SchemeSpec::Past { .. } => LoadBalancing::EcmpFlow,
            _ => LoadBalancing::FatPathsLayers,
        }
    }
}

/// A constructed routing scheme, owned by the scenario run. The enum
/// gives the simulator's per-packet lookups static dispatch.
pub enum BuiltScheme<'a> {
    /// Layered forwarding tables (FatPaths random / interference-min /
    /// minimal-only).
    Layered(RoutingTables),
    /// Minimal multipath over a distance matrix.
    Minimal {
        /// The topology this was built for.
        topo: &'a Topology,
        /// All-pairs distances.
        dm: DistanceMatrix,
    },
    /// SPAIN forests, k-shortest-path layers or PAST per-destination
    /// trees, as bare port tables.
    Tables(PortTables),
    /// Valiant load balancing.
    Valiant(ValiantScheme<'a>),
    /// Layered tables specialized to the scenario's traffic matrix by
    /// negotiated-congestion TE ([`Scenario::traffic_engineered`]).
    Te(TeScheme),
    /// Any of the above, compiled to per-switch FIBs
    /// ([`Scenario::compiled`]): forwarding reads the compiled
    /// prefix-rule tables instead of the analytic scheme, so the run
    /// exercises exactly the state a switch would hold.
    Compiled(CompiledScheme<Box<dyn RoutingScheme + Send + Sync + 'a>>),
}

impl RoutingScheme for BuiltScheme<'_> {
    fn num_layers(&self) -> usize {
        match self {
            BuiltScheme::Layered(s) => RoutingScheme::num_layers(s),
            BuiltScheme::Minimal { .. } => 1,
            BuiltScheme::Tables(s) => RoutingScheme::num_layers(s),
            BuiltScheme::Valiant(s) => s.num_layers(),
            BuiltScheme::Te(s) => RoutingScheme::num_layers(s),
            BuiltScheme::Compiled(s) => s.num_layers(),
        }
    }

    fn tag_space(&self) -> usize {
        match self {
            BuiltScheme::Layered(s) => s.tag_space(),
            BuiltScheme::Minimal { topo, dm } => MinimalScheme::new(&topo.graph, dm).tag_space(),
            BuiltScheme::Tables(s) => s.tag_space(),
            BuiltScheme::Valiant(s) => s.tag_space(),
            BuiltScheme::Te(s) => s.tag_space(),
            BuiltScheme::Compiled(s) => s.tag_space(),
        }
    }

    fn candidate_ports(&self, layer: u8, at: RouterId, dst: RouterId) -> PortSet {
        match self {
            BuiltScheme::Layered(s) => s.candidate_ports(layer, at, dst),
            BuiltScheme::Minimal { topo, dm } => {
                MinimalScheme::new(&topo.graph, dm).candidate_ports(layer, at, dst)
            }
            BuiltScheme::Tables(s) => s.candidate_ports(layer, at, dst),
            BuiltScheme::Valiant(s) => s.candidate_ports(layer, at, dst),
            BuiltScheme::Te(s) => s.candidate_ports(layer, at, dst),
            BuiltScheme::Compiled(s) => s.candidate_ports(layer, at, dst),
        }
    }

    fn update_layer(&self, layer: u8, at: RouterId, dst: RouterId) -> u8 {
        match self {
            BuiltScheme::Layered(s) => s.update_layer(layer, at, dst),
            BuiltScheme::Minimal { topo, dm } => {
                MinimalScheme::new(&topo.graph, dm).update_layer(layer, at, dst)
            }
            BuiltScheme::Tables(s) => s.update_layer(layer, at, dst),
            BuiltScheme::Valiant(s) => s.update_layer(layer, at, dst),
            BuiltScheme::Te(s) => s.update_layer(layer, at, dst),
            BuiltScheme::Compiled(s) => s.update_layer(layer, at, dst),
        }
    }

    fn repair_routes(&self, base: &Graph, down: &DownLinks) -> RouteRepair {
        match self {
            BuiltScheme::Layered(s) => s.repair_routes(base, down),
            BuiltScheme::Minimal { topo, dm } => {
                MinimalScheme::new(&topo.graph, dm).repair_routes(base, down)
            }
            // The forest/tree/VLB baselines keep the trait default (no
            // repair): their published constructions are static, so
            // recovery stays end-to-end — exactly the deficiency §VI
            // measures.
            BuiltScheme::Tables(s) => s.repair_routes(base, down),
            BuiltScheme::Valiant(s) => s.repair_routes(base, down),
            BuiltScheme::Te(s) => s.repair_routes(base, down),
            BuiltScheme::Compiled(s) => RoutingScheme::repair_routes(s, base, down),
        }
    }
}

/// Fluent scenario configuration; see the module docs for the shape.
/// `Clone` supports sweeps: clone the scenario, vary one knob, and
/// [`run_with`](Scenario::run_with) a shared prebuilt scheme.
#[derive(Clone)]
pub struct Scenario<'a> {
    topo: &'a Topology,
    spec: SchemeSpec,
    /// The simulator settings the setters write; its `lb` is resolved by
    /// [`Scenario::sim_config`].
    cfg: SimConfig,
    /// The balancer override; `None` pairs the spec's default.
    lb: Option<LoadBalancing>,
    flows: Vec<FlowSpec>,
    faults: FaultPlan,
    compiled: Option<CompileMode>,
    te: Option<TeConfig>,
}

impl<'a> Scenario<'a> {
    /// Starts a scenario on `topo`. Defaults: FatPaths layered routing
    /// (9 layers, ρ = 0.6 — the paper's headline configuration), NDP
    /// transport, the spec's default balancer, seed 1, no horizon.
    pub fn on(topo: &'a Topology) -> Self {
        Scenario {
            topo,
            spec: SchemeSpec::LayeredRandom {
                n_layers: 9,
                rho: 0.6,
            },
            cfg: SimConfig::default(),
            lb: None,
            flows: Vec::new(),
            faults: FaultPlan::none(),
            compiled: None,
            te: None,
        }
    }

    /// Selects the routing scheme.
    pub fn scheme(mut self, spec: SchemeSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Selects the transport (NDP or a TCP variant).
    pub fn transport(mut self, transport: Transport) -> Self {
        self.cfg.transport = transport;
        self
    }

    /// Overrides the load balancer (default: flowlets over layers for
    /// every layered family, flow-hash ECMP for minimal and PAST).
    ///
    /// Note: [`LoadBalancing::FatPathsLayers`] on a single-layer scheme
    /// (e.g. [`SchemeSpec::Minimal`] or [`SchemeSpec::Past`]) is not an
    /// error but degenerates to static per-flow routing — flowlet
    /// re-picks always land on layer 0 and the ECMP nonce is never
    /// re-rolled. Pick `LetFlow` for flowlet behavior on minimal paths.
    pub fn lb(mut self, lb: LoadBalancing) -> Self {
        self.lb = Some(lb);
        self
    }

    /// Sets the flowlet-boundary path selection policy (default:
    /// [`AdaptiveMode::Oblivious`], the paper's hash-based re-pick).
    /// [`AdaptiveMode::QueueDepth`] makes boundaries CONGA/LetFlow-style
    /// congestion-aware: the sender steers each new flowlet to the
    /// least-loaded candidate as seen in its attachment router's live
    /// queue depths. Composes with [`Scenario::traffic_engineered`] and
    /// [`Scenario::compiled`]; a no-op under
    /// [`LoadBalancing::PacketSpray`], which has no flowlet decision.
    pub fn adaptive(mut self, mode: AdaptiveMode) -> Self {
        self.cfg.adaptive = mode;
        self
    }

    /// Sets the seed for scheme construction (layer sampling, SPAIN/PAST
    /// tree randomization, Valiant intermediates). The packet simulator
    /// itself is hash-driven and fully deterministic: for a fixed scheme
    /// and workload, the seed does not add simulation noise (it is still
    /// recorded in [`SimConfig::seed`] for provenance).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Stops simulating at `horizon` ps even if flows remain (0 = off).
    pub fn horizon(mut self, horizon: TimePs) -> Self {
        self.cfg.horizon = horizon;
        self
    }

    /// Appends flows to inject (call repeatedly to merge workloads).
    pub fn workload(mut self, flows: &[FlowSpec]) -> Self {
        self.flows.extend_from_slice(flows);
        self
    }

    /// Installs a [`FaultPlan`]: static link and whole-router failures
    /// plus timed `LinkDown`/`LinkUp`/`RouterDown`/`RouterUp` events
    /// (e.g. the [`FaultPlan::rolling_reboot`] and
    /// [`FaultPlan::rolling_domain_reboot`] churn schedules); one dead
    /// link before the run (§V-G) is `FaultPlan::none().fail(u, v)`.
    /// Merges with any plan installed before.
    ///
    /// Whole-router failures filter the workload: a flow whose source or
    /// destination endpoint sits behind a dead router at its start time
    /// is never injected and is accounted `host_dead` in the
    /// [`SimResult`] — separate from `unroutable` (live hosts that the
    /// degraded network cannot connect) and excluded from
    /// [`SimResult::completion_rate`]'s denominator.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults.merge(&plan);
        self
    }

    /// Enables fault detection: the routing scheme repairs itself (via
    /// [`RoutingScheme::repair_routes`]) this long after every
    /// link-state change. Without it (the default), failures are never
    /// detected and recovery is purely end-to-end.
    pub fn detection_delay(mut self, delay: TimePs) -> Self {
        self.cfg.detection_delay = Some(delay);
        self
    }

    /// Compiles the built scheme into per-switch FIBs and simulates on
    /// them: [`Scenario::build_scheme`] wraps the analytic scheme in a
    /// [`CompiledScheme`], so every per-packet port lookup reads the
    /// compiled prefix-rule tables — exactly the state a switch would
    /// hold (byte-identical results to the analytic run, pinned by the
    /// `compiled_parity` suite; use
    /// [`fatpaths_fib::compile()`] directly for the table statistics).
    pub fn compiled(mut self, mode: CompileMode) -> Self {
        self.compiled = Some(mode);
        self
    }

    /// Specializes the layered tables to this scenario's workload with
    /// negotiated-congestion traffic engineering (`fatpaths_te`):
    /// [`Scenario::build_scheme`] aggregates the workload's flows into a
    /// router traffic matrix and runs [`TeScheme::negotiate`] over the
    /// static tables, so per-packet forwarding (and route repair, which
    /// rebuilds broken trees under the negotiated prices) reads the
    /// negotiated tables. Composes with
    /// [`Scenario::compiled`] — the TE tables are what gets compiled.
    ///
    /// Only meaningful for layered specs; [`Scenario::build_scheme`]
    /// panics if the spec does not build [`BuiltScheme::Layered`].
    pub fn traffic_engineered(mut self, cfg: TeConfig) -> Self {
        self.te = Some(cfg);
        self
    }

    /// Sets the number of event-loop shards for intra-simulation
    /// parallelism (0 = resolve from `FATPATHS_SHARDS`, then 1; see
    /// [`SimConfig::shards`]). Results are bit-identical for any value.
    pub fn shards(mut self, k: u32) -> Self {
        self.cfg.shards = k;
        self
    }

    /// Enables in-simulation telemetry (time-series probes and sampled
    /// flow spans; see [`TelemetryConfig`]). Off by default. Retrieve
    /// the collected [`Trace`] with [`Scenario::run_traced`] — a plain
    /// [`Scenario::run`] with telemetry set still pays the collection
    /// cost but discards the trace.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.cfg.telemetry = cfg;
        self
    }

    /// The spec's label (for CSV rows), with an `+adapt` suffix under
    /// queue-depth-adaptive flowlet re-picks, a `+te` suffix when the
    /// tables are traffic-engineered and a `+fib` suffix when the
    /// scenario simulates on compiled FIBs.
    pub fn label(&self) -> String {
        let mut label = self.spec.label();
        if self.cfg.adaptive == AdaptiveMode::QueueDepth {
            label.push_str("+adapt");
        }
        if self.te.is_some() {
            label.push_str("+te");
        }
        match self.compiled {
            Some(mode) => format!("{label}+fib({})", mode.label()),
            None => label,
        }
    }

    /// Constructs the routing scheme — the expensive step, split out so
    /// sweeps can reuse it via [`Scenario::run_with`].
    pub fn build_scheme(&self) -> BuiltScheme<'a> {
        let analytic = self.apply_te(self.build_analytic());
        match self.compiled {
            None => analytic,
            Some(mode) => {
                let inner: Box<dyn RoutingScheme + Send + Sync + 'a> = Box::new(analytic);
                BuiltScheme::Compiled(CompiledScheme::compile(self.topo, inner, mode))
            }
        }
    }

    /// Applies [`Scenario::traffic_engineered`]: negotiates the static
    /// layered tables against the router traffic matrix of this
    /// scenario's workload.
    fn apply_te(&self, analytic: BuiltScheme<'a>) -> BuiltScheme<'a> {
        let Some(cfg) = self.te else {
            return analytic;
        };
        let BuiltScheme::Layered(rt) = analytic else {
            panic!("traffic_engineered requires a layered scheme spec");
        };
        let pairs: Vec<(u32, u32)> = self.flows.iter().map(|f| (f.src, f.dst)).collect();
        let demands = fatpaths_te::endpoint_demands(self.topo, &pairs);
        BuiltScheme::Te(TeScheme::negotiate(&self.topo.graph, &rt, &demands, &cfg))
    }

    /// Constructs the analytic (uncompiled) scheme for the spec.
    fn build_analytic(&self) -> BuiltScheme<'a> {
        let g = &self.topo.graph;
        match self.spec {
            SchemeSpec::LayeredRandom { n_layers, rho } => {
                let ls = build_random_layers(g, &LayerConfig::new(n_layers, rho, self.cfg.seed));
                BuiltScheme::Layered(RoutingTables::build(g, &ls))
            }
            SchemeSpec::LayeredInterferenceMin { n_layers } => {
                let ls = build_interference_min_layers(
                    g,
                    &ImConfig {
                        n_layers,
                        seed: self.cfg.seed,
                    },
                );
                BuiltScheme::Layered(RoutingTables::build(g, &ls))
            }
            SchemeSpec::LayeredMinimal => {
                BuiltScheme::Layered(RoutingTables::build(g, &LayerSet::minimal_only(g)))
            }
            SchemeSpec::Minimal => BuiltScheme::Minimal {
                topo: self.topo,
                dm: DistanceMatrix::build(g),
            },
            SchemeSpec::Spain { k_paths } => BuiltScheme::Tables(PortTables::spain(
                g,
                &SpainConfig {
                    k_paths,
                    seed: self.cfg.seed,
                    ..SpainConfig::default()
                },
            )),
            SchemeSpec::Past { .. } => BuiltScheme::Tables(PortTables::past(g, self.cfg.seed)),
            SchemeSpec::Ksp { k } => BuiltScheme::Tables(PortTables::ksp(
                g,
                &KspConfig {
                    k,
                    ..KspConfig::default()
                },
            )),
            SchemeSpec::Valiant { n_layers } => {
                BuiltScheme::Valiant(ValiantScheme::build(g, n_layers, self.cfg.seed))
            }
        }
    }

    /// The simulator configuration this scenario resolves to.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig {
            lb: self.lb.unwrap_or_else(|| self.spec.default_lb()),
            ..self.cfg
        }
    }

    /// Builds the scheme and runs the scenario.
    pub fn run(self) -> SimResult {
        let scheme = self.build_scheme();
        self.run_with(&scheme)
    }

    /// Constructs the simulator with this scenario's config and fault
    /// plan applied — the single wiring point every run path shares.
    fn make_sim<'s>(&'s self, scheme: &'s BuiltScheme<'a>) -> Simulator<'s, BuiltScheme<'a>> {
        let mut sim = Simulator::new(self.topo, scheme, self.sim_config());
        sim.apply_fault_plan(&self.faults);
        sim
    }

    /// Runs against a previously [built](Scenario::build_scheme) scheme.
    pub fn run_with(&self, scheme: &BuiltScheme<'a>) -> SimResult {
        let mut sim = self.make_sim(scheme);
        sim.add_flows(&self.flows);
        sim.run()
    }

    /// Builds the scheme and runs with telemetry collection, returning
    /// the result and the merged [`Trace`]. Uses the config set via
    /// [`Scenario::telemetry`], force-enabled: when none was set, the
    /// defaults ([`TelemetryConfig::on`] with this scenario's seed)
    /// apply.
    pub fn run_traced(mut self) -> (SimResult, Trace) {
        if !self.cfg.telemetry.enabled {
            self.cfg.telemetry = TelemetryConfig {
                seed: self.cfg.seed,
                ..TelemetryConfig::on()
            };
        }
        let scheme = self.build_scheme();
        let mut sim = self.make_sim(&scheme);
        sim.add_flows(&self.flows);
        let (result, trace) = sim.run_traced();
        (result, trace.expect("telemetry was enabled"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatpaths_net::topo::slimfly::slim_fly;

    fn flows(n: u64, offset: u64) -> Vec<FlowSpec> {
        (0..n)
            .map(|e| FlowSpec {
                src: e as u32,
                dst: ((e + offset) % n) as u32,
                size: 64 * 1024,
                start: 0,
            })
            .collect()
    }

    #[test]
    fn every_spec_runs_to_completion() {
        let topo = slim_fly(5, 2).unwrap();
        let w = flows(topo.num_endpoints() as u64, 21);
        for spec in [
            SchemeSpec::LayeredRandom {
                n_layers: 4,
                rho: 0.6,
            },
            SchemeSpec::LayeredMinimal,
            SchemeSpec::Minimal,
            SchemeSpec::Spain { k_paths: 2 },
            SchemeSpec::Past {
                variant: PastVariant::Bfs,
            },
            SchemeSpec::Ksp { k: 3 },
            SchemeSpec::Valiant { n_layers: 4 },
        ] {
            let res = Scenario::on(&topo).scheme(spec).workload(&w).seed(2).run();
            assert_eq!(
                res.completion_rate(),
                1.0,
                "{} did not complete",
                spec.label()
            );
        }
    }

    #[test]
    fn builder_matches_manual_construction() {
        let topo = slim_fly(5, 2).unwrap();
        let w = flows(topo.num_endpoints() as u64, 13);
        let via_builder = Scenario::on(&topo)
            .scheme(SchemeSpec::LayeredRandom {
                n_layers: 4,
                rho: 0.6,
            })
            .workload(&w)
            .seed(5)
            .run();
        // Manual: same layers, tables, config.
        let ls = build_random_layers(&topo.graph, &LayerConfig::new(4, 0.6, 5));
        let rt = RoutingTables::build(&topo.graph, &ls);
        let cfg = SimConfig {
            lb: LoadBalancing::FatPathsLayers,
            seed: 5,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&topo, &rt, cfg);
        sim.add_flows(&w);
        let manual = sim.run();
        assert_eq!(via_builder.end_time, manual.end_time);
        let fb: Vec<_> = via_builder.flows.iter().map(|f| f.finish).collect();
        let fm: Vec<_> = manual.flows.iter().map(|f| f.finish).collect();
        assert_eq!(fb, fm);
    }

    #[test]
    fn scheme_reuse_across_runs_is_deterministic() {
        let topo = slim_fly(5, 2).unwrap();
        let w = flows(topo.num_endpoints() as u64, 7);
        let sc = Scenario::on(&topo)
            .scheme(SchemeSpec::Valiant { n_layers: 3 })
            .workload(&w)
            .seed(3);
        let scheme = sc.build_scheme();
        let a = sc.run_with(&scheme);
        let b = sc.run_with(&scheme);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.trims, b.trims);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            SchemeSpec::LayeredRandom {
                n_layers: 9,
                rho: 0.6
            }
            .label(),
            "layered(n=9,rho=0.6)"
        );
        assert_eq!(SchemeSpec::Ksp { k: 4 }.label(), "ksp(k=4)");
        assert_eq!(SchemeSpec::Minimal.default_lb(), LoadBalancing::EcmpFlow);
    }
}
