//! The packet-level simulator: public facade over the sharded execution
//! core (`crate::shard`). Endpoint transport logic lives in the
//! crate-internal `ndp` and `tcp` modules.
//!
//! Model (matching htsim's structure, §VII-A6): every link is an output
//! port with a serializer and a queue; packets are store-and-forward;
//! each link adds a fixed latency. Endpoints hang off dedicated access
//! links of the same rate. NDP mode uses shallow data queues with payload
//! trimming and a priority queue for control/trimmed/retransmitted
//! packets; TCP mode uses 100-packet tail-drop queues with ECN marking.
//!
//! Execution: routers and endpoints are partitioned into K shards
//! ([`SimConfig::shards`] / `FATPATHS_SHARDS`), each with its own event
//! queue and packet arena, stepped in conservative-lookahead windows on
//! the in-tree rayon pool and exchanging boundary packets through
//! deterministically merged mailboxes. Fault state is shared, not
//! replicated: a single `crate::faults::FaultWriter` replays the fault
//! plan once at run start and publishes a timeline of copy-on-write
//! epoch snapshots the shards read by time. Results are
//! **bit-identical for every K and every thread count** — see
//! `crate::shard` for the ordering contract. K = 1 (the default) runs
//! the same windowed loop on a single queue.

use crate::config::{SimConfig, Transport, HDR_BYTES};
use crate::engine::{assert_schedulable, EvKind, Fifo, TimePs};
use crate::faults::{FaultTimeline, FaultWriter};
use crate::metrics::{peak_rss_kb, reset_peak_rss, FlowRecord, RunProfile, SimResult};
use crate::ndp::INITIAL_WINDOW;
use crate::shard::{
    deliver_mailboxes, partition_routers, Ctx, FlowMeta, Port, RxFlow, Shard, SlotRef, TcpState,
    TxFlow,
};
use fatpaths_core::fwd::fnv1a;
use fatpaths_core::scheme::RoutingScheme;
use fatpaths_net::fault::{Change, FaultPlan};
use fatpaths_net::topo::Topology;
use fatpaths_telemetry::{
    MailboxSample, RepairSample, ShardTelemetry, Trace, TraceMeta, INTERVAL_PS,
};
use fatpaths_workloads::arrivals::FlowSpec;
use rayon::prelude::*;

/// The packet-level simulator. Construct with [`Simulator::new`], inject
/// flows, and [`Simulator::run`].
///
/// Generic over the routing scheme: the default type parameter is a trait
/// object (`&dyn RoutingScheme`), so `Simulator<'_>` works with any scheme
/// behind dynamic dispatch; naming a concrete scheme type
/// (`Simulator<'_, RoutingTables>`) monomorphizes the per-packet routing
/// call instead (see `crates/bench/benches/simulator.rs` for the measured
/// difference).
pub struct Simulator<'a, R: RoutingScheme + ?Sized = dyn RoutingScheme + 'a> {
    pub(crate) topo: &'a Topology,
    pub(crate) scheme: &'a R,
    pub(crate) cfg: SimConfig,
    /// Immutable per-flow facts, indexed by flow id.
    meta: Vec<FlowMeta>,
    /// Flow id → sender-half home (shard of the source router).
    tx_home: Vec<SlotRef>,
    /// Flow id → receiver-half home (shard of the destination router).
    rx_home: Vec<SlotRef>,
    net_base: Vec<u32>,
    down_base: Vec<u32>,
    up_base: u32,
    /// Global port id → owning shard + local index.
    port_home: Vec<SlotRef>,
    /// Endpoint id → owning shard + local pull-queue index.
    ep_home: Vec<SlotRef>,
    /// Endpoint id → attached router (flat per-hop routing lookup; see
    /// `Ctx::ep_router`).
    ep_router: Vec<u32>,
    /// Router id → owning shard.
    router_shard: Vec<u32>,
    /// The single owner of the fault state (one copy for all shards).
    faults: FaultWriter,
    pub(crate) shards: Vec<Shard>,
}

impl<'a, R: RoutingScheme + ?Sized> Simulator<'a, R> {
    /// Builds the network state for `topo` routed by `scheme`,
    /// partitioned into [`SimConfig::shards`] regions (resolved against
    /// the `FATPATHS_SHARDS` environment variable when 0, clamped to
    /// the router count).
    pub fn new(topo: &'a Topology, scheme: &'a R, cfg: SimConfig) -> Self {
        assert!(
            scheme.num_layers() >= 1,
            "scheme must expose at least one layer"
        );
        let nr = topo.num_routers();
        let ne = topo.num_endpoints();
        let router_shard = partition_routers(topo, cfg.resolved_shards());
        // Shard count = highest shard actually used: a coarse domain
        // walk may occupy fewer shards than requested.
        let k = router_shard
            .iter()
            .map(|&s| s as usize + 1)
            .max()
            .unwrap_or(1);
        // A boundary packet lands at most one window (the lookahead) +
        // serialization + latency past the window base.
        let full = cfg.ser_time(cfg.transport.payload() + HDR_BYTES);
        let max_dt = 2 * cfg.link_latency.max(1) as u128 + full as u128;
        assert!(
            k == 1 || max_dt <= u32::MAX as u128,
            "link latency {} ps is beyond the sharded limit: 2 x latency + one full packet's \
             serialization ({max_dt} ps) must fit the u32 mailbox time delta of {} ps",
            cfg.link_latency,
            u32::MAX
        );

        // Global port layout (identical to the pre-shard simulator): per
        // router its net ports in graph-neighbor order then its endpoint
        // down-ports, then all endpoint NIC up-ports. Each port is owned
        // by its router's (resp. endpoint's router's) shard.
        let n_ports_total = {
            let mut n = 0usize;
            for r in 0..nr as u32 {
                n += topo.graph.neighbors(r).len() + topo.router_endpoints(r).len();
            }
            n + ne
        };
        let mut shards: Vec<Shard> = (0..k as u32).map(|i| Shard::new(i, k)).collect();
        // Pre-size each shard's port and pull-queue arrays from local
        // counts: one allocation each instead of doubling growth (at
        // fat-tree scale the port array is the largest static vector).
        {
            let mut nports = vec![0usize; k];
            let mut neps = vec![0usize; k];
            for r in 0..nr as u32 {
                let s = router_shard[r as usize] as usize;
                nports[s] += topo.graph.neighbors(r).len() + topo.router_endpoints(r).len();
            }
            for e in 0..ne as u32 {
                let s = router_shard[topo.endpoint_router(e) as usize] as usize;
                nports[s] += 1;
                neps[s] += 1;
            }
            for (i, sh) in shards.iter_mut().enumerate() {
                sh.ports.reserve_exact(nports[i]);
                sh.pulls.reserve_exact(neps[i]);
                sh.pull_ready.reserve_exact(neps[i]);
            }
        }
        let mut port_home = Vec::with_capacity(n_ports_total);
        let mut net_base = Vec::with_capacity(nr);
        let mut down_base = Vec::with_capacity(nr);
        fn push_port(shards: &mut [Shard], port_home: &mut Vec<SlotRef>, shard: u32, p: Port) {
            let sh = &mut shards[shard as usize];
            port_home.push(SlotRef::new(shard, sh.ports.len() as u32));
            sh.ports.push(p);
        }
        for r in 0..nr as u32 {
            let shard = router_shard[r as usize];
            net_base.push(port_home.len() as u32);
            for &nb in topo.graph.neighbors(r) {
                push_port(&mut shards, &mut port_home, shard, Port::new(true, nb));
            }
            down_base.push(port_home.len() as u32);
            for e in topo.router_endpoints(r) {
                push_port(&mut shards, &mut port_home, shard, Port::new(false, e));
            }
        }
        let up_base = port_home.len() as u32;
        let mut ep_home = Vec::with_capacity(ne);
        let mut ep_router = Vec::with_capacity(ne);
        for e in 0..ne as u32 {
            let r = topo.endpoint_router(e);
            ep_router.push(r);
            let shard = router_shard[r as usize];
            push_port(&mut shards, &mut port_home, shard, Port::new(true, r));
            let sh = &mut shards[shard as usize];
            ep_home.push(SlotRef::new(shard, sh.pulls.len() as u32));
            sh.pulls.push(Fifo::default());
            sh.pull_ready.push(0);
        }
        Simulator {
            topo,
            scheme,
            cfg,
            meta: Vec::new(),
            tx_home: Vec::new(),
            rx_home: Vec::new(),
            net_base,
            down_base,
            up_base,
            port_home,
            ep_home,
            ep_router,
            router_shard,
            faults: FaultWriter::new(n_ports_total, nr),
            shards,
        }
    }

    /// Builds the shared read-only context and hands it to `f` together
    /// with the shards — the split-borrow point every execution path
    /// goes through.
    pub(crate) fn with_parts<T>(
        &mut self,
        faults: &FaultTimeline,
        f: impl FnOnce(&Ctx<'_, R>, &mut [Shard]) -> T,
    ) -> T {
        let cx = Ctx {
            topo: self.topo,
            scheme: self.scheme,
            cfg: self.cfg,
            meta: &self.meta,
            tx_home: &self.tx_home,
            rx_home: &self.rx_home,
            net_base: &self.net_base,
            down_base: &self.down_base,
            up_base: self.up_base,
            port_home: &self.port_home,
            ep_home: &self.ep_home,
            ep_router: &self.ep_router,
            router_shard: &self.router_shard,
            n_layers: self.scheme.num_layers(),
            faults,
        };
        f(&cx, &mut self.shards)
    }

    /// Applies a [`FaultPlan`]: static link and router failures take
    /// effect immediately, timed events are scheduled, and — when
    /// [`SimConfig::detection_delay`] is set — a repair of the routing
    /// state is scheduled one delay after each change (batched: any
    /// number of simultaneous changes trigger exactly one repair pass).
    /// Packets forwarded onto a dead link are lost; without a detection
    /// delay, recovery happens end-to-end (§V-G): senders re-pick a layer
    /// on retransmission timeout, so preprovisioned alternate layers
    /// carry the affected flows around the failure.
    ///
    /// The fault state lives once, in the writer, which replays the
    /// timed events at run start into the timeline every shard reads by
    /// time (see `crate::faults`).
    ///
    /// # Panics
    ///
    /// If an event names a router the topology does not have or a link
    /// that is not one of its router-router links (the message names the
    /// event's kind, time and ids), or if a timed event, or the repair
    /// one detection delay after it, lies at or beyond 2^55 ps (the
    /// bound on scheduled times; the event queue's timestamps are 56
    /// bits wide).
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        let lag = self.cfg.detection_delay.unwrap_or(0);
        assert_schedulable(lag, "detection delay");
        let nr = self.topo.num_routers();
        let graph = &self.topo.graph;
        let check_link = |kind: &str, at: TimePs, u: u32, v: u32| {
            assert!(
                (u as usize) < nr && graph.has_edge(u, v),
                "{kind} at {at} ps names link {u}-{v}, which is not a router-router link"
            );
            assert_schedulable(
                at.saturating_add(lag),
                "fault event time plus detection delay",
            );
        };
        let check_router = |kind: &str, at: TimePs, r: u32| {
            assert!(
                (r as usize) < nr,
                "{kind} at {at} ps names router {r}, but the topology has {nr} routers"
            );
            assert_schedulable(
                at.saturating_add(lag),
                "fault event time plus detection delay",
            );
        };
        for &(u, v) in plan.static_failures() {
            check_link("static link failure", 0, u, v);
        }
        for &r in plan.static_router_failures() {
            check_router("static router failure", 0, r);
        }
        for &(at, change) in plan.changes() {
            match change {
                Change::LinkDown(u, v) => check_link("LinkDown", at, u, v),
                Change::RouterDown(r) => check_router("RouterDown", at, r),
                Change::LinkUp(u, v) => check_link("LinkUp", at, u, v),
                Change::RouterUp(r) => check_router("RouterUp", at, r),
            }
        }
        self.faults.apply_plan(self.topo, &self.net_base, plan);
    }

    /// True iff router `r` is currently dead in the writer's working
    /// state (statics applied immediately; timed events at run start).
    pub fn router_is_dead(&self, r: u32) -> bool {
        self.faults.router_is_dead(r)
    }

    /// True iff link `{u, v}` is currently down — failed in its own
    /// right or incident to a dead router.
    pub fn link_is_down(&self, u: u32, v: u32) -> bool {
        self.faults.link_is_down(u, v)
    }

    /// Registers a flow's halves on their home shards and schedules its
    /// start event on the sender's shard.
    fn push_flow(&mut self, m: FlowMeta, start: TimePs) -> u32 {
        assert_schedulable(start, "flow start time");
        let id = self.meta.len() as u32;
        let ts = self.router_shard[self.ep_router[m.src_ep as usize] as usize];
        let rs = self.router_shard[self.ep_router[m.dst_ep as usize] as usize];
        let tsh = &mut self.shards[ts as usize];
        self.tx_home.push(SlotRef::new(ts, tsh.tx.len() as u32));
        tsh.tx.push(TxFlow::new(&m));
        if matches!(self.cfg.transport, Transport::Tcp { .. }) {
            tsh.tcp.push(TcpState::new());
        }
        tsh.events.push(start, EvKind::FlowStart { flow: id });
        let rsh = &mut self.shards[rs as usize];
        self.rx_home.push(SlotRef::new(rs, rsh.rx.len() as u32));
        rsh.rx.push(RxFlow::new(&m));
        self.meta.push(m);
        id
    }

    /// Pre-sizes each shard's flow, event, and packet arenas from the
    /// incoming spec counts (one allocation instead of doubling growth
    /// through the hot loop). Packet arenas are sized per spec — a
    /// flow's in-flight data is bounded by `min(num_pkts, window)`, so
    /// short flows (the scale workloads) reserve a couple of slots, not
    /// a full window each.
    fn reserve_for(&mut self, specs: &[FlowSpec]) {
        let k = self.shards.len();
        let payload = self.cfg.transport.payload() as u64;
        let win_cap = match self.cfg.transport {
            Transport::Ndp => INITIAL_WINDOW as u64,
            Transport::Tcp { .. } => 4,
        };
        let mut ntx = vec![0usize; k];
        let mut nrx = vec![0usize; k];
        let mut npkt = vec![0usize; k];
        for spec in specs {
            let ts = self.router_shard[self.topo.endpoint_router(spec.src) as usize];
            let rs = self.router_shard[self.topo.endpoint_router(spec.dst) as usize];
            ntx[ts as usize] += 1;
            nrx[rs as usize] += 1;
            let num_pkts = spec.size.div_ceil(payload).max(1);
            npkt[ts as usize] += num_pkts.min(win_cap) as usize;
        }
        let tcp = matches!(self.cfg.transport, Transport::Tcp { .. });
        for (i, sh) in self.shards.iter_mut().enumerate() {
            sh.tx.reserve(ntx[i]);
            if tcp {
                sh.tcp.reserve(ntx[i]);
            }
            sh.rx.reserve(nrx[i]);
            // Event-slab baseline: the start-burst census of an
            // endpoint-owning shard — a start event per sender, an
            // event per windowed packet, and one more per sender: the
            // serializer turn its NIC schedules while packets wait
            // behind the head. Transit-heavy shards (no local flows) start
            // empty and grow in bounded exact steps (`EventQueue` never
            // doubles) toward their own high-water mark; sizing the
            // flow-owning shards up front matters because stepwise
            // growth during their burst, interleaved with the packet
            // arena's, fragments the heap at the process-wide memory
            // peak. The census errs high on purpose: capacity the
            // burst never touches is not resident.
            sh.events.reserve(2 * ntx[i] + npkt[i]);
            // Sender-side slabs hold roughly half the windowed packets
            // at once (the rest are in flight on transit shards or
            // already acked) plus the control packets local receivers
            // originate. Transit-heavy shards grow in bounded exact
            // steps instead — their peaks depend on routing, not on
            // flow ownership.
            sh.packets.reserve(npkt[i] / 2 + nrx[i]);
        }
        self.meta.reserve(specs.len());
        self.tx_home.reserve(specs.len());
        self.rx_home.reserve(specs.len());
    }

    /// Registers flows (any order); they start at their spec times, on
    /// layer 0.
    ///
    /// # Panics
    ///
    /// If a flow names an endpoint the topology does not have, or if a
    /// start time lies at or beyond 2^55 ps (the bound on scheduled
    /// times; the event queue's timestamps are 56 bits wide).
    pub fn add_flows(&mut self, specs: &[FlowSpec]) {
        let ne = self.topo.num_endpoints();
        for (i, spec) in specs.iter().enumerate() {
            let id = self.meta.len() + i;
            for (role, e) in [("source", spec.src), ("destination", spec.dst)] {
                assert!(
                    (e as usize) < ne,
                    "flow {id} names {role} endpoint {e}, but the topology has {ne} endpoints"
                );
            }
        }
        let payload = self.cfg.transport.payload();
        self.reserve_for(specs);
        for spec in specs {
            assert_ne!(spec.src, spec.dst, "self-flow");
            let id = self.meta.len() as u32;
            // Initial nonce: deterministic per flow.
            let m = FlowMeta::new(spec, payload, fnv1a(0x5151 ^ id as u64));
            self.push_flow(m, spec.start);
        }
    }

    /// Runs to completion (or the horizon) and returns per-flow records.
    ///
    /// The driver loop: finalize the fault timeline (the writer replays
    /// the fault events once and publishes the epoch snapshots), then
    /// find the earliest pending event across shards and the fault
    /// timeline, step every shard
    /// through the window `[t0, t0 + L)` (in parallel for K > 1 —
    /// lookahead `L` = link latency guarantees window independence),
    /// then deliver the cross-shard mailboxes in canonical `(time,
    /// src_shard, seq)` order. Terminates when every flow is resolved
    /// (completed, aborted, or host-dead), the queues drain, or the
    /// horizon passes.
    pub fn run(self) -> SimResult {
        self.run_traced().0
    }

    /// [`run`](Simulator::run), additionally returning the telemetry
    /// [`Trace`] when [`SimConfig::telemetry`] is enabled (`None`
    /// otherwise — the disabled path adds one `Option` check per wire
    /// start and nothing else to the hot loop).
    ///
    /// Collection is strictly shard-local: each shard accumulates into
    /// its own [`ShardTelemetry`], and the driver flushes interval rows
    /// *between* windows, where execution is serial and the interval
    /// boundary (`t0 / INTERVAL_PS`) is globally agreed. The merged
    /// trace is therefore byte-identical for every thread count at a
    /// fixed shard count. Events inside a window are attributed to the
    /// window's start interval, so the effective resolution is
    /// `max(INTERVAL_PS, lookahead)`. A window starts at the earliest
    /// pending event, so an engine change that adds or removes events —
    /// even ones that decide nothing — moves window boundaries and with
    /// them which interval a row lands in, at unchanged outcomes.
    ///
    /// # Panics
    ///
    /// If [`SimConfig::horizon`] lies at or beyond 2^55 ps (the bound on
    /// scheduled times; the event queue's timestamps are 56 bits wide).
    pub fn run_traced(mut self) -> (SimResult, Option<Trace>) {
        assert_schedulable(self.cfg.horizon, "horizon");
        reset_peak_rss();
        let total = self.meta.len();
        let timeline = self
            .faults
            .finalize(self.topo, &self.net_base, self.scheme, &self.cfg);
        let mut profile = RunProfile {
            shards: self.shards.len() as u32,
            epochs_published: timeline.epochs.len() as u64,
            ..RunProfile::default()
        };
        let tcfg = self.cfg.telemetry;
        if tcfg.enabled {
            // Local index → global port id, per shard: `push_port`
            // appends in ascending global order, so each table comes
            // out sorted by construction.
            let mut owned: Vec<Vec<u32>> = vec![Vec::new(); self.shards.len()];
            for (g, slot) in self.port_home.iter().enumerate() {
                owned[slot.shard() as usize].push(g as u32);
            }
            let nl = self.scheme.num_layers();
            for (sh, ports) in self.shards.iter_mut().zip(owned) {
                sh.tel = Some(Box::new(ShardTelemetry::new(tcfg, sh.id, ports, nl)));
            }
        }
        let mut mailbox_rows: Vec<MailboxSample> = Vec::new();
        self.with_parts(&timeline, |cx, shards| {
            let horizon = cx.cfg.horizon;
            let lookahead = cx.cfg.link_latency.max(1);
            let mut resolved_bits = vec![0u64; total.div_ceil(64)];
            let mut resolved = 0usize;
            // Telemetry interval bookkeeping — driven entirely from the
            // serial between-window section, never read across shards
            // mid-window.
            let mut cur_iv: u64 = 0;
            let mut mailbox = (0u64, 0u64);
            loop {
                for sh in shards.iter_mut() {
                    for f in sh.resolved.drain(..) {
                        let (w, b) = ((f / 64) as usize, f % 64);
                        if resolved_bits[w] >> b & 1 == 0 {
                            resolved_bits[w] |= 1 << b;
                            resolved += 1;
                        }
                    }
                }
                if total > 0 && resolved >= total {
                    break;
                }
                let (msgs, bytes) = deliver_mailboxes(shards);
                profile.mailbox_msgs += msgs;
                profile.mailbox_bytes += bytes;
                mailbox.0 += msgs;
                mailbox.1 += bytes;
                let next_fault = cx.faults.next_at(shards[0].fault_epoch);
                let queued = shards.iter_mut().filter_map(|s| s.events.peek_time());
                let Some(t0) = queued.chain(next_fault).min() else {
                    break;
                };
                if horizon > 0 && t0 > horizon {
                    break;
                }
                if tcfg.enabled {
                    let iv = t0 / INTERVAL_PS;
                    if iv > cur_iv {
                        flush_telemetry(cx, shards, cur_iv, &mut mailbox, &mut mailbox_rows);
                        cur_iv = iv;
                    }
                }
                profile.windows += 1;
                let w_end = t0.saturating_add(lookahead);
                for sh in shards.iter_mut() {
                    sh.window_base = t0;
                }
                // One chunk per shard; the pool runs a lone chunk inline.
                shards
                    .par_chunks_mut(1)
                    .for_each(|c| c[0].run_window(cx, w_end, horizon));
                for sh in shards.iter_mut() {
                    sh.events.shrink_excess();
                }
            }
            if tcfg.enabled {
                flush_telemetry(cx, shards, cur_iv, &mut mailbox, &mut mailbox_rows);
            }
        });
        // Harvest the collectors before the arenas are torn down.
        let collectors: Vec<ShardTelemetry> = self
            .shards
            .iter_mut()
            .filter_map(|sh| sh.tel.take().map(|b| *b))
            .collect();
        // Free the run-time arenas before assembling records: the
        // record vector must not stack on top of dead heap capacity.
        for sh in &mut self.shards {
            sh.release_arenas();
        }
        // Deterministic shard-merged assembly: per-flow records in flow-id
        // order, counters summed in shard order, repair log truncated to
        // the prefix of the shared timeline the run actually reached
        // (identical on every shard — window boundaries are global, so
        // every shard's cursor ends at the same epoch; debug-asserted).
        let flows = (0..total)
            .map(|i| {
                let m = &self.meta[i];
                let th = self.tx_home[i];
                let rh = self.rx_home[i];
                let tx = &self.shards[th.shard() as usize].tx[th.idx() as usize];
                let rx = &self.shards[rh.shard() as usize].rx[rh.idx() as usize];
                FlowRecord {
                    size: m.size,
                    start: m.start,
                    finish: rx.finish_time(),
                    retx: tx.retx_count,
                    trims: rx.trims,
                    host_dead: tx.host_dead,
                    // Completion wins over a post-delivery abort: if every
                    // byte arrived, the transfer succeeded.
                    aborted: tx.aborted && !rx.is_finished(),
                }
            })
            .collect();
        let end_time = self.shards.iter().map(|s| s.last_t).max().unwrap_or(0);
        let epoch = self.shards[0].fault_epoch;
        debug_assert!(
            self.shards.iter().all(|s| s.fault_epoch == epoch),
            "fault-epoch cursors diverged across shards"
        );
        let seen = timeline.epochs[epoch as usize].repairs as usize;
        profile.repair_ticks = seen as u64;
        for sh in &self.shards {
            profile.dispatched += sh.dispatched;
        }
        profile.events = profile.dispatched.total();
        profile.peak_rss_kb = peak_rss_kb();
        let trace = tcfg.enabled.then(|| {
            let repairs = timeline.log[..seen]
                .iter()
                .map(|r| RepairSample {
                    at: r.at,
                    rows: r.rows,
                    fib_rows: r.fib_rows,
                })
                .collect();
            Trace::assemble(
                TraceMeta {
                    shards: self.shards.len() as u32,
                    interval_ps: INTERVAL_PS,
                    span_every: tcfg.span_every,
                    seed: tcfg.seed,
                    end_time,
                    n_layers: self.scheme.num_layers() as u32,
                },
                collectors,
                mailbox_rows,
                repairs,
            )
        });
        let result = SimResult {
            flows,
            drops: self.shards.iter().map(|s| s.drops).sum(),
            trims: self.shards.iter().map(|s| s.trim_count).sum(),
            unroutable: self.shards.iter().map(|s| s.unroutable).sum(),
            end_time,
            repair_log: timeline.log[..seen].to_vec(),
            profile,
        };
        (result, trace)
    }
}

/// Closes telemetry interval `iv` on every shard: each collector samples
/// its own queue-depth histogram, pending events (its queue plus the
/// fault events still ahead of its cursor), and packet-slab occupancy,
/// and drains its per-link byte accumulators into rows. The interval's
/// boundary traffic `mailbox` (messages, bytes) becomes a row when any
/// message crossed, and restarts at zero. Runs only in the serial
/// between-window section of the driver loop.
fn flush_telemetry<R: ?Sized>(
    cx: &Ctx<'_, R>,
    shards: &mut [Shard],
    iv: u64,
    mailbox: &mut (u64, u64),
    rows: &mut Vec<MailboxSample>,
) {
    let (msgs, bytes) = std::mem::take(mailbox);
    if msgs != 0 {
        rows.push(MailboxSample { iv, msgs, bytes });
    }
    for sh in shards.iter_mut() {
        let pending_faults = sh.faults(cx).pending as u64;
        if let Some(mut tel) = sh.tel.take() {
            let ports = &sh.ports;
            tel.flush(
                iv,
                |l| ports[l as usize].depth(),
                sh.events.len() as u64 + pending_faults,
                sh.packets.live() as u64,
                sh.packets.capacity() as u64,
            );
            sh.tel = Some(tel);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatpaths_core::fwd::RoutingTables;
    use fatpaths_core::layers::LayerSet;
    use fatpaths_net::topo::slimfly::slim_fly;
    use std::sync::Arc;

    fn fixture() -> (Topology, RoutingTables) {
        let topo = slim_fly(5, 1).unwrap();
        let rt = RoutingTables::build(&topo.graph, &LayerSet::minimal_only(&topo.graph));
        (topo, rt)
    }

    /// Router death fails every incident link atomically; revival
    /// restores exactly the links whose other end is alive and that were
    /// not failed in their own right. (Driven directly on the fault
    /// writer — the single owner of this state machine.)
    #[test]
    fn router_death_and_revival_state_machine() {
        let (topo, rt) = fixture();
        let mut sim = Simulator::new(&topo, &rt, SimConfig::default().shards(1));
        let r = 7u32;
        let nbs = topo.graph.neighbors(r);
        let (cut, other_dead) = (nbs[0], nbs[1]);
        // An independent link failure on one incident link, plus a
        // second dead router adjacent to `r`.
        sim.faults.fail_link_now(&topo, &sim.net_base, r, cut);
        sim.faults
            .set_router_state(&topo, &sim.net_base, other_dead, false);
        sim.faults.set_router_state(&topo, &sim.net_base, r, false);
        assert!(sim.router_is_dead(r));
        for &nb in nbs {
            assert!(sim.link_is_down(r, nb), "incident link {r}-{nb} must die");
        }
        assert_eq!(
            sim.faults.down_count() as usize,
            sim.faults.down_links().len()
        );
        // Idempotent.
        let n_down = sim.faults.down_count();
        sim.faults.set_router_state(&topo, &sim.net_base, r, false);
        assert_eq!(sim.faults.down_count(), n_down);
        // Revival: every incident link returns except the independently
        // cut one and the one into the still-dead neighbor.
        sim.faults.set_router_state(&topo, &sim.net_base, r, true);
        assert!(!sim.router_is_dead(r));
        for &nb in nbs {
            let expect_down = nb == cut || nb == other_dead;
            assert_eq!(
                sim.link_is_down(r, nb),
                expect_down,
                "link {r}-{nb} after revival"
            );
        }
        // The independently cut link returns only by its own revival.
        sim.faults.restore_link_now(&topo, &sim.net_base, r, cut);
        assert!(!sim.link_is_down(r, cut));
    }

    /// A burst of simultaneous link-state changes coalesces into one
    /// repair pass (one repair epoch and one log record per event
    /// batch), and a later batch gets its own.
    #[test]
    fn repair_ticks_coalesce_per_batch() {
        let (topo, rt) = fixture();
        let cfg = SimConfig {
            detection_delay: Some(1_000_000),
            ..SimConfig::default()
        }
        .shards(1);
        let mut sim = Simulator::new(&topo, &rt, cfg);
        // A maintenance-window-sized burst: three routers die in the
        // same instant; two of them return together later.
        let plan = FaultPlan::none()
            .router_down_at(5_000, 3)
            .router_down_at(5_000, 9)
            .router_down_at(5_000, 14)
            .router_up_at(9_000, 3)
            .router_up_at(9_000, 9);
        sim.apply_fault_plan(&plan);
        let tl = sim
            .faults
            .finalize(sim.topo, &sim.net_base, sim.scheme, &sim.cfg);
        let epochs: Vec<(TimePs, u32)> = tl.epochs.iter().map(|e| (e.at, e.repairs)).collect();
        assert_eq!(
            epochs,
            [
                (0, 0),
                (5_000, 0),
                (5_000, 0),
                (5_000, 0),
                (9_000, 0),
                (9_000, 0),
                (1_005_000, 1),
                (1_009_000, 2),
            ]
        );
        let log: Vec<TimePs> = tl.log.iter().map(|r| r.at).collect();
        assert_eq!(log, [1_005_000, 1_009_000]);
    }

    /// Static whole-router failures coalesce with static link failures
    /// into a single repair pass one detection delay after `t = 0`,
    /// held by the writer: no fault input enters a shard's queue.
    #[test]
    fn static_plan_schedules_one_repair() {
        let (topo, rt) = fixture();
        let cfg = SimConfig {
            detection_delay: Some(1_000_000),
            ..SimConfig::default()
        }
        .shards(2);
        let mut sim = Simulator::new(&topo, &rt, cfg);
        let e = topo.graph.edge_vec()[0];
        let plan = FaultPlan::none()
            .fail(e.0, e.1)
            .fail_router(20)
            .fail_router(31);
        sim.apply_fault_plan(&plan);
        assert!(sim.shards.iter().all(|s| s.events.is_empty()));
        assert!(sim.router_is_dead(20) && sim.router_is_dead(31));
        assert!(sim.link_is_down(e.0, e.1));
        let tl = sim
            .faults
            .finalize(sim.topo, &sim.net_base, sim.scheme, &sim.cfg);
        let log: Vec<TimePs> = tl.log.iter().map(|r| r.at).collect();
        assert_eq!(log, [1_000_000], "one repair pass for the static batch");
    }

    /// Fault input the simulator cannot apply is rejected where it
    /// enters, naming the event, instead of panicking at run start deep
    /// inside the replay.
    #[test]
    #[should_panic(
        expected = "RouterDown at 7000 ps names router 50, but the topology has 50 routers"
    )]
    fn timed_event_on_a_router_past_the_topology_is_rejected() {
        let (topo, rt) = fixture();
        let mut sim = Simulator::new(&topo, &rt, SimConfig::default().shards(1));
        sim.apply_fault_plan(&FaultPlan::none().router_down_at(7_000, 50));
    }

    /// A flow naming an endpoint past the topology is rejected where it
    /// enters, naming the flow, before any per-shard sizing indexes by
    /// its router.
    #[test]
    #[should_panic(
        expected = "flow 1 names destination endpoint 50, but the topology has 50 endpoints"
    )]
    fn flow_naming_an_endpoint_past_the_topology_is_rejected() {
        let (topo, rt) = fixture();
        assert_eq!(topo.num_endpoints(), 50);
        let mut sim = Simulator::new(&topo, &rt, SimConfig::default().shards(2));
        let flow = |src, dst| FlowSpec {
            src,
            dst,
            size: 1000,
            start: 0,
        };
        sim.add_flows(&[flow(0, 49), flow(1, 50)]);
    }

    #[test]
    #[should_panic(
        expected = "LinkUp at 9000 ps names link 0-2, which is not a router-router link"
    )]
    fn timed_event_on_a_non_link_is_rejected() {
        let (topo, rt) = fixture();
        assert!(!topo.graph.has_edge(0, 2));
        let mut sim = Simulator::new(&topo, &rt, SimConfig::default().shards(1));
        sim.apply_fault_plan(&FaultPlan::none().link_up_at(9_000, 0, 2));
    }

    #[test]
    #[should_panic(expected = "static router failure at 0 ps names router 64, but the topology")]
    fn static_failure_of_a_router_past_the_topology_is_rejected() {
        let (topo, rt) = fixture();
        let mut sim = Simulator::new(&topo, &rt, SimConfig::default().shards(1));
        sim.apply_fault_plan(&FaultPlan::none().fail_router(64));
    }

    /// Times the packed event key could not hold, or could not hold
    /// once the engine has added its own deltas, are rejected where
    /// they enter the simulator — in release builds too, where the
    /// queue's own `debug_assert!` is compiled out and an oversized
    /// timestamp would spill into the class bits and silently reorder
    /// pops.
    #[test]
    #[should_panic(expected = "flow start time 36028797018963968 ps is beyond the 2^55 ps")]
    fn flow_start_at_the_time_limit_is_rejected() {
        let (topo, rt) = fixture();
        let mut sim = Simulator::new(&topo, &rt, SimConfig::default().shards(1));
        sim.add_flows(&[FlowSpec {
            src: 0,
            dst: 1,
            size: 1,
            start: 1 << 55,
        }]);
    }

    /// The repair scheduled one detection delay after a fault event is
    /// a derived time: the check covers the sum.
    #[test]
    #[should_panic(
        expected = "fault event time plus detection delay 36028797018963968 ps is beyond"
    )]
    fn fault_event_whose_repair_passes_the_time_limit_is_rejected() {
        let (topo, rt) = fixture();
        let cfg = SimConfig {
            detection_delay: Some(1_000),
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&topo, &rt, cfg.shards(1));
        sim.apply_fault_plan(&FaultPlan::none().router_down_at((1 << 55) - 1_000, 3));
    }

    #[test]
    #[should_panic(expected = "horizon 72057594037927936 ps is beyond")]
    fn horizon_past_the_time_limit_is_rejected() {
        let (topo, rt) = fixture();
        let cfg = SimConfig {
            horizon: 1 << 56,
            ..SimConfig::default()
        };
        Simulator::new(&topo, &rt, cfg.shards(1)).run();
    }

    /// A boundary packet's arrival rides its mailbox as a `u32` ps
    /// offset from the window base, so with two or more shards the link
    /// latency is bounded (≈ 2.1 ms at 10 Gb/s with jumbo frames): it is
    /// rejected at build, not wrapped silently in release.
    #[test]
    #[should_panic(expected = "must fit the u32 mailbox time delta of 4294967295 ps")]
    fn sharded_link_latency_beyond_the_mailbox_delta_is_rejected() {
        let (topo, rt) = fixture();
        let cfg = SimConfig {
            link_latency: 3_000_000_000,
            ..SimConfig::default()
        };
        Simulator::new(&topo, &rt, cfg.shards(2));
    }

    #[test]
    fn sharded_link_latency_inside_the_mailbox_delta_runs() {
        let (topo, rt) = fixture();
        let cfg = SimConfig {
            link_latency: 2_000_000_000,
            ..SimConfig::default()
        };
        let mut sim = Simulator::new(&topo, &rt, cfg.shards(2));
        let flows: Vec<FlowSpec> = (0..10)
            .map(|e| FlowSpec {
                src: e,
                dst: 49 - e,
                size: 20_000,
                start: 0,
            })
            .collect();
        sim.add_flows(&flows);
        let res = sim.run();
        assert_eq!(res.completion_rate(), 1.0);
        assert!(res.profile.mailbox_msgs > 0, "no packet crossed shards");
    }

    /// The last admissible instant is not only accepted but runs: the
    /// flow's own events (serialization, latency, pulls) land past the
    /// input limit, inside the headroom the 56-bit key leaves for them.
    #[test]
    fn flow_starting_just_below_the_time_limit_completes() {
        let (topo, rt) = fixture();
        let start = (1 << 55) - 1;
        let mut sim = Simulator::new(&topo, &rt, SimConfig::default().shards(1));
        sim.add_flows(&[FlowSpec {
            src: 0,
            dst: 1,
            size: 20_000,
            start,
        }]);
        let res = sim.run();
        assert_eq!(res.completion_rate(), 1.0);
        assert!(res.flows[0].finish.unwrap() > start);
    }

    /// Finalizing the writer publishes one epoch per fault event, and
    /// the epochs are copy-on-write: components an event did not touch
    /// re-share the previous epoch's allocation.
    #[test]
    fn timeline_publishes_cow_epochs() {
        let (topo, rt) = fixture();
        let cfg = SimConfig {
            detection_delay: Some(1_000),
            ..SimConfig::default()
        }
        .shards(2);
        let mut sim = Simulator::new(&topo, &rt, cfg);
        let e = topo.graph.edge_vec()[3];
        let plan = FaultPlan::none()
            .link_down_at(5_000, e.0, e.1)
            .router_down_at(9_000, 5);
        sim.apply_fault_plan(&plan);
        let tl = sim
            .faults
            .finalize(sim.topo, &sim.net_base, sim.scheme, &sim.cfg);
        // Epochs: 0 post-static, 1 link failure, 2 repair pass, 3 router
        // death, 4 repair pass. Two repair records.
        let at: Vec<TimePs> = tl.epochs.iter().map(|e| e.at).collect();
        assert_eq!(at, [0, 5_000, 6_000, 9_000, 10_000]);
        assert_eq!(tl.log.len(), 2);
        assert_eq!((tl.log[0].at, tl.log[1].at), (6_000, 10_000));
        let ep = &tl.epochs;
        assert_eq!(ep[0].down_count, 0);
        assert_eq!(ep[1].down_count, 1);
        // A link failure touches links, not routers.
        assert!(Arc::ptr_eq(&ep[0].router_dead, &ep[1].router_dead));
        assert!(!Arc::ptr_eq(&ep[0].port_down, &ep[1].port_down));
        // A repair pass touches neither bitmask, only the overlay.
        assert!(Arc::ptr_eq(&ep[1].port_down, &ep[2].port_down));
        assert!(Arc::ptr_eq(&ep[1].router_dead, &ep[2].router_dead));
        assert!(!Arc::ptr_eq(&ep[1].repair, &ep[2].repair));
        // A router death touches both (its incident links die with it).
        assert_eq!(ep[3].dead_router_count, 1);
        assert!(!Arc::ptr_eq(&ep[2].router_dead, &ep[3].router_dead));
        assert!(!Arc::ptr_eq(&ep[2].port_down, &ep[3].port_down));
        assert!(Arc::ptr_eq(&ep[3].port_down, &ep[4].port_down));
    }
}
