//! Shared fault state: one writer, copy-on-write epochs, K readers.
//!
//! Every fault the simulator models derives *statically* from the
//! [`FaultPlan`]: which links die or revive when is fixed before the
//! first packet moves, and the repair overlay the control plane installs
//! after each change is a pure function of the down set at that instant.
//! The pre-PR-8 engine exploited this by **replicating** the fault state
//! into every shard and replaying the identical event sequence K times —
//! simple, but O(K · network) memory: at a million endpoints the
//! per-port down bitmask, dead-router vector, and repair overlay
//! dominated the per-shard footprint and became the scale wall.
//!
//! This module replaces the replicas with a single [`FaultWriter`]:
//!
//! * statics and timed events accumulate in the writer exactly as they
//!   used to accumulate per shard;
//! * [`FaultWriter::finalize`] replays the timed events once, *before*
//!   the run, through the same canonical [`EventQueue`] ordering the
//!   shards use, and publishes one [`FaultEpoch`] snapshot per event —
//!   copy-on-write: components untouched by an event share the previous
//!   epoch's `Arc`, so a `RepairTick` clones no bitmask and a `LinkDown`
//!   clones no repair overlay;
//! * shards keep the fault events in their queues (window boundaries,
//!   `end_time`, and horizon truncation are unchanged) but their
//!   handlers collapse to an epoch-cursor bump — the hot-path reads go
//!   through the shared snapshot for the shard's current epoch.
//!
//! Determinism: the writer pops its queue in the same canonical
//! `(time, class, key)` order every shard pops the same events embedded
//! in its traffic stream, and the `RepairTick` burst-coalescing dedup
//! (`repair_at`) is replicated bit-for-bit on both sides, so epoch `i`
//! is exactly the state after the `i`-th fault event on every shard.

use crate::config::SimConfig;
use crate::engine::{EvKind, EventQueue, TimePs};
use crate::metrics::RepairTickRecord;
use fatpaths_core::repair::{DownLinks, RouteRepair};
use fatpaths_core::scheme::RoutingScheme;
use fatpaths_net::fault::FaultPlan;
use fatpaths_net::topo::Topology;
use std::sync::Arc;

/// One immutable snapshot of the fault state, shared read-only by every
/// shard. `Arc` components are copy-on-write across epochs: an epoch
/// re-shares every component the event that produced it did not touch.
#[derive(Clone, Debug)]
pub(crate) struct FaultEpoch {
    /// Down-state bitmask, one bit per *global* output port.
    pub port_down: Arc<Vec<u64>>,
    /// Ports currently down (fast-path gate: zero skips the bitmask).
    pub down_count: u32,
    pub router_dead: Arc<Vec<bool>>,
    /// Dead routers (fast-path gate: zero skips the vector).
    pub dead_router_count: u32,
    /// Scheme-computed repaired rows (empty until a detection fires).
    pub repair: Arc<RouteRepair>,
}

impl FaultEpoch {
    #[inline]
    pub(crate) fn is_port_down(&self, port: u32) -> bool {
        self.port_down[port as usize / 64] >> (port % 64) & 1 == 1
    }

    #[inline]
    pub(crate) fn router_is_dead(&self, r: u32) -> bool {
        self.router_dead[r as usize]
    }
}

/// The replayed fault history: epoch `0` is the post-static state, epoch
/// `i > 0` the state after the `i`-th fault event (`LinkDown`/`LinkUp`/
/// `RouterDown`/`RouterUp`/`RepairTick`) in canonical order. Shards
/// index it with their local epoch cursor.
#[derive(Debug, Default)]
pub(crate) struct FaultTimeline {
    pub epochs: Vec<FaultEpoch>,
    /// One record per replayed `RepairTick`, in execution order. The
    /// driver truncates to the ticks the run actually reached (early
    /// termination can leave trailing ticks unexecuted).
    pub log: Vec<RepairTickRecord>,
}

/// The single mutable owner of the fault state: accumulates the plan,
/// replays it once at run start, publishes the epochs.
#[derive(Debug)]
pub(crate) struct FaultWriter {
    now: TimePs,
    events: EventQueue,
    port_down: Vec<u64>,
    down_count: u32,
    /// Currently-down links in canonical form (feeds route repair):
    /// links failed in their own right plus links incident to a dead
    /// router.
    down_links: Vec<(u32, u32)>,
    /// Links failed in their own right, kept apart from `down_links` so
    /// a reviving router does not resurrect an independently cut link.
    link_failed: rustc_hash::FxHashSet<(u32, u32)>,
    router_dead: Vec<bool>,
    dead_router_count: u32,
    /// Time of the currently scheduled repair pass, if any (burst
    /// coalescing: one `RepairTick` per event batch — the dedup every
    /// shard replicates).
    repair_at: Option<TimePs>,
    /// Components touched since the last published epoch.
    links_dirty: bool,
    routers_dirty: bool,
}

impl FaultWriter {
    pub(crate) fn new(n_ports_total: usize, n_routers: usize) -> Self {
        FaultWriter {
            now: 0,
            events: EventQueue::default(),
            port_down: vec![0u64; n_ports_total.div_ceil(64)],
            down_count: 0,
            down_links: Vec::new(),
            link_failed: rustc_hash::FxHashSet::default(),
            router_dead: vec![false; n_routers],
            dead_router_count: 0,
            repair_at: None,
            links_dirty: false,
            routers_dirty: false,
        }
    }

    /// Applies a plan's statics immediately and queues its timed events
    /// for [`FaultWriter::finalize`]. Mirrors what
    /// `Simulator::apply_fault_plan` used to do per shard, done once.
    pub(crate) fn apply_plan(&mut self, topo: &Topology, net_base: &[u32], plan: &FaultPlan) {
        for &(u, v) in plan.static_failures() {
            self.fail_link_now(topo, net_base, u, v);
        }
        for &r in plan.static_router_failures() {
            self.set_router_state(topo, net_base, r, false);
        }
        for ev in plan.events() {
            let kind = if ev.up {
                EvKind::LinkUp { u: ev.u, v: ev.v }
            } else {
                EvKind::LinkDown { u: ev.u, v: ev.v }
            };
            self.events.push(ev.at, kind);
        }
        for ev in plan.router_events() {
            let kind = if ev.up {
                EvKind::RouterUp { router: ev.router }
            } else {
                EvKind::RouterDown { router: ev.router }
            };
            self.events.push(ev.at, kind);
        }
    }

    /// Number of timed fault events still queued for replay.
    #[cfg(test)]
    pub(crate) fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// True iff router `r` is currently dead in the writer's working
    /// state (statics applied; timed events once finalized).
    pub(crate) fn router_is_dead(&self, r: u32) -> bool {
        self.router_dead[r as usize]
    }

    /// True iff link `{u, v}` is currently down — failed in its own
    /// right or incident to a dead router.
    pub(crate) fn link_is_down(&self, u: u32, v: u32) -> bool {
        self.down_links.contains(&(u.min(v), u.max(v)))
    }

    /// Schedules the control plane's reaction to a link-state change, if
    /// detection is enabled. A burst of simultaneous changes (a router
    /// death fails its whole radix at once; a maintenance window kills
    /// several routers in one timestamp) coalesces into a single
    /// `RepairTick`: the repair pass runs once per event batch, over the
    /// full down set, not once per changed link. Shards replicate this
    /// exact dedup against their own queues so their event streams stay
    /// in lockstep with the replay.
    pub(crate) fn schedule_repair(&mut self, delay: Option<TimePs>) {
        if let Some(delay) = delay {
            let at = self.now + delay;
            if self.repair_at != Some(at) {
                self.events.push(at, EvKind::RepairTick);
                self.repair_at = Some(at);
            }
        }
    }

    /// Replays every queued fault event through the canonical order and
    /// publishes the epoch timeline. Run once, at simulation start;
    /// events beyond the horizon are dropped unexecuted (the shards
    /// never reach them either).
    pub(crate) fn finalize<R: RoutingScheme + ?Sized>(
        &mut self,
        topo: &Topology,
        net_base: &[u32],
        scheme: &R,
        cfg: &SimConfig,
    ) -> FaultTimeline {
        // Statics may have fired a repair schedule before `finalize`;
        // `apply_fault_plan` handles that (shards need the same push),
        // so here the pending queue is replayed as-is.
        let mut tl = FaultTimeline::default();
        let mut repair = Arc::new(RouteRepair::none());
        self.links_dirty = true;
        self.routers_dirty = true;
        self.publish(&mut tl, &repair);
        while let Some(t) = self.events.peek_time() {
            if cfg.horizon > 0 && t > cfg.horizon {
                break;
            }
            let (t, ev) = self.events.pop().expect("peeked");
            self.now = t;
            match ev {
                EvKind::LinkDown { u, v } => {
                    self.fail_link_now(topo, net_base, u, v);
                    self.schedule_repair(cfg.detection_delay);
                }
                EvKind::LinkUp { u, v } => {
                    self.restore_link_now(topo, net_base, u, v);
                    self.schedule_repair(cfg.detection_delay);
                }
                EvKind::RouterDown { router } => {
                    self.set_router_state(topo, net_base, router, false);
                    self.schedule_repair(cfg.detection_delay);
                }
                EvKind::RouterUp { router } => {
                    self.set_router_state(topo, net_base, router, true);
                    self.schedule_repair(cfg.detection_delay);
                }
                EvKind::RepairTick => {
                    if self.repair_at == Some(self.now) {
                        self.repair_at = None;
                    }
                    let down = DownLinks::from_links(&self.down_links);
                    let rep = scheme.repair_routes(&topo.graph, &down);
                    tl.log.push(RepairTickRecord {
                        at: self.now,
                        rows: rep.len() as u64,
                        fib_rows: rep.fib_rows_rewritten,
                    });
                    repair = Arc::new(rep);
                }
                other => unreachable!("non-fault event {other:?} in the fault queue"),
            }
            self.publish(&mut tl, &repair);
        }
        tl
    }

    /// Publishes the current working state as the next epoch,
    /// re-sharing every component the event did not touch.
    fn publish(&mut self, tl: &mut FaultTimeline, repair: &Arc<RouteRepair>) {
        let prev = tl.epochs.last();
        let port_down = match (self.links_dirty, prev) {
            (false, Some(p)) => p.port_down.clone(),
            _ => Arc::new(self.port_down.clone()),
        };
        let router_dead = match (self.routers_dirty, prev) {
            (false, Some(p)) => p.router_dead.clone(),
            _ => Arc::new(self.router_dead.clone()),
        };
        tl.epochs.push(FaultEpoch {
            port_down,
            down_count: self.down_count,
            router_dead,
            dead_router_count: self.dead_router_count,
            repair: repair.clone(),
        });
        self.links_dirty = false;
        self.routers_dirty = false;
    }

    // ---- the fault-state machine (moved verbatim from the per-shard
    //      replicas; semantics unchanged) --------------------------------

    /// Fails link `{u, v}` in its own right (static failure or a
    /// `LinkDown` event): recorded in `link_failed` so a later router
    /// revival does not resurrect it.
    pub(crate) fn fail_link_now(&mut self, topo: &Topology, net_base: &[u32], u: u32, v: u32) {
        self.link_failed.insert((u.min(v), u.max(v)));
        self.set_link_state(topo, net_base, u, v, false);
    }

    /// Clears link `{u, v}`'s own failure; the link comes back only if
    /// neither endpoint router is dead.
    pub(crate) fn restore_link_now(&mut self, topo: &Topology, net_base: &[u32], u: u32, v: u32) {
        self.link_failed.remove(&(u.min(v), u.max(v)));
        if !self.router_dead[u as usize] && !self.router_dead[v as usize] {
            self.set_link_state(topo, net_base, u, v, true);
        }
    }

    /// Flips router `r`'s state. Death atomically fails every incident
    /// link; revival restores exactly the incident links whose other end
    /// is alive and not independently failed. Idempotent.
    pub(crate) fn set_router_state(&mut self, topo: &Topology, net_base: &[u32], r: u32, up: bool) {
        if self.router_dead[r as usize] != up {
            return; // already in that state (dead == !up)
        }
        self.routers_dirty = true;
        if up {
            self.router_dead[r as usize] = false;
            self.dead_router_count -= 1;
            for &nb in topo.graph.neighbors(r) {
                if !self.router_dead[nb as usize]
                    && !self.link_failed.contains(&(r.min(nb), r.max(nb)))
                {
                    self.set_link_state(topo, net_base, r, nb, true);
                }
            }
        } else {
            self.router_dead[r as usize] = true;
            self.dead_router_count += 1;
            for &nb in topo.graph.neighbors(r) {
                self.set_link_state(topo, net_base, r, nb, false);
            }
        }
    }

    /// Flips the state of link `{u, v}` (both directions). Idempotent.
    pub(crate) fn set_link_state(
        &mut self,
        topo: &Topology,
        net_base: &[u32],
        u: u32,
        v: u32,
        up: bool,
    ) {
        assert!(topo.graph.has_edge(u, v), "no such link");
        let key = (u.min(v), u.max(v));
        let was_down = self.down_links.contains(&key);
        if up == was_down {
            // State actually changes.
            self.links_dirty = true;
            if up {
                self.down_links.retain(|&k| k != key);
                self.down_count -= 1;
            } else {
                self.down_links.push(key);
                self.down_count += 1;
            }
            for (a, b) in [(u, v), (v, u)] {
                let port =
                    net_base[a as usize] + topo.graph.port_of(a, b).expect("checked has_edge");
                let (w, bit) = (port as usize / 64, port % 64);
                if up {
                    self.port_down[w] &= !(1u64 << bit);
                } else {
                    self.port_down[w] |= 1u64 << bit;
                }
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn down_count(&self) -> u32 {
        self.down_count
    }

    #[cfg(test)]
    pub(crate) fn down_links(&self) -> &[(u32, u32)] {
        &self.down_links
    }
}
