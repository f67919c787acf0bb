//! Shared fault state: one writer, copy-on-write epochs, K readers.
//!
//! Every fault the simulator models derives *statically* from the
//! [`FaultPlan`]: which links die or revive when is fixed before the
//! first packet moves, and the repair overlay the control plane installs
//! after each change is a pure function of the down set at that instant.
//! So the fault state is held once, not per shard — at a million
//! endpoints the per-port down bitmask, dead-router vector and repair
//! overlay would otherwise dominate every shard's footprint:
//!
//! * a single [`FaultWriter`] accumulates the statics and timed events
//!   of every applied plan;
//! * [`FaultWriter::finalize`] replays the timed events once, *before*
//!   the run, and publishes a [`FaultTimeline`]: one [`FaultEpoch`]
//!   snapshot per fault event or repair pass, stamped with the time it
//!   takes effect — copy-on-write: components untouched by an event
//!   share the previous epoch's `Arc`, so a repair pass clones no
//!   bitmask and a link failure clones no repair overlay;
//! * shards hold no fault events. Each reads the timeline by time:
//!   before it dispatches an event at `t` it moves its epoch cursor past
//!   every epoch taking effect at or before `t`, so a fault at `t`
//!   ranks before all traffic at `t`, and every hot-path read goes
//!   through the snapshot in force at that instant.
//!
//! Replay order: the timed events sort by time, then [`Change`] (link
//! failures, router deaths, link revivals, router revivals, then ids),
//! and merge with the pending repair passes, fault events first at equal
//! times. A change at `t` schedules a repair pass one detection delay
//! later (the statics, one delay after `t = 0`). A burst of
//! simultaneous changes (a router death fails its whole radix at once; a
//! maintenance window kills several routers in one timestamp) coalesces
//! into a single pass over the full down set: replayed times never
//! decrease and the delay is fixed, so the pending passes form a sorted
//! FIFO and a check against its back is the whole dedup.

use crate::config::SimConfig;
use crate::engine::TimePs;
use fatpaths_core::repair::{DownLinks, RouteRepair};
use fatpaths_core::scheme::RoutingScheme;
use fatpaths_net::fault::{Change, FaultPlan};
use fatpaths_net::topo::Topology;
use fatpaths_telemetry::RepairSample;
use std::collections::VecDeque;
use std::sync::Arc;

/// One immutable snapshot of the fault state, shared read-only by every
/// shard. `Arc` components are copy-on-write across epochs: an epoch
/// re-shares every component the event that produced it did not touch.
#[derive(Clone, Debug)]
pub(crate) struct FaultEpoch {
    /// Simulation time the epoch takes effect (0 for the post-static
    /// epoch).
    pub at: TimePs,
    /// Repair passes run up to and including this epoch.
    pub repairs: u32,
    /// Fault events still scheduled after this epoch — timed events not
    /// yet applied plus repair passes scheduled but not yet run. Pending
    /// simulation events, like a shard's queue: telemetry adds them to
    /// each shard's queue-length sample.
    pub pending: u32,
    /// Down-state bitmask, one bit per *global* output port.
    pub port_down: Arc<Vec<u64>>,
    /// Links currently down (fast-path gate: zero skips the bitmask).
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
/// `i > 0` the state after the `i`-th fault event or repair pass in
/// replay order. Epoch times never decrease; shards index the epochs
/// with a cursor they advance by time.
#[derive(Debug, Default)]
pub(crate) struct FaultTimeline {
    pub epochs: Vec<FaultEpoch>,
    /// One record per replayed repair pass, in execution order. The
    /// driver truncates to the passes the run actually reached (early
    /// termination can leave trailing passes unexecuted).
    pub log: Vec<RepairSample>,
}

impl FaultTimeline {
    /// When the epoch after `epoch` takes effect, if there is one.
    #[inline]
    pub(crate) fn next_at(&self, epoch: u32) -> Option<TimePs> {
        self.epochs.get(epoch as usize + 1).map(|e| e.at)
    }
}

/// The single mutable owner of the fault state: accumulates the plan,
/// replays it once at run start, publishes the epochs.
#[derive(Debug)]
pub(crate) struct FaultWriter {
    /// Timed changes of every applied plan, replayed by `finalize`
    /// (which sorts them descending: the next change is at the back).
    events: Vec<(TimePs, Change)>,
    /// Repair passes scheduled and not yet run, ascending.
    repairs: VecDeque<TimePs>,
    port_down: Vec<u64>,
    down_count: u32,
    /// Links failed in their own right, in canonical form. With
    /// `router_dead` it defines the down set: a link is down iff it
    /// failed or either end is dead, so a reviving router does not
    /// resurrect an independently cut link.
    link_failed: rustc_hash::FxHashSet<(u32, u32)>,
    router_dead: Vec<bool>,
    dead_router_count: u32,
    /// Components touched since the last published epoch.
    links_dirty: bool,
    routers_dirty: bool,
}

impl FaultWriter {
    pub(crate) fn new(n_ports_total: usize, n_routers: usize) -> Self {
        FaultWriter {
            events: Vec::new(),
            repairs: VecDeque::new(),
            port_down: vec![0u64; n_ports_total.div_ceil(64)],
            down_count: 0,
            link_failed: rustc_hash::FxHashSet::default(),
            router_dead: vec![false; n_routers],
            dead_router_count: 0,
            links_dirty: false,
            routers_dirty: false,
        }
    }

    /// Applies a plan's statics immediately and keeps its timed events
    /// for [`FaultWriter::finalize`].
    pub(crate) fn apply_plan(&mut self, topo: &Topology, net_base: &[u32], plan: &FaultPlan) {
        for &(u, v) in plan.static_failures() {
            self.fail_link_now(topo, net_base, u, v);
        }
        for &r in plan.static_router_failures() {
            self.set_router_state(topo, net_base, r, false);
        }
        self.events.extend_from_slice(plan.changes());
    }

    /// True iff router `r` is currently dead in the writer's working
    /// state (statics applied; timed events once finalized).
    #[cfg(test)]
    pub(crate) fn router_is_dead(&self, r: u32) -> bool {
        self.router_dead[r as usize]
    }

    /// True iff link `{u, v}` is currently down — failed in its own
    /// right or incident to a dead router.
    #[cfg(test)]
    pub(crate) fn link_is_down(&self, u: u32, v: u32) -> bool {
        self.link_failed.contains(&(u.min(v), u.max(v)))
            || self.router_dead[u as usize]
            || self.router_dead[v as usize]
    }

    /// Replays the timed changes and the repair passes they schedule in
    /// time order and publishes the epoch timeline. Run once, at
    /// simulation start; everything beyond the horizon is dropped
    /// unexecuted (the shards never reach it either).
    pub(crate) fn finalize<R: RoutingScheme + ?Sized>(
        &mut self,
        topo: &Topology,
        net_base: &[u32],
        scheme: &R,
        cfg: &SimConfig,
    ) -> FaultTimeline {
        self.events.sort_unstable_by(|a, b| b.cmp(a));
        // Whatever the statics took down is repaired one delay in.
        if self.down_count + self.dead_router_count > 0 {
            self.repairs.extend(cfg.detection_delay);
        }
        let mut tl = FaultTimeline::default();
        let mut repair = Arc::new(RouteRepair::none());
        self.links_dirty = true;
        self.routers_dirty = true;
        self.publish(&mut tl, 0, &repair);
        loop {
            // At equal times the fault events go before the repair pass.
            let event = self
                .events
                .last()
                .copied()
                .filter(|&(t, _)| self.repairs.front().is_none_or(|&r| t <= r));
            let Some(at) = event.map(|e| e.0).or(self.repairs.front().copied()) else {
                break;
            };
            if cfg.horizon > 0 && at > cfg.horizon {
                break;
            }
            if let Some((_, change)) = event {
                self.events.pop();
                match change {
                    Change::LinkDown(u, v) => self.fail_link_now(topo, net_base, u, v),
                    Change::RouterDown(r) => self.set_router_state(topo, net_base, r, false),
                    Change::LinkUp(u, v) => self.restore_link_now(topo, net_base, u, v),
                    Change::RouterUp(r) => self.set_router_state(topo, net_base, r, true),
                }
                if let Some(delay) = cfg.detection_delay {
                    // Burst coalescing: see the module docs.
                    if self.repairs.back() != Some(&(at + delay)) {
                        self.repairs.push_back(at + delay);
                    }
                }
            } else {
                self.repairs.pop_front();
                let failed: Vec<(u32, u32)> = self.link_failed.iter().copied().collect();
                let dead: Vec<u32> = (0..self.router_dead.len() as u32)
                    .filter(|&r| self.router_dead[r as usize])
                    .collect();
                let down = DownLinks::from_failures(&topo.graph, &failed, &dead);
                let rep = scheme.repair_routes(&topo.graph, &down);
                tl.log.push(RepairSample {
                    at,
                    rows: rep.len() as u64,
                    fib_rows: rep.fib_rows_rewritten,
                });
                repair = Arc::new(rep);
            }
            self.publish(&mut tl, at, &repair);
        }
        tl
    }

    /// Publishes the current working state as the next epoch, taking
    /// effect at `at`, re-sharing every component the event did not
    /// touch.
    fn publish(&mut self, tl: &mut FaultTimeline, at: TimePs, repair: &Arc<RouteRepair>) {
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
            at,
            repairs: tl.log.len() as u32,
            pending: (self.events.len() + self.repairs.len()) as u32,
            port_down,
            down_count: self.down_count,
            router_dead,
            dead_router_count: self.dead_router_count,
            repair: repair.clone(),
        });
        self.links_dirty = false;
        self.routers_dirty = false;
    }

    // ---- the fault-state machine ---------------------------------------

    /// Fails link `{u, v}` in its own right (static failure or a timed
    /// link failure): recorded in `link_failed` so a later router
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

    /// Flips the state of link `{u, v}` (both directions) in the port
    /// bitmask, which is where a transition shows. Idempotent.
    pub(crate) fn set_link_state(
        &mut self,
        topo: &Topology,
        net_base: &[u32],
        u: u32,
        v: u32,
        up: bool,
    ) {
        assert!(topo.graph.has_edge(u, v), "no such link");
        let port = |a: u32, b: u32| {
            net_base[a as usize] + topo.graph.port_of(a, b).expect("checked has_edge")
        };
        let p = port(u, v);
        let was_down = self.port_down[p as usize / 64] >> (p % 64) & 1 == 1;
        if up != was_down {
            return;
        }
        self.links_dirty = true;
        if up {
            self.down_count -= 1;
        } else {
            self.down_count += 1;
        }
        for p in [p, port(v, u)] {
            self.port_down[p as usize / 64] ^= 1u64 << (p % 64);
        }
    }

    #[cfg(test)]
    pub(crate) fn down_count(&self) -> u32 {
        self.down_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatpaths_core::scheme::PortSet;
    use fatpaths_net::graph::Graph;
    use fatpaths_net::topo::slimfly::slim_fly;
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::Mutex;

    /// A scheme that only records the down set of every repair pass.
    #[derive(Default)]
    struct Recorder(Mutex<Vec<Vec<(u32, u32)>>>);

    impl RoutingScheme for Recorder {
        fn num_layers(&self) -> usize {
            1
        }
        fn candidate_ports(&self, _: u8, _: u32, _: u32) -> PortSet {
            unreachable!("the writer routes nothing")
        }
        fn repair_routes(&self, _: &Graph, down: &DownLinks) -> RouteRepair {
            self.0.lock().unwrap().push(down.as_slice().to_vec());
            RouteRepair::none()
        }
    }

    /// Spacing of the instants random plans draw from: few instants, so
    /// same-instant bursts are common, and detection delays that are
    /// multiples of it land repair passes on event instants.
    const STEP: TimePs = 1_000;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        // Random plans over a few links incident to router 0 and routers
        // around it, replayed by the writer and by a from-scratch model:
        // a link is down iff it failed in its own right or either end is
        // dead, over the events applied so far in (time, kind, id) order.
        // Every epoch's state, time, repair count and pending count, and
        // the down set each repair pass receives, must match the model's.
        #[test]
        fn replay_matches_a_from_scratch_model(
            raw in prop::collection::vec((0u64..8, 0u8..4, 0usize..6, any::<bool>()), 0..24),
            statics in 0u8..4,
            delay_sel in 0usize..5,
            horizon_sel in 0u64..10,
        ) {
            let topo = slim_fly(5, 1).unwrap();
            let g = &topo.graph;
            let links: Vec<(u32, u32)> = g.edge_vec()[..6].to_vec();
            let routers: Vec<u32> = std::iter::once(0).chain(g.neighbors(0)[..5].iter().copied()).collect();
            let delay = [None, Some(0), Some(STEP / 2), Some(STEP), Some(3 * STEP)][delay_sel];
            let horizon = horizon_sel * STEP - horizon_sel % 2 * (STEP / 2);
            let cfg = SimConfig { detection_delay: delay, horizon, ..SimConfig::default() };

            // The plan, and the model's copy of its timed events as
            // (time, kind rank, canonical id): link down, router down,
            // link up, router up.
            let mut plan = FaultPlan::none();
            let mut model_events = Vec::new();
            // A down and an up of one link at one instant, always.
            let raw = raw.into_iter().chain([(3, 0, 0, false), (3, 2, 0, true)]);
            for (slot, kind, i, flip) in raw {
                let at = slot * STEP;
                let (u, v) = links[i];
                let (a, b) = if flip { (v, u) } else { (u, v) };
                plan = match kind {
                    0 => plan.link_down_at(at, a, b),
                    1 => plan.router_down_at(at, routers[i]),
                    2 => plan.link_up_at(at, a, b),
                    _ => plan.router_up_at(at, routers[i]),
                };
                let id = if kind % 2 == 0 { (u, v) } else { (routers[i], 0) };
                model_events.push((at, kind, id));
            }
            if statics & 1 != 0 {
                plan = plan.fail(links[5].1, links[5].0);
            }
            if statics & 2 != 0 {
                plan = plan.fail_router(routers[5]);
            }
            model_events.sort_unstable();

            let mut net_base = Vec::new();
            let mut n_ports = 0;
            for r in 0..topo.num_routers() as u32 {
                net_base.push(n_ports as u32);
                n_ports += g.neighbors(r).len();
            }
            let mut writer = FaultWriter::new(n_ports, topo.num_routers());
            writer.apply_plan(&topo, &net_base, &plan);
            let recorder = Recorder::default();
            let tl = writer.finalize(&topo, &net_base, &recorder, &cfg);
            let passes = recorder.0.into_inner().unwrap();

            // The model's timeline: every event within the horizon, and
            // one repair pass per distinct (event time + delay) — plus one
            // at the delay for the statics — within it, after every event
            // of its instant.
            let within = |t: TimePs| horizon == 0 || t <= horizon;
            let applied: Vec<_> = model_events.iter().filter(|e| within(e.0)).collect();
            let mut scheduled = BTreeSet::new();
            if let Some(d) = delay {
                if statics != 0 {
                    scheduled.insert(d);
                }
                scheduled.extend(applied.iter().map(|e| e.0 + d));
            }
            let mut steps: Vec<(TimePs, bool, usize)> =
                applied.iter().enumerate().map(|(i, e)| (e.0, false, i)).collect();
            steps.extend(scheduled.iter().filter(|&&t| within(t)).map(|&t| (t, true, 0)));
            steps.sort_unstable();
            prop_assert_eq!(tl.epochs.len(), 1 + steps.len());
            let ticks: Vec<TimePs> = steps.iter().filter(|s| s.1).map(|s| s.0).collect();
            let log: Vec<TimePs> = tl.log.iter().map(|r| r.at).collect();
            prop_assert_eq!(log, ticks);

            let mut failed: BTreeSet<(u32, u32)> = BTreeSet::new();
            let mut dead: BTreeSet<u32> = BTreeSet::new();
            if statics & 1 != 0 {
                failed.insert(links[5]);
            }
            if statics & 2 != 0 {
                dead.insert(routers[5]);
            }
            let (mut n_applied, mut n_run) = (0, 0);
            for (i, ep) in tl.epochs.iter().enumerate() {
                if i > 0 {
                    let (at, is_repair, e) = steps[i - 1];
                    let prev = &tl.epochs[i - 1];
                    prop_assert!(ep.at >= prev.at, "epoch times ran backwards");
                    prop_assert_eq!(ep.at, at);
                    prop_assert_eq!(ep.repairs - prev.repairs, is_repair as u32);
                    if is_repair {
                        n_run += 1;
                        let next = tl.epochs.get(i + 1);
                        prop_assert!(next.is_none_or(|n| n.at > at), "a fault event at {at} ran after its repair pass");
                    } else {
                        n_applied += 1;
                        let (_, kind, (a, b)) = *applied[e];
                        match kind {
                            0 => { failed.insert((a, b)); }
                            1 => { dead.insert(a); }
                            2 => { failed.remove(&(a, b)); }
                            _ => { dead.remove(&a); }
                        }
                    }
                }
                // Repair passes still owed: scheduled by the statics and
                // the events applied so far, not yet run.
                let owed = delay.map_or(0, |d| {
                    let by_statics = (statics != 0).then_some(d);
                    let by_events = applied[..n_applied].iter().map(|e| e.0 + d);
                    by_statics.into_iter().chain(by_events).collect::<BTreeSet<_>>().len()
                }) - n_run;
                prop_assert_eq!(ep.pending as usize, model_events.len() - n_applied + owed);
                let mut port_down = vec![0u64; n_ports.div_ceil(64)];
                let mut down = Vec::new();
                for (u, v) in g.edge_vec() {
                    if failed.contains(&(u, v)) || dead.contains(&u) || dead.contains(&v) {
                        down.push((u, v));
                        for (a, b) in [(u, v), (v, u)] {
                            let port = net_base[a as usize] + g.port_of(a, b).unwrap();
                            port_down[port as usize / 64] |= 1 << (port % 64);
                        }
                    }
                }
                prop_assert_eq!(&*ep.port_down, &port_down);
                prop_assert_eq!(ep.down_count as usize, down.len());
                if i > 0 && steps[i - 1].1 {
                    down.sort_unstable();
                    prop_assert_eq!(&passes[n_run - 1], &down);
                }
                let router_dead: Vec<bool> =
                    (0..topo.num_routers() as u32).map(|r| dead.contains(&r)).collect();
                prop_assert_eq!(&*ep.router_dead, &router_dead);
                prop_assert_eq!(ep.dead_router_count as usize, dead.len());
            }
            prop_assert_eq!(passes.len(), n_run);
        }
    }
}
