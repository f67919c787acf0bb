//! Link-failure modeling: deterministic fault plans over a [`Topology`].
//!
//! FatPaths' robustness argument (§V-G) is that preprovisioned layers keep
//! traffic flowing when links die, while single-path minimal routing
//! collapses. Testing that claim needs failures to be a *modeled,
//! sweepable dimension*: a [`FaultPlan`] describes which links are down —
//! either statically from `t = 0` or through timed [`Change`]s — and is
//! sampled from seeded [`FaultModel`]s so a sweep cell's failure set is a
//! pure function of its seed (the determinism discipline of the execution
//! layer; see `fatpaths_sim::cell_seed`).
//!
//! Two failure granularities are modeled. The finer one is the
//! bidirectional router-router link, the unit the paper's resilience
//! evaluation uses; endpoint access links never fail on their own (a
//! dead access link is an endpoint failure, a different phenomenon).
//! The coarser one is the whole router (the node-level fault model of
//! the fat-tree fault-resiliency literature, e.g. Gliksberg et al.):
//! a dead router atomically loses *all* incident links **and** takes
//! its attached endpoints out of the workload — flows whose source or
//! destination host sits behind it are `host_dead`, a different
//! phenomenon than `unroutable` pairs in a link-degraded network.
//! Timed router changes compose into churn schedules:
//! [`FaultPlan::rolling_reboot`] (staggered reboots, e.g. a firmware
//! roll) and [`FaultPlan::rolling_domain_reboot`] (the same walk over
//! whole failure domains).

use crate::graph::RouterId;
use crate::topo::Topology;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Seeded failure-sampling models. All counts round to the nearest link
/// and are clamped to the available population, so `fraction = 0.0`
/// always yields an empty plan and `1.0` the whole population.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultModel {
    /// Fail a uniform random `fraction` of all router-router links — the
    /// classic independent-failure sweep axis.
    UniformFraction {
        /// Fraction of links to fail, in `[0, 1]`.
        fraction: f64,
    },
    /// Whole-router failures: pick `routers` routers uniformly and kill
    /// them outright — every incident link fails *and* the attached
    /// endpoints drop out of the workload (power event, crashed control
    /// plane).
    RouterDown {
        /// Number of routers that die.
        routers: usize,
    },
}

/// A timed state change, links in canonical `(min, max)` form. The
/// derived order — variant, then ids — is the replay order at equal
/// times: link failures, router deaths, link revivals, router revivals.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Change {
    /// Link `{u, v}` goes down.
    LinkDown(RouterId, RouterId),
    /// The router dies: every incident link fails at once and its
    /// attached endpoints are marked dead.
    RouterDown(RouterId),
    /// Link `{u, v}` comes back up.
    LinkUp(RouterId, RouterId),
    /// The router comes back up, reviving exactly the links whose other
    /// end is alive and not independently failed.
    RouterUp(RouterId),
}

/// A deterministic description of which links and routers fail and when.
///
/// Static failures are down from `t = 0`; timed [`Change`]s flip state
/// mid-run. The simulator consumes the plan
/// via `Simulator::apply_fault_plan`, and `Scenario::fault_plan` wires
/// it into the fluent builder; a single dead link is
/// `FaultPlan::none().fail(u, v)`, so there is exactly one failure
/// mechanism.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    static_failures: Vec<(RouterId, RouterId)>,
    static_router_failures: Vec<RouterId>,
    /// Timed changes `(ps, change)`, in replay order: by time, then
    /// change.
    changes: Vec<(u64, Change)>,
}

impl FaultPlan {
    /// The empty plan (no failures).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan with the given links down from `t = 0`.
    pub fn from_links(links: &[(RouterId, RouterId)]) -> FaultPlan {
        let mut plan = FaultPlan::default();
        for &(u, v) in links {
            plan.add_static(u, v);
        }
        plan
    }

    /// [`FaultPlan::fail`] in place.
    fn add_static(&mut self, u: RouterId, v: RouterId) {
        let key = (u.min(v), u.max(v));
        if !self.static_failures.contains(&key) {
            self.static_failures.push(key);
        }
    }

    /// Adds a static (down from `t = 0`) failure of link `{u, v}`.
    /// Duplicates (in either orientation) collapse.
    pub fn fail(mut self, u: RouterId, v: RouterId) -> FaultPlan {
        self.add_static(u, v);
        self
    }

    /// Inserts `change` at `at` picoseconds, keeping the replay order.
    fn schedule(mut self, at: u64, change: Change) -> FaultPlan {
        let i = self.changes.partition_point(|&e| e <= (at, change));
        self.changes.insert(i, (at, change));
        self
    }

    /// Schedules link `{u, v}` to go down at `at` picoseconds.
    pub fn link_down_at(self, at: u64, u: RouterId, v: RouterId) -> FaultPlan {
        self.schedule(at, Change::LinkDown(u.min(v), u.max(v)))
    }

    /// Schedules link `{u, v}` to come back up at `at` picoseconds.
    pub fn link_up_at(self, at: u64, u: RouterId, v: RouterId) -> FaultPlan {
        self.schedule(at, Change::LinkUp(u.min(v), u.max(v)))
    }

    /// [`FaultPlan::fail_router`] in place.
    fn add_router(&mut self, r: RouterId) {
        if !self.static_router_failures.contains(&r) {
            self.static_router_failures.push(r);
        }
    }

    /// Adds a static (dead from `t = 0`) whole-router failure: all of
    /// `r`'s incident links fail and its endpoints drop out of the
    /// workload. Duplicates collapse.
    pub fn fail_router(mut self, r: RouterId) -> FaultPlan {
        self.add_router(r);
        self
    }

    /// Schedules router `r` to die at `at` picoseconds.
    pub fn router_down_at(self, at: u64, r: RouterId) -> FaultPlan {
        self.schedule(at, Change::RouterDown(r))
    }

    /// Schedules router `r` to come back up at `at` picoseconds.
    pub fn router_up_at(self, at: u64, r: RouterId) -> FaultPlan {
        self.schedule(at, Change::RouterUp(r))
    }

    /// A rolling-reboot (firmware roll / staggered maintenance)
    /// schedule: `count_of(Nr, fraction)` routers sampled by `seed`
    /// reboot one after another — router *i* of the draw goes down at
    /// `start + i·stagger` and returns `downtime` later. With
    /// `stagger ≥ downtime` at most one router is dead at a time; with
    /// `stagger < downtime` reboots overlap, as aggressive rolls do.
    /// Deterministic in `(topo, fraction, seed)`.
    pub fn rolling_reboot(
        topo: &Topology,
        fraction: f64,
        start: u64,
        stagger: u64,
        downtime: u64,
        seed: u64,
    ) -> FaultPlan {
        let mut plan = FaultPlan::default();
        for (i, r) in sample_routers(topo, fraction, seed).into_iter().enumerate() {
            let down = start + i as u64 * stagger;
            plan = plan
                .router_down_at(down, r)
                .router_up_at(down + downtime, r);
        }
        plan
    }

    /// A domain-aware maintenance roll: like
    /// [`FaultPlan::rolling_reboot`], but instead of drawing routers
    /// uniformly it walks the topology's failure *domains*
    /// ([`Topology::domains`] — a fat-tree pod's aggregation layer, a
    /// Dragonfly group, a HyperX row) in seed-shuffled order, rebooting
    /// each domain's routers consecutively (ascending id) before moving
    /// to the next. Real maintenance rolls work through one enclosure
    /// at a time, which concentrates simultaneous downtime inside a
    /// fate-sharing unit — with `stagger < downtime` a whole domain can
    /// be dark at once, the case that stresses route repair far harder
    /// than scattered uniform draws.
    ///
    /// The reboot budget is `count_of(Nr, fraction)` routers — the same
    /// as the uniform roll, so the two samplers are directly comparable
    /// at equal fractions (the last domain may be walked partially).
    /// Routers outside every domain are never rebooted: when domains
    /// cover only part of the machine (a fat tree's domains are its
    /// aggregation layers, `k²/4` of `5k²/4` routers), the walk stops
    /// at the covered population and the effective budget clamps there
    /// — compare samplers at fractions below the coverage ratio.
    /// Topologies without domain metadata degrade to per-router
    /// domains, which reproduces [`FaultPlan::rolling_reboot`] exactly.
    /// Deterministic in `(topo, fraction, seed)`.
    pub fn rolling_domain_reboot(
        topo: &Topology,
        fraction: f64,
        start: u64,
        stagger: u64,
        downtime: u64,
        seed: u64,
    ) -> FaultPlan {
        let nr = topo.num_routers();
        let budget = count_of(nr, fraction);
        let mut domains: Vec<std::ops::Range<RouterId>> = if topo.domains.is_empty() {
            (0..nr as u32).map(|r| r..r + 1).collect()
        } else {
            topo.domains.clone()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        domains.shuffle(&mut rng);
        let mut plan = FaultPlan::default();
        let mut i = 0u64;
        'walk: for dom in domains {
            for r in dom {
                if i as usize >= budget {
                    break 'walk;
                }
                let down = start + i * stagger;
                plan = plan
                    .router_down_at(down, r)
                    .router_up_at(down + downtime, r);
                i += 1;
            }
        }
        plan
    }

    /// Samples a static failure set from `model` on `topo`. Deterministic:
    /// the same `(topo, model, seed)` always yields the same plan, and the
    /// draw is a pure function of the seed (never of thread count or call
    /// order), so sweep cells may sample in parallel.
    pub fn sample(topo: &Topology, model: &FaultModel, seed: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = topo.graph.edge_vec();
        let mut plan = FaultPlan::default();
        match *model {
            // The canonical edge list makes the picks distinct by
            // construction: no dedup scan per link.
            FaultModel::UniformFraction { fraction } => {
                plan.static_failures = sample_fraction(&edges, fraction, &mut rng);
            }
            FaultModel::RouterDown { routers } => {
                let nr = topo.num_routers();
                let mut ids: Vec<RouterId> = (0..nr as u32).collect();
                ids.shuffle(&mut rng);
                plan.static_router_failures = ids.into_iter().take(routers.min(nr)).collect();
            }
        }
        plan
    }

    /// Merges `other` into this plan: static link and router failures
    /// dedup (keeping this plan's order first), timed changes interleave
    /// in replay order.
    pub fn merge(&mut self, other: &FaultPlan) {
        let mut seen: rustc_hash::FxHashSet<(RouterId, RouterId)> =
            self.static_failures.iter().copied().collect();
        for &key in &other.static_failures {
            if seen.insert(key) {
                self.static_failures.push(key);
            }
        }
        for &r in &other.static_router_failures {
            self.add_router(r);
        }
        self.changes.extend_from_slice(&other.changes);
        self.changes.sort_unstable();
    }

    /// The links down from `t = 0`, in canonical `(min, max)` form.
    pub fn static_failures(&self) -> &[(RouterId, RouterId)] {
        &self.static_failures
    }

    /// The routers dead from `t = 0`, in draw order.
    pub fn static_router_failures(&self) -> &[RouterId] {
        &self.static_router_failures
    }

    /// Timed changes `(ps, change)` of links and routers, in replay
    /// order: by time, then change.
    pub fn changes(&self) -> &[(u64, Change)] {
        &self.changes
    }

    /// Number of statically failed links.
    pub fn num_static(&self) -> usize {
        self.static_failures.len()
    }
}

/// Draws `count_of(Nr, fraction)` distinct routers, uniformly, in a
/// seed-determined order (the [`FaultPlan::rolling_reboot`] schedule).
fn sample_routers(topo: &Topology, fraction: f64, seed: u64) -> Vec<RouterId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let nr = topo.num_routers();
    let mut ids: Vec<RouterId> = (0..nr as u32).collect();
    ids.shuffle(&mut rng);
    ids.truncate(count_of(nr, fraction));
    ids
}

/// Rounds `fraction` of `n` to the nearest whole count, clamped to `n`.
fn count_of(n: usize, fraction: f64) -> usize {
    ((fraction * n as f64).round() as usize).min(n)
}

/// Partial Fisher–Yates: draws a uniform random subset of
/// `count_of(pool.len(), fraction)` links from `pool`.
fn sample_fraction(
    pool: &[(RouterId, RouterId)],
    fraction: f64,
    rng: &mut StdRng,
) -> Vec<(RouterId, RouterId)> {
    let n = pool.len();
    let take = count_of(n, fraction);
    let mut idx: Vec<u32> = (0..n as u32).collect();
    for i in 0..take {
        let j = rng.random_range(i..n);
        idx.swap(i, j);
    }
    idx[..take].iter().map(|&i| pool[i as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::slimfly::slim_fly;

    /// `(time, router)` of every router revival (`up`) or death.
    fn router_changes(plan: &FaultPlan, up: bool) -> Vec<(u64, RouterId)> {
        plan.changes()
            .iter()
            .filter_map(|&(at, c)| match c {
                Change::RouterUp(r) if up => Some((at, r)),
                Change::RouterDown(r) if !up => Some((at, r)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn uniform_fraction_is_deterministic_in_seed() {
        let t = slim_fly(5, 1).unwrap();
        let m = FaultModel::UniformFraction { fraction: 0.1 };
        let a = FaultPlan::sample(&t, &m, 42);
        let b = FaultPlan::sample(&t, &m, 42);
        let c = FaultPlan::sample(&t, &m, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.num_static(), (0.1 * t.graph.m() as f64).round() as usize);
        for &(u, v) in a.static_failures() {
            assert!(u < v, "canonical order");
            assert!(t.graph.has_edge(u, v));
        }
    }

    #[test]
    fn fraction_extremes() {
        let t = slim_fly(5, 1).unwrap();
        let none = FaultPlan::sample(&t, &FaultModel::UniformFraction { fraction: 0.0 }, 1);
        assert_eq!(none, FaultPlan::none());
        let all = FaultPlan::sample(&t, &FaultModel::UniformFraction { fraction: 1.0 }, 1);
        assert_eq!(all.num_static(), t.graph.m());
    }

    #[test]
    fn timed_events_sorted_and_static_dedup() {
        let plan = FaultPlan::none()
            .fail(3, 1)
            .fail(1, 3)
            .link_up_at(2_000, 0, 2)
            .link_down_at(1_000, 2, 0)
            .router_down_at(1_000, 1);
        assert_eq!(plan.static_failures(), &[(1, 3)]);
        // Sorted by time, then change; links canonical.
        assert_eq!(
            plan.changes(),
            &[
                (1_000, Change::LinkDown(0, 2)),
                (1_000, Change::RouterDown(1)),
                (2_000, Change::LinkUp(0, 2)),
            ]
        );
    }

    #[test]
    fn from_links_roundtrip() {
        let plan = FaultPlan::from_links(&[(5, 2), (2, 5), (0, 1)]);
        assert_eq!(plan.static_failures(), &[(2, 5), (0, 1)]);
    }

    #[test]
    fn router_down_samples_distinct_routers_deterministically() {
        let t = slim_fly(5, 1).unwrap();
        let m = FaultModel::RouterDown { routers: 3 };
        let a = FaultPlan::sample(&t, &m, 11);
        assert_eq!(a, FaultPlan::sample(&t, &m, 11));
        assert_ne!(a, FaultPlan::sample(&t, &m, 12));
        assert_eq!(a.static_router_failures().len(), 3);
        assert_eq!(a.num_static(), 0, "router failures, not link failures");
        let mut rs = a.static_router_failures().to_vec();
        rs.sort_unstable();
        rs.dedup();
        assert_eq!(rs.len(), 3, "distinct routers");
        assert!(rs.iter().all(|&r| (r as usize) < t.num_routers()));
        // Clamped to the population.
        let all = FaultPlan::sample(&t, &FaultModel::RouterDown { routers: 10_000 }, 1);
        assert_eq!(all.static_router_failures().len(), t.num_routers());
    }

    #[test]
    fn rolling_reboot_staggers_down_up_pairs() {
        let t = slim_fly(5, 1).unwrap();
        let plan = FaultPlan::rolling_reboot(&t, 0.1, 1_000, 500, 200, 7);
        assert_eq!(plan, FaultPlan::rolling_reboot(&t, 0.1, 1_000, 500, 200, 7));
        let expect = (0.1 * t.num_routers() as f64).round() as usize;
        assert_eq!(plan.changes().len(), 2 * expect);
        assert!(plan.static_router_failures().is_empty());
        // Each sampled router gets one down and one up, downtime apart,
        // and consecutive reboots start one stagger apart.
        let (downs, ups) = (router_changes(&plan, false), router_changes(&plan, true));
        assert_eq!(downs.len(), expect);
        for (i, &(at, r)) in downs.iter().enumerate() {
            assert_eq!(at, 1_000 + i as u64 * 500);
            assert!(ups.contains(&(at + 200, r)), "matching up change");
        }
        // Changes are in replay order.
        assert!(plan.changes().windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn domain_reboot_walks_whole_domains_in_sequence() {
        use crate::topo::fattree::fat_tree;
        let t = fat_tree(8, 1); // 8 pods × 4 agg routers, 80 routers total
        assert_eq!(t.domains.len(), 8);
        let plan = FaultPlan::rolling_domain_reboot(&t, 0.1, 1_000, 500, 200, 9);
        assert_eq!(
            plan,
            FaultPlan::rolling_domain_reboot(&t, 0.1, 1_000, 500, 200, 9)
        );
        // Budget matches the uniform roll: count_of(80, 0.1) = 8 routers.
        let (downs, ups) = (router_changes(&plan, false), router_changes(&plan, true));
        assert_eq!(downs.len(), 8);
        // Staggered down/up pairs, like the uniform roll.
        for (i, &(at, r)) in downs.iter().enumerate() {
            assert_eq!(at, 1_000 + i as u64 * 500);
            assert!(ups.contains(&(at + 200, r)));
        }
        // The walk consumes whole domains consecutively: the first four
        // reboots are exactly one pod's aggregation layer (ascending),
        // the next four exactly another's.
        for half in downs.chunks(4) {
            let ids: Vec<u32> = half.iter().map(|&(_, r)| r).collect();
            let dom = t
                .domains
                .iter()
                .find(|d| d.contains(&ids[0]))
                .expect("reboot target must sit in a domain");
            assert_eq!(
                ids,
                dom.clone().collect::<Vec<u32>>(),
                "domain walked in order"
            );
        }
    }

    #[test]
    fn domain_reboot_budget_clamps_to_domain_coverage() {
        use crate::topo::fattree::fat_tree;
        // fat_tree(8,1): 80 routers, domains cover only the 32 agg
        // routers. A fraction above the 0.4 coverage ratio exhausts
        // every domain and stops — the walk never reboots routers that
        // belong to no fate-sharing unit.
        let t = fat_tree(8, 1);
        let covered: usize = t.domains.iter().map(|d| d.len()).sum();
        assert_eq!(covered, 32);
        let plan = FaultPlan::rolling_domain_reboot(&t, 0.9, 1_000, 500, 200, 2);
        let downs = router_changes(&plan, false);
        assert_eq!(
            downs.len(),
            covered,
            "budget clamps at the covered population"
        );
        assert!(downs
            .iter()
            .all(|(_, r)| t.domains.iter().any(|d| d.contains(r))));
    }

    #[test]
    fn domain_reboot_without_domains_degrades_to_uniform_roll() {
        let t = slim_fly(5, 1).unwrap();
        assert!(t.domains.is_empty(), "SF is irregular — no domains");
        let dom = FaultPlan::rolling_domain_reboot(&t, 0.12, 2_000, 700, 300, 4);
        let uni = FaultPlan::rolling_reboot(&t, 0.12, 2_000, 700, 300, 4);
        assert_eq!(dom, uni);
    }

    #[test]
    fn structured_topologies_expose_domain_metadata() {
        use crate::topo::dragonfly::dragonfly;
        use crate::topo::hyperx::hyperx;
        let df = dragonfly(2);
        // One domain per group, each of size a = 2p, covering all routers.
        assert_eq!(df.domains.len(), 2 * 2 * 2 + 1);
        let covered: usize = df.domains.iter().map(|d| d.len()).sum();
        assert_eq!(covered, df.num_routers());
        assert!(df.domains.iter().all(|d| d.len() == 4));
        let hx = hyperx(2, 4, 1);
        assert_eq!(hx.domains.len(), 4);
        assert!(hx.domains.iter().all(|d| d.len() == 4));
    }

    #[test]
    fn merge_carries_router_failures() {
        let mut a = FaultPlan::none().fail_router(3).router_down_at(1_000, 5);
        let b = FaultPlan::none()
            .fail_router(3)
            .fail_router(7)
            .router_up_at(500, 5);
        a.merge(&b);
        assert_eq!(a.static_router_failures(), &[3, 7]);
        assert_eq!(
            a.changes(),
            &[(500, Change::RouterUp(5)), (1_000, Change::RouterDown(5))]
        );
    }

    #[test]
    fn merge_dedups_statics_and_interleaves_events() {
        let mut a = FaultPlan::from_links(&[(0, 1), (2, 3)]).link_down_at(5_000, 0, 1);
        let b = FaultPlan::from_links(&[(1, 0), (4, 5)])
            .link_up_at(9_000, 0, 1)
            .link_down_at(1_000, 2, 3);
        a.merge(&b);
        assert_eq!(a.static_failures(), &[(0, 1), (2, 3), (4, 5)]);
        let at: Vec<u64> = a.changes().iter().map(|&(at, _)| at).collect();
        assert_eq!(at, vec![1_000, 5_000, 9_000]);
    }
}
