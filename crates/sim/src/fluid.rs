//! Flow-level max-min fluid simulator for huge-scale runs (Fig. 13 at
//! ≈1M endpoints, where a packet-level run is out of reach; the
//! `large_scale` experiment module states why the substitution holds).
//!
//! Each flow owns a fixed path of directed link ids (router links plus the
//! endpoint access links). Rates follow max-min fairness via progressive
//! filling; FCTs derive from the rate trajectory. Two modes:
//!
//! * [`bulk_fcts`] — all flows concurrent, one water-filling pass; the
//!   FCT *distribution shape* is governed by path-collision multiplicity,
//!   which is what Fig. 13's histograms display;
//! * [`FluidSim`] — event-driven arrivals/departures with rate re-solve,
//!   for medium instances and for validating the bulk approximation.

use fatpaths_net::topo::Topology;
use rustc_hash::FxHashMap;

/// Directed-link id space for a topology: `2*edge + dir` for router links,
/// then per-endpoint uplinks and downlinks.
#[derive(Clone, Debug)]
pub struct LinkSpace {
    edge_index: FxHashMap<(u32, u32), u32>,
    m: usize,
    ne: usize,
}

impl LinkSpace {
    /// Builds the id space for `topo`.
    pub fn new(topo: &Topology) -> Self {
        LinkSpace {
            edge_index: topo.graph.edge_index_map(),
            m: topo.graph.m(),
            ne: topo.num_endpoints(),
        }
    }

    /// Total number of directed links.
    pub fn len(&self) -> usize {
        2 * self.m + 2 * self.ne
    }

    /// True iff the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Directed router-link id for hop `u → v`.
    pub fn router_link(&self, u: u32, v: u32) -> u32 {
        let e = self.edge_index[&(u.min(v), u.max(v))];
        2 * e + u32::from(u > v)
    }

    /// Uplink id of endpoint `e`.
    pub fn uplink(&self, e: u32) -> u32 {
        (2 * self.m) as u32 + e
    }

    /// Downlink id of endpoint `e`.
    pub fn downlink(&self, e: u32) -> u32 {
        (2 * self.m + self.ne) as u32 + e
    }

    /// Full link-id path for an endpoint flow along a router path.
    pub fn flow_path(&self, src_ep: u32, dst_ep: u32, routers: &[u32]) -> Vec<u32> {
        let mut path = Vec::with_capacity(routers.len() + 1);
        path.push(self.uplink(src_ep));
        for w in routers.windows(2) {
            path.push(self.router_link(w[0], w[1]));
        }
        path.push(self.downlink(dst_ep));
        path
    }
}

/// Progressive-filling max-min fair rates. `paths[i]` lists the directed
/// link ids flow `i` traverses; every link has capacity `cap`.
/// Returns per-flow rates (same unit as `cap`).
pub fn max_min_rates(paths: &[Vec<u32>], n_links: usize, cap: f64) -> Vec<f64> {
    max_min_rates_approx(paths, n_links, cap, 1e-9)
}

/// [`max_min_rates`] with a freezing tolerance: links whose fair share is
/// within `(1+tol)` of the round's level freeze together, trading ≤ `tol`
/// rate accuracy for far fewer rounds on million-flow instances.
pub fn max_min_rates_approx(paths: &[Vec<u32>], n_links: usize, cap: f64, tol: f64) -> Vec<f64> {
    let nf = paths.len();
    let mut rate = vec![0.0f64; nf];
    let mut frozen = vec![false; nf];
    let mut cap_left = vec![cap; n_links];
    let mut active = vec![0u32; n_links];
    let mut flows_on: Vec<Vec<u32>> = vec![Vec::new(); n_links];
    for (i, p) in paths.iter().enumerate() {
        for &l in p {
            active[l as usize] += 1;
            flows_on[l as usize].push(i as u32);
        }
    }
    let mut remaining: usize = paths.iter().filter(|p| !p.is_empty()).count();
    // Flows with no links are unconstrained; report capacity.
    for (i, p) in paths.iter().enumerate() {
        if p.is_empty() {
            rate[i] = cap;
            frozen[i] = true;
        }
    }
    while remaining > 0 {
        // Current fill level: the tightest link's fair share.
        let mut level = f64::INFINITY;
        for l in 0..n_links {
            if active[l] > 0 {
                level = level.min(cap_left[l] / active[l] as f64);
            }
        }
        debug_assert!(level.is_finite());
        // Freeze all flows through links at (or within tolerance of) the level.
        let eps = level * tol + 1e-18;
        let mut froze_any = false;
        for l in 0..n_links {
            if active[l] == 0 || cap_left[l] / active[l] as f64 > level + eps {
                continue;
            }
            let flows = std::mem::take(&mut flows_on[l]);
            for &fi in &flows {
                if frozen[fi as usize] {
                    continue;
                }
                frozen[fi as usize] = true;
                froze_any = true;
                remaining -= 1;
                rate[fi as usize] = level;
                for &l2 in &paths[fi as usize] {
                    cap_left[l2 as usize] -= level;
                    active[l2 as usize] -= 1;
                }
            }
            flows_on[l] = flows;
        }
        debug_assert!(froze_any, "water-filling must make progress");
        if !froze_any {
            break;
        }
    }
    rate
}

/// One-shot FCTs: all flows concurrent for their whole lifetime (the
/// conservative bulk approximation used at 1M endpoints). `cap` in
/// bytes/s; sizes in bytes; FCTs in seconds.
pub fn bulk_fcts(paths: &[Vec<u32>], sizes: &[u64], n_links: usize, cap: f64) -> Vec<f64> {
    let tol = if paths.len() > 100_000 { 0.02 } else { 1e-9 };
    let rates = max_min_rates_approx(paths, n_links, cap, tol);
    sizes
        .iter()
        .zip(&rates)
        .map(|(&s, &r)| s as f64 / r.max(1e-9))
        .collect()
}

/// Event-driven fluid simulation with arrivals and departures.
pub struct FluidSim {
    paths: Vec<Vec<u32>>,
    sizes: Vec<f64>,
    starts: Vec<f64>,
    n_links: usize,
    cap: f64,
}

impl FluidSim {
    /// Creates a fluid simulation over the given flows.
    pub fn new(
        paths: Vec<Vec<u32>>,
        sizes: Vec<u64>,
        starts: Vec<f64>,
        n_links: usize,
        cap: f64,
    ) -> Self {
        assert_eq!(paths.len(), sizes.len());
        assert_eq!(paths.len(), starts.len());
        FluidSim {
            paths,
            sizes: sizes.into_iter().map(|s| s as f64).collect(),
            starts,
            n_links,
            cap,
        }
    }

    /// Runs to completion; returns per-flow FCT in seconds.
    pub fn run(self) -> Vec<f64> {
        let nf = self.paths.len();
        let mut remaining = self.sizes.clone();
        let mut finish = vec![0.0f64; nf];
        let mut order: Vec<u32> = (0..nf as u32).collect();
        order.sort_by(|&a, &b| self.starts[a as usize].total_cmp(&self.starts[b as usize]));
        let mut arrived = 0usize;
        let mut active: Vec<u32> = Vec::new();
        let mut t = 0.0f64;
        loop {
            // Rates for the currently active set.
            let act_paths: Vec<Vec<u32>> = active
                .iter()
                .map(|&i| self.paths[i as usize].clone())
                .collect();
            let rates = max_min_rates(&act_paths, self.n_links, self.cap);
            // Next event: earliest completion vs next arrival.
            let mut dt_complete = f64::INFINITY;
            for (k, &i) in active.iter().enumerate() {
                if rates[k] > 0.0 {
                    dt_complete = dt_complete.min(remaining[i as usize] / rates[k]);
                }
            }
            let next_arrival = if arrived < nf {
                self.starts[order[arrived] as usize]
            } else {
                f64::INFINITY
            };
            if dt_complete.is_infinite() && next_arrival.is_infinite() {
                break;
            }
            if t + dt_complete <= next_arrival {
                // Advance to the completion.
                t += dt_complete;
                let mut still = Vec::with_capacity(active.len());
                for (k, &i) in active.iter().enumerate() {
                    remaining[i as usize] -= rates[k] * dt_complete;
                    if remaining[i as usize] <= 1e-6 {
                        finish[i as usize] = t;
                    } else {
                        still.push(i);
                    }
                }
                active = still;
            } else {
                // Advance to the arrival.
                let dt = next_arrival - t;
                for (k, &i) in active.iter().enumerate() {
                    remaining[i as usize] -= rates[k] * dt;
                }
                t = next_arrival;
                while arrived < nf && self.starts[order[arrived] as usize] <= t {
                    active.push(order[arrived]);
                    arrived += 1;
                }
            }
        }
        (0..nf).map(|i| finish[i] - self.starts[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_gets_capacity() {
        let rates = max_min_rates(&[vec![0, 1]], 2, 10.0);
        assert_eq!(rates, vec![10.0]);
    }

    #[test]
    fn shared_link_splits_fairly() {
        let rates = max_min_rates(&[vec![0], vec![0], vec![0, 1]], 2, 9.0);
        assert!((rates[0] - 3.0).abs() < 1e-9);
        assert!((rates[1] - 3.0).abs() < 1e-9);
        assert!((rates[2] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn two_bottlenecks_symmetric() {
        // A on link0, B on link1, C on both, uniform cap 4: every link has
        // 2 flows at fair share 2, so max-min gives everyone 2.
        let rates = max_min_rates(&[vec![0], vec![1], vec![0, 1]], 2, 4.0);
        assert!(rates.iter().all(|&r| (r - 2.0).abs() < 1e-9), "{rates:?}");
    }

    #[test]
    fn water_fills_in_stages() {
        // link0 carries {A, C, D}, link1 carries {B, C}. Uniform cap 6:
        // stage 1 freezes link0's flows at 2; stage 2 lifts B to 6−2 = 4.
        let paths = vec![vec![0], vec![1], vec![0, 1], vec![0]];
        let rates = max_min_rates(&paths, 2, 6.0);
        assert!((rates[0] - 2.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[2] - 2.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[3] - 2.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 4.0).abs() < 1e-9, "{rates:?}");
    }

    #[test]
    fn bulk_fcts_scale_with_collisions() {
        // Two flows sharing one link take twice as long as a lone flow.
        let lone = bulk_fcts(&[vec![0]], &[100], 1, 10.0);
        let pair = bulk_fcts(&[vec![0], vec![0]], &[100, 100], 1, 10.0);
        assert!((lone[0] - 10.0).abs() < 1e-9);
        assert!((pair[0] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn event_driven_matches_analytic_sequence() {
        // Flow A starts at t=0 (size 10, cap 10); flow B at t=0.5 shares
        // the link. A: 5 done by 0.5, then rate 5 → 1 more second for the
        // remaining 5 ⇒ finish 1.5, FCT 1.5. B: gets 5 for 1s → 5 of 10 at
        // 1.5, then full 10 ⇒ finishes at 2.0, FCT 1.5.
        let sim = FluidSim::new(
            vec![vec![0], vec![0]],
            vec![10, 10],
            vec![0.0, 0.5],
            1,
            10.0,
        );
        let fct = sim.run();
        assert!((fct[0] - 1.5).abs() < 1e-6, "{:?}", fct);
        assert!((fct[1] - 1.5).abs() < 1e-6, "{:?}", fct);
    }

    #[test]
    fn link_space_ids_disjoint() {
        let t = fatpaths_net::topo::slimfly::slim_fly(5, 2).unwrap();
        let ls = LinkSpace::new(&t);
        let up = ls.uplink(0);
        let down = ls.downlink(0);
        let rl = ls.router_link(0, t.graph.neighbors(0)[0]);
        assert!(rl < up && up < down);
        assert!((down as usize) < ls.len());
        // Directionality.
        let v = t.graph.neighbors(0)[0];
        assert_ne!(ls.router_link(0, v), ls.router_link(v, 0));
    }
}
