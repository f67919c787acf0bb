//! Flow-level max-min fluid simulator for huge-scale runs (Fig. 13 at
//! ≈1M endpoints, where a packet-level run is out of reach; the
//! `large_scale` experiment module states why the substitution holds).
//!
//! Each flow owns a fixed path of directed link ids (router links plus the
//! endpoint access links). Rates follow max-min fairness via progressive
//! filling. [`bulk_fcts`] runs all flows concurrently through one
//! water-filling pass and derives each FCT from its rate; the FCT
//! *distribution shape* is governed by path-collision multiplicity, which
//! is what Fig. 13's histograms display.

use fatpaths_net::graph::Graph;
use fatpaths_net::topo::Topology;

/// Directed-link id space for a topology: `2*edge + dir` for router links,
/// then per-endpoint uplinks and downlinks.
#[derive(Clone, Debug)]
pub struct LinkSpace<'a> {
    graph: &'a Graph,
    arc_eids: Vec<u32>,
    m: usize,
    ne: usize,
}

impl<'a> LinkSpace<'a> {
    /// Builds the id space for `topo`.
    pub fn new(topo: &'a Topology) -> Self {
        LinkSpace {
            graph: &topo.graph,
            arc_eids: topo.graph.arc_edge_ids(),
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
    fn router_link(&self, u: u32, v: u32) -> u32 {
        let e = self
            .graph
            .edge_id(&self.arc_eids, u, v)
            .expect("path hops are links");
        2 * e + u32::from(u > v)
    }

    /// Uplink id of endpoint `e`.
    fn uplink(&self, e: u32) -> u32 {
        (2 * self.m) as u32 + e
    }

    /// Downlink id of endpoint `e`.
    fn downlink(&self, e: u32) -> u32 {
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
fn max_min_rates_approx(paths: &[Vec<u32>], n_links: usize, cap: f64, tol: f64) -> Vec<f64> {
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
