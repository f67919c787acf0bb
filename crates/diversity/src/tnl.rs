//! Total Network Load (TNL) — §IV-B3.
//!
//! A topology with `k'·Nr` directed link capacities and average path length
//! `d` can sustain at most `#flows ≤ k'·Nr / d` conflict-free flows: each
//! flow of length `l` "consumes" `l` links. TNL is therefore the maximum
//! supply of path diversity a topology offers, and explains why non-minimal
//! routing (larger effective `d`) trades throughput for tail latency
//! (§V-B1, Fig. 12).

use fatpaths_net::topo::Topology;

/// TNL upper bound `k'·Nr / d` with explicit average path length `d`
/// (which depends on the *routing*, not just the topology: Valiant doubles
/// it, minimal routing keeps `d ≤ D`).
fn total_network_load(topo: &Topology, avg_path_len: f64) -> f64 {
    assert!(avg_path_len > 0.0);
    let kprime = topo.network_radix() as f64;
    let nr = topo.num_routers() as f64;
    kprime * nr / avg_path_len
}

/// TNL under minimal routing: uses the topology's exact average shortest
/// path length (exact for ≤ `exact_limit` routers, else sampled).
pub fn tnl_minimal(topo: &Topology, exact_limit: usize) -> f64 {
    let (_, d) = if topo.num_routers() <= exact_limit {
        topo.graph.diameter_apl()
    } else {
        topo.graph.diameter_apl_sampled(128)
    };
    total_network_load(topo, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatpaths_net::topo::{complete::complete, slimfly::slim_fly};

    #[test]
    fn clique_tnl_is_all_links() {
        // d = 1 ⇒ TNL = k'·Nr = 2m (each link usable by one flow per
        // direction).
        let t = complete(10, 10);
        let tnl = tnl_minimal(&t, 1000);
        assert!((tnl - (10.0 * 11.0)).abs() < 1e-9);
    }

    #[test]
    fn longer_paths_reduce_tnl() {
        let t = slim_fly(7, 5).unwrap();
        let minimal = tnl_minimal(&t, 1000);
        let valiant = total_network_load(&t, 2.0 * 1.9); // Valiant ≈ doubles d
        assert!(valiant < minimal);
    }
}
