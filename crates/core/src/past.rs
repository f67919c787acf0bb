//! PAST comparison baseline (Stephens et al., CoNEXT'12; Listing 5,
//! Appendix C-C).
//!
//! PAST installs one spanning tree *per destination address*; a router
//! forwards toward a destination along that destination's unique tree path.
//! Multi-pathing between a fixed pair is therefore impossible (§VI), which
//! is exactly the deficiency Fig. 9 quantifies. Each tree is a BFS tree
//! rooted at its destination with random tie-breaking, which distributes
//! the trees over the links. [`PortTables::past`](crate::PortTables::past)
//! writes each tree as its destination's row of one port-table layer, the
//! tables both the simulator and Fig. 9 read.

use fatpaths_net::graph::{Graph, RouterId};
use rand::prelude::*;
use rand::rngs::StdRng;

/// The PAST tree construction a scheme spec names; the destination-rooted
/// BFS tree is the only one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PastVariant {
    /// Destination-rooted BFS with random tie-breaking.
    Bfs,
}

/// `dst`'s tree: the BFS spanning tree rooted at `dst`, neighbours
/// visited in a shuffled order. Entry `v` is `v`'s parent, its next hop
/// toward `dst` (`u32::MAX` at `dst` itself, and where `dst` is
/// unreachable). Each destination shuffles from its own seed, derived
/// from `seed` and `dst`, so one tree does not depend on which others
/// are built.
pub(crate) fn tree_toward(g: &Graph, dst: RouterId, seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed ^ (0xD1F9_6E37u64.wrapping_mul(dst as u64 + 1)));
    let nr = g.n();
    let mut order: Vec<u32> = Vec::with_capacity(nr);
    let mut parent = vec![u32::MAX; nr];
    let mut visited = vec![false; nr];
    visited[dst as usize] = true;
    order.push(dst);
    let mut head = 0;
    let mut nbs: Vec<u32> = Vec::new();
    while head < order.len() {
        let u = order[head];
        head += 1;
        nbs.clear();
        nbs.extend_from_slice(g.neighbors(u));
        nbs.shuffle(&mut rng);
        for &v in &nbs {
            if !visited[v as usize] {
                visited[v as usize] = true;
                parent[v as usize] = u;
                order.push(v);
            }
        }
    }
    parent
}

#[cfg(test)]
mod tests {
    use crate::PortTables;
    use fatpaths_net::topo::slimfly::slim_fly;

    #[test]
    fn paths_reach_destination() {
        let t = slim_fly(5, 1).unwrap();
        let ps = PortTables::past(&t.graph, 3);
        for (s, d) in [(0u32, 17u32), (44, 3), (10, 10)] {
            if s == d {
                continue;
            }
            let p = ps.path(&t.graph, 0, s, d).unwrap();
            assert_eq!(*p.first().unwrap(), s);
            assert_eq!(*p.last().unwrap(), d);
            for w in p.windows(2) {
                assert!(t.graph.has_edge(w[0], w[1]));
            }
        }
    }

    #[test]
    fn bfs_variant_is_minimal() {
        let t = slim_fly(5, 1).unwrap();
        let ps = PortTables::past(&t.graph, 1);
        let d0 = t.graph.bfs(17);
        for s in 0..t.num_routers() as u32 {
            if s == 17 {
                continue;
            }
            let p = ps.path(&t.graph, 0, s, 17).unwrap();
            assert_eq!(
                p.len() as u32 - 1,
                d0[s as usize],
                "PAST-BFS path not minimal"
            );
        }
    }

    #[test]
    fn single_path_per_pair() {
        // PAST's defining limitation: the path is unique per (src, dst).
        let t = slim_fly(5, 1).unwrap();
        let ps = PortTables::past(&t.graph, 2);
        assert_eq!(ps.n_layers(), 1);
        assert_eq!(ps.paths(&t.graph, 3, 40).len(), 1);
    }
}
