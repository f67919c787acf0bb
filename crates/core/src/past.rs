//! PAST comparison baseline (Stephens et al., CoNEXT'12; Listing 5,
//! Appendix C-C).
//!
//! PAST installs one spanning tree *per destination address*; a router
//! forwards toward a destination along that destination's unique tree path.
//! Multi-pathing between a fixed pair is therefore impossible (§VI), which
//! is exactly the deficiency Fig. 9 quantifies. Each tree is a BFS tree
//! rooted at its destination with random tie-breaking, which distributes
//! the trees over the links.

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

/// The per-destination spanning trees: `parent[dst][v]` = next hop of `v`
/// toward `dst` along `dst`'s tree (`u32::MAX` at `dst` itself).
#[derive(Clone, Debug)]
pub struct PastTrees {
    parent: Vec<Vec<u32>>,
}

impl PastTrees {
    /// Builds one spanning tree per destination router.
    pub fn build(g: &Graph, seed: u64) -> Self {
        let parent = (0..g.n() as u32)
            .map(|dst| {
                let mut rng =
                    StdRng::seed_from_u64(seed ^ (0xD1F9_6E37u64.wrapping_mul(dst as u64 + 1)));
                tree_toward(g, dst, &mut rng)
            })
            .collect();
        PastTrees { parent }
    }

    /// Next hop of `src` toward `dst` in `dst`'s tree.
    #[inline]
    pub fn next_hop(&self, src: RouterId, dst: RouterId) -> Option<RouterId> {
        let p = self.parent[dst as usize][src as usize];
        (p != u32::MAX).then_some(p)
    }

    /// Full path `src → dst` (unique in PAST).
    pub fn path(&self, src: RouterId, dst: RouterId) -> Option<Vec<RouterId>> {
        let mut path = vec![src];
        let mut cur = src;
        let n = self.parent.len();
        while cur != dst {
            cur = self.next_hop(cur, dst)?;
            path.push(cur);
            if path.len() > n + 1 {
                return None; // defensive; trees cannot loop
            }
        }
        Some(path)
    }

    /// Number of trees (= number of destinations = `Nr`), the layer cost
    /// §VI-B charges PAST with.
    pub fn num_trees(&self) -> usize {
        self.parent.len()
    }
}

/// The BFS spanning tree rooted at `dst`, neighbours visited in a
/// shuffled order: every router's parent pointer walks to `dst`.
fn tree_toward(g: &Graph, dst: RouterId, rng: &mut StdRng) -> Vec<u32> {
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
        nbs.shuffle(rng);
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
    use super::*;
    use fatpaths_net::topo::slimfly::slim_fly;

    #[test]
    fn paths_reach_destination() {
        let t = slim_fly(5, 1).unwrap();
        let trees = PastTrees::build(&t.graph, 3);
        for (s, d) in [(0u32, 17u32), (44, 3), (10, 10)] {
            if s == d {
                continue;
            }
            let p = trees.path(s, d).unwrap();
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
        let trees = PastTrees::build(&t.graph, 1);
        let d0 = t.graph.bfs(17);
        for s in 0..t.num_routers() as u32 {
            if s == 17 {
                continue;
            }
            let p = trees.path(s, 17).unwrap();
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
        let trees = PastTrees::build(&t.graph, 2);
        let p1 = trees.path(3, 40).unwrap();
        let p2 = trees.path(3, 40).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(trees.num_trees(), t.num_routers());
    }
}
