//! Matrix-multiplication path counting (Appendix B).
//!
//! For adjacency matrix `A`, cell `(i,j)` of `A^l` counts length-`l` walks
//! from `i` to `j` (Theorem 1). We provide a dense saturating-`u64`
//! implementation for validation of the BFS-based counters. The minimal
//! next-hop sets of Appendix B-1 come from the all-pairs distances instead
//! (`fatpaths_core::ecmp::DistanceMatrix::minimal_port_set`).

use fatpaths_net::graph::{Graph, RouterId};

/// Dense square matrix of saturating path counts.
#[derive(Clone, Debug, PartialEq)]
pub struct CountMatrix {
    n: usize,
    data: Vec<u64>,
}

impl CountMatrix {
    /// Adjacency matrix of `g` (1 where an edge exists).
    pub fn adjacency(g: &Graph) -> Self {
        let n = g.n();
        let mut data = vec![0u64; n * n];
        for u in 0..n as u32 {
            for &v in g.neighbors(u) {
                data[u as usize * n + v as usize] = 1;
            }
        }
        CountMatrix { n, data }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut data = vec![0u64; n * n];
        for i in 0..n {
            data[i * n + i] = 1;
        }
        CountMatrix { n, data }
    }

    /// Entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: RouterId, j: RouterId) -> u64 {
        self.data[i as usize * self.n + j as usize]
    }

    /// Saturating matrix product `self · other`.
    pub fn mul(&self, other: &CountMatrix) -> CountMatrix {
        assert_eq!(self.n, other.n);
        let n = self.n;
        let mut out = vec![0u64; n * n];
        for i in 0..n {
            for k in 0..n {
                let a = self.data[i * n + k];
                if a == 0 {
                    continue;
                }
                let row_k = &other.data[k * n..(k + 1) * n];
                let row_o = &mut out[i * n..(i + 1) * n];
                for (o, &b) in row_o.iter_mut().zip(row_k) {
                    *o = o.saturating_add(a.saturating_mul(b));
                }
            }
        }
        CountMatrix { n, data: out }
    }

    /// `A^l` by repeated multiplication (walk counts at exactly `l` steps).
    pub fn power(g: &Graph, l: u32) -> CountMatrix {
        let a = CountMatrix::adjacency(g);
        let mut acc = CountMatrix::identity(g.n());
        for _ in 0..l {
            acc = acc.mul(&a);
        }
        acc
    }
}

/// Number of *shortest* paths between all pairs via the matrix method: the
/// count in `A^lmin(i,j)` restricted to first-time reachability. Returns a
/// matrix `S` with `S[i][j]` = number of shortest `i→j` paths.
pub fn shortest_path_count_matrix(g: &Graph) -> CountMatrix {
    let n = g.n();
    let a = CountMatrix::adjacency(g);
    let mut reach = CountMatrix::identity(n); // walks of length ≤ current
    let mut seen: Vec<bool> = vec![false; n * n];
    let mut out = vec![0u64; n * n];
    for i in 0..n {
        seen[i * n + i] = true;
        out[i * n + i] = 1;
    }
    for _ in 0..n {
        reach = reach.mul(&a);
        let mut new_any = false;
        for idx in 0..n * n {
            if !seen[idx] && reach.data[idx] > 0 {
                seen[idx] = true;
                out[idx] = reach.data[idx];
                new_any = true;
            }
        }
        if !new_any {
            break;
        }
    }
    CountMatrix { n, data: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp::count_shortest_paths;

    #[test]
    fn theorem_1_walk_counts_on_triangle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        let a2 = CountMatrix::power(&g, 2);
        // Walks of length 2 from 0 to 0: 0-1-0 and 0-2-0.
        assert_eq!(a2.get(0, 0), 2);
        // 0 to 1 in 2 steps: 0-2-1 only.
        assert_eq!(a2.get(0, 1), 1);
    }

    #[test]
    fn matrix_matches_bfs_shortest_counts() {
        let t = fatpaths_net::topo::hyperx::hyperx(2, 3, 1);
        let m = shortest_path_count_matrix(&t.graph);
        for s in 0..t.num_routers() as u32 {
            let bfs = count_shortest_paths(&t.graph, s);
            for v in 0..t.num_routers() as u32 {
                assert_eq!(m.get(s, v), bfs[v as usize], "({s},{v})");
            }
        }
    }
}
