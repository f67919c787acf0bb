//! Three-stage fat tree (folded Clos) — Leiserson's CM-5 network as
//! commoditized by Al-Fares et al. (SIGCOMM'08).
//!
//! For even radix `k`: `k` pods, each with `k/2` edge and `k/2` aggregation
//! routers; `(k/2)²` core routers. Full bisection attaches `k/2` endpoints
//! per edge router (`N = k³/4`); the paper's performance comparisons use
//! 2×-oversubscribed fat trees (`k` endpoints per edge router) to match the
//! cost of the low-diameter networks (§VII-A1).

use super::{LinkClass, TopoKind, Topology};

/// Builds a 3-stage fat tree of radix `k` (must be even) with
/// `oversubscription ∈ {1, 2, …}` endpoints-per-uplink ratio at the edge:
/// each edge router hosts `oversubscription · k/2` endpoints.
///
/// Router id layout: edge routers `[0, k²/2)` (pod-major), aggregation
/// `[k²/2, k²)`, core `[k², k² + k²/4)`.
pub fn fat_tree(k: u32, oversubscription: u32) -> Topology {
    assert!(k >= 2 && k.is_multiple_of(2), "fat tree radix must be even");
    assert!(oversubscription >= 1);
    let half = k / 2;
    let pods = k;
    let edge_count = pods * half;
    let agg_count = pods * half;
    let core_count = half * half;
    let nr = (edge_count + agg_count + core_count) as usize;
    let edge_id = |pod: u32, i: u32| pod * half + i;
    let agg_id = |pod: u32, j: u32| edge_count + pod * half + j;
    let core_id = |j: u32, c: u32| edge_count + agg_count + j * half + c;
    let mut edges = Vec::new();
    for pod in 0..pods {
        for i in 0..half {
            for j in 0..half {
                edges.push((edge_id(pod, i), agg_id(pod, j), LinkClass::Short));
            }
        }
        // Aggregation router j of every pod connects to core group j.
        for j in 0..half {
            for c in 0..half {
                edges.push((agg_id(pod, j), core_id(j, c), LinkClass::Long));
            }
        }
    }
    let p_edge = oversubscription * half;
    let mut conc = vec![0u32; nr];
    conc[..edge_count as usize].fill(p_edge);
    let mut topo = Topology::assemble(
        TopoKind::FatTree,
        format!("FT3(k={k},os={oversubscription})"),
        nr,
        edges,
        conc,
        4,
    );
    // Maintenance domains: each pod's aggregation layer — the routers a
    // rolling firmware upgrade walks together, and whose loss cuts the
    // pod's only uplinks.
    topo.domains = (0..pods)
        .map(|pod| agg_id(pod, 0)..agg_id(pod, half - 1) + 1)
        .collect();
    topo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_v_counts_full_bisection() {
        // Table V: Nr = 5⌊k²/4⌋, N = ⌊k²/2⌋ · k/2 = k³/4.
        for k in [4u32, 8, 12] {
            let t = fat_tree(k, 1);
            assert_eq!(t.num_routers() as u32, 5 * k * k / 4, "k={k}");
            assert_eq!(t.num_endpoints() as u32, k * k * k / 4, "k={k}");
        }
    }

    #[test]
    fn diameter_four_and_radix() {
        let t = fat_tree(8, 1);
        let (d, _) = t.graph.diameter_apl();
        assert_eq!(d, 4);
        // Edge routers: k/2 uplinks; agg: k; core: k.
        assert_eq!(t.graph.degree(0), 4); // edge: k/2 = 4 uplinks
        assert_eq!(t.graph.degree(8 * 8 / 2), 8); // agg: k
        assert_eq!(t.graph.degree(8 * 8), 8); // core: k
    }

    #[test]
    fn paper_config_k36() {
        // Table IV: FT3 with k'=18 (edge uplinks), Nr=1620, N=11664.
        let t = fat_tree(36, 1);
        assert_eq!(t.num_routers(), 1620);
        assert_eq!(t.num_endpoints(), 11664);
        assert_eq!(t.graph.degree(0), 18);
    }

    #[test]
    fn oversubscription_doubles_endpoints() {
        let t1 = fat_tree(8, 1);
        let t2 = fat_tree(8, 2);
        assert_eq!(t2.num_endpoints(), 2 * t1.num_endpoints());
        assert_eq!(t2.graph.m(), t1.graph.m());
    }

    #[test]
    fn intra_pod_paths_shorter_than_inter_pod() {
        let t = fat_tree(4, 1);
        let d = t.graph.bfs(0);
        // Edge 0 and edge 1 share pod 0: distance 2 (via agg).
        assert_eq!(d[1], 2);
        // Edge of another pod: distance 4 (edge-agg-core-agg-edge).
        assert_eq!(d[2], 4);
    }
}
