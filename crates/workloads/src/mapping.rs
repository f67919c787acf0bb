//! Randomized workload mapping (§III-D).
//!
//! FatPaths optionally places communicating endpoints on routers chosen
//! u.a.r., spreading load over the rich inter-group path diversity of
//! low-diameter networks. Concretely: a u.a.r. permutation of endpoint ids
//! is applied to both ends of every flow. Skewed experiments (Fig. 11) skip
//! this step.

use rand::prelude::*;
use rand::rngs::StdRng;

/// A u.a.r. endpoint permutation.
pub fn random_mapping(n: u32, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    perm.shuffle(&mut rng);
    perm
}

/// Applies a mapping to both ends of each flow pair.
pub fn apply_mapping(mapping: &[u32], pairs: &[(u32, u32)]) -> Vec<(u32, u32)> {
    pairs
        .iter()
        .map(|&(s, t)| (mapping[s as usize], mapping[t as usize]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_is_permutation() {
        let m = random_mapping(100, 5);
        let mut s = m.clone();
        s.sort_unstable();
        assert_eq!(s, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn apply_preserves_flow_count_and_distinctness() {
        let m = random_mapping(10, 1);
        let pairs = [(0u32, 1u32), (2, 3)];
        let out = apply_mapping(&m, &pairs);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|&(a, b)| a != b));
    }

    #[test]
    fn randomization_breaks_router_alignment() {
        // An adversarial aligned pattern stops being aligned after mapping:
        // destination routers spread out.
        let p = 4u32;
        let n = 400u32;
        let pairs: Vec<(u32, u32)> = (0..n).map(|s| (s, (s + p * 7) % n)).collect();
        let m = random_mapping(n, 2);
        let mapped = apply_mapping(&m, &pairs);
        let mut dst_routers: Vec<u32> = mapped.iter().map(|&(_, t)| t / p).collect();
        dst_routers.sort_unstable();
        dst_routers.dedup();
        // Aligned pattern hits 100 routers with p-way collisions; randomized
        // mapping should hit nearly all routers with low multiplicity.
        assert!(dst_routers.len() > 80);
    }
}
