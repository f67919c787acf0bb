//! Traffic patterns (§II-C).
//!
//! A pattern maps source endpoints to destination endpoints. The paper's
//! selection covers irregular workloads (random uniform, random
//! permutation), collectives (off-diagonals, shuffle), HPC stencils
//! (4-point off-diagonal combinations), and stress patterns (skewed
//! adversarial off-diagonal; the per-topology worst case lives in
//! `fatpaths-mcf::worstcase`).

use rand::prelude::*;
use rand::rngs::StdRng;

/// A traffic pattern over `N` endpoints.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// `t(s)` uniform at random (fresh draw per source).
    Uniform,
    /// `t(s) = π(s)` for a u.a.r. permutation π.
    Permutation,
    /// `t(s) = (s + c) mod N`.
    OffDiagonal {
        /// The diagonal offset `c`.
        offset: u64,
    },
    /// `t(s) = rotl_i(s) mod N` — bitwise left rotation on `i` bits where
    /// `2^i < N ≤ 2^(i+1)` (MPI all-to-all-style shuffle).
    Shuffle,
    /// Multiple off-diagonals at fixed offsets (2D stencils use
    /// `{±1, ±42}`; large runs `{±1, ±1337}`), 4× oversubscribed.
    Stencil {
        /// Signed diagonal offsets, one flow per source per offset.
        offsets: Vec<i64>,
    },
    /// `k` independent random permutations in parallel (k× oversubscribed).
    MultiPermutation {
        /// Number of parallel permutations.
        k: usize,
    },
    /// Skewed off-diagonal with a large offset that is a multiple of the
    /// concentration `p`, so all `p` endpoints of a router collide on the
    /// same destination router (§VII-B2: "the traffic causes p-way
    /// collisions").
    AdversarialOffDiagonal {
        /// Concentration of the target topology.
        p: u64,
        /// Router-level offset multiplier.
        router_offset: u64,
    },
}

impl Pattern {
    /// Short label used in result files.
    pub fn label(&self) -> String {
        match self {
            Pattern::Uniform => "uniform".into(),
            Pattern::Permutation => "permutation".into(),
            Pattern::OffDiagonal { offset } => format!("offdiag{offset}"),
            Pattern::Shuffle => "shuffle".into(),
            Pattern::Stencil { offsets } => format!("stencil{}", offsets.len()),
            Pattern::MultiPermutation { k } => format!("{k}perms"),
            Pattern::AdversarialOffDiagonal { .. } => "adversarial".into(),
        }
    }

    /// The canonical 2D stencil of the paper: offsets `{±1, ±42}`.
    pub fn stencil_small() -> Pattern {
        Pattern::Stencil {
            offsets: vec![1, -1, 42, -42],
        }
    }

    /// Generates the flow pair list `(src, dst)` over `n` endpoints.
    /// Self-flows are skipped. Deterministic in `seed`.
    pub fn flows(&self, n: u64, seed: u64) -> Vec<(u32, u32)> {
        assert!(n >= 2 && n <= u32::MAX as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = Vec::new();
        match self {
            Pattern::Uniform => {
                for s in 0..n {
                    let t = loop {
                        let t = rng.random_range(0..n);
                        if t != s {
                            break t;
                        }
                    };
                    out.push((s as u32, t as u32));
                }
            }
            Pattern::Permutation => {
                out = one_permutation(n, &mut rng);
            }
            Pattern::MultiPermutation { k } => {
                for _ in 0..*k {
                    out.extend(one_permutation(n, &mut rng));
                }
            }
            Pattern::OffDiagonal { offset } => {
                let c = offset % n;
                if c != 0 {
                    for s in 0..n {
                        out.push((s as u32, ((s + c) % n) as u32));
                    }
                }
            }
            Pattern::Shuffle => {
                let bits = (64 - (n - 1).leading_zeros() as u64 - 1).max(1); // 2^i < n
                for s in 0..n {
                    let t = rotl(s, bits as u32) % n;
                    if t != s {
                        out.push((s as u32, t as u32));
                    }
                }
            }
            Pattern::Stencil { offsets } => {
                for &c in offsets {
                    let c = c.rem_euclid(n as i64) as u64;
                    if c == 0 {
                        continue;
                    }
                    for s in 0..n {
                        out.push((s as u32, ((s + c) % n) as u32));
                    }
                }
            }
            Pattern::AdversarialOffDiagonal { p, router_offset } => {
                let c = (p * router_offset) % n;
                if c != 0 {
                    for s in 0..n {
                        out.push((s as u32, ((s + c) % n) as u32));
                    }
                }
            }
        }
        out
    }
}

/// Default adversarial pattern for a topology with `nr` routers and
/// concentration `p`: router-level offset ≈ `nr/2 + 1` (large, skewed).
pub fn adversarial_for(p: u32, nr: u32) -> Pattern {
    Pattern::AdversarialOffDiagonal {
        p: p as u64,
        router_offset: (nr / 2 + 1) as u64,
    }
}

fn one_permutation(n: u64, rng: &mut StdRng) -> Vec<(u32, u32)> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(rng);
    (0..n as u32).zip(perm).filter(|&(s, t)| s != t).collect()
}

/// Rotate the low `bits`+1 bits of `s` left by one position — the paper's
/// `rotl_i` shuffle on the smallest power of two ≥ N... here per-value.
fn rotl(s: u64, bits: u32) -> u64 {
    let width = bits + 1;
    let mask = (1u64 << width) - 1;
    let x = s & mask;
    let rotated = ((x << 1) | (x >> (width - 1))) & mask;
    (s & !mask) | rotated
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_bijection() {
        let flows = Pattern::Permutation.flows(100, 3);
        let mut dsts: Vec<u32> = flows.iter().map(|&(_, t)| t).collect();
        dsts.sort_unstable();
        dsts.dedup();
        assert_eq!(dsts.len(), flows.len());
        assert!(flows.len() >= 94); // only a handful of fixed points removed
        assert!(flows.iter().all(|&(s, t)| s != t));
    }

    #[test]
    fn off_diagonal_wraps() {
        let flows = Pattern::OffDiagonal { offset: 3 }.flows(10, 0);
        assert_eq!(flows.len(), 10);
        assert_eq!(flows[9], (9, 2));
    }

    #[test]
    fn stencil_is_4x_oversubscribed() {
        let flows = Pattern::stencil_small().flows(1000, 1);
        assert_eq!(flows.len(), 4000);
    }

    #[test]
    fn adversarial_aligns_routers() {
        // With p=4 and router_offset=7, endpoints of router r all hit
        // router (r+7): p-way collisions on every router pair.
        let p = 4u64;
        let flows = Pattern::AdversarialOffDiagonal {
            p,
            router_offset: 7,
        }
        .flows(400, 0);
        for &(s, t) in &flows {
            assert_eq!((t as u64 / p + 100 - s as u64 / p) % 100, 7);
        }
    }

    #[test]
    fn shuffle_is_deterministic_and_nontrivial() {
        let a = Pattern::Shuffle.flows(100, 1);
        let b = Pattern::Shuffle.flows(100, 2);
        assert_eq!(a, b); // seed-independent by construction
        assert!(!a.is_empty());
        assert!(a.iter().all(|&(s, t)| s != t));
    }

    #[test]
    fn uniform_deterministic_in_seed() {
        let a = Pattern::Uniform.flows(50, 9);
        let b = Pattern::Uniform.flows(50, 9);
        let c = Pattern::Uniform.flows(50, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn multi_permutation_count() {
        let flows = Pattern::MultiPermutation { k: 4 }.flows(64, 5);
        assert!(flows.len() >= 4 * 62 && flows.len() <= 4 * 64);
    }
}
