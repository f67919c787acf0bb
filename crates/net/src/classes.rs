//! Comparable-cost topology configurations by size class (§II-B, §VII-A2).
//!
//! The paper evaluates four size classes — small (≈1k), medium (≈10k),
//! large (≈100k, in practice ≈80k in Fig. 13), huge (≈1M endpoints) — and,
//! within each class, picks per-topology parameters so that endpoint counts
//! and hardware budgets are as close as the discrete parameter spaces allow.
//! Concentration follows the `p = k'/D` rule of §II-B (shown in §VII to
//! maximize throughput at minimum cost for random uniform traffic).
//!
//! The medium-class entries reproduce the paper's Table IV configurations
//! exactly.

use crate::topo::{
    complete::complete, dragonfly::dragonfly, fattree::fat_tree, hyperx::hyperx,
    jellyfish::equivalent_jellyfish, slimfly::slim_fly, xpander::xpander, TopoKind, Topology,
};

/// The paper's four network size classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// ≈ 1,000 endpoints.
    Small,
    /// ≈ 10,000 endpoints (the paper's Table IV / main-evaluation class).
    Medium,
    /// ≈ 80,000–100,000 endpoints (Fig. 13 left/middle).
    Large,
    /// ≈ 1,000,000 endpoints (Fig. 13 right).
    Huge,
}

impl SizeClass {
    /// Nominal endpoint count of the class.
    fn nominal_endpoints(self) -> usize {
        match self {
            SizeClass::Small => 1_000,
            SizeClass::Medium => 10_000,
            SizeClass::Large => 80_000,
            SizeClass::Huge => 1_000_000,
        }
    }

    /// All classes in ascending size order.
    pub fn all() -> [SizeClass; 4] {
        [
            SizeClass::Small,
            SizeClass::Medium,
            SizeClass::Large,
            SizeClass::Huge,
        ]
    }
}

/// Builds the canonical comparable-cost instance of `kind` in `class`.
///
/// Seeds only matter for randomized topologies (JF, XP). Jellyfish here is
/// the Slim Fly-equivalent instance (`SF-JF`), the representative the paper
/// shows when space is limited (§VII-A8); use
/// [`equivalent_jellyfish`] directly for other `X-JF` controls.
pub fn build(kind: TopoKind, class: SizeClass, seed: u64) -> Topology {
    use SizeClass::*;
    match (kind, class) {
        // ---- Slim Fly: q prime, Nr = 2q², k' = (3q∓1)/2, p = ⌊k'/2⌋ ----
        (TopoKind::SlimFly, Small) => slim_fly(11, 8).unwrap(), // N=1,936
        (TopoKind::SlimFly, Medium) => slim_fly(19, 14).unwrap(), // N=10,108 (Table IV)
        (TopoKind::SlimFly, Large) => slim_fly(37, 28).unwrap(), // N=76,664
        (TopoKind::SlimFly, Huge) => slim_fly(89, 66).unwrap(), // N=1,045,572
        // ---- Dragonfly: N = 4p⁴+2p², k' = 3p−1 ----
        (TopoKind::Dragonfly, Small) => dragonfly(4), // N=1,056
        (TopoKind::Dragonfly, Medium) => dragonfly(8), // N=16,512 (Table IV)
        (TopoKind::Dragonfly, Large) => dragonfly(12), // N=83,232
        (TopoKind::Dragonfly, Huge) => dragonfly(22), // N=937,992
        // ---- HyperX: L=3 regular cube, k' = 3(S−1), p = ⌈k'/3⌉ = S−1 ----
        (TopoKind::HyperX, Small) => hyperx(3, 6, 5), // N=1,080
        (TopoKind::HyperX, Medium) => hyperx(3, 11, 10), // N=13,310 (Table IV)
        (TopoKind::HyperX, Large) => hyperx(3, 17, 16), // N=78,608
        (TopoKind::HyperX, Huge) => hyperx(3, 32, 31), // N=1,015,808
        // ---- Xpander: ℓ = k', Nr = k'(k'+1), p = ⌈k'/2⌉ ----
        (TopoKind::Xpander, Small) => xpander(12, 12, 6, seed), // N=936
        (TopoKind::Xpander, Medium) => xpander(32, 32, 16, seed), // N=16,896 (Table IV)
        (TopoKind::Xpander, Large) => xpander(56, 56, 25, seed), // N=79,800
        (TopoKind::Xpander, Huge) => xpander(128, 128, 63, seed), // N=1,040,256
        // ---- Fat tree: 5k²/4 routers, N = os·k³/4 ----
        (TopoKind::FatTree, Small) => fat_tree(16, 1), // N=1,024
        (TopoKind::FatTree, Medium) => fat_tree(28, 2), // N=10,976 (2× oversub, §VII-A1)
        (TopoKind::FatTree, Large) => fat_tree(54, 2), // N=78,732
        (TopoKind::FatTree, Huge) => fat_tree(128, 2), // N=1,048,576
        // ---- Complete graph: p = k' ----
        (TopoKind::Complete, Small) => complete(31, 31), // N=992
        (TopoKind::Complete, Medium) => complete(100, 100), // N=10,100 (Table IV)
        (TopoKind::Complete, Large) => complete(282, 282), // N=79,806
        (TopoKind::Complete, Huge) => complete(1000, 1000), // N=1,001,000
        // ---- Jellyfish: the SF-equivalent control ----
        (TopoKind::Jellyfish, c) => {
            let sf = build(TopoKind::SlimFly, c, seed);
            equivalent_jellyfish(&sf, seed)
        }
        (TopoKind::Star, c) => crate::topo::star::star(c.nominal_endpoints() as u32),
    }
}

/// The five low-diameter topologies + fat tree, in the paper's usual order.
pub fn evaluated_kinds() -> [TopoKind; 6] {
    [
        TopoKind::SlimFly,
        TopoKind::Dragonfly,
        TopoKind::HyperX,
        TopoKind::Xpander,
        TopoKind::Jellyfish,
        TopoKind::FatTree,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medium_class_matches_table_iv() {
        let sf = build(TopoKind::SlimFly, SizeClass::Medium, 1);
        assert_eq!(
            (sf.num_routers(), sf.network_radix(), sf.num_endpoints()),
            (722, 29, 10108)
        );
        let df = build(TopoKind::Dragonfly, SizeClass::Medium, 1);
        assert_eq!(
            (df.num_routers(), df.network_radix(), df.num_endpoints()),
            (2064, 23, 16512)
        );
        let hx = build(TopoKind::HyperX, SizeClass::Medium, 1);
        assert_eq!(
            (hx.num_routers(), hx.network_radix(), hx.num_endpoints()),
            (1331, 30, 13310)
        );
        let xp = build(TopoKind::Xpander, SizeClass::Medium, 1);
        assert_eq!(
            (xp.num_routers(), xp.network_radix(), xp.num_endpoints()),
            (1056, 32, 16896)
        );
        let ft = build(TopoKind::FatTree, SizeClass::Medium, 1);
        assert_eq!(ft.num_routers(), 980);
        assert!((9_000..=17_000).contains(&ft.num_endpoints()));
    }

    #[test]
    fn small_class_sizes_comparable() {
        for kind in evaluated_kinds() {
            let t = build(kind, SizeClass::Small, 7);
            let n = t.num_endpoints();
            assert!(
                (900..=2_000).contains(&n),
                "{:?} small N={n} out of band",
                kind
            );
        }
    }

    #[test]
    fn jf_equivalent_of_sf() {
        let jf = build(TopoKind::Jellyfish, SizeClass::Small, 3);
        let sf = build(TopoKind::SlimFly, SizeClass::Small, 3);
        assert_eq!(jf.num_routers(), sf.num_routers());
        assert_eq!(jf.network_radix(), sf.network_radix());
    }

    #[test]
    fn concentration_rule_p_over_d() {
        // p ≈ k'/D for the low-diameter entries (±1 rounding).
        for (kind, class) in [
            (TopoKind::SlimFly, SizeClass::Medium),
            (TopoKind::HyperX, SizeClass::Medium),
            (TopoKind::Dragonfly, SizeClass::Medium),
        ] {
            let t = build(kind, class, 1);
            let p = t.concentration[0] as f64;
            let expect = t.network_radix() as f64 / t.diameter as f64;
            assert!(
                (p - expect).abs() <= 1.5,
                "{:?}: p={p} vs k'/D={expect}",
                kind
            );
        }
    }
}
