//! Slim Fly (MMS) topology generator — diameter-2 networks approaching the
//! Moore bound (Besta & Hoefler, SC'14; McKay–Miller–Širáň graphs).
//!
//! Construction (Appendix A of the FatPaths paper): routers are labeled
//! `(i, x, y)` with `i ∈ {0,1}` and `x, y ∈ GF(q)` for a prime `q = 4w ± 1`.
//! With `ξ` a primitive root of `GF(q)` and generator sets `X, X'`:
//!
//! * `(0,x,y) ~ (0,x,y')`  iff `y − y' ∈ X`
//! * `(1,m,c) ~ (1,m,c')`  iff `c − c' ∈ X'`
//! * `(0,x,y) ~ (1,m,c)`   iff `y = m·x + c`
//!
//! yielding `Nr = 2q²` routers of network radix `k' = (3q − δ)/2` and
//! diameter 2. We implement prime `q` only: a prime power would need
//! `GF(pᵏ)` arithmetic instead of integers mod `q`, and every size class
//! (`q` = 11, 19, 37, 89) and figure sweep (`q` = 5, 7, 13) uses a prime.
//! The diameter-2 property is asserted by tests for every shipped `q`.

use super::{LinkClass, TopoKind, Topology};

/// Errors from the Slim Fly generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SlimFlyError {
    /// `q` is not prime.
    NotPrime(u32),
    /// `q mod 4` is not 1 or 3 (δ would be 0; needs GF(2^k), unsupported).
    BadResidue(u32),
}

impl std::fmt::Display for SlimFlyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlimFlyError::NotPrime(q) => write!(f, "Slim Fly parameter q={q} must be prime"),
            SlimFlyError::BadResidue(q) => {
                write!(f, "Slim Fly parameter q={q} must satisfy q ≡ ±1 (mod 4)")
            }
        }
    }
}

impl std::error::Error for SlimFlyError {}

fn is_prime(q: u32) -> bool {
    if q < 2 {
        return false;
    }
    let mut d = 2u32;
    while d * d <= q {
        if q.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// Finds the smallest primitive root modulo prime `q`.
fn primitive_root(q: u32) -> u32 {
    if q == 2 {
        return 1;
    }
    // Factor q-1.
    let mut factors = Vec::new();
    let mut rest = q - 1;
    let mut d = 2;
    while d * d <= rest {
        if rest.is_multiple_of(d) {
            factors.push(d);
            while rest.is_multiple_of(d) {
                rest /= d;
            }
        }
        d += 1;
    }
    if rest > 1 {
        factors.push(rest);
    }
    'cand: for g in 2..q {
        for &f in &factors {
            if pow_mod(g, (q - 1) / f, q) == 1 {
                continue 'cand;
            }
        }
        return g;
    }
    unreachable!("every prime field has a primitive root")
}

fn pow_mod(base: u32, mut exp: u32, q: u32) -> u32 {
    let mut acc: u64 = 1;
    let mut b = base as u64 % q as u64;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * b % q as u64;
        }
        b = b * b % q as u64;
        exp >>= 1;
    }
    acc as u32
}

/// The MMS generator sets `(X, X')` for prime `q = 4w + δ`, `δ = ±1`.
///
/// * `δ = +1` (`q ≡ 1 mod 4`): `X` = even powers of `ξ` (the quadratic
///   residues), `X'` = odd powers; both of size `(q−1)/2`.
/// * `δ = −1` (`q ≡ 3 mod 4`): `X = {ξ^{2i}} ∪ {ξ^{2i+2w−1}}` for
///   `i ∈ [0, w)` and `X' = ξ·X`; both of size `(q+1)/2 = 2w`.
///
/// Both sets are symmetric (`X = −X`), making the intra-subgraph Cayley
/// graphs undirected.
fn generator_sets(q: u32) -> Result<(Vec<u32>, Vec<u32>), SlimFlyError> {
    if !is_prime(q) {
        return Err(SlimFlyError::NotPrime(q));
    }
    let xi = primitive_root(q) as u64;
    let qq = q as u64;
    match q % 4 {
        1 => {
            let half = ((q - 1) / 2) as usize;
            let mut x = Vec::with_capacity(half);
            let mut xp = Vec::with_capacity(half);
            let mut cur = 1u64;
            for i in 0..(q - 1) {
                if i % 2 == 0 {
                    x.push(cur as u32);
                } else {
                    xp.push(cur as u32);
                }
                cur = cur * xi % qq;
            }
            Ok((x, xp))
        }
        3 => {
            let w = ((q + 1) / 4) as usize;
            // Powers table.
            let mut pw = vec![1u32; (q - 1) as usize];
            for i in 1..pw.len() {
                pw[i] = (pw[i - 1] as u64 * xi % qq) as u32;
            }
            let modlen = pw.len();
            let mut x = Vec::with_capacity(2 * w);
            for i in 0..w {
                x.push(pw[(2 * i) % modlen]);
            }
            for i in 0..w {
                x.push(pw[(2 * i + 2 * w - 1) % modlen]);
            }
            let xp: Vec<u32> = x.iter().map(|&e| (e as u64 * xi % qq) as u32).collect();
            Ok((x, xp))
        }
        _ => Err(SlimFlyError::BadResidue(q)),
    }
}

/// Router id of `(subgraph, a, b)` in the `2q²` layout.
#[inline]
fn rid(sub: u32, a: u32, b: u32, q: u32) -> u32 {
    sub * q * q + a * q + b
}

/// Builds a Slim Fly `MMS(q)` with `p` endpoints per router.
///
/// Links within a subgraph column (`x` or `m` fixed) are classed
/// [`LinkClass::Short`]; cross-subgraph links are [`LinkClass::Long`].
pub fn slim_fly(q: u32, p: u32) -> Result<Topology, SlimFlyError> {
    let (x_set, xp_set) = generator_sets(q)?;
    let nr = (2 * q * q) as usize;
    let mut edges = Vec::new();
    // Subgraph 0: (0,x,y) ~ (0,x,y') iff y - y' ∈ X.
    for x in 0..q {
        for y in 0..q {
            for &dx in &x_set {
                let y2 = (y + dx) % q;
                let (u, v) = (rid(0, x, y, q), rid(0, x, y2, q));
                if u < v {
                    edges.push((u, v, LinkClass::Short));
                }
            }
        }
    }
    // Subgraph 1: (1,m,c) ~ (1,m,c') iff c - c' ∈ X'.
    for m in 0..q {
        for c in 0..q {
            for &dx in &xp_set {
                let c2 = (c + dx) % q;
                let (u, v) = (rid(1, m, c, q), rid(1, m, c2, q));
                if u < v {
                    edges.push((u, v, LinkClass::Long)); // different racks in practice
                }
            }
        }
    }
    // Cross: (0,x,y) ~ (1,m,c) iff y = m·x + c.
    for x in 0..q {
        for m in 0..q {
            for c in 0..q {
                let y = ((m as u64 * x as u64 + c as u64) % q as u64) as u32;
                edges.push((rid(0, x, y, q), rid(1, m, c, q), LinkClass::Long));
            }
        }
    }
    let delta: i64 = if q % 4 == 1 { 1 } else { -1 };
    let kprime = ((3 * q as i64 - delta) / 2) as u32;
    let topo = Topology::assemble(
        TopoKind::SlimFly,
        format!("SF(q={q},p={p})"),
        nr,
        edges,
        Topology::uniform_concentration(nr, p),
        2,
    );
    debug_assert_eq!(topo.network_radix() as u32, kprime);
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expected network radix `k' = (3q − δ)/2` for prime `q ≡ ±1 (mod 4)`.
    fn expected_radix(q: u32) -> u32 {
        let delta: i64 = if q % 4 == 1 { 1 } else { -1 };
        ((3 * q as i64 - delta) / 2) as u32
    }

    #[test]
    fn rejects_bad_q() {
        assert!(matches!(slim_fly(9, 1), Err(SlimFlyError::NotPrime(9))));
        assert!(matches!(slim_fly(2, 1), Err(SlimFlyError::BadResidue(2))));
    }

    #[test]
    fn generator_sets_symmetric() {
        for q in [5u32, 7, 11, 13, 17, 19, 23, 29] {
            let (x, xp) = generator_sets(q).unwrap();
            for set in [&x, &xp] {
                for &e in set.iter() {
                    let neg = (q - e) % q;
                    assert!(set.contains(&neg), "q={q}: set not symmetric at {e}");
                }
                let mut s = set.clone();
                s.sort_unstable();
                s.dedup();
                assert_eq!(s.len(), set.len(), "q={q}: duplicate generators");
            }
        }
    }

    #[test]
    fn mms_regular_radix_and_diameter_two() {
        for q in [5u32, 7, 11, 13] {
            let t = slim_fly(q, 1).unwrap();
            assert_eq!(t.num_routers() as u32, 2 * q * q, "q={q}");
            assert!(t.graph.is_regular(), "q={q} not regular");
            assert_eq!(t.network_radix() as u32, expected_radix(q), "q={q}");
            let (d, _) = t.graph.diameter_apl();
            assert_eq!(d, 2, "q={q} diameter");
        }
    }

    #[test]
    fn paper_config_q19() {
        // Table IV of the paper: SF with k'=29, Nr=722, N=10108 (p=14).
        let t = slim_fly(19, 14).unwrap();
        assert_eq!(t.num_routers(), 722);
        assert_eq!(t.network_radix(), 29);
        assert_eq!(t.num_endpoints(), 10108);
        let (d, _) = t.graph.diameter_apl();
        assert_eq!(d, 2);
    }

    #[test]
    fn cross_links_are_q_per_router() {
        let q = 7;
        let t = slim_fly(q, 1).unwrap();
        // Each subgraph-0 router has exactly q cross links (one per m).
        let u = 0u32; // (0,0,0)
        let cross = t.graph.neighbors(u).iter().filter(|&&v| v >= q * q).count();
        assert_eq!(cross as u32, q);
    }
}
