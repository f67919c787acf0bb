//! Flow-size distribution (§VII-A4).
//!
//! The paper draws flow sizes from the pFabric web-search distribution
//! "discretized to 20 flows, with an average flow size of 1MB", spanning
//! the 32 KiB – 2 MiB range every plot uses. We reproduce exactly that: 20
//! log-spaced sizes on `[32 KiB, 2 MiB]` with a power-law tilt
//! `p_i ∝ s_i^a`, where `a` is solved by bisection so the mean is 1 MiB —
//! preserving the mice/elephant mix that drives the mean-vs-tail
//! separation in Figs. 2/11/14. The construction fixes the count, the
//! range and the mean the paper states; the tilt only fills in the shape
//! between them.

use rand::Rng;

/// KiB/MiB helpers.
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * 1024;

/// A discrete flow-size distribution.
#[derive(Clone, Debug)]
pub struct FlowSizeDist {
    sizes: Vec<u64>,
    cumulative: Vec<f64>,
}

impl FlowSizeDist {
    /// The paper's web-search-like distribution: 20 log-spaced sizes on
    /// `[32 KiB, 2 MiB]`, mean 1 MiB.
    pub fn web_search() -> Self {
        Self::log_spaced(32 * KIB, 2 * MIB, 20, MIB as f64)
    }

    /// `buckets` log-spaced sizes on `[lo, hi]` tilted to the given mean.
    pub fn log_spaced(lo: u64, hi: u64, buckets: usize, target_mean: f64) -> Self {
        assert!(lo > 0 && hi > lo && buckets >= 2);
        let ratio = (hi as f64 / lo as f64).powf(1.0 / (buckets as f64 - 1.0));
        let sizes: Vec<u64> = (0..buckets)
            .map(|i| (lo as f64 * ratio.powi(i as i32)).round() as u64)
            .collect();
        assert!(
            target_mean > lo as f64 && target_mean < hi as f64,
            "target mean must lie inside the size range"
        );
        // Solve p_i ∝ s_i^a for the exponent a giving the target mean.
        let mean_for = |a: f64| -> f64 {
            let mut wsum = 0.0;
            let mut msum = 0.0;
            for &s in &sizes {
                let w = (s as f64).powf(a);
                wsum += w;
                msum += w * s as f64;
            }
            msum / wsum
        };
        let (mut alo, mut ahi) = (-4.0f64, 4.0f64);
        for _ in 0..200 {
            let mid = 0.5 * (alo + ahi);
            if mean_for(mid) < target_mean {
                alo = mid;
            } else {
                ahi = mid;
            }
        }
        let a = 0.5 * (alo + ahi);
        let weights: Vec<f64> = sizes.iter().map(|&s| (s as f64).powf(a)).collect();
        let total: f64 = weights.iter().sum();
        let mut cumulative = Vec::with_capacity(buckets);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cumulative.push(acc);
        }
        *cumulative.last_mut().unwrap() = 1.0;
        FlowSizeDist { sizes, cumulative }
    }

    /// A degenerate single-size distribution (for fixed-size experiments).
    pub fn fixed(size: u64) -> Self {
        FlowSizeDist {
            sizes: vec![size],
            cumulative: vec![1.0],
        }
    }

    /// Draws one flow size.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u64 {
        let x: f64 = rng.random();
        let idx = self.cumulative.partition_point(|&c| c < x);
        self.sizes[idx.min(self.sizes.len() - 1)]
    }

    /// Exact mean of the distribution.
    pub fn mean(&self) -> f64 {
        let mut prev = 0.0;
        let mut m = 0.0;
        for (&s, &c) in self.sizes.iter().zip(&self.cumulative) {
            m += (c - prev) * s as f64;
            prev = c;
        }
        m
    }

    /// The support (distinct sizes).
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn web_search_mean_is_one_mib() {
        let d = FlowSizeDist::web_search();
        assert_eq!(d.sizes().len(), 20);
        assert_eq!(d.sizes()[0], 32 * KIB);
        assert_eq!(*d.sizes().last().unwrap(), 2 * MIB);
        assert!(
            (d.mean() - MIB as f64).abs() / (MIB as f64) < 0.01,
            "mean {}",
            d.mean()
        );
    }

    #[test]
    fn sampling_matches_mean() {
        let d = FlowSizeDist::web_search();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let sum: u128 = (0..n).map(|_| d.sample(&mut rng) as u128).sum();
        let emp = sum as f64 / n as f64;
        assert!((emp - d.mean()).abs() / d.mean() < 0.02, "empirical {emp}");
    }

    #[test]
    fn heavy_tail_mice_majority_elephant_bytes() {
        // Small flows exist in numbers; large flows dominate bytes — the
        // qualitative property of the web-search mix.
        let d = FlowSizeDist::web_search();
        let mut rng = StdRng::seed_from_u64(1);
        let samples: Vec<u64> = (0..100_000).map(|_| d.sample(&mut rng)).collect();
        let small = samples.iter().filter(|&&s| s <= 128 * KIB).count();
        assert!(small > 3_000, "small-flow share too low: {small}");
        let big_bytes: u64 = samples.iter().filter(|&&s| s >= MIB).sum();
        let all_bytes: u64 = samples.iter().sum();
        assert!(big_bytes * 2 > all_bytes, "elephants should dominate bytes");
    }

    #[test]
    fn fixed_distribution() {
        let d = FlowSizeDist::fixed(MIB);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(d.sample(&mut rng), MIB);
        assert_eq!(d.mean(), MIB as f64);
    }
}
