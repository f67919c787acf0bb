//! Flow arrival process (§VII-A4): Poisson arrivals at rate λ flows per
//! endpoint per second, over a fixed window; the first half of the window
//! is warm-up and dropped at analysis time (§VII-A8).

use crate::sizes::FlowSizeDist;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Time unit used throughout the simulator: picoseconds.
pub type TimePs = u64;

/// One second in picoseconds.
const SEC_PS: TimePs = 1_000_000_000_000;

/// A flow to inject into the simulator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source endpoint id.
    pub src: u32,
    /// Destination endpoint id.
    pub dst: u32,
    /// Payload bytes.
    pub size: u64,
    /// Start time (ps).
    pub start: TimePs,
}

/// Generates Poisson flow arrivals: every `(src, dst)` pair from the
/// pattern receives an independent Poisson process such that each *source
/// endpoint* sees `lambda` flows/s in total (split across its pairs when a
/// pattern is oversubscribed). Flows are sorted by start time.
pub fn poisson_flows(
    pairs: &[(u32, u32)],
    lambda_per_endpoint: f64,
    window_s: f64,
    dist: &FlowSizeDist,
    seed: u64,
) -> Vec<FlowSpec> {
    assert!(lambda_per_endpoint > 0.0 && window_s > 0.0);
    // Pairs per source, to split λ.
    let mut per_src: rustc_hash::FxHashMap<u32, u32> = rustc_hash::FxHashMap::default();
    for &(s, _) in pairs {
        *per_src.entry(s).or_insert(0) += 1;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut flows = Vec::new();
    for &(s, d) in pairs {
        let rate = lambda_per_endpoint / per_src[&s] as f64; // flows per second
        let mut t = 0.0f64;
        loop {
            // Exponential inter-arrival via inverse CDF.
            let u: f64 = rng.random();
            t += -(1.0 - u).ln() / rate;
            if t >= window_s {
                break;
            }
            flows.push(FlowSpec {
                src: s,
                dst: d,
                size: dist.sample(&mut rng),
                start: (t * SEC_PS as f64) as TimePs,
            });
        }
    }
    flows.sort_by_key(|f| (f.start, f.src, f.dst));
    flows
}

/// Generates exactly one flow per pair, all starting at `start` with fixed
/// `size` — the bulk-synchronous phase used by the stencil workload and by
/// the fixed-size sweeps.
pub fn bulk_flows(pairs: &[(u32, u32)], size: u64, start: TimePs) -> Vec<FlowSpec> {
    pairs
        .iter()
        .map(|&(src, dst)| FlowSpec {
            src,
            dst,
            size,
            start,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sizes::MIB;

    #[test]
    fn poisson_rate_is_respected() {
        let pairs: Vec<(u32, u32)> = (0..100u32).map(|s| (s, (s + 1) % 100)).collect();
        let d = FlowSizeDist::fixed(MIB);
        let flows = poisson_flows(&pairs, 200.0, 0.1, &d, 3);
        // Expected: 100 endpoints × 200 flows/s × 0.1 s = 2000 ± noise.
        assert!((1700..2300).contains(&flows.len()), "{}", flows.len());
        // Sorted by time.
        assert!(flows.windows(2).all(|w| w[0].start <= w[1].start));
    }

    #[test]
    fn oversubscribed_pattern_keeps_per_endpoint_rate() {
        // 4 destinations per source: λ split 4 ways.
        let mut pairs = Vec::new();
        for s in 0..50u32 {
            for k in 1..=4u32 {
                pairs.push((s, (s + k) % 50));
            }
        }
        let d = FlowSizeDist::fixed(MIB);
        let flows = poisson_flows(&pairs, 100.0, 0.2, &d, 4);
        // 50 endpoints × 100 flows/s × 0.2s = 1000 expected.
        assert!((800..1200).contains(&flows.len()), "{}", flows.len());
    }

    #[test]
    fn bulk_flows_are_uniform() {
        let flows = bulk_flows(&[(0, 1), (1, 2)], 4096, 77);
        assert_eq!(flows.len(), 2);
        assert!(flows.iter().all(|f| f.size == 4096 && f.start == 77));
    }
}
