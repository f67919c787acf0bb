//! Maximum concurrent flow via the Garg–Könemann multiplicative-weights
//! algorithm (with Fleischer's phase accounting), specialized to
//! commodities with explicit candidate path sets.
//!
//! This replaces the paper's TopoBench LP (§VI-A3): under layered routing,
//! each commodity owns at most `n` fixed paths (one per layer, from the
//! destination-based forwarding functions σᵢ), so the layered MCF — with
//! its "no leaking between layers" constraint (Eq. 7) satisfied by
//! construction — reduces to a path-based max concurrent flow:
//!
//! ```text
//! maximize T  s.t.  Σᵢ Σ_{P∋e} f_i(P) ≤ c(e)  ∀e,   Σ_P f_i(P) = T·d_i ∀i
//! ```
//!
//! The algorithm returns a `(1−O(ε))`-approximation. Fig. 9 solves every
//! scheme at the same `ε` on the same demands, so each throughput carries
//! the same relative error bound, and an ordering between two schemes can
//! only flip where they lie within `O(ε)` of each other.
//!
//! # Parallelism
//!
//! GK's commodity updates within a phase are *data-dependent* — every
//! routed increment reprices the edges the next commodity sees — so the
//! phase loop is inherently sequential and stays that way (running
//! commodities concurrently would compute a different, possibly
//! infeasible, flow). What does parallelize without changing a single
//! bit of output is the *pricing* step: evaluating the length of every
//! candidate path under the current edge lengths. For the small layered
//! path sets of Fig. 9 (≤ tens of paths) the fan-out costs more than it
//! saves, so pricing only goes parallel past `PAR_PATHS_THRESHOLD` (64)
//! candidates; commodity *assembly* parallelism lives in
//! [`crate::mat::mat`].

use rayon::prelude::*;

/// Candidate-set size beyond which path pricing fans out to the pool.
const PAR_PATHS_THRESHOLD: usize = 64;

/// Index of the cheapest path under `length`. The common small-set case
/// is an allocation-free scan (this sits in GK's innermost loop); large
/// sets materialize costs in path order and reduce sequentially, so the
/// chosen index (ties included) is identical for any thread count.
fn cheapest_path(paths: &[Vec<u32>], length: &[f64]) -> usize {
    let price = |p: &Vec<u32>| p.iter().map(|&e| length[e as usize]).sum::<f64>();
    if paths.len() < PAR_PATHS_THRESHOLD {
        return paths
            .iter()
            .enumerate()
            .map(|(i, p)| (i, price(p)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
    }
    let costs: Vec<f64> = paths.par_iter().map(price).collect();
    costs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .map(|(i, _)| i)
        .unwrap()
}

/// One commodity: a demand and its candidate paths (each a list of edge
/// ids over the base graph).
#[derive(Clone, Debug)]
pub struct Commodity {
    /// Requested flow `T(s,t)`.
    pub demand: f64,
    /// Candidate paths as edge-id lists. Empty paths are invalid; an empty
    /// *set* means the commodity cannot be routed at all (T = 0).
    pub paths: Vec<Vec<u32>>,
}

/// Result of the max-concurrent-flow computation.
#[derive(Clone, Debug)]
pub struct McfResult {
    /// The throughput scaler `T` (≥ 0): every commodity can ship `T·d_i`
    /// concurrently.
    pub throughput: f64,
    /// Per-edge utilization of the final (scaled, feasible) flow.
    pub edge_utilization: Vec<f64>,
}

/// Solves max concurrent flow over `m` edges with the given capacities.
///
/// `eps` trades accuracy for speed (the paper-comparison harness uses
/// 0.05–0.1). If any commodity has no candidate path, the result is 0.
pub fn max_concurrent_flow(capacities: &[f64], commodities: &[Commodity], eps: f64) -> McfResult {
    let m = capacities.len();
    assert!(eps > 0.0 && eps < 0.5);
    if commodities.is_empty() {
        return McfResult {
            throughput: f64::INFINITY,
            edge_utilization: vec![0.0; m],
        };
    }
    if commodities.iter().any(|c| c.paths.is_empty()) {
        return McfResult {
            throughput: 0.0,
            edge_utilization: vec![0.0; m],
        };
    }
    for c in commodities {
        debug_assert!(c.demand > 0.0);
        debug_assert!(c.paths.iter().all(|p| !p.is_empty()));
    }
    // δ = (m / (1-ε))^(-1/ε); lengths start at δ / c(e).
    let delta = ((m as f64) / (1.0 - eps)).powf(-1.0 / eps);
    let mut length: Vec<f64> = capacities.iter().map(|&c| delta / c).collect();
    let mut flow = vec![0.0f64; m];
    // D(l) = Σ l(e)·c(e); maintained incrementally.
    let mut d_l: f64 = length.iter().zip(capacities).map(|(&l, &c)| l * c).sum();
    let mut phases: u64 = 0;
    'outer: loop {
        for com in commodities {
            let mut remaining = com.demand;
            while remaining > 1e-15 {
                if d_l >= 1.0 {
                    break 'outer;
                }
                // Cheapest candidate path under current lengths.
                let pi = cheapest_path(&com.paths, &length);
                let path = &com.paths[pi];
                let bottleneck = path
                    .iter()
                    .map(|&e| capacities[e as usize])
                    .fold(f64::INFINITY, f64::min);
                let f = remaining.min(bottleneck);
                for &e in path {
                    let e = e as usize;
                    flow[e] += f;
                    let grow = 1.0 + eps * f / capacities[e];
                    d_l += length[e] * (grow - 1.0) * capacities[e];
                    length[e] *= grow;
                }
                remaining -= f;
            }
        }
        phases += 1;
    }
    // Scale: the accumulated flow exceeds capacities by at most
    // log_{1+ε}((1+ε)/δ) — final lengths satisfy l(e) < (1+ε)/c(e) and
    // l(e) ≥ (δ/c(e))·(1+ε)^{f(e)/c(e)}. The completed phases, divided by
    // the same factor, give the throughput.
    let scale = ((1.0 + eps) / delta).ln() / (1.0 + eps).ln();
    let throughput = phases as f64 / scale;
    let edge_utilization = flow
        .iter()
        .zip(capacities)
        .map(|(&f, &c)| (f / scale) / c)
        .collect();
    McfResult {
        throughput,
        edge_utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 0.05;

    fn close(x: f64, expect: f64) -> bool {
        (x - expect).abs() <= 0.12 * expect.max(0.1)
    }

    #[test]
    fn single_edge_unit_demand() {
        let r = max_concurrent_flow(
            &[1.0],
            &[Commodity {
                demand: 1.0,
                paths: vec![vec![0]],
            }],
            EPS,
        );
        assert!(close(r.throughput, 1.0), "T={}", r.throughput);
        assert!(r.edge_utilization[0] <= 1.0 + 1e-9);
    }

    #[test]
    fn two_commodities_share_edge() {
        let coms = vec![
            Commodity {
                demand: 1.0,
                paths: vec![vec![0]],
            },
            Commodity {
                demand: 1.0,
                paths: vec![vec![0]],
            },
        ];
        let r = max_concurrent_flow(&[1.0], &coms, EPS);
        assert!(close(r.throughput, 0.5), "T={}", r.throughput);
    }

    #[test]
    fn parallel_paths_double_throughput() {
        // One commodity, demand 2, two disjoint unit paths → T = 1.
        let coms = vec![Commodity {
            demand: 2.0,
            paths: vec![vec![0], vec![1]],
        }];
        let r = max_concurrent_flow(&[1.0, 1.0], &coms, EPS);
        assert!(close(r.throughput, 1.0), "T={}", r.throughput);
    }

    #[test]
    fn unequal_path_lengths_prefer_short() {
        // Paths of length 1 and 3 over unit edges; demand 1.5:
        // optimal T = (1 + 1)/1.5 = 4/3 (short path 1 unit, long path 1).
        let coms = vec![Commodity {
            demand: 1.5,
            paths: vec![vec![0], vec![1, 2, 3]],
        }];
        let r = max_concurrent_flow(&[1.0; 4], &coms, EPS);
        assert!(close(r.throughput, 4.0 / 3.0), "T={}", r.throughput);
    }

    #[test]
    fn no_paths_means_zero() {
        let coms = vec![Commodity {
            demand: 1.0,
            paths: vec![],
        }];
        let r = max_concurrent_flow(&[1.0], &coms, EPS);
        assert_eq!(r.throughput, 0.0);
    }

    #[test]
    fn capacity_scales_result() {
        let coms = vec![Commodity {
            demand: 1.0,
            paths: vec![vec![0]],
        }];
        let r1 = max_concurrent_flow(&[1.0], &coms, EPS);
        let r4 = max_concurrent_flow(&[4.0], &coms, EPS);
        assert!(close(r4.throughput / r1.throughput, 4.0));
    }

    #[test]
    fn bottleneck_edge_governs() {
        // Two-hop path with capacities 1 and 0.25 → T = 0.25.
        let coms = vec![Commodity {
            demand: 1.0,
            paths: vec![vec![0, 1]],
        }];
        let r = max_concurrent_flow(&[1.0, 0.25], &coms, EPS);
        assert!(close(r.throughput, 0.25), "T={}", r.throughput);
    }

    #[test]
    fn utilization_is_feasible() {
        let coms = vec![
            Commodity {
                demand: 1.0,
                paths: vec![vec![0, 1], vec![2]],
            },
            Commodity {
                demand: 2.0,
                paths: vec![vec![1], vec![2, 0]],
            },
        ];
        let r = max_concurrent_flow(&[1.0, 2.0, 1.5], &coms, EPS);
        for (i, &u) in r.edge_utilization.iter().enumerate() {
            assert!(u <= 1.0 + 0.05, "edge {i} over capacity: {u}");
        }
    }
}
