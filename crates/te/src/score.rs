//! Matrix scoring shared by the TE sweep and the baselines experiment:
//! per-edge loads of *any* [`RoutingScheme`] under a router-level traffic
//! matrix, and the achieved throughput they imply.
//!
//! The demand model is equal flowlet split: every commodity spreads
//! evenly over the scheme's endpoint-selectable layers
//! (`0..num_layers()`), and within a hop evenly over the candidate port
//! set — the steady-state expectation of the simulator's flowlet hashing.
//! With unit link capacities the achieved throughput is `1 / max_load`,
//! directly comparable to the `fatpaths-mcf` concurrent-flow upper bound
//! on the same matrix.

use fatpaths_core::scheme::RoutingScheme;
use fatpaths_mcf::RouterDemand;
use fatpaths_net::graph::Graph;

/// Per-edge load (indexed like [`Graph::edge_vec`]) of `scheme` routing
/// `demands` under equal flowlet split. Deterministic: demands are walked
/// in slice order and splits recurse in port order, so accumulation is
/// independent of thread count.
pub fn edge_loads<S: RoutingScheme + ?Sized>(
    scheme: &S,
    base: &Graph,
    demands: &[RouterDemand],
) -> Vec<f64> {
    let eids = base.arc_edge_ids();
    let mut loads = vec![0.0f64; base.m()];
    let nl = scheme.num_layers().max(1);
    for d in demands {
        if d.src == d.dst {
            continue;
        }
        let share = d.demand / nl as f64;
        for tag in 0..nl {
            spread(
                scheme, base, &eids, tag as u8, d.src, d.dst, share, 0, &mut loads,
            );
        }
    }
    loads
}

/// Recursive equal split along the scheme's forwarding rule: apply the
/// per-hop tag rewrite, divide over candidate ports, recurse. Terminates
/// because schemes are loop-free per layer; the depth cap is defensive.
#[allow(clippy::too_many_arguments)]
fn spread<S: RoutingScheme + ?Sized>(
    scheme: &S,
    base: &Graph,
    eids: &[u32],
    tag: u8,
    at: u32,
    dst: u32,
    amount: f64,
    depth: usize,
    loads: &mut [f64],
) {
    if at == dst || depth > base.n() {
        return;
    }
    let tag = scheme.update_layer(tag, at, dst);
    let ports = scheme.candidate_ports(tag, at, dst);
    let ps = ports.as_slice();
    if ps.is_empty() {
        return; // unreachable pair carries no load
    }
    let share = amount / ps.len() as f64;
    for &p in ps {
        loads[eids[base.arcs(at).start + p as usize] as usize] += share;
        let nb = base.neighbor_at(at, p as u32);
        spread(scheme, base, eids, tag, nb, dst, share, depth + 1, loads);
    }
}

/// The largest per-edge load — the bottleneck under unit capacities.
pub fn peak_load(loads: &[f64]) -> f64 {
    loads.iter().copied().fold(0.0, f64::max)
}

/// Achieved throughput of a load vector under unit capacities: the
/// largest `T` such that scaling every demand by `T` fits every link,
/// i.e. `1 / max_load`. Infinite for an empty/zero matrix.
pub fn achieved_throughput(loads: &[f64]) -> f64 {
    let peak = peak_load(loads);
    if peak <= 0.0 {
        f64::INFINITY
    } else {
        1.0 / peak
    }
}
