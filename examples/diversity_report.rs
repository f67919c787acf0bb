//! Path-diversity report: reproduces the §IV analysis for any topology at
//! small scale — minimal path statistics, CDP at increasing length bounds,
//! path interference, and the TNL bound.
//!
//! ```text
//! cargo run --release --example diversity_report [sf|df|hx|xp|jf|ft]
//! ```

use fatpaths::diversity::apsp::shortest_path_stats;
use fatpaths::diversity::cdp::{cdp, lmin_cmin};
use fatpaths::diversity::interference::{pi_summary, sample_pi};
use fatpaths::diversity::tnl::tnl_minimal;
use fatpaths::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "sf".into());
    let kind = match which.as_str() {
        "df" => TopoKind::Dragonfly,
        "hx" => TopoKind::HyperX,
        "xp" => TopoKind::Xpander,
        "jf" => TopoKind::Jellyfish,
        "ft" => TopoKind::FatTree,
        _ => TopoKind::SlimFly,
    };
    let topo = build(kind, SizeClass::Small, 1);
    println!("== {} ==", topo.name);
    println!(
        "routers {}   endpoints {}   k' {}   edges {}",
        topo.num_routers(),
        topo.num_endpoints(),
        topo.network_radix(),
        topo.graph.m()
    );

    let stats = shortest_path_stats(&topo.graph);
    println!(
        "diameter {}   avg path length {:.3}",
        stats.diameter, stats.avg_path_length
    );
    for l in 1..=stats.diameter as usize {
        println!(
            "  distance {l}: {:>5.1}% of pairs",
            100.0 * stats.fraction_at(l)
        );
    }

    // Minimal-path diversity over sampled pairs (§IV-C1).
    let eids = topo.graph.arc_edge_ids();
    let mut rng = StdRng::seed_from_u64(3);
    let nr = topo.num_routers() as u32;
    let pairs: Vec<(u32, u32)> = (0..200)
        .map(|_| loop {
            let a = rng.random_range(0..nr);
            let b = rng.random_range(0..nr);
            if a != b {
                break (a, b);
            }
        })
        .collect();
    let mut unique = 0;
    let mut three_plus_at_lmin1 = 0;
    for &(a, b) in &pairs {
        let (lm, cm) = lmin_cmin(&topo.graph, &eids, a, b);
        if cm <= 1 {
            unique += 1;
        }
        if cdp(&topo.graph, &eids, &[a], &[b], lm + 1) >= 3 {
            three_plus_at_lmin1 += 1;
        }
    }
    println!(
        "minimal paths: {:>4.0}% of pairs have exactly one (shortest paths fall short)",
        100.0 * unique as f64 / pairs.len() as f64
    );
    println!(
        "almost-minimal: {:>4.0}% of pairs have ≥3 disjoint paths at lmin+1 (the FatPaths resource)",
        100.0 * three_plus_at_lmin1 as f64 / pairs.len() as f64
    );

    // Path interference at d' = lmin+1 (§IV-C3).
    let dprime = stats.diameter + 1;
    let samples = sample_pi(&topo.graph, &eids, dprime, 200, 9);
    let (mean_pi, tail_pi) = pi_summary(&samples, 99.9);
    println!(
        "path interference at l={dprime}: mean {:.2} ({:.0}% of k'), 99.9% tail {}",
        mean_pi,
        100.0 * mean_pi / topo.network_radix() as f64,
        tail_pi
    );

    // Total network load bound (§IV-B3).
    let tnl = tnl_minimal(&topo, 3000);
    println!(
        "TNL bound: ≤ {:.0} concurrent conflict-free flows ({:.1} per endpoint)",
        tnl,
        tnl / topo.num_endpoints() as f64
    );
}
