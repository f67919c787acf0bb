//! Fig. 13 — large-scale runs: packet-level at the ≈80k-endpoint class,
//! fluid max-min at ≈1M endpoints (SF vs equivalent Jellyfish FCT
//! histograms). The fluid model stands in for packets at 1M endpoints
//! because Fig. 13 compares FCT histogram *shapes*, which path-collision
//! multiplicity governs and max-min fair sharing of fixed paths
//! reproduces, while packet-level routing tables alone would need
//! gigabytes at that scale.

use crate::common::{f, label, pattern_workload, post_warmup, write_summary, Table};
use fatpaths_core::fwd::fnv1a;
use fatpaths_core::layers::{build_random_layers, LayerConfig};
use fatpaths_net::classes::{build, SizeClass};
use fatpaths_net::graph::{Graph, UNREACHABLE};
use fatpaths_net::topo::jellyfish::equivalent_jellyfish;
use fatpaths_net::topo::{TopoKind, Topology};
use fatpaths_sim::fluid::{bulk_fcts, LinkSpace};
use fatpaths_sim::metrics::{histogram, throughput_by_size, Summary};
use fatpaths_sim::{Scenario, SchemeSpec};
use fatpaths_workloads::patterns::Pattern;
use rayon::prelude::*;
use rustc_hash::FxHashMap;
use std::io;

/// Packet-level part: SF, SF-JF and DF at the large class.
pub fn fig13_packet(quick: bool) -> io::Result<()> {
    // Smoke mode exists to prove the pipeline runs, not to be large.
    let class = if crate::common::is_smoke() {
        SizeClass::Small
    } else if quick {
        SizeClass::Medium
    } else {
        SizeClass::Large
    };
    let sf = build(TopoKind::SlimFly, class, 1);
    let sfjf = equivalent_jellyfish(&sf, 5);
    let df = build(TopoKind::Dragonfly, class, 1);
    let window = if quick { 0.002 } else { 0.0015 };
    let mut table = Table::new(&["topology", "flow_kib", "mean_mib_s", "tail1_mib_s"]);
    let mut hist_table = Table::new(&["topology", "fct_ms_bin", "count"]);
    let mut summary = String::from("Fig. 13 (packet) — large-scale throughput and FCTs\n");
    // This is the one memory-bound experiment (per-topology tables are
    // hundreds of MB at Nr ≈ 3–7k), so topologies run sequentially to
    // keep peak memory at one topology's worth; parallelism comes from
    // the stages *inside* each run (table builds, per-destination BFS).
    let topos = [&sf, &sfjf, &df];
    let results: Vec<_> = topos
        .iter()
        .map(|topo| {
            let n_layers = 4; // memory-conscious at Nr ≈ 3–7k (§VII-C uses 4 too)
            let flows = pattern_workload(topo, &Pattern::Permutation, 300.0, window, true, 13);
            post_warmup(
                Scenario::on(topo)
                    .scheme(SchemeSpec::LayeredRandom { n_layers, rho: 0.6 })
                    .workload(&flows)
                    .seed(3)
                    .run(),
                window,
            )
        })
        .collect();
    for (topo, res) in topos.iter().zip(&results) {
        let groups = throughput_by_size(res);
        for &(size, m, t1, _) in &groups {
            table.row(&[&label(topo), &(size / 1024), &f(m), &f(t1)]);
        }
        // "Long flows": the discretized size closest to 1 MiB.
        let long_size = groups
            .iter()
            .map(|&(s, ..)| s)
            .min_by_key(|&s| s.abs_diff(1 << 20))
            .unwrap_or(1 << 20);
        let fcts_1mib: Vec<f64> = res
            .completed()
            .filter(|fl| fl.size == long_size)
            .filter_map(|fl| fl.fct_s().map(|s| s * 1e3))
            .collect();
        let fct = Summary::of(&fcts_1mib);
        for (bin, &c) in histogram(&fcts_1mib, 0.0, 25.0, 50)
            .counts
            .iter()
            .enumerate()
        {
            if c > 0 {
                hist_table.row(&[&label(topo), &f(bin as f64 * 0.5), &c]);
            }
        }
        summary.push_str(&format!(
            "{:<6} N={:<6} flows={:<6} 1MiB FCT mean {:>6.2} ms p99 {:>7.2} ms\n",
            label(topo),
            topo.num_endpoints(),
            res.flows.len(),
            fct.mean,
            fct.p99
        ));
    }
    table.write("fig13_large_packet")?;
    hist_table.write("fig13_large_fct_hist")?;
    summary.push_str("Paper: slight mean decrease vs 10k; DF tail worst (global-link overlap).\n");
    write_summary("fig13_large_packet", &summary)
}

/// BFS parent pointers toward `dst` in `g` (`parent[v]` = next hop of `v`).
fn parents_toward(g: &Graph, dst: u32) -> Vec<u32> {
    let n = g.n();
    let mut dist = vec![UNREACHABLE; n];
    let mut parent = vec![u32::MAX; n];
    let mut queue = Vec::with_capacity(n);
    dist[dst as usize] = 0;
    queue.push(dst);
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        for &v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = dist[u as usize] + 1;
                parent[v as usize] = u;
                queue.push(v);
            }
        }
    }
    parent
}

/// Fluid part: ≈1M-endpoint FCT histograms, SF vs equivalent Jellyfish.
/// Routing tables at this scale would need gigabytes, so paths come from
/// per-(layer, destination) BFS batches over the layer graphs.
pub fn fig13_fluid(quick: bool) -> io::Result<()> {
    // Smoke mode exists to prove the pipeline runs, not to be large.
    let class = if crate::common::is_smoke() {
        SizeClass::Small
    } else if quick {
        SizeClass::Large
    } else {
        SizeClass::Huge
    };
    let sf = build(TopoKind::SlimFly, class, 1);
    let sfjf = equivalent_jellyfish(&sf, 5);
    let mut table = Table::new(&["topology", "fct_ms_bin", "count"]);
    let mut summary = format!(
        "Fig. 13 (fluid) — {}-endpoint FCT histograms, 1 MiB flows\n",
        sf.num_endpoints()
    );
    for topo in [&sf, &sfjf] {
        let fcts_ms = fluid_fcts(topo, 4);
        let fct = Summary::of(&fcts_ms);
        for (bin, &c) in histogram(&fcts_ms, 0.0, 10.0, 50).counts.iter().enumerate() {
            if c > 0 {
                table.row(&[&label(topo), &f(bin as f64 * 0.2), &c]);
            }
        }
        summary.push_str(&format!(
            "{:<6} flows={} mean {:>5.2} ms p99 {:>5.2} ms max {:>6.2} ms\n",
            label(topo),
            fcts_ms.len(),
            fct.mean,
            fct.p99,
            fct.max
        ));
    }
    table.write("fig13_fluid_hist")?;
    summary.push_str("Paper: SF flows finish slightly later than SF-JF at 1M endpoints.\n");
    write_summary("fig13_fluid", &summary)
}

fn fluid_fcts(topo: &Topology, n_layers: usize) -> Vec<f64> {
    let ls = build_random_layers(&topo.graph, &LayerConfig::new(n_layers, 0.6, 3));
    let links = LinkSpace::new(topo);
    let pairs: Vec<(u32, u32)> = Pattern::Permutation
        .flows(topo.num_endpoints() as u64, 77)
        .into_iter()
        .filter(|&(s, d)| topo.endpoint_router(s) != topo.endpoint_router(d))
        .collect();
    // Per-flow layer = hash(flow): the time-average of flowlet balancing.
    let layer_of = |i: usize| (fnv1a(i as u64 ^ 0x13) % n_layers as u64) as usize;
    // Group flows by (layer, dst_router): one reverse BFS per group.
    let mut groups: FxHashMap<(usize, u32), Vec<u32>> = FxHashMap::default();
    for (i, &(_, d)) in pairs.iter().enumerate() {
        groups
            .entry((layer_of(i), topo.endpoint_router(d)))
            .or_default()
            .push(i as u32);
    }
    let group_list: Vec<((usize, u32), Vec<u32>)> = groups.into_iter().collect();
    let path_chunks: Vec<Vec<(u32, Vec<u32>)>> = group_list
        .par_iter()
        .map(|((layer, rd), flow_ids)| {
            let parent = parents_toward(ls.layer(*layer), *rd);
            flow_ids
                .iter()
                .map(|&fi| {
                    let (s, d) = pairs[fi as usize];
                    let rs = topo.endpoint_router(s);
                    let mut routers = vec![rs];
                    let mut cur = rs;
                    while cur != *rd {
                        cur = parent[cur as usize];
                        routers.push(cur);
                    }
                    (fi, links.flow_path(s, d, &routers))
                })
                .collect()
        })
        .collect();
    let mut paths: Vec<Vec<u32>> = vec![Vec::new(); pairs.len()];
    for chunk in path_chunks {
        for (fi, p) in chunk {
            paths[fi as usize] = p;
        }
    }
    let sizes = vec![1u64 << 20; pairs.len()];
    let cap_bytes_s = 10e9 / 8.0;
    let fcts = bulk_fcts(&paths, &sizes, links.len(), cap_bytes_s);
    fcts.iter().map(|s| s * 1e3).collect()
}
