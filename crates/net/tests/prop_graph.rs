//! Property-based tests for the graph substrate and randomized topology
//! generators.

use fatpaths_net::graph::{for_each_source, Graph, RouterId, BFS_BATCH, UNREACHABLE};
use fatpaths_net::topo::jellyfish::random_regular_edges;
use fatpaths_net::topo::xpander::xpander;
use proptest::prelude::*;

/// Random edge list over `n` routers (may be disconnected).
fn arb_edges(n: u32) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec(
        (0..n, 0..n).prop_filter("no loops", |(u, v)| u != v),
        1..200,
    )
}

/// Random sparse graph with a router count on either side of the batch
/// width (often disconnected, with isolated routers), plus a random
/// spanning tree when `connected`.
fn arb_sized_graph(connected: bool) -> impl Strategy<Value = Graph> {
    (0usize..6)
        .prop_flat_map(|i| {
            let n = [0usize, 1, 255, 256, 257, 513][i];
            let r = n.max(1) as u32;
            (
                Just(n),
                prop::collection::vec((0..r, 0..r), 0..2 * n + 1),
                prop::collection::vec(any::<u32>(), n..n + 1),
            )
        })
        .prop_map(move |(n, edges, tree)| {
            let mut edges: Vec<(u32, u32)> = edges.into_iter().filter(|(u, v)| u != v).collect();
            if connected {
                edges.extend((1..n as u32).map(|v| (v, tree[v as usize] % v)));
            }
            Graph::from_edges(n, &edges)
        })
}

/// Per-source distance rows from [`Graph::bfs_batches`], checking on the
/// way that every (source, router) pair is reported at most once and that
/// a batch's levels never decrease.
fn kernel_rows(g: &Graph, sources: &[RouterId]) -> Vec<Vec<u32>> {
    let sinks: Vec<(usize, u32, Vec<Vec<u32>>)> = sources
        .chunks(BFS_BATCH)
        .enumerate()
        .map(|(b, c)| (b, 0, vec![vec![UNREACHABLE; g.n()]; c.len()]))
        .collect();
    g.bfs_batches(sources, sinks, |(_, last, rows), level, v, bits| {
        assert!(level >= *last, "levels went backwards");
        *last = level;
        for_each_source(bits, |i| {
            assert_eq!(rows[i][v as usize], UNREACHABLE, "pair reported twice");
            rows[i][v as usize] = level;
        });
    })
    .into_iter()
    .flat_map(|(_, _, rows)| rows)
    .collect()
}

/// The scalar formulation of [`Graph::diameter_apl_sampled`] (and, with
/// every router as a source, of [`Graph::diameter_apl`]): one BFS per
/// source.
fn reference_diameter_apl(g: &Graph, sources: &[RouterId]) -> (u32, f64) {
    let (mut diam, mut total, mut count) = (0u32, 0u64, 0u64);
    for &src in sources {
        for d in g.bfs(src).into_iter().filter(|&d| d != UNREACHABLE) {
            diam = diam.max(d);
            total += d as u64;
            count += 1;
        }
        count -= 1; // the src->src zero
    }
    (diam, total as f64 / count.max(1) as f64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kernel_levels_equal_bfs(
        g in arb_sized_graph(false),
        picks in prop::collection::vec(any::<u32>(), 0..600),
    ) {
        // Non-contiguous, possibly repeated sources.
        let sources: Vec<RouterId> = if g.n() == 0 {
            Vec::new()
        } else {
            picks.iter().map(|&p| p % g.n() as u32).collect()
        };
        let rows = kernel_rows(&g, &sources);
        for (row, &s) in rows.iter().zip(&sources) {
            prop_assert_eq!(row, &g.bfs(s));
        }
        prop_assert_eq!(rows, rayon::run_sequential(|| kernel_rows(&g, &sources)));
        let all: Vec<RouterId> = (0..g.n() as u32).collect();
        for (row, &s) in kernel_rows(&g, &all).iter().zip(&all) {
            prop_assert_eq!(row, &g.bfs(s));
        }
    }

    #[test]
    fn diameter_apl_equals_scalar_formulation(
        g in arb_sized_graph(true),
        samples in 1usize..600,
    ) {
        prop_assume!(g.n() > 1);
        let n = g.n();
        let all: Vec<RouterId> = (0..n as u32).collect();
        let (d, apl) = g.diameter_apl();
        let (rd, rapl) = reference_diameter_apl(&g, &all);
        prop_assert_eq!((d, apl.to_bits()), (rd, rapl.to_bits()));
        let take = samples.min(n);
        let stride = (n / take).max(1);
        let picked: Vec<RouterId> = (0..take).map(|i| ((i * stride) % n) as u32).collect();
        let (sd, sapl) = g.diameter_apl_sampled(samples);
        let (rsd, rsapl) = reference_diameter_apl(&g, &picked);
        prop_assert_eq!((sd, sapl.to_bits()), (rsd, rsapl.to_bits()));
        let seq = rayon::run_sequential(|| (g.diameter_apl(), g.diameter_apl_sampled(samples)));
        prop_assert_eq!(seq.0 .1.to_bits(), apl.to_bits());
        prop_assert_eq!(seq.1 .1.to_bits(), sapl.to_bits());
    }
}

proptest! {
    #[test]
    fn adjacency_is_symmetric(edges in arb_edges(40)) {
        let g = Graph::from_edges(40, &edges);
        for u in 0..40u32 {
            for &v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u), "asymmetric edge ({u},{v})");
            }
        }
    }

    #[test]
    fn ports_roundtrip(edges in arb_edges(40)) {
        let g = Graph::from_edges(40, &edges);
        for u in 0..40u32 {
            for port in 0..g.degree(u) as u32 {
                let v = g.neighbor_at(u, port);
                prop_assert_eq!(g.port_of(u, v), Some(port));
            }
        }
    }

    #[test]
    fn bfs_satisfies_triangle_inequality(edges in arb_edges(30)) {
        // d(s,t) ≤ d(s,m) + d(m,t) for all reachable triples via one probe m.
        let g = Graph::from_edges(30, &edges);
        let ds = g.bfs(0);
        let dm = g.bfs(7);
        for t in 0..30usize {
            if ds[7] != UNREACHABLE && dm[t] != UNREACHABLE {
                prop_assert!(ds[t] != UNREACHABLE);
                prop_assert!(ds[t] as u64 <= ds[7] as u64 + dm[t] as u64);
            }
        }
    }

    #[test]
    fn bfs_neighbors_differ_by_at_most_one(edges in arb_edges(30)) {
        let g = Graph::from_edges(30, &edges);
        let d = g.bfs(0);
        for (u, v) in g.edges() {
            let (du, dv) = (d[u as usize], d[v as usize]);
            if du != UNREACHABLE && dv != UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1, "BFS dist jump across edge");
            }
        }
    }

    #[test]
    fn jellyfish_always_regular_connected(
        n in 10usize..60,
        k in 3usize..8,
        seed in 0u64..50,
    ) {
        prop_assume!(k < n && (n * k) % 2 == 0);
        let edges = random_regular_edges(n, k, seed);
        let g = Graph::from_edges(n, &edges);
        prop_assert!(g.is_regular());
        prop_assert_eq!(g.degree(0), k);
        prop_assert!(g.is_connected());
    }

    #[test]
    fn xpander_structure(k in 4u32..10, seed in 0u64..20) {
        let t = xpander(k, k, k / 2, seed);
        prop_assert_eq!(t.num_routers() as u32, k * (k + 1));
        prop_assert!(t.graph.is_regular());
        prop_assert_eq!(t.network_radix() as u32, k);
        prop_assert!(t.graph.is_connected());
    }
}
