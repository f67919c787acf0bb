//! The simulatable face of a compiled FIB: a [`RoutingScheme`] that
//! forwards by matching the compiled per-switch tables instead of
//! consulting the analytic scheme — so a packet simulation exercises
//! exactly the state a switch would hold.
//!
//! Parity is structural: compilation enumerates the inner scheme's
//! forwarding function over its full tag space, and lookup misses map
//! to empty candidate sets exactly where the inner scheme reports
//! unreachable — so compiled and analytic runs produce byte-identical
//! results (pinned in `crates/sim/tests/compiled_parity.rs`).
//!
//! Two pieces of state deliberately stay with the inner scheme:
//!
//! * [`update_layer`] — per-hop tag rewriting is VLAN-rewrite state, a
//!   separate (tiny) table on real hardware, not destination-prefix
//!   forwarding state; the adapter delegates it unchanged.
//! * repair decisions — [`repair_routes`] delegates the *routing*
//!   response to the inner scheme, then prices realizing that overlay
//!   in switch memory: only FIB rows whose ECMP groups touch down
//!   ports change, and the rewritten-row count (with aggregated-range
//!   splits and re-merges accounted) lands in
//!   [`RouteRepair::fib_rows_rewritten`], which the simulator surfaces
//!   per repair pass.
//!
//! [`update_layer`]: RoutingScheme::update_layer
//! [`repair_routes`]: RoutingScheme::repair_routes

use crate::compile::{compile, CompileMode};
use crate::table::Fib;
use fatpaths_core::repair::{DownLinks, RouteRepair};
use fatpaths_core::scheme::{PortSet, RoutingScheme};
use fatpaths_net::graph::{Graph, RouterId};
use fatpaths_net::topo::Topology;

/// A routing scheme that forwards from compiled per-switch FIBs,
/// wrapping the scheme it was compiled from.
pub struct CompiledScheme<S> {
    inner: S,
    fib: Fib,
}

impl<S: RoutingScheme + Sync> CompiledScheme<S> {
    /// Compiles `inner` on `topo` and wraps it.
    pub fn compile(topo: &Topology, inner: S, mode: CompileMode) -> Self {
        let fib = compile(topo, &inner, mode);
        CompiledScheme { inner, fib }
    }

    /// The compiled tables (for statistics and budget accounting).
    pub fn fib(&self) -> &Fib {
        &self.fib
    }

    /// The analytic scheme the tables were compiled from.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: RoutingScheme> RoutingScheme for CompiledScheme<S> {
    fn num_layers(&self) -> usize {
        self.inner.num_layers()
    }

    fn tag_space(&self) -> usize {
        self.fib.tag_space()
    }

    fn candidate_ports(&self, layer: u8, at_router: RouterId, dst_router: RouterId) -> PortSet {
        let l = (layer as usize).min(self.fib.tag_space() - 1);
        match self.fib.lookup_router(at_router, l, dst_router) {
            Some(g) => g.clone(),
            None => PortSet::new(),
        }
    }

    fn update_layer(&self, layer: u8, at_router: RouterId, dst_router: RouterId) -> u8 {
        self.inner.update_layer(layer, at_router, dst_router)
    }

    /// Delegates the routing decision to the inner scheme and prices it
    /// in switch memory: the returned overlay is identical (so compiled
    /// and analytic fault runs stay byte-identical), with
    /// [`RouteRepair::fib_rows_rewritten`] set to the number of FIB
    /// rows the control plane must push.
    fn repair_routes(&self, base: &Graph, down: &DownLinks) -> RouteRepair {
        let mut rep = self.inner.repair_routes(base, down);
        rep.fib_rows_rewritten = self.count_rewritten_rows(&rep);
        rep
    }
}

impl<S: RoutingScheme> CompiledScheme<S> {
    /// Number of FIB rows the overlay rewrites, computed by re-running
    /// the compiler's run-length merge over the changed keys only: per
    /// `(switch, layer)`, consecutive changed destinations with
    /// contiguous endpoint ranges and identical new port sets coalesce
    /// into one pushed rule (in [`CompileMode::HostRoutes`] every
    /// changed destination is its own row). In aggregated mode a change
    /// that lands *inside* a stored merged rule also splits it: the
    /// unchanged left/right remnants of the stored rules at the two
    /// ends of each touched address segment must be re-pushed too, and
    /// are counted (interior stored rules are wholly replaced — no
    /// remnants). Keys for routers without endpoints carry no FIB
    /// state and are skipped, as are tags outside the compiled span.
    fn count_rewritten_rows(&self, rep: &RouteRepair) -> u64 {
        if rep.is_empty() {
            return 0;
        }
        let off = &self.fib.endpoint_offset;
        // `rows()` yields `(at, layer, dst)` order: per switch and layer,
        // ascending destinations.
        let keys = rep.rows().filter(|&((l, _, dst), _)| {
            (l as usize) < self.fib.tag_space() && off[dst as usize] < off[dst as usize + 1]
        });
        let aggregated = self.fib.mode() == CompileMode::Aggregated;
        // The stored rule of switch `at` covering endpoint `ep`, if any.
        let stored = |at: RouterId, l: u8, ep: u32| {
            let rules = &self.fib.switches[at as usize].layers[l as usize];
            let i = rules.partition_point(|e| e.hi <= ep);
            rules.get(i).filter(|e| e.lo <= ep).copied()
        };
        let mut rows = 0u64;
        // Run-length state over the new rules ((at, l, hi, ports)) and
        // the touched address segment ((at, l, seg_lo, seg_hi)) —
        // segments extend across port changes; their interior stored
        // rules are wholly replaced, but a stored rule sticking out of
        // either end leaves an unchanged remnant that must be re-pushed.
        let mut prev: Option<(RouterId, u8, u32, &[u16])> = None;
        let mut seg: Option<(RouterId, u8, u32, u32)> = None;
        let mut remnants = 0u64;
        let close_segment = |s: Option<(RouterId, u8, u32, u32)>| {
            let Some((at, l, seg_lo, seg_hi)) = s else {
                return 0u64;
            };
            let mut n = 0u64;
            if stored(at, l, seg_lo).is_some_and(|e| e.lo < seg_lo) {
                n += 1; // left remnant of a split rule
            }
            if stored(at, l, seg_hi - 1).is_some_and(|e| e.hi > seg_hi) {
                n += 1; // right remnant of a split rule
            }
            n
        };
        for ((l, at, dst), ports) in keys {
            let (lo, hi) = (off[dst as usize], off[dst as usize + 1]);
            let merges = aggregated
                && prev.is_some_and(|(pat, pl, phi, pports)| {
                    pat == at && pl == l && phi == lo && pports == ports
                });
            if !merges {
                rows += 1;
            }
            prev = Some((at, l, hi, ports));
            if aggregated {
                match seg {
                    Some((sat, sl, slo, shi)) if sat == at && sl == l && shi == lo => {
                        seg = Some((sat, sl, slo, hi));
                    }
                    _ => {
                        remnants += close_segment(seg);
                        seg = Some((at, l, lo, hi));
                    }
                }
            }
        }
        remnants += close_segment(seg);
        rows + remnants
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fatpaths_core::fwd::RoutingTables;
    use fatpaths_core::layers::{build_random_layers, LayerConfig};
    use fatpaths_net::fault::{FaultModel, FaultPlan};
    use fatpaths_net::topo::slimfly::slim_fly;

    fn compiled(topo: &Topology, mode: CompileMode) -> CompiledScheme<RoutingTables> {
        let ls = build_random_layers(&topo.graph, &LayerConfig::new(4, 0.6, 7));
        let rt = RoutingTables::build(&topo.graph, &ls);
        CompiledScheme::compile(topo, rt, mode)
    }

    #[test]
    fn compiled_ports_match_inner_everywhere() {
        let t = slim_fly(5, 2).unwrap();
        let cs = compiled(&t, CompileMode::Aggregated);
        for l in 0..cs.tag_space() as u8 {
            for at in 0..t.num_routers() as u32 {
                for dst in (0..t.num_routers() as u32).step_by(7) {
                    if at == dst {
                        continue;
                    }
                    let a = cs.candidate_ports(l, at, dst);
                    let b = cs.inner().candidate_ports(l, at, dst);
                    assert_eq!(a.as_slice(), b.as_slice(), "tag {l} {at}->{dst}");
                }
            }
        }
        assert_eq!(cs.num_layers(), 4);
    }

    #[test]
    fn repair_overlay_identical_and_fib_rows_priced() {
        let t = slim_fly(5, 2).unwrap();
        let cs = compiled(&t, CompileMode::Aggregated);
        let plan = FaultPlan::sample(&t, &FaultModel::UniformFraction { fraction: 0.08 }, 3);
        let down = DownLinks::from_links(plan.static_failures());
        let rep_inner = cs.inner().repair_routes(&t.graph, &down);
        let rep = RoutingScheme::repair_routes(&cs, &t.graph, &down);
        assert_eq!(rep.len(), rep_inner.len());
        assert_eq!(
            rep_inner.fib_rows_rewritten, 0,
            "analytic schemes carry no FIB"
        );
        assert!(rep.fib_rows_rewritten > 0, "repair must touch FIB rows");
        // Every overlay decision matches the inner scheme's.
        for (key, ports) in rep_inner.rows() {
            let got = rep.lookup(key.0, key.1, key.2).expect("key present");
            assert_eq!(got, ports);
        }
        // Host-route pricing never merges and never splits: exactly one
        // pushed row per overlay key.
        let host = compiled(&t, CompileMode::HostRoutes);
        let rep_host = RoutingScheme::repair_routes(&host, &t.graph, &down);
        assert_eq!(rep_host.fib_rows_rewritten, rep_host.len() as u64);
    }

    /// Hand-computed split accounting on a 4-router line (one endpoint
    /// per router), minimal-only tables, failing the middle link
    /// `{1, 2}`: every switch loses the two destinations across the
    /// cut. Aggregated stored rules at the line's ends cover three
    /// destinations each, so the change lands *inside* them and leaves
    /// an unchanged remnant that must be re-pushed:
    ///
    /// * switch 0 (stored rule `[1,4) → port(1)`): one merged delete +
    ///   the surviving left remnant `[1,2)` = 2 rows; switch 3 is
    ///   symmetric (right remnant) = 2 rows;
    /// * switches 1 and 2: the changed segment exactly covers a stored
    ///   rule — no remnant, 1 row each.
    ///
    /// Total aggregated = 6; host routes = one row per overlay key = 8.
    #[test]
    fn split_rules_price_their_remnants() {
        use fatpaths_net::topo::{LinkClass, TopoKind};
        let topo = Topology::assemble(
            TopoKind::Star,
            "line4".into(),
            4,
            vec![
                (0, 1, LinkClass::Short),
                (1, 2, LinkClass::Short),
                (2, 3, LinkClass::Short),
            ],
            vec![1, 1, 1, 1],
            3,
        );
        let build = |mode| {
            let rt = RoutingTables::build(
                &topo.graph,
                &fatpaths_core::layers::LayerSet::minimal_only(&topo.graph),
            );
            CompiledScheme::compile(&topo, rt, mode)
        };
        let down = DownLinks::from_links(&[(1, 2)]);
        let agg = build(CompileMode::Aggregated);
        let rep = RoutingScheme::repair_routes(&agg, &topo.graph, &down);
        assert_eq!(rep.len(), 8, "4 switches × 2 now-unreachable dsts");
        assert_eq!(rep.fib_rows_rewritten, 6, "4 merged deletes + 2 remnants");
        let host = build(CompileMode::HostRoutes);
        let rep_host = RoutingScheme::repair_routes(&host, &topo.graph, &down);
        assert_eq!(rep_host.fib_rows_rewritten, 8);
    }

    #[test]
    fn empty_down_set_prices_nothing() {
        let t = slim_fly(5, 1).unwrap();
        let cs = compiled(&t, CompileMode::Aggregated);
        let rep = RoutingScheme::repair_routes(&cs, &t.graph, &DownLinks::from_links(&[]));
        assert!(rep.is_empty());
        assert_eq!(rep.fib_rows_rewritten, 0);
    }
}
