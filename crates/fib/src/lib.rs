//! # fatpaths-fib
//!
//! FIB compilation: turns any [`RoutingScheme`] into the forwarding
//! state a commodity Ethernet switch would actually hold (§V-E of the
//! paper, and the resource-consumption axis of the multipathing survey,
//! Besta et al. 2020).
//!
//! The deployability argument of FatPaths is that layered routing needs
//! nothing beyond standard hardware: the layer rides in address bits or
//! a VLAN tag, and each switch forwards by **destination-prefix rules**
//! pointing at **ECMP groups**. Everything else in this workspace
//! computes routing *analytically* — `NextHops` derived from graphs on
//! demand. This crate makes the switch-resident state explicit:
//!
//! * [`Fib`] / [`SwitchFib`] — per-switch forwarding state stored as
//!   one dense `(layer tag, destination router) → ECMP group` index,
//!   with per-switch ECMP-group deduplication (two rules pointing at
//!   the same port set share one group, as real ASICs share group-table
//!   slots); the `(layer tag, endpoint-address range) → ECMP group`
//!   rules a switch would install are derived from it (`row_rules`);
//! * [`compile()`] — the compiler, in two modes:
//!   [`CompileMode::HostRoutes`] emits one rule per destination router,
//!   while [`CompileMode::Aggregated`] run-length merges rules over
//!   adjacent destination ranges that resolve to the same group. The
//!   merge automatically exploits topology structure — fat-tree pods,
//!   Dragonfly groups, and HyperX rows occupy contiguous endpoint-id
//!   ranges, so whole domains collapse into single rules, while
//!   irregular Slim Fly / Jellyfish / Xpander tables stay close to host
//!   routes;
//! * [`TableBudget`] / [`FibStats`] — raw vs. compressed entry counts,
//!   group counts, a byte estimate, and overflow accounting against
//!   configurable TCAM/SRAM capacities;
//! * [`CompiledScheme`] — a [`RoutingScheme`] adapter that forwards by
//!   one read of the compiled index per hop, so the packet
//!   simulator runs on *exactly* the state a switch would hold, and a
//!   `repair_routes` pass that prices link-failure repair in rewritten
//!   FIB rows.
//!
//! Compiled forwarding is pinned byte-identical to analytic forwarding
//! across the full baselines grid (`crates/sim/tests/compiled_parity.rs`),
//! and the `memory` experiment sweeps the resulting table state across
//! every topology of the paper.
//!
//! [`RoutingScheme`]: fatpaths_core::scheme::RoutingScheme

pub mod compile;
pub mod compiled;
#[cfg(test)]
mod oracle;
pub mod table;

pub use compile::{compile, CompileMode};
pub use compiled::CompiledScheme;
pub use table::{Fib, FibEntry, FibStats, SwitchFib, TableBudget, MAX_GROUPS};
