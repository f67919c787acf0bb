//! Experiment harnesses behind the `experiments` binary: one module per
//! family of tables/figures from the FatPaths paper. Exposed as a
//! library so integration tests (and benches) can run the same grid
//! computations in-process — the parallel-vs-single-thread parity suite
//! compares byte-for-byte CSV output of [`baselines::baselines_matrix_on`]
//! under both execution modes.
//!
//! Every experiment declares its scenario grid as a
//! [`fatpaths_sim::Grid`]: cells evaluate in parallel on the shim thread
//! pool, seeds derive from cell coordinates via
//! [`fatpaths_sim::cell_seed`], and rows are pushed into one
//! [`common::Table`] in grid order — so `experiments <name>` writes
//! bit-identical artifacts whether it runs on 1 thread or 64.

pub mod adaptive;
pub mod baselines;
pub mod churn;
pub mod common;
pub mod diversity_figs;
pub mod large_scale;
pub mod memory;
pub mod perf_ndp;
pub mod perf_tcp;
pub mod resilience;
pub mod te;
pub mod theory_figs;
pub mod trace;
