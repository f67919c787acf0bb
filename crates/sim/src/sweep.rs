//! Deterministic parallel sweeps over scenario grids.
//!
//! Every experiment in the paper is a grid — topologies × schemes ×
//! workload knobs — whose cells are independent simulations. A
//! [`SweepRunner`] executes such a grid on the shim thread pool while
//! guaranteeing that the output is **bit-identical for any thread
//! count**:
//!
//! * cells are evaluated by a pure(ish) function of the cell value and
//!   its grid index — never of execution order;
//! * results come back in grid order, so CSV rows and summary lines are
//!   assembled serially from an order-stable `Vec`;
//! * randomness must be seeded per cell via [`cell_seed`], a hash of the
//!   cell's *coordinates*, not a shared RNG advanced cell-by-cell.
//!
//! ```
//! use fatpaths_sim::sweep::{cell_seed, SweepRunner};
//!
//! let cells: Vec<(usize, f64)> = vec![(2, 0.5), (2, 0.8), (4, 0.5)];
//! let out = SweepRunner::new("demo", cells).run(|idx, &(n, rho)| {
//!     let seed = cell_seed("demo", &[n as u64, rho.to_bits()]);
//!     format!("cell {idx}: n={n} rho={rho} seed={seed:#x}")
//! });
//! assert_eq!(out.len(), 3);
//! assert!(out[2].starts_with("cell 2: n=4"));
//! ```
//!
//! A cross product of axes is declared as a [`Grid`] instead of being
//! enumerated by hand: axis lengths in, row-major `[usize; N]`
//! coordinates out, and the results come back as a [`GridResults`]
//! that is indexed by those same coordinates — no cell list to build,
//! no index formula to keep in step with it.
//!
//! ```
//! use fatpaths_sim::sweep::Grid;
//!
//! let (layers, rhos) = ([2usize, 4, 9], [0.5, 0.8]);
//! let out = Grid::new([layers.len(), rhos.len()])
//!     .run(|[li, ri]| layers[li] as f64 * rhos[ri]);
//! assert_eq!(out[[2, 1]], 9.0 * 0.8);
//! // Iteration is in nested-loop order, coordinates included.
//! let order: Vec<[usize; 2]> = out.iter().map(|(at, _)| at).collect();
//! assert_eq!(order[..3], [[0, 0], [0, 1], [1, 0]]);
//! ```

use fatpaths_core::fwd::fnv1a;
use rayon::prelude::*;

/// Derives an RNG seed from a sweep cell's coordinates. Seeds depend
/// only on the experiment tag and the coordinate values, so a cell keeps
/// its seed when the grid is reordered, filtered, or run at a different
/// thread count — the seeding discipline every sweep in
/// `fatpaths-experiments` follows.
pub fn cell_seed(experiment: &str, coords: &[u64]) -> u64 {
    let mut h = coord_str(experiment);
    for &c in coords {
        h = fnv1a(h ^ fnv1a(c));
    }
    // Avoid the degenerate all-zero stream for pathological inputs.
    h | 1
}

/// Folds a string into one [`cell_seed`] coordinate. Use this for
/// coordinates that name things (a topology, a scheme) instead of their
/// position in the grid, so a cell's seed survives grid reordering or
/// filtering.
pub fn coord_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs a grid of independent cells in parallel, returning results in
/// grid order. See the module docs for the determinism contract.
pub struct SweepRunner<C> {
    cells: Vec<C>,
}

impl<C: Send + Sync> SweepRunner<C> {
    /// A sweep named `label` over `cells`. The label is the experiment
    /// tag a cell passes to [`cell_seed`]; the runner does not read it.
    pub fn new(_label: &'static str, cells: Vec<C>) -> Self {
        SweepRunner { cells }
    }

    /// Evaluates `f(index, cell)` for every cell on the thread pool and
    /// returns the results in cell order. A panicking cell propagates
    /// after the sweep drains (no deadlock, no partial output).
    pub fn run<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &C) -> R + Sync + Send,
    {
        self.cells
            .par_iter()
            .enumerate()
            .map(|(i, c)| f(i, c))
            .collect()
    }
}

/// A declared sweep grid: the cross product of `N` axes, given by their
/// lengths. Cells are coordinate arrays in row-major (nested-loop)
/// order — the last axis varies fastest — so a grid replaces both the
/// nested loops that would enumerate the cells and the mixed-radix
/// formula that would find one again.
#[derive(Clone, Copy, Debug)]
pub struct Grid<const N: usize> {
    dims: [usize; N],
}

impl<const N: usize> Grid<N> {
    /// The grid over axes of the given lengths.
    pub fn new(dims: [usize; N]) -> Self {
        Grid { dims }
    }

    /// Number of cells: the product of the axis lengths (0 when any
    /// axis is empty).
    pub(crate) fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// True when some axis is empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row-major position of the cell at `at`; the inverse of
    /// [`cells`](Grid::cells) enumeration. Panics when a coordinate is
    /// outside its axis.
    pub(crate) fn index(&self, at: [usize; N]) -> usize {
        at.iter().zip(&self.dims).fold(0, |i, (&c, &d)| {
            assert!(c < d, "cell {at:?} outside grid {:?}", self.dims);
            i * d + c
        })
    }

    /// Every cell's coordinates, in row-major order.
    pub(crate) fn cells(&self) -> impl Iterator<Item = [usize; N]> {
        let dims = self.dims;
        (0..self.len()).map(move |mut i| {
            let mut at = [0; N];
            for (c, &d) in at.iter_mut().zip(&dims).rev() {
                *c = i % d;
                i /= d;
            }
            at
        })
    }

    /// Evaluates `f(coordinates)` for every cell on the thread pool
    /// (the [`SweepRunner::run`] determinism contract) and returns the
    /// results addressable by coordinate.
    pub fn run<R, F>(&self, f: F) -> GridResults<N, R>
    where
        R: Send,
        F: Fn([usize; N]) -> R + Sync + Send,
    {
        let at: Vec<[usize; N]> = self.cells().collect();
        let cells = at.par_iter().map(|&at| f(at)).collect();
        GridResults { grid: *self, cells }
    }
}

/// The results of a [`Grid::run`], in grid order. `results[[a, b, c]]`
/// is the cell at those coordinates.
pub struct GridResults<const N: usize, R> {
    grid: Grid<N>,
    cells: Vec<R>,
}

impl<const N: usize, R> GridResults<N, R> {
    /// `(coordinates, result)` of every cell, in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = ([usize; N], &R)> {
        self.grid.cells().zip(&self.cells)
    }

    /// The cells whose first coordinate is `first` — one topology's
    /// block of a topology-major grid — in row-major order.
    pub fn under(&self, first: usize) -> impl Iterator<Item = ([usize; N], &R)> {
        self.iter().filter(move |(at, _)| at[0] == first)
    }

    /// The bare results in grid order (what a one-axis sweep wants).
    pub fn into_vec(self) -> Vec<R> {
        self.cells
    }
}

impl<const N: usize, R> std::ops::Index<[usize; N]> for GridResults<N, R> {
    type Output = R;

    fn index(&self, at: [usize; N]) -> &R {
        &self.cells[self.grid.index(at)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn results_come_back_in_grid_order() {
        let cells: Vec<u32> = (0..100).rev().collect();
        let out = SweepRunner::new("order", cells.clone()).run(|i, &c| (i, c * 2));
        for (i, &(idx, v)) in out.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(v, cells[i] * 2);
        }
    }

    #[test]
    fn cell_seed_depends_on_coordinates_not_order() {
        let a = cell_seed("exp", &[1, 2, 3]);
        let b = cell_seed("exp", &[1, 2, 3]);
        let c = cell_seed("exp", &[3, 2, 1]);
        let d = cell_seed("other", &[1, 2, 3]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn parallel_matches_sequential() {
        let runner = SweepRunner::new("parity", (0..64u64).collect());
        let work = |_: usize, &c: &u64| -> u64 { (0..c).map(|x| x * x).sum() };
        let par = runner.run(work);
        let seq = rayon::run_sequential(|| runner.run(work));
        assert_eq!(par, seq);
    }

    /// Checks one grid against an odometer (the definition of nested
    /// loops: bump the last axis, carry leftwards) and `index` against
    /// enumeration.
    fn check_row_major<const N: usize>(dims: [usize; N]) {
        let grid = Grid::new(dims);
        let cells: Vec<[usize; N]> = grid.cells().collect();
        assert_eq!(cells.len(), grid.len());
        assert_eq!(grid.is_empty(), dims.contains(&0));
        let mut want = [0usize; N];
        for (i, &at) in cells.iter().enumerate() {
            assert_eq!(at, want, "cell {i} of {dims:?}");
            assert_eq!(grid.index(at), i);
            for a in (0..N).rev() {
                want[a] += 1;
                if want[a] < dims[a] {
                    break;
                }
                want[a] = 0;
            }
        }
    }

    proptest! {
        #[test]
        fn grid_enumerates_in_nested_loop_order_and_index_inverts_it(
            d in prop::collection::vec(0usize..4, 5..6),
        ) {
            check_row_major([d[0]]);
            check_row_major([d[0], d[1]]);
            check_row_major([d[0], d[1], d[2]]);
            check_row_major([d[0], d[1], d[2], d[3]]);
            check_row_major([d[0], d[1], d[2], d[3], d[4]]);
        }
    }

    #[test]
    fn grid_with_an_empty_axis_has_no_cells() {
        let grid = Grid::new([2, 0, 3]);
        assert!(grid.is_empty());
        assert_eq!(grid.cells().count(), 0);
        assert!(grid.run(|at| at).into_vec().is_empty());
    }

    #[test]
    fn grid_results_are_addressable_by_coordinate() {
        let grid = Grid::new([3, 4, 2]);
        let work = |[a, b, c]: [usize; 3]| a * 100 + b * 10 + c;
        let pooled = grid.run(work);
        let seq = rayon::run_sequential(|| grid.run(work));
        for out in [&pooled, &seq] {
            for at in grid.cells() {
                assert_eq!(out[at], work(at));
            }
            assert_eq!(out.iter().count(), 24);
            let block: Vec<usize> = out.under(1).map(|(_, &v)| v).collect();
            assert_eq!(
                block,
                (0..8).map(|i| 100 + i / 2 * 10 + i % 2).collect::<Vec<_>>()
            );
        }
        assert_eq!(pooled.into_vec(), seq.into_vec());
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn grid_index_rejects_out_of_range_coordinates() {
        Grid::new([2, 2]).index([1, 2]);
    }
}
