//! Multi-dimensional histograms ("grids") for seed-group discovery
//! (paper Sec. 4.2).
//!
//! A grid partitions the dataset along `c` chosen *building dimensions*
//! into `bins_per_dim^c` equi-width cells. If all building dimensions are
//! relevant to some cluster, the cluster's members pile into one cell and
//! the peak density stands far above the background; if any building
//! dimension is irrelevant, the members smear across a whole slab of cells
//! and the peak flattens. SSPC exploits this contrast: it builds many grids
//! from candidate dimensions and keeps the densest peak.
//!
//! The search reads cell densities only, so a [`Grid`] holds per-cell
//! counts. The objects of each cell are a separate value,
//! [`GridMembers`], which the initializer builds for the winning grid
//! alone, to gather its seeds.
//!
//! Two peak-finding modes are used by the initializer:
//! * [`Grid::peak_cell`] — the absolute densest cell (labeled-dimensions
//!   case, where there is no starting point);
//! * [`Grid::hill_climb`] — localized search from a starting cell (cases
//!   with labeled objects or a max-min anchor), stepping to the densest of
//!   the `3^c − 1` Chebyshev neighbours while density improves. This both
//!   locates the intended peak among multiple peaks and corrects a median
//!   biased towards one side of the cluster.

use sspc_common::{Dataset, DimId, ObjectId};
use std::rc::Rc;

/// The single equi-width binning formula every grid/weight computation in
/// the crate uses: values below range clamp to bin 0, the top edge and
/// values above clamp to the last bin. All binning (direct builds, cached
/// [`BinColumn`]s, anchor weights) must agree bit-for-bit, so they all
/// route through here.
///
/// Equal to `(rel.floor().max(0.0) as usize).min(bins - 1)` for every
/// `f64`: `max` sends NaN, −0.0 and negatives to 0.0, and on the
/// non-negative rest the truncating cast is `floor`. Without SSE4.1 a
/// `floor` is a library call per value.
#[inline]
pub(crate) fn bin_index(v: f64, lo: f64, width: f64, bins: usize) -> usize {
    let rel = (v - lo) / width;
    (rel.max(0.0) as usize).min(bins - 1)
}

/// Bin width for one dimension: equi-width over the global range, with
/// constant dimensions collapsing to a single unit-width bin.
#[inline]
pub(crate) fn bin_width(dataset: &Dataset, j: DimId, bins: usize) -> f64 {
    let range = dataset.global_range(j);
    if range > 0.0 {
        range / bins as f64
    } else {
        1.0
    }
}

/// A dense `c`-dimensional histogram over a subset of the objects: the
/// object count of every cell. It cannot name a cell's objects; that is
/// [`GridMembers`].
#[derive(Debug, Clone)]
pub struct Grid {
    dims: Vec<DimId>,
    bins: usize,
    lo: Vec<f64>,
    width: Vec<f64>,
    /// Flattened cells, each holding its number of objects.
    counts: Vec<u32>,
}

/// The objects in every cell of one grid, in ascending id order within a
/// cell.
#[derive(Debug, Clone)]
pub struct GridMembers {
    bins: usize,
    /// Flattened cells, indexed like [`Grid`]'s counts.
    cells: Vec<Vec<ObjectId>>,
}

impl Grid {
    /// Builds a grid over `dims` with `bins` bins per dimension, counting
    /// only objects with `available[o] == true`, together with its member
    /// lists. The counts are the member lists' lengths.
    ///
    /// Degenerate (constant) dimensions get a unit-width single bin.
    ///
    /// # Panics
    ///
    /// Debug-asserts `dims` is non-empty and `bins ≥ 2`; callers
    /// ([`crate::Sspc`]) validate parameters before construction.
    ///
    /// Production code goes through the bin cache
    /// ([`Grid::count_from_bins`], [`GridMembers::from_bins`]); this
    /// direct build is the reference the cached path is
    /// equivalence-tested against.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn build(
        dataset: &Dataset,
        dims: &[DimId],
        bins: usize,
        available: &[bool],
    ) -> (Self, GridMembers) {
        debug_assert!(!dims.is_empty() && bins >= 2);
        debug_assert_eq!(available.len(), dataset.n_objects());
        let lo: Vec<f64> = dims.iter().map(|&j| dataset.global_min(j)).collect();
        let width: Vec<f64> = dims.iter().map(|&j| bin_width(dataset, j, bins)).collect();
        let n_cells = bins.pow(dims.len() as u32);
        let mut cells = vec![Vec::new(); n_cells];
        let n = dataset.n_objects();
        let mut flat = vec![0usize; n];
        for (axis, &j) in dims.iter().enumerate() {
            let col = dataset.column_slice(j);
            for (slot, &v) in flat.iter_mut().zip(col.iter()) {
                *slot = *slot * bins + bin_index(v, lo[axis], width[axis], bins);
            }
        }
        for o in dataset.object_ids() {
            if available[o.index()] {
                cells[flat[o.index()]].push(o);
            }
        }
        let grid = Grid {
            dims: dims.to_vec(),
            bins,
            lo,
            width,
            counts: cells.iter().map(|objs| objs.len() as u32).collect(),
        };
        (grid, GridMembers { bins, cells })
    }

    /// The counts of [`Grid::build`] from per-dimension bin indices that
    /// were computed once and cached by the caller (`bin_cols[axis][o]` =
    /// the bin of object `o` on `dims[axis]`, by exactly the
    /// [`Grid::build`] binning formula). The initializer builds `g` grids
    /// per seed group from a small candidate set, so each dimension's
    /// binning is reused many times, and a grid costs integer mixing and
    /// one counting pass. `flat` is scratch for the flat cell indices,
    /// reused across calls.
    pub(crate) fn count_from_bins(
        dims: &[DimId],
        bins: usize,
        bin_cols: &[Rc<BinColumn>],
        available: &[bool],
        flat: &mut Vec<usize>,
    ) -> Self {
        debug_assert!(!dims.is_empty() && bins >= 2);
        debug_assert_eq!(dims.len(), bin_cols.len());
        flat_cells(bins, bin_cols, flat);
        let mut counts = vec![0u32; bins.pow(dims.len() as u32)];
        for (&cell, &avail) in flat.iter().zip(available) {
            counts[cell] += u32::from(avail);
        }
        Grid {
            dims: dims.to_vec(),
            bins,
            lo: bin_cols.iter().map(|bc| bc.lo).collect(),
            width: bin_cols.iter().map(|bc| bc.width).collect(),
            counts,
        }
    }

    /// Computes one dimension's cached binning for
    /// [`Grid::count_from_bins`] and [`GridMembers::from_bins`], using the
    /// [`Grid::build`] formulas.
    pub(crate) fn bin_column(dataset: &Dataset, j: DimId, bins: usize) -> BinColumn {
        debug_assert!(bins <= u16::MAX as usize + 1, "validated by SspcParams");
        let lo = dataset.global_min(j);
        let width = bin_width(dataset, j, bins);
        let col = dataset.column_slice(j);
        let out: Vec<u16> = col
            .iter()
            .map(|&v| bin_index(v, lo, width, bins) as u16)
            .collect();
        BinColumn {
            lo,
            width,
            bins: out,
        }
    }

    /// Cell coordinates of an arbitrary full-length point.
    pub fn coords_of_row(&self, row: &[f64]) -> Vec<usize> {
        self.dims
            .iter()
            .enumerate()
            .map(|(axis, &j)| bin_index(row[j.index()], self.lo[axis], self.width[axis], self.bins))
            .collect()
    }

    /// Number of objects in a cell.
    pub fn density(&self, coords: &[usize]) -> usize {
        self.counts[flatten(self.bins, coords)] as usize
    }

    /// The densest cell of the whole grid and its density. Ties go to the
    /// highest flat index (`Iterator::max_by_key` keeps the last
    /// maximum); every labeled-dimensions seed group depends on that rule.
    pub fn peak_cell(&self) -> (Vec<usize>, usize) {
        let (best_idx, &best) = self
            .counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &count)| count)
            .expect("grid has at least one cell");
        (self.unflatten(best_idx), best as usize)
    }

    fn unflatten(&self, mut idx: usize) -> Vec<usize> {
        let c = self.dims.len();
        let mut coords = vec![0usize; c];
        for axis in (0..c).rev() {
            coords[axis] = idx % self.bins;
            idx /= self.bins;
        }
        coords
    }

    /// Localized hill-climbing from `start`: repeatedly move to the densest
    /// Chebyshev-1 neighbour while that improves density. Returns the local
    /// peak and its density.
    pub fn hill_climb(&self, start: &[usize]) -> (Vec<usize>, usize) {
        let mut current = start.to_vec();
        let mut current_density = self.density(&current);
        loop {
            let mut best_neighbor: Option<(Vec<usize>, usize)> = None;
            self.for_each_neighbor(&current, |coords| {
                let d = self.density(coords);
                if d > best_neighbor
                    .as_ref()
                    .map_or(current_density, |(_, bd)| *bd)
                {
                    best_neighbor = Some((coords.to_vec(), d));
                }
            });
            match best_neighbor {
                Some((coords, d)) if d > current_density => {
                    current = coords;
                    current_density = d;
                }
                _ => return (current, current_density),
            }
        }
    }

    /// Visits every cell whose Chebyshev distance from `center` is exactly 1
    /// (the `3^c − 1` neighbours, truncated at grid borders).
    fn for_each_neighbor(&self, center: &[usize], f: impl FnMut(&[usize])) {
        for_each_at_radius(self.bins, center, 1, f);
    }
}

impl GridMembers {
    /// The member lists of the grid over the dimensions of `bin_cols`
    /// (cached binnings, as for [`Grid::count_from_bins`]), holding only
    /// objects with `available[o] == true`. Equal to the member lists
    /// [`Grid::build`] returns for the same inputs.
    pub(crate) fn from_bins(bins: usize, bin_cols: &[Rc<BinColumn>], available: &[bool]) -> Self {
        debug_assert!(!bin_cols.is_empty() && bins >= 2);
        let mut flat = Vec::new();
        flat_cells(bins, bin_cols, &mut flat);
        let mut cells = vec![Vec::new(); bins.pow(bin_cols.len() as u32)];
        for (o, (&cell, &avail)) in flat.iter().zip(available).enumerate() {
            if avail {
                cells[cell].push(ObjectId(o));
            }
        }
        GridMembers { bins, cells }
    }

    /// Objects in a cell.
    pub fn objects_in(&self, coords: &[usize]) -> &[ObjectId] {
        &self.cells[flatten(self.bins, coords)]
    }

    /// Collects objects from `center` outward (rings of growing Chebyshev
    /// radius) until at least `min` objects are gathered or the grid is
    /// exhausted. Objects from the center cell come first; within a ring,
    /// cells come in odometer order (first axis fastest).
    pub fn collect_at_least(&self, center: &[usize], min: usize) -> Vec<ObjectId> {
        let mut out: Vec<ObjectId> = self.objects_in(center).to_vec();
        let mut radius = 1usize;
        let max_radius = self.bins; // beyond this every cell is covered
        while out.len() < min && radius <= max_radius {
            for_each_at_radius(self.bins, center, radius, |coords| {
                out.extend_from_slice(self.objects_in(coords));
            });
            radius += 1;
        }
        out
    }
}

/// Writes every object's flat cell index over the cached columns into
/// `flat` (the first column's bin is the most significant digit).
fn flat_cells(bins: usize, bin_cols: &[Rc<BinColumn>], flat: &mut Vec<usize>) {
    let (first, rest) = bin_cols
        .split_first()
        .expect("a grid has building dimensions");
    flat.clear();
    flat.extend(first.bins.iter().map(|&b| usize::from(b)));
    for bc in rest {
        debug_assert_eq!(bc.bins.len(), flat.len());
        for (slot, &b) in flat.iter_mut().zip(bc.bins.iter()) {
            *slot = *slot * bins + usize::from(b);
        }
    }
}

fn flatten(bins: usize, coords: &[usize]) -> usize {
    coords.iter().fold(0, |acc, &c| acc * bins + c)
}

/// Visits every cell at Chebyshev distance exactly `radius` from `center`
/// in a grid of `bins` bins per axis.
fn for_each_at_radius(bins: usize, center: &[usize], radius: usize, mut f: impl FnMut(&[usize])) {
    let c = center.len();
    let r = radius as i64;
    let mut offset = vec![-r; c];
    'outer: loop {
        if offset.iter().any(|&o| o.unsigned_abs() as usize == radius) {
            let mut coords = Vec::with_capacity(c);
            let mut in_range = true;
            for (axis, &off) in offset.iter().enumerate() {
                let v = center[axis] as i64 + off;
                if v < 0 || v >= bins as i64 {
                    in_range = false;
                    break;
                }
                coords.push(v as usize);
            }
            if in_range {
                f(&coords);
            }
        }
        // Odometer increment over [-r, r]^c.
        for slot in offset.iter_mut() {
            *slot += 1;
            if *slot <= r {
                continue 'outer;
            }
            *slot = -r;
        }
        break;
    }
}

/// One dimension's cached equi-width binning (see [`Grid::bin_column`]).
#[derive(Debug, Clone)]
pub(crate) struct BinColumn {
    pub(crate) lo: f64,
    pub(crate) width: f64,
    /// `bins[o]` = bin index of object `o`; `u16` bounds the bin count at
    /// 65535 per dimension, far beyond any sensible histogram.
    pub(crate) bins: Vec<u16>,
}

impl BinColumn {
    /// The bin an arbitrary coordinate value falls into, by the same
    /// formula the cached per-object bins were computed with.
    pub(crate) fn bin_of(&self, v: f64, bins: usize) -> usize {
        bin_index(v, self.lo, self.width, bins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use sspc_common::rng::seeded_rng;

    /// 10 objects in 2-D; 5 clustered near (10, 10), the rest spread.
    fn dataset() -> Dataset {
        Dataset::from_rows(
            10,
            2,
            vec![
                10.0, 10.0, //
                11.0, 9.0, //
                9.5, 10.5, //
                10.5, 9.5, //
                10.2, 10.8, //
                50.0, 50.0, //
                90.0, 20.0, //
                30.0, 80.0, //
                70.0, 60.0, //
                0.0, 99.0,
            ],
        )
        .unwrap()
    }

    fn all_available(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    fn bin_cols(ds: &Dataset, dims: &[DimId], bins: usize) -> Vec<Rc<BinColumn>> {
        dims.iter()
            .map(|&j| Rc::new(Grid::bin_column(ds, j, bins)))
            .collect()
    }

    /// The bin formula as it was written before the truncating form.
    fn floor_bin_index(v: f64, lo: f64, width: f64, bins: usize) -> usize {
        let rel = (v - lo) / width;
        (rel.floor().max(0.0) as usize).min(bins - 1)
    }

    #[test]
    fn peak_cell_finds_the_dense_corner() {
        let ds = dataset();
        let (grid, members) = Grid::build(&ds, &[DimId(0), DimId(1)], 5, &all_available(10));
        let (peak, density) = grid.peak_cell();
        assert_eq!(density, 5);
        // The cluster sits near (10, 10) in a [0, 90] × [9, 99] box →
        // first bin on both axes.
        assert_eq!(members.objects_in(&peak).len(), 5);
        assert!(members.objects_in(&peak).contains(&ObjectId(0)));
    }

    #[test]
    fn availability_mask_excludes_objects() {
        let ds = dataset();
        let mut avail = all_available(10);
        for slot in avail.iter_mut().take(5) {
            *slot = false; // exclude the dense cluster
        }
        let (grid, _) = Grid::build(&ds, &[DimId(0), DimId(1)], 5, &avail);
        let (_, density) = grid.peak_cell();
        assert!(density <= 1, "spread objects should not form a peak");
    }

    #[test]
    fn coords_respect_edges() {
        let ds = dataset();
        let (grid, _) = Grid::build(&ds, &[DimId(0)], 4, &all_available(10));
        // Max value of dim 0 is 90 → top edge → last bin.
        let coords = grid.coords_of_row(&[90.0, 0.0]);
        assert_eq!(coords, vec![3]);
        let coords = grid.coords_of_row(&[0.0, 0.0]);
        assert_eq!(coords, vec![0]);
        // Below-range values clamp to the first bin rather than underflow.
        let coords = grid.coords_of_row(&[-5.0, 0.0]);
        assert_eq!(coords, vec![0]);
    }

    #[test]
    fn constant_dimension_gets_single_bin_behaviour() {
        let ds = Dataset::from_rows(3, 1, vec![7.0, 7.0, 7.0]).unwrap();
        let (grid, _) = Grid::build(&ds, &[DimId(0)], 3, &all_available(3));
        let (peak, density) = grid.peak_cell();
        assert_eq!(density, 3);
        assert_eq!(peak, vec![0]);
    }

    #[test]
    fn hill_climb_walks_to_local_peak() {
        let ds = dataset();
        let (grid, _) = Grid::build(&ds, &[DimId(0), DimId(1)], 5, &all_available(10));
        let (peak, peak_density) = grid.peak_cell();
        // Start one cell away from the peak; the climb must land on it.
        let start = vec![(peak[0] + 1).min(4), peak[1]];
        let (end, density) = grid.hill_climb(&start);
        assert_eq!(end, peak);
        assert_eq!(density, peak_density);
    }

    #[test]
    fn hill_climb_stays_when_no_better_neighbor() {
        let ds = dataset();
        let (grid, _) = Grid::build(&ds, &[DimId(0), DimId(1)], 5, &all_available(10));
        let (peak, _) = grid.peak_cell();
        let (end, _) = grid.hill_climb(&peak);
        assert_eq!(end, peak);
    }

    #[test]
    fn collect_at_least_expands_rings() {
        let ds = dataset();
        let (grid, members) = Grid::build(&ds, &[DimId(0), DimId(1)], 5, &all_available(10));
        let (peak, _) = grid.peak_cell();
        let five = members.collect_at_least(&peak, 5);
        assert!(five.len() >= 5);
        // Asking for more than the cell holds widens the net.
        let eight = members.collect_at_least(&peak, 8);
        assert!(eight.len() >= 8 || eight.len() == 10);
        // Asking for more than exists returns everything reachable.
        let all = members.collect_at_least(&peak, 100);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn build_from_cached_bins_matches_direct_build() {
        let ds = dataset();
        let mut avail = all_available(10);
        avail[6] = false;
        for dims in [
            vec![DimId(0)],
            vec![DimId(0), DimId(1)],
            vec![DimId(1), DimId(0)],
        ] {
            let (direct, direct_members) = Grid::build(&ds, &dims, 5, &avail);
            let cols = bin_cols(&ds, &dims, 5);
            let counted = Grid::count_from_bins(&dims, 5, &cols, &avail, &mut Vec::new());
            let members = GridMembers::from_bins(5, &cols, &avail);
            assert_eq!(direct.peak_cell(), counted.peak_cell());
            assert_eq!(direct.counts, counted.counts);
            for cell in 0..direct_members.cells.len() {
                assert_eq!(
                    direct_members.cells[cell], members.cells[cell],
                    "cell {cell} differs"
                );
            }
            assert_eq!(direct.lo, counted.lo);
            assert_eq!(direct.width, counted.width);
        }
    }

    #[test]
    fn bin_column_matches_coords_of_row() {
        let ds = dataset();
        let (grid, _) = Grid::build(&ds, &[DimId(1)], 4, &all_available(10));
        let bc = Grid::bin_column(&ds, DimId(1), 4);
        for o in ds.object_ids() {
            let expected = grid.coords_of_row(ds.row(o))[0];
            assert_eq!(bc.bins[o.index()] as usize, expected);
            assert_eq!(bc.bin_of(ds.value(o, DimId(1)), 4), expected);
        }
    }

    #[test]
    fn three_dimensional_grid_neighbors() {
        // Verify the odometer on a 3-D grid: a center cell should have
        // 3³ − 1 = 26 neighbours when away from borders.
        let values: Vec<f64> = (0..60).map(|i| (i % 10) as f64 * 10.0).collect();
        let ds = Dataset::from_rows(20, 3, values).unwrap();
        let (grid, _) = Grid::build(&ds, &[DimId(0), DimId(1), DimId(2)], 5, &all_available(20));
        let mut count = 0;
        grid.for_each_neighbor(&[2, 2, 2], |_| count += 1);
        assert_eq!(count, 26);
        let mut corner = 0;
        grid.for_each_neighbor(&[0, 0, 0], |_| corner += 1);
        assert_eq!(corner, 7); // 2³ − 1 inside the grid
    }

    #[test]
    fn peak_cell_ties_go_to_the_highest_flat_index() {
        // One dimension over [0, 4] in 4 bins: cells hold 2, 1, 2 and 0
        // available objects (the object at 4.0 sets the range but is
        // unavailable).
        let ds = Dataset::from_rows(6, 1, vec![0.5, 0.5, 1.5, 2.5, 2.5, 4.0]).unwrap();
        let mut avail = all_available(6);
        avail[5] = false;
        let (reference, _) = Grid::build(&ds, &[DimId(0)], 4, &avail);
        assert_eq!(reference.counts, vec![2, 1, 2, 0]);
        assert_eq!(reference.peak_cell(), (vec![2], 2));
        let counted = Grid::count_from_bins(
            &[DimId(0)],
            4,
            &bin_cols(&ds, &[DimId(0)], 4),
            &avail,
            &mut Vec::new(),
        );
        assert_eq!(counted.peak_cell(), (vec![2], 2));
    }

    #[test]
    fn bin_index_equals_the_floor_form_on_edge_values() {
        let (lo, width, bins) = (0.0, 0.25, 4);
        let values = [
            f64::NAN,
            0.0,
            -0.0,
            -1e-300,
            1e-300,
            0.25,
            0.5,
            0.75,
            1.0,
            0.25 - f64::EPSILON,
            1.0 + f64::EPSILON,
            7.5,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
        ];
        for v in values {
            assert_eq!(
                bin_index(v, lo, width, bins),
                floor_bin_index(v, lo, width, bins),
                "value {v:e}"
            );
        }
        // Exact multiples of a width that is not a power of two, and a
        // range that does not start at zero.
        for k in 0..=10 {
            let v = -3.0 + f64::from(k) * 0.3;
            assert_eq!(
                bin_index(v, -3.0, 0.3, 10),
                floor_bin_index(v, -3.0, 0.3, 10),
                "value {v:e}"
            );
        }
    }

    /// A random small dataset: dimension 0 is constant; every other
    /// dimension mixes values exactly on its bin edges with uniform ones,
    /// with its minimum and maximum held by objects 0 and 1.
    fn random_dataset(rng: &mut rand::rngs::StdRng, n: usize, d: usize, bins: usize) -> Dataset {
        let mut values = vec![0.0; n * d];
        for j in 0..d {
            let lo = [-2.5, 0.0, 1e-3, 7.0][rng.gen_range(0..4usize)];
            let range = [bins as f64 * 0.5, 0.3, 1.0, 1e3][rng.gen_range(0..4usize)];
            for o in 0..n {
                values[o * d + j] = if j == 0 {
                    4.2
                } else if o < 2 {
                    lo + range * o as f64
                } else if rng.gen_range(0..2) == 0 {
                    lo + range * rng.gen_range(0..=bins) as f64 / bins as f64
                } else {
                    lo + rng.gen_range(0.0..range)
                };
            }
        }
        Dataset::from_rows(n, d, values).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The counts path (cached bin columns, one counting pass) and the
        /// winner's member lists equal the direct reference build.
        #[test]
        fn prop_counts_path_matches_reference(
            seed in 0u64..u64::MAX,
            c in 1usize..4,
            bins in 2usize..8,
            n in 1usize..60,
        ) {
            let mut rng = seeded_rng(seed);
            let d = 5;
            let ds = random_dataset(&mut rng, n, d, bins);
            let share = rng.gen_range(0.0..1.0);
            let avail: Vec<bool> = (0..n).map(|_| rng.gen_range(0.0..1.0) < share).collect();
            let mut all: Vec<usize> = (0..d).collect();
            for i in 0..c {
                let pick = rng.gen_range(i..d);
                all.swap(i, pick);
            }
            let dims: Vec<DimId> = all[..c].iter().map(|&j| DimId(j)).collect();

            for j in ds.dim_ids() {
                let (lo, width) = (ds.global_min(j), bin_width(&ds, j, bins));
                for &v in ds.column_slice(j) {
                    prop_assert_eq!(
                        bin_index(v, lo, width, bins),
                        floor_bin_index(v, lo, width, bins)
                    );
                }
            }
            let (reference, reference_members) = Grid::build(&ds, &dims, bins, &avail);
            let cols = bin_cols(&ds, &dims, bins);
            let counted = Grid::count_from_bins(&dims, bins, &cols, &avail, &mut vec![7; 3]);
            let members = GridMembers::from_bins(bins, &cols, &avail);
            prop_assert_eq!(&counted.counts, &reference.counts);
            prop_assert_eq!(counted.peak_cell(), reference.peak_cell());
            for _ in 0..4 {
                let start: Vec<usize> = (0..c).map(|_| rng.gen_range(0..bins)).collect();
                prop_assert_eq!(counted.hill_climb(&start), reference.hill_climb(&start));
                let min = rng.gen_range(0..n + 2);
                prop_assert_eq!(
                    members.collect_at_least(&start, min),
                    reference_members.collect_at_least(&start, min)
                );
            }
        }
    }
}
