//! Seed-group construction (paper Sec. 4.2).
//!
//! A *seed group* packages a set of candidate medoids (the **seeds**) with
//! an estimated set of relevant dimensions. Whenever a cluster draws a
//! medoid from a group, the group's dimensions become the cluster's
//! selected dimensions.
//!
//! Groups come in two flavours:
//! * **private** — one per class with supervision, built from that class's
//!   labeled objects and/or labeled dimensions, used only by that class's
//!   cluster;
//! * **public** — a shared pool for the remaining clusters, built with the
//!   max-min mechanism (Sec. 4.2.4).
//!
//! Creation order follows the paper: classes with both kinds of input
//! first, then labeled-objects-only, then labeled-dimensions-only, then the
//! public groups; within each category, more input first. After each group
//! is created its seeds are removed from the available pool, so later
//! (harder) groups are not distracted by objects already accounted for.

use crate::grid::{BinColumn, Grid, GridMembers};
use crate::objective::{ClusterModel, FitScratch};
use crate::{SspcParams, Supervision, Thresholds};
use rand::rngs::StdRng;
use rand::Rng;
use sspc_common::rng::{weighted_index, weighted_sample_distinct};
use sspc_common::{ClusterId, Dataset, DimId, Error, ObjectId, Result};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// A set of candidate medoids plus their estimated relevant dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedGroup {
    /// Candidate medoids, expected to come from a single real cluster.
    pub seeds: Vec<ObjectId>,
    /// Estimated relevant dimensions, ascending.
    pub dims: Vec<DimId>,
    /// The class this group was built for (`None` for public groups).
    pub class: Option<ClusterId>,
}

/// The initializer's output: `private[c]` is the group for class `c` when
/// that class received supervision, and `public` is the shared pool.
#[derive(Debug, Clone)]
pub struct SeedGroups {
    /// Per-class private groups (`None` where the class got no input).
    pub private: Vec<Option<SeedGroup>>,
    /// Shared public groups for input-less clusters.
    pub public: Vec<SeedGroup>,
}

/// Which initialization case (Sec. 4.2.1–4.2.4) applies to a class.
///
/// `SingleObject` extends the paper: a class with exactly **one** labeled
/// object (which can arise after [`crate::validation`] rejects bad labels)
/// cannot form the temporary cluster the paper's recipe needs, but the
/// object still serves as a known anchor for the Sec. 4.2.4 mechanism —
/// strictly better knowledge than a max-min guess.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum InputCase {
    Both = 0,
    ObjectsOnly = 1,
    DimsOnly = 2,
    SingleObject = 3,
    NoInput = 4,
}

/// Builds all seed groups for one run.
pub(crate) struct Initializer<'a> {
    dataset: &'a Dataset,
    params: &'a SspcParams,
    thresholds: &'a Thresholds,
    supervision: &'a Supervision,
    /// Objects still considered when forming new groups.
    available: Vec<bool>,
    /// Per-dimension binnings, computed once and shared by every grid
    /// built over that dimension ([`Grid::bin_column`]); grid candidates
    /// repeat heavily across the `g` grids of each group.
    bin_cache: RefCell<HashMap<DimId, Rc<BinColumn>>>,
}

impl<'a> Initializer<'a> {
    pub(crate) fn new(
        dataset: &'a Dataset,
        params: &'a SspcParams,
        thresholds: &'a Thresholds,
        supervision: &'a Supervision,
    ) -> Self {
        Initializer {
            dataset,
            params,
            thresholds,
            supervision,
            available: vec![true; dataset.n_objects()],
            bin_cache: RefCell::new(HashMap::new()),
        }
    }

    /// The cached binning of dimension `j` ([`Grid::bin_column`]),
    /// computed on first use. The cache's `u16` bin indices cover every
    /// resolution `SspcParams::validate` admits.
    fn bin_col(&self, j: DimId) -> Rc<BinColumn> {
        let bins = self.params.bins_per_dim;
        Rc::clone(
            self.bin_cache
                .borrow_mut()
                .entry(j)
                .or_insert_with(|| Rc::new(Grid::bin_column(self.dataset, j, bins))),
        )
    }

    fn bin_cols(&self, dims: &[DimId]) -> Vec<Rc<BinColumn>> {
        dims.iter().map(|&j| self.bin_col(j)).collect()
    }

    /// Runs the full Sec. 4.2 procedure.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidSupervision`] when a class has exactly one
    /// labeled object (the paper requires `|Iᵒᵢ| ≥ 2` so the temporary
    /// cluster has a variance); other failures propagate from substrate
    /// calls.
    pub(crate) fn build(mut self, rng: &mut StdRng) -> Result<SeedGroups> {
        let k = self.params.k;

        // Classify and order the supervised classes.
        let mut order: Vec<(InputCase, usize, usize)> = Vec::new(); // (case, -inputs, class)
        for class_idx in 0..k {
            let class = ClusterId(class_idx);
            let n_obj = self.supervision.objects_of(class).len();
            let n_dim = self.supervision.dims_of(class).len();
            let case = match (n_obj, n_dim > 0) {
                (2.., true) => InputCase::Both,
                (2.., false) => InputCase::ObjectsOnly,
                (0, true) => InputCase::DimsOnly,
                (1, _) => InputCase::SingleObject,
                (0, false) => InputCase::NoInput,
            };
            if case != InputCase::NoInput {
                order.push((case, usize::MAX - (n_obj + n_dim), class_idx));
            }
        }
        order.sort();

        let mut private: Vec<Option<SeedGroup>> = vec![None; k];
        for &(case, _, class_idx) in &order {
            let class = ClusterId(class_idx);
            let group = match case {
                InputCase::Both => self.private_group_with_objects(class, true, rng)?,
                InputCase::ObjectsOnly => self.private_group_with_objects(class, false, rng)?,
                InputCase::DimsOnly => self.private_group_dims_only(class, rng)?,
                InputCase::SingleObject => self.private_group_single_object(class, rng)?,
                InputCase::NoInput => unreachable!("filtered above"),
            };
            self.retire_seeds(&group.seeds);
            private[class_idx] = Some(group);
        }

        // Public groups for the remaining clusters.
        let n_no_input = private.iter().filter(|g| g.is_none()).count();
        let mut public = Vec::new();
        if n_no_input > 0 {
            let n_public = self.params.effective_public_groups().max(n_no_input);
            for _ in 0..n_public {
                match self.public_group(&private, &public, rng)? {
                    Some(group) => {
                        self.retire_seeds(&group.seeds);
                        public.push(group);
                    }
                    None => break, // pool of available objects exhausted
                }
            }
            if public.len() < n_no_input {
                return Err(Error::InsufficientData(format!(
                    "could only build {} public seed groups for {} input-less clusters",
                    public.len(),
                    n_no_input
                )));
            }
        }
        Ok(SeedGroups { private, public })
    }

    fn retire_seeds(&mut self, seeds: &[ObjectId]) {
        for &o in seeds {
            self.available[o.index()] = false;
        }
    }

    /// Sec. 4.2.1 (`use_labeled_dims = true`) and Sec. 4.2.2 (`false`):
    /// classes with labeled objects.
    fn private_group_with_objects(
        &self,
        class: ClusterId,
        use_labeled_dims: bool,
        rng: &mut StdRng,
    ) -> Result<SeedGroup> {
        let labeled = self.supervision.objects_of(class);
        debug_assert!(
            labeled.len() >= 2,
            "single-object classes are routed to the anchor mechanism"
        );
        let labeled_dims = if use_labeled_dims {
            self.supervision.dims_of(class)
        } else {
            Vec::new()
        };
        // Temporary cluster Cᵢ′ from the labeled objects. Its medians are
        // read on the candidates only (their `dim_score` and the
        // hill-climbing start), which are the selectable dimensions plus
        // the labeled ones.
        let t_row = self.thresholds.row(labeled.len());
        let mut temp = ClusterModel::fit_pruned(
            self.dataset,
            &labeled,
            &t_row,
            &labeled_dims,
            &mut FitScratch::new(),
        )?;
        let mut candidates = temp.select_dims_row(&t_row);
        for &j in &labeled_dims {
            if !candidates.contains(&j) {
                candidates.push(j);
            }
        }
        if candidates.is_empty() {
            // Nothing passed SelectDim (tiny |Iᵒ|, unlucky draw): fall back
            // to the least-dispersed dimensions so grids can still form.
            // That ranks every dimension, so it needs every median.
            temp = ClusterModel::fit(self.dataset, &labeled)?;
            candidates = self.least_dispersed_dims(&temp, self.params.grid_dims);
        }

        // Grid-building probability ∝ φᵢ′ⱼ, floored at a small positive
        // value; labeled dimensions are known relevant, so they get the
        // maximum candidate weight.
        let mut weights: Vec<f64> = candidates
            .iter()
            .map(|&j| temp.dim_score(j, self.thresholds).max(1e-9))
            .collect();
        let max_w = weights.iter().cloned().fold(1e-9, f64::max);
        for (idx, &j) in candidates.iter().enumerate() {
            if labeled_dims.contains(&j) {
                weights[idx] = max_w;
            }
        }

        // Start hill-climbing from the cell containing the median of Iᵒᵢ.
        let median_point = median_point(&temp, &candidates);
        let seeds = self.best_grid_seeds(&candidates, &weights, Some(&median_point), rng);
        self.finish_group(seeds, &labeled_dims, Some(class))
    }

    /// Sec. 4.2.3: classes with labeled dimensions only. Grids are built
    /// from the labeled dimensions with equal probability; without a
    /// starting point, the absolute peak of each grid is used.
    fn private_group_dims_only(&self, class: ClusterId, rng: &mut StdRng) -> Result<SeedGroup> {
        let labeled_dims = self.supervision.dims_of(class);
        debug_assert!(!labeled_dims.is_empty());
        let weights = vec![1.0; labeled_dims.len()];
        let seeds = self.best_grid_seeds(&labeled_dims, &weights, None, rng);
        self.finish_group(seeds, &labeled_dims, Some(class))
    }

    /// Extension for a class with exactly one labeled object: the object is
    /// a known anchor — run the Sec. 4.2.4 mechanism from it (1-D histogram
    /// dimension weights, hill-climb from the anchor's cell), forcing any
    /// labeled dimensions to the maximum candidate weight.
    fn private_group_single_object(&self, class: ClusterId, rng: &mut StdRng) -> Result<SeedGroup> {
        let anchor = self.supervision.objects_of(class)[0];
        let anchor_row = self.dataset.row(anchor).to_vec();
        let (dims, mut weights) = self.anchored_weights(&anchor_row);
        let labeled_dims = self.supervision.dims_of(class);
        if !labeled_dims.is_empty() {
            let max_w = weights.iter().cloned().fold(1e-9, f64::max);
            for (idx, j) in dims.iter().enumerate() {
                if labeled_dims.contains(j) {
                    weights[idx] = max_w;
                }
            }
        }
        let seeds = self.best_grid_seeds(&dims, &weights, Some(&anchor_row), rng);
        self.finish_group(seeds, &labeled_dims, Some(class))
    }

    /// Sec. 4.2.4: no input. Uses the max-min mechanism to find an anchor
    /// object remote from all existing seeds, weighs dimensions by the
    /// 1-D histogram density around the anchor, and hill-climbs from the
    /// anchor's cell. Returns `None` when no objects remain available.
    fn public_group(
        &self,
        private: &[Option<SeedGroup>],
        public: &[SeedGroup],
        rng: &mut StdRng,
    ) -> Result<Option<SeedGroup>> {
        let existing: Vec<&SeedGroup> = private.iter().flatten().chain(public.iter()).collect();
        let Some(anchor) = self.max_min_anchor(&existing, rng) else {
            return Ok(None);
        };
        let anchor_row = self.dataset.row(anchor).to_vec();
        let (dims, weights) = self.anchored_weights(&anchor_row);
        let seeds = self.best_grid_seeds(&dims, &weights, Some(&anchor_row), rng);
        self.finish_group(seeds, &[], None).map(Some)
    }

    /// Per-dimension grid-building weights around an anchor point: the
    /// squared excess of the anchor-bin density over the uniform
    /// expectation. Squaring sharpens the contrast between a genuine
    /// cluster peak (excess ≈ cluster size) and Poisson noise
    /// (excess ≈ √expected), which matters when thousands of irrelevant
    /// dimensions each carry a little noise excess. Floored so every
    /// dimension keeps a tiny chance.
    ///
    /// Computes each 1-D anchor-bin density directly from the dataset's
    /// contiguous column — equivalent to (and replacing) building a
    /// throwaway [`Grid`] per dimension, which allocated `bins` cell
    /// vectors and strided the row-major buffer for each of the `d`
    /// dimensions.
    fn anchored_weights(&self, anchor_row: &[f64]) -> (Vec<DimId>, Vec<f64>) {
        let bins = self.params.bins_per_dim;
        let n_avail = self.available.iter().filter(|&&a| a).count() as f64;
        let expected = n_avail / bins as f64;
        let mut weights = Vec::with_capacity(self.dataset.n_dims());
        let mut dims = Vec::with_capacity(self.dataset.n_dims());
        for j in self.dataset.dim_ids() {
            // Same binning as a 1-D `Grid` (equi-width over the global
            // range, degenerate dimensions collapse to bin 0, edges clamp
            // into the border bins), shared with the grids built later
            // from these candidates through the per-dimension bin cache.
            let bc = self.bin_col(j);
            let anchor_bin = bc.bin_of(anchor_row[j.index()], bins) as u16;
            let density = bc
                .bins
                .iter()
                .zip(self.available.iter())
                .filter(|&(&b, &avail)| avail && b == anchor_bin)
                .count() as f64;
            let excess = (density - expected).max(0.0);
            dims.push(j);
            weights.push((excess * excess).max(1e-9));
        }
        (dims, weights)
    }

    /// The object maximizing the minimum subspace distance to every seed of
    /// every existing group (paper: "identifies an object whose minimum
    /// distance to all the seeds already picked by other seed groups is
    /// maximum", distances "performed in the subspace defined by the
    /// relevant dimensions of the seed groups, normalized by the number of
    /// dimensions"). With no existing groups, a random available object.
    fn max_min_anchor(&self, existing: &[&SeedGroup], rng: &mut StdRng) -> Option<ObjectId> {
        let available: Vec<ObjectId> = self
            .dataset
            .object_ids()
            .filter(|o| self.available[o.index()])
            .collect();
        if available.is_empty() {
            return None;
        }
        if existing.is_empty() || existing.iter().all(|g| g.dims.is_empty()) {
            return Some(available[rng.gen_range(0..available.len())]);
        }
        available
            .iter()
            .copied()
            .map(|o| {
                let min_dist = existing
                    .iter()
                    .filter(|g| !g.dims.is_empty())
                    .flat_map(|g| {
                        g.seeds.iter().map(move |&s| {
                            self.dataset.sq_dist_between(o, s, &g.dims) / g.dims.len() as f64
                        })
                    })
                    .fold(f64::INFINITY, f64::min);
                (o, min_dist)
            })
            .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite distances"))
            .map(|(o, _)| o)
    }

    /// Builds `g` grids from weighted candidate dimensions, finds each
    /// grid's peak (hill-climbing from `start` when given, absolute peak
    /// otherwise), and returns the seeds of the overall densest peak. The
    /// search reads cell counts only; the member lists are built for the
    /// winning grid alone.
    fn best_grid_seeds(
        &self,
        candidates: &[DimId],
        weights: &[f64],
        start: Option<&[f64]>,
        rng: &mut StdRng,
    ) -> Vec<ObjectId> {
        let c = self.params.grid_dims.min(candidates.len());
        let bins = self.params.bins_per_dim;
        // The densest peak so far: (density, building dimensions, cell).
        let mut best: Option<(usize, Vec<DimId>, Vec<usize>)> = None;
        let mut flat = Vec::new();
        for _ in 0..self.params.grids_per_group {
            let picked: Vec<DimId> = if c == candidates.len() {
                candidates.to_vec()
            } else {
                weighted_sample_distinct(rng, weights, c)
                    .into_iter()
                    .map(|i| candidates[i])
                    .collect()
            };
            let picked = if picked.is_empty() {
                // All weights zero: fall back to a uniform draw.
                let i = rng.gen_range(0..candidates.len());
                vec![candidates[i]]
            } else {
                picked
            };
            let grid = Grid::count_from_bins(
                &picked,
                bins,
                &self.bin_cols(&picked),
                &self.available,
                &mut flat,
            );
            let (cell, density) = match start {
                Some(row) if self.params.hill_climbing => grid.hill_climb(&grid.coords_of_row(row)),
                Some(row) => {
                    let coords = grid.coords_of_row(row);
                    let density = grid.density(&coords);
                    (coords, density)
                }
                None => grid.peak_cell(),
            };
            if best.as_ref().is_none_or(|(bd, _, _)| density > *bd) {
                best = Some((density, picked, cell));
            }
        }
        let (_, picked, cell) = best.expect("grids_per_group >= 1");
        let members = GridMembers::from_bins(bins, &self.bin_cols(&picked), &self.available);
        let mut seeds = members.collect_at_least(&cell, self.params.min_seeds);
        // Cap so seed lists (and hence the max-min scans over them) do not
        // grow with n; the center-cell objects come first, so truncation
        // keeps the densest core.
        seeds.truncate(self.params.max_seeds);
        seeds
    }

    /// Finalizes a group: estimated dimensions are `SelectDim(Gᵢ)` plus the
    /// labeled dimensions. Falls back to the least-dispersed dimensions if
    /// both are empty, so a group is never dimension-less.
    fn finish_group(
        &self,
        seeds: Vec<ObjectId>,
        labeled_dims: &[DimId],
        class: Option<ClusterId>,
    ) -> Result<SeedGroup> {
        if seeds.is_empty() {
            return Err(Error::InsufficientData(
                "seed group ended up empty — dataset too small for the grid parameters".into(),
            ));
        }
        let t_row = self.thresholds.row(seeds.len());
        let model =
            ClusterModel::fit_pruned(self.dataset, &seeds, &t_row, &[], &mut FitScratch::new())?;
        let mut dims = model.select_dims_row(&t_row);
        for &j in labeled_dims {
            if !dims.contains(&j) {
                dims.push(j);
            }
        }
        if dims.is_empty() {
            // The fallback ranks every dimension: refit with every median.
            let model = ClusterModel::fit(self.dataset, &seeds)?;
            dims = self.least_dispersed_dims(&model, self.params.grid_dims);
        }
        dims.sort_unstable();
        Ok(SeedGroup { seeds, dims, class })
    }

    /// The `count` dimensions with the smallest dispersion-to-threshold
    /// ratio — a fallback when `SelectDim` returns nothing. Reads every
    /// median, so `model` must come from an eager fit.
    fn least_dispersed_dims(&self, model: &ClusterModel, count: usize) -> Vec<DimId> {
        let t_row = self.thresholds.row(model.size());
        let mut scored: Vec<(f64, DimId)> = self
            .dataset
            .dim_ids()
            .filter_map(|j| {
                let t = t_row[j.index()];
                debug_assert!(model.median(j).is_some());
                (t > 0.0).then(|| (model.summary(j).median_dispersion() / t, j))
            })
            .collect();
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite ratios"));
        scored
            .into_iter()
            .take(count.max(1))
            .map(|(_, j)| j)
            .collect()
    }
}

/// The member-wise median of `model`'s fit on `dims`, as a full-length
/// point whose other entries are NaN: a grid built over some of `dims`
/// reads nothing else of it ([`Grid::coords_of_row`]).
fn median_point(model: &ClusterModel, dims: &[DimId]) -> Vec<f64> {
    let mut point = vec![f64::NAN; model.n_dims()];
    for &j in dims {
        point[j.index()] = model
            .median(j)
            .expect("the fit selected every candidate's median");
    }
    point
}

/// Draws a random seed from a group (uniform over the group's seeds).
pub(crate) fn draw_seed(group: &SeedGroup, rng: &mut StdRng) -> ObjectId {
    debug_assert!(!group.seeds.is_empty());
    // Weighted by nothing today; kept as a function so smarter draws (e.g.
    // density-weighted) slot in without touching call sites.
    let idx = weighted_index(rng, &vec![1.0; group.seeds.len()]).unwrap_or(0);
    group.seeds[idx]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThresholdScheme;
    use sspc_common::rng::seeded_rng;

    /// Two planted clusters in 10-D: class 0 compact on dims 0–1 for
    /// objects 0–9, class 1 compact on dims 2–3 for objects 10–19, plus
    /// 10 noise objects. Values elsewhere spread over [0, 100].
    fn planted_dataset() -> Dataset {
        let n = 30;
        let d = 10;
        let mut rng = seeded_rng(1);
        let mut values = vec![0.0; n * d];
        for o in 0..n {
            for j in 0..d {
                values[o * d + j] = rng.gen_range(0.0..100.0);
            }
        }
        for o in 0..10 {
            values[o * d] = 20.0 + rng.gen_range(-1.0..1.0);
            values[o * d + 1] = 70.0 + rng.gen_range(-1.0..1.0);
        }
        for o in 10..20 {
            values[o * d + 2] = 40.0 + rng.gen_range(-1.0..1.0);
            values[o * d + 3] = 10.0 + rng.gen_range(-1.0..1.0);
        }
        Dataset::from_rows(n, d, values).unwrap()
    }

    fn setup(ds: &Dataset) -> (SspcParams, Thresholds) {
        let params = SspcParams::new(2)
            .with_threshold(ThresholdScheme::MFraction(0.5))
            .with_grid(2, 5);
        let th = Thresholds::new(params.threshold, ds).unwrap();
        (params, th)
    }

    #[test]
    fn labeled_objects_yield_accurate_private_group() {
        let ds = planted_dataset();
        let (params, th) = setup(&ds);
        let sup = Supervision::none()
            .label_object(ObjectId(0), ClusterId(0))
            .label_object(ObjectId(1), ClusterId(0))
            .label_object(ObjectId(2), ClusterId(0));
        let init = Initializer::new(&ds, &params, &th, &sup);
        let mut rng = seeded_rng(1);
        let groups = init.build(&mut rng).unwrap();
        let g = groups.private[0].as_ref().expect("class 0 got input");
        assert_eq!(g.class, Some(ClusterId(0)));
        // Seeds should be class-0 objects (ids 0–9).
        let hits = g.seeds.iter().filter(|o| o.index() < 10).count();
        assert!(
            hits * 2 >= g.seeds.len(),
            "majority of seeds should be class members, got {:?}",
            g.seeds
        );
        // Dims should include the planted 0 and 1.
        assert!(g.dims.contains(&DimId(0)) || g.dims.contains(&DimId(1)));
    }

    #[test]
    fn labeled_dims_yield_private_group_on_peak() {
        let ds = planted_dataset();
        let (params, th) = setup(&ds);
        let sup = Supervision::none()
            .label_dim(DimId(2), ClusterId(1))
            .label_dim(DimId(3), ClusterId(1));
        let init = Initializer::new(&ds, &params, &th, &sup);
        let mut rng = seeded_rng(2);
        let groups = init.build(&mut rng).unwrap();
        let g = groups.private[1].as_ref().expect("class 1 got input");
        let hits = g
            .seeds
            .iter()
            .filter(|o| (10..20).contains(&o.index()))
            .count();
        assert!(
            hits * 2 >= g.seeds.len(),
            "majority of seeds should be class-1 members, got {:?}",
            g.seeds
        );
        // Labeled dims are forced into the estimate.
        assert!(g.dims.contains(&DimId(2)));
        assert!(g.dims.contains(&DimId(3)));
    }

    #[test]
    fn single_labeled_object_uses_anchor_mechanism() {
        let ds = planted_dataset();
        let (params, th) = setup(&ds);
        let sup = Supervision::none().label_object(ObjectId(0), ClusterId(0));
        let init = Initializer::new(&ds, &params, &th, &sup);
        let mut rng = seeded_rng(3);
        let groups = init.build(&mut rng).unwrap();
        let g = groups.private[0].as_ref().expect("anchor builds a group");
        assert_eq!(g.class, Some(ClusterId(0)));
        assert!(!g.seeds.is_empty());
        // The anchor is a class-0 member (ids 0–9); the seeds should lean
        // that way too.
        let hits = g.seeds.iter().filter(|o| o.index() < 10).count();
        assert!(hits * 2 >= g.seeds.len(), "seeds {:?}", g.seeds);
    }

    #[test]
    fn unsupervised_build_produces_public_groups() {
        let ds = planted_dataset();
        let (params, th) = setup(&ds);
        let sup = Supervision::none();
        let init = Initializer::new(&ds, &params, &th, &sup);
        let mut rng = seeded_rng(4);
        let groups = init.build(&mut rng).unwrap();
        assert!(groups.private.iter().all(Option::is_none));
        assert!(groups.public.len() >= 2, "need groups for 2 clusters");
        for g in &groups.public {
            assert!(g.class.is_none());
            assert!(!g.seeds.is_empty());
            assert!(!g.dims.is_empty());
        }
    }

    #[test]
    fn seeds_are_retired_between_groups() {
        let ds = planted_dataset();
        let (params, th) = setup(&ds);
        let sup = Supervision::none();
        let init = Initializer::new(&ds, &params, &th, &sup);
        let mut rng = seeded_rng(5);
        let groups = init.build(&mut rng).unwrap();
        // No object may appear as a seed of two groups.
        let mut seen = std::collections::HashSet::new();
        for g in groups.private.iter().flatten().chain(groups.public.iter()) {
            for &s in &g.seeds {
                assert!(seen.insert(s), "object {s} seeded two groups");
            }
        }
    }

    #[test]
    fn mixed_supervision_coexists_with_public_groups() {
        let ds = planted_dataset();
        let (params, th) = setup(&ds);
        let sup = Supervision::none()
            .label_object(ObjectId(10), ClusterId(1))
            .label_object(ObjectId(11), ClusterId(1))
            .label_dim(DimId(2), ClusterId(1));
        let init = Initializer::new(&ds, &params, &th, &sup);
        let mut rng = seeded_rng(6);
        let groups = init.build(&mut rng).unwrap();
        assert!(groups.private[1].is_some());
        assert!(groups.private[0].is_none());
        assert!(!groups.public.is_empty(), "cluster 0 needs a public group");
    }

    #[test]
    fn draw_seed_returns_member() {
        let group = SeedGroup {
            seeds: vec![ObjectId(3), ObjectId(7), ObjectId(9)],
            dims: vec![DimId(0)],
            class: None,
        };
        let mut rng = seeded_rng(7);
        for _ in 0..20 {
            let s = draw_seed(&group, &mut rng);
            assert!(group.seeds.contains(&s));
        }
    }
}
