//! The SSPC main loop (paper Listing 2).
//!
//! ```text
//! 1  Initialization: determine the seeds and relevant dimensions of each cluster
//! 2  For each cluster, draw a medoid from the seeds
//! 3  Assign every object to the cluster (or outlier list) that gives the
//!    greatest improvement to the objective score
//! 4  Call SelectDim(Cᵢ) for each cluster, and calculate the overall score
//! 5  Record the clusters if they give the best score so far, restore the
//!    best clusters otherwise
//! 6  Replace the cluster representative of each cluster, then remove its
//!    members
//! 7  Repeat 3–6 until no score improvements are observed for a certain
//!    number of iterations
//! ```

use crate::cluster::{ClusterState, Representative, SeedSource, Snapshot};
use crate::objective::{
    assignment_argmax, assignment_gain, assignment_gains_transposed, AssignCandidate, ClusterModel,
    FitScratch, ASSIGN_BLOCK,
};
use crate::seeds::{draw_seed, Initializer, SeedGroups};
use crate::{SspcParams, SspcResult, Supervision, Thresholds};
use rand::rngs::StdRng;
use rand::Rng;
use sspc_common::parallel;
use sspc_common::rng::seeded_rng;
use sspc_common::{ClusterId, Dataset, Error, Result};
use std::sync::Arc;
use std::time::Instant;

/// Step 4 for one cluster on the fast path: `SelectDim` + scoring from a
/// pruned columnar fit (medians only where `SelectDim` can keep the
/// dimension), with those medians cached for the median-representative
/// step and the whole fit skipped when the member list is unchanged since
/// the last fit (the fit is a pure function of the members, so the cached
/// `dims` / `score` / medians are exactly what a refit would produce —
/// stall iterations repeat most memberships).
fn refit_cluster(
    dataset: &Dataset,
    thresholds: &Thresholds,
    cl: &mut ClusterState,
    scratch: &mut FitScratch,
) {
    if cl.members.is_empty() {
        cl.reset_empty_fit();
        return;
    }
    if cl.fitted.members() == cl.members {
        return;
    }
    let t_row = thresholds.row(cl.members.len());
    let model = ClusterModel::fit_pruned(dataset, &cl.members, &t_row, &[], scratch)
        .expect("non-empty members fit");
    cl.dims = model.select_dims_row(&t_row);
    cl.score = model.cluster_score_row(&cl.dims, &t_row);
    cl.fitted.set_medians(&model, &cl.members);
}

/// Every representative of the best clusters as a full point: selects the
/// medians the run's pruned fits skipped, from each representative's
/// member list. The fills are independent per cluster and, like the
/// refit, fan out across threads when there is enough gather work.
fn materialize(dataset: &Dataset, clusters: &mut [ClusterState]) -> Vec<Vec<f64>> {
    let total_members: usize = clusters.iter().map(|cl| cl.rep.members().len()).sum();
    if total_members < parallel::MIN_CHUNK {
        for cl in clusters.iter_mut() {
            cl.rep.fill_all(dataset);
        }
    } else {
        parallel::for_each_mut_with(clusters, || (), |_, cl, _| cl.rep.fill_all(dataset));
    }
    clusters.iter().map(|cl| cl.rep.point().to_vec()).collect()
}

/// Wall-clock breakdown of one run, filled by
/// [`Sspc::run_with_timings`] / [`Sspc::run_naive_with_timings`]: where
/// the iterations actually spend their time, so assignment-phase wins are
/// attributable instead of inferred from whole-run deltas. The default
/// entry points pass no collector and pay no `Instant` reads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimings {
    /// Step 3 (assignment) total, seconds.
    pub assign_secs: f64,
    /// Step 4 (SelectDim + scoring refits) total, seconds.
    pub refit_secs: f64,
    /// Everything else — initialization, snapshot record/restore,
    /// representative replacement — seconds, up to the end of the loop.
    pub other_secs: f64,
    /// The initialization part of `other_secs`: steps 1–2 (seed groups
    /// and initial medoids), seconds.
    pub init_secs: f64,
    /// Filling the result's representatives after the loop (the medians
    /// the pruned fits skipped), seconds; outside `other_secs`.
    pub fill_secs: f64,
}

/// The Semi-Supervised Projected Clustering algorithm.
///
/// Construct with [`Sspc::new`], then call [`Sspc::run`] — the instance is
/// reusable across datasets and seeds. See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct Sspc {
    params: SspcParams,
}

/// The unified workspace contract: wraps [`Sspc::run`] with wall-clock
/// timing and converts the rich [`SspcResult`] into the canonical
/// [`Clustering`](sspc_common::Clustering), which has no slot for the
/// representatives — so the run skips filling them.
impl sspc_common::ProjectedClusterer for Sspc {
    fn name(&self) -> &str {
        "sspc"
    }

    fn cluster(
        &self,
        dataset: &Dataset,
        supervision: &Supervision,
        seed: u64,
    ) -> Result<sspc_common::Clustering> {
        sspc_common::clusterer::timed_cluster(|| {
            Ok(self
                .run_impl(dataset, supervision, seed, false, None, false)?
                .into())
        })
    }
}

impl Sspc {
    /// Validates the parameters and builds the algorithm.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for out-of-domain parameters.
    pub fn new(params: SspcParams) -> Result<Self> {
        params.validate()?;
        Ok(Sspc { params })
    }

    /// The parameters in force.
    pub fn params(&self) -> &SspcParams {
        &self.params
    }

    /// Runs SSPC on a dataset. Deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// * [`Error::InvalidShape`] — fewer objects than clusters.
    /// * [`Error::InvalidSupervision`] — labels referencing non-existent
    ///   objects/dimensions/classes, or contradictory object labels.
    ///   (A class with exactly one labeled object is handled by treating
    ///   the object as a known anchor — an extension beyond the paper's
    ///   `|Iᵒᵢ| ≥ 2` requirement.)
    /// * [`Error::InsufficientData`] — the dataset is too small to build
    ///   the required seed groups.
    pub fn run(
        &self,
        dataset: &Dataset,
        supervision: &Supervision,
        seed: u64,
    ) -> Result<SspcResult> {
        self.run_impl(dataset, supervision, seed, false, None, true)
    }

    /// [`Sspc::run`] with a per-phase wall-clock breakdown. Identical
    /// computation and result — the only difference is two `Instant` reads
    /// per outer iteration, amortized over whole assignment/refit phases.
    ///
    /// # Errors
    ///
    /// As [`Sspc::run`].
    pub fn run_with_timings(
        &self,
        dataset: &Dataset,
        supervision: &Supervision,
        seed: u64,
    ) -> Result<(SspcResult, PhaseTimings)> {
        let mut timings = PhaseTimings::default();
        let result = self.run_impl(dataset, supervision, seed, false, Some(&mut timings), true)?;
        Ok((result, timings))
    }

    /// [`Sspc::run_naive`] with a per-phase wall-clock breakdown, for
    /// attributing the A/B benchmarks' whole-run deltas to phases.
    ///
    /// # Errors
    ///
    /// As [`Sspc::run`].
    pub fn run_naive_with_timings(
        &self,
        dataset: &Dataset,
        supervision: &Supervision,
        seed: u64,
    ) -> Result<(SspcResult, PhaseTimings)> {
        let mut timings = PhaseTimings::default();
        let result = self.run_impl(dataset, supervision, seed, true, Some(&mut timings), true)?;
        Ok((result, timings))
    }

    /// [`Sspc::run`] through the pre-columnar, serial reference
    /// implementation of every hot kernel. Produces **bit-identical**
    /// results to [`Sspc::run`] — only memory-access patterns and
    /// parallelism differ — and exists for A/B benchmarking
    /// (`benches/hotloop.rs`) and the equivalence tests.
    ///
    /// # Errors
    ///
    /// As [`Sspc::run`].
    pub fn run_naive(
        &self,
        dataset: &Dataset,
        supervision: &Supervision,
        seed: u64,
    ) -> Result<SspcResult> {
        self.run_impl(dataset, supervision, seed, true, None, true)
    }

    /// [`Sspc::run_naive`] through the unified contract: identical to
    /// [`ProjectedClusterer::cluster`](sspc_common::ProjectedClusterer)
    /// except every hot kernel takes the serial reference path. Exists so
    /// the perf-equivalence suite can assert fast == naive through the new
    /// API as well.
    ///
    /// # Errors
    ///
    /// As [`Sspc::run`].
    pub fn cluster_naive(
        &self,
        dataset: &Dataset,
        supervision: &Supervision,
        seed: u64,
    ) -> Result<sspc_common::Clustering> {
        sspc_common::clusterer::timed_cluster(|| {
            Ok(self.run_naive(dataset, supervision, seed)?.into())
        })
    }

    /// The main loop. `representatives: false` leaves the result's
    /// representatives empty, for a caller that drops them.
    fn run_impl(
        &self,
        dataset: &Dataset,
        supervision: &Supervision,
        seed: u64,
        naive: bool,
        mut timings: Option<&mut PhaseTimings>,
        representatives: bool,
    ) -> Result<SspcResult> {
        let run_start = timings.is_some().then(Instant::now);
        let k = self.params.k;
        if dataset.n_objects() < 2 * k {
            return Err(Error::InvalidShape(format!(
                "need at least 2 objects per cluster: n = {}, k = {k}",
                dataset.n_objects()
            )));
        }
        supervision.validate(dataset, k)?;
        let thresholds = Thresholds::new(self.params.threshold, dataset)?;
        // Seed-group construction uses its own (usually stricter) threshold
        // scheme; see `SspcParams::init_p`.
        let init_thresholds = match self.params.init_p {
            Some(p) => Thresholds::new(crate::ThresholdScheme::PValue(p), dataset)?,
            None => thresholds.clone(),
        };
        let mut rng = seeded_rng(seed);

        // Step 1: seed groups.
        let groups = Initializer::new(dataset, &self.params, &init_thresholds, supervision)
            .build(&mut rng)?;

        // Step 2: one medoid per cluster.
        let mut clusters = self.initial_clusters(dataset, &groups, &mut rng)?;
        if let Some(t) = timings.as_deref_mut() {
            t.init_secs = run_start.expect("timed run").elapsed().as_secs_f64();
        }
        let mut public_in_use: Vec<bool> = vec![false; groups.public.len()];
        for cl in &clusters {
            if let SeedSource::Public(g) = cl.source {
                public_in_use[g] = true;
            }
        }

        let n = dataset.n_objects();
        let d = dataset.n_dims();
        let mut best: Option<Snapshot> = None;
        let mut stall = 0usize;
        let mut iterations = 0usize;

        // Scratch reused across iterations: the assignment vector, the
        // pinned-object mask and the fit gather buffer. Per iteration the
        // fast path still allocates the assignment phase's k-element
        // threshold-row and candidate lists and one gain buffer per
        // worker, plus one fit scratch per worker when the refit fans out
        // across threads.
        let mut assignment: Vec<Option<ClusterId>> = vec![None; n];
        let mut pinned = vec![false; n];
        let mut fit_scratch = FitScratch::new();

        while iterations < self.params.max_iterations {
            iterations += 1;
            // Cooperative cancellation point: one thread-local read per
            // outer iteration, free unless a deadline is installed (the
            // batch server's job timeouts; see sspc_common::cancel).
            sspc_common::cancel::check()?;

            // Step 3: assignment.
            let phase_start = timings.is_some().then(Instant::now);
            self.assign(
                dataset,
                &mut clusters,
                supervision,
                &thresholds,
                naive,
                &mut assignment,
                &mut pinned,
            );
            if let Some(t) = timings.as_deref_mut() {
                t.assign_secs += phase_start.expect("timed run").elapsed().as_secs_f64();
            }
            let phase_start = timings.is_some().then(Instant::now);

            // Step 4: SelectDim + scoring with actual medians. Each
            // cluster's refit is independent; the fast path fans the `k`
            // fits out across threads.
            if naive {
                for cl in clusters.iter_mut() {
                    if cl.members.is_empty() {
                        cl.score = 0.0;
                        continue;
                    }
                    let model = ClusterModel::fit_naive(dataset, &cl.members)?;
                    cl.dims = model.select_dims(&thresholds);
                    cl.score = model.cluster_score(&cl.dims, &thresholds);
                }
            } else {
                // Fan the fits out only when there is enough gather work
                // to amortize thread spawns (each element here is a whole
                // cluster fit, so the gate is on total members, not
                // element count).
                let total_members: usize = clusters.iter().map(|cl| cl.members.len()).sum();
                if parallel::num_threads() == 1 || total_members < parallel::MIN_CHUNK {
                    // Serial: columnar fits sharing one gather buffer
                    // across clusters and iterations.
                    for cl in clusters.iter_mut() {
                        refit_cluster(dataset, &thresholds, cl, &mut fit_scratch);
                    }
                } else {
                    // Pre-warm the per-size threshold rows serially so
                    // the worker threads only read the cache.
                    for cl in clusters.iter() {
                        if !cl.members.is_empty() {
                            thresholds.row(cl.members.len());
                        }
                    }
                    parallel::for_each_mut_with(
                        &mut clusters,
                        FitScratch::new,
                        |_, cl, scratch| refit_cluster(dataset, &thresholds, cl, scratch),
                    );
                }
            }
            if let Some(t) = timings.as_deref_mut() {
                t.refit_secs += phase_start.expect("timed run").elapsed().as_secs_f64();
            }
            let score_sum: f64 = clusters.iter().map(|c| c.score).sum();
            let total = score_sum / (n as f64 * d as f64);

            // Step 5: record / restore, copying in place after the first
            // iteration.
            match &mut best {
                Some(snap) if total <= snap.total_score => {
                    snap.restore_clusters_into(&mut clusters);
                    stall += 1;
                }
                Some(snap) => {
                    snap.record(&assignment, &clusters, total);
                    stall = 0;
                }
                None => {
                    best = Some(Snapshot {
                        assignment: assignment.clone(),
                        clusters: clusters.clone(),
                        total_score: total,
                    });
                    stall = 0;
                }
            }
            if stall >= self.params.max_stall {
                break;
            }

            // Step 6: replace representatives, clear members.
            let bad = self.find_bad_cluster(dataset, &mut clusters, &thresholds);
            for (i, cl) in clusters.iter_mut().enumerate() {
                if i == bad {
                    self.redraw_medoid(dataset, cl, &groups, &mut public_in_use, &mut rng);
                } else if self.params.median_representatives {
                    cl.replace_rep_with_median(dataset, naive);
                }
                cl.refresh_ref_size();
                cl.members.clear();
            }
        }

        if let Some(t) = timings.as_deref_mut() {
            let total = run_start.expect("timed run").elapsed().as_secs_f64();
            t.other_secs = (total - t.assign_secs - t.refit_secs).max(0.0);
        }
        let fill_start = timings.is_some().then(Instant::now);
        let mut snap = best.expect("at least one iteration ran");
        let representatives = if representatives {
            materialize(dataset, &mut snap.clusters)
        } else {
            Vec::new()
        };
        if let Some(t) = timings {
            t.fill_secs = fill_start.expect("timed run").elapsed().as_secs_f64();
        }
        Ok(SspcResult::new(
            snap.assignment,
            snap.clusters.iter().map(|c| c.dims.clone()).collect(),
            snap.clusters.iter().map(|c| c.score).collect(),
            representatives,
            snap.total_score,
            iterations,
        ))
    }

    /// Step 2: every cluster draws its first medoid — from its private seed
    /// group when the class received input, otherwise from an unclaimed
    /// public group.
    fn initial_clusters(
        &self,
        dataset: &Dataset,
        groups: &SeedGroups,
        rng: &mut StdRng,
    ) -> Result<Vec<ClusterState>> {
        let k = self.params.k;
        let expected_size = (dataset.n_objects() / k).max(2);
        let mut clusters = Vec::with_capacity(k);
        let mut next_public = 0usize;
        for class_idx in 0..k {
            let (group, source) = match &groups.private[class_idx] {
                Some(g) => (g, SeedSource::Private(ClusterId(class_idx))),
                None => {
                    let g_idx = next_public;
                    next_public += 1;
                    let g = groups.public.get(g_idx).ok_or_else(|| {
                        Error::InsufficientData(format!(
                            "ran out of public seed groups at cluster {class_idx}"
                        ))
                    })?;
                    (g, SeedSource::Public(g_idx))
                }
            };
            let medoid = draw_seed(group, rng);
            clusters.push(ClusterState {
                rep: Representative::from_point(dataset.row(medoid)),
                dims: group.dims.clone(),
                members: Vec::new(),
                score: 0.0,
                source,
                ref_size: expected_size,
                fitted: Representative::default(),
            });
        }
        Ok(clusters)
    }

    /// Step 3: each object goes to the cluster whose objective score it
    /// improves the most (representative projection substituted for the
    /// median); objects improving nothing go to the outlier list. Labeled
    /// objects are pinned to their class's cluster when
    /// [`SspcParams::pin_labeled_objects`] is set.
    ///
    /// The per-object decision is a pure function of the (frozen) cluster
    /// representatives, dimensions, and threshold rows, so the fast path
    /// computes all decisions into `assignment` in parallel over disjoint
    /// object ranges and then builds the member lists serially in object
    /// order — bit-identical to the serial scan at any thread count.
    #[allow(clippy::too_many_arguments)]
    fn assign(
        &self,
        dataset: &Dataset,
        clusters: &mut [ClusterState],
        supervision: &Supervision,
        thresholds: &Thresholds,
        naive: bool,
        assignment: &mut Vec<Option<ClusterId>>,
        pinned: &mut Vec<bool>,
    ) {
        let n = dataset.n_objects();
        assignment.clear();
        assignment.resize(n, None);
        pinned.clear();
        pinned.resize(n, false);
        if self.params.pin_labeled_objects {
            for &(o, class) in supervision.labeled_objects() {
                assignment[o.index()] = Some(class);
                clusters[class.index()].members.push(o);
                pinned[o.index()] = true;
            }
        }
        if naive {
            for o in dataset.object_ids() {
                if pinned[o.index()] {
                    continue;
                }
                let mut best_gain = 0.0f64;
                let mut best_cluster: Option<usize> = None;
                for (i, cl) in clusters.iter().enumerate() {
                    let gain = assignment_gain(
                        dataset,
                        o,
                        cl.rep.point(),
                        &cl.dims,
                        thresholds,
                        cl.ref_size,
                    );
                    if gain > best_gain {
                        best_gain = gain;
                        best_cluster = Some(i);
                    }
                }
                if let Some(i) = best_cluster {
                    assignment[o.index()] = Some(ClusterId(i));
                    clusters[i].members.push(o);
                }
            }
            return;
        }

        // Fast path: one threshold row per cluster for the whole pass
        // (fetched once, not once per (object, dimension)). Per candidate,
        // walk its selected dimensions in order over a cache-resident block
        // of the columnar mirror, accumulating into a per-worker gain
        // buffer, then reduce each object to its argmax. Each object gets
        // the same sequence of adds as the reference kernel — bit-identical
        // decisions. Blocks hold `ASSIGN_BLOCK` objects; a chunk's last
        // block may be shorter, so a small dataset is one short block.
        let rows: Vec<Arc<[f64]>> = clusters
            .iter()
            .map(|cl| thresholds.row(cl.ref_size))
            .collect();
        // A representative is always known on its cluster's dimensions
        // here: step 6 took it from the fit that selected them (or from a
        // medoid row), and a restore brings back both together.
        debug_assert!(clusters
            .iter()
            .all(|cl| cl.dims.iter().all(|&j| cl.rep.is_known(j))));
        let candidates: Vec<AssignCandidate<'_>> = clusters
            .iter()
            .zip(&rows)
            .map(|(cl, row)| AssignCandidate {
                rep: cl.rep.point(),
                dims: &cl.dims,
                threshold_row: row,
            })
            .collect();
        let candidates = &candidates;
        let pinned_ref: &[bool] = pinned;
        parallel::for_each_chunk_mut_with(assignment, Vec::new, |offset, chunk, gains| {
            let mut start = 0;
            while start < chunk.len() {
                let block_len = (chunk.len() - start).min(ASSIGN_BLOCK);
                let block_start = offset + start;
                assignment_gains_transposed(dataset, block_start, block_len, candidates, gains);
                for i in 0..block_len {
                    if pinned_ref[block_start + i] {
                        continue;
                    }
                    chunk[start + i] = assignment_argmax(gains, block_len, i).map(ClusterId);
                }
                start += block_len;
            }
        });
        for o in dataset.object_ids() {
            if pinned[o.index()] {
                continue;
            }
            if let Some(c) = assignment[o.index()] {
                clusters[c.index()].members.push(o);
            }
        }
    }

    /// Step 6's diagnosis: the bad cluster is (in priority order) an empty
    /// cluster, the loser of a pair of near-duplicate clusters, or the
    /// cluster with the lowest φᵢ score. Near-duplicates arise when two
    /// medoids come from the same real cluster (Sec. 4.3): their selected
    /// subspaces overlap and their representatives are close within the
    /// shared dimensions.
    fn find_bad_cluster(
        &self,
        dataset: &Dataset,
        clusters: &mut [ClusterState],
        thresholds: &Thresholds,
    ) -> usize {
        if let Some(i) = clusters.iter().position(|c| c.members.is_empty()) {
            return i;
        }
        // Near-duplicate detection.
        for i in 0..clusters.len() {
            let (head, tail) = clusters.split_at_mut(i + 1);
            for (offset, b) in tail.iter_mut().enumerate() {
                if let Some(loser) = self.duplicate_loser(dataset, &mut head[i], b, thresholds) {
                    return if loser == 0 { i } else { i + 1 + offset };
                }
            }
        }
        // Lowest score.
        clusters
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.score.partial_cmp(&b.score).expect("finite scores"))
            .map(|(i, _)| i)
            .expect("k >= 1")
    }

    /// If `a` and `b` look like the same real cluster, returns which of the
    /// two (0 or 1) has the lower score; `None` otherwise. "Same" means
    /// their selected subspaces overlap by more than half (of the smaller)
    /// and their representatives sit within an average of one threshold
    /// unit per shared dimension.
    ///
    /// The shared dimensions come from this iteration's fits, while each
    /// representative's medians come from the previous member list, whose
    /// pruned fit may have skipped them: `Representative::get` selects
    /// those from the list the representative keeps.
    fn duplicate_loser(
        &self,
        dataset: &Dataset,
        a: &mut ClusterState,
        b: &mut ClusterState,
        thresholds: &Thresholds,
    ) -> Option<usize> {
        if a.dims.is_empty() || b.dims.is_empty() {
            return None;
        }
        let shared: Vec<_> = a
            .dims
            .iter()
            .filter(|j| b.dims.contains(j))
            .copied()
            .collect();
        if shared.len() * 2 <= a.dims.len().min(b.dims.len()) {
            return None;
        }
        let mut normalized = 0.0;
        let t_row = thresholds.row(a.ref_size.min(b.ref_size));
        for &j in &shared {
            let t = t_row[j.index()].max(f64::MIN_POSITIVE);
            let diff = a.rep.get(dataset, j) - b.rep.get(dataset, j);
            normalized += diff * diff / t;
        }
        if normalized / shared.len() as f64 >= 1.0 {
            return None;
        }
        Some(if a.score <= b.score { 0 } else { 1 })
    }

    /// Draws a fresh medoid for a bad cluster. Private clusters redraw from
    /// their own group; public-sourced clusters release their group and
    /// claim a random unclaimed one. The group's estimated dimensions
    /// replace the cluster's selected dimensions.
    fn redraw_medoid(
        &self,
        dataset: &Dataset,
        cluster: &mut ClusterState,
        groups: &SeedGroups,
        public_in_use: &mut [bool],
        rng: &mut StdRng,
    ) {
        let group = match cluster.source {
            SeedSource::Private(class) => groups.private[class.index()]
                .as_ref()
                .expect("private source implies a private group"),
            SeedSource::Public(current) => {
                public_in_use[current] = false;
                let free: Vec<usize> = (0..groups.public.len())
                    .filter(|&g| !public_in_use[g])
                    .collect();
                let g_idx = free[rng.gen_range(0..free.len())];
                public_in_use[g_idx] = true;
                cluster.source = SeedSource::Public(g_idx);
                &groups.public[g_idx]
            }
        };
        let medoid = draw_seed(group, rng);
        cluster.rep.set_point(dataset.row(medoid));
        cluster.dims.clone_from(&group.dims);
        cluster.score = 0.0;
        // `dims`/`score` no longer come from a fit of any member list;
        // invalidate the refit memoization and the median cache.
        cluster.fitted = Representative::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThresholdScheme;

    /// 40 objects × 8 dims: class 0 = objects 0..20 compact on dims 0,1;
    /// class 1 = objects 20..40 compact on dims 2,3. Other entries spread
    /// uniformly over [0, 100].
    fn planted() -> (Dataset, Vec<ClusterId>) {
        let mut rng = seeded_rng(777);
        let n = 40;
        let d = 8;
        let mut values = vec![0.0; n * d];
        for v in values.iter_mut() {
            *v = rng.gen_range(0.0..100.0);
        }
        for o in 0..20 {
            values[o * d] = 25.0 + rng.gen_range(-1.5..1.5);
            values[o * d + 1] = 60.0 + rng.gen_range(-1.5..1.5);
        }
        for o in 20..40 {
            values[o * d + 2] = 80.0 + rng.gen_range(-1.5..1.5);
            values[o * d + 3] = 15.0 + rng.gen_range(-1.5..1.5);
        }
        let truth = (0..n).map(|o| ClusterId(usize::from(o >= 20))).collect();
        (Dataset::from_rows(n, d, values).unwrap(), truth)
    }

    fn accuracy(result: &SspcResult, truth: &[ClusterId]) -> f64 {
        // Fraction of pairs the clustering gets right (same/different).
        let n = truth.len();
        let mut correct = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                total += 1;
                let same_truth = truth[i] == truth[j];
                let same_result = result.cluster_of(ObjectId(i)).is_some()
                    && result.cluster_of(ObjectId(i)) == result.cluster_of(ObjectId(j));
                if same_truth == same_result {
                    correct += 1;
                }
            }
        }
        correct as f64 / total as f64
    }

    fn default_params() -> SspcParams {
        SspcParams::new(2)
            .with_threshold(ThresholdScheme::MFraction(0.5))
            .with_grid(2, 5)
    }

    #[test]
    fn recovers_planted_clusters_unsupervised() {
        let (ds, truth) = planted();
        let sspc = Sspc::new(default_params()).unwrap();
        // Best-of-3 over seeds by objective, the paper's protocol in miniature.
        let best = (0..3)
            .map(|s| sspc.run(&ds, &Supervision::none(), s).unwrap())
            .max_by(|a, b| a.objective().partial_cmp(&b.objective()).unwrap())
            .unwrap();
        let acc = accuracy(&best, &truth);
        assert!(acc > 0.9, "pairwise accuracy {acc} too low");
    }

    #[test]
    fn selected_dims_match_planted_subspaces() {
        let (ds, _) = planted();
        let sspc = Sspc::new(default_params()).unwrap();
        let best = (0..3)
            .map(|s| sspc.run(&ds, &Supervision::none(), s).unwrap())
            .max_by(|a, b| a.objective().partial_cmp(&b.objective()).unwrap())
            .unwrap();
        // Each cluster's selected dims should be a planted pair.
        let mut found_01 = false;
        let mut found_23 = false;
        for c in 0..2 {
            let dims = best.selected_dims(ClusterId(c));
            if dims.contains(&sspc_common::DimId(0)) && dims.contains(&sspc_common::DimId(1)) {
                found_01 = true;
            }
            if dims.contains(&sspc_common::DimId(2)) && dims.contains(&sspc_common::DimId(3)) {
                found_23 = true;
            }
        }
        assert!(
            found_01 && found_23,
            "planted subspaces not recovered: {:?}",
            best.all_selected_dims()
        );
    }

    #[test]
    fn supervision_pins_labeled_objects() {
        let (ds, _) = planted();
        let sup = Supervision::none()
            .label_object(ObjectId(0), ClusterId(0))
            .label_object(ObjectId(1), ClusterId(0))
            .label_object(ObjectId(20), ClusterId(1))
            .label_object(ObjectId(21), ClusterId(1));
        let sspc = Sspc::new(default_params()).unwrap();
        let result = sspc.run(&ds, &sup, 5).unwrap();
        assert_eq!(result.cluster_of(ObjectId(0)), Some(ClusterId(0)));
        assert_eq!(result.cluster_of(ObjectId(1)), Some(ClusterId(0)));
        assert_eq!(result.cluster_of(ObjectId(20)), Some(ClusterId(1)));
        assert_eq!(result.cluster_of(ObjectId(21)), Some(ClusterId(1)));
    }

    #[test]
    fn supervision_aligns_cluster_ids_with_classes() {
        let (ds, truth) = planted();
        let sup = Supervision::none()
            .label_object(ObjectId(0), ClusterId(0))
            .label_object(ObjectId(1), ClusterId(0))
            .label_object(ObjectId(2), ClusterId(0))
            .label_object(ObjectId(20), ClusterId(1))
            .label_object(ObjectId(21), ClusterId(1))
            .label_object(ObjectId(22), ClusterId(1));
        let sspc = Sspc::new(default_params()).unwrap();
        let result = sspc.run(&ds, &sup, 6).unwrap();
        // With supervision the cluster indices are meaningful: count direct
        // label agreement on unlabeled objects.
        let hits = (0..40)
            .filter(|&o| result.cluster_of(ObjectId(o)) == Some(truth[o]))
            .count();
        assert!(hits >= 32, "only {hits}/40 objects labeled correctly");
    }

    #[test]
    fn deterministic_in_seed() {
        let (ds, _) = planted();
        let sspc = Sspc::new(default_params()).unwrap();
        let a = sspc.run(&ds, &Supervision::none(), 11).unwrap();
        let b = sspc.run(&ds, &Supervision::none(), 11).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_tiny_datasets() {
        let ds = Dataset::from_rows(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let sspc = Sspc::new(default_params()).unwrap();
        assert!(matches!(
            sspc.run(&ds, &Supervision::none(), 0),
            Err(Error::InvalidShape(_))
        ));
    }

    #[test]
    fn rejects_invalid_supervision() {
        let (ds, _) = planted();
        let sspc = Sspc::new(default_params()).unwrap();
        let sup = Supervision::none().label_object(ObjectId(999), ClusterId(0));
        assert!(sspc.run(&ds, &sup, 0).is_err());
    }

    #[test]
    fn iterations_respect_hard_cap() {
        let (ds, _) = planted();
        let params = default_params().with_termination(100, 4);
        let sspc = Sspc::new(params).unwrap();
        let result = sspc.run(&ds, &Supervision::none(), 1).unwrap();
        assert!(result.iterations() <= 4);
    }

    #[test]
    fn objective_is_positive_for_structured_data() {
        let (ds, _) = planted();
        let sspc = Sspc::new(default_params()).unwrap();
        let result = sspc.run(&ds, &Supervision::none(), 2).unwrap();
        assert!(result.objective() > 0.0);
    }

    /// The representative trap: `duplicate_loser` reads representatives
    /// on the dimensions of the next fit, which the pruned fits their
    /// medians came from may have skipped. Clusters 0 and 1 here both
    /// select dimension 1 next, whose medians (30 and 70) both fits
    /// skipped (s² ≥ ŝ²); the two lie more than a threshold unit apart,
    /// so neither is the other's duplicate, and the lowest score
    /// (cluster 2) is the bad cluster — as with eager representatives.
    #[test]
    fn find_bad_cluster_reads_skipped_medians_from_the_member_list() {
        use sspc_common::DimId;
        let ds = Dataset::from_rows(
            12,
            2,
            vec![
                10.0, 0.0, 80.0, 30.0, 30.0, 35.0, 60.0, 100.0, // cluster 0
                20.0, 0.0, 90.0, 70.0, 0.0, 75.0, 50.0, 100.0, // cluster 1
                70.0, 40.0, 40.0, 45.0, 100.0, 50.0, 5.0, 60.0, // cluster 2
            ],
        )
        .unwrap();
        let thresholds = Thresholds::new(ThresholdScheme::MFraction(0.5), &ds).unwrap();
        let sspc = Sspc::new(default_params()).unwrap();
        let build = |naive: bool| -> Vec<ClusterState> {
            [(0, 1.0, 1), (4, 2.0, 1), (8, -5.0, 0)]
                .into_iter()
                .map(|(first, score, next_dim)| {
                    let mut cl = ClusterState {
                        rep: Representative::from_point(ds.row(ObjectId(first))),
                        dims: Vec::new(),
                        members: (first..first + 4).map(ObjectId).collect(),
                        score: 0.0,
                        source: SeedSource::Public(0),
                        ref_size: 4,
                        fitted: Representative::default(),
                    };
                    refit_cluster(&ds, &thresholds, &mut cl, &mut FitScratch::new());
                    cl.replace_rep_with_median(&ds, naive);
                    // What the next iteration's fit selects.
                    cl.dims = vec![DimId(next_dim)];
                    cl.score = score;
                    cl
                })
                .collect()
        };
        let mut eager = build(true);
        let mut fast = build(false);
        assert!(
            !fast[0].rep.is_known(DimId(1)) && !fast[1].rep.is_known(DimId(1)),
            "dimension 1's medians must have been skipped"
        );
        let expected = sspc.find_bad_cluster(&ds, &mut eager, &thresholds);
        assert_eq!(expected, 2, "no near-duplicates: the lowest score is bad");
        assert_eq!(sspc.find_bad_cluster(&ds, &mut fast, &thresholds), expected);
        assert_eq!(fast[0].rep.point()[1], 30.0);
        assert_eq!(fast[1].rep.point()[1], 70.0);
    }

    use rand::Rng;
    use sspc_common::rng::seeded_rng;
    use sspc_common::ObjectId;
}
