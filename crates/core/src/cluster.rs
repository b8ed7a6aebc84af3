//! Mutable per-cluster state carried across SSPC iterations.

use crate::objective::ClusterModel;
use sspc_common::stats::{median_in_place, median_of};
use sspc_common::{ClusterId, Dataset, DimId, ObjectId};

/// Where a cluster's medoids come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SeedSource {
    /// The private seed group of this class.
    Private(ClusterId),
    /// The public seed group with this index is currently claimed.
    Public(usize),
}

/// A full-length point whose member-wise medians may not all be selected
/// yet. A pruned fit ([`ClusterModel::fit_pruned`]) skips the medians
/// `SelectDim` cannot use, so the point keeps the member list its medians
/// come from and selects a skipped entry on first read
/// ([`Representative::get`]). A medoid row has every entry known and no
/// member list.
#[derive(Debug, Default)]
pub(crate) struct Representative {
    /// The entries; one not yet selected holds NaN.
    point: Vec<f64>,
    /// `known[j]`: `point[j]` holds its value.
    known: Vec<bool>,
    /// The member list the medians come from (empty when every entry is
    /// known from the start).
    members: Vec<ObjectId>,
}

/// Manual `Clone` so that `clone_from` reuses all three allocations
/// (snapshot record/restore runs every iteration).
impl Clone for Representative {
    fn clone(&self) -> Self {
        Representative {
            point: self.point.clone(),
            known: self.known.clone(),
            members: self.members.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.point.clone_from(&source.point);
        self.known.clone_from(&source.known);
        self.members.clone_from(&source.members);
    }
}

impl Representative {
    /// A point with every entry known: a medoid row, or medians selected
    /// eagerly.
    pub fn from_point(point: &[f64]) -> Self {
        let mut rep = Representative::default();
        rep.set_point(point);
        rep
    }

    /// Overwrites `self` with a point whose every entry is known.
    pub fn set_point(&mut self, point: &[f64]) {
        self.point.clear();
        self.point.extend_from_slice(point);
        self.known.clear();
        self.known.resize(point.len(), true);
        self.members.clear();
    }

    /// Overwrites `self` with `model`'s medians over `members`, the list
    /// `model` was fitted on; the medians the fit skipped stay unknown
    /// until read.
    pub fn set_medians(&mut self, model: &ClusterModel, members: &[ObjectId]) {
        self.point.clear();
        self.known.clear();
        for j in (0..model.n_dims()).map(DimId) {
            let median = model.median(j);
            self.point.push(median.unwrap_or(f64::NAN));
            self.known.push(median.is_some());
        }
        self.members.clear();
        self.members.extend_from_slice(members);
    }

    /// The member list the medians come from.
    pub fn members(&self) -> &[ObjectId] {
        &self.members
    }

    /// Whether entry `j` holds its value without a read selecting it.
    pub fn is_known(&self, j: DimId) -> bool {
        self.known[j.index()]
    }

    /// The whole point. An entry not yet selected holds NaN, so read this
    /// only on dimensions known to be filled.
    pub fn point(&self) -> &[f64] {
        &self.point
    }

    /// Entry `j`, selecting its median from the member list on first read
    /// — the same values and selection the fit would have made.
    pub fn get(&mut self, dataset: &Dataset, j: DimId) -> f64 {
        if !self.known[j.index()] {
            let col = dataset.column_slice(j);
            self.point[j.index()] = median_of(self.members.iter().map(|&o| col[o.index()]))
                .expect("a skipped median has members");
            self.known[j.index()] = true;
        }
        self.point[j.index()]
    }

    /// Selects every entry still unknown.
    ///
    /// Reads each member's row once, in blocks of `BLOCK` unknown
    /// dimensions (about one cache line of a row at a time), into a small
    /// column-major buffer. Gathering column by column instead pulls a
    /// whole cache line per member per column: on an 8000 × 1000 matrix
    /// at k = 10 (members a tenth of the objects, 2-core Xeon) one run's
    /// fills took 74 ms that way against 31–43 ms in blocks of 8 and
    /// 44–67 ms in blocks of 64 or more.
    pub fn fill_all(&mut self, dataset: &Dataset) {
        const BLOCK: usize = 8;
        let unknown: Vec<usize> = (0..self.known.len()).filter(|&j| !self.known[j]).collect();
        let m = self.members.len();
        let mut cols = vec![0.0f64; BLOCK.min(unknown.len()) * m];
        for block in unknown.chunks(BLOCK) {
            for (i, &o) in self.members.iter().enumerate() {
                let row = dataset.row(o);
                for (k, &j) in block.iter().enumerate() {
                    cols[k * m + i] = row[j];
                }
            }
            for (k, &j) in block.iter().enumerate() {
                self.point[j] = median_in_place(&mut cols[k * m..(k + 1) * m]);
                self.known[j] = true;
            }
        }
    }
}

/// One cluster's working state: representative point, selected dimensions,
/// members, and the score of the last evaluation.
#[derive(Debug)]
pub(crate) struct ClusterState {
    /// The cluster representative: an actual medoid's row or the
    /// member-wise median ("virtual object") of the members it was taken
    /// from. `duplicate_loser` reads it on the dimensions of the *next*
    /// fit, which its own fit may have skipped; it selects those on first
    /// read from the member list it keeps.
    pub rep: Representative,
    /// Selected dimensions, ascending.
    pub dims: Vec<DimId>,
    /// Current members (rebuilt every iteration).
    pub members: Vec<ObjectId>,
    /// The cluster score φᵢ from the last `SelectDim` + scoring pass.
    pub score: f64,
    /// Which seed group this cluster draws medoids from.
    pub source: SeedSource,
    /// Cluster size used for threshold lookups during assignment — the
    /// size from the previous iteration, or the expected size `n/k` before
    /// the first assignment.
    pub ref_size: usize,
    /// The medians of the last fit (fast path only; empty when never
    /// fitted), over `fitted.members()`: only those of the dimensions the
    /// pruned fit could select are known. Its member list is the refit
    /// memo's key — the fit is a pure function of the members, so `dims`
    /// and `score` are exactly what a refit of an unchanged member list
    /// would produce — and the median-representative step copies it into
    /// `rep` while the members are unchanged.
    pub fitted: Representative,
}

/// Manual `Clone` so that `clone_from` reuses the nested allocations —
/// snapshot record/restore runs every iteration of the main loop, and the
/// derived `clone_from` would reallocate every vector per cluster each
/// time. Both representatives carry their member lists.
impl Clone for ClusterState {
    fn clone(&self) -> Self {
        ClusterState {
            rep: self.rep.clone(),
            dims: self.dims.clone(),
            members: self.members.clone(),
            score: self.score,
            source: self.source,
            ref_size: self.ref_size,
            fitted: self.fitted.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.rep.clone_from(&source.rep);
        self.dims.clone_from(&source.dims);
        self.members.clone_from(&source.members);
        self.score = source.score;
        self.source = source.source;
        self.ref_size = source.ref_size;
        self.fitted.clone_from(&source.fitted);
    }
}

impl ClusterState {
    /// Resets the fit-derived fields for an empty member set: zero score
    /// and no fit. The selected dimensions are deliberately kept — the
    /// reference path leaves the last selection in place for empty
    /// clusters, and the bad-cluster redraw will replace them.
    pub fn reset_empty_fit(&mut self) {
        self.score = 0.0;
        self.fitted = Representative::default();
    }

    /// Replaces the representative by the member-wise median (paper step 6:
    /// "the medoid of each other cluster is replaced by the cluster
    /// median"). No-op for empty clusters.
    ///
    /// The fast path copies the last fit's medians (valid while
    /// `fitted.members() == members`, which the main loop guarantees);
    /// the entries the pruned fit skipped stay unknown, to be selected on
    /// first read. `naive`, or a fit of other members, selects every
    /// median eagerly through the row-major gather (one strided read per
    /// member per dimension).
    pub fn replace_rep_with_median(&mut self, dataset: &Dataset, naive: bool) {
        if self.members.is_empty() {
            return;
        }
        if !naive && self.fitted.members() == self.members {
            self.rep.clone_from(&self.fitted);
            return;
        }
        let point: Vec<f64> = dataset
            .dim_ids()
            .map(|j| {
                median_of(self.members.iter().map(|&o| dataset.value(o, j)))
                    .expect("members is non-empty")
            })
            .collect();
        self.rep.set_point(&point);
    }

    /// Updates `ref_size` from the current member count, holding the
    /// previous value when the cluster came out empty.
    pub fn refresh_ref_size(&mut self) {
        if !self.members.is_empty() {
            self.ref_size = self.members.len();
        }
    }
}

/// An immutable snapshot of all clusters plus the assignment they imply —
/// what "record the clusters if they give the best objective score so far"
/// stores and "restore the best clusters otherwise" brings back.
#[derive(Debug, Clone)]
pub(crate) struct Snapshot {
    pub assignment: Vec<Option<ClusterId>>,
    pub clusters: Vec<ClusterState>,
    pub total_score: f64,
}

impl Snapshot {
    /// Overwrites this snapshot from the current working state, reusing the
    /// existing allocations (the per-iteration "record" step).
    pub fn record(
        &mut self,
        assignment: &[Option<ClusterId>],
        clusters: &[ClusterState],
        total_score: f64,
    ) {
        self.assignment.clear();
        self.assignment.extend_from_slice(assignment);
        clone_clusters_into(&mut self.clusters, clusters);
        self.total_score = total_score;
    }

    /// Copies the snapshot's clusters back into the working state in place
    /// (the per-iteration "restore" step).
    pub fn restore_clusters_into(&self, clusters: &mut Vec<ClusterState>) {
        clone_clusters_into(clusters, &self.clusters);
    }
}

/// Element-wise `clone_from` between cluster vectors, reusing every nested
/// allocation when lengths match (they always do — `k` is fixed per run).
fn clone_clusters_into(dst: &mut Vec<ClusterState>, src: &[ClusterState]) {
    dst.truncate(src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        d.clone_from(s);
    }
    for s in &src[dst.len()..] {
        dst.push(s.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::FitScratch;
    use sspc_common::Dataset;

    fn dataset() -> Dataset {
        Dataset::from_rows(
            4,
            2,
            vec![
                1.0, 10.0, //
                3.0, 20.0, //
                5.0, 30.0, //
                100.0, 40.0,
            ],
        )
        .unwrap()
    }

    fn state(members: &[usize]) -> ClusterState {
        ClusterState {
            rep: Representative::from_point(&[0.0, 0.0]),
            dims: vec![DimId(0)],
            members: members.iter().map(|&i| ObjectId(i)).collect(),
            score: 0.0,
            source: SeedSource::Public(0),
            ref_size: 2,
            fitted: Representative::default(),
        }
    }

    /// The fast path's refit: a pruned fit whose threshold row keeps dim 0
    /// selectable and skips dim 1's median (`ŝ² = 0`).
    fn fit_pruned(st: &mut ClusterState, ds: &Dataset) {
        let model =
            ClusterModel::fit_pruned(ds, &st.members, &[1e9, 0.0], &[], &mut FitScratch::new())
                .unwrap();
        st.fitted.set_medians(&model, &st.members);
    }

    #[test]
    fn median_representative_uses_member_medians() {
        let ds = dataset();
        let mut st = state(&[0, 1, 2]);
        st.replace_rep_with_median(&ds, false);
        assert_eq!(st.rep.point(), [3.0, 20.0]);
    }

    #[test]
    fn empty_cluster_keeps_representative() {
        let ds = dataset();
        let mut st = state(&[]);
        st.rep.set_point(&[7.0, 8.0]);
        st.replace_rep_with_median(&ds, false);
        assert_eq!(st.rep.point(), [7.0, 8.0]);
    }

    #[test]
    fn median_replacement_matches_naive_gather() {
        let ds = dataset();
        let mut fast = state(&[0, 1, 2]);
        let mut naive = state(&[0, 1, 2]);
        fit_pruned(&mut fast, &ds);
        fast.replace_rep_with_median(&ds, false);
        naive.replace_rep_with_median(&ds, true);
        // The skipped median is selected on first read, from the member
        // list the fit's medians came from.
        assert!(fast.rep.is_known(DimId(0)) && !fast.rep.is_known(DimId(1)));
        assert_eq!(fast.rep.get(&ds, DimId(1)), 20.0);
        fast.rep.fill_all(&ds);
        assert_eq!(fast.rep.point(), naive.rep.point());
    }

    #[test]
    fn snapshot_record_and_restore_roundtrip() {
        let ds = dataset();
        let mut working = vec![state(&[0, 1]), state(&[2, 3])];
        working[0].score = 4.5;
        fit_pruned(&mut working[0], &ds);
        working[0].replace_rep_with_median(&ds, false);
        let mut snap = Snapshot {
            assignment: Vec::new(),
            clusters: Vec::new(),
            total_score: 0.0,
        };
        let assignment = vec![
            Some(ClusterId(0)),
            Some(ClusterId(0)),
            Some(ClusterId(1)),
            None,
        ];
        snap.record(&assignment, &working, 4.5);
        // Mutate the working state, then restore.
        working[0].score = -1.0;
        working[0].members.clear();
        working[0].rep.set_point(&[9.0, 9.0]);
        working[1].replace_rep_with_median(&ds, false);
        snap.restore_clusters_into(&mut working);
        assert_eq!(working[0].score, 4.5);
        assert_eq!(working[0].members, vec![ObjectId(0), ObjectId(1)]);
        // The representative comes back with the member list its skipped
        // median is selected from.
        assert_eq!(working[0].rep.members(), [ObjectId(0), ObjectId(1)]);
        assert_eq!(working[0].rep.get(&ds, DimId(1)), 10.0);
        assert_eq!(snap.assignment, assignment);
        assert_eq!(snap.total_score, 4.5);
    }

    #[test]
    fn ref_size_tracks_membership() {
        let mut st = state(&[0, 1, 2]);
        st.refresh_ref_size();
        assert_eq!(st.ref_size, 3);
        st.members.clear();
        st.refresh_ref_size();
        assert_eq!(st.ref_size, 3, "empty cluster keeps previous ref size");
    }
}
