use sspc_common::{ClusterId, Clustering, DimId, ObjectId, ObjectiveSense};

/// The output of one SSPC run: `k` clusters with selected dimensions, an
/// outlier list, and the achieved objective score.
#[derive(Debug, Clone, PartialEq)]
pub struct SspcResult {
    assignment: Vec<Option<ClusterId>>,
    selected_dims: Vec<Vec<DimId>>,
    cluster_scores: Vec<f64>,
    objective: f64,
    iterations: usize,
}

impl SspcResult {
    pub(crate) fn new(
        assignment: Vec<Option<ClusterId>>,
        selected_dims: Vec<Vec<DimId>>,
        cluster_scores: Vec<f64>,
        objective: f64,
        iterations: usize,
    ) -> Self {
        SspcResult {
            assignment,
            selected_dims,
            cluster_scores,
            objective,
            iterations,
        }
    }

    /// Per-object cluster assignment; `None` marks an outlier.
    pub fn assignment(&self) -> &[Option<ClusterId>] {
        &self.assignment
    }

    /// The cluster of one object (`None` = outlier).
    pub fn cluster_of(&self, o: ObjectId) -> Option<ClusterId> {
        self.assignment[o.index()]
    }

    /// Number of clusters `k`.
    pub fn n_clusters(&self) -> usize {
        self.selected_dims.len()
    }

    /// Selected dimensions of a cluster, ascending.
    pub fn selected_dims(&self, c: ClusterId) -> &[DimId] {
        &self.selected_dims[c.index()]
    }

    /// All selected-dimension lists, indexed by cluster.
    pub fn all_selected_dims(&self) -> &[Vec<DimId>] {
        &self.selected_dims
    }

    /// The φᵢ score of a cluster at the best iteration.
    pub fn cluster_score(&self, c: ClusterId) -> f64 {
        self.cluster_scores[c.index()]
    }

    /// Members of a cluster, ascending by object id.
    pub fn members_of(&self, c: ClusterId) -> Vec<ObjectId> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(o, cl)| (*cl == Some(c)).then_some(ObjectId(o)))
            .collect()
    }

    /// Objects on the outlier list, ascending.
    pub fn outliers(&self) -> Vec<ObjectId> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(o, cl)| cl.is_none().then_some(ObjectId(o)))
            .collect()
    }

    /// Number of outliers.
    pub fn n_outliers(&self) -> usize {
        self.assignment.iter().filter(|c| c.is_none()).count()
    }

    /// The best overall objective score `φ` (Eq. 1) reached.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Number of iterations executed before termination.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

/// Adapter into the workspace-wide canonical result: every field carries
/// over. Timing is attached by the [`crate::ProjectedClusterer`] impl,
/// which measures the run it wraps.
impl From<SspcResult> for Clustering {
    fn from(r: SspcResult) -> Clustering {
        Clustering::new(
            "sspc",
            r.assignment,
            r.selected_dims,
            r.objective,
            ObjectiveSense::HigherIsBetter,
        )
        .with_iterations(r.iterations)
        .with_cluster_scores(r.cluster_scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> SspcResult {
        SspcResult::new(
            vec![
                Some(ClusterId(0)),
                None,
                Some(ClusterId(1)),
                Some(ClusterId(0)),
            ],
            vec![vec![DimId(0), DimId(2)], vec![DimId(1)]],
            vec![3.5, 1.25],
            0.42,
            9,
        )
    }

    #[test]
    fn accessors_roundtrip() {
        let r = result();
        assert_eq!(r.n_clusters(), 2);
        assert_eq!(r.cluster_of(ObjectId(0)), Some(ClusterId(0)));
        assert_eq!(r.cluster_of(ObjectId(1)), None);
        assert_eq!(r.selected_dims(ClusterId(0)), &[DimId(0), DimId(2)]);
        assert_eq!(r.cluster_score(ClusterId(1)), 1.25);
        assert_eq!(r.objective(), 0.42);
        assert_eq!(r.iterations(), 9);
    }

    #[test]
    fn converts_into_canonical_clustering() {
        let r = result();
        let c = Clustering::from(r.clone());
        assert_eq!(c.algorithm(), "sspc");
        assert_eq!(c.sense(), ObjectiveSense::HigherIsBetter);
        assert_eq!(c.assignment(), r.assignment());
        assert_eq!(c.all_selected_dims(), r.all_selected_dims());
        assert_eq!(c.objective(), r.objective());
        assert_eq!(c.iterations(), Some(r.iterations()));
        assert_eq!(c.cluster_scores(), Some(&[3.5, 1.25][..]));
    }

    #[test]
    fn membership_queries() {
        let r = result();
        assert_eq!(r.members_of(ClusterId(0)), vec![ObjectId(0), ObjectId(3)]);
        assert_eq!(r.members_of(ClusterId(1)), vec![ObjectId(2)]);
        assert_eq!(r.outliers(), vec![ObjectId(1)]);
        assert_eq!(r.n_outliers(), 1);
    }
}
