//! Shared experiment protocol helpers.
//!
//! The paper's protocol (Sec. 5): "We repeated each experiment 10 times,
//! and report only the result that gives the best **algorithm-specific
//! objective score**" — i.e. repetitions are selected by each algorithm's
//! own internal score, *not* by ARI (which would leak the ground truth).
//! For the semi-supervised plots (Figs. 5–6) each point is instead "the
//! median of 10 repeated runs with 10 independent sets of inputs", with
//! labeled objects removed before computing ARI.
//!
//! The restart/selection loop itself lives in [`sspc_api::experiment`] —
//! the same `best_of` every frontend (CLI, batch server) uses;
//! [`best_clustering_of`] only adapts its output to the [`Timed`] shape
//! the figure code consumes. This module keeps the *scoring* helpers that
//! are specific to the paper's evaluation: ARI with the paper's outlier
//! and labeled-object handling, and the median-of-runs aggregation.

use sspc_common::{
    ClusterId, Clustering, Dataset, ObjectId, ProjectedClusterer, Result, Supervision,
};
use sspc_datagen::GroundTruth;
use sspc_metrics::{adjusted_rand_index, OutlierPolicy};
use std::time::Instant;

/// A value plus the wall-clock seconds spent producing it.
#[derive(Debug, Clone)]
pub struct Timed<T> {
    /// The computed value.
    pub value: T,
    /// Elapsed wall-clock seconds.
    pub seconds: f64,
}

/// Times a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let start = Instant::now();
    let value = f();
    Timed {
        value,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// Best-of-N restarts of any [`ProjectedClusterer`], selected by the
/// algorithm's **own** objective under its own sense — a thin adapter over
/// [`sspc_api::best_of`] reporting the total seconds across restarts (what
/// the paper's timing figures plot). Deterministic algorithms (HARP,
/// CLIQUE) run once regardless of `runs`.
///
/// # Errors
///
/// Propagates the first run failure.
pub fn best_clustering_of<C: ProjectedClusterer + Sync + ?Sized>(
    clusterer: &C,
    dataset: &Dataset,
    supervision: &Supervision,
    runs: usize,
    base_seed: u64,
) -> Result<Timed<Clustering>> {
    let outcome = sspc_api::best_of(clusterer, dataset, supervision, runs, base_seed)?;
    Ok(Timed {
        value: outcome.best,
        seconds: outcome.total_seconds,
    })
}

/// ARI of a produced assignment against the ground truth, with produced
/// outliers forming one extra cluster ([`OutlierPolicy::AsCluster`]) so
/// that discarding real members costs accuracy — the consistent treatment
/// across algorithms with and without outlier lists.
///
/// # Errors
///
/// Propagates metric failures (length mismatch).
pub fn ari_vs_truth(truth: &GroundTruth, produced: &[Option<ClusterId>]) -> Result<f64> {
    adjusted_rand_index(truth.assignment(), produced, OutlierPolicy::AsCluster)
}

/// ARI with the labeled objects removed from both partitions first — the
/// paper's semi-supervised protocol ("the labeled objects are removed from
/// the resulting clusters before computing the ARI values in order to
/// eliminate the direct performance gain due to the input objects").
///
/// # Errors
///
/// Propagates metric failures.
pub fn ari_excluding_labeled(
    truth: &GroundTruth,
    produced: &[Option<ClusterId>],
    labeled: &[(ObjectId, ClusterId)],
) -> Result<f64> {
    if labeled.is_empty() {
        return ari_vs_truth(truth, produced);
    }
    let mut t: Vec<Option<ClusterId>> = truth.assignment().to_vec();
    let mut p: Vec<Option<ClusterId>> = produced.to_vec();
    // Shift surviving labels up by one cluster id and park excluded objects
    // in a sentinel "cluster" that is then dropped: simplest is to delete
    // the positions outright.
    let mut excluded = vec![false; t.len()];
    for &(o, _) in labeled {
        excluded[o.index()] = true;
    }
    let mut tt = Vec::with_capacity(t.len());
    let mut pp = Vec::with_capacity(p.len());
    for i in 0..t.len() {
        if !excluded[i] {
            tt.push(t[i]);
            pp.push(p[i]);
        }
    }
    t = tt;
    p = pp;
    adjusted_rand_index(&t, &p, OutlierPolicy::AsCluster)
}

/// The median of a set of scores (used for the Figs. 5–6 protocol).
/// Returns `None` for an empty slice.
pub fn median_score(scores: &[f64]) -> Option<f64> {
    if scores.is_empty() {
        return None;
    }
    let mut buf = scores.to_vec();
    Some(sspc_common::stats::median_in_place(&mut buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sspc::{Sspc, SspcParams, ThresholdScheme};
    use sspc_baselines::harp::HarpParams;
    use sspc_common::rng::derive_seed;
    use sspc_datagen::{generate, GeneratorConfig};

    fn small_data() -> sspc_datagen::GeneratedData {
        generate(
            &GeneratorConfig {
                n: 120,
                d: 20,
                k: 3,
                avg_cluster_dims: 6,
                ..Default::default()
            },
            42,
        )
        .unwrap()
    }

    fn sspc_with_m(m: f64) -> Sspc {
        Sspc::new(SspcParams::new(3).with_threshold(ThresholdScheme::MFraction(m))).unwrap()
    }

    #[test]
    fn best_of_selects_highest_objective() {
        let data = small_data();
        let sspc = sspc_with_m(0.5);
        let one = best_clustering_of(&sspc, &data.dataset, &Supervision::none(), 1, 7).unwrap();
        let five = best_clustering_of(&sspc, &data.dataset, &Supervision::none(), 5, 7).unwrap();
        assert!(five.value.objective() >= one.value.objective());
        assert!(five.seconds > 0.0);
        // The adapter reports the paper's "time of N runs", not one run's.
        assert!(five.seconds > five.value.seconds());
    }

    #[test]
    fn best_of_agrees_with_the_api_protocol() {
        let data = small_data();
        let sspc = sspc_with_m(0.5);
        let here = best_clustering_of(&sspc, &data.dataset, &Supervision::none(), 3, 9).unwrap();
        let api = sspc_api::best_of(&sspc, &data.dataset, &Supervision::none(), 3, 9).unwrap();
        // Wall-clock seconds legitimately differ between the two runs;
        // everything the protocol determines must not.
        assert_eq!(here.value.assignment(), api.best.assignment());
        assert_eq!(
            here.value.objective().to_bits(),
            api.best.objective().to_bits()
        );
        assert_eq!(here.value.all_selected_dims(), api.best.all_selected_dims());
    }

    #[test]
    fn deterministic_algorithms_run_once() {
        let data = small_data();
        let harp = HarpParams::new(3).build();
        let run = best_clustering_of(&harp, &data.dataset, &Supervision::none(), 10, 3).unwrap();
        let again = best_clustering_of(&harp, &data.dataset, &Supervision::none(), 1, 99).unwrap();
        assert_eq!(run.value.assignment(), again.value.assignment());
    }

    #[test]
    fn ari_vs_truth_rewards_good_clusterings() {
        let data = small_data();
        let best = best_clustering_of(&sspc_with_m(0.5), &data.dataset, &Supervision::none(), 5, 3)
            .unwrap();
        let ari = ari_vs_truth(&data.truth, best.value.assignment()).unwrap();
        assert!(ari > 0.5, "ARI {ari} too low on an easy dataset");
    }

    #[test]
    fn ari_excluding_labeled_drops_pinned_objects() {
        let data = small_data();
        // A perfect "clustering" that is only perfect on the labeled pair
        // would be fully discounted; here check the plumbing: excluding all
        // of one class's objects changes the score.
        let produced: Vec<Option<ClusterId>> = data.truth.assignment().to_vec();
        let full = ari_vs_truth(&data.truth, &produced).unwrap();
        assert!((full - 1.0).abs() < 1e-12);
        let labeled: Vec<(ObjectId, ClusterId)> = data
            .truth
            .members_of(ClusterId(0))
            .into_iter()
            .take(5)
            .map(|o| (o, ClusterId(0)))
            .collect();
        let partial = ari_excluding_labeled(&data.truth, &produced, &labeled).unwrap();
        assert!(
            (partial - 1.0).abs() < 1e-12,
            "still perfect, fewer objects"
        );
    }

    #[test]
    fn median_score_handles_edges() {
        assert_eq!(median_score(&[]), None);
        assert_eq!(median_score(&[0.5]), Some(0.5));
        assert_eq!(median_score(&[0.1, 0.9, 0.5]), Some(0.5));
    }

    #[test]
    fn timing_helper_reports_elapsed() {
        let t = time(|| 2 + 2);
        assert_eq!(t.value, 4);
        assert!(t.seconds >= 0.0);
    }

    /// The seeds `best_clustering_of` hands each restart are the
    /// `derive_seed(base, r)` stream the old per-algorithm helpers used,
    /// so figure outputs stay comparable across the port.
    #[test]
    fn restart_seeds_match_the_documented_stream() {
        let data = small_data();
        let sspc = sspc_with_m(0.5);
        let best = best_clustering_of(&sspc, &data.dataset, &Supervision::none(), 4, 5).unwrap();
        let mut manual: Option<Clustering> = None;
        for r in 0..4u64 {
            let c = sspc
                .cluster(&data.dataset, &Supervision::none(), derive_seed(5, r))
                .unwrap();
            if manual.as_ref().is_none_or(|b| c.is_better_than(b)) {
                manual = Some(c);
            }
        }
        assert_eq!(best.value.assignment(), manual.unwrap().assignment());
    }
}
