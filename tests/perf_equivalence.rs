//! The performance layer's contract: the columnar / parallel fast paths
//! must be **bit-identical** to the row-major serial reference paths, at
//! any thread count.
//!
//! Thread counts are driven through `SSPC_NUM_THREADS` (the env var
//! `sspc_common::parallel::num_threads` resolves first); all runs happen
//! inside one `#[test]` per scenario so the env mutation cannot race a
//! concurrently running test in this binary.

use proptest::prelude::*;
use rand::Rng;
use sspc::objective::{
    assignment_argmax, assignment_gain_row, assignment_gains_transposed, AssignCandidate,
    ClusterModel, FitScratch,
};
use sspc::{Sspc, SspcParams, SspcResult, Supervision, ThresholdScheme, Thresholds};
use sspc_common::rng::seeded_rng;
use sspc_common::{ClusterId, Dataset, DimId, ObjectId};

/// Serializes SSPC_NUM_THREADS mutation across tests in this binary.
static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn with_thread_count<R>(n: usize, body: impl FnOnce() -> R) -> R {
    std::env::set_var("SSPC_NUM_THREADS", n.to_string());
    let r = body();
    std::env::remove_var("SSPC_NUM_THREADS");
    r
}

/// A planted dataset: `k` clusters of `per` objects, each compact on
/// `width` (1 or 2) of the `d` dimensions, values elsewhere uniform over
/// [0, 100].
fn planted(n: usize, d: usize, k: usize, width: usize, seed: u64) -> Dataset {
    let mut rng = seeded_rng(seed);
    let mut values = vec![0.0f64; n * d];
    for v in values.iter_mut() {
        *v = rng.gen_range(0.0..100.0);
    }
    let per = n / k;
    for c in 0..k {
        let j0 = (2 * c) % d.saturating_sub(1).max(1);
        let center0 = rng.gen_range(10.0..90.0);
        let center1 = rng.gen_range(10.0..90.0);
        for o in (c * per)..((c + 1) * per) {
            values[o * d + j0] = center0 + rng.gen_range(-1.0..1.0);
            if width == 2 {
                values[o * d + j0 + 1] = center1 + rng.gen_range(-1.0..1.0);
            }
        }
    }
    Dataset::from_rows(n, d, values).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Columnar `fit` equals the row-major naive `fit` to the last ulp on
    /// random datasets and member subsets, and so do the selections and
    /// scores derived from it.
    #[test]
    fn prop_columnar_fit_equals_naive(
        n in 4usize..40,
        d in 1usize..24,
        seed in 0u64..10_000,
    ) {
        let mut rng = seeded_rng(seed);
        let values: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-1e4..1e4)).collect();
        let ds = Dataset::from_rows(n, d, values).unwrap();
        // A random non-empty member subset.
        let members: Vec<ObjectId> = (0..n)
            .filter(|_| rng.gen_range(0.0..1.0) < 0.5)
            .map(ObjectId)
            .collect();
        prop_assume!(!members.is_empty());

        let fast = ClusterModel::fit_with_scratch(&ds, &members, &mut FitScratch::new()).unwrap();
        let naive = ClusterModel::fit_naive(&ds, &members).unwrap();
        for j in ds.dim_ids() {
            let (f, g) = (fast.summary(j), naive.summary(j));
            prop_assert_eq!(f.mean.to_bits(), g.mean.to_bits(), "mean differs at {}", j);
            prop_assert_eq!(f.variance.to_bits(), g.variance.to_bits(), "variance differs at {}", j);
            prop_assert_eq!(f.median.to_bits(), g.median.to_bits(), "median differs at {}", j);
        }
        for scheme in [ThresholdScheme::MFraction(0.5), ThresholdScheme::PValue(0.05)] {
            let th = Thresholds::new(scheme, &ds).unwrap();
            prop_assert_eq!(fast.select_dims(&th), naive.select_dims(&th));
            let dims = fast.select_dims(&th);
            prop_assert_eq!(
                fast.cluster_score(&dims, &th).to_bits(),
                naive.cluster_score(&dims, &th).to_bits()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// The pruned fit (medians only where `SelectDim` can keep the
    /// dimension, plus the requested ones) agrees with the eager row-major
    /// `fit_naive` to the last ulp: mean and variance on every dimension,
    /// the median wherever it is computed, and the selection and scores
    /// derived from them, for both threshold schemes. Members are compact
    /// on a random subset of dimensions so that both selected and skipped
    /// medians occur.
    #[test]
    fn prop_pruned_fit_equals_naive(
        n in 4usize..40,
        d in 1usize..24,
        seed in 0u64..10_000,
    ) {
        let mut rng = seeded_rng(seed);
        let mut values: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-1e4..1e4)).collect();
        let members: Vec<ObjectId> = (0..n)
            .filter(|_| rng.gen_range(0.0..1.0) < 0.5)
            .map(ObjectId)
            .collect();
        prop_assume!(!members.is_empty());
        for j in 0..d {
            if rng.gen_range(0.0..1.0) < 0.4 {
                let center = rng.gen_range(-1e4..1e4);
                for o in &members {
                    values[o.index() * d + j] = center + rng.gen_range(-50.0..50.0);
                }
            }
        }
        let ds = Dataset::from_rows(n, d, values).unwrap();
        let requested: Vec<DimId> = (0..d)
            .filter(|_| rng.gen_range(0.0..1.0) < 0.2)
            .map(DimId)
            .collect();

        let naive = ClusterModel::fit_naive(&ds, &members).unwrap();
        for scheme in [ThresholdScheme::MFraction(0.5), ThresholdScheme::PValue(0.05)] {
            let th = Thresholds::new(scheme, &ds).unwrap();
            let t_row = th.row(members.len());
            let pruned = ClusterModel::fit_pruned(
                &ds, &members, &t_row, &requested, &mut FitScratch::new(),
            ).unwrap();
            for j in ds.dim_ids() {
                let (f, g) = (pruned.summary(j), naive.summary(j));
                prop_assert_eq!(f.mean.to_bits(), g.mean.to_bits(), "mean differs at {}", j);
                prop_assert_eq!(f.variance.to_bits(), g.variance.to_bits(), "variance differs at {}", j);
                let t = t_row[j.index()];
                let selectable = t > 0.0 && g.variance < t;
                prop_assert_eq!(
                    pruned.median(j).is_some(),
                    selectable || requested.contains(&j),
                    "median mask wrong at {}", j
                );
                if let Some(median) = pruned.median(j) {
                    prop_assert_eq!(median.to_bits(), g.median.to_bits(), "median differs at {}", j);
                }
            }
            for &j in &requested {
                prop_assert_eq!(
                    pruned.dim_score(j, &th).to_bits(),
                    naive.dim_score(j, &th).to_bits(),
                    "dim_score differs at requested {}", j
                );
            }
            let dims = naive.select_dims(&th);
            prop_assert_eq!(pruned.select_dims(&th), dims.clone());
            prop_assert_eq!(
                pruned.cluster_score(&dims, &th).to_bits(),
                naive.cluster_score(&dims, &th).to_bits()
            );
        }
    }
}

fn assert_results_identical(a: &SspcResult, b: &SspcResult, what: &str) {
    assert_eq!(a, b, "{what}: results differ");
    // `==` on f64 treats -0.0 == 0.0; pin the objective to the exact bits.
    assert_eq!(
        a.objective().to_bits(),
        b.objective().to_bits(),
        "{what}: objective bits differ"
    );
}

/// `Sspc::run` output is identical across thread counts, with and without
/// supervision, for both threshold schemes.
#[test]
fn run_is_reproducible_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ds = planted(120, 16, 3, 2, 42);
    let sup_none = Supervision::none();
    let sup_labeled = Supervision::none()
        .label_object(ObjectId(0), ClusterId(0))
        .label_object(ObjectId(1), ClusterId(0))
        .label_object(ObjectId(40), ClusterId(1))
        .label_object(ObjectId(41), ClusterId(1));
    for scheme in [
        ThresholdScheme::MFraction(0.5),
        ThresholdScheme::PValue(0.05),
    ] {
        for sup in [&sup_none, &sup_labeled] {
            let sspc = Sspc::new(SspcParams::new(3).with_threshold(scheme)).unwrap();
            let reference = with_thread_count(1, || sspc.run(&ds, sup, 7).unwrap());
            for threads in [2, 3, 8] {
                let result = with_thread_count(threads, || sspc.run(&ds, sup, 7).unwrap());
                assert_results_identical(
                    &reference,
                    &result,
                    &format!("{scheme:?} at {threads} threads"),
                );
            }
        }
    }
}

/// The full fast path (columnar + parallel + scratch reuse) reproduces the
/// reference scalar path bit-for-bit.
///
/// The second shape plants classes compact on one dimension each and asks
/// for one cluster more than there are classes, so some cluster ends up
/// selecting zero or one dimension: the narrow shape where each
/// transposed-kernel gain is an empty or one-term sum.
#[test]
fn run_equals_run_naive_bitwise() {
    let _guard = ENV_LOCK.lock().unwrap();
    let sup = Supervision::none()
        .label_object(ObjectId(2), ClusterId(0))
        .label_object(ObjectId(3), ClusterId(0));
    let mut narrow_clusters = 0usize;
    for (width, k) in [(2, 3), (1, 4)] {
        let ds = planted(150, 24, 3, width, 99);
        for scheme in [
            ThresholdScheme::MFraction(0.5),
            ThresholdScheme::PValue(0.05),
        ] {
            let sspc = Sspc::new(SspcParams::new(k).with_threshold(scheme)).unwrap();
            for seed in 0..3u64 {
                let naive = sspc.run_naive(&ds, &sup, seed).unwrap();
                if width == 1 {
                    narrow_clusters += naive
                        .all_selected_dims()
                        .iter()
                        .filter(|dims| dims.len() <= 1)
                        .count();
                }
                for threads in [1, 2, 4, 8] {
                    let fast = with_thread_count(threads, || sspc.run(&ds, &sup, seed).unwrap());
                    assert_results_identical(
                        &naive,
                        &fast,
                        &format!("width {width} k {k} {scheme:?} seed {seed} threads {threads}"),
                    );
                }
            }
        }
    }
    assert!(
        narrow_clusters > 0,
        "no cluster selected fewer than two dimensions on the one-dimension classes"
    );
}

/// The rayon-convention env var is honored too: `RAYON_NUM_THREADS=1,2,8`
/// all produce the same output.
#[test]
fn run_is_reproducible_across_rayon_num_threads() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ds = planted(200, 20, 2, 2, 5);
    let sspc =
        Sspc::new(SspcParams::new(2).with_threshold(ThresholdScheme::MFraction(0.5))).unwrap();
    let mut results = Vec::new();
    for threads in [1, 2, 8] {
        std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
        results.push(sspc.run(&ds, &Supervision::none(), 3).unwrap());
        std::env::remove_var("RAYON_NUM_THREADS");
    }
    assert_results_identical(&results[0], &results[1], "RAYON_NUM_THREADS 1 vs 2");
    assert_results_identical(&results[0], &results[2], "RAYON_NUM_THREADS 1 vs 8");
}

/// Long runs (library-default termination) follow a trajectory with a
/// stabilized phase, where most memberships repeat and the refit memo
/// skips most clusters; record/restore must still land on the reference
/// bits. Checked at 1, 2, and 8 threads for both threshold schemes.
#[test]
fn long_run_equals_naive_bitwise() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ds = planted(600, 24, 3, 2, 4242);
    let sup = Supervision::none()
        .label_object(ObjectId(0), ClusterId(0))
        .label_object(ObjectId(1), ClusterId(0))
        .label_object(ObjectId(200), ClusterId(1))
        .label_object(ObjectId(201), ClusterId(1));
    for scheme in [
        ThresholdScheme::MFraction(0.5),
        ThresholdScheme::PValue(0.05),
    ] {
        let sspc = Sspc::new(SspcParams::new(3).with_threshold(scheme)).unwrap();
        for seed in [7u64, 19] {
            let naive = sspc.run_naive(&ds, &sup, seed).unwrap();
            for threads in [1usize, 2, 8] {
                let fast = with_thread_count(threads, || sspc.run(&ds, &sup, seed).unwrap());
                assert_results_identical(
                    &naive,
                    &fast,
                    &format!("{scheme:?} seed {seed} at {threads} threads"),
                );
            }
        }
    }
}

/// The unified `ProjectedClusterer` API is a bit-transparent wrapper: the
/// fast path through `cluster()` equals the naive path through
/// `cluster_naive()` at 1, 2, and 8 threads — same guarantee as
/// `run`/`run_naive`, asserted on the canonical `Clustering` (timing
/// excluded: it is the one legitimately run-dependent field) — and equals
/// `Sspc::run` on every field the conversion carries.
#[test]
fn trait_cluster_equals_cluster_naive_bitwise() {
    use sspc::ProjectedClusterer;
    let _guard = ENV_LOCK.lock().unwrap();
    let ds = planted(150, 24, 3, 2, 99);
    let sup = Supervision::none()
        .label_object(ObjectId(2), ClusterId(0))
        .label_object(ObjectId(3), ClusterId(0));
    let sspc =
        Sspc::new(SspcParams::new(3).with_threshold(ThresholdScheme::MFraction(0.5))).unwrap();
    for seed in 0..2u64 {
        let naive = sspc.cluster_naive(&ds, &sup, seed).unwrap();
        let direct = sspc.run(&ds, &sup, seed).unwrap();
        for threads in [1usize, 2, 8] {
            let fast = with_thread_count(threads, || sspc.cluster(&ds, &sup, seed).unwrap());
            let what = format!("trait path, seed {seed}, {threads} threads");
            assert_eq!(fast.assignment(), naive.assignment(), "{what}: assignment");
            assert_eq!(
                fast.all_selected_dims(),
                naive.all_selected_dims(),
                "{what}: dims"
            );
            assert_eq!(
                fast.objective().to_bits(),
                naive.objective().to_bits(),
                "{what}: objective bits"
            );
            assert_eq!(fast.iterations(), naive.iterations(), "{what}: iterations");
            // And the trait path reports exactly what `Sspc::run` reports:
            // it is `run` plus a conversion.
            assert_eq!(fast.assignment(), direct.assignment(), "{what}: vs run()");
            assert_eq!(
                fast.all_selected_dims(),
                direct.all_selected_dims(),
                "{what}: dims vs run()"
            );
            assert_eq!(
                fast.objective().to_bits(),
                direct.objective().to_bits(),
                "{what}: objective vs run()"
            );
            assert_eq!(
                fast.iterations(),
                Some(direct.iterations()),
                "{what}: iterations vs run()"
            );
            let fast_scores: Vec<u64> = fast
                .cluster_scores()
                .expect("sspc reports cluster scores")
                .iter()
                .map(|s| s.to_bits())
                .collect();
            let direct_scores: Vec<u64> = (0..direct.n_clusters())
                .map(|c| direct.cluster_score(ClusterId(c)).to_bits())
                .collect();
            assert_eq!(
                fast_scores, direct_scores,
                "{what}: cluster-score bits vs run()"
            );
        }
    }
}

/// Best-of-N restarts fan out over threads and reduce in restart order,
/// so the winner keeps its bits at 1, 2, 4 and 8 threads — for SSPC and
/// for a randomized baseline (PROCLUS).
#[test]
fn best_of_winners_are_identical_across_thread_counts() {
    use sspc_api::registry::{AnyClusterer, ParamMap};
    use sspc_common::Clustering;
    let _guard = ENV_LOCK.lock().unwrap();
    let ds = planted(120, 16, 3, 2, 42);
    let sup = Supervision::none()
        .label_object(ObjectId(2), ClusterId(0))
        .label_object(ObjectId(3), ClusterId(0));
    let score_bits = |c: &Clustering| {
        c.cluster_scores()
            .map(|s| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
    };
    for name in ["sspc", "proclus"] {
        let clusterer = AnyClusterer::from_spec(name, 3, &ParamMap::default()).unwrap();
        let run = || sspc_api::best_of(&clusterer, &ds, &sup, 10, 11).unwrap();
        let reference = with_thread_count(1, run);
        assert_eq!(reference.runs_executed, 10, "{name} is randomized");
        for threads in [2, 4, 8] {
            let outcome = with_thread_count(threads, run);
            let (a, b) = (&reference.best, &outcome.best);
            let what = format!("{name} at {threads} threads");
            assert_eq!(
                outcome.runs_executed, reference.runs_executed,
                "{what}: runs"
            );
            assert_eq!(
                b.objective().to_bits(),
                a.objective().to_bits(),
                "{what}: objective bits"
            );
            assert_eq!(b.assignment(), a.assignment(), "{what}: assignment");
            assert_eq!(b.all_selected_dims(), a.all_selected_dims(), "{what}: dims");
            assert_eq!(b.iterations(), a.iterations(), "{what}: iterations");
            assert_eq!(score_bits(b), score_bits(a), "{what}: cluster scores");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// The transposed assignment kernel produces bit-identical gains and
    /// identical argmax decisions to the row-wise kernel on random
    /// datasets, candidate shapes (including empty dimension sets), and
    /// block partitions — with threshold rows mixing positive, zero, and
    /// negative entries so the degenerate-dimension branch (whose explicit
    /// `+ 0.0` turns a `-0.0` accumulator positive) is exercised.
    #[test]
    fn prop_transposed_assignment_equals_row_bitwise(
        n in 1usize..260,
        d in 1usize..14,
        k in 1usize..5,
        seed in 0u64..10_000,
    ) {
        let mut rng = seeded_rng(seed);
        let values: Vec<f64> = (0..n * d).map(|_| rng.gen_range(-100.0..100.0)).collect();
        let ds = Dataset::from_rows(n, d, values).unwrap();
        let mut reps: Vec<Vec<f64>> = Vec::new();
        let mut dims_list: Vec<Vec<DimId>> = Vec::new();
        let mut t_rows: Vec<Vec<f64>> = Vec::new();
        for _ in 0..k {
            reps.push((0..d).map(|_| rng.gen_range(-100.0..100.0)).collect());
            dims_list.push(
                (0..d)
                    .filter(|_| rng.gen_range(0.0..1.0) < 0.6)
                    .map(DimId)
                    .collect(),
            );
            t_rows.push(
                (0..d)
                    .map(|_| match rng.gen_range(0u32..4) {
                        0 => 0.0,
                        1 => -1.0,
                        _ => rng.gen_range(0.1..50.0),
                    })
                    .collect(),
            );
        }
        let candidates: Vec<AssignCandidate<'_>> = (0..k)
            .map(|c| AssignCandidate {
                rep: &reps[c],
                dims: &dims_list[c],
                threshold_row: &t_rows[c],
            })
            .collect();
        // A random partition of [0, n) into blocks, like the blocked
        // transposed pass but with arbitrary (not just ASSIGN_BLOCK-sized)
        // block lengths.
        let mut gains = Vec::new();
        let mut start = 0usize;
        while start < n {
            let block_len = rng.gen_range(1..=(n - start));
            assignment_gains_transposed(&ds, start, block_len, &candidates, &mut gains);
            for i in 0..block_len {
                let row = ds.row(ObjectId(start + i));
                let mut best_gain = 0.0f64;
                let mut best = None;
                for (c, cand) in candidates.iter().enumerate() {
                    let g_row =
                        assignment_gain_row(row, cand.rep, cand.dims, cand.threshold_row);
                    prop_assert_eq!(
                        g_row.to_bits(),
                        gains[c * block_len + i].to_bits(),
                        "gain bits diverged: object {}, candidate {}", start + i, c
                    );
                    if g_row > best_gain {
                        best_gain = g_row;
                        best = Some(c);
                    }
                }
                prop_assert_eq!(
                    assignment_argmax(&gains, block_len, i),
                    best,
                    "argmax diverged at object {}", start + i
                );
            }
            start += block_len;
        }
    }
}

/// An input larger than one `ASSIGN_BLOCK` (1024 objects): each worker's
/// chunk spans full and short transposed-kernel blocks, and the run still
/// equals `run_naive` bit for bit at 1, 2, and 8 threads.
#[test]
fn multi_block_assignment_equals_naive_bitwise() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ds = planted(1500, 24, 3, 2, 2026);
    let sup = Supervision::none()
        .label_object(ObjectId(0), ClusterId(0))
        .label_object(ObjectId(500), ClusterId(1));
    for scheme in [
        ThresholdScheme::MFraction(0.5),
        ThresholdScheme::PValue(0.05),
    ] {
        let sspc = Sspc::new(SspcParams::new(3).with_threshold(scheme)).unwrap();
        let naive = sspc.run_naive(&ds, &sup, 11).unwrap();
        for threads in [1usize, 2, 8] {
            let fast = with_thread_count(threads, || sspc.run(&ds, &sup, 11).unwrap());
            assert_results_identical(&naive, &fast, &format!("{scheme:?} at {threads} threads"));
        }
    }
}

/// Thread-count independence also holds for larger-than-toy inputs where
/// the parallel chunking actually splits the data.
#[test]
fn chunked_assignment_matches_serial_on_larger_input() {
    let _guard = ENV_LOCK.lock().unwrap();
    let ds = planted(900, 12, 4, 2, 7);
    let sspc = Sspc::new(
        SspcParams::new(4)
            .with_threshold(ThresholdScheme::MFraction(0.5))
            .with_termination(3, 12),
    )
    .unwrap();
    let serial = with_thread_count(1, || sspc.run(&ds, &Supervision::none(), 11).unwrap());
    let parallel = with_thread_count(6, || sspc.run(&ds, &Supervision::none(), 11).unwrap());
    assert_results_identical(&serial, &parallel, "900-object run");
}
