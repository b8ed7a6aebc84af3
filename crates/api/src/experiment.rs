//! The paper's Sec. 5 experiment protocol over the unified contract.
//!
//! "We repeated each experiment 10 times, and report only the result that
//! gives the best algorithm-specific objective score" — i.e. restarts are
//! selected by each algorithm's **own** internal score under its own
//! [`ObjectiveSense`](sspc_common::ObjectiveSense), *not* by ARI (which
//! would leak the ground truth). [`best_of`] implements that for any
//! [`ProjectedClusterer`]; [`compare_algorithms`] runs it for a whole
//! roster and scores each winner against optional ground truth with the
//! outlier-aware metric bundle from `sspc-metrics`.

use sspc_common::parallel;
use sspc_common::rng::derive_seed;
use sspc_common::{ClusterId, Clustering, Dataset, ProjectedClusterer, Result, Supervision};
use sspc_metrics::{evaluate_partition, OutlierPolicy, PartitionEvaluation};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The winner of a best-of-N restart loop, with the cost of finding it.
#[derive(Debug, Clone)]
pub struct BestOf {
    /// The restart with the best internal objective (per the algorithm's
    /// sense); its `seconds()` is that single run's time.
    pub best: Clustering,
    /// Restarts actually executed — 1 for deterministic algorithms
    /// regardless of the requested count.
    pub runs_executed: usize,
    /// Wall-clock seconds summed over every executed restart (what the
    /// paper's timing figures report).
    pub total_seconds: f64,
}

/// Runs `clusterer` up to `runs` times with seeds derived from `base_seed`
/// and keeps the restart with the best internal objective.
///
/// Deterministic algorithms ([`ProjectedClusterer::is_deterministic`]) run
/// exactly once — the paper's best-of-10 selects identical results for
/// HARP, so the repeats would be pure waste.
///
/// Restart `r` depends only on `derive_seed(base_seed, r)`, so the
/// restarts fan out over [`parallel::for_each_mut_with`] (each restart's
/// own phases then run on one thread) and are reduced in restart order:
/// the winner, `total_seconds` and the error returned are those of the
/// serial loop at any thread count.
///
/// # Errors
///
/// The failure of the lowest-index failing restart, including
/// [`sspc_common::Error::DeadlineExceeded`] when the caller installed a
/// cooperative deadline (checked once per restart here, and once per
/// iteration inside the core loop, on every thread). No restart starts
/// once a lower one is known to have failed.
pub fn best_of<C: ProjectedClusterer + Sync + ?Sized>(
    clusterer: &C,
    dataset: &Dataset,
    supervision: &Supervision,
    runs: usize,
    base_seed: u64,
) -> Result<BestOf> {
    let runs = if clusterer.is_deterministic() {
        1
    } else {
        runs.max(1)
    };
    let first_failure = AtomicUsize::new(usize::MAX);
    let mut restarts: Vec<Option<Result<Clustering>>> = (0..runs).map(|_| None).collect();
    parallel::for_each_mut_with(
        &mut restarts,
        || (),
        |r, slot, ()| {
            if r > first_failure.load(Ordering::Relaxed) {
                return;
            }
            // Cancellation point between restarts: algorithms without an
            // internal check (the baselines) still stop at restart
            // granularity.
            let result = sspc_common::cancel::check().and_then(|()| {
                clusterer.cluster(dataset, supervision, derive_seed(base_seed, r as u64))
            });
            if result.is_err() {
                first_failure.fetch_min(r, Ordering::Relaxed);
            }
            *slot = Some(result);
        },
    );
    let mut best: Option<Clustering> = None;
    let mut total_seconds = 0.0;
    for slot in restarts {
        // Only restarts above a failure are skipped, and the failure
        // returns first.
        let result = slot.expect("restarts below the first failure all ran")?;
        total_seconds += result.seconds();
        if best.as_ref().is_none_or(|b| result.is_better_than(b)) {
            best = Some(result);
        }
    }
    Ok(BestOf {
        best: best.expect("runs >= 1"),
        runs_executed: runs,
        total_seconds,
    })
}

/// One algorithm's row in a comparison: its best-of-N solution plus the
/// external metrics when ground truth was supplied.
#[derive(Debug, Clone)]
pub struct AlgorithmReport {
    /// Registry name of the algorithm.
    pub algorithm: String,
    /// The best restart (see [`BestOf::best`]).
    pub best: Clustering,
    /// Restarts executed (see [`BestOf::runs_executed`]).
    pub runs_executed: usize,
    /// Total seconds across restarts (see [`BestOf::total_seconds`]).
    pub total_seconds: f64,
    /// ARI/NMI/purity against the ground truth, when one was given.
    pub evaluation: Option<PartitionEvaluation>,
}

/// Runs the full comparison protocol: for each clusterer, best-of-`runs`
/// restarts (seeds decorrelated per algorithm from `base_seed`), then —
/// when `truth` is present — outlier-aware ARI/NMI/purity of the winner
/// under [`OutlierPolicy::AsCluster`], the consistent treatment across
/// algorithms with and without outlier lists (discarding real members
/// costs accuracy).
///
/// The same `supervision` is handed to every algorithm, mirroring the
/// paper's setup: all competitors receive the labeled inputs, and only
/// SSPC can exploit them.
///
/// # Errors
///
/// Propagates the first run or evaluation failure.
pub fn compare_algorithms<C: ProjectedClusterer + Sync>(
    clusterers: &[C],
    dataset: &Dataset,
    supervision: &Supervision,
    truth: Option<&[Option<ClusterId>]>,
    runs: usize,
    base_seed: u64,
) -> Result<Vec<AlgorithmReport>> {
    let mut reports = Vec::with_capacity(clusterers.len());
    for (i, clusterer) in clusterers.iter().enumerate() {
        let outcome = best_of(
            clusterer,
            dataset,
            supervision,
            runs,
            derive_seed(base_seed, i as u64),
        )?;
        let evaluation = match truth {
            Some(t) => Some(evaluate_partition(
                t,
                outcome.best.assignment(),
                OutlierPolicy::AsCluster,
            )?),
            None => None,
        };
        reports.push(AlgorithmReport {
            algorithm: clusterer.name().to_string(),
            best: outcome.best,
            runs_executed: outcome.runs_executed,
            total_seconds: outcome.total_seconds,
            evaluation,
        });
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{AnyClusterer, ParamMap};
    use sspc_common::{cancel, DimId, Error, ObjectiveSense};
    use std::collections::BTreeSet;
    use std::sync::{Barrier, Mutex};
    use std::time::{Duration, Instant};

    /// Serializes `SSPC_NUM_THREADS` mutation across the tests that pin
    /// the restart fan-out's width.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    fn with_threads<R>(n: usize, body: impl FnOnce() -> R) -> R {
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("SSPC_NUM_THREADS", n.to_string());
        let r = body();
        std::env::remove_var("SSPC_NUM_THREADS");
        r
    }

    /// A clusterer whose objective is a deterministic function of the seed,
    /// so best-of-N selection is fully predictable.
    struct SeedScored {
        sense: ObjectiveSense,
        deterministic: bool,
        calls: AtomicUsize,
    }

    impl ProjectedClusterer for SeedScored {
        fn name(&self) -> &str {
            "seed-scored"
        }
        fn cluster(
            &self,
            dataset: &Dataset,
            _supervision: &Supervision,
            seed: u64,
        ) -> Result<Clustering> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            Ok(Clustering::new(
                self.name(),
                vec![Some(ClusterId(0)); dataset.n_objects()],
                vec![vec![DimId(0)]],
                (seed % 97) as f64,
                self.sense,
            )
            .with_seconds(0.25))
        }
        fn is_deterministic(&self) -> bool {
            self.deterministic
        }
    }

    fn tiny_dataset() -> Dataset {
        Dataset::from_rows(4, 2, vec![1.0, 2.0, 1.1, 2.1, 9.0, 8.0, 9.1, 8.1]).unwrap()
    }

    #[test]
    fn best_of_selects_by_sense_and_sums_seconds() {
        let dataset = tiny_dataset();
        let scored = SeedScored {
            sense: ObjectiveSense::HigherIsBetter,
            deterministic: false,
            calls: AtomicUsize::new(0),
        };
        let hi = best_of(&scored, &dataset, &Supervision::none(), 8, 3).unwrap();
        assert_eq!(hi.runs_executed, 8);
        assert_eq!(scored.calls.load(Ordering::Relaxed), 8);
        assert!((hi.total_seconds - 8.0 * 0.25).abs() < 1e-12);
        // The winner carries the maximum objective among the 8 derived
        // seeds; re-running any restart can't beat it.
        for r in 0..8 {
            let c = scored
                .cluster(&dataset, &Supervision::none(), derive_seed(3, r))
                .unwrap();
            assert!(!c.is_better_than(&hi.best));
        }

        let scored = SeedScored {
            sense: ObjectiveSense::LowerIsBetter,
            deterministic: false,
            calls: AtomicUsize::new(0),
        };
        let lo = best_of(&scored, &dataset, &Supervision::none(), 8, 3).unwrap();
        for r in 0..8 {
            let c = scored
                .cluster(&dataset, &Supervision::none(), derive_seed(3, r))
                .unwrap();
            assert!(!c.is_better_than(&lo.best));
        }
    }

    #[test]
    fn deterministic_algorithms_run_once() {
        let dataset = tiny_dataset();
        let scored = SeedScored {
            sense: ObjectiveSense::HigherIsBetter,
            deterministic: true,
            calls: AtomicUsize::new(0),
        };
        let outcome = best_of(&scored, &dataset, &Supervision::none(), 10, 3).unwrap();
        assert_eq!(outcome.runs_executed, 1);
        assert_eq!(scored.calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn compare_reports_cover_roster_and_truth() {
        let dataset = tiny_dataset();
        let truth: Vec<Option<ClusterId>> = vec![
            Some(ClusterId(0)),
            Some(ClusterId(0)),
            Some(ClusterId(1)),
            Some(ClusterId(1)),
        ];
        let roster = vec![
            AnyClusterer::from_spec("clarans", 2, &ParamMap::default()).unwrap(),
            AnyClusterer::from_spec("harp", 2, &ParamMap::default()).unwrap(),
        ];
        let reports =
            compare_algorithms(&roster, &dataset, &Supervision::none(), Some(&truth), 3, 11)
                .unwrap();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].algorithm, "clarans");
        assert_eq!(reports[1].algorithm, "harp");
        assert_eq!(reports[1].runs_executed, 1, "harp is deterministic");
        for r in &reports {
            let e = r.evaluation.expect("truth given");
            assert!(e.ari.is_finite() && e.nmi.is_finite() && e.purity.is_finite());
            assert_eq!(r.best.assignment().len(), 4);
        }
        // Two perfectly separated pairs: k-medoid CLARANS must nail them.
        assert_eq!(reports[0].evaluation.unwrap().ari, 1.0);

        let no_truth =
            compare_algorithms(&roster, &dataset, &Supervision::none(), None, 2, 11).unwrap();
        assert!(no_truth.iter().all(|r| r.evaluation.is_none()));
    }

    /// One cluster holding every object, scored `objective`.
    fn one_cluster(name: &str, dataset: &Dataset, objective: f64) -> Clustering {
        Clustering::new(
            name,
            vec![Some(ClusterId(0)); dataset.n_objects()],
            vec![vec![DimId(0)]],
            objective,
            ObjectiveSense::HigherIsBetter,
        )
    }

    const RUNS: usize = 10;
    const BASE: u64 = 3;

    /// Fails at restarts 2 and 5. Every other restart sleeps longer the
    /// later it comes, 50 ms apart, so a thread that ends a restart takes
    /// the next one well before another thread frees up.
    struct FailsAtTwoAndFive {
        started: Mutex<BTreeSet<usize>>,
    }

    impl ProjectedClusterer for FailsAtTwoAndFive {
        fn name(&self) -> &str {
            "fails-at-two-and-five"
        }
        fn cluster(
            &self,
            dataset: &Dataset,
            _supervision: &Supervision,
            seed: u64,
        ) -> Result<Clustering> {
            let r = (0..RUNS)
                .find(|&r| derive_seed(BASE, r as u64) == seed)
                .expect("a restart seed");
            self.started.lock().unwrap().insert(r);
            if r == 2 || r == 5 {
                return Err(Error::InvalidParameter(format!("restart {r} failed")));
            }
            std::thread::sleep(Duration::from_millis(50 * (r as u64 + 1)));
            Ok(one_cluster(self.name(), dataset, r as f64))
        }
    }

    #[test]
    fn the_lowest_failing_restart_is_returned_and_none_starts_past_it() {
        let dataset = tiny_dataset();
        for threads in [1, 2, 4, 8] {
            let failing = FailsAtTwoAndFive {
                started: Mutex::new(BTreeSet::new()),
            };
            let err = with_threads(threads, || {
                best_of(&failing, &dataset, &Supervision::none(), RUNS, BASE)
            })
            .unwrap_err();
            assert!(
                matches!(&err, Error::InvalidParameter(m) if m == "restart 2 failed"),
                "{threads} threads: {err}"
            );
            // Restarts go out in index order, one per free thread: the
            // first `threads` at once, every later one only after a
            // restart ended — and by then restart 2 has failed.
            let started = failing.started.into_inner().unwrap();
            assert!(
                (0..=2).all(|r| started.contains(&r)),
                "{threads} threads: {started:?}"
            );
            assert!(
                started.iter().all(|&r| r < threads.max(3)),
                "{threads} threads started a restart past a known failure: {started:?}"
            );
        }
    }

    /// Spins until the installed deadline fires, up to a hard cap of about
    /// two seconds; counts the restarts that started and those that saw
    /// the deadline. Two restarts start together at the barrier.
    struct SpinsToDeadline {
        together: Barrier,
        started: AtomicUsize,
        observed: AtomicUsize,
    }

    impl ProjectedClusterer for SpinsToDeadline {
        fn name(&self) -> &str {
            "spins-to-deadline"
        }
        fn cluster(
            &self,
            dataset: &Dataset,
            _supervision: &Supervision,
            _seed: u64,
        ) -> Result<Clustering> {
            self.started.fetch_add(1, Ordering::Relaxed);
            self.together.wait();
            for _ in 0..2_000 {
                if let Err(e) = cancel::check() {
                    self.observed.fetch_add(1, Ordering::Relaxed);
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Ok(one_cluster(self.name(), dataset, 0.0))
        }
    }

    #[test]
    fn the_deadline_stops_restarts_on_every_thread() {
        let dataset = tiny_dataset();
        let spinner = SpinsToDeadline {
            together: Barrier::new(2),
            started: AtomicUsize::new(0),
            observed: AtomicUsize::new(0),
        };
        let begun = Instant::now();
        let outcome = with_threads(2, || {
            let _deadline = cancel::deadline_guard(Instant::now() + Duration::from_millis(50));
            best_of(&spinner, &dataset, &Supervision::none(), 4, 1)
        });
        let elapsed = begun.elapsed();
        assert!(
            matches!(outcome, Err(Error::DeadlineExceeded(_))),
            "{outcome:?}"
        );
        assert!(elapsed < Duration::from_secs(1), "took {elapsed:?}");
        // Each thread ends its restart, and none starts after a failure.
        assert_eq!(spinner.started.load(Ordering::Relaxed), 2);
        assert_eq!(
            spinner.observed.load(Ordering::Relaxed),
            2,
            "a started restart ran past the deadline"
        );
    }

    /// Panics whenever it runs off the thread that called `best_of`. Two
    /// restarts meet at the barrier, so one of them runs on a helper.
    struct PanicsOffThread {
        caller: std::thread::ThreadId,
        together: Barrier,
    }

    impl ProjectedClusterer for PanicsOffThread {
        fn name(&self) -> &str {
            "panics-off-thread"
        }
        fn cluster(
            &self,
            dataset: &Dataset,
            _supervision: &Supervision,
            _seed: u64,
        ) -> Result<Clustering> {
            self.together.wait();
            if std::thread::current().id() != self.caller {
                panic!("restart panicked on a helper thread");
            }
            Ok(one_cluster(self.name(), dataset, 0.0))
        }
    }

    #[test]
    fn a_helper_thread_panic_keeps_its_payload() {
        let dataset = tiny_dataset();
        let panicky = PanicsOffThread {
            caller: std::thread::current().id(),
            together: Barrier::new(2),
        };
        let caught = with_threads(2, || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                best_of(&panicky, &dataset, &Supervision::none(), 2, 1)
            }))
        });
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"restart panicked on a helper thread")
        );
    }
}
