//! Statistics substrate: descriptive statistics used by the objective
//! function, and the special functions backing the chi-square based
//! selection-threshold scheme.
//!
//! The paper's per-cluster, per-dimension score needs three summaries of a
//! projection: the sample mean `µᵢⱼ`, the sample variance `s²ᵢⱼ`
//! (denominator `nᵢ − 1`), and the sample median `µ̃ᵢⱼ`. [`Summary`]
//! computes all three in one call; [`RunningStats`] supports the incremental
//! (Welford) case.

mod chi_square;
mod gamma;

pub use chi_square::ChiSquared;
pub use gamma::{ln_gamma, regularized_gamma_p, regularized_gamma_q};

use crate::{Error, Result};

/// Mean, variance and median of one projection, in one pass (plus an
/// O(n) selection for the median).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample mean `µ`.
    pub mean: f64,
    /// Sample variance `s²` with denominator `n − 1`; `0` when `n < 2`.
    pub variance: f64,
    /// Sample median `µ̃` (lower-middle convention for even `n`, see
    /// [`median_in_place`]).
    pub median: f64,
    /// Number of values summarized.
    pub count: usize,
}

impl Summary {
    /// Summarizes a set of values, consuming a scratch buffer for the median
    /// selection.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsufficientData`] for an empty input.
    pub fn from_values(values: &mut [f64]) -> Result<Self> {
        if values.is_empty() {
            return Err(Error::InsufficientData(
                "cannot summarize an empty projection".into(),
            ));
        }
        let mut running = RunningStats::new();
        for &v in values.iter() {
            running.push(v);
        }
        let median = median_in_place(values);
        Ok(Summary {
            mean: running.mean(),
            variance: running.sample_variance(),
            median,
            count: values.len(),
        })
    }

    /// The paper's dispersion term `s² + (µ − µ̃)²`: the mean squared
    /// deviation of the sample from its **median** (up to the `n/(n−1)`
    /// factor folded into Eq. 4). This is what the SelectDim criterion
    /// compares against the threshold `ŝ²ᵢⱼ`.
    #[inline]
    pub fn median_dispersion(&self) -> f64 {
        let shift = self.mean - self.median;
        self.variance + shift * shift
    }
}

/// Welford's online algorithm for mean and variance.
///
/// Numerically stable; used both for dataset-global statistics and for
/// the per-dimension cluster statistics of the columnar fit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: usize,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one value.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of values accumulated.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Current mean (0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample variance with denominator `n − 1`; `0` when `n < 2`.
    #[inline]
    pub fn sample_variance(&self) -> f64 {
        if self.count > 1 {
            self.m2 / (self.count - 1) as f64
        } else {
            0.0
        }
    }

    /// Population variance with denominator `n`; `0` when empty.
    #[inline]
    pub fn population_variance(&self) -> f64 {
        if self.count > 0 {
            self.m2 / self.count as f64
        } else {
            0.0
        }
    }

    /// Merges another accumulator into this one (parallel Welford /
    /// Chan et al. combination).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

/// Median by in-place selection, O(n) expected time.
///
/// For an even number of values this returns the **lower middle** element
/// rather than the midpoint average. The paper treats the median of a small
/// labeled-object set as an actual point in space to start hill-climbing
/// from, so returning a real sample value is the more faithful choice; for
/// the dispersion term the difference is second-order and covered by tests.
///
/// Selection uses [`f64::total_cmp`]: measurably faster than a
/// `partial_cmp` + unwrap comparator (no per-comparison branch), and it
/// makes the returned **bits** a deterministic function of the input
/// multiset — under a total order the element at a given sorted position
/// is unique, so any correct selection algorithm agrees, which is what the
/// fast/naive path equivalence guarantees rely on. (Behavioral refinement:
/// inputs mixing `-0.0` and `+0.0` now deterministically order
/// `-0.0 < +0.0` instead of tie-breaking arbitrarily; non-finite inputs
/// sort to the ends instead of panicking, but public dataset construction
/// already rejects them.)
///
/// # Panics
///
/// Panics on empty input (internal invariant; public APIs validate before
/// calling).
pub fn median_in_place(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of empty slice");
    let mid = (values.len() - 1) / 2;
    let (_, med, _) = values.select_nth_unstable_by(mid, f64::total_cmp);
    *med
}

/// Median of a copied iterator; convenience wrapper over
/// [`median_in_place`].
///
/// # Errors
///
/// Returns [`Error::InsufficientData`] for an empty iterator.
pub fn median_of(values: impl Iterator<Item = f64>) -> Result<f64> {
    let mut buf: Vec<f64> = values.collect();
    if buf.is_empty() {
        return Err(Error::InsufficientData("median of empty input".into()));
    }
    Ok(median_in_place(&mut buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn summary_matches_hand_computation() {
        let mut vals = vec![1.0, 2.0, 3.0, 4.0, 10.0];
        let s = Summary::from_values(&mut vals).unwrap();
        assert!((s.mean - 4.0).abs() < 1e-12);
        // var = ((9+4+1+0+36)*... ) mean=4: (9+4+1+0+36)/4 = 12.5
        assert!((s.variance - 12.5).abs() < 1e-12);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.count, 5);
    }

    #[test]
    fn summary_rejects_empty() {
        assert!(Summary::from_values(&mut []).is_err());
    }

    #[test]
    fn median_dispersion_is_variance_plus_shift() {
        let mut vals = vec![0.0, 0.0, 10.0];
        let s = Summary::from_values(&mut vals).unwrap();
        // mean=10/3, median=0, var=(100/3+100/9*2)/... compute directly:
        let mean: f64 = 10.0 / 3.0;
        let var = ((0.0 - mean).powi(2) * 2.0 + (10.0 - mean).powi(2)) / 2.0;
        assert!((s.median_dispersion() - (var + mean * mean)).abs() < 1e-9);
    }

    #[test]
    fn running_stats_merge_equals_sequential() {
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        let mut all = RunningStats::new();
        for v in [1.0, 2.0, 3.5] {
            a.push(v);
            all.push(v);
        }
        for v in [10.0, -4.0] {
            b.push(v);
            all.push(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(2.0);
        let snapshot = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, snapshot);
        let mut empty = RunningStats::new();
        empty.merge(&snapshot);
        assert_eq!(empty, snapshot);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median_in_place(&mut [3.0, 1.0, 2.0]), 2.0);
        // even: lower middle
        assert_eq!(median_in_place(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median_of([5.0].into_iter()).unwrap(), 5.0);
        assert!(median_of(std::iter::empty()).is_err());
    }

    proptest! {
        #[test]
        fn prop_welford_matches_two_pass(values in prop::collection::vec(-1e6f64..1e6, 2..200)) {
            let mut r = RunningStats::new();
            for &v in &values {
                r.push(v);
            }
            let n = values.len() as f64;
            let mean: f64 = values.iter().sum::<f64>() / n;
            let var: f64 = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
            prop_assert!((r.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            prop_assert!((r.sample_variance() - var).abs() < 1e-5 * (1.0 + var));
        }

        #[test]
        fn prop_median_is_order_statistic(values in prop::collection::vec(-1e9f64..1e9, 1..100)) {
            let mut buf = values.clone();
            let med = median_in_place(&mut buf);
            let below = values.iter().filter(|&&v| v < med).count();
            let above = values.iter().filter(|&&v| v > med).count();
            // At most half strictly below and at most half strictly above.
            prop_assert!(below <= values.len() / 2);
            prop_assert!(above <= values.len().div_ceil(2));
            prop_assert!(values.contains(&med));
        }

        #[test]
        fn prop_merge_is_associative_enough(
            a in prop::collection::vec(-1e3f64..1e3, 1..30),
            b in prop::collection::vec(-1e3f64..1e3, 1..30),
            c in prop::collection::vec(-1e3f64..1e3, 1..30),
        ) {
            let acc = |vals: &[f64]| {
                let mut r = RunningStats::new();
                for &v in vals {
                    r.push(v);
                }
                r
            };
            let mut left = acc(&a);
            left.merge(&acc(&b));
            left.merge(&acc(&c));
            let mut right = acc(&b);
            right.merge(&acc(&c));
            let mut outer = acc(&a);
            outer.merge(&right);
            prop_assert!((left.mean() - outer.mean()).abs() < 1e-8);
            prop_assert!((left.sample_variance() - outer.sample_variance()).abs() < 1e-6);
        }
    }
}
