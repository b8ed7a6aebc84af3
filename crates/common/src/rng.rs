//! Deterministic RNG construction and sampling helpers.
//!
//! Every algorithm and generator in the workspace takes a `u64` seed and
//! derives its randomness through [`seeded_rng`] / [`derive_seed`], so whole
//! experiments replay bit-for-bit from a single number. Repeated runs (the
//! paper reports best-of-10 / median-of-10) derive per-run seeds with
//! [`derive_seed`] rather than reusing one stream.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Builds the workspace-standard RNG from a seed.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// SplitMix64's output for state `x`: the SplitMix64 finalizer applied to
/// `x + 0x9E37_79B9_7F4A_7C15` (the golden-ratio increment). A stream
/// returns `splitmix64(state)` and then advances `state` by that
/// increment. Cheap, well mixed and the same in every process: the
/// workspace's one mixing step, behind seed derivation, ring placement,
/// retry jitter and load generation.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent child seed from a parent seed and a stream index.
///
/// Uses [`splitmix64`], whose avalanche properties make
/// `derive_seed(s, 0..n)` behave as `n` unrelated seeds even for adjacent
/// indices.
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    splitmix64(parent.wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9)))
}

/// Samples `count` distinct indices from `0..n` (order unspecified).
///
/// Uses a partial Fisher–Yates over an index vector — O(n) setup, fine for
/// the dataset sizes here. If `count >= n`, returns all of `0..n` shuffled.
pub fn sample_indices<R: Rng + ?Sized>(rng: &mut R, n: usize, count: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    if count >= n {
        idx.shuffle(rng);
        return idx;
    }
    for i in 0..count {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(count);
    idx
}

/// Samples one index from `0..weights.len()` with probability proportional
/// to `weights[i]`. Non-positive weights are treated as zero.
///
/// Returns `None` if all weights are zero (or the slice is empty); the
/// caller decides the fallback (SSPC falls back to uniform choice).
pub fn weighted_index<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> Option<usize> {
    let total: f64 = weights.iter().map(|&w| w.max(0.0)).sum();
    if !(total > 0.0) || !total.is_finite() {
        return None;
    }
    let mut target = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        let w = w.max(0.0);
        if target < w {
            return Some(i);
        }
        target -= w;
    }
    // Floating-point slack: return the last positively-weighted index.
    weights.iter().rposition(|&w| w > 0.0)
}

/// Samples `count` **distinct** indices without replacement with probability
/// proportional to the weights (successive weighted draws, removing each
/// winner). Returns fewer than `count` if fewer have positive weight.
pub fn weighted_sample_distinct<R: Rng + ?Sized>(
    rng: &mut R,
    weights: &[f64],
    count: usize,
) -> Vec<usize> {
    let mut remaining: Vec<f64> = weights.iter().map(|&w| w.max(0.0)).collect();
    let mut picked = Vec::with_capacity(count.min(weights.len()));
    for _ in 0..count {
        match weighted_index(rng, &remaining) {
            Some(i) => {
                picked.push(i);
                remaining[i] = 0.0;
            }
            None => break,
        }
    }
    picked
}

/// Standard-normal draw via Box–Muller (single value; the paired value is
/// discarded for simplicity — generation is not a hot path).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.gen::<f64>();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn seeded_rng_is_deterministic() {
        let a: Vec<u32> = (0..5).map(|_| seeded_rng(42).gen()).collect();
        let mut rng = seeded_rng(42);
        let first: u32 = rng.gen();
        assert!(a.iter().all(|&v| v == first));
    }

    /// `derive_seed` is pinned to known outputs: every restart seed, and
    /// so every result, depends on these bits.
    #[test]
    fn splitmix64_pins_derived_seeds() {
        // SplitMix64's first output for seed 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(derive_seed(0, 0), 16_294_208_416_658_607_535);
        assert_eq!(derive_seed(1, 3000), 14_396_175_725_023_529_032);
    }

    #[test]
    fn derive_seed_changes_with_stream() {
        let s = 123_456;
        let children: HashSet<u64> = (0..100).map(|i| derive_seed(s, i)).collect();
        assert_eq!(children.len(), 100, "child seeds must be distinct");
        assert_ne!(derive_seed(s, 0), derive_seed(s + 1, 0));
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = seeded_rng(7);
        let picked = sample_indices(&mut rng, 50, 10);
        assert_eq!(picked.len(), 10);
        let set: HashSet<usize> = picked.iter().copied().collect();
        assert_eq!(set.len(), 10);
        assert!(picked.iter().all(|&i| i < 50));
    }

    #[test]
    fn sample_indices_count_exceeding_n_returns_all() {
        let mut rng = seeded_rng(7);
        let picked = sample_indices(&mut rng, 5, 100);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn weighted_index_respects_zero_weights() {
        let mut rng = seeded_rng(3);
        let weights = [0.0, 0.0, 1.0, 0.0];
        for _ in 0..100 {
            assert_eq!(weighted_index(&mut rng, &weights), Some(2));
        }
        assert_eq!(weighted_index(&mut rng, &[0.0, 0.0]), None);
        assert_eq!(weighted_index(&mut rng, &[]), None);
        // Negative weights are treated as zero.
        assert_eq!(weighted_index(&mut rng, &[-1.0, 5.0]), Some(1));
    }

    #[test]
    fn weighted_index_is_roughly_proportional() {
        let mut rng = seeded_rng(11);
        let weights = [1.0, 3.0];
        let mut counts = [0usize; 2];
        let trials = 20_000;
        for _ in 0..trials {
            counts[weighted_index(&mut rng, &weights).unwrap()] += 1;
        }
        let frac = counts[1] as f64 / trials as f64;
        assert!((frac - 0.75).abs() < 0.02, "got {frac}");
    }

    #[test]
    fn weighted_sample_distinct_no_repeats() {
        let mut rng = seeded_rng(5);
        let weights = [1.0, 2.0, 3.0, 4.0, 5.0];
        let picked = weighted_sample_distinct(&mut rng, &weights, 4);
        assert_eq!(picked.len(), 4);
        let set: HashSet<usize> = picked.iter().copied().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn weighted_sample_distinct_stops_when_weights_exhausted() {
        let mut rng = seeded_rng(5);
        let weights = [0.0, 1.0, 0.0, 2.0];
        let picked = weighted_sample_distinct(&mut rng, &weights, 10);
        assert_eq!(picked.len(), 2);
        assert!(picked.contains(&1) && picked.contains(&3));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded_rng(99);
        let n = 50_000;
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = standard_normal(&mut rng);
            sum += x;
            sumsq += x * x;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }
}
