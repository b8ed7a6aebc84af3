//! Capped exponential backoff with deterministic jitter — the retry
//! discipline shared by `client::Client` (queue-full resubmits, status
//! polling in `wait_for`).
//!
//! Jitter matters because the service is a shared resource: a herd of
//! clients that all saw the same 503 (or all poll the same interval)
//! would otherwise re-arrive in lockstep. Jitter is **deterministic** —
//! a [`splitmix64`] stream seeded by the caller (the job id, for polling) —
//! so different waiters decorrelate while any single test run replays
//! exactly.

use sspc_common::rng::splitmix64;
use std::time::Duration;

/// A capped exponential backoff schedule with deterministic jitter.
///
/// Each [`next_delay`](Backoff::next_delay) draws the current step
/// jittered into `[step/2, step)`, then doubles the step up to the cap.
#[derive(Debug)]
pub struct Backoff {
    step: Duration,
    cap: Duration,
    state: u64,
}

impl Backoff {
    /// A schedule starting at `base` and doubling up to `cap` (raised to
    /// `base` if smaller), with the jitter stream seeded by `seed`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Backoff {
        Backoff {
            step: base,
            cap: cap.max(base),
            state: seed,
        }
    }

    /// The next delay to sleep: the current step scaled by a
    /// deterministic factor in `[0.5, 1.0)`; the unjittered step then
    /// doubles, saturating at the cap.
    pub fn next_delay(&mut self) -> Duration {
        let step = self.step;
        self.step = step.saturating_mul(2).min(self.cap);
        // splitmix64: cheap, seedable, and good enough to decorrelate
        // sleepers — statistical quality beyond that is irrelevant here.
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        step.mul_f64(0.5 + 0.5 * unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64, n: usize) -> Vec<Duration> {
        let mut b = Backoff::new(Duration::from_millis(100), Duration::from_secs(2), seed);
        (0..n).map(|_| b.next_delay()).collect()
    }

    #[test]
    fn delays_are_deterministic_in_the_seed() {
        assert_eq!(schedule(7, 8), schedule(7, 8));
        assert_ne!(
            schedule(7, 8),
            schedule(8, 8),
            "different seeds decorrelate"
        );
    }

    #[test]
    fn delays_grow_exponentially_within_jitter_bands_up_to_the_cap() {
        let delays = schedule(42, 10);
        let mut step = Duration::from_millis(100);
        let cap = Duration::from_secs(2);
        for (i, d) in delays.iter().enumerate() {
            assert!(
                *d >= step / 2 && *d < step,
                "delay {i} = {d:?} outside [{:?}, {step:?})",
                step / 2
            );
            step = step.saturating_mul(2).min(cap);
        }
        // The tail is capped: every late delay sits in [cap/2, cap).
        assert!(delays[9] >= cap / 2 && delays[9] < cap);
    }

    #[test]
    fn base_larger_than_cap_is_tolerated() {
        let mut b = Backoff::new(Duration::from_secs(5), Duration::from_secs(1), 1);
        let d = b.next_delay();
        assert!(d >= Duration::from_millis(2500) && d < Duration::from_secs(5));
    }
}
