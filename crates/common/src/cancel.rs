//! Cooperative cancellation: a per-thread deadline that long-running
//! loops poll between iterations.
//!
//! The batch server's job deadlines need a way to stop a clusterer that
//! is already deep inside its iteration loop, without threads being
//! killable and without threading a token through every signature. The
//! mechanism here is a **thread-local deadline**: the worker that owns a
//! job installs one with [`deadline_guard`] for the duration of the job
//! body, and the hot loops call [`check`] once per outer iteration.
//!
//! `check` is one thread-local `Cell` read when no deadline is installed
//! — measured at ~0 against the hot loop (see PERFORMANCE.md), so the
//! hook can stay unconditional in the algorithm. The deadline is
//! per-thread, so work that leaves the owning thread must carry it:
//! `parallel::for_each_mut_with` reads it with [`deadline`] and installs
//! it on each helper thread, so restarts fanned out by `best_of` stop at
//! it on every thread. The chunked assignment helper's threads run one
//! kernel call each and never check; the outer loop on the owning thread
//! is their cancellation point.

use crate::{Error, Result};
use std::cell::Cell;
use std::time::Instant;

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Uninstalls (or restores the previously installed) deadline when
/// dropped — hold it for exactly the scope that should be cancellable.
#[must_use = "dropping the guard immediately uninstalls the deadline"]
#[derive(Debug)]
pub struct DeadlineGuard {
    previous: Option<Instant>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        DEADLINE.with(|d| d.set(self.previous));
    }
}

/// Installs `deadline` for the current thread until the returned guard
/// drops. Guards nest: an inner guard shadows the outer deadline and
/// restores it on drop (the worker pool never nests, but a test
/// harness may).
pub fn deadline_guard(deadline: Instant) -> DeadlineGuard {
    DeadlineGuard {
        previous: DEADLINE.with(|d| d.replace(Some(deadline))),
    }
}

/// The deadline installed on the current thread, if any — what a
/// fan-out hands to its helper threads.
pub fn deadline() -> Option<Instant> {
    DEADLINE.with(Cell::get)
}

/// The cancellation point: fails once the current thread's installed
/// deadline has passed; free (`Ok`, one `Cell` read) when none is
/// installed.
///
/// # Errors
///
/// [`Error::DeadlineExceeded`] when a deadline is installed and
/// `Instant::now()` is at or past it.
#[inline]
pub fn check() -> Result<()> {
    DEADLINE.with(|d| match d.get() {
        None => Ok(()),
        Some(deadline) if Instant::now() < deadline => Ok(()),
        Some(_) => Err(Error::DeadlineExceeded(
            "job cancelled at its deadline".into(),
        )),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn check_is_free_without_a_deadline() {
        assert!(check().is_ok());
    }

    #[test]
    fn deadlines_install_fire_and_uninstall() {
        {
            let _guard = deadline_guard(Instant::now() + Duration::from_secs(3600));
            assert!(check().is_ok(), "far-future deadline passes");
        }
        {
            let _guard = deadline_guard(Instant::now() - Duration::from_millis(1));
            let err = check().unwrap_err();
            assert!(matches!(err, Error::DeadlineExceeded(_)));
            assert!(err.to_string().contains("deadline exceeded"), "{err}");
        }
        assert!(check().is_ok(), "guard drop uninstalls the deadline");
    }

    #[test]
    fn guards_nest_and_restore() {
        let _outer = deadline_guard(Instant::now() - Duration::from_millis(1));
        assert!(check().is_err());
        {
            let _inner = deadline_guard(Instant::now() + Duration::from_secs(3600));
            assert!(check().is_ok(), "inner deadline shadows the outer");
        }
        assert!(check().is_err(), "outer deadline restored");
    }

    #[test]
    fn deadlines_are_per_thread() {
        let past = Instant::now() - Duration::from_millis(1);
        let _guard = deadline_guard(past);
        assert!(check().is_err());
        assert_eq!(deadline(), Some(past));
        std::thread::spawn(|| {
            assert!(check().is_ok());
            assert_eq!(deadline(), None);
        })
        .join()
        .unwrap();
    }
}
