//! The SSPC hot-loop A/B benchmark: the fast path (`Sspc::run`: columnar
//! batch refits and the transposed assignment kernel) against the
//! pre-columnar serial reference (`Sspc::run_naive`), on a 5000 × 1000
//! synthetic gene-expression-shaped matrix at k = 10.
//!
//! Both paths produce **bit-identical** `SspcResult`s (asserted here on
//! every run); only memory layout, parallelism, and allocation differ. The
//! measured comparison is appended to `BENCH_hotloop.json` in the
//! workspace root so the perf trajectory is tracked across changes.
//!
//! Environment knobs:
//!
//! * `HOTLOOP_N` / `HOTLOOP_D` / `HOTLOOP_K` — workload shape (default
//!   5000 / 1000 / 10);
//! * `HOTLOOP_ROUNDS` — timed rounds per path (default 3; min of the
//!   rounds is reported);
//! * `HOTLOOP_SMOKE=1` — 600 × 120 at k = 4, two rounds (so each leg of
//!   the armed-deadline A/B runs first once), for CI smoke jobs;
//! * `BENCH_HOTLOOP_OUT` — output path for the JSON record. A record that
//!   cannot be appended fails the run (exit 1), so a CI gate reading it
//!   never checks a stale one.
//!
//! Each timed leg records its per-phase breakdown (`assign_secs` /
//! `refit_secs` / `other_secs`, `init_secs`, the initialization part of
//! `other_secs`, and `fill_secs`, the end-of-run representative fill, for
//! the fast leg; `naive_*` for the reference leg).

use sspc::{PhaseTimings, Sspc, SspcParams, SspcResult, Supervision, ThresholdScheme};
use std::io::Write;
use std::time::Instant;

use sspc_datagen::{generate, GeneratorConfig};

/// Termination: stop after this many iterations without improvement...
const MAX_STALL: usize = 3;
/// ...or after this many iterations in all.
const MAX_ITERATIONS: usize = 8;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One timed leg: its fastest round with that round's per-phase
/// breakdown, and the last round's result for the bit-identity check.
/// The breakdown makes phase wins attributable instead of inferred from
/// whole-run deltas; the timing collector costs two `Instant` reads per
/// outer iteration.
struct Leg {
    label: &'static str,
    best: f64,
    phases: PhaseTimings,
    result: Option<SspcResult>,
}

impl Leg {
    fn new(label: &'static str) -> Leg {
        Leg {
            label,
            best: f64::INFINITY,
            phases: PhaseTimings::default(),
            result: None,
        }
    }

    /// Times one round of `run`, keeping it when it is the fastest yet.
    fn round(&mut self, round: usize, run: &dyn Fn() -> (SspcResult, PhaseTimings)) {
        let start = Instant::now();
        let (result, phases) = run();
        let secs = start.elapsed().as_secs_f64();
        eprintln!(
            "hotloop: {} round {round}: {secs:.3} s ({} iterations; \
             assign {:.3} s, refit {:.3} s, other {:.3} s, of which init {:.3} s; \
             fill {:.3} s)",
            self.label,
            result.iterations(),
            phases.assign_secs,
            phases.refit_secs,
            phases.other_secs,
            phases.init_secs,
            phases.fill_secs,
        );
        if secs < self.best {
            self.best = secs;
            self.phases = phases;
        }
        self.result = Some(result);
    }

    fn result(&self) -> &SspcResult {
        self.result.as_ref().expect("at least one round")
    }
}

fn main() {
    let smoke = std::env::var("HOTLOOP_SMOKE").is_ok_and(|v| v == "1");
    let (n, d, k, rounds) = if smoke {
        (600, 120, 4, 2)
    } else {
        (
            env_usize("HOTLOOP_N", 5000),
            env_usize("HOTLOOP_D", 1000),
            env_usize("HOTLOOP_K", 10),
            env_usize("HOTLOOP_ROUNDS", 3),
        )
    };
    let rounds = rounds.max(1);

    eprintln!("hotloop: generating {n}x{d} dataset, k={k} ...");
    let config = GeneratorConfig {
        n,
        d,
        k,
        avg_cluster_dims: (d / 50).max(4),
        ..Default::default()
    };
    let data = generate(&config, 20_250_101).unwrap();

    // Three labeled objects per class: private seed groups for every
    // cluster. Initialization is timed like the loop (`init_secs`); with
    // counts-only seed grids it is a small part of a fast run, and the
    // seed groups it builds are the same on both legs.
    let mut supervision = Supervision::none();
    for c in 0..k {
        let class = sspc_common::ClusterId(c);
        for &o in data.truth.members_of(class).iter().take(3) {
            supervision = supervision.label_object(o, class);
        }
    }

    let params = SspcParams::new(k)
        .with_threshold(ThresholdScheme::MFraction(0.5))
        .with_termination(MAX_STALL, MAX_ITERATIONS);
    let sspc = Sspc::new(params).unwrap();
    let seed = 7u64;

    let mut naive = Leg::new("naive  ");
    for round in 0..rounds {
        naive.round(round, &|| {
            sspc.run_naive_with_timings(&data.dataset, &supervision, seed)
                .unwrap()
        });
    }

    // Cancellation-overhead A/B: the cooperative deadline check sits in
    // the outer iteration loop. The `fast` leg runs it unarmed (a
    // thread-local read); the `fast+dl` leg installs a far-future deadline
    // so every check also pays its `Instant::now()`. Both must be noise.
    // The two legs' rounds interleave, alternating which goes first, so
    // neither always inherits the other's warm-up.
    let far_deadline = Instant::now() + std::time::Duration::from_secs(86_400);
    let run_fast = || {
        sspc.run_with_timings(&data.dataset, &supervision, seed)
            .unwrap()
    };
    let run_armed = || {
        let _deadline = sspc_common::cancel::deadline_guard(far_deadline);
        run_fast()
    };
    let mut fast = Leg::new("fast   ");
    let mut armed = Leg::new("fast+dl");
    for round in 0..rounds {
        if round % 2 == 1 {
            armed.round(round, &run_armed);
        }
        fast.round(round, &run_fast);
        if round % 2 == 0 {
            armed.round(round, &run_armed);
        }
    }
    let (naive_secs, naive_phases, naive_result) = (naive.best, naive.phases, naive.result());
    let (fast_secs, fast_phases, fast_result) = (fast.best, fast.phases, fast.result());
    let (deadline_secs, deadline_result) = (armed.best, armed.result());

    let bit_identical = naive_result == fast_result
        && naive_result == deadline_result
        && naive_result.objective().to_bits() == fast_result.objective().to_bits()
        && naive_result.objective().to_bits() == deadline_result.objective().to_bits();
    assert!(
        bit_identical,
        "hotloop: fast path diverged from the reference path"
    );

    let speedup = naive_secs / fast_secs;
    let deadline_overhead = deadline_secs / fast_secs - 1.0;
    println!(
        "hotloop n={n} d={d} k={k}: naive {naive_secs:.3} s, fast {fast_secs:.3} s, \
         speedup {speedup:.2}x, armed-deadline overhead {:+.1}%, bit-identical results",
        deadline_overhead * 100.0
    );

    // Append one JSON record per run; the workspace root is two levels up
    // from this package's CARGO_MANIFEST_DIR. `threads` is the resolved
    // worker count the parallel phases actually use; `cores` is what the
    // machine offers — record both so multi-core re-baselines (the PR-1
    // numbers are from a 1-core box) stay interpretable.
    let out_path = std::env::var("BENCH_HOTLOOP_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_hotloop.json", env!("CARGO_MANIFEST_DIR")));
    let threads = sspc_common::parallel::num_threads();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let record = format!(
        concat!(
            "{{\"bench\":\"hotloop\",\"n\":{},\"d\":{},\"k\":{},\"rounds\":{},",
            "\"threads\":{},\"cores\":{},",
            "\"naive_secs\":{:.6},\"fast_secs\":{:.6},\"speedup\":{:.3},",
            "\"assign_secs\":{:.6},\"refit_secs\":{:.6},\"other_secs\":{:.6},",
            "\"init_secs\":{:.6},\"fill_secs\":{:.6},\"naive_assign_secs\":{:.6},",
            "\"naive_refit_secs\":{:.6},\"naive_other_secs\":{:.6},\"naive_init_secs\":{:.6},",
            "\"naive_fill_secs\":{:.6},\"deadline_fast_secs\":{:.6},",
            "\"deadline_overhead\":{:.4},\"bit_identical\":{},\"iterations\":{}}}\n"
        ),
        n,
        d,
        k,
        rounds,
        threads,
        cores,
        naive_secs,
        fast_secs,
        speedup,
        fast_phases.assign_secs,
        fast_phases.refit_secs,
        fast_phases.other_secs,
        fast_phases.init_secs,
        fast_phases.fill_secs,
        naive_phases.assign_secs,
        naive_phases.refit_secs,
        naive_phases.other_secs,
        naive_phases.init_secs,
        naive_phases.fill_secs,
        deadline_secs,
        deadline_overhead,
        bit_identical,
        fast_result.iterations()
    );
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
        .and_then(|mut f| f.write_all(record.as_bytes()));
    if let Err(e) = appended {
        eprintln!("hotloop: could not write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("hotloop: appended record to {out_path}");
}
