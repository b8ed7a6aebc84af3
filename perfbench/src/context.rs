//! Machine context recorded beside every run, and process counters read
//! from `/proc`.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Kernel clock ticks per second for `/proc/<pid>/stat` CPU times
/// (`USER_HZ`, 100 on every Linux architecture the workspace targets).
const USER_HZ: f64 = 100.0;

/// Cores the operating system offers this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Fixed single-threaded chunks that do the same work on every host and
/// every commit, timed in milliseconds. A change in them between the start
/// and the end of a run shows the host slowing down, not the program.
/// Context only, never a metric.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostReference {
    /// Four independent arithmetic chains that stay in registers: enough
    /// instruction-level parallelism to slow down when a sibling hardware
    /// thread or the clock takes the core's throughput.
    pub compute_ms: f64,
    /// Dependent random reads over a 4 MB table: twice a core's L2 on the
    /// machines this was written on, so it moves with last-level cache and
    /// memory contention from other tenants.
    pub memory_ms: f64,
}

/// Times both reference chunks, median of three each.
pub fn host_reference() -> HostReference {
    fn median_of_three(mut f: impl FnMut(u64) -> f64) -> f64 {
        let mut times = [f(0), f(1), f(2)];
        times.sort_by(f64::total_cmp);
        times[1]
    }
    let lcg = |x: u64| {
        x.wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407)
    };
    let compute_ms = median_of_three(|round| {
        let start = Instant::now();
        let mut x: [u64; 4] = black_box([1, 2, 3, 4].map(|c| c ^ round));
        let mut acc = [0.0f64; 4];
        for _ in 0..6_000_000u32 {
            for (x, acc) in x.iter_mut().zip(&mut acc) {
                *x = lcg(*x);
                *acc += (*x >> 11) as f64 * 1e-16;
            }
        }
        black_box(acc);
        start.elapsed().as_secs_f64() * 1e3
    });
    let mut table = vec![0u64; 1 << 19];
    let mut x = 1u64;
    for slot in &mut table {
        x = lcg(x);
        *slot = x;
    }
    let mask = table.len() as u64 - 1;
    let memory_ms = median_of_three(|round| {
        let start = Instant::now();
        let mut i = black_box(round);
        for _ in 0..2_000_000u32 {
            i = table[(i & mask) as usize] >> 7;
        }
        black_box(i);
        start.elapsed().as_secs_f64() * 1e3
    });
    HostReference {
        compute_ms,
        memory_ms,
    }
}

/// CPU seconds (user + system) this process has used so far, all threads
/// included, exited ones too.
pub fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime field 14, stime field 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / USER_HZ,
        _ => f64::NAN,
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets this process's peak RSS to its current RSS (Linux ≥ 4.0).
///
/// # Errors
///
/// When `/proc/self/clear_refs` cannot be written.
pub fn reset_peak_rss() -> std::io::Result<()> {
    // "5" resets the high-water mark and nothing else.
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Runs `f` while a sampler thread reads the peak RSS once per `window`
/// and resets it, so each sample is the peak of its own window. Returns
/// `f`'s result and the per-window peaks in MB, the last window cut short
/// when `f` returns.
///
/// # Errors
///
/// When the peak cannot be reset.
pub fn rss_windows<T>(window: Duration, f: impl FnOnce() -> T) -> std::io::Result<(T, Vec<f64>)> {
    reset_peak_rss()?;
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| -> std::io::Result<Vec<f64>> {
            let mut peaks = Vec::new();
            loop {
                std::thread::park_timeout(window);
                // Read before checking `done`, so the cut-short last window
                // is sampled too.
                let stop = done.load(Ordering::SeqCst);
                peaks.push(peak_rss_mb());
                reset_peak_rss()?;
                if stop {
                    return Ok(peaks);
                }
            }
        });
        let out = f();
        done.store(true, Ordering::SeqCst);
        sampler.thread().unpark();
        let peaks = sampler.join().expect("RSS sampler panicked")?;
        Ok((out, peaks))
    })
}
