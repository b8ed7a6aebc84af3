//! The repository's benchmark: three workloads, seven end-to-end metrics,
//! and a traced run that times each layer from outside. README.md
//! explains the workloads, the metrics and how to read the output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_protocol --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The process given those arguments generates the workload's inputs
//! from the seed, then runs the workload in a child process of its own
//! (so the child's peak RSS is the workload's), and exits with the child's
//! code. The child prints a record line with the run's context, then the
//! result line `{"correct", "attempted", "failed", "metrics"}` last.

mod context;
mod inprocess;
mod inputs;
mod service;
mod stats;
mod trace;

use inputs::Workload;
use sspc_common::json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use trace::{Span, Tracer, Tree};

/// Set-up repetitions per run, one in the measured process and the rest
/// in processes of their own; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Jobs a run completes however short its time: enough for the tail rule
/// to have samples, and for the jobs `core.iterations` counts in a traced
/// run (which traces every other rotation).
pub const MIN_JOBS: usize = 32;
/// `ari_mean` and `core.iterations` use these first jobs of a run only,
/// so they repeat exactly for a seed however many jobs the time allows.
pub const ARI_JOBS: usize = 16;
/// Span job ids: timed jobs count up from 0, the service workload's
/// in-process reference jobs from here…
pub const REFERENCE_JOB: u64 = 1 << 40;
/// …and set-up repetitions from here (below 2^53, so ids print exactly).
pub const SETUP_JOB: u64 = 1 << 41;
/// Seed used while the benchmark was written and tuned.
pub const DEFAULT_SEED: u64 = 1;
/// `peak_rss_mb` is the median over windows of this length of the peak
/// RSS within each window: the peak of the whole run is the maximum over
/// a few hundred jobs, which is set by the rare job whose seed makes SSPC
/// build the most state, so it moves between runs by up to a fifth.
pub const RSS_WINDOW: std::time::Duration = std::time::Duration::from_secs(1);
/// Generated inputs live here, inside the checkout, while a run lasts.
const WORK_DIR: &str = ".bench_work";
/// Traced runs write their spans here.
const TRACE_DIR: &str = ".bench_out";

/// End-to-end metrics: name, unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ok_share", "ratio"),
    ("ari_mean", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: name, unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("io.parse_ms", "ms"),
    ("io.parse_mb_per_s", "MB/s"),
    ("core.run_ms", "ms"),
    ("core.iterations", "count"),
    ("core.assign_ms", "ms"),
    ("core.refit_ms", "ms"),
    ("core.other_ms", "ms"),
    ("parallel.threads", "count"),
    ("parallel.cpu_util", "ratio"),
    ("parallel.refit_speedup", "ratio"),
    ("parallel.assign_speedup", "ratio"),
    ("api.restarts", "count"),
    ("api.select_ms", "ms"),
    ("metrics.eval_ms", "ms"),
    ("http.submit_rtt_ms", "ms"),
    ("http.poll_rtt_ms", "ms"),
    ("http.polls_per_job", "count"),
    ("http.useful_poll_share", "ratio"),
    ("router.hop_ms", "ms"),
    ("router.routed", "count"),
    ("router.shed", "count"),
    ("shard.queue_wait_p50_ms", "ms"),
    ("shard.queue_wait_p99_ms", "ms"),
    ("shard.job_p50_ms", "ms"),
    ("shard.rejected", "count"),
    ("job.exec_ms", "ms"),
    ("job.algo_ms", "ms"),
    ("job.load_eval_ms", "ms"),
    ("service.overhead_ms", "ms"),
    ("store.jobs_retained", "count"),
    ("trace.overhead_share", "ratio"),
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input, supervision draw and job seed derives from.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_secs: Vec<f64>,
    /// Bytes one set-up repetition loads.
    pub bytes_loaded: u64,
    /// Latency of each untraced job that completed, ms.
    pub latencies_ms: Vec<f64>,
    /// Latency of each traced job that completed, ms.
    pub traced_latencies_ms: Vec<f64>,
    /// Wall seconds of the timed phase.
    pub wall_secs: f64,
    /// CPU seconds the process used during the timed phase.
    pub cpu_secs: f64,
    /// Jobs started in the timed phase.
    pub attempted: usize,
    /// Jobs that finished (whatever their check said).
    pub completed: usize,
    /// Jobs that finished and passed every output check.
    pub ok: usize,
    /// ARI of each of the first [`ARI_JOBS`] jobs.
    pub aris: Vec<f64>,
    /// One message per failed check.
    pub failures: Vec<String>,
    /// Peak RSS of each window of the timed phase, MB.
    pub rss_windows_mb: Vec<f64>,
    /// Peak RSS when set-up had finished, MB.
    pub peak_rss_setup_mb: f64,
    /// Host reference before the timed phase.
    pub host_before: context::HostReference,
    /// Host reference after the timed phase.
    pub host_after: context::HostReference,
    /// Traced run: refit phase time at one thread over the resolved count.
    pub refit_speedup: f64,
    /// Traced run: assignment phase time at one thread over the resolved
    /// count.
    pub assign_speedup: f64,
    /// Traced service run: the router's `/healthz` after the timed phase.
    pub health: Option<Value>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("measure") => measure(&args[1..]),
        Some("setup") => setup_once(&args[1..]),
        _ => drive(&args),
    };
    std::process::exit(code.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        2
    }));
}

fn usage() -> String {
    "usage: perfbench --workload paper_protocol|scale_n|service_closed \
     [--seed N] [--seconds S] [--trace 0|1]"
        .into()
}

/// Parses the flags; `--inputs` is only passed to the measuring child.
fn parse(args: &[String]) -> Result<(RunConfig, Option<PathBuf>), String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut inputs = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value `{value}` for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).map_err(|e| e.to_string())?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--inputs" => inputs = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    Ok((
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
        },
        inputs,
    ))
}

/// Generates the inputs, runs the workload in a child process, and
/// removes the inputs again.
fn drive(args: &[String]) -> Result<i32, String> {
    let (cfg, _) = parse(args)?;
    let dir = Path::new(WORK_DIR).join(format!(
        "{}-{}-{}",
        cfg.workload.name(),
        cfg.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let status = inputs::prepare(cfg.workload, cfg.seed, &dir)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            Command::new(exe)
                .arg("measure")
                .args(args)
                .arg("--inputs")
                .arg(&dir)
                .status()
                .map_err(|e| e.to_string())
        });
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(WORK_DIR);
    Ok(status?.code().unwrap_or(1))
}

/// Converts a failure of the RSS sampler into the workspace error type.
pub fn rss_error(e: std::io::Error) -> sspc_common::Error {
    sspc_common::Error::InvalidParameter(format!("peak RSS sampling: {e}"))
}

/// One set-up repetition in a process of its own: prints its seconds.
fn setup_once(args: &[String]) -> Result<i32, String> {
    let (cfg, dir) = parse(args)?;
    let dir = dir.ok_or("setup needs --inputs")?;
    let secs = match cfg.workload {
        Workload::ServiceClosed => service::setup_once(&cfg, &dir),
        _ => {
            let start = std::time::Instant::now();
            inprocess::setup(&cfg, &dir, None).map(|_| start.elapsed().as_secs_f64())
        }
    }
    .map_err(|e| e.to_string())?;
    println!("{secs}");
    Ok(0)
}

/// Set-up repetitions after the first, each in a fresh process, so one
/// repetition's allocations shape neither the next one's time nor the
/// measured process's peak RSS.
fn fresh_setups(cfg: &RunConfig, dir: &Path) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (1..SETUP_REPS)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["setup", "--workload", cfg.workload.name()])
                .args(["--seed", &cfg.seed.to_string(), "--inputs"])
                .arg(dir)
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            match stdout.trim().parse::<f64>() {
                Ok(secs) if out.status.success() => Ok(secs),
                _ => Err(format!(
                    "set-up repetition failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
            }
        })
        .collect()
}

/// The measuring child: runs the workload on prepared inputs and prints
/// the record and result lines.
fn measure(args: &[String]) -> Result<i32, String> {
    let (cfg, dir) = parse(args)?;
    let dir = dir.ok_or("measure needs --inputs")?;
    let fresh = fresh_setups(&cfg, &dir)?;
    let tracer = Tracer::default();
    let mut out = match cfg.workload {
        Workload::ServiceClosed => service::run(&cfg, &dir, &tracer),
        _ => inprocess::run(&cfg, &dir, &tracer),
    }
    .map_err(|e| e.to_string())?;
    out.setup_secs.extend(fresh);
    let spans = tracer.take();

    let correct = out.failures.is_empty() && out.ok == out.attempted;
    let mut record = Value::object()
        .with("workload", cfg.workload.name())
        .with("seed", cfg.seed)
        .with("seconds", cfg.seconds)
        .with("trace", cfg.trace)
        .with(
            "context",
            Value::object()
                .with("cores", context::cores())
                .with("threads", sspc_common::parallel::num_threads())
                .with("cpu_ref_before_ms", out.host_before.compute_ms)
                .with("cpu_ref_after_ms", out.host_after.compute_ms)
                .with("mem_ref_before_ms", out.host_before.memory_ms)
                .with("mem_ref_after_ms", out.host_after.memory_ms),
        )
        .with(
            "setup_reps_s",
            Value::Arr(out.setup_secs.iter().map(|&s| Value::from(s)).collect()),
        )
        .with("peak_rss_after_setup_mb", out.peak_rss_setup_mb)
        .with(
            "peak_rss_max_mb",
            out.rss_windows_mb
                .iter()
                .fold(out.peak_rss_setup_mb, |a, &b| a.max(b)),
        )
        .with("completed", out.completed)
        .with("wall_s", out.wall_secs)
        .with(
            "failures",
            Value::Arr(
                out.failures
                    .iter()
                    .map(|f| Value::from(f.as_str()))
                    .collect(),
            ),
        );
    let metrics = if cfg.trace {
        let path = Path::new(TRACE_DIR).join(format!(
            "trace-{}-seed{}.jsonl",
            cfg.workload.name(),
            cfg.seed
        ));
        trace::write_jsonl(&spans, &path).map_err(|e| format!("{}: {e}", path.display()))?;
        let tree = Tree::new(&spans);
        let coverage: Vec<f64> = tree
            .roots("job")
            .map(|(id, s)| tree.child_secs(id) / s.secs())
            .collect();
        record = record.with("trace_file", path.display().to_string()).with(
            "trace_coverage",
            Value::object()
                .with("jobs", coverage.len())
                .with("min", coverage.iter().copied().fold(f64::NAN, f64::min))
                .with("median", stats::median(&coverage).unwrap_or(f64::NAN)),
        );
        per_layer(&out, &tree)
    } else {
        let tail = stats::tail(&out.latencies_ms);
        let quartiles = stats::quartiles(&out.latencies_ms).unwrap_or([f64::NAN; 3]);
        record = record
            .with(
                "latency_tail",
                Value::object()
                    .with("percentile", tail.map_or(f64::NAN, |t| t.percentile))
                    .with("samples", out.latencies_ms.len()),
            )
            .with(
                "latency_quartiles_ms",
                Value::Arr(quartiles.iter().map(|&q| Value::from(q)).collect()),
            );
        end_to_end(&out, tail)
    };

    let units = if cfg.trace { PER_LAYER } else { END_TO_END };
    let mut rendered = Value::object();
    for &(name, unit) in units {
        let value = metrics.get(name).copied().unwrap_or(f64::NAN);
        rendered = rendered.with(
            name,
            Value::object().with("value", value).with("unit", unit),
        );
    }
    println!("{}", record.with("metrics", rendered.clone()));
    let result = Value::object()
        .with("correct", correct)
        .with("attempted", out.attempted)
        .with("failed", out.attempted - out.ok.min(out.attempted))
        .with("metrics", rendered);
    println!("{result}");
    for f in &out.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    Ok(if correct { 0 } else { 1 })
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

fn end_to_end(out: &Outcome, tail: Option<stats::Tail>) -> BTreeMap<&'static str, f64> {
    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    BTreeMap::from([
        ("setup_s", med(&out.setup_secs)),
        ("jobs_per_s", out.completed as f64 / out.wall_secs),
        ("latency_p50_ms", med(&out.latencies_ms)),
        ("latency_tail_ms", tail.map_or(f64::NAN, |t| t.value)),
        ("ok_share", out.ok as f64 / out.attempted.max(1) as f64),
        ("ari_mean", mean(&out.aris)),
        ("peak_rss_mb", med(&out.rss_windows_mb)),
    ])
}

/// Per-layer metrics from the spans and counters of a traced run. A
/// layer the workload never enters reads 0.
fn per_layer(out: &Outcome, tree: &Tree<'_>) -> BTreeMap<&'static str, f64> {
    let med = |v: Vec<f64>| stats::median(&v).unwrap_or(0.0);
    let or_zero = |x: f64| if x.is_finite() { x } else { 0.0 };
    let named = |name: &'static str| {
        tree.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    };
    let ms = |name| med(named(name).map(|(_, s)| s.secs() * 1e3).collect());
    let attr_ms = |name, key| {
        med(named(name)
            .filter_map(|(_, s)| s.attr(key))
            .map(|v| v * 1e3)
            .collect())
    };

    // I/O: the load calls of each set-up repetition.
    let parse_s = med(tree
        .roots("setup")
        .map(|(id, _)| tree.child_secs(id))
        .collect());

    // Core, per restart; iterations over a fixed set of jobs only, so the
    // count repeats exactly for a seed.
    let fixed = |job: u64| job < 2 * ARI_JOBS as u64 || (REFERENCE_JOB..SETUP_JOB).contains(&job);
    let iterations: Vec<f64> = named("core.run")
        .filter(|(_, s)| fixed(s.job))
        .filter_map(|(_, s)| s.attr("iterations"))
        .collect();
    let best_of: Vec<usize> = named("api.best_of").map(|(id, _)| id).collect();

    // Service: the traced client jobs carry the server-reported times.
    let client_jobs: Vec<&Span> = tree
        .roots("job")
        .map(|(_, s)| s)
        .filter(|s| s.attr("polls").is_some())
        .collect();
    let polls: f64 = client_jobs.iter().filter_map(|s| s.attr("polls")).sum();
    let per_job =
        |f: &dyn Fn(&Span) -> Option<f64>| med(client_jobs.iter().filter_map(|s| f(s)).collect());
    let health = |path: &[&str]| {
        out.health
            .as_ref()
            .map_or(0.0, |h| service::health_value(h, path))
    };
    let rejected = [
        "rejected_queue_full",
        "rejected_invalid",
        "rejected_backlog",
        "rejected_draining",
    ];
    let threads = sspc_common::parallel::num_threads() as f64;
    let overhead = match (
        stats::median(&out.traced_latencies_ms),
        stats::median(&out.latencies_ms),
    ) {
        (Some(traced), Some(untraced)) => traced / untraced - 1.0,
        _ => 0.0,
    };

    BTreeMap::from([
        ("io.parse_ms", parse_s * 1e3),
        (
            "io.parse_mb_per_s",
            or_zero(out.bytes_loaded as f64 / parse_s / 1e6),
        ),
        ("core.run_ms", ms("core.run")),
        ("core.iterations", or_zero(mean(&iterations))),
        ("core.assign_ms", attr_ms("core.run", "assign_s")),
        ("core.refit_ms", attr_ms("core.run", "refit_s")),
        ("core.other_ms", attr_ms("core.run", "other_s")),
        ("parallel.threads", threads),
        (
            "parallel.cpu_util",
            out.cpu_secs / (out.wall_secs * threads),
        ),
        ("parallel.refit_speedup", out.refit_speedup),
        ("parallel.assign_speedup", out.assign_speedup),
        (
            "api.restarts",
            med(best_of
                .iter()
                .map(|&id| tree.children(id).count() as f64)
                .collect()),
        ),
        (
            "api.select_ms",
            med(best_of.iter().map(|&id| tree.self_secs(id) * 1e3).collect()),
        ),
        ("metrics.eval_ms", ms("metrics.eval")),
        ("http.submit_rtt_ms", ms("http.submit")),
        ("http.poll_rtt_ms", ms("http.poll")),
        (
            "http.polls_per_job",
            or_zero(polls / client_jobs.len() as f64),
        ),
        (
            "http.useful_poll_share",
            or_zero(client_jobs.len() as f64 / polls),
        ),
        (
            "router.hop_ms",
            per_job(&|s| s.attr("hop_s").map(|h| h * 1e3)),
        ),
        ("router.routed", health(&["router", "routed"])),
        ("router.shed", health(&["router", "shed"])),
        (
            "shard.queue_wait_p50_ms",
            health(&["latency", "queue_wait", "p50_ms"]),
        ),
        (
            "shard.queue_wait_p99_ms",
            health(&["latency", "queue_wait", "p99_ms"]),
        ),
        ("shard.job_p50_ms", health(&["latency", "job", "p50_ms"])),
        (
            "shard.rejected",
            rejected.iter().map(|c| health(&["jobs", c])).sum(),
        ),
        (
            "job.exec_ms",
            per_job(&|s| s.attr("exec_s").map(|v| v * 1e3)),
        ),
        (
            "job.algo_ms",
            per_job(&|s| s.attr("algo_s").map(|v| v * 1e3)),
        ),
        (
            "job.load_eval_ms",
            per_job(&|s| Some((s.attr("exec_s")? - s.attr("algo_s")?) * 1e3)),
        ),
        (
            "service.overhead_ms",
            per_job(&|s| {
                Some(service::overhead_ms(
                    s.attr("latency_ms")?,
                    s.attr("exec_s")?,
                ))
            }),
        ),
        (
            "store.jobs_retained",
            out.health
                .as_ref()
                .map_or(0.0, |h| service::health_shard_sum(h, &["store", "jobs"])),
        ),
        ("trace.overhead_share", overhead),
    ])
}
