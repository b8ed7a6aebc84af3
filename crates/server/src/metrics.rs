//! Service health counters: queue pressure, job outcomes, per-algorithm
//! throughput, latency histograms, and the cost-based backlog estimator —
//! rendered as the `/healthz` document. The connection gauges belong to
//! the shared HTTP loop (`http::Ingress`).

use crate::job::AlgorithmCost;
use sspc_common::hist::Histogram;
use sspc_common::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Accumulated execution cost of one algorithm across all finished jobs.
#[derive(Debug, Default, Clone)]
struct AlgorithmThroughput {
    jobs: u64,
    restarts: u64,
    busy_seconds: f64,
}

/// Cold-start prior for the backlog estimator: seconds per cost unit
/// (`n·d·k·runs·algorithms`) assumed before any job has completed. Tiny
/// on purpose — the first completions replace it with measured data.
const COST_RATE_PRIOR: f64 = 1e-6;

/// Point-in-time service state that lives outside [`Metrics`] (queue,
/// worker pool, drain flag, configured limits), passed into
/// [`Metrics::healthz_value`] by the route handler.
#[derive(Debug, Clone, Copy)]
pub struct Gauges {
    /// Jobs currently queued (not yet running).
    pub queue_depth: usize,
    /// Bounded queue capacity.
    pub queue_capacity: usize,
    /// Configured worker pool size.
    pub workers: usize,
    /// Worker threads currently inside their loop.
    pub workers_alive: usize,
    /// Threads each job runs with: the process's thread budget split over
    /// its registered job workers (`sspc_common::parallel::job_threads`).
    pub job_threads: usize,
    /// Lame-duck state: the server is finishing work but refusing new
    /// submissions.
    pub draining: bool,
    /// Configured admission budget in estimated backlog seconds, if any.
    pub max_backlog_seconds: Option<f64>,
    /// This server's shard id (0 for a plain single-node deployment);
    /// the router reads it back out of `/healthz` fan-ins.
    pub shard: u16,
}

/// Monotonic counters updated by the handlers and workers; all reads
/// happen in [`Metrics::healthz_value`]. Counters are process-lifetime —
/// a restart starts them at zero even when the job store is disk-backed.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    submitted: AtomicU64,
    recovered: AtomicU64,
    rejected_full: AtomicU64,
    rejected_invalid: AtomicU64,
    rejected_backlog: AtomicU64,
    rejected_draining: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    panicked: AtomicU64,
    deadline_exceeded: AtomicU64,
    /// Estimated cost units (`n·d·k·runs·algorithms`) of jobs currently
    /// queued or running — the numerator of the admission estimate.
    backlog_cost: AtomicU64,
    /// Measured cost-vs-time: units and wall-clock microseconds of
    /// successfully completed jobs, giving the seconds-per-unit rate.
    observed_cost: AtomicU64,
    observed_busy_us: AtomicU64,
    queue_wait: Histogram,
    job_latency: Histogram,
    per_algorithm: Mutex<BTreeMap<String, AlgorithmThroughput>>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            rejected_full: AtomicU64::new(0),
            rejected_invalid: AtomicU64::new(0),
            rejected_backlog: AtomicU64::new(0),
            rejected_draining: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            backlog_cost: AtomicU64::new(0),
            observed_cost: AtomicU64::new(0),
            observed_busy_us: AtomicU64::new(0),
            queue_wait: Histogram::new(),
            job_latency: Histogram::new(),
            per_algorithm: Mutex::new(BTreeMap::new()),
        }
    }
}

impl Metrics {
    /// A job was accepted onto the queue.
    pub fn record_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    /// A job was re-enqueued from the journal at startup.
    pub fn record_recovered(&self) {
        self.recovered.fetch_add(1, Ordering::Relaxed);
    }

    /// A job was refused because the queue was at capacity.
    pub fn record_rejected_full(&self) {
        self.rejected_full.fetch_add(1, Ordering::Relaxed);
    }

    /// A request failed validation (malformed JSON or schema).
    pub fn record_rejected_invalid(&self) {
        self.rejected_invalid.fetch_add(1, Ordering::Relaxed);
    }

    /// A job was refused because the estimated backlog exceeded the
    /// configured `--max-backlog-seconds` budget.
    pub fn record_rejected_backlog(&self) {
        self.rejected_backlog.fetch_add(1, Ordering::Relaxed);
    }

    /// A submission was refused because the server is draining.
    pub fn record_rejected_draining(&self) {
        self.rejected_draining.fetch_add(1, Ordering::Relaxed);
    }

    /// A job's estimated cost entered the backlog (admitted or recovered).
    pub fn admit_cost(&self, cost: u64) {
        self.backlog_cost.fetch_add(cost, Ordering::Relaxed);
    }

    /// A job's estimated cost left the backlog (finished, forgotten, or
    /// vanished). Saturating: a double release cannot wrap the gauge.
    pub fn release_cost(&self, cost: u64) {
        let _ = self
            .backlog_cost
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |current| {
                Some(current.saturating_sub(cost))
            });
    }

    /// Feeds the measured seconds-per-cost-unit rate with one job's cost
    /// and the wall-clock seconds its worker measured (successful
    /// completions only — failures finish early and would bias it down).
    pub fn observe_cost_rate(&self, cost: u64, busy_seconds: f64) {
        if cost > 0 && busy_seconds > 0.0 {
            self.observed_cost.fetch_add(cost, Ordering::Relaxed);
            self.observed_busy_us
                .fetch_add((busy_seconds * 1e6) as u64, Ordering::Relaxed);
        }
    }

    /// Estimated seconds of work currently queued or running: the backlog
    /// cost units times the measured seconds-per-unit rate (a small prior
    /// before anything has completed). This is what `--max-backlog-seconds`
    /// admission control compares against its budget.
    pub fn estimated_backlog_seconds(&self) -> f64 {
        let backlog = self.backlog_cost.load(Ordering::Relaxed) as f64;
        let observed = self.observed_cost.load(Ordering::Relaxed);
        let rate = if observed == 0 {
            COST_RATE_PRIOR
        } else {
            (self.observed_busy_us.load(Ordering::Relaxed) as f64 / 1e6) / observed as f64
        };
        backlog * rate
    }

    /// How long a job sat queued before a worker began it.
    pub fn record_queue_wait(&self, wait: Duration) {
        self.queue_wait.record_duration(wait);
    }

    /// Submission-to-terminal-state latency of a finished job.
    pub fn record_job_latency(&self, latency: Duration) {
        self.job_latency.record_duration(latency);
    }

    /// A job finished successfully; fold its per-algorithm costs into the
    /// throughput table.
    pub fn record_completed(&self, costs: &[AlgorithmCost]) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let mut table = self.per_algorithm.lock().expect("metrics poisoned");
        for cost in costs {
            let entry = table.entry(cost.algorithm.clone()).or_default();
            entry.jobs += 1;
            entry.restarts += cost.restarts as u64;
            entry.busy_seconds += cost.busy_seconds;
        }
    }

    /// A job failed.
    pub fn record_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// A job body panicked and was caught by the worker's unwind barrier
    /// (the job is also counted in `failed`).
    pub fn record_panicked(&self) {
        self.panicked.fetch_add(1, Ordering::Relaxed);
    }

    /// A job was cancelled at its cooperative deadline (also counted in
    /// `failed`).
    pub fn record_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Backpressure hint attached as `Retry-After` to every 503: the mean
    /// wall-clock seconds per completed job observed so far (the workers'
    /// measured job seconds fed to [`Metrics::observe_cost_rate`], over
    /// completed jobs), rounded up and clamped to `[1, 60]`; `1` before
    /// anything has completed. Not the per-algorithm `busy_seconds`: those
    /// sum a job's restarts, which run in parallel.
    pub fn retry_after_seconds(&self) -> u64 {
        let completed = self.completed.load(Ordering::Relaxed);
        if completed == 0 {
            return 1;
        }
        let wall = self.observed_busy_us.load(Ordering::Relaxed) as f64 / 1e6;
        (wall / completed as f64).ceil().clamp(1.0, 60.0) as u64
    }

    /// Renders one latency histogram as `{count, p50_ms, p95_ms, p99_ms}`
    /// (milliseconds; quantiles carry the histogram's documented 1/16
    /// relative-error bound). Percentiles are 0 while empty.
    fn latency_value(hist: &Histogram) -> Value {
        let ms = |q: f64| hist.quantile(q).unwrap_or(0) as f64 / 1e3;
        Value::object()
            .with("count", hist.count())
            .with("p50_ms", ms(0.50))
            .with("p95_ms", ms(0.95))
            .with("p99_ms", ms(0.99))
    }

    /// Renders the `/healthz` document. `gauges` carries the live service
    /// state (queue, workers, drain flag, configured limits); `store` is
    /// the job store's own stats section and `store_degraded` its
    /// read-only flag.
    ///
    /// The document splits liveness from readiness: any answer at all is
    /// liveness, while `ready` says whether new submissions can be
    /// accepted. `status` is `"ok"`, `"degraded"` (journal write failed;
    /// read-only), or `"draining"` (lame duck — drain wins the tiebreak
    /// because it is the operator-initiated, terminal state).
    pub fn healthz_value(&self, gauges: &Gauges, store: Value, store_degraded: bool) -> Value {
        let mut algorithms = Value::object();
        for (name, t) in self.per_algorithm.lock().expect("metrics poisoned").iter() {
            let per_sec = if t.busy_seconds > 0.0 {
                t.restarts as f64 / t.busy_seconds
            } else {
                0.0
            };
            algorithms = algorithms.with(
                name.as_str(),
                Value::object()
                    .with("jobs", t.jobs)
                    .with("restarts", t.restarts)
                    .with("busy_seconds", t.busy_seconds)
                    .with("restarts_per_busy_second", per_sec),
            );
        }
        let status = if gauges.draining {
            "draining"
        } else if store_degraded {
            "degraded"
        } else {
            "ok"
        };
        let mut admission = Value::object()
            .with(
                "backlog_cost_units",
                self.backlog_cost.load(Ordering::Relaxed),
            )
            .with(
                "estimated_backlog_seconds",
                self.estimated_backlog_seconds(),
            );
        if let Some(budget) = gauges.max_backlog_seconds {
            admission = admission.with("max_backlog_seconds", budget);
        }
        Value::object()
            .with("status", status)
            .with("ready", !store_degraded && !gauges.draining)
            .with("shard", u64::from(gauges.shard))
            .with("uptime_seconds", self.started.elapsed().as_secs_f64())
            .with("workers", gauges.workers)
            .with("workers_alive", gauges.workers_alive)
            // The *effective* per-job thread count, resolved from the
            // same budget the workers' jobs read — not a config echo, so
            // it can never silently disagree with what jobs actually do.
            .with("job_threads", gauges.job_threads)
            .with(
                "queue",
                Value::object()
                    .with("depth", gauges.queue_depth)
                    .with("capacity", gauges.queue_capacity),
            )
            .with("admission", admission)
            .with(
                "latency",
                Value::object()
                    .with("queue_wait", Self::latency_value(&self.queue_wait))
                    .with("job", Self::latency_value(&self.job_latency)),
            )
            .with("store", store)
            .with(
                "jobs",
                Value::object()
                    .with("submitted", self.submitted.load(Ordering::Relaxed))
                    .with("recovered", self.recovered.load(Ordering::Relaxed))
                    .with(
                        "rejected_queue_full",
                        self.rejected_full.load(Ordering::Relaxed),
                    )
                    .with(
                        "rejected_invalid",
                        self.rejected_invalid.load(Ordering::Relaxed),
                    )
                    .with(
                        "rejected_backlog",
                        self.rejected_backlog.load(Ordering::Relaxed),
                    )
                    .with(
                        "rejected_draining",
                        self.rejected_draining.load(Ordering::Relaxed),
                    )
                    .with("completed", self.completed.load(Ordering::Relaxed))
                    .with("failed", self.failed.load(Ordering::Relaxed)),
            )
            .with("jobs_panicked", self.panicked.load(Ordering::Relaxed))
            .with(
                "jobs_deadline_exceeded",
                self.deadline_exceeded.load(Ordering::Relaxed),
            )
            .with("store_degraded", store_degraded)
            .with("algorithms", algorithms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Ingress;

    fn gauges(queue_depth: usize, queue_capacity: usize, workers: usize) -> Gauges {
        Gauges {
            queue_depth,
            queue_capacity,
            workers,
            workers_alive: workers,
            job_threads: 3,
            draining: false,
            max_backlog_seconds: None,
            shard: 0,
        }
    }

    #[test]
    fn counters_flow_into_healthz() {
        let m = Metrics::default();
        let ingress = Ingress::new(256);
        m.record_submitted();
        m.record_submitted();
        m.record_recovered();
        ingress.record_connection();
        ingress.record_connection();
        ingress.record_connection();
        ingress.connection_opened();
        ingress.connection_opened();
        ingress.connection_closed();
        ingress.record_connection_rejected();
        ingress.record_spawn_failure();
        ingress.request_started();
        m.record_rejected_full();
        m.record_rejected_invalid();
        m.record_rejected_backlog();
        m.record_rejected_draining();
        m.record_failed();
        m.record_panicked();
        m.record_deadline_exceeded();
        m.record_queue_wait(Duration::from_millis(4));
        m.record_job_latency(Duration::from_millis(20));
        m.record_completed(&[
            AlgorithmCost {
                algorithm: "sspc".into(),
                restarts: 5,
                busy_seconds: 2.5,
            },
            AlgorithmCost {
                algorithm: "harp".into(),
                restarts: 1,
                busy_seconds: 0.5,
            },
        ]);
        m.record_completed(&[AlgorithmCost {
            algorithm: "sspc".into(),
            restarts: 5,
            busy_seconds: 2.5,
        }]);

        let store = Value::object().with("kind", "memory").with("jobs", 2u64);
        let h = ingress.render(m.healthz_value(&gauges(3, 64, 2), store, false));
        assert_eq!(h.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(h.get("ready").and_then(Value::as_bool), Some(true));
        assert_eq!(h.get("shard").and_then(Value::as_u64), Some(0));
        assert!(
            h.get("spool_ship_failures").is_none(),
            "no spool configured, no spool field"
        );
        assert_eq!(h.get("workers").and_then(Value::as_u64), Some(2));
        assert_eq!(h.get("workers_alive").and_then(Value::as_u64), Some(2));
        assert_eq!(
            h.get("job_threads").and_then(Value::as_u64),
            Some(3),
            "job_threads must mirror the workers' thread share"
        );
        assert_eq!(h.get("jobs_panicked").and_then(Value::as_u64), Some(1));
        assert_eq!(
            h.get("jobs_deadline_exceeded").and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            h.get("store_degraded").and_then(Value::as_bool),
            Some(false)
        );
        assert_eq!(
            h.get("connections_accepted").and_then(Value::as_u64),
            Some(3)
        );
        assert_eq!(h.get("connections_active").and_then(Value::as_u64), Some(1));
        assert_eq!(
            h.get("connections_limit").and_then(Value::as_u64),
            Some(256)
        );
        assert_eq!(
            h.get("connections_rejected").and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            h.get("handler_spawn_failures").and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(h.get("requests_in_flight").and_then(Value::as_u64), Some(1));
        let queue = h.get("queue").unwrap();
        assert_eq!(queue.get("depth").and_then(Value::as_u64), Some(3));
        assert_eq!(queue.get("capacity").and_then(Value::as_u64), Some(64));
        assert_eq!(
            h.get("store").unwrap().get("kind").and_then(Value::as_str),
            Some("memory")
        );
        let jobs = h.get("jobs").unwrap();
        assert_eq!(jobs.get("submitted").and_then(Value::as_u64), Some(2));
        assert_eq!(jobs.get("recovered").and_then(Value::as_u64), Some(1));
        assert_eq!(
            jobs.get("rejected_queue_full").and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            jobs.get("rejected_backlog").and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(
            jobs.get("rejected_draining").and_then(Value::as_u64),
            Some(1)
        );
        assert_eq!(jobs.get("completed").and_then(Value::as_u64), Some(2));
        assert_eq!(jobs.get("failed").and_then(Value::as_u64), Some(1));
        let latency = h.get("latency").unwrap();
        let qw = latency.get("queue_wait").unwrap();
        assert_eq!(qw.get("count").and_then(Value::as_u64), Some(1));
        let p50 = qw.get("p50_ms").and_then(Value::as_f64).unwrap();
        assert!((p50 - 4.0).abs() / 4.0 < 0.07, "queue-wait p50 {p50} ms");
        let job = latency.get("job").unwrap();
        let p99 = job.get("p99_ms").and_then(Value::as_f64).unwrap();
        assert!((p99 - 20.0).abs() / 20.0 < 0.07, "job p99 {p99} ms");
        let sspc = h.get("algorithms").unwrap().get("sspc").unwrap();
        assert_eq!(sspc.get("jobs").and_then(Value::as_u64), Some(2));
        assert_eq!(sspc.get("restarts").and_then(Value::as_u64), Some(10));
        assert_eq!(sspc.get("busy_seconds").and_then(Value::as_f64), Some(5.0));
        assert_eq!(
            sspc.get("restarts_per_busy_second").and_then(Value::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn shard_id_renders_when_sharded() {
        let m = Metrics::default();
        let mut g = gauges(0, 4, 1);
        g.shard = 3;
        let h = m.healthz_value(&g, Value::object(), false);
        assert_eq!(h.get("shard").and_then(Value::as_u64), Some(3));
    }

    /// One successful job as the worker reports it: its per-algorithm
    /// costs, then its cost and measured wall seconds.
    fn complete_job(m: &Metrics, busy_seconds: f64, wall_seconds: f64) {
        m.record_completed(&[AlgorithmCost {
            algorithm: "sspc".into(),
            restarts: 2,
            busy_seconds,
        }]);
        m.observe_cost_rate(1_000, wall_seconds);
    }

    #[test]
    fn retry_after_tracks_mean_job_seconds() {
        let m = Metrics::default();
        assert_eq!(m.retry_after_seconds(), 1, "floor of 1 before completions");
        // Two 2 s restarts run side by side: 4 s summed, 2 s of wall time.
        complete_job(&m, 4.0, 2.0);
        assert_eq!(m.retry_after_seconds(), 2, "the job's wall time");
        complete_job(&m, 2.2, 2.2);
        assert_eq!(m.retry_after_seconds(), 3, "ceil of the mean");
        complete_job(&m, 1000.0, 1000.0);
        assert_eq!(m.retry_after_seconds(), 60, "clamped to a minute");
    }

    #[test]
    fn degraded_store_flips_status_and_readiness() {
        let m = Metrics::default();
        let h = m.healthz_value(&gauges(0, 4, 1), Value::object(), true);
        assert_eq!(h.get("status").and_then(Value::as_str), Some("degraded"));
        assert_eq!(h.get("ready").and_then(Value::as_bool), Some(false));
        assert_eq!(h.get("store_degraded").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn draining_wins_the_status_tiebreak_and_clears_readiness() {
        let m = Metrics::default();
        let mut g = gauges(0, 4, 1);
        g.draining = true;
        let h = m.healthz_value(&g, Value::object(), false);
        assert_eq!(h.get("status").and_then(Value::as_str), Some("draining"));
        assert_eq!(h.get("ready").and_then(Value::as_bool), Some(false));
        // Draining masks degraded in `status` but not in the flag.
        let h = m.healthz_value(&g, Value::object(), true);
        assert_eq!(h.get("status").and_then(Value::as_str), Some("draining"));
        assert_eq!(h.get("store_degraded").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn backlog_estimate_uses_prior_then_measured_rate() {
        let m = Metrics::default();
        assert_eq!(m.estimated_backlog_seconds(), 0.0, "empty backlog");
        m.admit_cost(1_000_000);
        let prior = m.estimated_backlog_seconds();
        assert!(
            (prior - 1.0).abs() < 1e-9,
            "1M units at the 1µs prior ≈ 1s, got {prior}"
        );
        // A measured completion: 500k units in 2s => 4µs per unit.
        m.release_cost(500_000);
        m.observe_cost_rate(500_000, 2.0);
        let measured = m.estimated_backlog_seconds();
        assert!(
            (measured - 2.0).abs() < 1e-6,
            "500k backlog at 4µs/unit ≈ 2s, got {measured}"
        );
        // Releases saturate instead of wrapping.
        m.release_cost(u64::MAX);
        assert_eq!(m.estimated_backlog_seconds(), 0.0);
    }
}
