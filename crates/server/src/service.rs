//! The service itself: listener, bounded job queue, worker pool, routes.
//!
//! Threading model — all std, no async runtime:
//!
//! * the shared HTTP loop (`http::serve`) runs one **acceptor**
//!   thread and a handler thread per connection, **bounded** by
//!   [`ServerConfig::max_connections`]: a connection over the cap (or one
//!   whose handler thread cannot be spawned) is answered `503` +
//!   `Retry-After` inline and closed — shed, never silently dropped. A
//!   handler serves **many requests** over its keep-alive connection
//!   (requests are tiny; job work never runs on a handler) and exits on
//!   `Connection: close`, peer EOF, or the idle timeout;
//! * `workers` long-lived **worker** threads block on the bounded
//!   [`TaskQueue`] and execute jobs through `sspc_api::experiment`. Each
//!   holds a `parallel::WorkerSlot`, so a job's restarts and phases run
//!   on its worker's share of the process's threads;
//! * submissions never block: a full queue answers `503` immediately —
//!   backpressure is the client's signal to slow down — and, with
//!   [`ServerConfig::max_backlog_seconds`] set, submissions are also
//!   **cost-aware**: a job is refused with `503 backlog_exceeded` when
//!   the estimated seconds of work already queued or running exceed the
//!   budget, so one pathologically-huge job cannot hide behind a shallow
//!   queue-depth bound.
//!
//! Job state lives in one [`Store`]: in memory by default, or journaled —
//! to the shard's spool file when [`ServerConfig::spool_dir`] is set (the
//! file the router replays if this shard dies), else to
//! [`ServerConfig::state_dir`] — in which case completed results survive
//! restart bit-identically and interrupted jobs are re-enqueued on
//! startup.
//!
//! # Lifecycle
//!
//! [`Server::shutdown`] stops everything promptly (tests). Operator
//! shutdown goes through the **drain** pair instead:
//! [`Server::begin_drain`] flips the lame-duck state — `/healthz` reports
//! `status: "draining"`, new submissions get `503 shutting_down`, already
//! queued and running jobs keep going — and [`Server::drain`] waits up to
//! a deadline for the queue to empty and the workers to finish before
//! stopping the acceptor. The CLI wires SIGTERM/SIGINT to exactly this
//! pair.

use crate::http::{error_body, Ingress, Request, Service};
use crate::job::{JobOutcome, JobSpec};
use crate::metrics::{Gauges, Metrics};
use crate::router::id_base;
use crate::store::{EvictionPolicy, Store};
use sspc_common::json::Value;
use sspc_common::parallel::{self, PushError, TaskQueue};
use sspc_common::{cancel, Error, Result};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default cap on `GET /jobs` items when the request names none.
pub const DEFAULT_LIST_LIMIT: usize = 100;
/// Hard ceiling on `GET /jobs` items regardless of `?limit=`.
pub const MAX_LIST_LIMIT: usize = 1000;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads executing jobs. `0` is accepted and means *nothing
    /// ever drains the queue* — only useful for backpressure drills.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before submissions get `503`.
    pub queue_capacity: usize,
    /// Maximum concurrently open handler connections; the acceptor
    /// answers connections over the cap with `503` + `Retry-After`
    /// (`reason: connections_exhausted`) inline and closes them.
    pub max_connections: usize,
    /// Admission budget: refuse submissions (`503 backlog_exceeded`)
    /// while the estimated seconds of queued + running work exceed this.
    /// `None` (default) disables cost-aware admission control.
    pub max_backlog_seconds: Option<f64>,
    /// Journal directory for the disk-backed job store of a server
    /// without a spool. `None` (default) keeps jobs in memory only;
    /// `Some(dir)` journals to `<dir>/journal.jsonl`, so results survive
    /// restart and interrupted jobs are re-enqueued on startup. Unused
    /// when [`ServerConfig::spool_dir`] is set: the spool file is then
    /// the journal.
    pub state_dir: Option<PathBuf>,
    /// Evict finished jobs this long after completion (`None`: keep
    /// forever).
    pub result_ttl: Option<Duration>,
    /// Cap the store at this many jobs, evicting oldest-finished first
    /// (`None`: unbounded).
    pub max_jobs: Option<usize>,
    /// This server's shard id when it runs behind the router tier: it is
    /// stamped into the top 16 bits of every job id assigned here (see
    /// [`crate::router::id_base`]), so the router can route `GET
    /// /jobs/<id>` without fan-out. The default `0` leaves single-node
    /// ids exactly as they always were.
    pub shard_id: u16,
    /// Spool directory (see [`crate::router::spool`]). When set, the
    /// store journals to `<spool_dir>/shard-<shard_id>.jsonl` (locked by
    /// `shard-<shard_id>.lock` beside it) in place of
    /// [`ServerConfig::state_dir`]: a restart on it keeps every job, and
    /// the router replays it onto survivors if this process dies. `None`
    /// (default) spools nothing.
    pub spool_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 2,
            queue_capacity: 64,
            max_connections: 256,
            max_backlog_seconds: None,
            state_dir: None,
            result_ttl: None,
            max_jobs: None,
            shard_id: 0,
            spool_dir: None,
        }
    }
}

/// Book-keeping for one job between admission and its terminal state:
/// when it was accepted (latency histograms) and what it is estimated to
/// cost (the admission backlog gauge).
struct Admitted {
    submitted: Instant,
    cost: u64,
}

/// State shared by the acceptor, handlers, and workers.
struct ServerState {
    queue: TaskQueue<u64>,
    store: Store,
    next_id: AtomicU64,
    metrics: Metrics,
    ingress: Ingress,
    /// Lame-duck flag: accept reads, refuse new work, let the queue
    /// empty. Set by [`Server::begin_drain`], never cleared.
    draining: AtomicBool,
    workers: usize,
    /// Worker threads currently inside their loop — `/healthz` compares
    /// this against `workers` to surface a crashed worker (it should
    /// never diverge now that job bodies run under an unwind barrier).
    workers_alive: AtomicUsize,
    max_backlog_seconds: Option<f64>,
    /// Jobs admitted (or recovered) but not yet terminal, keyed by id.
    inflight: Mutex<HashMap<u64, Admitted>>,
    shard_id: u16,
}

impl ServerState {
    fn gauges(&self) -> Gauges {
        Gauges {
            queue_depth: self.queue.len(),
            queue_capacity: self.queue.capacity(),
            workers: self.workers,
            workers_alive: self.workers_alive.load(Ordering::Relaxed),
            job_threads: parallel::job_threads(),
            draining: self.draining.load(Ordering::SeqCst),
            max_backlog_seconds: self.max_backlog_seconds,
            shard: self.shard_id,
        }
    }

    /// Enters a job into the in-flight table and charges its cost to the
    /// admission backlog. `cost == 0` marks a recovered job whose spec
    /// (and hence cost) is only known once a worker begins it.
    fn admit_inflight(&self, id: u64, cost: u64) {
        self.metrics.admit_cost(cost);
        self.inflight.lock().expect("inflight poisoned").insert(
            id,
            Admitted {
                submitted: Instant::now(),
                cost,
            },
        );
    }

    /// A worker began job `id`: records its queue wait and, for recovered
    /// jobs admitted with unknown cost, charges the now-known cost.
    fn note_begin(&self, id: u64, spec: &JobSpec) {
        let mut table = self.inflight.lock().expect("inflight poisoned");
        let entry = table.entry(id).or_insert_with(|| Admitted {
            submitted: Instant::now(),
            cost: 0,
        });
        if entry.cost == 0 {
            entry.cost = spec.cost_units();
            self.metrics.admit_cost(entry.cost);
        }
        self.metrics.record_queue_wait(entry.submitted.elapsed());
    }

    /// Job `id` reached a terminal state (or vanished): releases its cost
    /// from the backlog, records end-to-end latency, and — on success —
    /// feeds the measured cost rate. `busy_seconds` is `None` for jobs
    /// that never ran (forgotten or vanished).
    fn finish_inflight(&self, id: u64, busy_seconds: Option<f64>) {
        let entry = self.inflight.lock().expect("inflight poisoned").remove(&id);
        let Some(entry) = entry else { return };
        self.metrics.release_cost(entry.cost);
        if let Some(busy) = busy_seconds {
            self.metrics.record_job_latency(entry.submitted.elapsed());
            self.metrics.observe_cost_rate(entry.cost, busy);
        }
    }
}

/// A running batch service; dropping the handle does **not** stop it —
/// call [`Server::shutdown`] (tests), [`Server::begin_drain`] +
/// [`Server::drain`] (operator shutdown), or [`Server::wait`] (the CLI).
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the service (acceptor + worker pool), opening —
    /// and, with a journal, replaying — the job store first. Jobs that
    /// were `queued`/`running` when a previous process died are
    /// re-enqueued before the listener starts accepting.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] when the address cannot be bound or
    /// the journal cannot be opened/replayed.
    pub fn start(config: &ServerConfig) -> Result<Server> {
        let policy = EvictionPolicy {
            result_ttl: config.result_ttl,
            max_jobs: config.max_jobs,
        };
        let recovery = Store::open(
            policy,
            config.state_dir.as_deref(),
            config
                .spool_dir
                .as_deref()
                .map(|dir| (dir, config.shard_id)),
        )?;

        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| Error::InvalidParameter(format!("cannot bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::InvalidParameter(format!("local_addr: {e}")))?;
        // Job ids start just above this shard's id-space base, so every
        // id this process assigns routes back here by its prefix. A
        // journal's recovered counter wins when it is already past the
        // base (same shard restarting); the clamp matters for a new
        // journal, or a state dir first adopted by a non-zero shard id.
        let next_id = recovery.next_id.max(id_base(config.shard_id) + 1);
        let state = Arc::new(ServerState {
            queue: TaskQueue::bounded(config.queue_capacity),
            store: recovery.store,
            next_id: AtomicU64::new(next_id),
            metrics: Metrics::default(),
            ingress: Ingress::new(config.max_connections),
            draining: AtomicBool::new(false),
            workers: config.workers,
            workers_alive: AtomicUsize::new(0),
            max_backlog_seconds: config.max_backlog_seconds,
            inflight: Mutex::new(HashMap::new()),
            shard_id: config.shard_id,
        });

        // Re-enqueue interrupted work before anything else can fill the
        // queue. A recovery larger than the queue fails the overflow
        // loudly rather than dropping it silently. Recovered jobs enter
        // the in-flight table with cost 0 (their spec — and cost — is
        // looked up when a worker begins them).
        for id in recovery.pending {
            state.metrics.record_recovered();
            if state.queue.try_push(id).is_err() {
                state
                    .store
                    .fail(id, "recovery: job queue full, not re-enqueued".into());
                state.metrics.record_failed();
            } else {
                state.admit_inflight(id, 0);
            }
        }

        let workers = (0..config.workers)
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("sspc-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("spawn worker")
            })
            .collect();

        let acceptor = crate::http::serve("sspc", listener, Arc::clone(&state))?;

        Ok(Server {
            addr,
            state,
            acceptor,
            workers,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the acceptor exits — i.e. forever, short of a
    /// [`Server::shutdown`] from another thread or process death.
    pub fn wait(self) {
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
    }

    /// Flips the server into its lame-duck state: `/healthz` reports
    /// `status: "draining"` (`ready: false`), new submissions are refused
    /// with `503 reason: shutting_down`, and the job queue is closed so
    /// workers exit once the already-admitted work is done. Status and
    /// result reads keep being served. Idempotent; there is no way back.
    pub fn begin_drain(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
        self.state.queue.close();
    }

    /// Waits up to `timeout` for the drain started by
    /// [`Server::begin_drain`] to complete — queue empty and every worker
    /// out of its loop — then stops the acceptor and returns whether the
    /// drain finished in time. On `false`, worker threads may still be
    /// mid-job; their handles are dropped (not joined), so the caller can
    /// exit without waiting on them. With a journal it is consistent
    /// either way — an unfinished job is simply re-enqueued by the next
    /// boot's replay.
    #[must_use = "a false return means workers were still running at the deadline"]
    pub fn drain(self, timeout: Duration) -> bool {
        self.begin_drain();
        let deadline = Instant::now() + timeout;
        // Workers only leave their loop once the closed queue is empty,
        // so `workers_alive == 0` alone means all admitted work finished
        // (or there never were workers — then nothing is mid-job either;
        // a journal re-enqueues the stranded queue on the next boot).
        let drained = loop {
            if self.state.workers_alive.load(Ordering::Relaxed) == 0 {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        self.state.ingress.stop(self.addr);
        let _ = self.acceptor.join();
        if drained {
            for w in self.workers {
                let _ = w.join();
            }
        }
        drained
    }

    /// Stops accepting, drains queued jobs, and joins the acceptor and
    /// workers. The prompt path for tests; operators use
    /// [`Server::begin_drain`] + [`Server::drain`].
    pub fn shutdown(self) {
        self.state.queue.close();
        self.state.ingress.stop(self.addr);
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn worker_loop(state: &ServerState) {
    // Each job runs with this worker's share of the process's threads.
    let _slot = parallel::register_worker();
    state.workers_alive.fetch_add(1, Ordering::Relaxed);
    // Keep the gauge honest even if something ever unwinds past the
    // per-job barrier below (a panicking Drop, a non-unwind-safe bug).
    struct AliveGuard<'a>(&'a AtomicUsize);
    impl Drop for AliveGuard<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let _alive = AliveGuard(&state.workers_alive);

    while let Some(id) = state.queue.pop() {
        // `begin` marks the job running; None means it vanished (evicted
        // or forgotten) between push and pop.
        let Some(spec) = state.store.begin(id) else {
            state.finish_inflight(id, None);
            continue;
        };
        state.note_begin(id, &spec);
        let started = Instant::now();
        let outcome = run_isolated(&spec);
        let seconds = started.elapsed().as_secs_f64();
        match outcome {
            Ok(Ok(outcome)) => {
                state.metrics.record_completed(&outcome.throughput);
                state.store.complete(id, outcome.result, seconds);
                state.finish_inflight(id, Some(seconds));
            }
            Ok(Err(e)) => {
                if matches!(e, Error::DeadlineExceeded(_)) {
                    state.metrics.record_deadline_exceeded();
                }
                state.metrics.record_failed();
                state.store.fail(id, e.to_string());
                // A failure still ends the job's latency story, but its
                // (truncated) busy time must not feed the cost-rate
                // estimator.
                state.metrics.record_job_latency(started.elapsed());
                state.finish_inflight(id, None);
            }
            Err(message) => {
                state.metrics.record_panicked();
                state.metrics.record_failed();
                state.store.fail(id, message);
                state.metrics.record_job_latency(started.elapsed());
                state.finish_inflight(id, None);
            }
        }
    }
}

/// Runs one job body inside its own failure domain: a `timeout_secs`
/// spec installs a cooperative deadline for the duration, and a panic in
/// the clusterer is caught at this barrier — the worker thread survives
/// and the panic payload becomes the job's error (`Err(message)`).
fn run_isolated(spec: &JobSpec) -> std::result::Result<Result<JobOutcome>, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _deadline = spec
            .timeout_secs
            .and_then(|secs| Duration::try_from_secs_f64(secs).ok())
            .and_then(|timeout| Instant::now().checked_add(timeout))
            .map(cancel::deadline_guard);
        spec.execute()
    }))
    .map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("opaque panic payload");
        format!("job panicked: {message}")
    })
}

impl Service for ServerState {
    type Conn = ();

    fn ingress(&self) -> &Ingress {
        &self.ingress
    }

    fn route(&self, (): &mut (), request: &Request) -> (u16, Value, Option<u64>) {
        let (status, body) = match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/jobs") => submit_job(&request.body, self),
            ("GET", "/jobs") => list_jobs(request, self),
            ("GET", path) if path.starts_with("/jobs/") => get_job(path, self),
            ("GET", "/healthz") => (
                200,
                self.ingress.render(self.metrics.healthz_value(
                    &self.gauges(),
                    self.store.stats(),
                    self.store.degraded(),
                )),
            ),
            (_, "/jobs" | "/healthz") => (405, error_body("method not allowed")),
            (_, path) if path.starts_with("/jobs/") => (405, error_body("method not allowed")),
            _ => (404, error_body("no such endpoint")),
        };
        (status, body, None)
    }

    /// The mean job seconds observed so far.
    fn retry_after(&self) -> u64 {
        self.metrics.retry_after_seconds()
    }
}

fn submit_job(body: &[u8], state: &ServerState) -> (u16, Value) {
    // Lame duck first: during a drain nothing new is admitted, however
    // well-formed. Same `reason` as the closed-queue race below — clients
    // treat both as "this server is going away, find another".
    if state.draining.load(Ordering::SeqCst) {
        state.metrics.record_rejected_draining();
        return (
            503,
            error_body("server is draining; not accepting new jobs")
                .with("reason", "shutting_down"),
        );
    }

    let parsed = std::str::from_utf8(body)
        .map_err(|_| Error::InvalidParameter("body is not UTF-8".into()))
        .and_then(Value::parse)
        .and_then(|raw| JobSpec::from_json(&raw).map(|spec| (spec, raw)));
    let (spec, raw) = match parsed {
        Ok(pair) => pair,
        Err(e) => {
            state.metrics.record_rejected_invalid();
            return (400, error_body(e.to_string()));
        }
    };

    // A degraded (read-only) store refuses submissions up front; 503
    // rather than 500 because a restarted (repaired) server will accept
    // the same job — `reason` tells retrying clients NOT to bother until
    // then.
    if state.store.degraded() {
        return (
            503,
            error_body("job store is degraded (a journal write failed); submissions disabled")
                .with("reason", "store_degraded"),
        );
    }

    // Cost-aware admission: when the estimated seconds of work already
    // queued or running exceed the budget, shed before burning an id or
    // a journal write. Like `queue_full`, the job provably left no trace,
    // so a client may retry this one safely.
    if let Some(budget) = state.max_backlog_seconds {
        let estimate = state.metrics.estimated_backlog_seconds();
        if estimate > budget {
            state.metrics.record_rejected_backlog();
            return (
                503,
                error_body(format!(
                    "estimated backlog {estimate:.3}s exceeds the {budget:.3}s budget, \
                     retry later"
                ))
                .with("reason", "backlog_exceeded")
                .with("estimated_backlog_seconds", estimate)
                .with("max_backlog_seconds", budget),
            );
        }
    }

    let cost = spec.cost_units();
    let id = state.next_id.fetch_add(1, Ordering::SeqCst);
    // Insert (journal) before enqueueing so a fast worker always finds
    // the record, and so the `submit` line lands before the 202: a shard
    // killed at any point past here owes the router nothing its spool
    // cannot replay. A refused push forgets the job again. The in-flight entry goes in before the push for the same
    // reason — a worker that pops the id immediately must find the
    // admission timestamp.
    if let Err(e) = state.store.insert(id, spec, raw) {
        // An insert that degraded the store mid-flight is the same 503;
        // anything else is a plain server error.
        if state.store.degraded() {
            return (
                503,
                error_body(format!("job store: {e}")).with("reason", "store_degraded"),
            );
        }
        return (500, error_body(format!("job store: {e}")));
    }
    state.admit_inflight(id, cost);
    match state.queue.try_push(id) {
        Ok(depth) => {
            state.metrics.record_submitted();
            (
                202,
                Value::object()
                    .with("job", id)
                    .with("status", "queued")
                    .with("queue_depth", depth),
            )
        }
        Err(refusal) => {
            // Voids the admission in the journal — the client gets a
            // 503, so the router is owed nothing for it.
            state.store.forget(id);
            state.finish_inflight(id, None);
            match refusal {
                PushError::Full(_) => {
                    state.metrics.record_rejected_full();
                    // `reason: queue_full` is the one 503 a client may
                    // safely retry: the job was provably not admitted
                    // (we just forgot it).
                    (
                        503,
                        error_body("queue full, retry later")
                            .with("reason", "queue_full")
                            .with("queue_depth", state.queue.len())
                            .with("queue_capacity", state.queue.capacity()),
                    )
                }
                PushError::Closed(_) => (
                    503,
                    error_body("server is shutting down").with("reason", "shutting_down"),
                ),
            }
        }
    }
}

fn get_job(path: &str, state: &ServerState) -> (u16, Value) {
    let id_text = &path["/jobs/".len()..];
    let Ok(id) = id_text.parse::<u64>() else {
        return (404, error_body(format!("bad job id `{id_text}`")));
    };
    match state.store.get(id) {
        Some(doc) => {
            // During a drain with no workers left, a still-queued job can
            // provably never run in this process's lifetime. Saying so
            // (`503 shutting_down`) lets pollers fail fast instead of
            // burning their backoff budget against a terminal wait.
            if state.draining.load(Ordering::SeqCst)
                && doc.get("status").and_then(Value::as_str) == Some("queued")
                && state.workers_alive.load(Ordering::Relaxed) == 0
            {
                return (
                    503,
                    error_body(format!(
                        "server is draining; queued job {id} will not run here"
                    ))
                    .with("reason", "shutting_down")
                    .with("job", id),
                );
            }
            (200, doc)
        }
        None => (404, error_body(format!("no job {id}"))),
    }
}

const STATUS_NAMES: [&str; 4] = ["queued", "running", "done", "failed"];

/// Parses the `GET /jobs` query, `?status=NAME&limit=N`, for shard and
/// router alike: the status filter and the capped limit, or the message
/// of the `400` a bad query earns.
pub(crate) fn list_query(
    query: &[(String, String)],
) -> std::result::Result<(Option<&str>, usize), String> {
    let mut status = None;
    let mut limit = DEFAULT_LIST_LIMIT;
    for (key, value) in query {
        match key.as_str() {
            "status" => {
                if !STATUS_NAMES.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown status `{value}` (one of: {})",
                        STATUS_NAMES.join(", ")
                    ));
                }
                status = Some(value.as_str());
            }
            "limit" => match value.parse::<usize>() {
                Ok(n) => limit = n.min(MAX_LIST_LIMIT),
                Err(_) => return Err(format!("bad limit `{value}`")),
            },
            other => {
                return Err(format!(
                    "unknown query parameter `{other}` (accepted: status, limit)"
                ))
            }
        }
    }
    Ok((status, limit))
}

/// `GET /jobs[?status=NAME][&limit=N]` — summaries newest first, capped
/// so listing a long-lived store stays bounded. `total` reports the
/// matching count before the cap.
fn list_jobs(request: &Request, state: &ServerState) -> (u16, Value) {
    let (status, limit) = match list_query(&request.query) {
        Ok(parsed) => parsed,
        Err(message) => return (400, error_body(message)),
    };
    let (total, items) = state.store.list(status, limit);
    (
        200,
        Value::object().with("jobs", items).with("total", total),
    )
}
