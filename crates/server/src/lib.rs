//! `sspc-server` — a batch experiment service over the `sspc-api`
//! registry.
//!
//! The paper's Sec. 5 protocol (seeded restarts, best-of selection,
//! algorithm comparison) is a batch workload; this crate serves it over
//! plain TCP/JSON with **no dependencies beyond the workspace**: a
//! `std::net::TcpListener` acceptor serving keep-alive connections
//! (`http::serve`, the one HTTP loop shard and router share), a
//! bounded [`TaskQueue`](sspc_common::parallel::TaskQueue) of jobs, and a
//! pool of worker threads that execute each job through
//! [`sspc_api::experiment`] — the same code path as the CLI and the bench
//! harness, so a result fetched over the wire is the result an in-process
//! call would produce (numbers travel in shortest-roundtrip JSON and parse
//! back bit-identically).
//!
//! Job state lives in one [`store::Store`], which encodes each transition
//! once and appends it to one journal file: none by default (memory
//! only), `<state_dir>/journal.jsonl` ([`ServerConfig::state_dir`]), or,
//! for a shard behind the router, its spool file
//! ([`ServerConfig::spool_dir`]), which the router also replays. With a
//! journal, completed results survive restart **bit-identically** and
//! interrupted jobs re-run. Finished jobs can be evicted by TTL
//! ([`ServerConfig::result_ttl`]) or a store cap
//! ([`ServerConfig::max_jobs`]).
//!
//! # Endpoints
//!
//! | method & path   | answer |
//! |-----------------|--------|
//! | `POST /jobs`    | `202 {"job": id, "queue_depth": …}` — or `400` (invalid job), `503` (queue full / backlog exceeded / draining: backpressure) |
//! | `GET /jobs/<id>`| job status; `result` once `done`, `error` once `failed`; `404` once evicted |
//! | `GET /jobs`     | job summaries, newest first, `?status=` filter, `?limit=` cap (default 100), plus `total` |
//! | `GET /healthz`  | queue depth/capacity, job/connection counters, latency percentiles, store stats (kind, held jobs, evictions), per-algorithm throughput |
//!
//! See [`job::JobSpec::from_json`] for the job schema. Connections are
//! HTTP/1.1 keep-alive (`Content-Length`-framed both ways, `Connection:
//! close` honored, idle timeout); the [`client::Client`] reuses one
//! socket across submissions and polls.
//!
//! # Failure domains
//!
//! Each job body runs under an unwind barrier (a panicking clusterer
//! fails the job, not the worker), `timeout_secs` installs a cooperative
//! deadline ([`sspc_common::cancel`]), a runtime journal-write failure
//! degrades the store to read-only instead of crashing the process,
//! and every `503` carries a `Retry-After` hint honored by the client's
//! jittered backoff ([`backoff::Backoff`]). The named fault points wired
//! through these layers ([`FAULT_POINTS`], [`sspc_common::fault`]) let a
//! harness crash a real server at each of them deterministically — see
//! `docs/ARCHITECTURE.md` § "Failure domains".
//!
//! # Overload & lifecycle
//!
//! Ingress is bounded end to end: the acceptor (shard and router alike)
//! sheds connections over [`ServerConfig::max_connections`] with an
//! inline `503` + `Retry-After` (never a silent drop), the queue bounds
//! accepted-but-unstarted jobs, and
//! [`ServerConfig::max_backlog_seconds`] adds **cost-aware** admission —
//! submissions are refused while the estimated seconds of queued +
//! running work exceed the budget.
//! Queue-wait and end-to-end job latency flow into allocation-free
//! log-linear histograms ([`sspc_common::hist`]); `/healthz` reports
//! their p50/p95/p99. [`Server::begin_drain`] + [`Server::drain`]
//! implement lame-duck shutdown (SIGTERM in the CLI), and [`loadgen`] is
//! the open-loop generator that soaks all of it — see
//! `docs/ARCHITECTURE.md` § "Overload & lifecycle".
//!
//! # Sharding
//!
//! [`router::Router`] is a thin proxy tier fronting N shard processes
//! (`serve --shard-id N --spool-dir …`), speaking the same protocol as a
//! single shard: a deterministic consistent-hash ring
//! ([`router::ring::Ring`]) spreads submissions, job ids carry their
//! shard in the top 16 bits so status reads route without fan-out,
//! `/healthz` and `GET /jobs` fan in across the fleet, and a dead
//! shard's spool ([`router::spool`], its store's journal) is replayed
//! onto survivors so every `202`-acked job still completes — see
//! `docs/ARCHITECTURE.md` § "Sharding".
//!
//! # Example
//!
//! A complete round trip on a loopback socket — start, submit a
//! generated-dataset comparison, poll to completion, shut down:
//!
//! ```
//! use sspc_common::json::Value;
//! use sspc_server::{client, Server, ServerConfig};
//! use std::time::Duration;
//!
//! let server = Server::start(&ServerConfig {
//!     addr: "127.0.0.1:0".into(), // free port; server.addr() resolves it
//!     workers: 1,
//!     queue_capacity: 8,
//!     ..Default::default()        // in-memory store, no eviction
//! }).unwrap();
//! let addr = server.addr().to_string();
//!
//! let job = Value::object()
//!     .with("k", 2u64)
//!     .with("dataset", Value::object().with(
//!         "generate",
//!         Value::object().with("n", 40u64).with("d", 8u64)
//!             .with("dims", 4u64).with("seed", 3u64),
//!     ))
//!     .with("algorithms", "clarans,harp")
//!     .with("runs", 2u64)
//!     .with("truth", true);
//!
//! let id = client::submit(&addr, &job).unwrap();
//! let done = client::wait_for(
//!     &addr, id, Duration::from_millis(20), Duration::from_secs(30),
//! ).unwrap();
//! assert_eq!(done.get("status").and_then(Value::as_str), Some("done"));
//! let reports = done.get("result").unwrap().get("reports").unwrap();
//! assert_eq!(reports.as_array().unwrap().len(), 2);
//!
//! let health = client::healthz(&addr).unwrap();
//! assert_eq!(
//!     health.get("jobs").unwrap().get("completed").and_then(Value::as_u64),
//!     Some(1),
//! );
//! server.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backoff;
pub mod client;
pub mod http;
pub mod job;
pub mod loadgen;
pub mod metrics;
pub mod router;
mod service;
pub mod store;

pub use job::{JobKind, JobSpec};
pub use router::{Router, RouterConfig};
pub use service::{Server, ServerConfig};
pub use store::{EvictionPolicy, Store};

/// Every named fault point the server stack registers with
/// [`sspc_common::fault`], boot-time points first — the sweep list for
/// crash-torture harnesses. Keep in sync with the `fault::point` call
/// sites (the torture test exercises each entry).
pub const FAULT_POINTS: &[&str] = &[
    "journal.compact",   // Store::open, before boot compaction
    "io.atomic_replace", // sspc_common::io::write_atomic
    "journal.append",    // Store journal appends (submit/done/failed/evict)
    "http.response",     // every response write
    "job.execute",       // top of JobSpec::execute on a worker
];

/// Fault points that only fire inside the **router** process (spool
/// moves and membership cutovers) — kept separate from [`FAULT_POINTS`]
/// because the single-server crash-torture sweep would hang waiting on
/// points that a `serve` process never reaches. The membership crash
/// sweep in `crash_torture.rs` arms these against a `route` process
/// instead, during a graceful leave.
pub const ROUTER_FAULT_POINTS: &[&str] = &[
    "handoff.stream",  // once per spool record a failover or graceful leave moves
    "handoff.cutover", // before a join, leave or rejoin flips the ring
];
