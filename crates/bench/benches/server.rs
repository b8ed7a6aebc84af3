//! Batch-service throughput benchmark: jobs/sec through the full stack —
//! HTTP submission over a real loopback socket (keep-alive: the driver
//! reuses one connection for submits and another per poller), the
//! consistent-hash router tier, the bounded queue, the worker pool,
//! `sspc_api::experiment` execution, and result polling — router-fronted
//! at 1, 2 and 4 shards (one worker each, so the sweep isolates the
//! *sharding* axis), for **both job stores**: the in-memory map and the
//! fsynced disk journal. The memory-vs-disk delta at equal shards is the
//! measured persistence overhead; the 1-shard point is the single-shard
//! baseline the multi-shard points are judged against. A final
//! **dynamic-membership point** submits the batch to 2 shards and joins
//! a third at runtime (`joined_at_runtime: true` in the record). The join
//! is a cutover: the batch stays on the two shards that acked it, so the
//! point prices the join against the static 2-shard neighbour. Its shards
//! run with a spool and no state dir; a spool is a shard's fsynced
//! journal, so the point is a disk-store point (`store: "disk"`) and
//! compares against the disk neighbours.
//!
//! Per-job intra-algorithm parallelism is pinned to one thread
//! (`SSPC_NUM_THREADS=1`); `threads`/`cores` are recorded like
//! `BENCH_hotloop.json` does so multi-core re-baselines stay
//! interpretable — on a single-core box the closed-loop sweep mostly
//! measures router overhead, while the open-loop shard sweep in
//! `loadgen.rs` shows the admission-capacity gain. The record is
//! appended to `BENCH_server.json` in the workspace root.
//!
//! Environment knobs:
//!
//! * `SERVER_BENCH_JOBS` — jobs per sweep point (default 24);
//! * `SERVER_BENCH_N` / `SERVER_BENCH_D` / `SERVER_BENCH_K` — per-job
//!   workload shape (default 200 × 20, k = 3);
//! * `SERVER_SMOKE=1` — 8 jobs of 80 × 10 for CI smoke runs;
//! * `BENCH_SERVER_OUT` — output path for the JSON record.

use sspc_common::json::Value;
use sspc_server::client::Client;
use sspc_server::{Router, RouterConfig, Server, ServerConfig};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Workload {
    jobs: usize,
    n: usize,
    d: usize,
    k: usize,
    dims: usize,
    runs: usize,
    algorithms: &'static str,
}

/// One sweep point: a fresh router over `shards` one-worker shard
/// servers with the given store, `jobs` jobs submitted up front through
/// the router, wall-clock measured to the last completion.
fn measure(shards: usize, state_root: Option<&PathBuf>, w: &Workload) -> (f64, f64) {
    let mut servers = Vec::new();
    let mut roster = Vec::new();
    for shard in 0..shards as u16 {
        let state_dir = state_root.map(|root| root.join(format!("shard-{shard}")));
        if let Some(dir) = &state_dir {
            let _ = std::fs::remove_dir_all(dir); // fresh journal per point
        }
        let server = Server::start(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: w.jobs + 8,
            state_dir,
            shard_id: shard,
            ..Default::default()
        })
        .expect("bind loopback");
        roster.push((shard, server.addr().to_string()));
        servers.push(server);
    }
    let router = Router::start(&RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: roster,
        ..Default::default()
    })
    .expect("bind router");
    let addr = router.addr().to_string();
    let mut client = Client::new(&addr);

    let started = Instant::now();
    let ids: Vec<u64> = (0..w.jobs)
        .map(|i| {
            let job = Value::object()
                .with("k", w.k as u64)
                .with(
                    "dataset",
                    Value::object().with(
                        "generate",
                        Value::object()
                            .with("n", w.n as u64)
                            .with("d", w.d as u64)
                            .with("dims", w.dims as u64)
                            // A different dataset per job: no accidental
                            // sharing of anything between jobs.
                            .with("seed", i as u64 + 1),
                    ),
                )
                .with("algorithms", w.algorithms)
                .with("runs", w.runs as u64)
                .with("seed", 1u64)
                .with("truth", true);
            client.submit(&job).expect("submit")
        })
        .collect();
    for id in ids {
        let done = client
            .wait_for(id, Duration::from_millis(5), Duration::from_secs(600))
            .expect("job finishes");
        assert_eq!(
            done.get("status").and_then(Value::as_str),
            Some("done"),
            "job {id} failed: {done}"
        );
    }
    let seconds = started.elapsed().as_secs_f64();
    drop(client);
    router.shutdown();
    for server in servers {
        server.shutdown();
    }
    if let Some(root) = state_root {
        let _ = std::fs::remove_dir_all(root);
    }
    (seconds, w.jobs as f64 / seconds)
}

/// The dynamic-membership point: the full batch submitted to a 2-shard
/// router, then a **third shard joined at runtime** while the queues are
/// still deep. Every acked job stays on the shard that acked it. Returns
/// the wall-clock measurement plus the router's join summary.
fn measure_runtime_join(w: &Workload) -> (f64, f64, Value) {
    let spool = std::env::temp_dir().join(format!("sspc_bench_join_spool_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let mut servers = Vec::new();
    let mut roster = Vec::new();
    for shard in 0..2u16 {
        let server = Server::start(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: w.jobs + 8,
            shard_id: shard,
            spool_dir: Some(spool.clone()),
            ..Default::default()
        })
        .expect("bind loopback");
        roster.push((shard, server.addr().to_string()));
        servers.push(server);
    }
    let router = Router::start(&RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: roster,
        spool_dir: Some(spool.clone()),
        ..Default::default()
    })
    .expect("bind router");
    let mut client = Client::new(router.addr().to_string());

    let started = Instant::now();
    let ids: Vec<u64> = (0..w.jobs)
        .map(|i| {
            let job = Value::object()
                .with("k", w.k as u64)
                .with(
                    "dataset",
                    Value::object().with(
                        "generate",
                        Value::object()
                            .with("n", w.n as u64)
                            .with("d", w.d as u64)
                            .with("dims", w.dims as u64)
                            .with("seed", i as u64 + 1),
                    ),
                )
                .with("algorithms", w.algorithms)
                .with("runs", w.runs as u64)
                .with("seed", 1u64)
                .with("truth", true);
            client.submit(&job).expect("submit")
        })
        .collect();
    // Join while the batch is still pending; none of it moves.
    let joiner = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: w.jobs + 8,
        shard_id: 2,
        spool_dir: Some(spool.clone()),
        ..Default::default()
    })
    .expect("bind joiner");
    let join = client
        .add_shard(2, &joiner.addr().to_string())
        .expect("runtime join mid-batch");
    servers.push(joiner);
    for id in ids {
        let done = client
            .wait_for(id, Duration::from_millis(5), Duration::from_secs(600))
            .expect("job finishes");
        assert_eq!(
            done.get("status").and_then(Value::as_str),
            Some("done"),
            "job {id} failed: {done}"
        );
    }
    let seconds = started.elapsed().as_secs_f64();
    drop(client);
    router.shutdown();
    for server in servers {
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&spool);
    (seconds, w.jobs as f64 / seconds, join)
}

fn main() {
    let smoke = std::env::var("SERVER_SMOKE").is_ok_and(|v| v == "1");
    // Pin per-job parallelism so the sweep measures the shard axis.
    std::env::set_var("SSPC_NUM_THREADS", "1");
    let w = if smoke {
        Workload {
            jobs: 8,
            n: 80,
            d: 10,
            k: 2,
            dims: 4,
            runs: 2,
            algorithms: "clarans,harp",
        }
    } else {
        Workload {
            jobs: env_usize("SERVER_BENCH_JOBS", 24),
            n: env_usize("SERVER_BENCH_N", 200),
            d: env_usize("SERVER_BENCH_D", 20),
            k: env_usize("SERVER_BENCH_K", 3),
            dims: 6,
            runs: 2,
            algorithms: "clarans,harp",
        }
    };

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let disk_root = std::env::temp_dir().join(format!("sspc_bench_state_{}", std::process::id()));
    let mut sweep = Vec::new();
    for (store, state_root) in [("memory", None), ("disk", Some(&disk_root))] {
        for shards in [1usize, 2, 4] {
            let (seconds, jobs_per_sec) = measure(shards, state_root, &w);
            println!(
                "server bench: {store:6} store  {shards:2} shards  {} jobs in {seconds:.3}s  \
                 ({jobs_per_sec:.1} jobs/s)",
                w.jobs
            );
            sweep.push(
                Value::object()
                    .with("store", store)
                    .with("shards", shards)
                    .with("workers_per_shard", 1u64)
                    .with("seconds", (seconds * 1e6).round() / 1e6)
                    .with("jobs_per_sec", (jobs_per_sec * 1e3).round() / 1e3),
            );
        }
    }
    // The dynamic-membership point: 2 shards grow to 3 mid-batch through
    // the admin join, priced against the static 2- and 4-shard disk
    // neighbours (each shard's spool is its journal).
    {
        let (seconds, jobs_per_sec, join) = measure_runtime_join(&w);
        println!(
            "server bench: disk   store  2+1 shards  {} jobs in {seconds:.3}s  \
             ({jobs_per_sec:.1} jobs/s)",
            w.jobs
        );
        sweep.push(
            Value::object()
                .with("store", "disk")
                .with("shards", 3u64)
                .with("workers_per_shard", 1u64)
                .with("joined_at_runtime", true)
                .with("join", join)
                .with("seconds", (seconds * 1e6).round() / 1e6)
                .with("jobs_per_sec", (jobs_per_sec * 1e3).round() / 1e3),
        );
    }

    let record = Value::object()
        .with("bench", "server")
        .with("smoke", smoke)
        .with("jobs", w.jobs)
        .with("n", w.n)
        .with("d", w.d)
        .with("k", w.k)
        .with("algorithms", w.algorithms)
        .with("runs_per_algorithm", w.runs)
        // The *resolved* per-job worker count (pinned via SSPC_NUM_THREADS
        // above) — read back from sspc_common::parallel instead of echoed,
        // so the record can never silently disagree with what jobs did.
        .with("threads", sspc_common::parallel::num_threads() as u64)
        .with("cores", cores)
        .with("sweep", sweep);

    let out_path = std::env::var("BENCH_SERVER_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_server.json", env!("CARGO_MANIFEST_DIR")));
    // Checked serialization: the trajectory tooling parses these records
    // back, so a non-finite number must fail the bench, not degrade to
    // null silently.
    let line = record
        .to_string_checked()
        .expect("bench record contains a non-finite number");
    use std::io::Write;
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
        .and_then(|mut f| writeln!(f, "{line}"))
    {
        Ok(()) => eprintln!("server bench: appended record to {out_path}"),
        Err(e) => eprintln!("server bench: could not write {out_path}: {e}"),
    }
}
