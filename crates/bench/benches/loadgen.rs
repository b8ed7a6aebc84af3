//! Open-loop load-generator benchmark: drives the batch service with the
//! `sspc_server::loadgen` traces — steady Poisson arrivals and a burst
//! pattern that deliberately overruns the queue — and records what the
//! service did under pressure: acked throughput, the submit/e2e latency
//! percentiles (from the allocation-free log-linear histograms), and the
//! full 503 taxonomy. Unlike `server.rs` (closed-loop capacity sweep),
//! this measures behavior at *offered* load the server did not choose.
//!
//! The **shard sweep** drives the same overload arrivals through the
//! consistent-hash router at 1, 2 and 4 one-worker shards (each with the
//! same shallow queue and the spool enabled, i.e. the recommended
//! multi-node deployment): aggregate admission capacity grows with the
//! fleet, so the acked throughput at a fixed offered rate rises with the
//! shard count — the 1-shard point is the single-shard baseline.
//!
//! The **rebalance leg** repeats the 2-shard overload point with a third
//! shard joined *mid-trace* through `POST /admin/shards`: the record
//! carries the join's own summary next to the trace report, so the
//! in-flight e2e p99 across a runtime join is directly comparable to the
//! static `router_shards_2` point.
//!
//! Environment knobs:
//!
//! * `LOADGEN_BENCH_JOBS` — jobs per trace (default 200);
//! * `LOADGEN_BENCH_RATE` — Poisson rate in jobs/s (default 100);
//! * `SERVER_SMOKE=1` — 40 jobs at 50/s for CI smoke runs;
//! * `BENCH_SERVER_OUT` — output path for the JSON record (defaults to
//!   the workspace-root `BENCH_server.json`).

use sspc_common::json::Value;
use sspc_server::client::Client;
use sspc_server::loadgen::{run, LoadgenConfig, Pattern};
use sspc_server::{Router, RouterConfig, Server, ServerConfig};
use std::time::Duration;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One trace against a fresh server; returns the report as a JSON value
/// plus the console line.
fn trace(label: &str, workers: usize, queue_capacity: usize, config: &LoadgenConfig) -> Value {
    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity,
        ..Default::default()
    })
    .expect("bind loopback");
    let config = LoadgenConfig {
        addr: server.addr().to_string(),
        ..config.clone()
    };
    let report = run(&config).expect("loadgen trace");
    println!(
        "loadgen bench: {label:18} {}/{} acked ({:.1}/s), {} rejected {:?}, \
         submit p50/p99 {:.2}/{:.2}ms, e2e p50/p99 {:.1}/{:.1}ms",
        report.acked.len(),
        report.attempted,
        report.acked_per_second,
        report.rejected_total(),
        report.rejected,
        report.submit_latency.quantile(0.50).unwrap_or(0) as f64 / 1e3,
        report.submit_latency.quantile(0.99).unwrap_or(0) as f64 / 1e3,
        report.e2e_latency.quantile(0.50).unwrap_or(0) as f64 / 1e3,
        report.e2e_latency.quantile(0.99).unwrap_or(0) as f64 / 1e3,
    );
    assert_eq!(
        report.acked.len() as u64 + report.rejected_total(),
        report.attempted as u64,
        "{label}: every submission must be accounted for"
    );
    assert_eq!(
        report.unfinished,
        Vec::<u64>::new(),
        "{label}: every acked job must reach a terminal state"
    );
    server.shutdown();
    Value::object()
        .with("trace", label)
        .with("workers", workers)
        .with("queue_capacity", queue_capacity)
        .with("report", report.to_value())
}

/// One router-fronted trace: `shards` one-worker shard servers (each
/// with its own `queue_capacity`-deep queue and the spool enabled)
/// behind a consistent-hash router, the arrivals offered to the router.
fn shard_trace(shards: usize, queue_capacity: usize, config: &LoadgenConfig) -> Value {
    let spool = std::env::temp_dir().join(format!(
        "sspc_loadgen_spool_{}_{shards}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&spool);
    let mut servers = Vec::new();
    let mut roster = Vec::new();
    for shard in 0..shards as u16 {
        let server = Server::start(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity,
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
    let config = LoadgenConfig {
        addr: router.addr().to_string(),
        ..config.clone()
    };
    let label = format!("router_shards_{shards}");
    let report = run(&config).expect("loadgen trace");
    println!(
        "loadgen bench: {label:18} {}/{} acked ({:.1}/s), {} rejected {:?}, \
         e2e p50/p99 {:.1}/{:.1}ms",
        report.acked.len(),
        report.attempted,
        report.acked_per_second,
        report.rejected_total(),
        report.rejected,
        report.e2e_latency.quantile(0.50).unwrap_or(0) as f64 / 1e3,
        report.e2e_latency.quantile(0.99).unwrap_or(0) as f64 / 1e3,
    );
    assert_eq!(
        report.acked.len() as u64 + report.rejected_total(),
        report.attempted as u64,
        "{label}: every submission must be accounted for"
    );
    assert_eq!(
        report.unfinished,
        Vec::<u64>::new(),
        "{label}: every acked job must reach a terminal state"
    );
    router.shutdown();
    for server in servers {
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&spool);
    Value::object()
        .with("trace", label)
        .with("shards", shards)
        .with("workers_per_shard", 1u64)
        .with("queue_capacity", queue_capacity)
        .with("report", report.to_value())
}

/// Chunky jobs acked by the two donors before the rebalance leg's join.
const BACKLOG_JOBS: u64 = 6;

/// The rebalance leg: the same overload arrivals offered to a 2-shard
/// router while a third shard **joins at runtime** mid-trace. The
/// returned record pairs the trace report (whose e2e p99 includes every
/// job in flight across the cutover) with the join summary the admin
/// endpoint returned. A fixed backlog of chunky jobs is seeded first, so
/// the join happens while the donors still hold pending work.
fn rebalance_trace(queue_capacity: usize, config: &LoadgenConfig) -> Value {
    let spool =
        std::env::temp_dir().join(format!("sspc_loadgen_spool_{}_join", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let mut servers = Vec::new();
    let mut roster = Vec::new();
    for shard in 0..2u16 {
        let server = Server::start(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity,
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
    let config = LoadgenConfig {
        addr: router.addr().to_string(),
        ..config.clone()
    };
    let trace_config = config.clone();
    let loadgen_thread = std::thread::spawn(move || run(&trace_config).expect("loadgen trace"));

    // Seed a fixed backlog of chunky jobs, still pending at the join; it
    // stays on the two shards that acked it.
    let mut client = Client::new(router.addr().to_string());
    let backlog: Vec<u64> = (0..BACKLOG_JOBS)
        .map(|seed| {
            let job = Value::object()
                .with("k", 3u64)
                .with(
                    "dataset",
                    Value::object().with(
                        "generate",
                        Value::object()
                            .with("n", 200u64)
                            .with("d", 16u64)
                            .with("dims", 5u64)
                            .with("seed", seed + 1),
                    ),
                )
                .with("algorithms", "harp")
                .with("runs", 2u64)
                .with("seed", 7u64);
            client.submit(&job).expect("backlog submit")
        })
        .collect();

    // Join the third shard while arrivals are still being offered.
    let joiner = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity,
        shard_id: 2,
        spool_dir: Some(spool.clone()),
        ..Default::default()
    })
    .expect("bind joiner");
    let join = client
        .add_shard(2, &joiner.addr().to_string())
        .expect("runtime join under load");
    servers.push(joiner);

    let report = loadgen_thread.join().expect("loadgen thread");
    let label = "rebalance_join";
    println!(
        "loadgen bench: {label:18} {}/{} acked ({:.1}/s), {} rejected {:?}, \
         e2e p50/p99 {:.1}/{:.1}ms",
        report.acked.len(),
        report.attempted,
        report.acked_per_second,
        report.rejected_total(),
        report.rejected,
        report.e2e_latency.quantile(0.50).unwrap_or(0) as f64 / 1e3,
        report.e2e_latency.quantile(0.99).unwrap_or(0) as f64 / 1e3,
    );
    assert_eq!(
        report.acked.len() as u64 + report.rejected_total(),
        report.attempted as u64,
        "{label}: every submission must be accounted for"
    );
    assert_eq!(
        report.unfinished,
        Vec::<u64>::new(),
        "{label}: every acked job must reach a terminal state through the join"
    );
    // The backlog completes under its original ids too.
    for id in &backlog {
        let done = client
            .wait_for(*id, Duration::from_millis(10), Duration::from_secs(600))
            .expect("backlog job finishes after the join");
        assert_eq!(
            done.get("status").and_then(Value::as_str),
            Some("done"),
            "backlog job {id} failed: {done}"
        );
    }
    drop(client);
    router.shutdown();
    for server in servers {
        server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&spool);
    Value::object()
        .with("trace", label)
        .with("shards_before", 2u64)
        .with("shards_after", 3u64)
        .with("workers_per_shard", 1u64)
        .with("queue_capacity", queue_capacity)
        .with("backlog_jobs", backlog.len() as u64)
        .with("join", join)
        .with("report", report.to_value())
}

fn main() {
    let smoke = std::env::var("SERVER_SMOKE").is_ok_and(|v| v == "1");
    // Pin per-job parallelism: offered-load behavior, not kernel scaling.
    std::env::set_var("SSPC_NUM_THREADS", "1");
    let (jobs, rate) = if smoke {
        (40, 50.0)
    } else {
        (
            env_usize("LOADGEN_BENCH_JOBS", 200),
            env_f64("LOADGEN_BENCH_RATE", 100.0),
        )
    };

    let base = LoadgenConfig {
        addr: String::new(), // per-trace
        jobs,
        pattern: Pattern::Poisson { rate },
        seed: 17,
        wait_timeout: Duration::from_secs(600),
        poll_every: Duration::from_millis(5),
    };
    let mut traces = vec![
        // Steady state: arrivals a 2-worker pool can absorb.
        trace("poisson_steady", 2, jobs + 8, &base),
        // Overload: the same arrivals into a queue of 8 — the shed path
        // (queue_full) is the thing being measured.
        trace(
            "poisson_overload",
            1,
            8,
            &LoadgenConfig {
                pattern: Pattern::Poisson { rate: rate * 2.0 },
                ..base.clone()
            },
        ),
        // Flash crowd: bursts into the same shallow queue.
        trace(
            "burst_overload",
            1,
            8,
            &LoadgenConfig {
                pattern: Pattern::Burst {
                    size: (jobs / 4).max(1),
                    every: Duration::from_millis(250),
                },
                ..base.clone()
            },
        ),
    ];
    // The shard sweep: the flash-crowd arrivals from `burst_overload` —
    // the pattern that actually overruns one shallow queue — offered to
    // a router over 1, 2 and 4 shards. Aggregate admission capacity
    // (queues and workers both) grows with the fleet, so the acked
    // throughput at this offered load rises with the shard count;
    // 1 shard is the single-shard baseline.
    let overload = LoadgenConfig {
        pattern: Pattern::Burst {
            size: (jobs / 4).max(1),
            every: Duration::from_millis(250),
        },
        ..base
    };
    for shards in [1usize, 2, 4] {
        traces.push(shard_trace(shards, 8, &overload));
    }
    // The rebalance leg: the 2-shard overload point again, but with a
    // third shard joining mid-trace — membership churn under the same
    // offered load the static points saw.
    traces.push(rebalance_trace(8, &overload));

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let record = Value::object()
        .with("bench", "loadgen")
        .with("smoke", smoke)
        .with("jobs", jobs)
        .with("rate", rate)
        // Resolved per-job worker count, read back from the same source
        // the algorithms use (pinned via SSPC_NUM_THREADS above) instead
        // of echoing the pin — the record cannot disagree with reality.
        .with("threads", sspc_common::parallel::num_threads() as u64)
        .with("cores", cores)
        .with("traces", traces);

    let out_path = std::env::var("BENCH_SERVER_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_server.json", env!("CARGO_MANIFEST_DIR")));
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
        Ok(()) => eprintln!("loadgen bench: appended record to {out_path}"),
        Err(e) => eprintln!("loadgen bench: could not write {out_path}: {e}"),
    }
}
