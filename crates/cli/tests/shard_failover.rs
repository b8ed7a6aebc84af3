//! Kill-a-shard failover smoke over real processes: a router fronting
//! two `sspc-cli serve --shard-id` shards, a batch submitted through the
//! router, one shard SIGKILLed mid-run — and every acked job still
//! reaches `done` under its original id, with `result` documents
//! byte-identical to a single-node baseline run of the same specs. A
//! second test restarts the killed shard on its port at once: it
//! recovers its acked jobs from its spool, and nothing fails over.

#![cfg(unix)]

use sspc_common::json::Value;
use sspc_server::client::Client;
use sspc_server::router::shard_of;
use sspc_server::{Server, ServerConfig};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// Deterministic and chunky enough (~hundreds of ms on one worker) that
/// a SIGKILL lands while some acked jobs are still queued or running.
fn job_body(seed: u64) -> Value {
    Value::object()
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
        .with("seed", 7u64)
}

/// A spawned `sspc-cli` process that announces its address on stderr
/// (`<prefix> listening on <addr> ...`).
struct Proc {
    child: Child,
    addr_rx: mpsc::Receiver<String>,
    stderr_thread: std::thread::JoinHandle<String>,
}

impl Proc {
    fn spawn(prefix: &'static str, args: &[String]) -> Proc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sspc-cli"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .env_remove("SSPC_FAULT")
            .spawn()
            .expect("spawn sspc-cli");
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, addr_rx) = mpsc::channel();
        let stderr_thread = std::thread::spawn(move || {
            let mut transcript = String::new();
            for line in std::io::BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.strip_prefix(prefix) {
                    if let Some(rest) = rest.strip_prefix(" listening on ") {
                        if let Some(addr) = rest.split_whitespace().next() {
                            let _ = tx.send(addr.to_string());
                        }
                    }
                }
                transcript.push_str(&line);
                transcript.push('\n');
            }
            transcript
        });
        Proc {
            child,
            addr_rx,
            stderr_thread,
        }
    }

    fn addr(&self) -> String {
        self.addr_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("process announces its address")
    }

    fn sigkill(mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stderr_thread.join().expect("stderr drain")
    }
}

fn shard_proc(shard_id: u16, spool: &std::path::Path, addr: &str) -> Proc {
    let mut args: Vec<String> = ["serve", "--addr", addr, "--workers", "1", "--shard-id"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.push(shard_id.to_string());
    args.push("--spool-dir".into());
    args.push(spool.to_string_lossy().into_owned());
    Proc::spawn("sspc-server", &args)
}

/// A router over `roster` with the shards' shared spool, plus `extra`
/// flags.
fn router_proc(roster: &str, spool: &std::path::Path, extra: &[&str]) -> Proc {
    let spool = spool.to_string_lossy();
    let mut args = vec!["route", "--addr", "127.0.0.1:0", "--shards", roster];
    args.extend(["--spool-dir", spool.as_ref()]);
    args.extend(extra);
    let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    Proc::spawn("sspc-router", &args)
}

/// A result document with its wall-clock fields zeroed: `seconds` is
/// measured time and legitimately differs run to run, while everything
/// else (labels, objective, cluster counts) must be byte-identical
/// between a failover re-execution and the single-node baseline.
fn normalized(result: &Value) -> String {
    let mut doc = result.clone();
    if let Some(reports) = result.get("reports").and_then(Value::as_array) {
        let cleaned: Vec<Value> = reports
            .iter()
            .map(|report| report.clone().with("seconds", 0.0))
            .collect();
        doc = doc.with("reports", Value::Arr(cleaned));
    }
    doc.to_string_checked().unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sspc_failover_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn killed_shards_jobs_complete_on_survivors_with_identical_results() {
    let spool = temp_dir("spool");
    let shard0 = shard_proc(0, &spool, "127.0.0.1:0");
    let shard1 = shard_proc(1, &spool, "127.0.0.1:0");
    let roster = format!("0={},1={}", shard0.addr(), shard1.addr());
    let router = router_proc(
        &roster,
        &spool,
        &["--probe-interval", "0.2", "--fail-after", "1"],
    );
    let addr = router.addr();

    // Submit the batch through the router; remember which seed each
    // acked id carries so results can be matched against the baseline.
    let mut client = Client::new(&addr);
    let acked: Vec<(u64, u64)> = (0..8)
        .map(|seed| (client.submit(&job_body(seed)).unwrap(), seed))
        .collect();
    let on_shard1 = acked.iter().filter(|(id, _)| shard_of(*id) == 1).count();
    assert!(on_shard1 > 0, "the doomed shard owns part of the batch");
    assert!(on_shard1 < acked.len(), "a survivor owns the rest");

    // SIGKILL shard 1 mid-run: no drain, no goodbye — whatever it acked
    // is now the spool's problem.
    shard1.sigkill();

    // Every acked job still completes, under its original id. The first
    // poll of a dead-shard id triggers the failover replay.
    let mut results: Vec<(u64, String)> = Vec::new();
    for (id, seed) in acked {
        let doc = client
            .wait_for(id, Duration::from_millis(50), Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("job {id} (seed {seed}) after failover: {e}"));
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("done"));
        assert_eq!(doc.get("job").and_then(Value::as_u64), Some(id));
        let result = doc.get("result").expect("done jobs carry a result");
        results.push((seed, normalized(result)));
    }

    // The router's own account of the failover.
    let health = client.healthz().unwrap();
    assert_eq!(
        health
            .get("router")
            .and_then(|r| r.get("failovers"))
            .and_then(Value::as_u64),
        Some(1),
        "exactly one shard was failed over: {health}"
    );
    drop(client);

    // Single-node baseline: the same specs on a fresh in-process server
    // must produce byte-identical result documents.
    let baseline = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 64,
        ..Default::default()
    })
    .unwrap();
    let mut single = Client::new(baseline.addr().to_string());
    for (seed, recovered) in results {
        let id = single.submit(&job_body(seed)).unwrap();
        let doc = single
            .wait_for(id, Duration::from_millis(50), Duration::from_secs(120))
            .unwrap();
        let expected = normalized(doc.get("result").expect("baseline result"));
        assert_eq!(
            recovered, expected,
            "seed {seed}: failover result drifted from the single-node baseline"
        );
    }
    drop(single);
    baseline.shutdown();
    router.sigkill();
    shard0.sigkill();
    let _ = std::fs::remove_dir_all(&spool);
}

/// A shard SIGKILLed and restarted on its port at once, inside the
/// failure budget of a router at its default `--probe-interval` and
/// `--fail-after`, answers every id it acked: its spool is its journal,
/// so the restart recovers its jobs and runs the unfinished ones. The
/// router never fails it over.
#[test]
fn a_shard_restarted_at_once_after_sigkill_keeps_its_acked_jobs() {
    let spool = temp_dir("fast_restart");
    let shard0 = shard_proc(0, &spool, "127.0.0.1:0");
    let shard1 = shard_proc(1, &spool, "127.0.0.1:0");
    let shard1_addr = shard1.addr();
    let roster = format!("0={},1={shard1_addr}", shard0.addr());
    let router = router_proc(&roster, &spool, &[]);
    let mut client = Client::new(router.addr());
    let acked: Vec<u64> = (0..8)
        .map(|seed| client.submit(&job_body(seed)).unwrap())
        .collect();
    assert!(
        acked.iter().any(|&id| shard_of(id) == 1),
        "the restarted shard owns part of the batch"
    );

    shard1.sigkill();
    let restarted = shard_proc(1, &spool, &shard1_addr);
    assert_eq!(restarted.addr(), shard1_addr);
    for &id in &acked {
        let doc = client
            .wait_for(id, Duration::from_millis(50), Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("job {id} after the restart: {e}"));
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("done"));
        assert_eq!(doc.get("job").and_then(Value::as_u64), Some(id));
    }
    let health = client.healthz().unwrap();
    assert_eq!(
        health
            .get("router")
            .and_then(|r| r.get("failovers"))
            .and_then(Value::as_u64),
        Some(0),
        "a restart inside the failure budget is not a failover: {health}"
    );
    drop(client);
    router.sigkill();
    restarted.sigkill();
    shard0.sigkill();
    let _ = std::fs::remove_dir_all(&spool);
}
