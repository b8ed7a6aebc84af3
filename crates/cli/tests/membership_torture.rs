//! Membership torture over real processes: a live router fronting two
//! shards under open-loop loadgen traffic, a third shard **joined
//! mid-burst**, shard 1 **SIGKILLed** (it fails over), and shard 0
//! **removed gracefully** — its leave moves its own jobs, and the shard-1
//! jobs that failed over onto it, to the joiner. The contracts:
//!
//! * every job 202-acked before or during the churn completes under its
//!   **original id**, including an id whose failover copy sat on the
//!   shard that later left;
//! * the explicitly-tracked jobs' results are **byte-identical** to a
//!   single-node baseline run of the same specs;
//! * the kill counts as exactly one failover, the join and the leave as
//!   exactly two cutovers (`handoffs`) — membership churn is not
//!   failover.

#![cfg(unix)]

use sspc_common::json::Value;
use sspc_server::client::Client;
use sspc_server::loadgen;
use sspc_server::router::shard_of;
use sspc_server::{Server, ServerConfig};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Deterministic and chunky enough (about 0.7 s on a debug-build worker;
/// HARP runs once whatever `runs` asks) that the shards still hold
/// queues of acked-but-unfinished jobs through the churn.
fn job_body(seed: u64) -> Value {
    Value::object()
        .with("k", 3u64)
        .with(
            "dataset",
            Value::object().with(
                "generate",
                Value::object()
                    .with("n", 800u64)
                    .with("d", 16u64)
                    .with("dims", 5u64)
                    .with("seed", seed + 1),
            ),
        )
        .with("algorithms", "harp")
        .with("runs", 2u64)
        .with("seed", 7u64)
}

/// A spawned `sspc-cli` process announcing its address on stderr.
struct Proc {
    child: Child,
    addr_rx: mpsc::Receiver<String>,
    stderr_thread: std::thread::JoinHandle<String>,
}

impl Proc {
    fn spawn(prefix: &'static str, args: &[String]) -> Proc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_sspc-cli"));
        cmd.args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .env_remove("SSPC_FAULT");
        let mut child = cmd.spawn().expect("spawn sspc-cli");
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

fn shard_proc(shard_id: u16, spool: &std::path::Path) -> Proc {
    let mut args: Vec<String> = [
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--workers",
        "1",
        "--shard-id",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    args.push(shard_id.to_string());
    args.push("--spool-dir".into());
    args.push(spool.to_string_lossy().into_owned());
    Proc::spawn("sspc-server", &args)
}

/// Zeroes the wall-clock fields of a result document; everything else
/// must be byte-identical between a moved re-execution and the
/// single-node baseline.
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
    let dir = std::env::temp_dir().join(format!("sspc_membership_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const KILLED: u16 = 1;
const LEAVER: u16 = 0;
const JOINER: u16 = 2;

#[test]
fn join_kill_and_leave_under_traffic_lose_no_acked_job() {
    let spool = temp_dir("spool");
    let shard0 = shard_proc(LEAVER, &spool);
    let shard1 = shard_proc(KILLED, &spool);
    let roster = format!("{LEAVER}={},{KILLED}={}", shard0.addr(), shard1.addr());
    let router = Proc::spawn(
        "sspc-router",
        &[
            "route",
            "--addr",
            "127.0.0.1:0",
            "--shards",
            &roster,
            "--spool-dir",
            &spool.to_string_lossy(),
            "--probe-interval",
            "0.2",
            "--fail-after",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>(),
    );
    let addr = router.addr();

    // A tracked batch spread over both shards: the ring puts the first
    // few submission keys on shard 0, so submit until shard 1 holds some.
    let mut client = Client::new(&addr);
    let mut acked: Vec<(u64, u64)> = Vec::new();
    for seed in 0..40 {
        acked.push((client.submit(&job_body(seed)).unwrap(), seed));
        let on_killed = acked
            .iter()
            .filter(|(id, _)| shard_of(*id) == KILLED)
            .count();
        if on_killed >= 3 && acked.len() >= 8 {
            break;
        }
    }
    assert!(
        acked.iter().any(|(id, _)| shard_of(*id) == KILLED),
        "the shard to kill owns part of the batch"
    );

    // Open-loop background traffic: the churn happens mid-burst.
    let loadgen_addr = addr.clone();
    let loadgen_thread = std::thread::spawn(move || {
        loadgen::run(&loadgen::LoadgenConfig {
            addr: loadgen_addr,
            jobs: 16,
            pattern: loadgen::Pattern::Burst {
                size: 4,
                every: Duration::from_millis(100),
            },
            seed: 3,
            wait_timeout: Duration::from_secs(300),
            ..Default::default()
        })
        .unwrap()
    });

    // Join mid-burst: a cutover; nothing acked moves.
    std::thread::sleep(Duration::from_millis(150));
    let joiner = shard_proc(JOINER, &spool);
    let joined = client.add_shard(JOINER, &joiner.addr()).unwrap();
    assert_eq!(
        joined.get("membership").and_then(Value::as_str),
        Some("active"),
        "{joined}"
    );

    // SIGKILL shard 1; the prober fails its pending jobs over onto
    // shards 0 and 2.
    shard1.sigkill();
    let router_counter = |client: &mut Client, name: &str| {
        let health = client.healthz().unwrap();
        let router = health.get("router").expect("router section");
        router.get(name).and_then(Value::as_u64).unwrap_or(0)
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while router_counter(&mut client, "failovers") != 1 {
        assert!(
            Instant::now() < deadline,
            "shard {KILLED} never failed over"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(
        router_counter(&mut client, "replayed_jobs") >= 1,
        "shard {KILLED} still held pending jobs to re-post"
    );

    // Shard 0 leaves gracefully: its spool, including the shard-1 jobs
    // that failed over onto it, moves to the joiner.
    let left = client.remove_shard(LEAVER, false).unwrap();
    assert_eq!(
        left.get("membership").and_then(Value::as_str),
        Some("gone"),
        "{left}"
    );
    assert_eq!(left.get("moved"), left.get("planned"), "{left}");

    // Every tracked 202 completes under its original id.
    let mut results: Vec<(u64, String)> = Vec::new();
    for (id, seed) in &acked {
        let doc = client
            .wait_for(*id, Duration::from_millis(50), Duration::from_secs(300))
            .unwrap_or_else(|e| panic!("job {id} (seed {seed}) after the churn: {e}"));
        assert_eq!(
            doc.get("status").and_then(Value::as_str),
            Some("done"),
            "job {id}: {doc}"
        );
        assert_eq!(doc.get("job").and_then(Value::as_u64), Some(*id));
        results.push((
            *seed,
            normalized(doc.get("result").expect("done carries result")),
        ));
    }

    // The background traffic lost nothing either: every job loadgen got
    // a 202 for reached a terminal state through the churn.
    let report = loadgen_thread.join().expect("loadgen thread");
    assert_eq!(
        report.unfinished,
        Vec::<u64>::new(),
        "loadgen-acked jobs went unfinished: {:?}",
        report.rejected
    );
    assert_eq!(report.completed + report.failed, report.acked.len());

    // The router's own account: one failover (the kill), two cutovers
    // (the join and the leave).
    let health = client.healthz().unwrap();
    let router_section = health.get("router").expect("router section");
    assert_eq!(
        router_section.get("failovers").and_then(Value::as_u64),
        Some(1),
        "exactly the killed shard failed over: {health}"
    );
    assert_eq!(
        router_section.get("handoffs").and_then(Value::as_u64),
        Some(2),
        "the join and the leave cut over: {health}"
    );
    drop(client);

    // Byte-identical to a single-node baseline.
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
            .wait_for(id, Duration::from_millis(50), Duration::from_secs(300))
            .unwrap();
        let expected = normalized(doc.get("result").expect("baseline result"));
        assert_eq!(
            recovered, expected,
            "seed {seed}: moved result drifted from the single-node baseline"
        );
    }
    drop(single);
    baseline.shutdown();
    router.sigkill();
    shard0.sigkill();
    joiner.sigkill();
    let _ = std::fs::remove_dir_all(&spool);
}
