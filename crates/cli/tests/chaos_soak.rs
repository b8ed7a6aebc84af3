//! Chaos soak (`--features fault-injection`): burst-load a real
//! `sspc-cli serve` process that is **armed to abort mid-run**
//! (`SSPC_FAULT=job.execute:N:crash`), then restart it clean and hold the
//! service to its promises:
//!
//! * every submission got a definite answer — an ack or a taxonomy entry,
//!   never a silent drop — and the error rate is bounded by what the
//!   crash explains (nothing fails *before* the abort);
//! * **zero lost acknowledged jobs**: every `202`-acked id reaches a
//!   terminal state after recovery, within a deadline;
//! * results completed before the chaos are served **byte-identically**
//!   after it;
//! * open handler connections never exceed the `--max-conns` cap, even
//!   while the load generator is hammering the service;
//! * the soak's throughput, latency percentiles, and error taxonomy are
//!   appended as one JSON record to `BENCH_SERVER_OUT` when that is set,
//!   and otherwise to `BENCH_server.chaos_soak.json` under cargo's
//!   target tmpdir, so a plain test run leaves the checkout clean.

#![cfg(feature = "fault-injection")]

use sspc_common::json::Value;
use sspc_server::client::Client;
use sspc_server::loadgen::{self, LoadgenConfig, Pattern};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Baseline jobs executed before the chaos: 4 executions, so arming the
/// 12th execution aborts the server midway through the burst.
const BASELINE_JOBS: u64 = 4;
const CRASH_AT_EXECUTION: u64 = 12;
const BURST_JOBS: usize = 30;
const CONN_CAP: usize = 8;

fn tiny_job(seed: u64) -> Value {
    Value::object()
        .with("k", 2u64)
        .with(
            "dataset",
            Value::object().with(
                "generate",
                Value::object()
                    .with("n", 30u64)
                    .with("d", 6u64)
                    .with("dims", 3u64)
                    .with("seed", seed),
            ),
        )
        .with("algorithms", "harp")
        .with("runs", 1u64)
}

struct ServerProc {
    child: Child,
    addr_rx: mpsc::Receiver<String>,
    stderr_thread: std::thread::JoinHandle<String>,
}

impl ServerProc {
    fn spawn(state_dir: &Path, fault: Option<&str>) -> ServerProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_sspc-cli"));
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--max-conns",
            &CONN_CAP.to_string(),
            "--state-dir",
        ])
        .arg(state_dir)
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
        match fault {
            Some(spec) => cmd.env("SSPC_FAULT", spec),
            None => cmd.env_remove("SSPC_FAULT"),
        };
        let mut child = cmd.spawn().expect("spawn sspc-cli serve");
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, addr_rx) = mpsc::channel();
        let stderr_thread = std::thread::spawn(move || {
            let mut transcript = String::new();
            for line in std::io::BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.strip_prefix("sspc-server listening on ") {
                    if let Some(addr) = rest.split_whitespace().next() {
                        let _ = tx.send(addr.to_string());
                    }
                }
                transcript.push_str(&line);
                transcript.push('\n');
            }
            transcript
        });
        ServerProc {
            child,
            addr_rx,
            stderr_thread,
        }
    }

    fn addr(&self) -> String {
        self.addr_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("server announces its address")
    }

    /// Reaps the (already dead or killed) process and returns stderr.
    fn finish(mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stderr_thread.join().expect("stderr drain")
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sspc_soak_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bench_out_path() -> PathBuf {
    std::env::var_os("BENCH_SERVER_OUT").map_or_else(
        || PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("BENCH_server.chaos_soak.json"),
        PathBuf::from,
    )
}

#[test]
fn chaos_soak_survives_a_mid_burst_crash_without_losing_acked_jobs() {
    let dir = temp_dir("burst");

    // Life 1: armed to abort at the Nth job execution. The baseline jobs
    // burn the first executions and pin down durable pre-chaos state.
    let server = ServerProc::spawn(
        &dir,
        Some(&format!("job.execute:{CRASH_AT_EXECUTION}:crash")),
    );
    let addr = server.addr();
    let mut client = Client::new(&addr);
    let mut baseline = Vec::new();
    for seed in 0..BASELINE_JOBS {
        let id = client.submit(&tiny_job(seed)).unwrap();
        let done = client
            .wait_for(id, Duration::from_millis(10), Duration::from_secs(120))
            .unwrap();
        assert_eq!(done.get("status").and_then(Value::as_str), Some("done"));
        baseline.push((id, client.job_status(id).unwrap().to_string()));
    }
    // The connection cap holds while the service is healthy.
    let health = client.healthz().unwrap();
    let active = health
        .get("connections_active")
        .and_then(Value::as_u64)
        .unwrap();
    assert!(
        active <= CONN_CAP as u64,
        "connections_active {active} over the {CONN_CAP} cap"
    );
    drop(client);

    // The burst. The server aborts partway through; the open-loop
    // generator shrugs (transport entries) and keeps offering load. No
    // wait phase — the server is dead by the end.
    let report = loadgen::run(&LoadgenConfig {
        addr: addr.clone(),
        jobs: BURST_JOBS,
        pattern: Pattern::Burst {
            size: 10,
            every: Duration::from_millis(100),
        },
        seed: 42,
        wait_timeout: Duration::ZERO,
        poll_every: Duration::from_millis(10),
    })
    .unwrap();

    // Every submission is accounted for, and the taxonomy only contains
    // classes the crash explains — overload shedding or a dead socket,
    // never invalid jobs or silent drops.
    assert_eq!(
        report.acked.len() as u64 + report.rejected_total(),
        BURST_JOBS as u64,
        "soak lost track of submissions: {:?}",
        report.rejected
    );
    for reason in report.rejected.keys() {
        assert!(
            ["queue_full", "backlog_exceeded", "transport"].contains(&reason.as_str()),
            "unexplained refusal class `{reason}`: {:?}",
            report.rejected
        );
    }
    assert!(
        !report.acked.is_empty(),
        "the server died before acking anything — the fault armed too early"
    );

    // The server died at the armed point (not somewhere else), killed by
    // the workload the soak offered.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut server = server;
    let status = loop {
        if let Some(status) = server.child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "armed server survived the whole burst"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(!status.success(), "an aborted server cannot exit 0");
    let transcript = server.finish();
    assert!(
        transcript.contains("aborting at `job.execute`"),
        "died somewhere else:\n{transcript}"
    );

    // Life 2: clean restart on the same journal. Recovery deadline covers
    // re-running every interrupted/queued job.
    let recovery_started = Instant::now();
    let server = ServerProc::spawn(&dir, None);
    let addr = server.addr();
    let mut client = Client::new(&addr);

    // Zero lost acknowledged jobs: every 202 from life 1 reaches a
    // terminal state (the crash-interrupted one re-runs).
    let mut terminal = 0u64;
    for &id in &report.acked {
        let doc = client
            .wait_for(id, Duration::from_millis(10), Duration::from_secs(120))
            .unwrap_or_else(|e| panic!("acked job {id} never reached terminal state: {e}"));
        let status = doc.get("status").and_then(Value::as_str).unwrap();
        assert!(
            status == "done" || status == "failed",
            "job {id} ended as `{status}`"
        );
        terminal += 1;
    }
    assert_eq!(terminal, report.acked.len() as u64);
    let recovery = recovery_started.elapsed();
    assert!(
        recovery < Duration::from_secs(120),
        "recovery blew its deadline: {recovery:?}"
    );

    // No byte-level divergence: pre-chaos results are identical after it.
    for (id, before) in &baseline {
        assert_eq!(
            &client.job_status(*id).unwrap().to_string(),
            before,
            "baseline job {id} drifted across the crash"
        );
    }

    // The cap still holds after recovery, and the store is healthy.
    let health = client.healthz().unwrap();
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    let active = health
        .get("connections_active")
        .and_then(Value::as_u64)
        .unwrap();
    assert!(active <= CONN_CAP as u64);

    // Append the soak record (throughput, percentiles, taxonomy) to the
    // bench ledger.
    let record = Value::object()
        .with("bench", "chaos_soak")
        .with("burst_jobs", BURST_JOBS as u64)
        .with("crash_at_execution", CRASH_AT_EXECUTION)
        .with("recovered_acked_jobs", terminal)
        .with("recovery_seconds", recovery.as_secs_f64())
        .with("report", report.to_value());
    if let Ok(line) = record.to_string_checked() {
        use std::io::Write;
        if let Ok(mut file) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(bench_out_path())
        {
            let _ = writeln!(file, "{line}");
        }
    }

    drop(client);
    server.finish();
    let _ = std::fs::remove_dir_all(&dir);
}
