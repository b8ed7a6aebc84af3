//! Crash-torture sweep (`--features fault-injection`): for EVERY named
//! fault point in [`sspc_server::FAULT_POINTS`], crash a real `sspc-cli
//! serve` process at that point mid-workload (`SSPC_FAULT=<point>:1:crash`
//! aborts without unwinding — the closest stand-in for a power cut),
//! restart it clean, and assert the store contracts survived:
//!
//! * a result completed before the crash is served **byte-identically**
//!   after it;
//! * work that was queued or running at the crash re-runs to completion;
//! * job ids are never reused, no matter where the crash landed;
//! * the torn journal the crash may leave behind replays cleanly (no
//!   panic, no invented jobs — the restart itself is the assertion).

#![cfg(feature = "fault-injection")]

use sspc_common::json::Value;
use sspc_server::{client, client::Client, FAULT_POINTS, ROUTER_FAULT_POINTS};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

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

/// A real `sspc-cli serve` child process. Its stderr is drained on a
/// thread that announces the bound address (the `--addr 127.0.0.1:0`
/// port is only knowable from the startup line) and returns the full
/// transcript at join — an armed process may abort before, during, or
/// long after that line prints, so the address arrives (or never does)
/// through a channel.
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

    /// SIGKILL + reap: the mid-flight power cut between phases.
    fn kill(mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stderr_thread.join().expect("stderr drain")
    }

    /// Waits (bounded) for the process to die on its own, poking it with
    /// submissions once it is reachable so runtime fault points get hit.
    /// Returns the stderr transcript.
    fn drive_until_death(mut self, deadline: Duration) -> String {
        let started = Instant::now();
        let mut addr = None;
        let mut seed = 1000;
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                assert!(!status.success(), "an aborted server cannot exit 0");
                break;
            }
            assert!(
                started.elapsed() < deadline,
                "armed server survived the whole workload"
            );
            if addr.is_none() {
                addr = self.addr_rx.try_recv().ok();
            }
            if let Some(addr) = &addr {
                // Every outcome is fine — refused, reset mid-response,
                // or even accepted; the next loop turn sees the abort.
                let _ = client::submit(addr, &tiny_job(seed));
                seed += 1;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.stderr_thread.join().expect("stderr drain")
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sspc_torture_{}_{}",
        std::process::id(),
        name.replace('.', "_")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The sweep. One pass per registered fault point, three server lives
/// per pass: (A) a clean life establishes durable state and is killed
/// mid-flight, (B) an armed life aborts at the point under test, (C) a
/// clean life must recover everything.
#[test]
fn crash_torture_sweep_recovers_at_every_fault_point() {
    for point in FAULT_POINTS {
        let dir = temp_dir(point);

        // Phase A: complete job 1 durably, leave job 2 in flight, and
        // cut the power.
        let server = ServerProc::spawn(&dir, None);
        let addr = server.addr();
        let mut c = Client::new(&addr);
        let job1 = c.submit(&tiny_job(1)).unwrap();
        let done = c
            .wait_for(job1, Duration::from_millis(10), Duration::from_secs(120))
            .unwrap();
        assert_eq!(
            done.get("status").and_then(Value::as_str),
            Some("done"),
            "{point}: phase A job"
        );
        let job1_doc = c.job_status(job1).unwrap().to_string();
        let job2 = c.submit(&tiny_job(2)).unwrap();
        drop(c);
        server.kill();

        // Phase B: an armed life. Boot-time points (compaction, atomic
        // replace) abort before the listener exists; runtime points need
        // the workload poke. Either way the process must die at the
        // armed point, not live through it.
        let armed = ServerProc::spawn(&dir, Some(&format!("{point}:1:crash")));
        let transcript = armed.drive_until_death(Duration::from_secs(120));
        assert!(
            transcript.contains(&format!("aborting at `{point}`")),
            "{point}: died somewhere else:\n{transcript}"
        );

        // Phase C: clean restart — the recovery contracts.
        let server = ServerProc::spawn(&dir, None);
        let addr = server.addr();
        let mut c = Client::new(&addr);
        assert_eq!(
            c.job_status(job1).unwrap().to_string(),
            job1_doc,
            "{point}: completed result drifted across the crash"
        );
        let after = c
            .wait_for(job2, Duration::from_millis(10), Duration::from_secs(120))
            .unwrap();
        assert_eq!(
            after.get("status").and_then(Value::as_str),
            Some("done"),
            "{point}: in-flight job was not recovered"
        );
        // Ids burned by ANY life (including ones the armed life admitted
        // right before aborting) must never come back.
        let fresh = c.submit(&tiny_job(3)).unwrap();
        assert!(
            fresh > job2,
            "{point}: id {fresh} reused at or below {job2}"
        );
        let health = c.healthz().unwrap();
        assert_eq!(
            health.get("status").and_then(Value::as_str),
            Some("ok"),
            "{point}: store came back degraded"
        );
        drop(c);
        server.kill();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A job heavy enough (about 0.7 s on a debug-build worker; HARP is
/// deterministic, so it runs once whatever `runs` asks) that a shard's
/// queue stays full of acked-but-unfinished work for seconds — the
/// pending debt a graceful leave moves.
fn chunky_job(seed: u64) -> Value {
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

/// A spawned `sspc-cli` process with an arbitrary subcommand, announcing
/// `<prefix> listening on <addr>` on stderr. Unlike [`ServerProc`] this
/// one can arm a *router* (`route`) with `SSPC_FAULT`.
struct AnyProc {
    child: Child,
    addr_rx: mpsc::Receiver<String>,
    stderr_thread: std::thread::JoinHandle<String>,
}

impl AnyProc {
    fn spawn(prefix: &'static str, args: &[String], fault: Option<&str>) -> AnyProc {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_sspc-cli"));
        cmd.args(args).stdout(Stdio::null()).stderr(Stdio::piped());
        match fault {
            Some(spec) => cmd.env("SSPC_FAULT", spec),
            None => cmd.env_remove("SSPC_FAULT"),
        };
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
        AnyProc {
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

    fn kill(mut self) -> String {
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.stderr_thread.join().expect("stderr drain")
    }

    /// Waits (bounded) for the process to die on its own; returns the
    /// stderr transcript.
    fn await_death(mut self, deadline: Duration) -> String {
        let started = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                assert!(!status.success(), "an aborted router cannot exit 0");
                break;
            }
            assert!(
                started.elapsed() < deadline,
                "armed router survived the leave"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        self.stderr_thread.join().expect("stderr drain")
    }
}

fn shard_proc(shard_id: u16, spool: &Path) -> AnyProc {
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
    AnyProc::spawn("sspc-server", &args, None)
}

fn router_proc(roster: &str, spool: &Path, fault: Option<&str>) -> AnyProc {
    let args: Vec<String> = [
        "route",
        "--addr",
        "127.0.0.1:0",
        "--shards",
        roster,
        "--spool-dir",
        &spool.to_string_lossy(),
        "--probe-interval",
        "0.2",
        "--fail-after",
        "1",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    AnyProc::spawn("sspc-router", &args, fault)
}

/// The membership sweep: for each router-side fault point, three
/// *router* lives over the same long-lived shards: (A) a clean life acks
/// a batch (shard 1's share stays queued for many seconds — chunky jobs,
/// one worker), (B) an armed life aborts at the point under test while
/// gracefully removing shard 1 (at `handoff.stream` on its first spool
/// record, at `handoff.cutover` after both sweeps), (C) a clean life
/// joins a third shard and re-runs the leave to `gone`, after which every
/// id acked in life A completes under its original id — even once shard
/// 1 is SIGKILLed outright.
#[test]
fn membership_handoff_crash_sweep_recovers_at_every_router_fault_point() {
    use sspc_server::router::shard_of;

    for point in ROUTER_FAULT_POINTS {
        let spool = temp_dir(&format!("handoff_{point}"));
        let shard0 = shard_proc(0, &spool);
        let shard1 = shard_proc(1, &spool);
        let joiner = shard_proc(2, &spool);
        let roster = format!("0={},1={}", shard0.addr(), shard1.addr());
        let joiner_addr = joiner.addr();

        // Life A: ack a batch through a clean router. Shard 1 ends up
        // with a spool of acked, mostly unfinished chunky jobs.
        let router = router_proc(&roster, &spool, None);
        let addr = router.addr();
        let mut c = Client::new(&addr);
        let acked: Vec<u64> = (0..8)
            .map(|seed| c.submit(&chunky_job(seed)).unwrap())
            .collect();
        assert!(
            acked.iter().any(|&id| shard_of(id) == 1),
            "{point}: shard 1 owns part of the batch"
        );
        drop(c);
        router.kill();

        // Life B: an armed router. The graceful leave of shard 1 drives
        // it into the spool move, where it must abort at exactly the
        // armed point.
        let armed = router_proc(&roster, &spool, Some(&format!("{point}:1:crash")));
        let armed_addr = armed.addr();
        let _ = Client::new(&armed_addr).remove_shard(1, false);
        let transcript = armed.await_death(Duration::from_secs(120));
        assert!(
            transcript.contains(&format!("aborting at `{point}`")),
            "{point}: died somewhere else:\n{transcript}"
        );

        // Life C: a clean router joins shard 2 and re-runs the leave (its
        // owed table is empty, so it moves shard 1's spool again; any
        // copies life B posted run harmlessly), then shard 1 dies for
        // real.
        let router = router_proc(&roster, &spool, None);
        let addr = router.addr();
        let mut c = Client::new(&addr);
        c.add_shard(2, &joiner_addr)
            .unwrap_or_else(|e| panic!("{point}: clean join failed: {e}"));
        let left = c
            .remove_shard(1, false)
            .unwrap_or_else(|e| panic!("{point}: clean leave failed: {e}"));
        assert_eq!(
            left.get("membership").and_then(Value::as_str),
            Some("gone"),
            "{point}: {left}"
        );
        shard1.kill();
        for &id in &acked {
            let doc = c
                .wait_for(id, Duration::from_millis(50), Duration::from_secs(300))
                .unwrap_or_else(|e| panic!("{point}: job {id} lost across the crash: {e}"));
            assert_eq!(
                doc.get("status").and_then(Value::as_str),
                Some("done"),
                "{point}: job {id}: {doc}"
            );
            assert_eq!(doc.get("job").and_then(Value::as_u64), Some(id));
        }
        drop(c);
        router.kill();
        shard0.kill();
        joiner.kill();
        let _ = std::fs::remove_dir_all(&spool);
    }
}
