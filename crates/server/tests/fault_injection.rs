//! Armed-fault integration tests (`--features fault-injection`): the
//! panic-isolation worker domain end to end over a real socket, and the
//! degraded-store lifecycle a runtime journal-write failure triggers.
//!
//! The fault table is process-global, so every test that arms it holds
//! [`armed_lock`] for its whole body and disarms on drop — tests stay
//! correct under the default parallel test runner.

#![cfg(feature = "fault-injection")]

use sspc_common::fault;
use sspc_common::json::Value;
use sspc_server::client::Client;
use sspc_server::router::spool;
use sspc_server::store::{EvictionPolicy, Store};
use sspc_server::{Server, ServerConfig};
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

static ARMED: Mutex<()> = Mutex::new(());

/// Serializes armed sections across tests and guarantees `disarm` even
/// when the test body panics (a poisoned `ARMED` is fine — the table
/// itself was still cleared).
struct ArmedSection(#[allow(dead_code)] MutexGuard<'static, ()>);

impl Drop for ArmedSection {
    fn drop(&mut self) {
        fault::disarm();
    }
}

fn armed_lock() -> ArmedSection {
    ArmedSection(
        ARMED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    )
}

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

/// The panic-isolation tentpole under an injected panic: the first job's
/// body panics inside the worker, the job ends `failed` with the payload
/// in its error, and the SAME worker thread (pool of 1, no restart)
/// completes the next job. `/healthz` counts the panic and still shows
/// every worker alive.
#[test]
fn injected_panic_fails_the_job_but_not_the_worker() {
    let _armed = armed_lock();
    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 8,
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::new(server.addr().to_string());

    fault::arm("job.execute:1:panic");
    let id = client.submit(&tiny_job(1)).unwrap();
    let failed = client
        .wait_for(id, Duration::from_millis(10), Duration::from_secs(60))
        .unwrap();
    assert_eq!(failed.get("status").and_then(Value::as_str), Some("failed"));
    let msg = failed.get("error").and_then(Value::as_str).unwrap();
    assert!(msg.contains("job panicked"), "{msg}");
    assert!(msg.contains("fault injected: job.execute"), "{msg}");

    fault::disarm();
    let id = client.submit(&tiny_job(2)).unwrap();
    let done = client
        .wait_for(id, Duration::from_millis(10), Duration::from_secs(60))
        .unwrap();
    assert_eq!(done.get("status").and_then(Value::as_str), Some("done"));

    let health = client.healthz().unwrap();
    assert_eq!(health.get("jobs_panicked").and_then(Value::as_u64), Some(1));
    assert_eq!(health.get("workers_alive").and_then(Value::as_u64), Some(1));
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    server.shutdown();
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sspc_fault_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec_raw() -> (sspc_server::JobSpec, Value) {
    let raw = tiny_job(3);
    (sspc_server::JobSpec::from_json(&raw).unwrap(), raw)
}

/// The graceful-degradation tentpole at the store layer: a journal write
/// that fails at runtime demotes the unjournalable result, flips the
/// store read-only (new inserts refused), and a restart recovers — the
/// job whose result was never durable re-runs instead of being served a
/// lie.
#[test]
fn journal_write_failure_degrades_the_store_until_restart() {
    let _armed = armed_lock();
    let dir = temp_dir("degraded");
    {
        let store = Store::open(EvictionPolicy::default(), Some(&dir), None)
            .unwrap()
            .store;
        let (spec, raw) = spec_raw();
        store.insert(1, spec.clone(), raw.clone()).unwrap();
        store.begin(1);
        assert!(!store.degraded());

        fault::arm("journal.append:1:err");
        store.complete(1, Value::object().with("objective", 1.5), 0.4);
        assert!(store.degraded(), "failed append flips the degraded flag");
        let doc = store.get(1).unwrap();
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("failed"));
        let msg = doc.get("error").and_then(Value::as_str).unwrap();
        assert!(msg.contains("result not durable"), "{msg}");
        assert_eq!(
            store.stats().get("degraded").and_then(Value::as_bool),
            Some(true)
        );

        // Degraded means read-only: the next insert is refused even
        // though the armed fault has already been consumed.
        fault::disarm();
        let err = store.insert(2, spec, raw).unwrap_err().to_string();
        assert!(err.contains("degraded"), "{err}");
    }
    // Restart recovers: job 1's done line never reached the journal, so
    // the job replays as interrupted work and re-runs.
    let recovery = Store::open(EvictionPolicy::default(), Some(&dir), None).unwrap();
    assert_eq!(recovery.pending, vec![1]);
    assert!(!recovery.store.degraded());
    assert_eq!(
        recovery
            .store
            .get(1)
            .unwrap()
            .get("status")
            .and_then(Value::as_str),
        Some("queued")
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The degraded server keeps serving reads but answers new submissions
/// with a non-retryable `503 store_degraded` — liveness without
/// readiness, reported by `/healthz`.
#[test]
fn degraded_server_rejects_submissions_but_keeps_serving_reads() {
    let _armed = armed_lock();
    let dir = temp_dir("degraded_server");
    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 8,
        state_dir: Some(dir.clone()),
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::new(server.addr().to_string());

    let id = client.submit(&tiny_job(4)).unwrap();
    let done = client
        .wait_for(id, Duration::from_millis(10), Duration::from_secs(60))
        .unwrap();
    assert_eq!(done.get("status").and_then(Value::as_str), Some("done"));

    // Fail the next journal append: the submit's own journal-first write
    // errors, so the job is refused AND the store degrades.
    fault::arm("journal.append:1:err");
    let err = client.submit(&tiny_job(5)).unwrap_err().to_string();
    assert!(err.contains("503"), "{err}");
    fault::disarm();

    // Reads still work (liveness); submissions stay refused with the
    // non-retryable reason (no readiness); health reports the split.
    assert_eq!(
        client
            .job_status(id)
            .unwrap()
            .get("status")
            .and_then(Value::as_str),
        Some("done")
    );
    let err = client.submit(&tiny_job(6)).unwrap_err().to_string();
    assert!(err.contains("degraded"), "{err}");
    let health = client.healthz().unwrap();
    assert_eq!(
        health.get("status").and_then(Value::as_str),
        Some("degraded")
    );
    assert_eq!(health.get("ready").and_then(Value::as_bool), Some(false));
    assert_eq!(
        health.get("store_degraded").and_then(Value::as_bool),
        Some(true)
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `done` line the journal refuses is a line the spool never gets, for
/// the spool is the journal: the shard serves `failed: result not
/// durable`, the spool still owes the job as pending, and a restart on
/// the same spool re-runs it to `done` under its id — as a failover
/// would.
#[test]
fn journal_failure_on_done_leaves_the_job_pending_in_the_spool() {
    let _armed = armed_lock();
    let dir = temp_dir("spool_pending");
    let spool_dir = dir.join("spool");
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 8,
        state_dir: Some(dir.join("state")),
        shard_id: 1,
        spool_dir: Some(spool_dir.clone()),
        ..Default::default()
    };
    let server = Server::start(&config).unwrap();
    let mut client = Client::new(server.addr().to_string());

    // Hit 1 is the submit line, hit 2 the done line.
    fault::arm("journal.append:2:err");
    let id = client.submit(&tiny_job(7)).unwrap();
    let served = client
        .wait_for(id, Duration::from_millis(10), Duration::from_secs(60))
        .unwrap();
    fault::disarm();
    assert_eq!(served.get("status").and_then(Value::as_str), Some("failed"));
    let msg = served.get("error").and_then(Value::as_str).unwrap();
    assert!(msg.contains("result not durable"), "{msg}");

    let debt = spool::replay(&spool::spool_path(&spool_dir, 1));
    assert!(
        debt.terminal.is_empty(),
        "no terminal line reached the spool"
    );
    let owed: Vec<u64> = debt.pending.iter().map(|(owed, _)| *owed).collect();
    assert_eq!(owed, vec![id], "the spool owes the job as pending");
    drop(client);
    server.shutdown();

    let server = Server::start(&config).unwrap();
    let rerun = Client::new(server.addr().to_string())
        .wait_for(id, Duration::from_millis(10), Duration::from_secs(60))
        .unwrap();
    assert_eq!(rerun.get("status").and_then(Value::as_str), Some("done"));
    assert_eq!(rerun.get("job").and_then(Value::as_u64), Some(id));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
