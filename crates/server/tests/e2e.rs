//! End-to-end tests over a real socket: a submitted job's wire result must
//! be **identical** to the equivalent in-process `sspc_api` call, the
//! error paths (malformed submissions, backpressure) must answer with the
//! right statuses without wedging the service, and the PR-5 store layer
//! must deliver its contracts — restart recovery (results byte-identical,
//! interrupted jobs re-run), TTL/cap eviction, and keep-alive connection
//! reuse.

use sspc_api::compare_algorithms;
use sspc_api::registry::{AnyClusterer, ParamMap};
use sspc_common::json::Value;
use sspc_common::{ClusterId, Supervision};
use sspc_datagen::{generate, GeneratorConfig};
use sspc_server::{client, client::Client, Server, ServerConfig};
use std::path::PathBuf;
use std::time::Duration;

fn start(workers: usize, queue_capacity: usize) -> (Server, String) {
    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity,
        ..Default::default()
    })
    .expect("bind a loopback port");
    let addr = server.addr().to_string();
    (server, addr)
}

fn temp_state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sspc_e2e_state_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The experiment a job and the in-process reference both run.
const N: usize = 120;
const D: usize = 16;
const K: usize = 3;
const DIMS: usize = 5;
const DATA_SEED: u64 = 7;
const JOB_SEED: u64 = 11;
const RUNS: usize = 2;
const ALGORITHMS: [&str; 3] = ["sspc", "clarans", "harp"];
const PARAMS: &str = "clarans.num-local=1";

fn compare_job() -> Value {
    Value::object()
        .with("k", K as u64)
        .with(
            "dataset",
            Value::object().with(
                "generate",
                Value::object()
                    .with("n", N as u64)
                    .with("d", D as u64)
                    .with("dims", DIMS as u64)
                    .with("seed", DATA_SEED),
            ),
        )
        .with("algorithms", ALGORITHMS.join(","))
        .with("params", PARAMS)
        .with("runs", RUNS as u64)
        .with("seed", JOB_SEED)
        .with("truth", true)
        .with("include_assignment", true)
}

/// Submit over the socket, poll to completion, and check the result equals
/// a direct [`compare_algorithms`] call — algorithm by algorithm, field by
/// field, down to the f64 bits (shortest-roundtrip JSON) and the full
/// per-object assignment.
#[test]
fn socket_compare_job_matches_in_process_result() {
    let (server, addr) = start(2, 16);
    let id = client::submit(&addr, &compare_job()).unwrap();
    let done = client::wait_for(
        &addr,
        id,
        Duration::from_millis(25),
        Duration::from_secs(120),
    )
    .expect("job finishes");
    assert_eq!(done.get("status").and_then(Value::as_str), Some("done"));
    let wire_reports = done
        .get("result")
        .and_then(|r| r.get("reports"))
        .and_then(Value::as_array)
        .expect("reports array")
        .to_vec();

    // The reference: same dataset, same roster, same protocol, in-process.
    let data = generate(
        &GeneratorConfig {
            n: N,
            d: D,
            k: K,
            avg_cluster_dims: DIMS,
            ..Default::default()
        },
        DATA_SEED,
    )
    .unwrap();
    let scoped = ParamMap::parse_scoped(PARAMS).unwrap();
    let roster = AnyClusterer::roster(&ALGORITHMS, K, &scoped).unwrap();
    let reference = compare_algorithms(
        &roster,
        &data.dataset,
        &Supervision::none(),
        Some(data.truth.assignment()),
        RUNS,
        JOB_SEED,
    )
    .unwrap();

    assert_eq!(wire_reports.len(), reference.len());
    for (wire, local) in wire_reports.iter().zip(&reference) {
        let name = local.algorithm.as_str();
        assert_eq!(wire.get("algorithm").and_then(Value::as_str), Some(name));
        let wire_objective = wire.get("objective").and_then(Value::as_f64).unwrap();
        assert_eq!(
            wire_objective.to_bits(),
            local.best.objective().to_bits(),
            "{name}: objective drifted across the wire"
        );
        assert_eq!(
            wire.get("clusters").and_then(Value::as_u64),
            Some(local.best.n_clusters() as u64),
            "{name}"
        );
        assert_eq!(
            wire.get("outliers").and_then(Value::as_u64),
            Some(local.best.n_outliers() as u64),
            "{name}"
        );
        assert_eq!(
            wire.get("runs").and_then(Value::as_u64),
            Some(local.runs_executed as u64),
            "{name}"
        );

        let eval = local.evaluation.expect("truth supplied");
        let wire_eval = wire.get("evaluation").expect("truth supplied");
        for (key, value) in [
            ("ari", eval.ari),
            ("nmi", eval.nmi),
            ("purity", eval.purity),
        ] {
            let wire_value = wire_eval.get(key).and_then(Value::as_f64).unwrap();
            assert_eq!(
                wire_value.to_bits(),
                value.to_bits(),
                "{name}: {key} drifted across the wire"
            );
        }

        let wire_assignment: Vec<Option<ClusterId>> = wire
            .get("assignment")
            .and_then(Value::as_array)
            .expect("assignment requested")
            .iter()
            .map(|v| v.as_u64().map(|c| ClusterId(c as usize)))
            .collect();
        assert_eq!(
            wire_assignment,
            local.best.assignment().to_vec(),
            "{name}: assignment drifted across the wire"
        );
    }

    // The health counters saw exactly this one job.
    let health = client::healthz(&addr).unwrap();
    let jobs = health.get("jobs").unwrap();
    assert_eq!(jobs.get("submitted").and_then(Value::as_u64), Some(1));
    assert_eq!(jobs.get("completed").and_then(Value::as_u64), Some(1));
    assert_eq!(jobs.get("failed").and_then(Value::as_u64), Some(0));
    let harp = health.get("algorithms").unwrap().get("harp").unwrap();
    assert_eq!(harp.get("restarts").and_then(Value::as_u64), Some(1));
    server.shutdown();
}

/// A job on a dataset file written to disk: the path + `truth_path` route.
#[test]
fn file_backed_cluster_job_roundtrips() {
    let dir = std::env::temp_dir();
    let data_path = dir.join(format!("sspc_e2e_{}_data.tsv", std::process::id()));
    let truth_path = dir.join(format!("sspc_e2e_{}_truth.tsv", std::process::id()));
    let data = generate(
        &GeneratorConfig {
            n: 80,
            d: 10,
            k: 2,
            avg_cluster_dims: 4,
            ..Default::default()
        },
        5,
    )
    .unwrap();
    let mut buf = Vec::new();
    sspc_common::io::write_delimited(&data.dataset, &mut buf, '\t').unwrap();
    std::fs::write(&data_path, buf).unwrap();
    let mut buf = Vec::new();
    sspc_common::io::write_labels(&mut buf, data.truth.assignment()).unwrap();
    std::fs::write(&truth_path, buf).unwrap();

    let (server, addr) = start(1, 8);
    let job = Value::object()
        .with("type", "cluster")
        .with("k", 2u64)
        .with(
            "dataset",
            Value::object().with("path", data_path.to_string_lossy().into_owned()),
        )
        .with("truth_path", truth_path.to_string_lossy().into_owned())
        .with("algorithm", "clarans")
        .with("runs", 2u64)
        .with("seed", 9u64);
    let id = client::submit(&addr, &job).unwrap();
    let done = client::wait_for(
        &addr,
        id,
        Duration::from_millis(25),
        Duration::from_secs(60),
    )
    .unwrap();
    assert_eq!(done.get("status").and_then(Value::as_str), Some("done"));
    let result = done.get("result").unwrap();
    assert_eq!(
        result
            .get("assignment")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(80)
    );
    assert!(result.get("evaluation").is_some());
    server.shutdown();
    let _ = std::fs::remove_file(&data_path);
    let _ = std::fs::remove_file(&truth_path);
}

/// Invalid submissions answer 400 with a useful message; unknown routes
/// and ids 404; wrong methods 405. The service keeps serving afterwards.
#[test]
fn malformed_requests_get_4xx_answers() {
    let (server, addr) = start(1, 8);

    // Not JSON at all: raw bytes straight down the socket (announcing
    // close, so read_to_string returns as soon as the server answers).
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .write_all(b"POST /jobs HTTP/1.1\r\ncontent-length: 4\r\nconnection: close\r\n\r\n}{!!")
            .unwrap();
        let mut answer = String::new();
        stream.read_to_string(&mut answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");
    }

    // A JSON document that is not an object.
    let (status, body) =
        sspc_server::http::request(&addr, "POST", "/jobs", Some(&Value::Str("}{".into()))).unwrap();
    assert_eq!(status, 400);
    assert!(body.get("error").is_some());

    // JSON, but schema-invalid (missing k/dataset/algorithms).
    let (status, body) =
        sspc_server::http::request(&addr, "POST", "/jobs", Some(&Value::object())).unwrap();
    assert_eq!(status, 400);
    let msg = body.get("error").and_then(Value::as_str).unwrap();
    assert!(msg.contains("`k`"), "{msg}");

    // Unknown algorithm passes the schema, fails at execution → job fails.
    let job = compare_job()
        .with("algorithms", "kmeans")
        .with("params", "");
    let id = client::submit(&addr, &job).unwrap();
    let done = client::wait_for(
        &addr,
        id,
        Duration::from_millis(10),
        Duration::from_secs(30),
    )
    .unwrap();
    assert_eq!(done.get("status").and_then(Value::as_str), Some("failed"));
    let msg = done.get("error").and_then(Value::as_str).unwrap();
    assert!(msg.contains("unknown algorithm"), "{msg}");

    // Unknown routes, ids, and methods.
    let (status, _) = sspc_server::http::request(&addr, "GET", "/nope", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = sspc_server::http::request(&addr, "GET", "/jobs/999", None).unwrap();
    assert_eq!(status, 404);
    let (status, _) = sspc_server::http::request(&addr, "DELETE", "/jobs/1", None).unwrap();
    assert_eq!(status, 405);
    let (status, _) = sspc_server::http::request(&addr, "POST", "/healthz", None).unwrap();
    assert_eq!(status, 405);

    // The counters recorded the three invalid submissions and the service
    // still answers.
    let health = client::healthz(&addr).unwrap();
    let jobs = health.get("jobs").unwrap();
    assert_eq!(
        jobs.get("rejected_invalid").and_then(Value::as_u64),
        Some(3)
    );
    assert_eq!(jobs.get("failed").and_then(Value::as_u64), Some(1));
    server.shutdown();
}

/// A small, fast, deterministic job for the store-layer tests.
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

fn start_disk(workers: usize, dir: &std::path::Path) -> (Server, String) {
    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_capacity: 16,
        state_dir: Some(dir.to_path_buf()),
        ..Default::default()
    })
    .expect("bind a loopback port");
    let addr = server.addr().to_string();
    (server, addr)
}

/// The tentpole's restart contract, end to end over real sockets and a
/// real kill/restart cycle: a completed job's result polled after restart
/// is **byte-identical** to the pre-restart response, and a job queued at
/// kill time re-runs to completion after restart.
#[test]
fn restart_recovery_preserves_results_and_reruns_interrupted_jobs() {
    let dir = temp_state_dir("recovery");

    // Life 1: run a job to completion, capture its exact wire document.
    let (server, addr) = start_disk(1, &dir);
    let mut client = Client::new(&addr);
    let id = client.submit(&tiny_job(7)).unwrap();
    let before = client
        .wait_for(id, Duration::from_millis(20), Duration::from_secs(60))
        .unwrap();
    assert_eq!(before.get("status").and_then(Value::as_str), Some("done"));
    server.shutdown();

    // Life 2: no workers — a freshly submitted job stays queued and the
    // process "dies" with it in flight.
    let (server, addr) = start_disk(0, &dir);
    let mut client = Client::new(&addr);
    let interrupted = client.submit(&tiny_job(8)).unwrap();
    assert_eq!(
        client
            .job_status(interrupted)
            .unwrap()
            .get("status")
            .and_then(Value::as_str),
        Some("queued")
    );
    // The completed result from life 1 is already being served again.
    assert_eq!(
        client.job_status(id).unwrap().to_string(),
        before.to_string()
    );
    server.shutdown();

    // Life 3: recovery re-enqueues the interrupted job and it completes.
    let (server, addr) = start_disk(1, &dir);
    let mut client = Client::new(&addr);
    let after = client
        .wait_for(
            interrupted,
            Duration::from_millis(20),
            Duration::from_secs(60),
        )
        .unwrap();
    assert_eq!(after.get("status").and_then(Value::as_str), Some("done"));
    let health = client.healthz().unwrap();
    assert_eq!(
        health
            .get("jobs")
            .unwrap()
            .get("recovered")
            .and_then(Value::as_u64),
        Some(1)
    );
    assert_eq!(
        health
            .get("store")
            .unwrap()
            .get("kind")
            .and_then(Value::as_str),
        Some("disk")
    );
    // The byte-identity core of the acceptance criteria.
    assert_eq!(
        client.job_status(id).unwrap().to_string(),
        before.to_string(),
        "result drifted across restart"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// TTL eviction: a finished result outlives its TTL only until the next
/// read, then 404s; the eviction is counted in `/healthz`.
#[test]
fn ttl_evicts_finished_results() {
    let ttl = Duration::from_millis(100);
    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 8,
        result_ttl: Some(ttl),
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::new(server.addr().to_string());
    let id = client.submit(&tiny_job(3)).unwrap();
    let done = client
        .wait_for(id, Duration::from_millis(10), Duration::from_secs(60))
        .unwrap();
    assert_eq!(done.get("status").and_then(Value::as_str), Some("done"));

    std::thread::sleep(ttl + Duration::from_millis(300));
    let err = client.job_status(id).unwrap_err().to_string();
    assert!(err.contains("404"), "{err}");
    let store = client.healthz().unwrap().get("store").unwrap().clone();
    assert_eq!(store.get("evicted").and_then(Value::as_u64), Some(1));
    assert_eq!(store.get("jobs").and_then(Value::as_u64), Some(0));
    assert_eq!(
        store.get("result_ttl_seconds").and_then(Value::as_f64),
        Some(0.1)
    );
    server.shutdown();
}

/// `max_jobs` eviction: fully deterministic — the store never exceeds
/// the cap, and the oldest finished job is the one that goes.
#[test]
fn max_jobs_evicts_oldest_finished() {
    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 8,
        max_jobs: Some(1),
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::new(server.addr().to_string());
    let first = client.submit(&tiny_job(1)).unwrap();
    client
        .wait_for(first, Duration::from_millis(10), Duration::from_secs(60))
        .unwrap();
    let second = client.submit(&tiny_job(2)).unwrap();
    client
        .wait_for(second, Duration::from_millis(10), Duration::from_secs(60))
        .unwrap();
    // Submitting the second job pushed the store past the cap; the first
    // (finished) job was evicted, the second survived.
    assert!(client.job_status(first).is_err());
    assert!(client.job_status(second).is_ok());
    let store = client.healthz().unwrap().get("store").unwrap().clone();
    assert_eq!(store.get("max_jobs").and_then(Value::as_u64), Some(1));
    assert_eq!(store.get("evicted").and_then(Value::as_u64), Some(1));
    server.shutdown();
}

/// Keep-alive over the full service: one `Client` drives a submission,
/// the whole polling loop, a listing, and two health checks over ONE TCP
/// connection — asserted via the server's own accepted-connection
/// counter.
#[test]
fn polling_reuses_one_connection() {
    let (server, addr) = start(1, 8);
    let mut client = Client::new(&addr);
    let id = client.submit(&tiny_job(5)).unwrap();
    let done = client
        .wait_for(id, Duration::from_millis(10), Duration::from_secs(60))
        .unwrap();
    assert_eq!(done.get("status").and_then(Value::as_str), Some("done"));
    let listing = client.list_jobs(Some("done"), Some(10)).unwrap();
    assert_eq!(listing.get("total").and_then(Value::as_u64), Some(1));
    let _ = client.healthz().unwrap();
    let health = client.healthz().unwrap();
    assert_eq!(
        health.get("connections_accepted").and_then(Value::as_u64),
        Some(1),
        "every request should have ridden the same socket"
    );
    server.shutdown();
}

/// The `GET /jobs` satellite: `?status=` filters, `?limit=` caps (with
/// `total` reporting the uncapped count), and bad parameters answer 400.
#[test]
fn listing_filters_and_caps() {
    let (server, addr) = start(0, 8); // no workers: jobs stay queued
    let mut client = Client::new(&addr);
    for seed in 0..3 {
        client.submit(&tiny_job(seed)).unwrap();
    }
    let all = client.list_jobs(None, None).unwrap();
    assert_eq!(all.get("total").and_then(Value::as_u64), Some(3));
    let jobs = all.get("jobs").and_then(Value::as_array).unwrap();
    assert_eq!(jobs.len(), 3);
    // Newest first.
    assert_eq!(jobs[0].get("job").and_then(Value::as_u64), Some(3));
    assert!(jobs[0].get("result").is_none());

    let queued = client.list_jobs(Some("queued"), Some(2)).unwrap();
    assert_eq!(queued.get("total").and_then(Value::as_u64), Some(3));
    assert_eq!(
        queued.get("jobs").and_then(Value::as_array).unwrap().len(),
        2
    );
    let done = client.list_jobs(Some("done"), None).unwrap();
    assert_eq!(done.get("total").and_then(Value::as_u64), Some(0));

    let (status, body) =
        sspc_server::http::request(&addr, "GET", "/jobs?status=bogus", None).unwrap();
    assert_eq!(status, 400);
    assert!(body
        .get("error")
        .and_then(Value::as_str)
        .unwrap()
        .contains("bogus"));
    let (status, _) = sspc_server::http::request(&addr, "GET", "/jobs?limit=x", None).unwrap();
    assert_eq!(status, 400);
    let (status, _) = sspc_server::http::request(&addr, "GET", "/jobs?frob=1", None).unwrap();
    assert_eq!(status, 400);
    server.shutdown();
}

/// Backpressure: with no workers draining, the queue fills to capacity and
/// the next submission is refused with 503 — it does **not** block or grow
/// the queue without bound.
#[test]
fn full_queue_answers_503_backpressure() {
    let (server, addr) = start(0, 2);
    let job = compare_job();
    assert!(client::submit(&addr, &job).is_ok());
    assert!(client::submit(&addr, &job).is_ok());

    // Raw connection so the Retry-After header is observable (the
    // Client would eat the 503 into its retry loop).
    let mut conn = sspc_server::http::HttpConnection::connect(&addr).unwrap();
    let (status, body) = conn.roundtrip("POST", "/jobs", Some(&job)).unwrap();
    assert_eq!(status, 503);
    assert_eq!(body.get("queue_depth").and_then(Value::as_u64), Some(2));
    assert_eq!(body.get("queue_capacity").and_then(Value::as_u64), Some(2));
    assert_eq!(
        body.get("reason").and_then(Value::as_str),
        Some("queue_full"),
        "the one reason a client may re-POST"
    );
    let retry_after = conn.retry_after().expect("every 503 carries Retry-After");
    assert!(
        (1..=60).contains(&retry_after),
        "Retry-After {retry_after} outside its clamp"
    );

    // The refused job left no trace; the two accepted ones are queued.
    let health = client::healthz(&addr).unwrap();
    assert_eq!(
        health
            .get("queue")
            .unwrap()
            .get("depth")
            .and_then(Value::as_u64),
        Some(2)
    );
    let jobs = health.get("jobs").unwrap();
    assert_eq!(jobs.get("submitted").and_then(Value::as_u64), Some(2));
    assert_eq!(
        jobs.get("rejected_queue_full").and_then(Value::as_u64),
        Some(1)
    );
    let (_, listing) = sspc_server::http::request(&addr, "GET", "/jobs", None).unwrap();
    assert_eq!(
        listing
            .get("jobs")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(2)
    );
    server.shutdown();
}

/// The deadline tentpole, end to end with no fault-injection feature: a
/// job whose `timeout_secs` has already passed by its first cooperative
/// cancellation check fails with a descriptive error, the worker thread
/// survives to complete the next job, and `/healthz` counts the
/// cancellation — all on one server, no restart.
#[test]
fn deadline_exceeded_jobs_fail_without_killing_the_worker() {
    let (server, addr) = start(1, 8);
    let mut client = Client::new(&addr);

    // ~1µs budget: expired before the first restart loop iteration runs.
    let id = client
        .submit(&tiny_job(1).with("timeout_secs", 1e-6))
        .unwrap();
    let done = client
        .wait_for(id, Duration::from_millis(10), Duration::from_secs(60))
        .unwrap();
    assert_eq!(done.get("status").and_then(Value::as_str), Some("failed"));
    let msg = done.get("error").and_then(Value::as_str).unwrap();
    assert!(msg.contains("deadline exceeded"), "{msg}");

    // The same worker (pool of 1) completes the next, un-deadlined job —
    // and the deadline guard was uninstalled between jobs.
    let id = client.submit(&tiny_job(2)).unwrap();
    let done = client
        .wait_for(id, Duration::from_millis(10), Duration::from_secs(60))
        .unwrap();
    assert_eq!(done.get("status").and_then(Value::as_str), Some("done"));

    let health = client.healthz().unwrap();
    assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(
        health.get("jobs_deadline_exceeded").and_then(Value::as_u64),
        Some(1)
    );
    assert_eq!(health.get("jobs_panicked").and_then(Value::as_u64), Some(0));
    assert_eq!(health.get("workers_alive").and_then(Value::as_u64), Some(1));
    let jobs = health.get("jobs").unwrap();
    assert_eq!(jobs.get("failed").and_then(Value::as_u64), Some(1));
    assert_eq!(jobs.get("completed").and_then(Value::as_u64), Some(1));
    server.shutdown();
}

/// The ingress bound: with `max_connections = 2` and both slots held by
/// idle keep-alive connections, a third connection is shed with an
/// **inline** `503` + `Retry-After` (`reason: connections_exhausted`) —
/// visible backpressure, never a silent drop — and a slot freed by a
/// close is reusable again. Shard and router run the same HTTP loop, so
/// both shed alike and both report the connection gauges.
#[test]
fn connection_cap_sheds_with_503_and_recovers() {
    use sspc_server::{Router, RouterConfig};

    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: 8,
        max_connections: 2,
        ..Default::default()
    })
    .unwrap();
    assert_cap_sheds_and_recovers(&server.addr().to_string());

    let (shard, _) = start(1, 8);
    let router = Router::start(&RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: vec![(0, shard.addr().to_string())],
        max_connections: 2,
        ..Default::default()
    })
    .unwrap();
    assert_cap_sheds_and_recovers(&router.addr().to_string());
    router.shutdown();
    shard.shutdown();
    server.shutdown();
}

fn assert_cap_sheds_and_recovers(addr: &str) {
    let addr = addr.to_string();

    // Two handlers occupy both slots (first exchange forces the accept).
    let mut first = Client::new(&addr);
    let mut second = Client::new(&addr);
    first.healthz().unwrap();
    second.healthz().unwrap();
    let health = first.healthz().unwrap();
    assert_eq!(
        health.get("connections_active").and_then(Value::as_u64),
        Some(2)
    );
    assert_eq!(
        health.get("connections_limit").and_then(Value::as_u64),
        Some(2)
    );

    // The third connection is answered 503 + Retry-After and closed. The
    // shed races the accept loop, so allow a few attempts for the gauge
    // to be observed at the cap.
    let mut shed = None;
    for _ in 0..20 {
        match client::healthz(&addr) {
            Ok(_) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => {
                shed = Some(e.to_string());
                break;
            }
        }
    }
    let shed = shed.expect("a third connection was eventually shed");
    assert!(shed.contains("503"), "shed with a 503, got: {shed}");

    // Releasing a slot makes room again.
    drop(second);
    let mut third = None;
    for _ in 0..50 {
        if let Ok(h) = client::healthz(&addr) {
            third = Some(h);
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let health = third.expect("freed slot is reusable");
    let rejected = health
        .get("connections_rejected")
        .and_then(Value::as_u64)
        .unwrap();
    assert!(rejected >= 1, "the shed connection was counted");
    drop(first);
}

/// The drain lifecycle end to end: running work finishes, `/healthz`
/// flips to `draining` (not ready), new submissions get `503
/// shutting_down`, reads keep working, and `drain()` returns `true`
/// within the deadline.
#[test]
fn drain_finishes_running_jobs_and_refuses_new_ones() {
    let (server, addr) = start(1, 8);
    let mut client = Client::new(&addr);
    let id = client.submit(&tiny_job(5)).unwrap();

    server.begin_drain();

    // Lame-duck surface: health says draining, submissions are refused
    // with the drain reason, reads still answer.
    let health = client.healthz().unwrap();
    assert_eq!(
        health.get("status").and_then(Value::as_str),
        Some("draining")
    );
    assert_eq!(health.get("ready").and_then(Value::as_bool), Some(false));
    let err = client.submit(&tiny_job(6)).unwrap_err().to_string();
    assert!(err.contains("503"), "refused: {err}");
    assert!(
        err.contains("draining") || err.contains("shutting"),
        "{err}"
    );
    let jobs = client.healthz().unwrap();
    assert!(
        jobs.get("jobs")
            .unwrap()
            .get("rejected_draining")
            .and_then(Value::as_u64)
            .unwrap()
            >= 1
    );

    // The admitted job still completes, and the drain observes it.
    let done = client
        .wait_for(id, Duration::from_millis(10), Duration::from_secs(60))
        .unwrap();
    assert_eq!(done.get("status").and_then(Value::as_str), Some("done"));
    drop(client);
    assert!(
        server.drain(Duration::from_secs(30)),
        "drain completed within the deadline"
    );
}

/// `wait_for` against a draining server with no workers left fails fast
/// on the real server's `503 shutting_down` (the scripted-server variant
/// of this lives in the client unit tests).
#[test]
fn wait_for_fails_fast_on_a_draining_server() {
    // workers = 0: nothing will ever run the queued job (the CLI refuses
    // this; the library allows it precisely for drills like this one).
    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 0,
        queue_capacity: 8,
        ..Default::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::new(&addr);
    let id = client.submit(&tiny_job(9)).unwrap();

    server.begin_drain();
    let started = std::time::Instant::now();
    let err = client
        .wait_for(id, Duration::from_millis(10), Duration::from_secs(60))
        .unwrap_err()
        .to_string();
    assert!(err.contains("draining"), "fail-fast names the drain: {err}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "did not poll out the full 60s timeout"
    );
    drop(client);
    assert!(server.drain(Duration::from_secs(10)), "nothing was running");
}

/// Cost-aware admission: with a microscopic backlog budget and no workers
/// to drain it, the first job is admitted (an idle server accepts
/// anything) and the second is shed with `503 backlog_exceeded` carrying
/// the estimate — deterministically, because the cost-rate prior is fixed.
#[test]
fn backlog_budget_sheds_submissions_deterministically() {
    let server = Server::start(&ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 0,
        queue_capacity: 8,
        // tiny_job costs 30·6·2·1·1 = 360 units ⇒ 360µs at the 1µs/unit
        // prior, comfortably over a 100µs budget.
        max_backlog_seconds: Some(0.0001),
        ..Default::default()
    })
    .unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::new(&addr);

    let first = client.submit(&tiny_job(1));
    assert!(first.is_ok(), "an idle server admits the first job");
    let err = client.submit(&tiny_job(2)).unwrap_err().to_string();
    assert!(err.contains("backlog"), "shed names the budget: {err}");

    let health = client.healthz().unwrap();
    let admission = health.get("admission").unwrap();
    assert_eq!(
        admission.get("backlog_cost_units").and_then(Value::as_u64),
        Some(360)
    );
    assert!(
        admission
            .get("estimated_backlog_seconds")
            .and_then(Value::as_f64)
            .unwrap()
            > 0.0001
    );
    assert_eq!(
        health
            .get("jobs")
            .unwrap()
            .get("rejected_backlog")
            .and_then(Value::as_u64),
        Some(1)
    );
    drop(client);
    server.shutdown();
}

/// Latency observability end to end: after a completed job, `/healthz`
/// reports non-empty queue-wait and job-latency percentile blocks.
#[test]
fn healthz_reports_latency_percentiles_after_a_job() {
    let (server, addr) = start(1, 8);
    let mut client = Client::new(&addr);
    let id = client.submit(&tiny_job(3)).unwrap();
    client
        .wait_for(id, Duration::from_millis(10), Duration::from_secs(60))
        .unwrap();

    let health = client.healthz().unwrap();
    let latency = health.get("latency").expect("latency block present");
    for block in ["queue_wait", "job"] {
        let stats = latency.get(block).unwrap();
        assert_eq!(
            stats.get("count").and_then(Value::as_u64),
            Some(1),
            "{block} counted the job"
        );
        let p50 = stats.get("p50_ms").and_then(Value::as_f64).unwrap();
        let p99 = stats.get("p99_ms").and_then(Value::as_f64).unwrap();
        assert!(p50 >= 0.0 && p99 >= p50, "{block}: p50={p50} p99={p99}");
    }
    // One in-flight request: this very healthz GET.
    assert_eq!(
        health.get("requests_in_flight").and_then(Value::as_u64),
        Some(1)
    );
    drop(client);
    server.shutdown();
}

/// The membership satellite, end to end over real sockets: the router's
/// `/healthz` per-shard table carries a membership state for every
/// shard — `active` for routable members, `down` once one dies, and a
/// runtime joiner shows up `active` after its handoff.
#[test]
fn router_healthz_reports_membership_states() {
    use sspc_server::{Router, RouterConfig};

    let shard = |id: u16| {
        Server::start(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 8,
            shard_id: id,
            ..Default::default()
        })
        .unwrap()
    };
    let a = shard(0);
    let b = shard(1);
    let router = Router::start(&RouterConfig {
        addr: "127.0.0.1:0".into(),
        shards: vec![(0, a.addr().to_string()), (1, b.addr().to_string())],
        probe_interval: Duration::from_secs(60), // only proxy traffic notices deaths
        fail_after: 1,
        ..Default::default()
    })
    .unwrap();
    let mut client = Client::new(router.addr().to_string());

    let membership = |health: &Value, id: &str| -> String {
        health
            .get("shards")
            .and_then(|s| s.get(id))
            .and_then(|doc| doc.get("membership"))
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let health = client.healthz().unwrap();
    assert_eq!(membership(&health, "0"), "active", "{health}");
    assert_eq!(membership(&health, "1"), "active", "{health}");

    // A runtime joiner ends up `active` once its handoff cuts over.
    let c = shard(2);
    let joined = client.add_shard(2, &c.addr().to_string()).unwrap();
    assert_eq!(
        joined.get("membership").and_then(Value::as_str),
        Some("active"),
        "{joined}"
    );
    let health = client.healthz().unwrap();
    assert_eq!(membership(&health, "2"), "active", "{health}");

    // A dead shard renders `down`, not merely absent. The healthz fan-in
    // itself notices the refused connection (fail_after=1), though the
    // dying shard may answer one last in-flight probe mid-drain.
    b.shutdown();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let health = loop {
        let health = client.healthz().unwrap();
        if membership(&health, "1") == "down" {
            break health;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "shard 1 never went down: {health}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(membership(&health, "0"), "active", "{health}");

    drop(client);
    router.shutdown();
    a.shutdown();
    c.shutdown();
}
