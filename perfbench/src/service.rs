//! The `service_closed` workload: closed-loop clients against a router
//! over two shard servers, all started in this process.

use crate::context;
use crate::inprocess::{self, best_of_sspc, load_input, same_clustering, Input, NaiveSspc};
use crate::trace::{span, Scope, Tracer};
use crate::{
    rss_error, Outcome, RunConfig, ARI_JOBS, MIN_JOBS, REFERENCE_JOB, RSS_WINDOW, SETUP_JOB,
    SETUP_REPS,
};
use sspc_api::{best_of, AnyClusterer};
use sspc_common::json::Value;
use sspc_common::rng::derive_seed;
use sspc_common::{Error, Result};
use sspc_metrics::{evaluate_partition, OutlierPolicy};
use sspc_server::client::Client;
use sspc_server::router::shard_of;
use sspc_server::{Router, RouterConfig, Server, ServerConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SHARDS: u16 = 2;
const CLIENTS: usize = 2;
/// Restarts per job.
const RUNS: usize = 3;
/// Job seeds per dataset. The clients rotate through every (dataset,
/// seed) pair, each with its own in-process reference.
const SEEDS_PER_DATASET: usize = 4;
/// Fixed poll interval. A backoff would quantise latency to its own
/// schedule; a fixed short interval adds at most this much to each job.
const POLL_EVERY: Duration = Duration::from_millis(2);
/// A job not done after this long fails the run instead of hanging it.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// What an in-process `best_of` gives for one job seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reference {
    /// The winner's objective.
    pub objective: f64,
    /// The winner's ARI against the planted truth (outliers as a cluster,
    /// as the server scores it).
    pub ari: f64,
}

/// Checks one service job document against the in-process reference for
/// its seed: status `done`, the restart count, and the objective and ARI
/// bit for bit. Returns the ARI.
///
/// # Errors
///
/// A message naming the first mismatch.
pub fn check_service_result(
    doc: &Value,
    reference: &Reference,
) -> std::result::Result<f64, String> {
    let status = doc.get("status").and_then(Value::as_str);
    if status != Some("done") {
        let error = doc.get("error").and_then(Value::as_str).unwrap_or("");
        return Err(format!("status {status:?} {error}"));
    }
    let result = doc.get("result").ok_or("done without a result")?;
    let runs = result.get("runs").and_then(Value::as_u64);
    if runs != Some(RUNS as u64) {
        return Err(format!("runs {runs:?}, expected {RUNS}"));
    }
    let objective = result.get("objective").and_then(Value::as_f64);
    if objective.map(f64::to_bits) != Some(reference.objective.to_bits()) {
        return Err(format!(
            "objective {objective:?}, in-process best_of gives {}",
            reference.objective
        ));
    }
    let ari = result
        .get("evaluation")
        .and_then(|e| e.get("ari"))
        .and_then(Value::as_f64);
    match ari {
        Some(a) if a.to_bits() == reference.ari.to_bits() => Ok(a),
        _ => Err(format!(
            "ari {ari:?}, in-process evaluation gives {}",
            reference.ari
        )),
    }
}

/// The address of the shard that owns job `id`, from the shard id in the
/// id's top bits.
pub fn owner_addr(id: u64, shards: &[(u16, String)]) -> Option<&str> {
    let shard = shard_of(id);
    shards
        .iter()
        .find(|(s, _)| *s == shard)
        .map(|(_, addr)| addr.as_str())
}

/// Turnaround the service adds around a job's execution, in ms: the
/// client-observed latency minus the server-reported `seconds`.
pub fn overhead_ms(turnaround_ms: f64, exec_seconds: f64) -> f64 {
    turnaround_ms - exec_seconds * 1e3
}

/// The job document for dataset `i` of `dir` and `seed`.
fn job_spec(dir: &Path, i: usize, input: &Input, k: usize, seed: u64) -> Value {
    let files = crate::inputs::files(dir, i);
    let pairs = |items: Vec<(usize, usize)>| -> Value {
        Value::Arr(
            items
                .into_iter()
                .map(|(id, c)| Value::Arr(vec![Value::from(id), Value::from(c)]))
                .collect(),
        )
    };
    let sup = &input.supervision;
    Value::object()
        .with("type", "cluster")
        .with("algorithm", "sspc")
        .with("k", k)
        .with(
            "dataset",
            Value::object().with("path", files.data.display().to_string()),
        )
        .with("truth_path", files.truth.display().to_string())
        .with(
            "supervision",
            Value::object()
                .with(
                    "objects",
                    pairs(
                        sup.labeled_objects()
                            .iter()
                            .map(|(o, c)| (o.index(), c.index()))
                            .collect(),
                    ),
                )
                .with(
                    "dims",
                    pairs(
                        sup.labeled_dims()
                            .iter()
                            .map(|(j, c)| (j.index(), c.index()))
                            .collect(),
                    ),
                ),
        )
        .with("runs", RUNS)
        .with("seed", seed)
}

/// A router over its shard servers, all in this process.
pub struct Fleet {
    router: Router,
    servers: Vec<Server>,
    shards: Vec<(u16, String)>,
    dir: PathBuf,
}

impl Fleet {
    /// Two one-worker shards with fsynced disk journals shipping to a
    /// shared spool, behind a router; returns once the router is ready.
    fn start(dir: &Path) -> Result<Fleet> {
        let spool = dir.join("spool");
        let mut servers = Vec::new();
        let mut shards = Vec::new();
        for shard in 0..SHARDS {
            let server = Server::start(&ServerConfig {
                addr: "127.0.0.1:0".into(),
                workers: 1,
                queue_capacity: 64,
                state_dir: Some(dir.join(format!("shard-{shard}"))),
                shard_id: shard,
                spool_dir: Some(spool.clone()),
                ..Default::default()
            })?;
            shards.push((shard, server.addr().to_string()));
            servers.push(server);
        }
        let router = Router::start(&RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: shards.clone(),
            spool_dir: Some(spool),
            ..Default::default()
        })?;
        let fleet = Fleet {
            router,
            servers,
            shards,
            dir: dir.to_path_buf(),
        };
        let mut client = Client::new(fleet.addr());
        let deadline = Instant::now() + JOB_TIMEOUT;
        while client.healthz()?.get("ready").and_then(Value::as_bool) != Some(true) {
            if Instant::now() > deadline {
                return Err(Error::InvalidParameter("router never became ready".into()));
            }
            std::thread::sleep(POLL_EVERY);
        }
        Ok(fleet)
    }

    fn addr(&self) -> String {
        self.router.addr().to_string()
    }

    fn stop(self) {
        self.router.shutdown();
        for server in self.servers {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One finished client exchange.
struct Finished {
    id: u64,
    doc: Value,
    polls: usize,
    /// The final poll through the router, for the hop estimate.
    last_poll: Duration,
}

/// Submits `spec` and polls at the fixed interval until the job is
/// terminal, with a span per call when traced.
fn submit_and_wait(
    client: &mut Client,
    spec: &Value,
    scope: Option<Scope<'_>>,
) -> Result<Finished> {
    let id = span(scope, "http.submit", |_| client.submit(spec))?;
    let started = Instant::now();
    let mut polls = 0;
    loop {
        span(scope, "client.sleep", |_| std::thread::sleep(POLL_EVERY));
        let sent = Instant::now();
        let doc = span(scope, "http.poll", |_| client.job_status(id))?;
        let last_poll = sent.elapsed();
        polls += 1;
        if matches!(
            doc.get("status").and_then(Value::as_str),
            Some("done" | "failed")
        ) {
            return Ok(Finished {
                id,
                doc,
                polls,
                last_poll,
            });
        }
        if started.elapsed() > JOB_TIMEOUT {
            return Err(Error::NoConvergence(format!("job {id} not finished")));
        }
    }
}

/// One job of the timed phase.
struct Record {
    /// Global job index: client `c`'s `n`-th job is `n * CLIENTS + c`.
    index: usize,
    traced: bool,
    latency_ms: f64,
    outcome: Result<Finished>,
}

fn client_loop(
    c: usize,
    addr: &str,
    specs: &[&Value],
    shards: &[(u16, String)],
    cfg: &RunConfig,
    phase: Instant,
    tracer: &Tracer,
) -> Vec<Record> {
    let mut client = Client::new(addr);
    let mut direct: BTreeMap<String, Client> = BTreeMap::new();
    let mut records = Vec::new();
    let mut n = 0;
    while n * CLIENTS < MIN_JOBS || phase.elapsed().as_secs_f64() < cfg.seconds {
        let index = n * CLIENTS + c;
        let spec = specs[index % specs.len()];
        // Whole rotations alternate, so traced and untraced jobs are the
        // same mix of job types.
        let traced = cfg.trace && (index / specs.len()) % 2 == 1;
        let start = Instant::now();
        let (latency_ms, outcome) = if traced {
            span(Some(Scope::root(tracer, index as u64)), "job", |s| {
                let outcome = submit_and_wait(&mut client, spec, s);
                let latency_ms = start.elapsed().as_secs_f64() * 1e3;
                if let (Some(s), Ok(done)) = (s, &outcome) {
                    annotate(s, done, latency_ms, shards, &mut direct);
                }
                (latency_ms, outcome)
            })
        } else {
            let outcome = submit_and_wait(&mut client, spec, None);
            (start.elapsed().as_secs_f64() * 1e3, outcome)
        };
        records.push(Record {
            index,
            traced,
            latency_ms,
            outcome,
        });
        n += 1;
    }
    records
}

/// Attaches the server-reported times to a traced job's span and polls
/// the owning shard directly once, for the router hop.
fn annotate(
    s: Scope<'_>,
    done: &Finished,
    latency_ms: f64,
    shards: &[(u16, String)],
    direct: &mut BTreeMap<String, Client>,
) {
    let exec = done.doc.get("seconds").and_then(Value::as_f64);
    let algo = done
        .doc
        .get("result")
        .and_then(|r| r.get("seconds"))
        .and_then(Value::as_f64);
    s.attr("server_id", done.id as f64);
    s.attr("polls", done.polls as f64);
    s.attr("latency_ms", latency_ms);
    if let (Some(exec), Some(algo)) = (exec, algo) {
        s.attr("exec_s", exec);
        s.attr("algo_s", algo);
    }
    if let Some(addr) = owner_addr(done.id, shards) {
        let shard = direct
            .entry(addr.to_string())
            .or_insert_with(|| Client::new(addr));
        let sent = Instant::now();
        if span(Some(s), "shard.direct_poll", |_| shard.job_status(done.id)).is_ok() {
            let hop = done.last_poll.as_secs_f64() - sent.elapsed().as_secs_f64();
            s.attr("hop_s", hop);
        }
    }
}

/// Set-up: fleet start to router ready, then a warm-up through every
/// shard with `spec`: jobs one at a time through the router until each
/// shard has finished one.
///
/// # Errors
///
/// Start-up failures and failed warm-up jobs.
pub fn setup(dir: &Path, spec: &Value) -> Result<Fleet> {
    let fleet = Fleet::start(&dir.join(format!("fleet-{}", std::process::id())))?;
    let mut client = Client::new(fleet.addr());
    let mut seen = vec![false; SHARDS as usize];
    for _ in 0..64 {
        let done = submit_and_wait(&mut client, spec, None)?;
        if done.doc.get("status").and_then(Value::as_str) != Some("done") {
            return Err(Error::InvalidParameter(format!(
                "warm-up job failed: {}",
                done.doc
            )));
        }
        seen[usize::from(shard_of(done.id))] = true;
        if seen.iter().all(|&s| s) {
            return Ok(fleet);
        }
    }
    Err(Error::InvalidParameter(
        "warm-up never reached every shard".into(),
    ))
}

/// The (dataset, job seed) of job type `t`.
fn job_type(cfg: &RunConfig, t: usize) -> (usize, u64) {
    // JSON numbers are f64, so job seeds keep to 53 bits.
    (
        t % cfg.workload.spec().datasets,
        derive_seed(cfg.seed, 3000 + t as u64) >> 11,
    )
}

/// One set-up repetition on its own: the first job type's document, then
/// a timed [`setup`], then shutdown. Returns the timed seconds.
///
/// # Errors
///
/// As [`setup`].
pub fn setup_once(cfg: &RunConfig, dir: &Path) -> Result<f64> {
    let (i, seed) = job_type(cfg, 0);
    let spec = job_spec(
        dir,
        i,
        &load_input(dir, i, None)?,
        cfg.workload.spec().k,
        seed,
    );
    let start = Instant::now();
    let fleet = setup(dir, &spec)?;
    let secs = start.elapsed().as_secs_f64();
    fleet.stop();
    Ok(secs)
}

fn lookup<'v>(v: &'v Value, path: &[&str]) -> Option<&'v Value> {
    path.iter().try_fold(v, |v, key| v.get(key))
}

/// Runs `service_closed` on the files in `dir`.
///
/// # Errors
///
/// Load, reference and fleet start-up failures.
pub fn run(cfg: &RunConfig, dir: &Path, tracer: &Tracer) -> Result<Outcome> {
    let spec = cfg.workload.spec();
    let mut out = Outcome::default();

    // Untimed, before any server thread exists: the in-process reference
    // for every job type, the serial-path check, and in a traced run the
    // layer spans of the same jobs and the thread probe.
    let inputs = (0..spec.datasets)
        .map(|i| load_input(dir, i, None))
        .collect::<Result<Vec<_>>>()?;
    let roster = AnyClusterer::roster(&["sspc"], spec.k, &BTreeMap::new())?;
    let sspc = inprocess::paper_sspc(spec.k)?;
    let mut types = Vec::new();
    for t in 0..spec.datasets * SEEDS_PER_DATASET {
        let (i, seed) = job_type(cfg, t);
        let input = &inputs[i];
        let best = best_of(&roster[0], &input.dataset, &input.supervision, RUNS, seed)?.best;
        let ari =
            evaluate_partition(&input.truth, best.assignment(), OutlierPolicy::AsCluster)?.ari;
        if t == 0 {
            let naive = best_of(
                &NaiveSspc(&sspc),
                &input.dataset,
                &input.supervision,
                RUNS,
                seed,
            )?
            .best;
            if !same_clustering(&best, &naive) {
                out.failures
                    .push("reference job differs from Sspc::run_naive".into());
            }
        }
        if cfg.trace {
            let scope = Scope::root(tracer, REFERENCE_JOB + t as u64);
            span(Some(scope), "job", |s| -> Result<()> {
                let best = best_of_sspc(&sspc, input, RUNS, seed, s)?;
                span(s, "metrics.eval", |_| {
                    evaluate_partition(&input.truth, best.assignment(), OutlierPolicy::AsCluster)
                })?;
                Ok(())
            })?;
        }
        let reference = Reference {
            objective: best.objective(),
            ari,
        };
        types.push((job_spec(dir, i, input, spec.k, seed), reference));
    }
    if cfg.trace {
        // The load calls a worker makes at the start of every job.
        for rep in 0..SETUP_REPS as u64 {
            let scope = Scope::root(tracer, SETUP_JOB + rep);
            span(Some(scope), "setup", |s| load_input(dir, 0, s).map(drop))?;
        }
        let (refit, assign) = inprocess::thread_probe(&sspc, &inputs[0], cfg.seed)?;
        out.refit_speedup = refit;
        out.assign_speedup = assign;
    }
    out.bytes_loaded = inputs[0].bytes;
    drop(inputs);
    let specs: Vec<&Value> = types.iter().map(|(spec, _)| spec).collect();

    // Set-up: the fleet that serves the timed phase. The other set-up
    // repetitions ran in processes of their own.
    let start = Instant::now();
    let fleet = setup(dir, specs[0])?;
    out.setup_secs.push(start.elapsed().as_secs_f64());
    out.peak_rss_setup_mb = context::peak_rss_mb();
    let addr = fleet.addr();

    out.host_before = context::host_reference();
    let cpu_start = context::process_cpu_secs();
    let phase = Instant::now();
    let (records, rss) = context::rss_windows(RSS_WINDOW, || {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let (addr, specs, shards) = (&addr, &specs, &fleet.shards);
                    scope.spawn(move || client_loop(c, addr, specs, shards, cfg, phase, tracer))
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("client thread panicked"))
                .collect::<Vec<Record>>()
        })
    })
    .map_err(rss_error)?;
    out.wall_secs = phase.elapsed().as_secs_f64();
    out.rss_windows_mb = rss;
    out.cpu_secs = context::process_cpu_secs() - cpu_start;
    out.host_after = context::host_reference();

    if cfg.trace {
        let health = Client::new(&addr).healthz()?;
        out.health = Some(health);
    }
    Fleet::stop(fleet);

    // Untimed: every result against its in-process reference.
    let mut aris = BTreeMap::new();
    for r in records {
        out.attempted += 1;
        let finished = match r.outcome {
            Ok(f) => f,
            Err(e) => {
                out.failures.push(format!("job {}: {e}", r.index));
                continue;
            }
        };
        if finished.doc.get("status").and_then(Value::as_str) == Some("done") {
            out.completed += 1;
            if r.traced {
                out.traced_latencies_ms.push(r.latency_ms);
            } else {
                out.latencies_ms.push(r.latency_ms);
            }
        }
        match check_service_result(&finished.doc, &types[r.index % types.len()].1) {
            Ok(ari) => {
                out.ok += 1;
                if r.index < ARI_JOBS {
                    aris.insert(r.index, ari);
                }
            }
            Err(e) => out
                .failures
                .push(format!("job {} ({}): {e}", r.index, finished.id)),
        }
    }
    out.aris = aris.into_values().collect();
    Ok(out)
}

/// A named counter or latency from the router's merged `/healthz`.
pub fn health_value(health: &Value, path: &[&str]) -> f64 {
    lookup(health, path).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Sum of a value over every shard document in the router's `/healthz`.
pub fn health_shard_sum(health: &Value, path: &[&str]) -> f64 {
    health
        .get("shards")
        .and_then(Value::as_object)
        .map_or(0.0, |shards| {
            shards.values().map(|doc| health_value(doc, path)).sum()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done_doc(objective: f64, ari: f64) -> Value {
        Value::object()
            .with("status", "done")
            .with("seconds", 0.05)
            .with(
                "result",
                Value::object()
                    .with("runs", RUNS)
                    .with("objective", objective)
                    .with("seconds", 0.04)
                    .with("evaluation", Value::object().with("ari", ari)),
            )
    }

    #[test]
    fn a_corrupted_result_trips_the_output_check() {
        let reference = Reference {
            objective: 12.345_678_9,
            ari: 0.875,
        };
        // Through the wire format and back, as the client sees it.
        let wire = |v: Value| Value::parse(&v.to_string()).unwrap();
        let good = wire(done_doc(reference.objective, reference.ari));
        assert_eq!(check_service_result(&good, &reference), Ok(0.875));

        let next_ulp = f64::from_bits(reference.objective.to_bits() + 1);
        let bad_objective = wire(done_doc(next_ulp, reference.ari));
        assert!(check_service_result(&bad_objective, &reference)
            .unwrap_err()
            .contains("objective"));
        let bad_ari = wire(done_doc(reference.objective, 0.5));
        assert!(check_service_result(&bad_ari, &reference)
            .unwrap_err()
            .contains("ari"));
        let failed = Value::object()
            .with("status", "failed")
            .with("error", "boom");
        assert!(check_service_result(&failed, &reference).is_err());
        let mut wrong_runs = done_doc(reference.objective, reference.ari);
        if let Value::Obj(doc) = &mut wrong_runs {
            if let Some(Value::Obj(result)) = doc.get_mut("result") {
                result.insert("runs".into(), Value::from(1usize));
            }
        }
        assert!(check_service_result(&wrong_runs, &reference).is_err());
    }

    #[test]
    fn shard_lookup_uses_the_id_prefix() {
        let shards = vec![(0u16, "a:1".to_string()), (1u16, "b:2".to_string())];
        assert_eq!(owner_addr(7, &shards), Some("a:1"));
        assert_eq!(owner_addr((1u64 << 48) + 1, &shards), Some("b:2"));
        assert_eq!(owner_addr(1u64 << 49, &shards), None);
    }

    #[test]
    fn overhead_is_turnaround_minus_server_seconds() {
        assert!((overhead_ms(56.0, 0.043) - 13.0).abs() < 1e-9);
        assert_eq!(overhead_ms(10.0, 0.0), 10.0);
    }
}
