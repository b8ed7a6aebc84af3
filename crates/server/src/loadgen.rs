//! An open-loop load generator for the batch service.
//!
//! The generator replays a deterministic trace of mixed-size jobs against
//! a live server: **open-loop**, i.e. submissions happen at their
//! scheduled times regardless of how the server answered the previous one
//! — a slow or shedding server does not throttle the offered load, which
//! is exactly how real overload arrives. Two arrival [`Pattern`]s are
//! built in:
//!
//! * [`Pattern::Poisson`] — exponential inter-arrival times at `rate`
//!   jobs/second (steady-state load);
//! * [`Pattern::Burst`] — `size` back-to-back submissions, then silence
//!   for `every` (the flash-crowd shape that exercises queue-full and
//!   backlog shedding).
//!
//! Every answer is tallied into an **error taxonomy** keyed by the
//! server's `503 reason` (`queue_full`, `backlog_exceeded`,
//! `connections_exhausted`, `shutting_down`, `store_degraded` — and,
//! when the target is the router tier, its `no_shards_available` and
//! `shard_unavailable` sheds, which are filed under their own reason
//! like any other, **including on the reconnect path** after a dropped
//! connection) plus `transport` (socket-level failures — a crashed
//! server mid-soak) and `invalid` (4xx). After the trace, an optional
//! **wait phase** polls
//! every acknowledged job to a terminal state — a `202` is the server's
//! promise, and the chaos soak asserts the promise is kept across a
//! crash/restart.
//!
//! The whole run is deterministic in [`LoadgenConfig::seed`]: the same
//! seed replays the same job sizes and the same schedule (modulo wall
//! clock), so a regression seen once can be replayed.

use crate::backoff::Backoff;
use crate::http::HttpConnection;
use sspc_common::hist::Histogram;
use sspc_common::json::Value;
use sspc_common::{Error, Result};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How submissions are spaced in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Exponential inter-arrival times at `rate` jobs/second.
    Poisson {
        /// Mean offered load in jobs per second (> 0).
        rate: f64,
    },
    /// `size` submissions back-to-back, then sleep `every`, repeat.
    Burst {
        /// Jobs per burst (≥ 1).
        size: usize,
        /// Gap between burst starts.
        every: Duration,
    },
}

/// Load-generator knobs. See the module docs for the model.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Total submissions to attempt.
    pub jobs: usize,
    /// Arrival pattern.
    pub pattern: Pattern,
    /// Seed for the job-size mix and the Poisson schedule.
    pub seed: u64,
    /// Wait-phase budget: after the trace, poll every acknowledged job to
    /// a terminal state for at most this long. [`Duration::ZERO`] skips
    /// the wait phase entirely (pure submission-side measurement).
    pub wait_timeout: Duration,
    /// Base poll interval for the wait phase.
    pub poll_every: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7878".into(),
            jobs: 50,
            pattern: Pattern::Poisson { rate: 20.0 },
            seed: 1,
            wait_timeout: Duration::from_secs(60),
            poll_every: Duration::from_millis(25),
        }
    }
}

/// What one [`run`] observed, ready for assertions or a bench record.
#[derive(Debug)]
pub struct LoadgenReport {
    /// Submissions attempted (== `config.jobs`).
    pub attempted: usize,
    /// Ids the server acknowledged with `202` — its completion promises.
    pub acked: Vec<u64>,
    /// Refusals and failures keyed by taxonomy:
    /// the server's `503 reason` verbatim, `invalid` (4xx), or
    /// `transport` (no parseable answer at all).
    pub rejected: BTreeMap<String, u64>,
    /// Acked jobs observed `done` during the wait phase.
    pub completed: usize,
    /// Acked jobs observed `failed` during the wait phase.
    pub failed: usize,
    /// Acked jobs still non-terminal when the wait budget ran out.
    pub unfinished: Vec<u64>,
    /// Wall-clock seconds for the submission trace (excludes the wait
    /// phase).
    pub trace_seconds: f64,
    /// Acknowledged submissions per trace second.
    pub acked_per_second: f64,
    /// Submission round-trip latency (microseconds recorded).
    pub submit_latency: Histogram,
    /// Ack-to-terminal latency for jobs that finished (microseconds).
    pub e2e_latency: Histogram,
}

impl LoadgenReport {
    /// Total refusals across the taxonomy.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.values().sum()
    }

    /// The report as a JSON record (the shape appended to
    /// `BENCH_server.json` by the loadgen bench and the chaos soak).
    pub fn to_value(&self) -> Value {
        let mut rejected = Value::object();
        for (reason, count) in &self.rejected {
            rejected = rejected.with(reason.clone(), *count);
        }
        Value::object()
            .with("attempted", self.attempted as u64)
            .with("acked", self.acked.len() as u64)
            .with("rejected", rejected)
            .with("completed", self.completed as u64)
            .with("failed", self.failed as u64)
            .with("unfinished", self.unfinished.len() as u64)
            .with("trace_seconds", self.trace_seconds)
            .with("acked_per_second", self.acked_per_second)
            .with("submit_latency", latency_value(&self.submit_latency))
            .with("e2e_latency", latency_value(&self.e2e_latency))
    }
}

fn latency_value(hist: &Histogram) -> Value {
    let ms = |q: f64| hist.quantile(q).map_or(0.0, |us| us as f64 / 1_000.0);
    Value::object()
        .with("count", hist.count())
        .with("p50_ms", ms(0.50))
        .with("p95_ms", ms(0.95))
        .with("p99_ms", ms(0.99))
}

/// A SplitMix64 stream over the workspace's one mixing step
/// ([`sspc_common::rng::splitmix64`]).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        let z = sspc_common::rng::splitmix64(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The mixed-size job body for trace position `index`: ~70% small, ~25%
/// medium, ~5% large — all cheap enough that a soak finishes in seconds,
/// different enough that cost-aware admission sees a spread. Validated
/// against [`crate::job::JobSpec::from_json`] by a test below.
fn job_body(rng: &mut Rng, index: usize) -> Value {
    let roll = rng.unit();
    let (n, d, dims, k, runs) = if roll < 0.70 {
        (30u64, 6u64, 3u64, 2u64, 1u64)
    } else if roll < 0.95 {
        (80u64, 10u64, 4u64, 3u64, 1u64)
    } else {
        (160u64, 12u64, 5u64, 3u64, 2u64)
    };
    Value::object()
        .with("k", k)
        .with(
            "dataset",
            Value::object().with(
                "generate",
                Value::object()
                    .with("n", n)
                    .with("d", d)
                    .with("dims", dims)
                    .with("seed", index as u64 + 1),
            ),
        )
        .with("algorithms", "harp")
        .with("runs", runs)
}

/// Files each answer into the taxonomy: the `503 reason` verbatim when
/// present, else a status-class bucket.
fn taxonomy_key(status: u16, body: &Value) -> String {
    if let Some(reason) = body.get("reason").and_then(Value::as_str) {
        return reason.to_string();
    }
    if (400..500).contains(&status) {
        "invalid".to_string()
    } else {
        format!("http_{status}")
    }
}

/// Runs the configured trace against a live server and returns what
/// happened. Transport errors (including a server that crashes mid-run)
/// are tallied, never fatal: the generator reconnects and keeps offering
/// load, which is what lets the chaos soak measure *recovery*.
///
/// # Errors
///
/// Only configuration errors ([`Error::InvalidParameter`] for a zero
/// rate/burst); everything observed on the wire is data, not an error.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport> {
    match config.pattern {
        Pattern::Poisson { rate } if !(rate > 0.0) => {
            return Err(Error::InvalidParameter(format!(
                "poisson rate must be positive, got {rate}"
            )));
        }
        Pattern::Burst { size: 0, .. } => {
            return Err(Error::InvalidParameter("burst size must be >= 1".into()));
        }
        _ => {}
    }

    let mut rng = Rng(config.seed);
    let mut schedule_rng = Rng(config.seed ^ 0xA5A5_A5A5_A5A5_A5A5);
    let mut conn: Option<HttpConnection> = None;
    let mut report = LoadgenReport {
        attempted: config.jobs,
        acked: Vec::new(),
        rejected: BTreeMap::new(),
        completed: 0,
        failed: 0,
        unfinished: Vec::new(),
        trace_seconds: 0.0,
        acked_per_second: 0.0,
        submit_latency: Histogram::new(),
        e2e_latency: Histogram::new(),
    };
    let mut acked_at: BTreeMap<u64, Instant> = BTreeMap::new();

    let started = Instant::now();
    let mut next_due = started;
    for index in 0..config.jobs {
        // Open loop: sleep until the scheduled instant (not at all when
        // behind schedule), then submit exactly once — no retries; a
        // refusal is a data point, not a failure to paper over.
        let now = Instant::now();
        if next_due > now {
            std::thread::sleep(next_due - now);
        }
        next_due += match config.pattern {
            Pattern::Poisson { rate } => {
                // Exponential inter-arrival: −ln(U)/λ, U ∈ (0, 1].
                let u = 1.0 - schedule_rng.unit();
                Duration::from_secs_f64((-u.ln() / rate).min(60.0))
            }
            Pattern::Burst { size, every } => {
                if (index + 1) % size == 0 {
                    every
                } else {
                    Duration::ZERO
                }
            }
        };

        let body = job_body(&mut rng, index);
        let sent = Instant::now();
        let answer = match conn.as_mut().filter(|c| !c.server_closed()) {
            Some(held) => held.roundtrip("POST", "/jobs", Some(&body)),
            None => HttpConnection::connect(&config.addr).and_then(|mut fresh| {
                let answer = fresh.roundtrip("POST", "/jobs", Some(&body));
                conn = Some(fresh);
                answer
            }),
        };
        report.submit_latency.record_duration(sent.elapsed());
        match answer {
            Ok((202, body)) => {
                if let Some(id) = body.get("job").and_then(Value::as_u64) {
                    report.acked.push(id);
                    acked_at.insert(id, Instant::now());
                } else {
                    *report.rejected.entry("transport".into()).or_insert(0) += 1;
                }
            }
            Ok((status, body)) => {
                *report
                    .rejected
                    .entry(taxonomy_key(status, &body))
                    .or_insert(0) += 1;
            }
            Err(_) => {
                // Socket-level failure: drop the connection so the next
                // submission reconnects (the server may have restarted).
                conn = None;
                *report.rejected.entry("transport".into()).or_insert(0) += 1;
            }
        }
    }
    report.trace_seconds = started.elapsed().as_secs_f64();
    report.acked_per_second = if report.trace_seconds > 0.0 {
        report.acked.len() as f64 / report.trace_seconds
    } else {
        0.0
    };

    // Wait phase: every 202 is a promise; poll each acked id to a
    // terminal state within the budget, shrugging off transport errors
    // (a restarting server answers again shortly).
    if config.wait_timeout > Duration::ZERO && !acked_at.is_empty() {
        let deadline = Instant::now() + config.wait_timeout;
        let mut pending: Vec<u64> = report.acked.clone();
        let mut backoff = Backoff::new(
            config.poll_every,
            config.poll_every.saturating_mul(8).max(config.poll_every),
            config.seed,
        );
        while !pending.is_empty() && Instant::now() < deadline {
            pending.retain(|&id| {
                let path = format!("/jobs/{id}");
                let answer = match conn.as_mut().filter(|c| !c.server_closed()) {
                    Some(held) => held.roundtrip("GET", &path, None),
                    None => HttpConnection::connect(&config.addr).and_then(|mut fresh| {
                        let answer = fresh.roundtrip("GET", &path, None);
                        conn = Some(fresh);
                        answer
                    }),
                };
                let Ok((200, doc)) = answer else {
                    if answer.is_err() {
                        conn = None;
                    }
                    return true; // keep polling through errors/503s
                };
                match doc.get("status").and_then(Value::as_str) {
                    Some("done") => {
                        report.completed += 1;
                        if let Some(at) = acked_at.get(&id) {
                            report.e2e_latency.record_duration(at.elapsed());
                        }
                        false
                    }
                    Some("failed") => {
                        report.failed += 1;
                        if let Some(at) = acked_at.get(&id) {
                            report.e2e_latency.record_duration(at.elapsed());
                        }
                        false
                    }
                    _ => true,
                }
            });
            if !pending.is_empty() {
                std::thread::sleep(backoff.next_delay());
            }
        }
        report.unfinished = pending;
    }

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::{Server, ServerConfig};

    /// Every job body the mix can emit must parse as a valid `JobSpec` —
    /// a loadgen that offers invalid jobs measures the 400 path, not
    /// overload.
    #[test]
    fn generated_job_bodies_are_valid_specs() {
        let mut rng = Rng(42);
        for index in 0..200 {
            let body = job_body(&mut rng, index);
            JobSpec::from_json(&body).expect("mix emits only valid jobs");
        }
    }

    /// The job mix and schedule are deterministic in the seed.
    #[test]
    fn job_mix_is_deterministic_in_the_seed() {
        let bodies = |seed: u64| {
            let mut rng = Rng(seed);
            (0..50)
                .map(|i| job_body(&mut rng, i).to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(bodies(7), bodies(7));
        assert_ne!(bodies(7), bodies(8), "different seeds, different mixes");
    }

    /// A burst trace against a tiny live server: every submission gets a
    /// definite outcome (ack or taxonomy entry, no silent drops), and the
    /// wait phase drives every promise to a terminal state.
    #[test]
    fn burst_trace_accounts_for_every_submission() {
        let server = Server::start(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 4,
            ..Default::default()
        })
        .unwrap();
        let report = run(&LoadgenConfig {
            addr: server.addr().to_string(),
            jobs: 12,
            pattern: Pattern::Burst {
                size: 6,
                every: Duration::from_millis(50),
            },
            seed: 3,
            wait_timeout: Duration::from_secs(60),
            poll_every: Duration::from_millis(10),
        })
        .unwrap();

        assert_eq!(
            report.acked.len() as u64 + report.rejected_total(),
            12,
            "every submission is accounted for: {:?}",
            report.rejected
        );
        assert!(
            !report.acked.is_empty(),
            "a burst of 6 into capacity 4+2 workers acks some"
        );
        assert_eq!(
            report.unfinished,
            Vec::<u64>::new(),
            "every ack reached terminal"
        );
        assert_eq!(report.completed + report.failed, report.acked.len());
        assert_eq!(report.e2e_latency.count(), report.acked.len() as u64);
        // Refusals, if any, carry the server's taxonomy.
        for reason in report.rejected.keys() {
            assert!(
                [
                    "queue_full",
                    "backlog_exceeded",
                    "no_shards_available",
                    "transport"
                ]
                .contains(&reason.as_str()),
                "unexpected refusal class {reason}"
            );
        }
        let record = report.to_value();
        assert!(record.get("submit_latency").is_some());
        server.shutdown();
    }

    /// A router-level `no_shards_available` 503 is filed under its own
    /// reason — not `http_503`, not `transport` — and the reconnect path
    /// (the generator's held connection was closed under it) files it
    /// identically; the bucket survives into the bench record.
    #[test]
    fn router_sheds_land_in_their_own_taxonomy_bucket() {
        use crate::http::{read_request, write_response_with};
        use std::io::BufReader;
        use std::net::TcpListener;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Two connections, one shed each: the first response carries
        // `Connection: close`, so the second submission must reconnect.
        let router = std::thread::spawn(move || {
            for _ in 0..2 {
                let (mut stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                if let Ok(Some(_)) = read_request(&mut reader) {
                    let body = Value::object()
                        .with("error", "no live shard available (submission)")
                        .with("reason", "no_shards_available");
                    write_response_with(&mut stream, 503, &body, true, Some(1)).unwrap();
                }
            }
        });

        let report = run(&LoadgenConfig {
            addr,
            jobs: 2,
            pattern: Pattern::Burst {
                size: 2,
                every: Duration::from_millis(1),
            },
            seed: 5,
            wait_timeout: Duration::ZERO,
            ..Default::default()
        })
        .unwrap();
        router.join().unwrap();
        assert_eq!(
            report.rejected.get("no_shards_available"),
            Some(&2),
            "both sheds (fresh + reconnect) share the router bucket: {:?}",
            report.rejected
        );
        assert!(!report.rejected.contains_key("http_503"));
        assert!(!report.rejected.contains_key("transport"));
        let record = report.to_value();
        assert_eq!(
            record
                .get("rejected")
                .and_then(|r| r.get("no_shards_available"))
                .and_then(Value::as_u64),
            Some(2),
            "{record}"
        );
    }

    /// Configuration errors are errors; wire trouble is not.
    #[test]
    fn invalid_patterns_are_rejected() {
        let bad_rate = LoadgenConfig {
            pattern: Pattern::Poisson { rate: 0.0 },
            ..Default::default()
        };
        assert!(run(&bad_rate).is_err());
        let bad_burst = LoadgenConfig {
            pattern: Pattern::Burst {
                size: 0,
                every: Duration::from_millis(1),
            },
            ..Default::default()
        };
        assert!(run(&bad_burst).is_err());

        // Nobody listening: not an error — a report full of `transport`.
        let nobody = LoadgenConfig {
            addr: "127.0.0.1:1".into(),
            jobs: 3,
            pattern: Pattern::Burst {
                size: 3,
                every: Duration::from_millis(1),
            },
            wait_timeout: Duration::ZERO,
            ..Default::default()
        };
        let report = run(&nobody).unwrap();
        assert_eq!(report.rejected.get("transport"), Some(&3));
    }
}
