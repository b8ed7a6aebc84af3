//! Blocking client for the batch service — what `sspc-cli submit`/`poll`
//! and the end-to-end tests speak.
//!
//! [`Client`] holds one keep-alive [`HttpConnection`] and reuses it
//! across calls, so a `submit --wait` polling loop costs one TCP connect
//! total instead of one per poll. When a reused connection turns out to
//! be dead (the server restarted, or closed it after the idle timeout),
//! **idempotent GETs are retried once** on a fresh connection instead of
//! surfacing the transient error; POSTs are never retried (a submission
//! must not be duplicated).
//!
//! The module-level free functions ([`submit`], [`job_status`], …) are
//! one-shot conveniences over a throwaway [`Client`].
//!
//! # Retry discipline
//!
//! All waiting rides [`crate::backoff::Backoff`] — capped exponential
//! with deterministic jitter. A `503` whose body says `"reason":
//! "queue_full"` is the one rejection the server proves it did **not**
//! admit (the id was forgotten before answering), so [`Client::submit`]
//! retries it a few times, honoring the `Retry-After` header the server
//! attaches. The router's `no_shards_available` shed carries the same
//! guarantee — no shard saw the job — so it is retried identically (a
//! shard may come back within the backoff window). Every other non-`202`
//! (including `store_degraded` and `shutting_down` 503s, where
//! re-submitting may duplicate work or is pointless) surfaces
//! immediately. Transport-level POST failures are never retried.

use crate::backoff::Backoff;
use crate::http::HttpConnection;
use sspc_common::json::Value;
use sspc_common::{Error, Result};
use std::time::{Duration, Instant};

/// Submit attempts per [`Client::submit`] call: the initial POST plus
/// three queue-full retries.
const SUBMIT_ATTEMPTS: u32 = 4;

/// A reusable connection to one server address.
pub struct Client {
    addr: String,
    conn: Option<HttpConnection>,
    last_retry_after: Option<u64>,
}

impl Client {
    /// A client for `addr` (connects lazily on the first call).
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            conn: None,
            last_retry_after: None,
        }
    }

    /// One exchange, reusing the held connection when possible. A dropped
    /// keep-alive connection is retried once on a fresh socket for
    /// idempotent GETs; POST failures surface immediately.
    fn call(&mut self, method: &str, path: &str, body: Option<&Value>) -> Result<(u16, Value)> {
        let (mut conn, reused) = match self.conn.take() {
            Some(conn) if !conn.server_closed() => (conn, true),
            _ => (HttpConnection::connect(&self.addr)?, false),
        };
        let outcome = conn.roundtrip(method, path, body);
        let outcome = match outcome {
            Err(_) if reused && method == "GET" => {
                // The held connection died between exchanges (restart or
                // idle close) — transparent single retry, fresh socket.
                conn = HttpConnection::connect(&self.addr)?;
                conn.roundtrip(method, path, body)
            }
            other => other,
        };
        self.last_retry_after = conn.retry_after();
        if outcome.is_ok() && !conn.server_closed() {
            self.conn = Some(conn);
        }
        outcome
    }

    /// Submits a job document and returns the assigned job id.
    ///
    /// A `503` with `"reason": "queue_full"` (the one refusal a shard
    /// guarantees left no trace, so re-POSTing cannot duplicate the job)
    /// or `"reason": "no_shards_available"` (the router's shed: no shard
    /// saw the job at all, and one may come back shortly) is retried up
    /// to three times with jittered exponential backoff, sleeping at
    /// least the server's `Retry-After` hint.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] on connection failures or any
    /// non-`202` answer (the server's `error` text is included — `400`
    /// for invalid jobs, `503` for a full queue that stayed full).
    pub fn submit(&mut self, job: &Value) -> Result<u64> {
        let mut backoff = Backoff::new(Duration::from_millis(50), Duration::from_secs(2), 0x5b);
        for attempt in 1..=SUBMIT_ATTEMPTS {
            let (status, body) = self.call("POST", "/jobs", Some(job))?;
            if status == 202 {
                return body
                    .get("job")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| Error::InvalidParameter("202 without a job id".into()));
            }
            let retryable = status == 503
                && matches!(
                    body.get("reason").and_then(Value::as_str),
                    Some("queue_full" | "no_shards_available")
                );
            if !retryable || attempt == SUBMIT_ATTEMPTS {
                return Err(Error::InvalidParameter(format!(
                    "submit refused with {status}: {}",
                    body.get("error").and_then(Value::as_str).unwrap_or("?")
                )));
            }
            let hint = Duration::from_secs(self.last_retry_after.unwrap_or(0));
            std::thread::sleep(backoff.next_delay().max(hint));
        }
        unreachable!("submit loop returns on every path")
    }

    /// Fetches a job's status document (`status` ∈ `queued` / `running` /
    /// `done` / `failed`; `result` present once done).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] on connection failures or unknown ids
    /// (including results already evicted by TTL or the job cap).
    pub fn job_status(&mut self, id: u64) -> Result<Value> {
        let (status, body) = self.call("GET", &format!("/jobs/{id}"), None)?;
        if status != 200 {
            return Err(Error::InvalidParameter(format!(
                "job {id} lookup failed with {status}: {}",
                body.get("error").and_then(Value::as_str).unwrap_or("?")
            )));
        }
        Ok(body)
    }

    /// Lists job summaries, optionally filtered by status name and capped
    /// at `limit` (the server applies its own cap when `None`). The
    /// answer carries `jobs` (newest first) and `total` (matching count
    /// before the cap).
    ///
    /// # Errors
    ///
    /// Connection failures or a non-`200` answer (e.g. `400` for an
    /// unknown status name).
    pub fn list_jobs(&mut self, status: Option<&str>, limit: Option<usize>) -> Result<Value> {
        let mut query = Vec::new();
        if let Some(status) = status {
            query.push(format!("status={status}"));
        }
        if let Some(limit) = limit {
            query.push(format!("limit={limit}"));
        }
        let path = if query.is_empty() {
            "/jobs".to_string()
        } else {
            format!("/jobs?{}", query.join("&"))
        };
        let (code, body) = self.call("GET", &path, None)?;
        if code != 200 {
            return Err(Error::InvalidParameter(format!(
                "listing failed with {code}: {}",
                body.get("error").and_then(Value::as_str).unwrap_or("?")
            )));
        }
        Ok(body)
    }

    /// Polls until the job leaves the queue/running states and returns
    /// its final document (`done` **or** `failed` — inspect `status`).
    /// All polls ride the same keep-alive connection; the interval starts
    /// at `poll_every` and backs off (jittered, seeded by the job id so
    /// concurrent waiters decorrelate) up to `8 × poll_every`.
    ///
    /// A draining server answers status polls for provably-stuck queued
    /// jobs with `503` `reason: shutting_down`; that is terminal for this
    /// wait — the job will never run in that process — so the poll loop
    /// **fails fast** with a clear error instead of burning the rest of
    /// its timeout against a server that is going away.
    ///
    /// # Errors
    ///
    /// Lookup failures, a draining server
    /// ([`Error::InvalidParameter`] mentioning the drain), or
    /// [`Error::NoConvergence`] after `timeout`.
    pub fn wait_for(&mut self, id: u64, poll_every: Duration, timeout: Duration) -> Result<Value> {
        let started = Instant::now();
        let mut backoff = Backoff::new(poll_every, poll_every.saturating_mul(8), id);
        loop {
            let (code, body) = self.call("GET", &format!("/jobs/{id}"), None)?;
            if code == 503 && body.get("reason").and_then(Value::as_str) == Some("shutting_down") {
                return Err(Error::InvalidParameter(format!(
                    "server is draining; job {id} will not finish there: {}",
                    body.get("error").and_then(Value::as_str).unwrap_or("?")
                )));
            }
            if code != 200 {
                return Err(Error::InvalidParameter(format!(
                    "job {id} lookup failed with {code}: {}",
                    body.get("error").and_then(Value::as_str).unwrap_or("?")
                )));
            }
            match body.get("status").and_then(Value::as_str) {
                Some("done" | "failed") => return Ok(body),
                _ => {
                    if started.elapsed() > timeout {
                        return Err(Error::NoConvergence(format!(
                            "job {id} still not finished after {:.1}s",
                            timeout.as_secs_f64()
                        )));
                    }
                    std::thread::sleep(backoff.next_delay());
                }
            }
        }
    }

    /// Fetches the `/healthz` document (queue depth, job counters, store
    /// stats, per-algorithm throughput).
    ///
    /// # Errors
    ///
    /// Connection failures or a non-`200` answer.
    pub fn healthz(&mut self) -> Result<Value> {
        let (status, body) = self.call("GET", "/healthz", None)?;
        if status != 200 {
            return Err(Error::InvalidParameter(format!(
                "healthz returned {status}"
            )));
        }
        Ok(body)
    }

    /// Joins a shard to a running router's roster at runtime
    /// (`POST /admin/shards`): the router health-checks the shard and
    /// puts it on the ring, so new submissions start landing on it. Every
    /// job acked before the join stays on the shard that acked it.
    /// Returns the router's join summary (`shard`, `addr`,
    /// `membership`).
    ///
    /// # Errors
    ///
    /// Connection failures, `409` for a duplicate shard id, `502` when
    /// the shard is unreachable or the cutover was refused (the join is
    /// rolled back).
    pub fn add_shard(&mut self, shard: u16, shard_addr: &str) -> Result<Value> {
        let body = Value::object()
            .with("shard", u64::from(shard))
            .with("addr", shard_addr);
        let (status, answer) = self.call("POST", "/admin/shards", Some(&body))?;
        if status != 200 {
            return Err(Error::InvalidParameter(format!(
                "join of shard {shard} refused with {status}: {}",
                answer.get("error").and_then(Value::as_str).unwrap_or("?")
            )));
        }
        Ok(answer)
    }

    /// Removes a shard from a running router's roster
    /// (`DELETE /admin/shards/<id>`). Graceful by default — the router
    /// moves the shard's spool onto the survivors (terminal documents as
    /// they are, pending jobs re-submitted) before it leaves, and the
    /// summary carries `planned`, `moved` and `handoff_seconds`;
    /// `dead: true` folds the spool through the failover path instead
    /// (for a shard that is already unreachable). Either way every id the
    /// shard acked keeps answering under that id.
    ///
    /// # Errors
    ///
    /// Connection failures, `404` for an unknown shard, `400` when it is
    /// the last routable shard, `502` when a graceful leave aborted (the
    /// shard stays in the roster; what already moved stays with the
    /// router).
    pub fn remove_shard(&mut self, shard: u16, dead: bool) -> Result<Value> {
        let path = if dead {
            format!("/admin/shards/{shard}?mode=dead")
        } else {
            format!("/admin/shards/{shard}")
        };
        let (status, answer) = self.call("DELETE", &path, None)?;
        if status != 200 {
            return Err(Error::InvalidParameter(format!(
                "removal of shard {shard} refused with {status}: {}",
                answer.get("error").and_then(Value::as_str).unwrap_or("?")
            )));
        }
        Ok(answer)
    }
}

/// One-shot [`Client::submit`].
///
/// # Errors
///
/// See [`Client::submit`].
pub fn submit(addr: &str, job: &Value) -> Result<u64> {
    Client::new(addr).submit(job)
}

/// One-shot [`Client::job_status`].
///
/// # Errors
///
/// See [`Client::job_status`].
pub fn job_status(addr: &str, id: u64) -> Result<Value> {
    Client::new(addr).job_status(id)
}

/// [`Client::wait_for`] on a fresh client (the polling loop itself still
/// reuses one connection).
///
/// # Errors
///
/// See [`Client::wait_for`].
pub fn wait_for(addr: &str, id: u64, poll_every: Duration, timeout: Duration) -> Result<Value> {
    Client::new(addr).wait_for(id, poll_every, timeout)
}

/// One-shot [`Client::healthz`].
///
/// # Errors
///
/// See [`Client::healthz`].
pub fn healthz(addr: &str) -> Result<Value> {
    Client::new(addr).healthz()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_request, write_response, write_response_with};
    use std::io::BufReader;
    use std::net::TcpListener;

    /// A scripted server: serves `per_connection` keep-alive exchanges on
    /// each accepted connection, then closes it cold (no `Connection:
    /// close` header — the drop the retry logic must absorb). Returns the
    /// number of connections accepted.
    fn flaky_server(listener: TcpListener, per_connection: usize, connections: usize) -> usize {
        let mut accepted = 0;
        for _ in 0..connections {
            let Ok((mut stream, _)) = listener.accept() else {
                break;
            };
            accepted += 1;
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            for _ in 0..per_connection {
                match read_request(&mut reader) {
                    Ok(Some(req)) => {
                        let body = Value::object().with("status", "done").with("job", 1u64);
                        let _ = write_response(&mut stream, 200, &body, false);
                        let _ = req;
                    }
                    _ => break,
                }
            }
            // Cold close: the client's next write/read on this socket
            // fails mid-exchange.
        }
        accepted
    }

    /// The satellite contract: a GET over a dropped keep-alive connection
    /// is retried once on a fresh socket instead of surfacing a transient
    /// error to `submit --wait`.
    #[test]
    fn idempotent_gets_retry_once_on_a_dropped_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || flaky_server(listener, 1, 2));

        let mut client = Client::new(&addr);
        // Exchange 1 succeeds and the connection is kept...
        client.job_status(1).unwrap();
        // ...but the server hangs up after it. The next GET hits the dead
        // socket, reconnects, and succeeds — no error escapes.
        client.job_status(1).unwrap();
        drop(client);
        assert_eq!(
            server.join().unwrap(),
            2,
            "retry opened a second connection"
        );
    }

    /// A fresh-connection failure is NOT retried (nothing was reused),
    /// and POSTs are never retried.
    #[test]
    fn no_retry_on_fresh_connections_or_posts() {
        // Nobody listening: the very first GET fails without a retry loop.
        let mut client = Client::new("127.0.0.1:1");
        assert!(client.job_status(1).is_err());

        // A server that dies after one exchange: the POST on the reused
        // connection errors out rather than re-submitting.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || flaky_server(listener, 1, 1));
        let mut client = Client::new(&addr);
        client.job_status(1).unwrap();
        let job = Value::object().with("k", 1u64);
        assert!(client.submit(&job).is_err(), "POST must not be retried");
        drop(client);
        server.join().unwrap();
    }

    /// A scripted server answering each request on one keep-alive
    /// connection from `script` (status, body, `Retry-After` seconds).
    /// Returns the number of requests served.
    fn scripted_server(
        listener: TcpListener,
        script: Vec<(u16, Value, Option<u64>)>,
    ) -> std::thread::JoinHandle<usize> {
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut served = 0;
            for (status, body, retry_after) in script {
                match read_request(&mut reader) {
                    Ok(Some(_)) => {
                        write_response_with(&mut stream, status, &body, false, retry_after)
                            .unwrap();
                        served += 1;
                    }
                    _ => break,
                }
            }
            served
        })
    }

    /// The retry-discipline contract: queue-full 503s (and only those)
    /// are retried with backoff, honoring `Retry-After`, and the retries
    /// ride the same keep-alive connection.
    #[test]
    fn submit_retries_queue_full_503s_until_accepted() {
        let queue_full = Value::object()
            .with("error", "queue full (capacity 2); retry later")
            .with("reason", "queue_full");
        let accepted = Value::object().with("job", 9u64).with("queue_depth", 1u64);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = scripted_server(
            listener,
            vec![
                (503, queue_full.clone(), Some(0)),
                (503, queue_full, Some(0)),
                (202, accepted, None),
            ],
        );

        let mut client = Client::new(&addr);
        let job = Value::object().with("k", 1u64);
        assert_eq!(client.submit(&job).unwrap(), 9);
        drop(client);
        assert_eq!(server.join().unwrap(), 3, "two retries then acceptance");
    }

    /// The drain fail-fast contract: a `503 shutting_down` status poll
    /// ends the wait immediately with a "draining" error instead of
    /// polling until the timeout.
    #[test]
    fn wait_for_fails_fast_when_the_server_is_draining() {
        let queued = Value::object().with("job", 3u64).with("status", "queued");
        let draining = Value::object()
            .with(
                "error",
                "server is draining; queued job 3 will not run here",
            )
            .with("reason", "shutting_down")
            .with("job", 3u64);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = scripted_server(
            listener,
            vec![(200, queued, None), (503, draining, Some(1))],
        );

        let mut client = Client::new(&addr);
        let started = Instant::now();
        let err = client
            .wait_for(3, Duration::from_millis(5), Duration::from_secs(30))
            .unwrap_err()
            .to_string();
        assert!(err.contains("draining"), "error names the drain: {err}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "failed fast, not at the 30s timeout"
        );
        drop(client);
        assert_eq!(server.join().unwrap(), 2, "one poll, then the fail-fast");
    }

    /// The router satellite: `no_shards_available` means no shard saw
    /// the job, so it is retried exactly like `queue_full` — and a shard
    /// coming back within the backoff window rescues the submission.
    #[test]
    fn submit_retries_router_no_shards_503s_like_queue_full() {
        let shed = Value::object()
            .with("error", "no live shard available (submission)")
            .with("reason", "no_shards_available");
        let accepted = Value::object().with("job", 4u64).with("queue_depth", 1u64);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = scripted_server(
            listener,
            vec![
                (503, shed.clone(), Some(0)),
                (503, shed, Some(0)),
                (202, accepted, None),
            ],
        );

        let mut client = Client::new(&addr);
        let job = Value::object().with("k", 1u64);
        assert_eq!(client.submit(&job).unwrap(), 4);
        drop(client);
        assert_eq!(server.join().unwrap(), 3, "two retries then acceptance");
    }

    /// 503s whose reason is not `queue_full`/`no_shards_available` (the
    /// server may have admitted or cannot accept the job) surface
    /// immediately.
    #[test]
    fn submit_does_not_retry_other_503_reasons() {
        let degraded = Value::object()
            .with("error", "job store is degraded")
            .with("reason", "store_degraded");
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = scripted_server(listener, vec![(503, degraded, Some(1))]);

        let mut client = Client::new(&addr);
        let job = Value::object().with("k", 1u64);
        let err = client.submit(&job).unwrap_err().to_string();
        assert!(
            err.contains("degraded"),
            "error carries the server text: {err}"
        );
        drop(client);
        assert_eq!(server.join().unwrap(), 1, "no retry was attempted");
    }
}
