//! The slice of HTTP/1.1 the batch service needs — now with keep-alive.
//!
//! The build environment has no async runtime and no HTTP crates, so this
//! module implements exactly what the job API requires over
//! `std::net::TcpStream`: request-line + headers + `Content-Length` body
//! parsing on the server side, the one accept-and-keep-alive loop
//! (`serve`) that shard and router both run, and a client that can
//! either hold one **keep-alive** connection across many exchanges
//! ([`HttpConnection`] — what `submit --wait` polls through, one TCP
//! connect total) or do a one-shot `Connection: close` round trip
//! ([`request`]).
//!
//! Framing is `Content-Length` only, on both directions — every response
//! carries the header, so a reader always knows where the body ends
//! without waiting for EOF. `Connection: close` is honored in both
//! directions; an idle keep-alive connection is closed by the server
//! after [`IO_TIMEOUT`]. Chunked encoding, TLS, and `%`-decoding of query
//! strings are deliberately out of scope — payloads are small JSON
//! documents on a trusted network.

use sspc_common::json::Value;
use sspc_common::{Error, Result};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest accepted request body; protects the server from unbounded
/// buffering on a misbehaving client.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Largest accepted request line + headers combined; with
/// [`MAX_BODY_BYTES`] this bounds the total buffering any one request
/// can force (a peer streaming an endless header line hits this cap, not
/// the allocator).
pub const MAX_HEAD_BYTES: u64 = 64 * 1024;

/// Per-connection socket timeout. Doubles as the keep-alive **idle
/// timeout**: a connection with no next request within this window is
/// closed, so stalled peers cannot pin handler threads forever.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// A parsed HTTP request: method, path, query, body, and whether the
/// peer asked to close the connection after this exchange.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the client already).
    pub method: String,
    /// The request path with the query string stripped, e.g. `/jobs/3`.
    pub path: String,
    /// Query parameters in order of appearance (`?status=done&limit=5` →
    /// `[("status","done"),("limit","5")]`); no `%`-decoding.
    pub query: Vec<(String, String)>,
    /// Raw body bytes (`Content-Length` framing only).
    pub body: Vec<u8>,
    /// The peer sent `Connection: close`.
    pub close: bool,
}

fn io_err(context: &str, e: std::io::Error) -> Error {
    Error::InvalidParameter(format!("{context}: {e}"))
}

/// True for the error kinds a quietly-departed or idle peer produces
/// (as opposed to a malformed request).
fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::UnexpectedEof
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::BrokenPipe
    )
}

/// Reads one request from a connection's buffered reader. The reader
/// must persist across calls on a keep-alive connection — its buffer may
/// already hold the next pipelined request.
///
/// Returns `Ok(None)` when the peer closed the connection (or went idle
/// past the socket timeout) *between* requests — the clean end of a
/// keep-alive session, not an error.
///
/// # Errors
///
/// [`Error::InvalidParameter`] on malformed request lines or headers, a
/// body larger than [`MAX_BODY_BYTES`], or socket failures mid-request.
pub fn read_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>> {
    let mut head_budget = MAX_HEAD_BYTES;

    let mut request_line = String::new();
    match read_head_line(reader, &mut head_budget, &mut request_line) {
        Ok(0) => return Ok(None), // EOF between requests: clean close
        Ok(_) => {}
        Err(e) if request_line.is_empty() && is_disconnect(&e) => return Ok(None),
        Err(e) => return Err(io_err("read request line", e)),
    }
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(Error::InvalidParameter(format!(
            "malformed request line `{}`",
            request_line.trim_end()
        )));
    };
    let method = method.to_string();
    let (path, query) = parse_target(target);

    let mut content_length = 0usize;
    let mut close = false;
    loop {
        let mut line = String::new();
        read_head_line(reader, &mut head_budget, &mut line)
            .map_err(|e| io_err("read header", e))?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| {
                    Error::InvalidParameter(format!("bad Content-Length `{value}`"))
                })?;
            } else if name.eq_ignore_ascii_case("connection") {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(Error::InvalidParameter(format!(
            "request body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
        )));
    }

    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| io_err("read body", e))?;
    Ok(Some(Request {
        method,
        path,
        query,
        body,
        close,
    }))
}

/// Splits a request target into path and parsed query pairs.
fn parse_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, query)) => {
            let pairs = query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| match p.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (p.to_string(), String::new()),
                })
                .collect();
            (path.to_string(), pairs)
        }
    }
}

/// Reads one head line (request line or header) against the shared
/// [`MAX_HEAD_BYTES`] budget, so a peer cannot force unbounded buffering
/// by never sending a newline. Returns the bytes read (0 = EOF).
fn read_head_line<R: BufRead>(
    reader: &mut R,
    budget: &mut u64,
    line: &mut String,
) -> std::io::Result<usize> {
    let mut limited = reader.by_ref().take(*budget);
    let n = limited.read_line(line)?;
    *budget -= line.len() as u64;
    if *budget == 0 && !line.ends_with('\n') {
        return Err(std::io::Error::other(format!(
            "request head exceeds the {MAX_HEAD_BYTES}-byte limit"
        )));
    }
    Ok(n)
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a JSON response. `close` controls the `Connection` header —
/// the caller closes the stream after a `close: true` response; a
/// `keep-alive` response leaves the connection open for the next
/// request. Always `Content-Length`-framed.
///
/// # Errors
///
/// [`Error::InvalidParameter`] wrapping socket failures.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &Value,
    close: bool,
) -> Result<()> {
    write_response_with(stream, status, body, close, None)
}

/// [`write_response`] plus an optional `Retry-After: <seconds>` header —
/// the backpressure hint the service attaches to every 503 so clients
/// know how long to back off before resubmitting.
///
/// # Errors
///
/// [`Error::InvalidParameter`] wrapping socket failures.
pub fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    body: &Value,
    close: bool,
    retry_after: Option<u64>,
) -> Result<()> {
    sspc_common::fault::point("http.response")?;
    let payload = body.to_string();
    let connection = if close { "close" } else { "keep-alive" };
    let retry = retry_after.map_or(String::new(), |secs| format!("retry-after: {secs}\r\n"));
    let head = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: application/json\r\n\
         content-length: {}\r\n{retry}connection: {connection}\r\n\r\n",
        status_text(status),
        payload.len()
    );
    let mut message = head.into_bytes();
    message.extend_from_slice(payload.as_bytes());
    stream
        .write_all(&message)
        .and_then(|()| stream.flush())
        .map_err(|e| io_err("write response", e))
}

/// The `{"error": msg}` body of every refusal.
pub(crate) fn error_body(msg: impl Into<String>) -> Value {
    Value::object().with("error", msg.into())
}

/// The acceptor's shared state: the connection cap, the stop flag, and
/// the connection gauges [`serve`] maintains for `/healthz`.
#[derive(Debug)]
pub(crate) struct Ingress {
    limit: usize,
    stopping: AtomicBool,
    accepted: AtomicU64,
    active: AtomicU64,
    rejected: AtomicU64,
    spawn_failures: AtomicU64,
    requests_in_flight: AtomicU64,
}

impl Ingress {
    /// Fresh gauges under a cap of `limit` open connections (at least 1).
    pub(crate) fn new(limit: usize) -> Ingress {
        Ingress {
            limit: limit.max(1),
            stopping: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            active: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            spawn_failures: AtomicU64::new(0),
            requests_in_flight: AtomicU64::new(0),
        }
    }

    /// Stops the acceptor listening on `addr`: it exits on its next
    /// accept, which a loopback connect triggers at once, and every
    /// handler closes its connection after the response in progress.
    pub(crate) fn stop(&self, addr: SocketAddr) {
        self.stopping.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
    }

    /// True once [`Ingress::stop`] ran.
    pub(crate) fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// The acceptor took a new TCP connection (each may carry many
    /// keep-alive requests — the keep-alive tests assert on this).
    pub(crate) fn record_connection(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// A handler took ownership of an accepted connection — pairs with
    /// [`connection_closed`](Ingress::connection_closed) to maintain the
    /// `connections_active` gauge the acceptor's cap checks.
    pub(crate) fn connection_opened(&self) {
        self.active.fetch_add(1, Ordering::SeqCst);
    }

    /// A handler released its connection (clean close or any error path).
    pub(crate) fn connection_closed(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }

    /// Handler connections currently open.
    pub(crate) fn connections_active(&self) -> u64 {
        self.active.load(Ordering::SeqCst)
    }

    /// A connection was refused at the cap (answered `503
    /// connections_exhausted` inline on the acceptor).
    pub(crate) fn record_connection_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Spawning a handler thread failed (resource exhaustion); the
    /// connection was answered `503` inline instead of dropped.
    pub(crate) fn record_spawn_failure(&self) {
        self.spawn_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// A request entered routing on some handler.
    pub(crate) fn request_started(&self) {
        self.requests_in_flight.fetch_add(1, Ordering::SeqCst);
    }

    /// The response for a routed request was written (or failed to be).
    pub(crate) fn request_finished(&self) {
        self.requests_in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Connections the acceptor shed: over the cap, or no handler thread.
    pub(crate) fn shed(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed) + self.spawn_failures.load(Ordering::Relaxed)
    }

    /// Adds the connection gauges to a `/healthz` document.
    pub(crate) fn render(&self, doc: Value) -> Value {
        doc.with(
            "connections_accepted",
            self.accepted.load(Ordering::Relaxed),
        )
        .with("connections_active", self.connections_active())
        .with("connections_limit", self.limit)
        .with(
            "connections_rejected",
            self.rejected.load(Ordering::Relaxed),
        )
        .with(
            "handler_spawn_failures",
            self.spawn_failures.load(Ordering::Relaxed),
        )
        .with(
            "requests_in_flight",
            self.requests_in_flight.load(Ordering::SeqCst),
        )
    }
}

/// What [`serve`] fronts: a route function and the `Retry-After` hint
/// its `503`s carry.
pub(crate) trait Service: Send + Sync + 'static {
    /// Per-connection handler state, made when a connection is accepted
    /// (the router keeps its keep-alive shard connections here).
    type Conn: Default;

    /// The acceptor state [`serve`] maintains.
    fn ingress(&self) -> &Ingress;

    /// Answers one request: status, body, and the `Retry-After` seconds
    /// a `503` carries (`None`: [`Service::retry_after`]).
    fn route(&self, conn: &mut Self::Conn, request: &Request) -> (u16, Value, Option<u64>);

    /// `Retry-After` seconds for a `503` that names none, and for a shed
    /// connection.
    fn retry_after(&self) -> u64;
}

/// Spawns the acceptor thread `<name>-acceptor` for `service`. Each
/// accepted connection gets a `<name>-handler` thread serving its
/// keep-alive requests, bounded by the [`Ingress`] cap: a connection over
/// the cap, or one whose handler thread cannot be spawned, is answered
/// `503 connections_exhausted` + `Retry-After` inline on the acceptor
/// thread and closed — shed, never silently dropped. The acceptor exits
/// after [`Ingress::stop`].
///
/// # Errors
///
/// [`Error::InvalidParameter`] when the acceptor thread cannot be
/// spawned.
pub(crate) fn serve<S: Service>(
    name: &str,
    listener: TcpListener,
    service: Arc<S>,
) -> Result<JoinHandle<()>> {
    let handler_name = format!("{name}-handler");
    std::thread::Builder::new()
        .name(format!("{name}-acceptor"))
        .spawn(move || accept_loop(&listener, &service, &handler_name))
        .map_err(|e| Error::InvalidParameter(format!("spawn {name}-acceptor: {e}")))
}

/// Decrements the `connections_active` gauge when a handler releases its
/// connection — on every exit path, including a panicking handler and a
/// handler thread that never started.
struct ConnectionGuard<S: Service>(Arc<S>);

impl<S: Service> Drop for ConnectionGuard<S> {
    fn drop(&mut self) {
        self.0.ingress().connection_closed();
    }
}

/// Answers a connection the acceptor cannot take with `503` +
/// `Retry-After` inline, then closes it. Shedding must be *visible* to
/// the peer: a silently dropped connection looks like a network fault and
/// teaches clients nothing about backing off.
fn shed(mut stream: TcpStream, retry_after: u64, message: &str) {
    // A write timeout so one unreadable peer cannot wedge the acceptor
    // (this runs on the acceptor thread).
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let body = error_body(message).with("reason", "connections_exhausted");
    let _ = write_response_with(&mut stream, 503, &body, true, Some(retry_after));
}

fn accept_loop<S: Service>(listener: &TcpListener, service: &Arc<S>, handler_name: &str) {
    let ingress = service.ingress();
    for stream in listener.incoming() {
        if ingress.stopping() {
            break;
        }
        let Ok(stream) = stream else { continue };
        // The ingress bound: when `limit` handlers hold connections, shed
        // instead of spawning an unbounded thread.
        if ingress.connections_active() >= ingress.limit as u64 {
            ingress.record_connection_rejected();
            let message = format!(
                "connection limit reached ({} active), retry later",
                ingress.limit
            );
            shed(stream, service.retry_after(), &message);
            continue;
        }
        ingress.record_connection();
        ingress.connection_opened();
        let guard = ConnectionGuard(Arc::clone(service));
        // A duplicate handle so a failed spawn can still answer the peer
        // (`stream` itself moves into the handler closure).
        let reply = stream.try_clone();
        let spawned = std::thread::Builder::new()
            .name(handler_name.to_string())
            .spawn(move || {
                let guard = guard;
                handle_connection(stream, &*guard.0);
            });
        if spawned.is_err() {
            // The closure (with `stream` and the gauge guard) was dropped
            // by the failed spawn; the duplicate still reaches the peer.
            ingress.record_spawn_failure();
            if let Ok(reply) = reply {
                shed(
                    reply,
                    service.retry_after(),
                    "no handler thread available, retry later",
                );
            }
        }
    }
}

/// Serves one connection until the peer asks to close, goes idle past
/// the socket timeout, hangs up, or sends something malformed.
fn handle_connection<S: Service>(mut stream: TcpStream, service: &S) {
    if stream.set_read_timeout(Some(IO_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(IO_TIMEOUT)).is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut conn = S::Conn::default();
    let ingress = service.ingress();
    loop {
        match read_request(&mut reader) {
            Ok(Some(request)) => {
                // Close when the peer asked to, or when we are stopping.
                let close = request.close || ingress.stopping();
                ingress.request_started();
                let (status, body, retry_after) = service.route(&mut conn, &request);
                // Every 503 carries a Retry-After hint.
                let retry_after =
                    (status == 503).then(|| retry_after.unwrap_or_else(|| service.retry_after()));
                let written = write_response_with(&mut stream, status, &body, close, retry_after);
                ingress.request_finished();
                if written.is_err() || close {
                    break;
                }
            }
            Ok(None) => break, // clean close (EOF or idle timeout)
            Err(e) => {
                // Malformed request: answer 400 and drop the connection —
                // the stream position is no longer trustworthy.
                let _ = write_response(&mut stream, 400, &error_body(e.to_string()), true);
                break;
            }
        }
    }
}

/// A client-side keep-alive connection: many request/response exchanges
/// over one TCP socket. This is what turns an N-poll `submit --wait`
/// from N connects into one.
///
/// After the server answers `Connection: close` (or the socket drops),
/// [`HttpConnection::server_closed`] turns true and further round trips
/// fail — callers reconnect (see `client::Client`, which does this
/// automatically and retries idempotent GETs once).
pub struct HttpConnection {
    reader: BufReader<TcpStream>,
    addr: String,
    server_closed: bool,
    retry_after: Option<u64>,
}

impl HttpConnection {
    /// Connects with the standard socket timeouts applied.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] on connect/configure failures.
    pub fn connect(addr: &str) -> Result<HttpConnection> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| Error::InvalidParameter(format!("cannot connect to {addr}: {e}")))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| io_err("set_read_timeout", e))?;
        stream
            .set_write_timeout(Some(IO_TIMEOUT))
            .map_err(|e| io_err("set_write_timeout", e))?;
        Ok(HttpConnection {
            reader: BufReader::new(stream),
            addr: addr.to_string(),
            server_closed: false,
            retry_after: None,
        })
    }

    /// True once the server has signalled (or forced) a close; the next
    /// exchange needs a fresh connection.
    pub fn server_closed(&self) -> bool {
        self.server_closed
    }

    /// The `Retry-After` seconds the **most recent** response carried
    /// (`None` when it had no such header) — the server's backpressure
    /// hint on 503s, consumed by the client's submit backoff.
    pub fn retry_after(&self) -> Option<u64> {
        self.retry_after
    }

    /// One keep-alive exchange: sends the request, returns
    /// `(status, parsed JSON body)`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] on socket failures, a malformed
    /// response, or when the connection was already closed by the server.
    pub fn roundtrip(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Value>,
    ) -> Result<(u16, Value)> {
        self.exchange(method, path, body, false)
    }

    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&Value>,
        close: bool,
    ) -> Result<(u16, Value)> {
        if self.server_closed {
            return Err(Error::InvalidParameter(
                "connection already closed by the server".into(),
            ));
        }
        let payload = body.map(Value::to_string).unwrap_or_default();
        let connection = if close { "close" } else { "keep-alive" };
        // Host is mandatory in HTTP/1.1 — intermediaries (nginx, haproxy)
        // reject requests without it.
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {}\r\ncontent-type: application/json\r\n\
             content-length: {}\r\nconnection: {connection}\r\n\r\n",
            self.addr,
            payload.len()
        );
        let mut message = head.into_bytes();
        message.extend_from_slice(payload.as_bytes());
        let outcome = self.exchange_inner(&message);
        if outcome.is_err() {
            self.server_closed = true;
        }
        outcome
    }

    fn exchange_inner(&mut self, message: &[u8]) -> Result<(u16, Value)> {
        self.retry_after = None; // per-response; reset before each exchange
        self.reader
            .get_mut()
            .write_all(message)
            .map_err(|e| io_err("write request", e))?;

        let mut status_line = String::new();
        self.reader
            .read_line(&mut status_line)
            .map_err(|e| io_err("read status line", e))?;
        if status_line.is_empty() {
            return Err(Error::InvalidParameter(
                "connection closed before a response arrived".into(),
            ));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                Error::InvalidParameter(format!(
                    "malformed status line `{}`",
                    status_line.trim_end()
                ))
            })?;

        let mut content_length: Option<usize> = None;
        loop {
            let mut line = String::new();
            self.reader
                .read_line(&mut line)
                .map_err(|e| io_err("read header", e))?;
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim();
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = Some(value.parse().map_err(|_| {
                        Error::InvalidParameter(format!("bad response Content-Length `{value}`"))
                    })?);
                } else if name.eq_ignore_ascii_case("connection")
                    && value.eq_ignore_ascii_case("close")
                {
                    self.server_closed = true;
                } else if name.eq_ignore_ascii_case("retry-after") {
                    self.retry_after = value.parse().ok();
                }
            }
        }

        let body_bytes = match content_length {
            Some(n) => {
                let mut buf = vec![0u8; n];
                self.reader
                    .read_exact(&mut buf)
                    .map_err(|e| io_err("read response body", e))?;
                buf
            }
            // No Content-Length: only legal on a closing response; the
            // body runs to EOF.
            None => {
                self.server_closed = true;
                let mut buf = Vec::new();
                self.reader
                    .read_to_end(&mut buf)
                    .map_err(|e| io_err("read response body", e))?;
                buf
            }
        };
        let text = String::from_utf8(body_bytes)
            .map_err(|_| Error::InvalidParameter("response body is not UTF-8".into()))?;
        let value = Value::parse(&text)
            .map_err(|e| Error::InvalidParameter(format!("response body is not JSON: {e}")))?;
        Ok((status, value))
    }
}

/// One-shot HTTP exchange: connects to `addr`, sends `body` (when given)
/// as JSON with `Connection: close`, and returns `(status, parsed
/// response body)`. For repeated calls against the same server, hold an
/// [`HttpConnection`] (or a `client::Client`) instead.
///
/// # Errors
///
/// [`Error::InvalidParameter`] on connect/socket failures, a malformed
/// status line, or a non-JSON response body.
pub fn request(addr: &str, method: &str, path: &str, body: Option<&Value>) -> Result<(u16, Value)> {
    HttpConnection::connect(addr)?.exchange(method, path, body, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sspc_common::rng::splitmix64;
    use std::io::Cursor;
    use std::net::TcpListener;

    /// Round-trips one exchange through a real socket pair: the client
    /// helper against the server-side parser and writer.
    #[test]
    fn request_response_roundtrip_over_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let req = read_request(&mut reader).unwrap().unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/jobs");
            assert!(req.close, "one-shot client announces close");
            let body = Value::parse(std::str::from_utf8(&req.body).unwrap()).unwrap();
            assert_eq!(body.get("k").and_then(Value::as_u64), Some(3));
            write_response(&mut stream, 202, &Value::object().with("job", 1u64), true).unwrap();
        });
        let job = Value::object().with("k", 3u64);
        let (status, response) = request(&addr, "POST", "/jobs", Some(&job)).unwrap();
        assert_eq!(status, 202);
        assert_eq!(response.get("job").and_then(Value::as_u64), Some(1));
        server.join().unwrap();
    }

    /// One [`HttpConnection`] carries several exchanges over a single
    /// accepted socket — the keep-alive loop in both directions.
    #[test]
    fn keep_alive_reuses_one_socket_for_many_exchanges() {
        const EXCHANGES: usize = 4;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // Exactly ONE accept: every request must arrive on it.
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            for i in 0..EXCHANGES {
                let req = read_request(&mut reader).unwrap().expect("request arrives");
                assert_eq!(req.path, format!("/jobs/{i}"));
                assert!(!req.close, "keep-alive client does not ask to close");
                write_response(
                    &mut stream,
                    200,
                    &Value::object().with("job", i as u64),
                    false,
                )
                .unwrap();
            }
            // The client hangs up after the last exchange.
            assert!(read_request(&mut reader).unwrap().is_none());
        });
        let mut conn = HttpConnection::connect(&addr).unwrap();
        for i in 0..EXCHANGES {
            let (status, body) = conn.roundtrip("GET", &format!("/jobs/{i}"), None).unwrap();
            assert_eq!(status, 200);
            assert_eq!(body.get("job").and_then(Value::as_u64), Some(i as u64));
            assert!(!conn.server_closed());
        }
        drop(conn);
        server.join().unwrap();
    }

    /// A `Connection: close` response flips `server_closed`, and the
    /// next round trip refuses instead of writing into a dead socket.
    #[test]
    fn server_close_is_honored_by_the_client() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let _ = read_request(&mut reader).unwrap().unwrap();
            write_response(&mut stream, 200, &Value::object(), true).unwrap();
        });
        let mut conn = HttpConnection::connect(&addr).unwrap();
        let (status, _) = conn.roundtrip("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        assert!(conn.server_closed());
        assert!(conn.roundtrip("GET", "/healthz", None).is_err());
        server.join().unwrap();
    }

    /// `Retry-After` is carried per-response: present after a 503 that
    /// sent it, cleared again by the next response without it.
    #[test]
    fn retry_after_header_roundtrips_and_resets() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let _ = read_request(&mut reader).unwrap().unwrap();
            write_response_with(&mut stream, 503, &Value::object(), false, Some(7)).unwrap();
            let _ = read_request(&mut reader).unwrap().unwrap();
            write_response(&mut stream, 200, &Value::object(), true).unwrap();
        });
        let mut conn = HttpConnection::connect(&addr).unwrap();
        let (status, _) = conn.roundtrip("POST", "/jobs", None).unwrap();
        assert_eq!(status, 503);
        assert_eq!(conn.retry_after(), Some(7));
        let (status, _) = conn.roundtrip("GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(conn.retry_after(), None, "reset by a header-free response");
        server.join().unwrap();
    }

    #[test]
    fn query_strings_parse_and_strip() {
        let (path, query) = parse_target("/jobs?status=done&limit=5");
        assert_eq!(path, "/jobs");
        assert_eq!(
            query,
            vec![
                ("status".to_string(), "done".to_string()),
                ("limit".to_string(), "5".to_string())
            ]
        );
        let (path, query) = parse_target("/jobs");
        assert_eq!(path, "/jobs");
        assert!(query.is_empty());
        let (_, query) = parse_target("/jobs?flag");
        assert_eq!(query, vec![("flag".to_string(), String::new())]);
    }

    #[test]
    fn rejects_oversized_and_malformed_requests() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..3 {
                let (stream, _) = listener.accept().unwrap();
                stream.set_read_timeout(Some(IO_TIMEOUT)).unwrap();
                let mut reader = BufReader::new(stream);
                assert!(read_request(&mut reader).is_err());
            }
        });
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /jobs HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n")
            .unwrap();
        drop(s);
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"\r\n\r\n").unwrap();
        drop(s);
        // A header stream that never terminates is cut off at
        // MAX_HEAD_BYTES, not buffered until the socket timeout.
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /jobs HTTP/1.1\r\nx-junk: ").unwrap();
        let chunk = vec![b'a'; 8 * 1024];
        for _ in 0..((MAX_HEAD_BYTES / 8192) + 2) {
            if s.write_all(&chunk).is_err() {
                break; // server already rejected and closed
            }
        }
        drop(s);
        server.join().unwrap();
    }

    #[test]
    fn connection_gauge_tracks_open_close() {
        let m = Ingress::new(256);
        assert_eq!(m.connections_active(), 0);
        m.connection_opened();
        m.connection_opened();
        assert_eq!(m.connections_active(), 2);
        m.connection_closed();
        assert_eq!(m.connections_active(), 1);
    }

    /// A clean disconnect between requests is `Ok(None)`, not an error.
    #[test]
    fn eof_between_requests_is_a_clean_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let s = TcpStream::connect(addr).unwrap();
            drop(s); // connect, say nothing, hang up
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        assert!(read_request(&mut reader).unwrap().is_none());
        client.join().unwrap();
    }

    /// A SplitMix64 stream: each property case builds its input from one
    /// drawn seed.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            let out = splitmix64(self.0);
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            out
        }

        /// Uniform-enough in `0..n`.
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// 1–8 characters from `alphabet`.
        fn word(&mut self, alphabet: &[u8]) -> String {
            (0..1 + self.below(8))
                .map(|_| char::from(alphabet[self.below(alphabet.len())]))
                .collect()
        }
    }

    const TOKEN: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-_.";

    /// A random request and its wire form: method, path, query pairs, a
    /// body of up to 4 KB, `Connection: close` on some, and other headers
    /// in varying case around the framing ones.
    fn random_request(draw: &mut Draw) -> (Request, Vec<u8>) {
        let method = ["GET", "POST", "PUT", "DELETE", "PATCH"][draw.below(5)].to_string();
        let mut path: String = (0..draw.below(4))
            .map(|_| format!("/{}", draw.word(TOKEN)))
            .collect();
        if path.is_empty() {
            path.push('/');
        }
        let query: Vec<(String, String)> = (0..draw.below(4))
            .map(|_| {
                let value = if draw.below(4) == 0 {
                    String::new()
                } else {
                    draw.word(TOKEN)
                };
                (draw.word(TOKEN), value)
            })
            .collect();
        let body: Vec<u8> = (0..draw.below(4097)).map(|_| draw.next() as u8).collect();
        let close = draw.below(3) == 0;

        let mut target = path.clone();
        for (i, (k, v)) in query.iter().enumerate() {
            target.push(if i == 0 { '?' } else { '&' });
            target.push_str(&format!("{k}={v}"));
        }
        let mut headers = vec![
            format!(
                "{}: {}",
                ["Content-Length", "content-length", "CONTENT-LENGTH"][draw.below(3)],
                body.len()
            ),
            format!("Host: {}", draw.word(TOKEN)),
        ];
        if close {
            headers.push(format!(
                "{}: close",
                ["Connection", "connection"][draw.below(2)]
            ));
        } else if draw.below(2) == 0 {
            headers.push("Connection: keep-alive".into());
        }
        for _ in 0..draw.below(3) {
            headers.push(format!("X-{}: {}", draw.word(TOKEN), draw.word(TOKEN)));
        }
        // Shuffle the header order.
        for i in (1..headers.len()).rev() {
            headers.swap(i, draw.below(i + 1));
        }
        let mut wire = format!("{method} {target} HTTP/1.1\r\n").into_bytes();
        for h in &headers {
            wire.extend_from_slice(h.as_bytes());
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(&body);
        let request = Request {
            method,
            path,
            query,
            body,
            close,
        };
        (request, wire)
    }

    /// The wire form of a request head (request line and headers, no blank
    /// line) with one extra header, for the limit checks.
    fn head_with(extra: &str) -> Vec<u8> {
        format!("POST /jobs HTTP/1.1\r\nHost: h\r\n{extra}\r\n").into_bytes()
    }

    proptest! {
        /// One to three random requests written back to back into one
        /// buffer parse in order, each exactly as sent, and then the
        /// buffer ends cleanly.
        #[test]
        fn prop_pipelined_requests_parse_in_order(seed in 0u64..u64::MAX) {
            let mut draw = Draw(seed);
            let sent: Vec<(Request, Vec<u8>)> =
                (0..1 + draw.below(3)).map(|_| random_request(&mut draw)).collect();
            let mut reader = Cursor::new(sent.iter().flat_map(|(_, w)| w.clone()).collect::<Vec<u8>>());
            for (want, _) in &sent {
                let got = read_request(&mut reader).unwrap().expect("a request");
                prop_assert_eq!(&got.method, &want.method);
                prop_assert_eq!(&got.path, &want.path);
                prop_assert_eq!(&got.query, &want.query);
                prop_assert_eq!(&got.body, &want.body);
                prop_assert_eq!(got.close, want.close);
            }
            prop_assert!(read_request(&mut reader).unwrap().is_none());
        }

        /// The two limits: a `Content-Length` one above `MAX_BODY_BYTES`,
        /// and a head one byte longer than `MAX_HEAD_BYTES` (the head at
        /// exactly the limit still parses), wherever the long header sits.
        #[test]
        fn prop_limits_are_errors(seed in 0u64..u64::MAX) {
            let mut draw = Draw(seed);
            let (_, wire) = random_request(&mut draw);
            // The request's head with its own Content-Length swapped for
            // one above the limit.
            let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").expect("head") + 2;
            let head = std::str::from_utf8(&wire[..head_end]).expect("ascii head");
            let mut oversized: String = head
                .split_inclusive("\r\n")
                .filter(|line| !line.to_ascii_lowercase().starts_with("content-length"))
                .collect();
            oversized.push_str(&format!("Content-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1));
            prop_assert!(read_request(&mut Cursor::new(oversized.into_bytes())).is_err());

            let fixed = head_with("X-Pad: ").len() + 2; // + the blank line
            let pad_len = MAX_HEAD_BYTES as usize - fixed;
            let pad: String = (0..pad_len).map(|_| char::from(TOKEN[draw.below(TOKEN.len())])).collect();
            let mut at_limit = head_with(&format!("X-Pad: {pad}"));
            at_limit.extend_from_slice(b"\r\n");
            prop_assert_eq!(at_limit.len(), MAX_HEAD_BYTES as usize);
            prop_assert!(read_request(&mut Cursor::new(at_limit)).unwrap().is_some());
            let mut over = head_with(&format!("X-Pad: {pad}{}", char::from(TOKEN[draw.below(TOKEN.len())])));
            over.extend_from_slice(b"\r\n");
            prop_assert!(read_request(&mut Cursor::new(over)).is_err());
        }

        /// Random bytes never make the parser panic: raw bytes, and bytes
        /// drawn from the grammar's own pieces.
        #[test]
        fn prop_random_bytes_never_panic(seed in 0u64..u64::MAX) {
            const PIECES: &[&[u8]] = &[
                b"GET ", b"POST", b" /", b"?", b"&", b"=", b":", b" ", b"\r\n", b"\n",
                b"Content-Length: ", b"Connection: close", b"12", b"-1", b"\xff", b"\xc3",
            ];
            let mut draw = Draw(seed);
            let bytes: Vec<u8> = if draw.below(2) == 0 {
                (0..draw.below(512)).map(|_| draw.next() as u8).collect()
            } else {
                (0..draw.below(64)).flat_map(|_| PIECES[draw.below(PIECES.len())].to_vec()).collect()
            };
            let mut reader = Cursor::new(bytes);
            for _ in 0..64 {
                match read_request(&mut reader) {
                    Ok(Some(_)) => continue,
                    Ok(None) | Err(_) => break,
                }
            }
        }
    }
}
