//! Multi-node sharding: a consistent-hash router tier in front of N
//! shard servers.
//!
//! The router is a thin HTTP proxy speaking the exact same protocol as a
//! single shard — clients (including [`crate::client::Client`], the CLI,
//! and the load generator) point at the router unchanged:
//!
//! ```text
//!                       POST /jobs ──ring──▶ shard 0  (serve --shard-id 0)
//!   client ──▶ router   GET /jobs/<id> ────▶ shard_of(id)
//!                       GET /jobs ──scatter▶ every live shard
//!                       GET /healthz ─fan-in▶ every shard, merged
//! ```
//!
//! **Routing.** Each shard stamps its id into the top 16 bits of every
//! job id it assigns ([`id_base`]), so `GET /jobs/<id>` routes by
//! [`shard_of`] — any job is findable without fan-out. `POST /jobs` picks
//! a shard from a deterministic consistent-hash [`Ring`] keyed by a
//! submission counter; when the preferred shard is unreachable the
//! router walks the ring's candidate order instead of failing.
//!
//! **Liveness + failover.** A prober thread health-checks every shard
//! over keep-alive connections with jittered backoff (reusing
//! [`crate::backoff`]). [`RouterConfig::fail_after`] consecutive
//! failures (probe or proxy) declare a shard dead: it leaves the ring
//! and its spool ([`spool`], the shard store's own journal) is replayed —
//! jobs that already reached a terminal state are served from the
//! router's own table, and acked-but-unfinished jobs are re-submitted to
//! surviving shards with their old id remapped to the new one. Every
//! `202`-acked job therefore still completes, and keeps its original id
//! from the client's point of view. A shard that restarts on its spool
//! recovers its own jobs from that journal, so one that comes back before
//! it is declared dead answers its ids itself, and one that comes back
//! after is put back on the ring by a plain cutover; already-failed-over
//! ids keep being served from the table (either copy computes the
//! identical result — execution is deterministic).
//!
//! **Membership.** A join is a cutover: job ids route by their shard
//! prefix, so every acked job stays with the shard that acked it, and the
//! ring only spreads new submissions onto the joiner. A graceful leave
//! and a failover both move a shard's spool records with one function,
//! `move_spool`, under one lock. It skips every id the router already
//! owes — so a shard that fails over, rejoins and dies again re-runs
//! nothing, and a leave and a failover of one shard post each record
//! once — keeps terminal documents as they are, and re-posts pending
//! specs onto the live shards of a ring.
//!
//! **Overload composition.** Shard `503`s (`queue_full`,
//! `backlog_exceeded`, `connections_exhausted`, `shutting_down`,
//! `store_degraded`) pass through the router unchanged, including their
//! `Retry-After` hint. The router adds exactly two reasons of its own:
//! `no_shards_available` (no live shard could take the request) and
//! `shard_unavailable` (the owning shard is dead and the spool owes no
//! record of that id).
//!
//! **Limits.** `GET /jobs` merges *live* shards only — terminal results
//! held for a dead shard are reachable by id, not by listing. And a
//! duplicate admission is possible when a shard dies between processing
//! a `POST` and answering it: the orphaned copy completes harmlessly
//! (results are deterministic) but occupies a second id.

pub mod ring;
pub mod spool;

use crate::backoff::Backoff;
use crate::http::{error_body, HttpConnection, Ingress, Request, Service};
use crate::service::list_query;
use ring::Ring;
use sspc_common::json::Value;
use sspc_common::{Error, Result};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The lowest job id shard `shard` assigns: shard ids live in the top
/// 16 bits of the 64-bit id space, so ids route without any lookup.
/// Shard 0's ids are unchanged from a single-node deployment.
pub fn id_base(shard: u16) -> u64 {
    u64::from(shard) << 48
}

/// Which shard assigned job `id` (the top 16 bits).
pub fn shard_of(id: u64) -> u16 {
    (id >> 48) as u16
}

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks a free port (see [`Router::addr`]).
    pub addr: String,
    /// The shard fleet: `(shard id, address)` pairs. Ids must be
    /// distinct and each shard must run `serve --shard-id <id>` so its
    /// job ids carry the right prefix.
    pub shards: Vec<(u16, String)>,
    /// Directory the shards' stores spool their events into (see [`spool`]).
    /// `None` disables failover replay: a dead shard's unfinished jobs
    /// answer `503 shard_unavailable` instead of completing elsewhere.
    pub spool_dir: Option<PathBuf>,
    /// How often each live shard is health-probed.
    pub probe_interval: Duration,
    /// Consecutive probe/proxy failures before a shard is declared dead
    /// and failed over.
    pub fail_after: u32,
    /// Maximum concurrently open client connections; everything over the
    /// cap is shed with `503` + `Retry-After`, like a shard does.
    pub max_connections: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:7870".into(),
            shards: Vec::new(),
            spool_dir: None,
            probe_interval: Duration::from_secs(1),
            fail_after: 3,
            max_connections: 256,
        }
    }
}

/// A shard's runtime membership state: `active → leaving → gone`.
/// `Leaving` shards still serve reads but take no new submissions while
/// their spool moves off them; `Gone` shards have left the roster
/// entirely. Liveness (`Shard::alive`) is orthogonal — an `Active` shard
/// that stops answering probes renders as `down`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Membership {
    Active = 0,
    Leaving = 1,
    Gone = 2,
}

impl Membership {
    fn from_u8(raw: u8) -> Membership {
        match raw {
            1 => Membership::Leaving,
            2 => Membership::Gone,
            _ => Membership::Active,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Membership::Active => "active",
            Membership::Leaving => "leaving",
            Membership::Gone => "gone",
        }
    }
}

/// One shard as the router sees it.
struct Shard {
    id: u16,
    addr: String,
    /// On the ring and eligible for proxying. Cleared when declared
    /// dead, set again when a probe succeeds.
    alive: AtomicBool,
    /// Consecutive probe/proxy failures; reset by any success.
    failures: AtomicU32,
    /// This shard's spool has been replayed. A rejoin clears it; the
    /// rejoined shard's old ids keep being served from the owed table,
    /// and its next failover skips them.
    failed_over: AtomicBool,
    /// Where in `active → leaving → gone` this shard sits.
    membership: AtomicU8,
}

impl Shard {
    fn new(id: u16, addr: String) -> Shard {
        Shard {
            id,
            addr,
            alive: AtomicBool::new(true),
            failures: AtomicU32::new(0),
            failed_over: AtomicBool::new(false),
            membership: AtomicU8::new(Membership::Active as u8),
        }
    }

    fn membership(&self) -> Membership {
        Membership::from_u8(self.membership.load(Ordering::SeqCst))
    }

    fn set_membership(&self, m: Membership) {
        self.membership.store(m as u8, Ordering::SeqCst);
    }

    /// The state rendered in `/healthz` and the CLI health table:
    /// membership, except that an unreachable shard reads `down`.
    fn display_state(&self) -> &'static str {
        if self.alive.load(Ordering::SeqCst) {
            self.membership().name()
        } else {
            "down"
        }
    }
}

/// What the router owes for a job whose original shard died or left.
enum Owed {
    /// The job finished on the dead shard; serve its spooled document.
    Terminal(Value),
    /// The job was re-submitted to a survivor under a new id.
    Remapped { shard: u16, new_id: u64 },
}

#[derive(Default)]
struct RouterMetrics {
    routed: AtomicU64,
    shed: AtomicU64,
    failovers: AtomicU64,
    replayed: AtomicU64,
    /// Ring cutovers: joins, graceful leaves and rejoins.
    handoffs: AtomicU64,
    /// Spool records moved off gracefully leaving shards.
    handed_off: AtomicU64,
}

struct RouterState {
    /// The live roster. Mutable at runtime (ISSUE 9): admin join pushes,
    /// admin leave removes; every reader takes a snapshot.
    shards: RwLock<Vec<Arc<Shard>>>,
    ring: Mutex<Ring>,
    spool_dir: Option<PathBuf>,
    /// Jobs the router answers for directly, keyed by their *original*
    /// id.
    owed: Mutex<HashMap<u64, Owed>>,
    /// Held by every [`move_spool`] caller (failover and graceful leave),
    /// so a record is posted once even when a leave and a failover of one
    /// shard overlap; makes `ensure_failed_over` blocking, so a reader
    /// never sees a half-replayed shard.
    replay_lock: Mutex<()>,
    /// Serializes membership changes (join / leave / prober rejoin).
    membership_lock: Mutex<()>,
    route_counter: AtomicU64,
    metrics: RouterMetrics,
    ingress: Ingress,
    fail_after: u32,
    draining: AtomicBool,
    started: Instant,
}

impl RouterState {
    /// A point-in-time snapshot of the roster.
    fn roster(&self) -> Vec<Arc<Shard>> {
        self.shards.read().expect("roster poisoned").clone()
    }

    fn shard(&self, id: u16) -> Option<Arc<Shard>> {
        self.shards
            .read()
            .expect("roster poisoned")
            .iter()
            .find(|s| s.id == id)
            .cloned()
    }

    fn shards_alive(&self) -> usize {
        self.shards
            .read()
            .expect("roster poisoned")
            .iter()
            .filter(|s| s.alive.load(Ordering::SeqCst))
            .count()
    }
}

/// A running router; like [`crate::Server`], dropping the handle does
/// not stop it — call [`Router::shutdown`] (tests) or
/// [`Router::begin_drain`] + [`Router::drain`] (operator shutdown).
pub struct Router {
    addr: SocketAddr,
    state: Arc<RouterState>,
    acceptor: JoinHandle<()>,
    prober: JoinHandle<()>,
}

impl Router {
    /// Binds and starts the router: acceptor plus the shard prober.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] when no shards are configured, shard
    /// ids repeat, or the address cannot be bound.
    pub fn start(config: &RouterConfig) -> Result<Router> {
        if config.shards.is_empty() {
            return Err(Error::InvalidParameter(
                "router needs at least one shard".into(),
            ));
        }
        let mut ids: Vec<u16> = config.shards.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != config.shards.len() {
            return Err(Error::InvalidParameter(
                "duplicate shard ids in router config".into(),
            ));
        }
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| Error::InvalidParameter(format!("cannot bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| Error::InvalidParameter(format!("local_addr: {e}")))?;
        let shards = config
            .shards
            .iter()
            .map(|(id, addr)| Arc::new(Shard::new(*id, addr.clone())))
            .collect();
        let state = Arc::new(RouterState {
            shards: RwLock::new(shards),
            ring: Mutex::new(Ring::new(ids, Ring::DEFAULT_VNODES)),
            spool_dir: config.spool_dir.clone(),
            owed: Mutex::new(HashMap::new()),
            replay_lock: Mutex::new(()),
            membership_lock: Mutex::new(()),
            route_counter: AtomicU64::new(0),
            metrics: RouterMetrics::default(),
            ingress: Ingress::new(config.max_connections),
            fail_after: config.fail_after.max(1),
            draining: AtomicBool::new(false),
            started: Instant::now(),
        });
        let acceptor = crate::http::serve("sspc-router", listener, Arc::clone(&state))?;
        let prober_state = Arc::clone(&state);
        let probe_interval = config.probe_interval;
        let prober = std::thread::Builder::new()
            .name("sspc-router-prober".into())
            .spawn(move || prober_loop(&prober_state, probe_interval))
            .expect("spawn router prober");
        Ok(Router {
            addr,
            state,
            acceptor,
            prober,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the acceptor exits — i.e. until [`Router::shutdown`]
    /// from another thread or process death.
    pub fn wait(self) {
        let _ = self.acceptor.join();
        let _ = self.prober.join();
    }

    /// Lame duck: `/healthz` reports `status: "draining"`, new
    /// submissions get `503 shutting_down`, reads keep being served.
    /// Idempotent; there is no way back.
    pub fn begin_drain(&self) {
        self.state.draining.store(true, Ordering::SeqCst);
    }

    /// Waits up to `timeout` for open client connections to finish
    /// after [`Router::begin_drain`], then stops. Returns whether the
    /// connection count reached zero in time. (The router holds no job
    /// state — shards keep executing whatever was admitted — so an
    /// expired timeout loses nothing.)
    #[must_use = "a false return means clients were still connected at the deadline"]
    pub fn drain(self, timeout: Duration) -> bool {
        self.begin_drain();
        let deadline = Instant::now() + timeout;
        let drained = loop {
            if self.state.ingress.connections_active() == 0 {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        self.shutdown();
        drained
    }

    /// Stops accepting and joins the acceptor and prober threads.
    pub fn shutdown(self) {
        self.state.ingress.stop(self.addr);
        let _ = self.acceptor.join();
        let _ = self.prober.join();
    }
}

/// A router-level shed: `503 no_shards_available` + a short retry hint.
fn no_shards(state: &RouterState, context: &str) -> (u16, Value, Option<u64>) {
    state.metrics.shed.fetch_add(1, Ordering::Relaxed);
    (
        503,
        error_body(format!("no live shard available ({context})"))
            .with("reason", "no_shards_available"),
        Some(1),
    )
}

/// Per-handler cache of keep-alive connections to shards.
type ShardConns = HashMap<u16, HttpConnection>;

/// Proxies one request to `shard` over the handler's cached keep-alive
/// connection, reconnecting once when a *reused* connection turns out to
/// be stale (the shard idle-closed it). Returns the shard's status,
/// body, and `Retry-After` so 503s pass through unchanged. An `Err` is a
/// transport-level failure on a fresh connection — the caller should
/// count it toward the shard's death.
fn proxy(
    conns: &mut ShardConns,
    shard: &Shard,
    method: &str,
    path: &str,
    body: Option<&Value>,
) -> Result<(u16, Value, Option<u64>)> {
    let mut reused = true;
    if let Entry::Vacant(slot) = conns.entry(shard.id) {
        reused = false;
        slot.insert(HttpConnection::connect(&shard.addr)?);
    }
    let conn = conns.get_mut(&shard.id).expect("just inserted");
    let answer = match conn.roundtrip(method, path, body) {
        Ok(answer) => answer,
        Err(e) => {
            conns.remove(&shard.id);
            if !reused {
                return Err(e);
            }
            // The cached connection was stale; one fresh attempt. (For a
            // POST this risks a duplicate admission if the shard had in
            // fact processed the first attempt — the orphaned copy
            // completes harmlessly, results being deterministic.)
            let mut fresh = HttpConnection::connect(&shard.addr)?;
            let answer = fresh.roundtrip(method, path, body)?;
            conns.insert(shard.id, fresh);
            answer
        }
    };
    let conn = conns.get_mut(&shard.id).expect("present after roundtrip");
    let retry_after = conn.retry_after();
    if conn.server_closed() {
        conns.remove(&shard.id);
    }
    shard.failures.store(0, Ordering::SeqCst);
    Ok((answer.0, answer.1, retry_after))
}

/// Counts one failure against `shard`; at `fail_after` consecutive
/// failures the shard is declared dead — removed from the ring and its
/// spool replayed onto the survivors.
fn note_shard_failure(state: &RouterState, shard: &Shard) {
    let failures = shard.failures.fetch_add(1, Ordering::SeqCst) + 1;
    if failures >= state.fail_after && shard.alive.swap(false, Ordering::SeqCst) {
        state.ring.lock().expect("ring poisoned").remove(shard.id);
        state.metrics.failovers.fetch_add(1, Ordering::Relaxed);
        ensure_failed_over(state, shard);
    }
}

/// Replays a dead shard's spool exactly once, blocking concurrent
/// callers until the table is complete: terminal jobs become
/// [`Owed::Terminal`], acked-but-unfinished jobs are re-submitted to
/// surviving shards and become [`Owed::Remapped`].
fn ensure_failed_over(state: &RouterState, shard: &Shard) {
    let _serialize = state.replay_lock.lock().expect("replay lock poisoned");
    if !shard.failed_over.swap(true, Ordering::SeqCst) {
        let ring = state.ring.lock().expect("ring poisoned").clone();
        // A failover places what it can; a record no survivor takes
        // stays unowed.
        let _ = move_spool(state, shard.id, &ring);
    }
}

/// Moves shard `from`'s spool records into the owed table: every record
/// whose id the router does not already owe. A terminal document is kept
/// as it is; a pending spec is re-posted to the live shards in the id's
/// candidate order on `ring`, counted in `replayed_jobs`, and remapped to
/// the id it is acked under. A record no shard takes stays unowed. Each
/// record passes the `handoff.stream` fault point first. The caller holds
/// `replay_lock`, so two moves of one spool never post the same record.
/// Returns `(planned, moved)` record counts.
fn move_spool(state: &RouterState, from: u16, ring: &Ring) -> Result<(u64, u64)> {
    let Some(dir) = &state.spool_dir else {
        return Ok((0, 0));
    };
    let debt = spool::replay(&spool::spool_path(dir, from));
    let terminal = debt.terminal.into_iter().map(|(id, doc)| (id, doc, false));
    let pending = debt.pending.into_iter().map(|(id, raw)| (id, raw, true));
    let (mut planned, mut moved) = (0, 0);
    for (id, record, is_pending) in terminal.chain(pending) {
        if state.owed.lock().expect("owed poisoned").contains_key(&id) {
            continue;
        }
        planned += 1;
        sspc_common::fault::point("handoff.stream")?;
        let entry = if is_pending {
            let targets: Vec<(u16, String)> = ring
                .candidates(id)
                .into_iter()
                .filter_map(|s| state.shard(s))
                .filter(|s| s.alive.load(Ordering::SeqCst))
                .map(|s| (s.id, s.addr.clone()))
                .collect();
            let Some((shard, new_id)) = post_spec(&targets, &record) else {
                continue;
            };
            state.metrics.replayed.fetch_add(1, Ordering::Relaxed);
            Owed::Remapped { shard, new_id }
        } else {
            Owed::Terminal(record)
        };
        state.owed.lock().expect("owed poisoned").insert(id, entry);
        moved += 1;
    }
    Ok((planned, moved))
}

/// POSTs a spooled spec to the first of `targets` (`(shard, address)`
/// pairs) that acks it, with a few bounded passes for transient `503`s.
/// Returns the taker and the new id, or `None` when nobody would take it.
fn post_spec(targets: &[(u16, String)], raw: &Value) -> Option<(u16, u64)> {
    for attempt in 0..3 {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(50));
        }
        for (shard, addr) in targets {
            if let Ok((202, body)) = crate::http::request(addr, "POST", "/jobs", Some(raw)) {
                if let Some(new_id) = body.get("job").and_then(Value::as_u64) {
                    return Some((*shard, new_id));
                }
            }
        }
    }
    None
}

/// `POST /jobs`: walk the ring's candidate order for the next
/// submission key; the first live shard that answers — with *any* HTTP
/// status — wins, and its answer (including `503` + `Retry-After`)
/// passes through unchanged.
fn submit(state: &RouterState, conns: &mut ShardConns, body: &[u8]) -> (u16, Value, Option<u64>) {
    if state.draining.load(Ordering::SeqCst) {
        return (
            503,
            error_body("router is draining; not accepting new jobs")
                .with("reason", "shutting_down"),
            Some(1),
        );
    }
    let parsed = std::str::from_utf8(body)
        .map_err(|_| Error::InvalidParameter("body is not UTF-8".into()))
        .and_then(Value::parse);
    let raw = match parsed {
        Ok(raw) => raw,
        Err(e) => return (400, error_body(e.to_string()), None),
    };
    let key = state.route_counter.fetch_add(1, Ordering::SeqCst);
    let candidates = state.ring.lock().expect("ring poisoned").candidates(key);
    for shard_id in candidates {
        let Some(shard) = state.shard(shard_id) else {
            continue;
        };
        if !shard.alive.load(Ordering::SeqCst) || shard.membership() != Membership::Active {
            // A leaving shard is still on the ring until its cutover but
            // takes no new submissions — its spool is moving off it.
            continue;
        }
        match proxy(conns, &shard, "POST", "/jobs", Some(&raw)) {
            Ok(answer) => {
                state.metrics.routed.fetch_add(1, Ordering::Relaxed);
                return answer;
            }
            Err(_) => note_shard_failure(state, &shard),
        }
    }
    no_shards(state, "submission")
}

/// `GET /jobs/<id>`: route by the id's shard prefix; when the owning
/// shard is dead, serve from the failover table (terminal results
/// directly, remapped jobs proxied with the `job` field rewritten back
/// to the id the client was acked with).
fn job_status(
    state: &RouterState,
    conns: &mut ShardConns,
    path: &str,
) -> (u16, Value, Option<u64>) {
    let id_text = &path["/jobs/".len()..];
    let Ok(id) = id_text.parse::<u64>() else {
        return (404, error_body(format!("bad job id `{id_text}`")), None);
    };
    if let Some(answer) = serve_owed(state, conns, id) {
        return answer;
    }
    let shard_id = shard_of(id);
    let Some(shard) = state.shard(shard_id) else {
        // The prefix's shard has left the roster; anything it still owed
        // was folded into the owed table by its leave — already checked.
        return (404, error_body(format!("no job {id}")), None);
    };
    if shard.alive.load(Ordering::SeqCst) {
        match proxy(conns, &shard, "GET", path, None) {
            Ok(answer) => {
                state.metrics.routed.fetch_add(1, Ordering::Relaxed);
                return answer;
            }
            Err(_) => note_shard_failure(state, &shard),
        }
    }
    if !shard.alive.load(Ordering::SeqCst) {
        // Dead: make sure its spool has been folded, then try the owed
        // table once more.
        ensure_failed_over(state, &shard);
        if let Some(answer) = serve_owed(state, conns, id) {
            return answer;
        }
    }
    (
        503,
        error_body(format!(
            "shard {shard_id} is unavailable; status of job {id} is unknown"
        ))
        .with("reason", "shard_unavailable")
        .with("job", id),
        Some(1),
    )
}

/// Serves job `id` from the owed table, if it holds the id.
fn serve_owed(
    state: &RouterState,
    conns: &mut ShardConns,
    id: u64,
) -> Option<(u16, Value, Option<u64>)> {
    let (survivor, new_id) = match state.owed.lock().expect("owed poisoned").get(&id)? {
        Owed::Terminal(doc) => return Some((200, doc.clone(), None)),
        Owed::Remapped { shard, new_id } => (*shard, *new_id),
    };
    let shard = state.shard(survivor);
    if let Some(live) = shard.as_ref().filter(|s| s.alive.load(Ordering::SeqCst)) {
        return match proxy(conns, live, "GET", &format!("/jobs/{new_id}"), None) {
            Ok((status, doc, ra)) => Some((status, rewrite_job_id(doc, id), ra)),
            Err(_) => {
                note_shard_failure(state, live);
                None
            }
        };
    }
    // The survivor died or left since, and its own move remapped
    // `new_id` in turn: one level of indirection per move, resolved
    // lazily.
    if let Some(dead) = &shard {
        ensure_failed_over(state, dead);
    }
    let (status, doc, ra) = serve_owed(state, conns, new_id)?;
    Some((status, rewrite_job_id(doc, id), ra))
}

/// Rewrites the `job` field back to the id the client knows.
fn rewrite_job_id(doc: Value, id: u64) -> Value {
    if doc.get("job").is_some() {
        doc.with("job", id)
    } else {
        doc
    }
}

/// `GET /jobs`: validate the query exactly like a shard would, scatter
/// it to every live shard, and merge newest-first under the same
/// `limit` cap.
fn list(
    state: &RouterState,
    conns: &mut ShardConns,
    query: &[(String, String)],
) -> (u16, Value, Option<u64>) {
    let (status, limit) = match list_query(query) {
        Ok(parsed) => parsed,
        Err(message) => return (400, error_body(message), None),
    };
    let mut forward = format!("/jobs?limit={limit}");
    if let Some(status) = status {
        forward.push_str(&format!("&status={status}"));
    }
    let mut merged: Vec<Value> = Vec::new();
    let mut total = 0u64;
    let mut answered = false;
    for shard in state.roster() {
        if !shard.alive.load(Ordering::SeqCst) {
            continue;
        }
        match proxy(conns, &shard, "GET", &forward, None) {
            Ok((200, body, _)) => {
                answered = true;
                total += body.get("total").and_then(Value::as_u64).unwrap_or(0);
                if let Some(Value::Arr(jobs)) = body.get("jobs") {
                    merged.extend(jobs.iter().cloned());
                }
            }
            Ok((other_status, body, ra)) => return (other_status, body, ra),
            Err(_) => note_shard_failure(state, &shard),
        }
    }
    if !answered {
        return no_shards(state, "listing");
    }
    state.metrics.routed.fetch_add(1, Ordering::Relaxed);
    // Newest first across shards; ids from different shards interleave
    // by their full (prefixed) value, which still sorts each shard's
    // jobs newest-first.
    merged.sort_by(|a, b| {
        let ka = a.get("job").and_then(Value::as_u64).unwrap_or(0);
        let kb = b.get("job").and_then(Value::as_u64).unwrap_or(0);
        kb.cmp(&ka)
    });
    merged.truncate(limit);
    (
        200,
        Value::object()
            .with("jobs", Value::Arr(merged))
            .with("total", total),
        None,
    )
}

/// Reads `path` (e.g. `["latency", "job", "p99_ms"]`) out of a doc.
fn lookup<'a>(doc: &'a Value, path: &[&str]) -> Option<&'a Value> {
    let mut at = doc;
    for key in path {
        at = at.get(key)?;
    }
    Some(at)
}

fn sum_u64(docs: &[&Value], path: &[&str]) -> u64 {
    docs.iter()
        .filter_map(|d| lookup(d, path).and_then(Value::as_u64))
        .sum()
}

fn sum_f64(docs: &[&Value], path: &[&str]) -> f64 {
    docs.iter()
        .filter_map(|d| lookup(d, path).and_then(Value::as_f64))
        .sum()
}

fn max_f64(docs: &[&Value], path: &[&str]) -> f64 {
    docs.iter()
        .filter_map(|d| lookup(d, path).and_then(Value::as_f64))
        .fold(0.0, f64::max)
}

/// `GET /healthz`: fan in every shard's health document. Reachable
/// shards appear verbatim under `shards.<id>`; dead or unreachable ones
/// appear as `{"status": "down", ...}`. Counters sum; latency
/// percentiles report the worst shard; `status` degrades if any shard
/// is not `ok`.
fn healthz(state: &RouterState, conns: &mut ShardConns) -> (u16, Value, Option<u64>) {
    let mut shard_docs: Vec<(u16, &'static str, Option<Value>)> = Vec::new();
    for shard in state.roster() {
        let doc = if shard.alive.load(Ordering::SeqCst) {
            proxy(conns, &shard, "GET", "/healthz", None)
                .ok()
                .filter(|(status, _, _)| *status == 200)
                .map(|(_, doc, _)| doc)
        } else {
            None
        };
        if doc.is_none() && shard.alive.load(Ordering::SeqCst) {
            note_shard_failure(state, &shard);
        }
        shard_docs.push((shard.id, shard.display_state(), doc));
    }
    let reachable: Vec<&Value> = shard_docs
        .iter()
        .filter_map(|(_, _, d)| d.as_ref())
        .collect();
    let draining = state.draining.load(Ordering::SeqCst);
    let any_down = shard_docs.iter().any(|(_, _, d)| d.is_none());
    let all_ok = !any_down
        && reachable
            .iter()
            .all(|d| d.get("status").and_then(Value::as_str) == Some("ok"));
    let status = if draining {
        "draining"
    } else if all_ok {
        "ok"
    } else {
        "degraded"
    };
    let ready = !draining
        && reachable
            .iter()
            .any(|d| d.get("ready").and_then(Value::as_bool) == Some(true));

    let mut jobs = Value::object();
    for counter in [
        "submitted",
        "recovered",
        "rejected_queue_full",
        "rejected_invalid",
        "rejected_backlog",
        "rejected_draining",
        "completed",
        "failed",
    ] {
        jobs = jobs.with(counter, sum_u64(&reachable, &["jobs", counter]));
    }

    // Per-algorithm throughput sums across shards; the rate is
    // recomputed from the summed numerator/denominator rather than
    // averaging per-shard rates.
    let mut algorithms = Value::object();
    let mut names: Vec<String> = Vec::new();
    for doc in &reachable {
        if let Some(per) = doc.get("algorithms").and_then(Value::as_object) {
            for name in per.keys() {
                if !names.contains(name) {
                    names.push(name.clone());
                }
            }
        }
    }
    for name in names {
        let jobs_sum = sum_u64(&reachable, &["algorithms", &name, "jobs"]);
        let restarts = sum_f64(&reachable, &["algorithms", &name, "restarts"]);
        let busy = sum_f64(&reachable, &["algorithms", &name, "busy_seconds"]);
        let rate = if busy > 0.0 { restarts / busy } else { 0.0 };
        algorithms = algorithms.with(
            name,
            Value::object()
                .with("jobs", jobs_sum)
                .with("restarts", restarts)
                .with("busy_seconds", busy)
                .with("restarts_per_busy_second", rate),
        );
    }

    let router = Value::object()
        .with("shards", state.roster().len() as u64)
        .with("shards_alive", state.shards_alive() as u64)
        .with("routed", state.metrics.routed.load(Ordering::Relaxed))
        .with(
            "shed",
            state.metrics.shed.load(Ordering::Relaxed) + state.ingress.shed(),
        )
        .with("failovers", state.metrics.failovers.load(Ordering::Relaxed))
        .with(
            "replayed_jobs",
            state.metrics.replayed.load(Ordering::Relaxed),
        )
        .with(
            "owed_jobs",
            state.owed.lock().expect("owed poisoned").len() as u64,
        )
        .with("handoffs", state.metrics.handoffs.load(Ordering::Relaxed))
        .with(
            "handed_off_jobs",
            state.metrics.handed_off.load(Ordering::Relaxed),
        )
        .with("uptime_seconds", state.started.elapsed().as_secs_f64());

    let queue = Value::object()
        .with("depth", sum_u64(&reachable, &["queue", "depth"]))
        .with("capacity", sum_u64(&reachable, &["queue", "capacity"]));
    let latency = Value::object()
        .with(
            "queue_wait",
            merge_latency_section(&reachable, "queue_wait"),
        )
        .with("job", merge_latency_section(&reachable, "job"));
    drop(reachable);

    let mut shards_value = Value::object();
    for (id, membership, doc) in shard_docs {
        let entry = match doc {
            Some(doc) => doc,
            None => {
                let addr = state.shard(id).map(|s| s.addr.clone()).unwrap_or_default();
                Value::object()
                    .with("status", "down")
                    .with("reachable", false)
                    .with("addr", addr)
            }
        };
        shards_value = shards_value.with(id.to_string(), entry.with("membership", membership));
    }

    let doc = Value::object()
        .with("status", status)
        .with("ready", ready)
        .with("router", router)
        .with("shards", shards_value)
        .with("jobs", jobs)
        .with("queue", queue)
        .with("latency", latency)
        .with("algorithms", algorithms);
    (200, state.ingress.render(doc), None)
}

/// Merges one latency section: counts add; percentiles take the worst
/// shard (a merged p99 cannot be *better* than any member's, and
/// without raw samples the honest summary is the upper envelope).
fn merge_latency_section(docs: &[&Value], section: &str) -> Value {
    Value::object()
        .with("count", sum_u64(docs, &["latency", section, "count"]))
        .with("p50_ms", max_f64(docs, &["latency", section, "p50_ms"]))
        .with("p95_ms", max_f64(docs, &["latency", section, "p95_ms"]))
        .with("p99_ms", max_f64(docs, &["latency", section, "p99_ms"]))
}

/// The cutover: the `handoff.cutover` fault point, then the ring flip
/// under the ring lock.
fn cutover(state: &RouterState, flip: impl FnOnce(&mut Ring)) -> Result<()> {
    sspc_common::fault::point("handoff.cutover")?;
    flip(&mut state.ring.lock().expect("ring poisoned"));
    state.metrics.handoffs.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// The graceful leave: moves the leaver's whole spool onto the post-leave
/// ring (terminal docs as they are, pending jobs re-submitted), then
/// cuts over. Reads are served by the leaver until then. The second
/// sweep catches a submission proxied to the leaver just before it was
/// marked `leaving`; everything the first sweep moved is owed by then and
/// skipped. Fails, with the ring untouched, when a record found no taker;
/// what already moved stays owed.
fn handoff_leave(state: &RouterState, leaver: &Shard) -> Result<(u64, u64)> {
    if state.spool_dir.is_none() {
        return Err(Error::InvalidParameter(
            "graceful leave requires a spool (--spool-dir); without one the shard's \
             acked jobs cannot be handed off"
                .into(),
        ));
    }
    let mut after = state.ring.lock().expect("ring poisoned").clone();
    after.remove(leaver.id);
    let (first, left, second) = {
        let _serialize = state.replay_lock.lock().expect("replay lock poisoned");
        let (_, first) = move_spool(state, leaver.id, &after)?;
        let (left, second) = move_spool(state, leaver.id, &after)?;
        (first, left, second)
    };
    let (planned, moved) = (first + left, first + second);
    if moved < planned {
        return Err(Error::InvalidParameter(format!(
            "{} of shard {}'s records found no shard to take them",
            planned - moved,
            leaver.id
        )));
    }
    cutover(state, |ring| ring.remove(leaver.id))?;
    state.metrics.handed_off.fetch_add(moved, Ordering::Relaxed);
    Ok((planned, moved))
}

/// `POST /admin/shards` — runtime join. Body: `{"shard": <id>, "addr":
/// "<host:port>"}`. The shard is health-checked, added to the roster as
/// `active` and cut over onto the ring; every acked job stays on the
/// shard that acked it. A refused cutover drops it from the roster
/// again.
fn admin_join(state: &RouterState, body: &[u8]) -> (u16, Value, Option<u64>) {
    let parsed = std::str::from_utf8(body)
        .map_err(|_| Error::InvalidParameter("body is not UTF-8".into()))
        .and_then(Value::parse);
    let raw = match parsed {
        Ok(raw) => raw,
        Err(e) => return (400, error_body(e.to_string()), None),
    };
    let (Some(id), Some(addr)) = (
        raw.get("shard")
            .and_then(Value::as_u64)
            .and_then(|id| u16::try_from(id).ok()),
        raw.get("addr").and_then(Value::as_str),
    ) else {
        return (
            400,
            error_body(r#"join body must be {"shard": <0..=65535>, "addr": "host:port"}"#),
            None,
        );
    };
    let _op = state
        .membership_lock
        .lock()
        .expect("membership lock poisoned");
    if state.shard(id).is_some() {
        return (
            409,
            error_body(format!("shard {id} is already in the roster")),
            None,
        );
    }
    if crate::http::request(addr, "GET", "/healthz", None).is_err() {
        return (
            502,
            error_body(format!("shard {id} at {addr} is not answering /healthz")),
            Some(1),
        );
    }
    state
        .shards
        .write()
        .expect("roster poisoned")
        .push(Arc::new(Shard::new(id, addr.to_string())));
    if let Err(e) = cutover(state, |ring| ring.add(id)) {
        state
            .shards
            .write()
            .expect("roster poisoned")
            .retain(|s| s.id != id);
        return (
            502,
            error_body(format!("join of shard {id} aborted: {e}")),
            Some(1),
        );
    }
    (
        200,
        Value::object()
            .with("shard", u64::from(id))
            .with("addr", addr)
            .with("membership", "active"),
        None,
    )
}

/// `DELETE /admin/shards/<id>` — runtime leave. Graceful by default
/// (`leaving` → spool moved off → `gone`); `?mode=dead` runs the failover
/// replay instead (for a shard that is already unreachable).
fn admin_leave(
    state: &RouterState,
    path: &str,
    query: &[(String, String)],
) -> (u16, Value, Option<u64>) {
    let id_text = &path["/admin/shards/".len()..];
    let Ok(id) = id_text.parse::<u16>() else {
        return (404, error_body(format!("bad shard id `{id_text}`")), None);
    };
    let mode = query
        .iter()
        .find(|(k, _)| k == "mode")
        .map_or("graceful", |(_, v)| v.as_str());
    if mode != "graceful" && mode != "dead" {
        return (
            400,
            error_body(format!("unknown mode `{mode}` (graceful or dead)")),
            None,
        );
    }
    let _op = state
        .membership_lock
        .lock()
        .expect("membership lock poisoned");
    let Some(shard) = state.shard(id) else {
        return (
            404,
            error_body(format!("no shard {id} in the roster")),
            None,
        );
    };
    {
        let ring = state.ring.lock().expect("ring poisoned");
        if ring.len() == 1 && ring.contains(id) {
            return (
                400,
                error_body(format!("shard {id} is the last routable shard")),
                None,
            );
        }
    }
    if mode == "dead" || !shard.alive.load(Ordering::SeqCst) {
        // Dead removal: fold the spool like a failover would (idempotent
        // if the prober already did), then forget the shard.
        if shard.alive.swap(false, Ordering::SeqCst) {
            state.ring.lock().expect("ring poisoned").remove(id);
            state.metrics.failovers.fetch_add(1, Ordering::Relaxed);
        }
        ensure_failed_over(state, &shard);
        shard.set_membership(Membership::Gone);
        state
            .shards
            .write()
            .expect("roster poisoned")
            .retain(|s| s.id != id);
        return (
            200,
            Value::object()
                .with("shard", u64::from(id))
                .with("mode", "dead")
                .with("membership", "gone"),
            None,
        );
    }
    shard.set_membership(Membership::Leaving);
    let started = Instant::now();
    match handoff_leave(state, &shard) {
        Ok((planned, moved)) => {
            shard.set_membership(Membership::Gone);
            state
                .shards
                .write()
                .expect("roster poisoned")
                .retain(|s| s.id != id);
            (
                200,
                Value::object()
                    .with("shard", u64::from(id))
                    .with("mode", "graceful")
                    .with("membership", "gone")
                    .with("planned", planned)
                    .with("moved", moved)
                    .with("handoff_seconds", started.elapsed().as_secs_f64()),
                None,
            )
        }
        Err(e) => {
            // Roll back to active: the ring never changed, so the shard
            // simply resumes taking new work; what moved stays owed.
            shard.set_membership(Membership::Active);
            (
                502,
                error_body(format!("graceful leave of shard {id} aborted: {e}")),
                Some(1),
            )
        }
    }
}

impl Service for RouterState {
    type Conn = ShardConns;

    fn ingress(&self) -> &Ingress {
        &self.ingress
    }

    fn route(&self, conns: &mut ShardConns, request: &Request) -> (u16, Value, Option<u64>) {
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/jobs") => submit(self, conns, &request.body),
            ("GET", "/jobs") => list(self, conns, &request.query),
            ("GET", path) if path.starts_with("/jobs/") => job_status(self, conns, path),
            ("GET", "/healthz") => healthz(self, conns),
            ("POST", "/admin/shards") => admin_join(self, &request.body),
            ("DELETE", path) if path.starts_with("/admin/shards/") => {
                admin_leave(self, path, &request.query)
            }
            (_, "/jobs" | "/healthz" | "/admin/shards") => {
                (405, error_body("method not allowed"), None)
            }
            (_, path) if path.starts_with("/jobs/") || path.starts_with("/admin/shards/") => {
                (405, error_body("method not allowed"), None)
            }
            _ => (404, error_body("no such endpoint"), None),
        }
    }

    /// Router-level sheds ask for a short pause; shard 503s carry their
    /// own hint through.
    fn retry_after(&self) -> u64 {
        1
    }
}

/// Rejoins a revived shard: a cutover puts it back on the ring. It
/// recovered its own jobs from its spool when it restarted, and the ids
/// its failover moved keep being served from the owed table. The
/// failover latch resets so a second death replays again, moving only
/// what the router does not already owe. A refused cutover leaves the
/// shard down; the next successful probe retries.
fn rejoin(state: &RouterState, shard: &Shard) {
    let _op = state
        .membership_lock
        .lock()
        .expect("membership lock poisoned");
    if shard.alive.load(Ordering::SeqCst) {
        return;
    }
    if cutover(state, |ring| ring.add(shard.id)).is_ok() {
        shard.failures.store(0, Ordering::SeqCst);
        shard.failed_over.store(false, Ordering::SeqCst);
        shard.set_membership(Membership::Active);
        shard.alive.store(true, Ordering::SeqCst);
    }
}

/// Health-probes every shard over keep-alive connections. Live shards
/// are probed each `interval`; failing shards back off with jitter
/// (capped at 8× the interval) and rejoin the ring on the first
/// successful probe. The roster is
/// re-snapshotted each tick so runtime joins and leaves are picked up.
fn prober_loop(state: &Arc<RouterState>, interval: Duration) {
    let mut conns: ShardConns = HashMap::new();
    // A shard's backoff starts on its first failed probe and is dropped
    // (reset) by its next successful one.
    let mut backoffs: HashMap<u16, Backoff> = HashMap::new();
    let mut due: HashMap<u16, Instant> = HashMap::new();
    while !state.ingress.stopping() {
        let now = Instant::now();
        for shard in state.roster() {
            if *due.entry(shard.id).or_insert(now) > now {
                continue;
            }
            match proxy(&mut conns, &shard, "GET", "/healthz", None) {
                Ok(_) => {
                    backoffs.remove(&shard.id);
                    if !shard.alive.load(Ordering::SeqCst) {
                        rejoin(state, &shard);
                    }
                    due.insert(shard.id, now + interval);
                }
                Err(_) => {
                    note_shard_failure(state, &shard);
                    let backoff = backoffs.entry(shard.id).or_insert_with(|| {
                        let seed = 0x7072_6f62_u64 ^ u64::from(shard.id);
                        Backoff::new(interval, interval.saturating_mul(8), seed)
                    });
                    due.insert(shard.id, now + backoff.next_delay());
                }
            }
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::service::{Server, ServerConfig};

    fn shard_config(shard_id: u16, workers: usize, spool_dir: Option<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            queue_capacity: 64,
            shard_id,
            spool_dir,
            ..ServerConfig::default()
        }
    }

    fn router_over(shards: &[(&Server, u16)], spool_dir: Option<PathBuf>) -> Router {
        Router::start(&RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: shards
                .iter()
                .map(|(server, id)| (*id, server.addr().to_string()))
                .collect(),
            spool_dir,
            probe_interval: Duration::from_millis(100),
            fail_after: 1,
            ..RouterConfig::default()
        })
        .unwrap()
    }

    fn job_body(seed: u64) -> Value {
        Value::parse(&format!(
            r#"{{"k":2,"dataset":{{"generate":{{"n":32,"d":6,"dims":3,"seed":{}}}}},"algorithms":"harp","runs":1,"seed":7}}"#,
            seed + 1
        ))
        .unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sspc-router-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn submissions_spread_and_ids_route_back() {
        let a = Server::start(&shard_config(0, 1, None)).unwrap();
        let b = Server::start(&shard_config(1, 1, None)).unwrap();
        let router = router_over(&[(&a, 0), (&b, 1)], None);
        let addr = router.addr().to_string();

        let mut acked = Vec::new();
        for seed in 0..8 {
            let (status, body) =
                crate::http::request(&addr, "POST", "/jobs", Some(&job_body(seed))).unwrap();
            assert_eq!(status, 202, "submit: {body:?}");
            acked.push(body.get("job").and_then(Value::as_u64).unwrap());
        }
        let shards_hit: std::collections::BTreeSet<u16> =
            acked.iter().map(|&id| shard_of(id)).collect();
        assert_eq!(
            shards_hit.into_iter().collect::<Vec<_>>(),
            vec![0, 1],
            "8 submissions should land on both shards"
        );
        let mut client = Client::new(&addr);
        for &id in &acked {
            let doc = client
                .wait_for(id, Duration::from_millis(5), Duration::from_secs(60))
                .unwrap();
            assert_eq!(doc.get("status").and_then(Value::as_str), Some("done"));
            assert_eq!(doc.get("job").and_then(Value::as_u64), Some(id));
        }
        router.shutdown();
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn healthz_fans_in_and_list_scatters() {
        let a = Server::start(&shard_config(0, 1, None)).unwrap();
        let b = Server::start(&shard_config(1, 1, None)).unwrap();
        let router = router_over(&[(&a, 0), (&b, 1)], None);
        let addr = router.addr().to_string();

        let mut client = Client::new(&addr);
        let mut ids = Vec::new();
        for seed in 0..6 {
            ids.push(client.submit(&job_body(seed)).unwrap());
        }
        for &id in &ids {
            client
                .wait_for(id, Duration::from_millis(5), Duration::from_secs(60))
                .unwrap();
        }

        let health = client.healthz().unwrap();
        assert_eq!(health.get("status").and_then(Value::as_str), Some("ok"));
        assert_eq!(health.get("ready").and_then(Value::as_bool), Some(true));
        let shards = health.get("shards").and_then(Value::as_object).unwrap();
        assert_eq!(shards.len(), 2);
        assert!(shards.contains_key("0") && shards.contains_key("1"));
        let router_section = health.get("router").unwrap();
        assert_eq!(
            router_section.get("shards_alive").and_then(Value::as_u64),
            Some(2)
        );
        assert_eq!(
            lookup(&health, &["jobs", "completed"]).and_then(Value::as_u64),
            Some(6)
        );
        // Sum of both shards' default queue capacity.
        assert_eq!(
            lookup(&health, &["queue", "capacity"]).and_then(Value::as_u64),
            Some(128)
        );

        let listed = client.list_jobs(Some("done"), Some(10)).unwrap();
        assert_eq!(listed.get("total").and_then(Value::as_u64), Some(6));
        let jobs = listed.get("jobs").and_then(Value::as_array).unwrap();
        assert_eq!(jobs.len(), 6);
        let sorted_desc = jobs.windows(2).all(|w| {
            w[0].get("job").and_then(Value::as_u64) >= w[1].get("job").and_then(Value::as_u64)
        });
        assert!(sorted_desc, "merged listing is newest-first");
        router.shutdown();
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn shard_overload_reasons_pass_through_unchanged() {
        // One shard, zero workers, queue of 1: the second submission is
        // a genuine shard-side queue_full and must arrive verbatim.
        let config = ServerConfig {
            queue_capacity: 1,
            ..shard_config(0, 0, None)
        };
        let shard = Server::start(&config).unwrap();
        let router = router_over(&[(&shard, 0)], None);
        let addr = router.addr().to_string();
        let (status, _) = crate::http::request(&addr, "POST", "/jobs", Some(&job_body(1))).unwrap();
        assert_eq!(status, 202);
        let (status, body) =
            crate::http::request(&addr, "POST", "/jobs", Some(&job_body(2))).unwrap();
        assert_eq!(status, 503);
        assert_eq!(
            body.get("reason").and_then(Value::as_str),
            Some("queue_full"),
            "shard 503 reason must pass through: {body:?}"
        );
        router.shutdown();
        shard.shutdown();
    }

    #[test]
    fn no_live_shard_sheds_with_router_reason() {
        // A shard address nobody listens on: bind, learn the port, drop.
        let dead_addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let router = Router::start(&RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: vec![(0, dead_addr)],
            fail_after: 1,
            probe_interval: Duration::from_secs(60),
            ..RouterConfig::default()
        })
        .unwrap();
        let addr = router.addr().to_string();
        let (status, body) =
            crate::http::request(&addr, "POST", "/jobs", Some(&job_body(1))).unwrap();
        assert_eq!(status, 503);
        assert_eq!(
            body.get("reason").and_then(Value::as_str),
            Some("no_shards_available"),
            "router shed: {body:?}"
        );
        let (status, health) = crate::http::request(&addr, "GET", "/healthz", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            health.get("status").and_then(Value::as_str),
            Some("degraded")
        );
        assert_eq!(health.get("ready").and_then(Value::as_bool), Some(false));
        router.shutdown();
    }

    #[test]
    fn dead_shard_jobs_fail_over_and_keep_their_ids() {
        let spool = temp_dir("failover");
        // Shard 0 has no workers: everything it acks stays queued —
        // acked-but-unfinished debt. Shard 1 can actually work.
        let stuck = Server::start(&shard_config(0, 0, Some(spool.clone()))).unwrap();
        let healthy = Server::start(&shard_config(1, 2, Some(spool.clone()))).unwrap();
        let router = router_over(&[(&stuck, 0), (&healthy, 1)], Some(spool.clone()));
        let addr = router.addr().to_string();

        let mut client = Client::new(&addr);
        let mut ids = Vec::new();
        for seed in 0..8 {
            ids.push(client.submit(&job_body(seed)).unwrap());
        }
        let on_stuck: Vec<u64> = ids
            .iter()
            .copied()
            .filter(|&id| shard_of(id) == 0)
            .collect();
        assert!(
            !on_stuck.is_empty(),
            "some of 8 submissions must land on shard 0"
        );

        stuck.shutdown();
        // Every acked job — including those acked by the now-dead shard
        // — completes, and answers under its original id.
        for &id in &ids {
            let doc = client
                .wait_for(id, Duration::from_millis(5), Duration::from_secs(60))
                .unwrap();
            assert_eq!(
                doc.get("status").and_then(Value::as_str),
                Some("done"),
                "job {id}: {doc:?}"
            );
            assert_eq!(doc.get("job").and_then(Value::as_u64), Some(id));
            assert!(doc.get("result").is_some());
        }
        let health = client.healthz().unwrap();
        assert_eq!(
            lookup(&health, &["router", "replayed_jobs"]).and_then(Value::as_u64),
            Some(on_stuck.len() as u64)
        );
        router.shutdown();
        healthy.shutdown();
        let _ = std::fs::remove_dir_all(&spool);
    }

    /// A shard that fails over, restarts at its address, rejoins and
    /// dies again owes nothing new: every one of its jobs is already
    /// owed, so the second failover re-runs none of them.
    #[test]
    fn a_rejoined_shard_that_dies_again_re_runs_nothing() {
        let spool = temp_dir("rerun");
        // Shard 0 acks but never works; shard 1 does the work.
        let stuck = Server::start(&shard_config(0, 0, Some(spool.clone()))).unwrap();
        let healthy = Server::start(&shard_config(1, 2, Some(spool.clone()))).unwrap();
        let stuck_addr = stuck.addr().to_string();
        let router = router_over(&[(&stuck, 0), (&healthy, 1)], Some(spool.clone()));
        let addr = router.addr().to_string();
        // Every job is acked by shard 0 itself, so all of them are its debt.
        let ids: Vec<u64> = (0..4)
            .map(|seed| Client::new(&stuck_addr).submit(&job_body(seed)).unwrap())
            .collect();

        stuck.shutdown();
        let mut client = Client::new(&addr);
        for &id in &ids {
            let doc = client
                .wait_for(id, Duration::from_millis(5), Duration::from_secs(60))
                .unwrap();
            assert_eq!(doc.get("status").and_then(Value::as_str), Some("done"));
        }

        // Restart shard 0 on its address and spool; wait for the rejoin.
        let restarted = Server::start(&ServerConfig {
            addr: stuck_addr,
            ..shard_config(0, 0, Some(spool.clone()))
        })
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(30);
        while lookup(&client.healthz().unwrap(), &["router", "shards_alive"])
            .and_then(Value::as_u64)
            != Some(2)
        {
            assert!(Instant::now() < deadline, "shard 0 never rejoined");
            std::thread::sleep(Duration::from_millis(20));
        }

        // Second death. A read of an id shard 0 never assigned makes the
        // router finish shard 0's failover before it answers.
        restarted.shutdown();
        let (status, _) =
            crate::http::request(&addr, "GET", &format!("/jobs/{}", id_base(0) + 999), None)
                .unwrap();
        assert_eq!(status, 503);
        for &id in &ids {
            let doc = client
                .wait_for(id, Duration::from_millis(5), Duration::from_secs(60))
                .unwrap();
            assert_eq!(doc.get("status").and_then(Value::as_str), Some("done"));
            assert_eq!(doc.get("job").and_then(Value::as_u64), Some(id));
        }
        let health = client.healthz().unwrap();
        assert_eq!(
            lookup(&health, &["router", "replayed_jobs"]).and_then(Value::as_u64),
            Some(ids.len() as u64),
            "each shard-0 job is re-posted once: {health}"
        );
        let (_, survivor) =
            crate::http::request(&healthy.addr().to_string(), "GET", "/healthz", None).unwrap();
        assert_eq!(
            lookup(&survivor, &["jobs", "submitted"]).and_then(Value::as_u64),
            Some(ids.len() as u64),
            "the survivor runs each shard-0 job once: {survivor}"
        );
        router.shutdown();
        healthy.shutdown();
        let _ = std::fs::remove_dir_all(&spool);
    }

    /// A spool-only shard restarted before the router declares it dead
    /// answers the ids it acked itself: its spool is its journal, so the
    /// restart recovers every job and runs the unfinished ones. Nothing
    /// fails over.
    #[test]
    fn a_fast_restarted_shard_still_answers_its_acked_ids() {
        let spool = temp_dir("fast_restart");
        // Shard 0 acks but never works until it restarts with a worker.
        let stuck = Server::start(&shard_config(0, 0, Some(spool.clone()))).unwrap();
        let shard_addr = stuck.addr().to_string();
        let router = Router::start(&RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: vec![(0, shard_addr.clone())],
            spool_dir: Some(spool.clone()),
            ..RouterConfig::default()
        })
        .unwrap();
        let mut client = Client::new(router.addr().to_string());
        let ids: Vec<u64> = (0..4)
            .map(|seed| client.submit(&job_body(seed)).unwrap())
            .collect();

        stuck.shutdown();
        let restarted = Server::start(&ServerConfig {
            addr: shard_addr,
            ..shard_config(0, 1, Some(spool.clone()))
        })
        .unwrap();
        for &id in &ids {
            let doc = client
                .wait_for(id, Duration::from_millis(5), Duration::from_secs(60))
                .unwrap_or_else(|e| panic!("job {id} after the restart: {e}"));
            assert_eq!(doc.get("status").and_then(Value::as_str), Some("done"));
            assert_eq!(doc.get("job").and_then(Value::as_u64), Some(id));
        }
        let health = client.healthz().unwrap();
        assert_eq!(
            lookup(&health, &["router", "failovers"]).and_then(Value::as_u64),
            Some(0),
            "a restart inside the failure budget is not a failover: {health}"
        );
        router.shutdown();
        restarted.shutdown();
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn runtime_join_and_graceful_leave_keep_every_acked_id_servable() {
        let spool = temp_dir("membership");
        let a = Server::start(&shard_config(0, 1, Some(spool.clone()))).unwrap();
        let b = Server::start(&shard_config(1, 1, Some(spool.clone()))).unwrap();
        let router = router_over(&[(&a, 0), (&b, 1)], Some(spool.clone()));
        let addr = router.addr().to_string();
        let mut client = Client::new(&addr);

        // First wave is acked by the static two-shard roster.
        let mut ids = Vec::new();
        for seed in 0..6 {
            ids.push(client.submit(&job_body(seed)).unwrap());
        }

        // Runtime join of shard 2 while the first wave may still run.
        let c = Server::start(&shard_config(2, 1, Some(spool.clone()))).unwrap();
        let join_body = Value::object()
            .with("shard", 2u64)
            .with("addr", c.addr().to_string());
        let (status, joined) =
            crate::http::request(&addr, "POST", "/admin/shards", Some(&join_body)).unwrap();
        assert_eq!(status, 200, "join: {joined:?}");
        assert_eq!(
            joined.get("membership").and_then(Value::as_str),
            Some("active")
        );

        // A duplicate join of the same shard id is refused.
        let (status, _) =
            crate::http::request(&addr, "POST", "/admin/shards", Some(&join_body)).unwrap();
        assert_eq!(status, 409);

        // The joiner takes (some of) the second wave.
        for seed in 6..18 {
            ids.push(client.submit(&job_body(seed)).unwrap());
        }
        assert!(
            ids.iter().any(|&id| shard_of(id) == 2),
            "the joiner owns part of the keyspace: {ids:?}"
        );
        let health = client.healthz().unwrap();
        let shards = health.get("shards").and_then(Value::as_object).unwrap();
        assert_eq!(shards.len(), 3, "roster grew: {health}");
        assert_eq!(
            lookup(&health, &["shards", "2", "membership"]).and_then(Value::as_str),
            Some("active")
        );

        // Graceful leave of shard 1, possibly mid-flight: its keys hand
        // off to the survivors.
        let (status, left) =
            crate::http::request(&addr, "DELETE", "/admin/shards/1", None).unwrap();
        assert_eq!(status, 200, "leave: {left:?}");
        assert_eq!(left.get("membership").and_then(Value::as_str), Some("gone"));

        // Every acked id — including those acked by the departed shard —
        // still completes under its original id.
        for &id in &ids {
            let doc = client
                .wait_for(id, Duration::from_millis(5), Duration::from_secs(60))
                .unwrap_or_else(|e| panic!("job {id} after membership churn: {e}"));
            assert_eq!(
                doc.get("status").and_then(Value::as_str),
                Some("done"),
                "job {id}: {doc:?}"
            );
            assert_eq!(doc.get("job").and_then(Value::as_u64), Some(id));
        }

        // The roster shrank, nothing ever failed over, and both
        // membership changes went through the handoff path.
        let health = client.healthz().unwrap();
        let shards = health.get("shards").and_then(Value::as_object).unwrap();
        assert_eq!(shards.len(), 2, "roster shrank: {health}");
        assert_eq!(
            lookup(&health, &["router", "failovers"]).and_then(Value::as_u64),
            Some(0),
            "membership churn is not failover: {health}"
        );
        assert_eq!(
            lookup(&health, &["router", "handoffs"]).and_then(Value::as_u64),
            Some(2),
            "one join cutover + one leave cutover: {health}"
        );
        router.shutdown();
        a.shutdown();
        b.shutdown();
        c.shutdown();
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn dead_mode_leave_runs_failover_and_forgets_the_shard() {
        let spool = temp_dir("deadleave");
        // Shard 0 acks but never works; shard 1 does the work.
        let stuck = Server::start(&shard_config(0, 0, Some(spool.clone()))).unwrap();
        let healthy = Server::start(&shard_config(1, 2, Some(spool.clone()))).unwrap();
        let router = router_over(&[(&stuck, 0), (&healthy, 1)], Some(spool.clone()));
        let addr = router.addr().to_string();
        let mut client = Client::new(&addr);
        let ids: Vec<u64> = (0..8)
            .map(|s| client.submit(&job_body(s)).unwrap())
            .collect();
        assert!(ids.iter().any(|&id| shard_of(id) == 0));

        stuck.shutdown();
        let (status, gone) =
            crate::http::request(&addr, "DELETE", "/admin/shards/0?mode=dead", None).unwrap();
        assert_eq!(status, 200, "dead removal: {gone:?}");
        assert_eq!(gone.get("mode").and_then(Value::as_str), Some("dead"));
        for &id in &ids {
            let doc = client
                .wait_for(id, Duration::from_millis(5), Duration::from_secs(60))
                .unwrap();
            assert_eq!(doc.get("status").and_then(Value::as_str), Some("done"));
            assert_eq!(doc.get("job").and_then(Value::as_u64), Some(id));
        }
        let health = client.healthz().unwrap();
        let shards = health.get("shards").and_then(Value::as_object).unwrap();
        assert_eq!(shards.len(), 1, "the dead shard is forgotten: {health}");

        // Removing the last shard is refused.
        let (status, refused) =
            crate::http::request(&addr, "DELETE", "/admin/shards/1", None).unwrap();
        assert_eq!(status, 400, "last shard: {refused:?}");
        router.shutdown();
        healthy.shutdown();
        let _ = std::fs::remove_dir_all(&spool);
    }

    /// `jobs.submitted` as the shard itself reports it.
    fn submitted(server: &Server) -> u64 {
        let (_, health) =
            crate::http::request(&server.addr().to_string(), "GET", "/healthz", None).unwrap();
        lookup(&health, &["jobs", "submitted"])
            .and_then(Value::as_u64)
            .unwrap()
    }

    /// Job `id` answers through the router with `status`, under its own id.
    fn assert_status(addr: &str, id: u64, status: &str) {
        let (code, doc) = crate::http::request(addr, "GET", &format!("/jobs/{id}"), None).unwrap();
        assert_eq!(code, 200, "job {id}: {doc}");
        assert_eq!(doc.get("status").and_then(Value::as_str), Some(status));
        assert_eq!(doc.get("job").and_then(Value::as_u64), Some(id), "{doc}");
    }

    /// A join only puts the joiner on the ring: every acked job stays on
    /// the shard its id names, so nothing runs twice.
    #[test]
    fn a_join_copies_no_acked_job_to_the_joiner() {
        let spool = temp_dir("join_copies");
        // Zero workers: every acked job is still pending at the join.
        let a = Server::start(&shard_config(0, 0, Some(spool.clone()))).unwrap();
        let b = Server::start(&shard_config(1, 0, Some(spool.clone()))).unwrap();
        let router = router_over(&[(&a, 0), (&b, 1)], Some(spool.clone()));
        let addr = router.addr().to_string();
        let mut client = Client::new(&addr);
        let ids: Vec<u64> = (0..8)
            .map(|seed| client.submit(&job_body(seed)).unwrap())
            .collect();
        assert!(ids.iter().any(|&id| shard_of(id) == 1), "{ids:?}");

        let joiner = Server::start(&shard_config(2, 0, Some(spool.clone()))).unwrap();
        client.add_shard(2, &joiner.addr().to_string()).unwrap();
        assert_eq!(submitted(&joiner), 0, "the joiner runs no donor's job");
        for &id in &ids {
            assert_status(&addr, id, "queued");
        }
        let health = client.healthz().unwrap();
        assert_eq!(
            lookup(&health, &["router", "owed_jobs"]).and_then(Value::as_u64),
            Some(0),
            "every id is answered by its own shard: {health}"
        );
        router.shutdown();
        a.shutdown();
        b.shutdown();
        joiner.shutdown();
        let _ = std::fs::remove_dir_all(&spool);
    }

    /// An id that failed over onto a shard which later leaves gracefully
    /// follows the chain: the leave moved its copy on, and the read finds
    /// that copy through the departed shard's remap.
    #[test]
    fn an_id_failed_over_onto_a_departed_shard_stays_servable() {
        let spool = temp_dir("remap_chain");
        let s0 = Server::start(&shard_config(0, 0, Some(spool.clone()))).unwrap();
        let s1 = Server::start(&shard_config(1, 0, Some(spool.clone()))).unwrap();
        let s2 = Server::start(&shard_config(2, 0, Some(spool.clone()))).unwrap();
        let router = router_over(&[(&s0, 0), (&s1, 1), (&s2, 2)], Some(spool.clone()));
        let addr = router.addr().to_string();
        let mut client = Client::new(&addr);
        let ids: Vec<u64> = (0..24)
            .map(|seed| client.submit(&job_body(seed)).unwrap())
            .collect();
        assert!(ids.iter().any(|&id| shard_of(id) == 1), "{ids:?}");

        s1.shutdown();
        client.remove_shard(1, true).unwrap();
        client.remove_shard(0, false).unwrap();
        for &id in &ids {
            assert_status(&addr, id, "queued");
        }
        router.shutdown();
        s0.shutdown();
        s2.shutdown();
        let _ = std::fs::remove_dir_all(&spool);
    }

    /// A graceful leave and a failover of the same shard (a probe fails
    /// mid-leave) both move its spool under the replay lock, so each
    /// pending record is re-posted once, whichever runs first.
    #[test]
    fn a_leave_and_a_failover_of_one_shard_post_each_record_once() {
        let spool = temp_dir("leave_failover");
        let leaver = Server::start(&shard_config(0, 0, Some(spool.clone()))).unwrap();
        let b = Server::start(&shard_config(1, 0, Some(spool.clone()))).unwrap();
        let c = Server::start(&shard_config(2, 0, Some(spool.clone()))).unwrap();
        // One probe at start: only the failover below declares a death.
        let router = Router::start(&RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: [(0, &leaver), (1, &b), (2, &c)]
                .iter()
                .map(|(id, server)| (*id, server.addr().to_string()))
                .collect(),
            spool_dir: Some(spool.clone()),
            probe_interval: Duration::from_secs(60),
            fail_after: 1,
            ..RouterConfig::default()
        })
        .unwrap();
        let addr = router.addr().to_string();
        let leaver_addr = leaver.addr().to_string();
        let ids: Vec<u64> = (0..16)
            .map(|seed| Client::new(&leaver_addr).submit(&job_body(seed)).unwrap())
            .collect();

        let start = Arc::new(std::sync::Barrier::new(2));
        let leave = {
            let (start, addr) = (Arc::clone(&start), addr.clone());
            std::thread::spawn(move || {
                start.wait();
                crate::http::request(&addr, "DELETE", "/admin/shards/0", None).unwrap()
            })
        };
        let state = Arc::clone(&router.state);
        let shard = state.shard(0).unwrap();
        start.wait();
        note_shard_failure(&state, &shard);
        let (status, left) = leave.join().unwrap();
        assert_eq!(status, 200, "leave: {left}");

        assert_eq!(submitted(&b) + submitted(&c), ids.len() as u64);
        for &id in &ids {
            assert_status(&addr, id, "queued");
        }
        router.shutdown();
        leaver.shutdown();
        b.shutdown();
        c.shutdown();
        let _ = std::fs::remove_dir_all(&spool);
    }
}
