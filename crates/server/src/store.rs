//! The job store: where submitted jobs and their results live, and the
//! one writer of their event lines.
//!
//! [`Store`] keeps every job in one process-lifetime map. Each
//! transition (submission, revoked admission, completion, failure,
//! eviction) is encoded **once**, as one JSON line, and appended to one
//! file, the **journal**:
//!
//! * `<spool_dir>/shard-<N>.jsonl` when a spool dir is given — the
//!   router folds this same file, with this module's `apply_event`, when
//!   the shard dies ([`crate::router::spool`]);
//! * otherwise `<state_dir>/journal.jsonl` when a state dir is given;
//! * no file at all for a store with neither (memory only).
//!
//! Every line is fsynced ([`sspc_common::io::append_line_durable`]). On
//! startup the journal is replayed (completed results come back
//! bit-identically; interrupted `queued`/`running` jobs are re-enqueued)
//! and compacted into a journal holding only live records
//! ([`sspc_common::io::write_atomic`]). A lock file beside it
//! (`<state_dir>/lock`, or `<spool_dir>/shard-<N>.lock`) keeps a second
//! live process off the same journal.
//!
//! Finished jobs leave the map under the [eviction policy](EvictionPolicy):
//! they expire `result_ttl` after completion (checked lazily on every read
//! and on submission), and `max_jobs` caps the store by evicting the
//! oldest *finished* jobs first — queued and running jobs are never
//! evicted. Evictions are journaled, so neither a restart nor a router
//! replaying a dead shard's spool resurrects them.
//!
//! # Event format
//!
//! One JSON object per line, in event order:
//!
//! ```json
//! {"event":"submit","job":3,"at":1721901000.5,"spec":{...}}
//! {"event":"done","job":3,"at":1721901002.1,"seconds":1.37,"result":{...}}
//! {"event":"failed","job":4,"at":1721901003.0,"error":"..."}
//! {"event":"evict","job":3}
//! ```
//!
//! `spec` is the client's original submission document, so replay
//! revalidates through the same [`JobSpec::from_json`] path as a live
//! submission. A non-finite number encodes as `null`, as it does on the
//! wire, so a replayed document is byte-identical to the served one. A
//! compacted journal also starts with a `meta` line carrying the id
//! floor. On replay a torn final line (a crash mid-append) is tolerated
//! and dropped; corruption anywhere else is a startup error. The parser's
//! nesting-depth limit bounds replay recursion on hostile state files.
//!
//! # Degraded mode
//!
//! A journal write that fails at runtime (disk full, volume gone) flips
//! the store **read-only** instead of taking the process down: existing
//! documents keep being served, but new submissions are refused
//! ([`Store::degraded`], surfaced as `/healthz` readiness and 503s), and
//! a completion whose `done` line could not be journaled is demoted to
//! `failed` — serving a result that a restart would forget would be a
//! silent lie. The journal holds no terminal line for that job, so a
//! restart, or a router failing the shard over, re-runs it under its id.
//! A restart (with the disk repaired) recovers.

use crate::job::JobSpec;
use crate::router::spool::spool_path;
use sspc_common::io::{append_line_durable, write_atomic};
use sspc_common::json::Value;
use sspc_common::{Error, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Lifecycle of one job.
#[derive(Debug, Clone)]
pub enum JobStatus {
    /// Accepted, waiting for a worker.
    Queued,
    /// Executing on a worker right now.
    Running,
    /// Finished successfully.
    Done {
        /// The result document served under the job's `result` key, as
        /// compact JSON text, like [`JobRecord::raw`].
        result: String,
        /// Wall-clock execution seconds.
        seconds: f64,
    },
    /// Finished with an error.
    Failed {
        /// The failure message served under the job's `error` key.
        error: String,
    },
}

impl JobStatus {
    /// The wire name (`queued` / `running` / `done` / `failed`).
    pub fn name(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done { .. } => "done",
            JobStatus::Failed { .. } => "failed",
        }
    }

    pub(crate) fn is_finished(&self) -> bool {
        matches!(self, JobStatus::Done { .. } | JobStatus::Failed { .. })
    }
}

/// One tracked job: the parsed spec, the client's original submission
/// document (what the journal records), and the current status.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Parsed, validated spec (what workers execute).
    pub spec: JobSpec,
    /// The original submission JSON as compact text (what the journal
    /// records and replay re-parses). Text, because a parsed tree costs
    /// several times the bytes, and a store keeps one per retained job.
    pub raw: String,
    /// Current lifecycle state.
    pub status: JobStatus,
    /// Submission wall-clock time (seconds since the Unix epoch).
    pub submitted_at: f64,
    /// Terminal-transition wall-clock time; `None` until finished.
    pub finished_at: Option<f64>,
}

impl JobRecord {
    /// The status document served by `GET /jobs/<id>`; `result` appears
    /// only once done (and only when `with_result`), `error` only once
    /// failed. Built purely from journaled fields, so the document is
    /// byte-identical before and after a restart.
    pub fn to_value(&self, id: u64, with_result: bool) -> Value {
        let algorithms: Vec<Value> = self
            .spec
            .algorithms
            .iter()
            .map(|a| Value::from(a.as_str()))
            .collect();
        let mut v = Value::object()
            .with("job", id)
            .with("algorithms", algorithms)
            .with("runs", self.spec.runs)
            .with("seed", self.spec.seed)
            .with("status", self.status.name());
        match &self.status {
            JobStatus::Done { result, seconds } => {
                v = v.with("seconds", *seconds);
                if with_result {
                    v = v.with("result", parse_stored(result));
                }
            }
            JobStatus::Failed { error } => {
                v = v.with("error", error.as_str());
            }
            JobStatus::Queued | JobStatus::Running => {}
        }
        v
    }
}

/// When finished jobs leave the store.
#[derive(Debug, Clone, Default)]
pub struct EvictionPolicy {
    /// Evict a finished job this long after it finished. `None` keeps
    /// results forever.
    pub result_ttl: Option<Duration>,
    /// Hard cap on stored jobs; exceeding it evicts the oldest *finished*
    /// jobs first. Queued/running jobs are never evicted, so the store
    /// can transiently exceed the cap when everything in it is live work.
    pub max_jobs: Option<usize>,
}

/// Wall-clock seconds since the Unix epoch (journaled timestamps).
fn now_epoch() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64())
}

/// The job map plus an index of finished jobs ordered by finish time.
///
/// The index keys are `(finished_at.to_bits(), id)` — epoch seconds are
/// non-negative, so the IEEE bit pattern is order-preserving and the set
/// iterates oldest-finished first. It makes TTL expiry O(expired · log n)
/// per call instead of a full-map scan, and cap eviction O(log n) per
/// evicted job.
#[derive(Default)]
struct CoreState {
    jobs: BTreeMap<u64, JobRecord>,
    finished: BTreeSet<(u64, u64)>,
}

impl CoreState {
    /// Removes a job and its finished-index entry (if any).
    fn remove(&mut self, id: u64) -> Option<JobRecord> {
        let record = self.jobs.remove(&id)?;
        if let Some(at) = record.finished_at {
            self.finished.remove(&(at.to_bits(), id));
        }
        Some(record)
    }

    /// Drops TTL-expired finished jobs — oldest first off the finished
    /// index, stopping at the first unexpired one — and returns their
    /// ids. Called on every read and write entry point, so expiry needs
    /// no background thread.
    fn expire(&mut self, ttl: Option<Duration>) -> Vec<u64> {
        let Some(ttl) = ttl else {
            return Vec::new();
        };
        let deadline = now_epoch() - ttl.as_secs_f64();
        let mut dead = Vec::new();
        while let Some(&(bits, id)) = self.finished.first() {
            if f64::from_bits(bits) > deadline {
                break;
            }
            self.finished.remove(&(bits, id));
            self.jobs.remove(&id);
            dead.push(id);
        }
        dead
    }

    /// Enforces `max_jobs` by evicting the oldest-*finished* jobs (by
    /// finish time, not submission order — an early-submitted job may
    /// have finished last) and returns their ids. Called after every
    /// insert.
    fn cap(&mut self, max_jobs: Option<usize>) -> Vec<u64> {
        let Some(max) = max_jobs else {
            return Vec::new();
        };
        let mut dead = Vec::new();
        while self.jobs.len() > max {
            let Some(&(bits, id)) = self.finished.first() else {
                break; // everything left is queued/running: never evicted
            };
            self.finished.remove(&(bits, id));
            self.jobs.remove(&id);
            dead.push(id);
        }
        dead
    }
}

/// The journal's lock file, held for the life of a journaled store and
/// released on drop if it is still ours.
struct JournalLock(PathBuf);

impl Drop for JournalLock {
    fn drop(&mut self) {
        let ours = std::fs::read_to_string(&self.0)
            .ok()
            .is_some_and(|s| s.trim() == std::process::id().to_string());
        if ours {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

/// The job store: the job map under its eviction policy, and the journal
/// it appends each transition's line to. All methods take `&self`; the
/// service shares one store across its handler and worker threads.
pub struct Store {
    state: Mutex<CoreState>,
    policy: EvictionPolicy,
    evicted: AtomicU64,
    /// The journal's append handle (`None` without one), locked across a
    /// transition and its line (never taken while `state` is held), so
    /// the file lists events in the order memory applied them.
    journal: Mutex<Option<File>>,
    /// Set by the first runtime journal-write failure and never cleared
    /// (a restart recovers): the store is then read-only.
    degraded: AtomicBool,
    /// The journal's path; `None` without a journal.
    journal_path: Option<PathBuf>,
    _lock: Option<JournalLock>,
}

/// What [`Store::open`] recovered from the journal.
pub struct Recovery {
    /// The store, replayed and compacted, ready to serve.
    pub store: Store,
    /// Jobs that were `queued`/`running` at the kill, in submission
    /// order — the service re-enqueues them. Empty without a journal.
    pub pending: Vec<u64>,
    /// The next job id to assign: one past the highest id the journal
    /// names, its meta floor included (evicted jobs' ids stay burned);
    /// 1 without a journal.
    pub next_id: u64,
}

const JOURNAL_FILE: &str = "journal.jsonl";
const LOCK_FILE: &str = "lock";

/// Claims `lock_path`, the lock file of the journal at `journal`, for
/// this process. Two live processes on one journal would corrupt each
/// other (the second boot's compaction renames the journal out from
/// under the first's append fd, silently dropping its acknowledged
/// events), so a second open fails loudly. A
/// lock left by a dead process (crash) or by this same process (an
/// in-process restart) is taken over.
/// Whether process `pid` can still hold a lock, by procfs: it has a
/// `/proc/<pid>/stat` whose state is neither `Z` (a zombie — killed, but
/// not yet reaped by its parent) nor `X` (dead). The state is the first
/// field after the last `)`, because the command name in parentheses may
/// itself contain spaces and parentheses.
fn process_alive(pid: u32) -> bool {
    let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return false;
    };
    let state = stat
        .rfind(')')
        .and_then(|end| stat[end + 1..].trim_start().chars().next());
    !matches!(state, Some('Z' | 'X'))
}

fn acquire_lock(lock_path: &Path, journal: &Path) -> Result<JournalLock> {
    let pid = std::process::id();
    for _ in 0..2 {
        match OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(lock_path)
        {
            Ok(mut file) => {
                let _ = write!(file, "{pid}");
                return Ok(JournalLock(lock_path.to_path_buf()));
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder: Option<u32> = std::fs::read_to_string(lock_path)
                    .ok()
                    .and_then(|s| s.trim().parse().ok());
                let stale = match holder {
                    Some(p) if p == pid => true, // our own earlier instance
                    // With procfs, a dead holder is detectable; without
                    // it, stay conservative and refuse.
                    Some(p) => Path::new("/proc/self").exists() && !process_alive(p),
                    None => true, // unreadable/empty: a torn write
                };
                if !stale {
                    return Err(Error::InvalidParameter(format!(
                        "journal {} is locked by running process {} \
                         (two servers must not share a journal; remove `{}` if this is wrong)",
                        journal.display(),
                        holder.unwrap_or(0),
                        lock_path.display()
                    )));
                }
                let _ = std::fs::remove_file(lock_path);
            }
            Err(e) => {
                return Err(Error::InvalidParameter(format!(
                    "cannot take journal lock {}: {e}",
                    lock_path.display()
                )))
            }
        }
    }
    Err(Error::InvalidParameter(format!(
        "cannot take journal lock {} (lock file keeps reappearing)",
        lock_path.display()
    )))
}

impl Store {
    /// Opens a store under `policy`. With a `spool` `(dir, shard)`, the
    /// journal is `<dir>/shard-<shard>.jsonl`, locked by
    /// `<dir>/shard-<shard>.lock`, and `state_dir` is unused; otherwise a
    /// `state_dir` holds `journal.jsonl` and `lock`. With a journal, the
    /// store creates the directory if needed, claims the lock, replays
    /// the journal, compacts it, and journals every transition from then
    /// on. With neither, jobs live in memory only.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidParameter`] when the journal is locked by another
    /// live process, on I/O failures, or on a corrupt journal (anything
    /// but a torn final line).
    pub fn open(
        policy: EvictionPolicy,
        state_dir: Option<&Path>,
        spool: Option<(&Path, u16)>,
    ) -> Result<Recovery> {
        let mut store = Store {
            state: Mutex::new(CoreState::default()),
            policy,
            evicted: AtomicU64::new(0),
            journal: Mutex::new(None),
            degraded: AtomicBool::new(false),
            journal_path: None,
            _lock: None,
        };
        let journal = match (spool, state_dir) {
            (Some((dir, shard)), _) => {
                let path = spool_path(dir, shard);
                Some((dir, path.with_extension("lock"), path))
            }
            (None, Some(dir)) => Some((dir, dir.join(LOCK_FILE), dir.join(JOURNAL_FILE))),
            (None, None) => None,
        };
        let (pending, next_id) = match journal {
            Some((dir, lock, path)) => store.recover(dir, &lock, path)?,
            None => (Vec::new(), 1),
        };
        Ok(Recovery {
            store,
            pending,
            next_id,
        })
    }

    /// Claims `lock`, replays and compacts the journal at `path` (in
    /// `dir`) into this (still unshared) store, and opens it for
    /// appending. Returns the interrupted jobs and the next id.
    fn recover(&mut self, dir: &Path, lock: &Path, path: PathBuf) -> Result<(Vec<u64>, u64)> {
        std::fs::create_dir_all(dir).map_err(|e| {
            Error::InvalidParameter(format!("cannot create {}: {e}", dir.display()))
        })?;
        self._lock = Some(acquire_lock(lock, &path)?);
        let state = self.state.get_mut().expect("store poisoned");
        // Ids must never be reused, even for jobs that were evicted and
        // compacted away — a client may still hold an old id, and serving
        // it a different job's document would be silent corruption. The
        // id floor comes from the compacted journal's meta line AND the
        // max id of every submit event replayed (evicted or not).
        let id_floor = if path.exists() {
            replay(&path, &mut state.jobs)?
        } else {
            1
        };
        let next_id = id_floor.max(state.jobs.keys().next_back().map_or(1, |id| id + 1));

        // Interrupted work re-runs: anything not finished was queued or
        // running at the kill and goes back on the queue as `queued`.
        let mut pending = Vec::new();
        for (id, record) in &mut state.jobs {
            if !record.status.is_finished() {
                record.status = JobStatus::Queued;
                pending.push(*id);
            }
        }
        state.finished = state
            .jobs
            .iter()
            .filter_map(|(id, r)| r.finished_at.map(|at| (at.to_bits(), *id)))
            .collect();
        // Results that expired while the service was down stay dead (and
        // uncounted: the counters are process-lifetime).
        let _ = state.expire(self.policy.result_ttl);

        // Boot-time compaction: rewrite the journal with only live
        // records (plus the meta line carrying the id floor), atomically,
        // then append from there.
        sspc_common::fault::point("journal.compact")?;
        write_atomic(&path, render_journal(&state.jobs, next_id).as_bytes())?;
        let journal = OpenOptions::new().append(true).open(&path).map_err(|e| {
            Error::InvalidParameter(format!("cannot open journal {}: {e}", path.display()))
        })?;
        *self.journal.get_mut().expect("journal poisoned") = Some(journal);
        self.journal_path = Some(path);
        Ok((pending, next_id))
    }

    /// Tracks a new job as `queued`. Its `submit` line is journaled first
    /// — a job the journal never saw must not be admitted, or a restart
    /// (or a router replaying the shard's spool) would silently drop it —
    /// hence before the service pushes the id onto its queue.
    ///
    /// # Errors
    ///
    /// A failed journal append, or a store already degraded; the service
    /// answers `503 store_degraded`.
    pub fn insert(&self, id: u64, spec: JobSpec, raw: Value) -> Result<()> {
        let at = now_epoch();
        self.journal_append(&mut self.journal.lock().expect("journal poisoned"), || {
            submit_event(id, at, &raw)
        })?;
        let dead = {
            let mut state = self.state.lock().expect("store poisoned");
            let mut dead = state.expire(self.policy.result_ttl);
            state.jobs.insert(
                id,
                JobRecord {
                    spec,
                    raw: raw.to_string(),
                    status: JobStatus::Queued,
                    submitted_at: at,
                    finished_at: None,
                },
            );
            dead.extend(state.cap(self.policy.max_jobs));
            dead
        };
        self.evictions(&dead);
        Ok(())
    }

    /// Forgets a job whose queue push was refused (it was never really
    /// admitted); its `evict` line voids the `submit` line.
    pub fn forget(&self, id: u64) {
        let removed = self
            .state
            .lock()
            .expect("store poisoned")
            .remove(id)
            .is_some();
        if removed {
            // Best-effort: a failure has already degraded the store; on
            // replay the forgotten job simply reappears queued and
            // re-runs, which is harmless duplicate work.
            let _ = self
                .journal_append(&mut self.journal.lock().expect("journal poisoned"), || {
                    evict_event(id)
                });
        }
    }

    /// Marks the job `running` and returns the spec to execute; `None`
    /// when the job has vanished (evicted between pop and begin).
    /// `running` is transient and deliberately not logged: on replay it
    /// is indistinguishable from `queued` (re-enqueue).
    pub fn begin(&self, id: u64) -> Option<JobSpec> {
        let mut state = self.state.lock().expect("store poisoned");
        let record = state.jobs.get_mut(&id)?;
        record.status = JobStatus::Running;
        Some(record.spec.clone())
    }

    /// Records a successful completion. A result the journal cannot hold
    /// is demoted to `failed` (see the module docs).
    pub fn complete(&self, id: u64, result: Value, seconds: f64) {
        let result = result.to_string();
        self.finish(id, JobStatus::Done { result, seconds });
    }

    /// Records a failure. If its journal append fails, the store
    /// degrades, the job stays failed here, and a restart re-runs it.
    pub fn fail(&self, id: u64, error: String) {
        self.finish(id, JobStatus::Failed { error });
    }

    /// Moves job `id` to a terminal `status` and journals its line. The
    /// journal lock is held across the transition and the append: a
    /// concurrent evicter only sees the job as finished (evictable) once
    /// the state changes under this lock, so its `evict` line lands after
    /// this terminal line and the on-disk order matches memory order.
    fn finish(&self, id: u64, status: JobStatus) {
        let mut journal = self.journal.lock().expect("journal poisoned");
        let at = now_epoch();
        let done = matches!(status, JobStatus::Done { .. });
        // Built before `status` moves into the map, and only for a journal.
        let event = journal
            .is_some()
            .then(|| terminal_event(id, at, &status))
            .flatten();
        if !self.set_finished(id, at, status) {
            return;
        }
        let Some(event) = event else { return };
        if let Err(e) = self.journal_append(&mut journal, || event) {
            if done {
                // The result could not be made durable: a restart would
                // forget it, so serving it now would be a silent lie. The
                // journal has no terminal line for the job, so a restart
                // or a failover re-runs it.
                let error = format!("result not durable (journal write failed): {e}");
                self.set_finished(id, at, JobStatus::Failed { error });
            }
        }
    }

    /// Sets a finished status and indexes its finish time; `false` when
    /// the job is gone.
    fn set_finished(&self, id: u64, at: f64, status: JobStatus) -> bool {
        let mut guard = self.state.lock().expect("store poisoned");
        let state = &mut *guard;
        let Some(record) = state.jobs.get_mut(&id) else {
            return false;
        };
        // A re-finish (a demoted `done`) must replace, not duplicate, the
        // finished-index entry.
        if let Some(previous) = record.finished_at.replace(at) {
            state.finished.remove(&(previous.to_bits(), id));
        }
        record.status = status;
        state.finished.insert((at.to_bits(), id));
        true
    }

    /// The rendered status document (with the result payload), or `None`
    /// for unknown/evicted/expired ids. Expiry is checked lazily here, so
    /// a TTL-expired job 404s even if no sweep ran since it expired.
    pub fn get(&self, id: u64) -> Option<Value> {
        let (doc, dead) = {
            let mut state = self.state.lock().expect("store poisoned");
            let dead = state.expire(self.policy.result_ttl);
            (state.jobs.get(&id).map(|r| r.to_value(id, true)), dead)
        };
        self.evictions(&dead);
        doc
    }

    /// Summaries (no result payloads), newest first, optionally filtered
    /// by status name, capped at `limit`. Returns `(total_matching,
    /// capped_items)` so clients can detect truncation.
    pub fn list(&self, status: Option<&str>, limit: usize) -> (usize, Vec<Value>) {
        let (out, dead) = {
            let mut state = self.state.lock().expect("store poisoned");
            let dead = state.expire(self.policy.result_ttl);
            let matching = |r: &&JobRecord| status.is_none_or(|s| r.status.name() == s);
            let total = state.jobs.values().filter(matching).count();
            let items: Vec<Value> = state
                .jobs
                .iter()
                .rev() // newest first: a capped listing shows recent work
                .filter(|(_, r)| matching(r))
                .take(limit)
                .map(|(id, r)| r.to_value(*id, false))
                .collect();
            ((total, items), dead)
        };
        self.evictions(&dead);
        out
    }

    /// The `/healthz` `store` section: kind (`memory`, or `disk` with a
    /// journal, which also reports `degraded`), held-job count, eviction
    /// counter, and the configured limits.
    pub fn stats(&self) -> Value {
        let (jobs, dead) = {
            let mut state = self.state.lock().expect("store poisoned");
            let dead = state.expire(self.policy.result_ttl);
            (state.jobs.len(), dead)
        };
        self.evictions(&dead);
        let journaled = self.journal_path.is_some();
        let mut v = Value::object()
            .with("kind", if journaled { "disk" } else { "memory" })
            .with("jobs", jobs)
            .with("evicted", self.evicted.load(Ordering::Relaxed));
        if let Some(ttl) = self.policy.result_ttl {
            v = v.with("result_ttl_seconds", ttl.as_secs_f64());
        }
        if let Some(max) = self.policy.max_jobs {
            v = v.with("max_jobs", max);
        }
        if journaled {
            v = v.with("degraded", self.degraded());
        }
        v
    }

    /// True once a runtime journal-write failure made the store
    /// read-only: reads keep working, new submissions must be refused.
    /// A store without a journal never degrades.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Appends the event `event` builds to the journal as one fsynced
    /// line — or refuses at once when the store has already degraded. A
    /// write failure degrades the store; the caller decides what memory
    /// should say about the event that could not be made durable. Without
    /// a journal this is a no-op and the event is never built.
    fn journal_append(
        &self,
        journal: &mut Option<File>,
        event: impl FnOnce() -> Value,
    ) -> Result<()> {
        let Some(journal) = journal else {
            return Ok(());
        };
        if self.degraded() {
            return Err(Error::InvalidParameter(
                "job store is degraded (an earlier journal write failed); \
                 restart the server to recover"
                    .into(),
            ));
        }
        let result = sspc_common::fault::point("journal.append")
            .and_then(|()| append_line_durable(journal, &event().to_string()));
        if let Err(e) = &result {
            self.degrade(e);
        }
        result
    }

    /// Counts TTL/cap evictions and journals them as one write + one
    /// fsync. Lazy TTL expiry can surface thousands of evictions on a
    /// single read after an idle period; per-line fsyncs would stall that
    /// request (and every other journal writer) for seconds.
    fn evictions(&self, dead: &[u64]) {
        if dead.is_empty() {
            return;
        }
        self.evicted.fetch_add(dead.len() as u64, Ordering::Relaxed);
        if self.degraded() {
            // The in-memory eviction already happened, and the stale
            // on-disk records are part of the documented degraded
            // contract (a restart resurrects what the journal still has).
            return;
        }
        let mut journal = self.journal.lock().expect("journal poisoned");
        let Some(journal) = &mut *journal else {
            return;
        };
        let block: String = dead
            .iter()
            .map(|id| format!("{}\n", evict_event(*id)))
            .collect();
        if let Err(e) = journal
            .write_all(block.as_bytes())
            .and_then(|()| journal.sync_data())
        {
            self.degrade(&Error::InvalidParameter(format!("durable append: {e}")));
        }
    }

    /// Enters read-only degraded mode (idempotent; reported once).
    fn degrade(&self, cause: &Error) {
        if !self.degraded.swap(true, Ordering::SeqCst) {
            eprintln!(
                "sspc-server: journal write failed ({}): {cause} — store is now \
                 read-only (degraded); restart the server to recover",
                self.journal_path
                    .as_deref()
                    .unwrap_or(Path::new("?"))
                    .display()
            );
        }
    }
}

/// A document the store keeps as text: it serialized the document itself,
/// so the text parses back to the same value.
pub(crate) fn parse_stored(text: &str) -> Value {
    Value::parse(text).expect("the store keeps only JSON it serialized")
}

/// The `submit` line: the client's original document under `spec`.
fn submit_event(id: u64, at: f64, raw: &Value) -> Value {
    Value::object()
        .with("event", "submit")
        .with("job", id)
        .with("at", at)
        .with("spec", raw.clone())
}

/// The `done` or `failed` line for a terminal `status`; `None` while the
/// job is unfinished.
fn terminal_event(id: u64, at: f64, status: &JobStatus) -> Option<Value> {
    let event = Value::object().with("job", id).with("at", at);
    match status {
        JobStatus::Done { result, seconds } => Some(
            event
                .with("event", "done")
                .with("seconds", *seconds)
                .with("result", parse_stored(result)),
        ),
        JobStatus::Failed { error } => {
            Some(event.with("event", "failed").with("error", error.as_str()))
        }
        JobStatus::Queued | JobStatus::Running => None,
    }
}

/// The `evict` line: the job left the store (or its admission was
/// revoked).
fn evict_event(id: u64) -> Value {
    Value::object().with("event", "evict").with("job", id)
}

/// Replays a journal file into a job map. Returns the id floor: one past
/// the highest job id the journal has ever named (including evicted
/// jobs), combined with any compaction-time `meta` line — ids below it
/// must never be assigned again.
fn replay(path: &Path, jobs: &mut BTreeMap<u64, JobRecord>) -> Result<u64> {
    let file = File::open(path).map_err(|e| {
        Error::InvalidParameter(format!("cannot open journal {}: {e}", path.display()))
    })?;
    let reader = std::io::BufReader::new(file);
    let lines: Vec<String> = reader
        .lines()
        .collect::<std::io::Result<_>>()
        .map_err(|e| Error::InvalidParameter(format!("journal {}: {e}", path.display())))?;
    let last = lines.len().saturating_sub(1);
    let mut id_floor = 1u64;
    for (no, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = match Value::parse(line) {
            Ok(v) => v,
            // A torn final line is the signature of a crash mid-append:
            // the record was never acknowledged, dropping it is correct.
            Err(_) if no == last => break,
            Err(e) => {
                return Err(Error::InvalidParameter(format!(
                    "journal {} line {}: {e}",
                    path.display(),
                    no + 1
                )))
            }
        };
        if event.get("event").and_then(Value::as_str) == Some("meta") {
            if let Some(floor) = event.get("next_id").and_then(Value::as_u64) {
                id_floor = id_floor.max(floor);
            }
            continue;
        }
        let id = apply_event(&event, jobs).map_err(|e| {
            Error::InvalidParameter(format!("journal {} line {}: {e}", path.display(), no + 1))
        })?;
        id_floor = id_floor.max(id + 1);
    }
    Ok(id_floor)
}

/// Applies one journal or spool event to a job map; returns the job id
/// it named.
///
/// # Errors
///
/// [`Error::InvalidParameter`] for an event without a job id, a `submit`
/// without `spec`, a `done` without `result`, or an unknown event name.
pub(crate) fn apply_event(event: &Value, jobs: &mut BTreeMap<u64, JobRecord>) -> Result<u64> {
    let bad = |msg: &str| Error::InvalidParameter(msg.to_string());
    let id = event
        .get("job")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad("event without a job id"))?;
    let at = event.get("at").and_then(Value::as_f64).unwrap_or(0.0);
    match event.get("event").and_then(Value::as_str) {
        Some("submit") => {
            let raw = event
                .get("spec")
                .ok_or_else(|| bad("submit without spec"))?;
            let record = match JobSpec::from_json(raw) {
                Ok(spec) => JobRecord {
                    spec,
                    raw: raw.to_string(),
                    status: JobStatus::Queued,
                    submitted_at: at,
                    finished_at: None,
                },
                // A spec the current schema rejects (journal written by
                // an older build): keep the job visible as failed rather
                // than refusing to boot or silently dropping it. The
                // synthetic spec only backs the status document.
                Err(e) => JobRecord {
                    spec: JobSpec::placeholder(),
                    raw: raw.to_string(),
                    status: JobStatus::Failed {
                        error: format!("unreplayable spec: {e}"),
                    },
                    submitted_at: at,
                    finished_at: Some(at),
                },
            };
            jobs.insert(id, record);
        }
        // Terminal events for a job not in the map are stale, not
        // corrupt: the job was evicted, and the writer's terminal line
        // happened to land after the evict line. Dropping them is the
        // same outcome in either order — the job is gone.
        Some("done") => {
            if let Some(record) = jobs.get_mut(&id) {
                record.status = JobStatus::Done {
                    result: event
                        .get("result")
                        .ok_or_else(|| bad("done without result"))?
                        .to_string(),
                    seconds: event.get("seconds").and_then(Value::as_f64).unwrap_or(0.0),
                };
                record.finished_at = Some(at);
            }
        }
        Some("failed") => {
            if let Some(record) = jobs.get_mut(&id) {
                record.status = JobStatus::Failed {
                    error: event
                        .get("error")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string(),
                };
                record.finished_at = Some(at);
            }
        }
        Some("evict") => {
            jobs.remove(&id);
        }
        _ => return Err(bad("unknown event")),
    }
    Ok(id)
}

/// Renders the compacted journal: a meta line carrying the id floor
/// (compaction drops evicted submits, but their ids must stay burned),
/// then one submit line per live record plus its terminal line when
/// finished, in id order.
fn render_journal(jobs: &BTreeMap<u64, JobRecord>, next_id: u64) -> String {
    let meta = Value::object()
        .with("event", "meta")
        .with("next_id", next_id);
    let mut out = format!("{meta}\n");
    for (id, record) in jobs {
        let raw = parse_stored(&record.raw);
        out.push_str(&format!(
            "{}\n",
            submit_event(*id, record.submitted_at, &raw)
        ));
        let at = record.finished_at.unwrap_or(0.0);
        if let Some(terminal) = terminal_event(*id, at, &record.status) {
            out.push_str(&format!("{terminal}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_raw() -> (JobSpec, Value) {
        let raw = Value::object()
            .with("k", 2u64)
            .with(
                "dataset",
                Value::object().with(
                    "generate",
                    Value::object()
                        .with("n", 30u64)
                        .with("d", 6u64)
                        .with("dims", 3u64),
                ),
            )
            .with("algorithms", "harp");
        (JobSpec::from_json(&raw).unwrap(), raw)
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sspc_store_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_store_lifecycle_and_listing() {
        let store = Store::open(EvictionPolicy::default(), None, None)
            .unwrap()
            .store;
        let (spec, raw) = spec_raw();
        store.insert(1, spec.clone(), raw.clone()).unwrap();
        store.insert(2, spec.clone(), raw.clone()).unwrap();
        assert_eq!(store.begin(1).unwrap().algorithms, vec!["harp"]);
        store.complete(1, Value::object().with("x", 1u64), 0.5);
        store.fail(2, "boom".into());

        let one = store.get(1).unwrap();
        assert_eq!(one.get("status").and_then(Value::as_str), Some("done"));
        assert_eq!(one.get("seconds").and_then(Value::as_f64), Some(0.5));
        assert!(one.get("result").is_some());
        let two = store.get(2).unwrap();
        assert_eq!(two.get("status").and_then(Value::as_str), Some("failed"));
        assert_eq!(two.get("error").and_then(Value::as_str), Some("boom"));
        assert!(store.get(3).is_none());

        // Listing: newest first, filterable, capped, result-free.
        let (total, items) = store.list(None, 10);
        assert_eq!(total, 2);
        assert_eq!(items[0].get("job").and_then(Value::as_u64), Some(2));
        assert!(items[0].get("result").is_none());
        let (total, items) = store.list(Some("done"), 10);
        assert_eq!((total, items.len()), (1, 1));
        let (total, items) = store.list(None, 1);
        assert_eq!((total, items.len()), (2, 1));

        store.forget(1);
        assert!(store.get(1).is_none());
        let stats = store.stats();
        assert_eq!(stats.get("kind").and_then(Value::as_str), Some("memory"));
        assert_eq!(stats.get("jobs").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn max_jobs_evicts_oldest_finished_only() {
        let store = Store::open(
            EvictionPolicy {
                result_ttl: None,
                max_jobs: Some(2),
            },
            None,
            None,
        )
        .unwrap()
        .store;
        let (spec, raw) = spec_raw();
        for id in 1..=2 {
            store.insert(id, spec.clone(), raw.clone()).unwrap();
        }
        store.complete(1, Value::object(), 0.1);
        // Job 3 pushes the store past the cap: job 1 (oldest finished)
        // goes; job 2 (still queued) is untouchable.
        store.insert(3, spec.clone(), raw.clone()).unwrap();
        assert!(store.get(1).is_none());
        assert!(store.get(2).is_some());
        assert!(store.get(3).is_some());
        assert_eq!(
            store.stats().get("evicted").and_then(Value::as_u64),
            Some(1)
        );
        // All unfinished: the cap is allowed to overflow.
        store.insert(4, spec, raw).unwrap();
        let (total, _) = store.list(None, 10);
        assert_eq!(total, 3);
    }

    #[test]
    fn ttl_expires_lazily_on_read() {
        let store = Store::open(
            EvictionPolicy {
                result_ttl: Some(Duration::from_millis(30)),
                max_jobs: None,
            },
            None,
            None,
        )
        .unwrap()
        .store;
        let (spec, raw) = spec_raw();
        store.insert(1, spec, raw).unwrap();
        store.complete(1, Value::object(), 0.1);
        assert!(store.get(1).is_some(), "fresh result still served");
        std::thread::sleep(Duration::from_millis(60));
        assert!(store.get(1).is_none(), "expired result evicted on read");
        assert_eq!(
            store.stats().get("evicted").and_then(Value::as_u64),
            Some(1)
        );
    }

    #[test]
    fn disk_store_replays_results_bit_identically() {
        let dir = temp_dir("replay");
        let result = Value::object().with("objective", 0.30000000000000004).with(
            "xs",
            vec![Value::Num(1.0 / 3.0), Value::Num(f64::MIN_POSITIVE)],
        );
        let rendered_before;
        {
            let recovery = Store::open(EvictionPolicy::default(), Some(&dir), None).unwrap();
            assert_eq!(recovery.next_id, 1);
            assert!(recovery.pending.is_empty());
            let store = recovery.store;
            let (spec, raw) = spec_raw();
            store.insert(1, spec.clone(), raw.clone()).unwrap();
            store.begin(1);
            store.complete(1, result.clone(), 1.25);
            store.insert(2, spec.clone(), raw.clone()).unwrap();
            store.fail(2, "exploded".into());
            store.insert(3, spec, raw).unwrap(); // queued at "kill"
            rendered_before = store.get(1).unwrap().to_string();
        }
        let recovery = Store::open(EvictionPolicy::default(), Some(&dir), None).unwrap();
        assert_eq!(recovery.next_id, 4);
        assert_eq!(recovery.pending, vec![3]);
        let store = recovery.store;
        assert_eq!(
            store.get(1).unwrap().to_string(),
            rendered_before,
            "served document must be byte-identical across restart"
        );
        assert_eq!(
            store
                .get(2)
                .unwrap()
                .get("error")
                .and_then(Value::as_str)
                .unwrap(),
            "exploded"
        );
        assert_eq!(
            store.get(3).unwrap().get("status").and_then(Value::as_str),
            Some("queued")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The truncation-sweep satellite: cut the journal at EVERY byte
    /// offset inside its final record — the widest possible family of
    /// torn-tail crashes. Each cut must either recover (the unfinished
    /// suffix dropped) or refuse with a clean error; it must never
    /// panic, never invent a job, and never lose or alter the
    /// already-durable job 1.
    #[test]
    fn journal_truncation_sweep_recovers_or_refuses_cleanly() {
        let dir = temp_dir("truncate_sweep");
        let baseline;
        {
            let store = Store::open(EvictionPolicy::default(), Some(&dir), None)
                .unwrap()
                .store;
            let (spec, raw) = spec_raw();
            store.insert(1, spec.clone(), raw.clone()).unwrap();
            store.begin(1);
            // Awkward floats on purpose: byte-identity must survive the
            // sweep's repeated replay+compact cycles too.
            store.complete(1, Value::object().with("objective", 0.1 + 0.2), 0.5);
            baseline = store.get(1).unwrap().to_string();
            store.insert(2, spec, raw).unwrap(); // the record under attack
        }
        let journal_path = dir.join(JOURNAL_FILE);
        let full = std::fs::read(&journal_path).unwrap();
        // head = meta + submit 1 + done 1; tail = submit 2 (with '\n').
        let head_len = full[..full.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .expect("multi-line journal")
            + 1;
        let (head, tail) = full.split_at(head_len);

        for cut in 0..=tail.len() {
            std::fs::write(&journal_path, [head, &tail[..cut]].concat()).unwrap();
            let opened = std::panic::catch_unwind(|| {
                Store::open(EvictionPolicy::default(), Some(&dir), None)
            })
            .unwrap_or_else(|_| panic!("cut {cut}: open panicked"));
            match opened {
                Ok(recovery) => {
                    let store = recovery.store;
                    assert_eq!(
                        store.get(1).unwrap().to_string(),
                        baseline,
                        "cut {cut}: durable job 1 drifted"
                    );
                    // Job 2's submit line parses only when whole (the
                    // trailing newline is optional for the last line);
                    // any strict prefix is torn and must vanish.
                    let whole = cut >= tail.len() - 1;
                    assert_eq!(store.get(2).is_some(), whole, "cut {cut}");
                    assert_eq!(recovery.pending, if whole { vec![2] } else { vec![] });
                    assert!(store.get(3).is_none(), "cut {cut}: invented a job");
                }
                Err(e) => {
                    // Refusal is acceptable — but it must name the
                    // journal, not be a bare panic-turned-error.
                    assert!(
                        e.to_string().contains("journal"),
                        "cut {cut}: unhelpful refusal: {e}"
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_journals_evictions_and_compacts() {
        let dir = temp_dir("compact");
        {
            let recovery = Store::open(
                EvictionPolicy {
                    result_ttl: None,
                    max_jobs: Some(1),
                },
                Some(&dir),
                None,
            )
            .unwrap();
            let store = recovery.store;
            let (spec, raw) = spec_raw();
            store.insert(1, spec.clone(), raw.clone()).unwrap();
            store.complete(1, Value::object(), 0.1);
            store.insert(2, spec, raw).unwrap(); // evicts job 1
            store.complete(2, Value::object(), 0.1);
        }
        // Journal now holds submit(1), done(1), submit(2), evict(1),
        // done(2). Replay must not resurrect job 1, and compaction
        // shrinks the journal to the meta line plus job 2's two lines.
        let recovery = Store::open(EvictionPolicy::default(), Some(&dir), None).unwrap();
        assert!(recovery.store.get(1).is_none());
        assert!(recovery.store.get(2).is_some());
        assert_eq!(recovery.next_id, 3, "evicted ids stay burned");
        let journal = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(journal.lines().count(), 3, "{journal}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Ids are never reused, even when eviction + compaction erase every
    /// trace of the jobs that held them — a client polling an old id must
    /// get a 404, never another job's document.
    #[test]
    fn job_ids_are_never_reused_across_restarts() {
        let dir = temp_dir("id_reuse");
        let ttl = EvictionPolicy {
            result_ttl: Some(Duration::from_nanos(1)),
            max_jobs: None,
        };
        {
            let recovery = Store::open(ttl.clone(), Some(&dir), None).unwrap();
            let (spec, raw) = spec_raw();
            recovery.store.insert(1, spec.clone(), raw.clone()).unwrap();
            recovery.store.complete(1, Value::object(), 0.1);
            recovery.store.insert(2, spec, raw).unwrap();
            recovery.store.complete(2, Value::object(), 0.1);
        }
        // Boot 2: both results have outlived the 1ns TTL; the store comes
        // up empty and compaction writes a journal with no job lines.
        {
            let recovery = Store::open(ttl.clone(), Some(&dir), None).unwrap();
            assert!(recovery.store.get(1).is_none());
            assert!(recovery.store.get(2).is_none());
            assert_eq!(recovery.next_id, 3, "empty store must not reset ids");
        }
        // Boot 3: only the meta line is left to carry the floor.
        let recovery = Store::open(ttl, Some(&dir), None).unwrap();
        assert_eq!(recovery.next_id, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The cap evicts by *finish time*, not submission order: an early
    /// job that finished last outlives a late job that finished first.
    #[test]
    fn cap_evicts_by_finish_time_not_submission_order() {
        let store = Store::open(
            EvictionPolicy {
                result_ttl: None,
                max_jobs: Some(2),
            },
            None,
            None,
        )
        .unwrap()
        .store;
        let (spec, raw) = spec_raw();
        for id in 1..=2 {
            store.insert(id, spec.clone(), raw.clone()).unwrap();
        }
        // Job 2 finishes first; job 1 finishes measurably later.
        store.complete(2, Value::object(), 0.1);
        std::thread::sleep(Duration::from_millis(15));
        store.complete(1, Value::object(), 0.1);
        store.insert(3, spec, raw).unwrap();
        assert!(store.get(2).is_none(), "oldest-finished is the one evicted");
        assert!(store.get(1).is_some());
        assert!(store.get(3).is_some());
    }

    #[test]
    fn torn_final_line_is_dropped_corruption_elsewhere_is_fatal() {
        let dir = temp_dir("torn");
        std::fs::create_dir_all(&dir).unwrap();
        let (_, raw) = spec_raw();
        let submit = Value::object()
            .with("event", "submit")
            .with("job", 1u64)
            .with("at", 5.0)
            .with("spec", raw);
        let path = dir.join(JOURNAL_FILE);
        // Torn tail: the crash-mid-append shape — recoverable.
        std::fs::write(&path, format!("{submit}\n{{\"event\":\"do")).unwrap();
        let recovery = Store::open(EvictionPolicy::default(), Some(&dir), None).unwrap();
        assert_eq!(recovery.pending, vec![1]);
        drop(recovery);
        // Corruption in the middle: refuse to boot on a half-trusted map.
        std::fs::write(&path, format!("not json\n{submit}\n")).unwrap();
        let err = match Store::open(EvictionPolicy::default(), Some(&dir), None) {
            Ok(_) => panic!("corrupt journal accepted"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("line 1"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Two live stores must never share a state dir; locks from dead or
    /// same-process holders are taken over.
    #[test]
    fn state_dir_lock_refuses_a_second_live_holder() {
        let dir = temp_dir("lock");
        std::fs::create_dir_all(&dir).unwrap();
        // A lock naming a live foreign process refuses (use our own pid
        // written as if by another holder? — our pid is the same-process
        // takeover case, so fake a live holder with pid 1, which always
        // exists when procfs does).
        if Path::new("/proc/1").exists() {
            std::fs::write(dir.join(LOCK_FILE), "1").unwrap();
            let err = match Store::open(EvictionPolicy::default(), Some(&dir), None) {
                Ok(_) => panic!("locked dir accepted"),
                Err(e) => e.to_string(),
            };
            assert!(err.contains("locked by running process"), "{err}");
        }
        // A stale lock from a dead pid is taken over.
        std::fs::write(dir.join(LOCK_FILE), "4294967295").unwrap();
        let recovery = Store::open(EvictionPolicy::default(), Some(&dir), None).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join(LOCK_FILE)).unwrap(),
            std::process::id().to_string()
        );
        // Dropping the store releases the lock; reopening works.
        drop(recovery);
        assert!(!dir.join(LOCK_FILE).exists());
        let _ = Store::open(EvictionPolicy::default(), Some(&dir), None).unwrap();
        // A holder killed but not yet reaped by its parent is a zombie: its
        // `/proc/<pid>` is still there, but it holds nothing, so a server
        // restarted at once takes the lock over.
        if Path::new("/proc/self").exists() {
            let mut child = std::process::Command::new("sleep")
                .arg("30")
                .spawn()
                .unwrap();
            child.kill().unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while process_alive(child.id()) {
                assert!(
                    std::time::Instant::now() < deadline,
                    "killed child never became a zombie"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            let stat = std::fs::read_to_string(format!("/proc/{}/stat", child.id())).unwrap();
            assert!(stat.contains(") Z "), "not a zombie: {stat}");
            std::fs::write(dir.join(LOCK_FILE), child.id().to_string()).unwrap();
            let takeover = Store::open(EvictionPolicy::default(), Some(&dir), None).unwrap();
            assert_eq!(
                std::fs::read_to_string(dir.join(LOCK_FILE)).unwrap(),
                std::process::id().to_string()
            );
            drop(takeover);
            child.wait().unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A terminal line that landed after the evict line for the same job
    /// (the write-race shape older journals can contain) replays as a
    /// no-op — never as a boot-refusing corruption error.
    #[test]
    fn stale_terminal_events_after_evict_replay_cleanly() {
        let dir = temp_dir("stale_terminal");
        std::fs::create_dir_all(&dir).unwrap();
        let (_, raw) = spec_raw();
        let submit = Value::object()
            .with("event", "submit")
            .with("job", 1u64)
            .with("at", 5.0)
            .with("spec", raw);
        let evict = Value::object().with("event", "evict").with("job", 1u64);
        let done = Value::object()
            .with("event", "done")
            .with("job", 1u64)
            .with("at", 6.0)
            .with("seconds", 0.5)
            .with("result", Value::object());
        std::fs::write(
            dir.join(JOURNAL_FILE),
            format!("{submit}\n{evict}\n{done}\n"),
        )
        .unwrap();
        let recovery = Store::open(EvictionPolicy::default(), Some(&dir), None).unwrap();
        assert!(recovery.store.get(1).is_none(), "evicted stays evicted");
        assert_eq!(recovery.next_id, 2, "the id stays burned");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unreplayable_specs_surface_as_failed_jobs() {
        let dir = temp_dir("unreplayable");
        std::fs::create_dir_all(&dir).unwrap();
        let submit = Value::object()
            .with("event", "submit")
            .with("job", 7u64)
            .with("at", 5.0)
            .with("spec", Value::object().with("not_a_job", true));
        std::fs::write(dir.join(JOURNAL_FILE), format!("{submit}\n")).unwrap();
        let recovery = Store::open(EvictionPolicy::default(), Some(&dir), None).unwrap();
        assert!(recovery.pending.is_empty(), "failed jobs are not re-run");
        let doc = recovery.store.get(7).unwrap();
        assert_eq!(doc.get("status").and_then(Value::as_str), Some("failed"));
        assert!(doc
            .get("error")
            .and_then(Value::as_str)
            .unwrap()
            .contains("unreplayable"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One store with a journal and a spool: the router's fold of the
    /// spool yields, for every finished job, the document the store
    /// serves, byte for byte — including a result holding a NaN, which
    /// both files encode as `null`, as the wire does. A revoked
    /// admission owes nothing; an unfinished job is still owed.
    #[test]
    fn spool_folds_to_the_documents_the_store_serves() {
        let dir = temp_dir("spool_fold");
        let spool_dir = dir.join("spool");
        let store = Store::open(
            EvictionPolicy::default(),
            Some(&dir.join("state")),
            Some((&spool_dir, 3)),
        )
        .unwrap()
        .store;
        let (spec, raw) = spec_raw();
        for id in 1..=5 {
            store.insert(id, spec.clone(), raw.clone()).unwrap();
        }
        store.forget(2);
        store.complete(3, Value::object().with("objective", 0.1 + 0.2), 0.5);
        store.fail(4, "exploded".into());
        store.complete(
            5,
            Value::object().with("xs", vec![Value::Num(f64::NAN), Value::Num(1.5)]),
            0.25,
        );

        let debt = crate::router::spool::replay(&spool_path(&spool_dir, 3));
        let pending: Vec<u64> = debt.pending.iter().map(|(id, _)| *id).collect();
        assert_eq!(pending, vec![1], "only the queued job is owed");
        let terminal: Vec<u64> = debt.terminal.iter().map(|(id, _)| *id).collect();
        assert_eq!(terminal, vec![3, 4, 5]);
        for (id, doc) in &debt.terminal {
            assert_eq!(
                doc.to_string(),
                store.get(*id).unwrap().to_string(),
                "job {id}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// With a spool dir the spool file is the journal, whatever the state
    /// dir says: a reopen recovers finished and interrupted jobs from it,
    /// compaction rewrites it, and cap evictions reach it, so the
    /// router's fold no longer owes an evicted job.
    #[test]
    fn the_spool_is_the_journal_and_evictions_reach_it() {
        let dir = temp_dir("spool_journal");
        let spool_dir = dir.join("spool");
        let state_dir = dir.join("state");
        let policy = EvictionPolicy {
            result_ttl: None,
            max_jobs: Some(2),
        };
        let open = || Store::open(policy.clone(), Some(&state_dir), Some((&spool_dir, 2)));
        let (spec, raw) = spec_raw();
        let served;
        {
            let store = open().unwrap().store;
            for id in 1..=2 {
                store.insert(id, spec.clone(), raw.clone()).unwrap();
            }
            store.complete(1, Value::object().with("objective", 0.1 + 0.2), 0.5);
            store.complete(2, Value::object(), 0.1);
            store.insert(3, spec, raw).unwrap(); // evicts job 1
            served = store.get(2).unwrap().to_string();
            assert_eq!(
                store.stats().get("kind").and_then(Value::as_str),
                Some("disk")
            );
        }
        assert!(!state_dir.exists(), "the state dir is unused");
        let debt = crate::router::spool::replay(&spool_path(&spool_dir, 2));
        let terminal: Vec<u64> = debt.terminal.iter().map(|(id, _)| *id).collect();
        assert_eq!(terminal, vec![2], "the evicted job is owed nothing");
        let pending: Vec<u64> = debt.pending.iter().map(|(id, _)| *id).collect();
        assert_eq!(pending, vec![3]);

        let recovery = open().unwrap();
        assert_eq!(recovery.pending, vec![3]);
        assert_eq!(recovery.next_id, 4, "the evicted id stays burned");
        assert!(recovery.store.get(1).is_none());
        assert_eq!(recovery.store.get(2).unwrap().to_string(), served);
        let spool = std::fs::read_to_string(spool_path(&spool_dir, 2)).unwrap();
        assert_eq!(
            spool.lines().count(),
            4,
            "meta, job 2 submit + done, job 3 submit: {spool}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        /// A shard restarted on its spool must not re-issue an id: the
        /// router may still owe any spooled id's document. Any sequence
        /// of inserts, revoked admissions, completions and failures,
        /// reopened spool-only, yields a `next_id` above every id the
        /// spool has named (a forgotten job's id included).
        #[test]
        fn spool_only_reopen_never_reissues_a_spooled_id(
            shard in 0u16..3,
            ops in proptest::prelude::prop::collection::vec((0u8..4, 1u64..24), 1..48),
        ) {
            let dir = temp_dir("spool_floor");
            let base = crate::router::id_base(shard);
            let (spec, raw) = spec_raw();
            let mut highest = 0;
            {
                let store = Store::open(EvictionPolicy::default(), None, Some((&dir, shard)))
                    .unwrap()
                    .store;
                for &(op, n) in &ops {
                    let id = base + n;
                    match op {
                        0 => {
                            store.insert(id, spec.clone(), raw.clone()).unwrap();
                            highest = highest.max(id);
                        }
                        1 => store.forget(id),
                        2 => store.complete(id, Value::object(), 0.1),
                        _ => store.fail(id, "boom".into()),
                    }
                }
            }
            let recovery = Store::open(EvictionPolicy::default(), None, Some((&dir, shard)))
                .unwrap();
            proptest::prop_assert!(
                recovery.next_id > highest,
                "next_id {} reissues spooled id {}", recovery.next_id, highest
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
