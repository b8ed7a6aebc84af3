//! The spool: a shard's journal, `<spool_dir>/shard-<id>.jsonl`, as the
//! router sees it, and the replay the router runs when that shard dies.
//!
//! A shard started with a spool dir journals to this file and nowhere
//! else: its [`Store`](crate::store::Store) appends one fsynced JSON line
//! per event, replays the file when it restarts, and compacts it on boot
//! (see [`crate::store`] for the format):
//!
//! ```text
//! {"event":"submit","job":3,"at":...,"spec":{...the raw job body...}}
//! {"event":"evict","job":3}                      // revoked admission or eviction
//! {"event":"done","job":3,"at":...,"seconds":0.2,"result":{...}}
//! {"event":"failed","job":4,"at":...,"error":"..."}
//! ```
//!
//! The `submit` line is written **before** the job id enters the run
//! queue (and therefore strictly before the `202` ack leaves the shard),
//! so a SIGKILLed shard can never owe an acked job the spool does not
//! know about. `done` lines carry the full result, so jobs that finished
//! on a dead shard stay servable from the spool alone.
//!
//! [`replay`] folds a spool file into the dead shard's outstanding debt
//! with the journal's own replay step (`store::apply_event`): jobs with a
//! terminal line are served as-is, acked-but-unfinished jobs are
//! re-submitted to surviving shards. Torn or malformed lines (a shard
//! killed mid-write) are skipped — a torn `submit` line means the ack
//! never left, so nothing is owed.
//!
//! The router reads a spool only through [`replay`], and moves what it
//! folds with one function (`move_spool` in the router module) for both
//! cases: a failover and a graceful leave (the departing shard's whole
//! spool onto the survivors). A join moves nothing. Every move skips the
//! ids the router already owes, so no job is re-run because its shard's
//! spool was read twice. Spool records are the unit of every move — a
//! leave needs no second format.

use crate::store::{apply_event, parse_stored};
use sspc_common::json::Value;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};

/// Where shard `shard`'s spool file lives under `dir`.
pub fn spool_path(dir: &Path, shard: u16) -> PathBuf {
    dir.join(format!("shard-{shard}.jsonl"))
}

/// What a dead shard owes, folded from its spool file.
#[derive(Debug, Default)]
pub struct SpoolReplay {
    /// Acked-but-unfinished jobs, in admission order: `(old id, raw
    /// spec)` — these must be re-submitted to surviving shards.
    pub pending: Vec<(u64, Value)>,
    /// Jobs that reached a terminal state on the dead shard: `(old id,
    /// full status document)` — these are served from the router as-is.
    pub terminal: Vec<(u64, Value)>,
}

/// Folds `path` into the dead shard's debt. A missing file is an empty
/// debt (the shard never spooled anything); malformed or torn lines are
/// skipped.
pub fn replay(path: &Path) -> SpoolReplay {
    let Ok(file) = File::open(path) else {
        return SpoolReplay::default();
    };
    let mut jobs = BTreeMap::new();
    for line in BufReader::new(file).lines() {
        let Ok(line) = line else { break };
        if let Ok(event) = Value::parse(&line) {
            let _ = apply_event(&event, &mut jobs);
        }
    }
    let mut debt = SpoolReplay::default();
    for (id, record) in jobs {
        if record.status.is_finished() {
            debt.terminal.push((id, record.to_value(id, true)));
        } else {
            debt.pending.push((id, parse_stored(&record.raw)));
        }
    }
    debt
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{EvictionPolicy, Store};
    use crate::JobSpec;
    use std::io::Write;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sspc-spool-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn job_body(seed: u64) -> Value {
        Value::parse(&format!(
            r#"{{"k":2,"dataset":{{"generate":{{"n":32,"d":6,"dims":3,"seed":{}}}}},"algorithms":"harp","runs":1,"seed":7}}"#,
            seed + 1
        ))
        .unwrap()
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let folded = replay(Path::new("/nonexistent/shard-0.jsonl"));
        assert!(folded.pending.is_empty());
        assert!(folded.terminal.is_empty());
    }

    #[test]
    fn replay_folds_submits_evicts_and_terminals() {
        let dir = temp_dir("fold");
        let store = Store::open(EvictionPolicy::default(), None, Some((&dir, 1)))
            .unwrap()
            .store;
        let base = 1u64 << 48;
        for i in 1..=4 {
            let raw = job_body(i);
            let spec = JobSpec::from_json(&raw).unwrap();
            store.insert(base + i, spec, raw).unwrap();
        }
        store.forget(base + 2);
        let result = Value::object().with("labels", Value::Arr(vec![]));
        store.complete(base + 1, result, 0.25);
        store.fail(base + 3, "boom".into());

        let folded = replay(&spool_path(&dir, 1));
        // Only job 4 is still owed: 1 finished, 2 was evicted, 3 failed.
        assert_eq!(
            folded.pending.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![base + 4]
        );
        let ids: Vec<u64> = folded.terminal.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![base + 1, base + 3]);
        let done = &folded.terminal[0].1;
        assert_eq!(done.get("status").and_then(Value::as_str), Some("done"));
        assert_eq!(done.get("job").and_then(Value::as_u64), Some(base + 1));
        assert!(done.get("result").is_some());
        let failed = &folded.terminal[1].1;
        assert_eq!(failed.get("status").and_then(Value::as_str), Some("failed"));
        assert_eq!(failed.get("error").and_then(Value::as_str), Some("boom"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_skips_torn_and_malformed_lines() {
        let dir = temp_dir("torn");
        let path = spool_path(&dir, 0);
        let mut file = File::create(&path).unwrap();
        let good = Value::object()
            .with("event", "submit")
            .with("job", 7u64)
            .with("spec", job_body(7));
        writeln!(file, "{good}").unwrap();
        writeln!(file, "not json at all").unwrap();
        // A torn write: the line a shard was killed in the middle of.
        write!(file, "{{\"event\":\"submit\",\"job\":8,\"sp").unwrap();
        drop(file);
        let folded = replay(&path);
        assert_eq!(
            folded.pending.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            vec![7]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
