//! The CLI's reports over a real process. `cluster`'s summary line:
//! restarts run in parallel, so the line reports the wall time of the
//! whole best-of-N call and, labelled apart, the restarts' summed time.
//! `compare --format json`: the service's report documents.

use sspc_common::json::Value;
use std::path::PathBuf;
use std::process::Command;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sspc_report_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn cli(args: &[&str]) -> std::process::Output {
    let out = Command::new(env!("CARGO_BIN_EXE_sspc-cli"))
        .args(args)
        .env_remove("SSPC_NUM_THREADS")
        .env_remove("RAYON_NUM_THREADS")
        .output()
        .expect("run sspc-cli");
    assert!(
        out.status.success(),
        "sspc-cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// The seconds figure right after `prefix` in `line`, e.g. `2.31` in
/// `"... in 2.31s wall"` for the prefix `" in "`.
fn seconds_after(line: &str, prefix: &str, suffix: &str) -> f64 {
    let rest = &line[line.find(prefix).expect(prefix) + prefix.len()..];
    let figure = &rest[..rest.find(suffix).expect(suffix)];
    figure
        .parse()
        .unwrap_or_else(|e| panic!("{figure:?} in {line:?}: {e}"))
}

#[test]
fn cluster_reports_wall_time_and_summed_restart_time() {
    let dir = temp_dir("cluster");
    let (data, truth) = (dir.join("data.tsv"), dir.join("truth.tsv"));
    let data = data.to_str().expect("utf-8 path");
    cli(&[
        "generate",
        "--out",
        data,
        "--truth",
        truth.to_str().expect("utf-8 path"),
        "--n",
        "120",
        "--d",
        "20",
        "--k",
        "2",
        "--dims",
        "4",
    ]);
    let out = cli(&[
        "cluster",
        "--input",
        data,
        "--k",
        "2",
        "--runs",
        "4",
        "--threads",
        "2",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr
        .lines()
        .find(|l| l.contains("best of 4 run(s)"))
        .unwrap_or_else(|| panic!("no summary line in {stderr:?}"));
    let wall = seconds_after(line, "run(s) in ", "s wall (");
    let summed = seconds_after(line, "s wall (", "s summed over runs)");
    assert!(wall >= 0.0 && summed >= 0.0, "{line}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `compare --format json` prints one JSON document: the array of report
/// documents a `compare` job returns under `result.reports`, one per
/// algorithm in roster order, with the metrics under `evaluation`.
#[test]
fn compare_json_prints_the_service_report_documents() {
    let dir = temp_dir("compare");
    let (data, truth) = (dir.join("data.tsv"), dir.join("truth.tsv"));
    let (data, truth) = (
        data.to_str().expect("utf-8 path"),
        truth.to_str().expect("utf-8 path"),
    );
    cli(&[
        "generate", "--out", data, "--truth", truth, "--n", "120", "--d", "20", "--k", "2",
        "--dims", "4",
    ]);
    let out = cli(&[
        "compare",
        "--input",
        data,
        "--truth",
        truth,
        "--k",
        "2",
        "--runs",
        "2",
        "--algorithms",
        "sspc,harp,clarans",
        "--format",
        "json",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let doc = Value::parse(stdout.trim_end()).unwrap_or_else(|e| panic!("{e}: {stdout}"));
    let reports = doc.as_array().expect("an array of reports");
    let names: Vec<&str> = reports
        .iter()
        .map(|r| {
            r.get("algorithm")
                .and_then(Value::as_str)
                .expect("algorithm")
        })
        .collect();
    assert_eq!(names, ["sspc", "harp", "clarans"], "roster order");
    for r in reports {
        assert!(r.get("runs").and_then(Value::as_u64).is_some(), "{r}");
        let ari = r.get("evaluation").and_then(|e| e.get("ari"));
        assert!(
            ari.and_then(Value::as_f64).is_some(),
            "no evaluation.ari in {r}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
