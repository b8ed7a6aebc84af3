//! `sspc-cli cluster`'s summary line over a real process: restarts run in
//! parallel, so the line reports the wall time of the whole best-of-N
//! call and, labelled apart, the restarts' summed time.

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
