//! `/healthz` `job_threads` over a real process: a `serve` process splits
//! its thread budget (`SSPC_NUM_THREADS`) evenly over its job workers and
//! reports the share its jobs run with. Each server is its own process,
//! so no other test's workers share its budget.

use sspc_common::json::Value;
use sspc_server::client::Client;
use std::io::BufRead;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `job_threads` of a fresh `serve --workers <workers>` process under
/// `SSPC_NUM_THREADS=<threads>`, read once every worker is in its loop.
fn job_threads(workers: usize, threads: usize) -> u64 {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sspc-cli"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
        .arg(workers.to_string())
        .env("SSPC_NUM_THREADS", threads.to_string())
        .env_remove("RAYON_NUM_THREADS")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn sspc-cli serve");
    // Held open until the kill, so the server never writes to a closed pipe.
    let mut stderr = std::io::BufReader::new(child.stderr.take().expect("piped stderr")).lines();
    let addr = stderr
        .by_ref()
        .map_while(std::result::Result::ok)
        .find_map(|line| {
            let rest = line.strip_prefix("sspc-server listening on ")?;
            rest.split_whitespace().next().map(str::to_string)
        })
        .expect("server announces its address");
    let mut client = Client::new(&addr);
    // A worker registers its share before it counts itself alive.
    let deadline = Instant::now() + Duration::from_secs(30);
    let health = loop {
        let health = client.healthz().expect("healthz");
        if health.get("workers_alive").and_then(Value::as_u64) == Some(workers as u64) {
            break health;
        }
        assert!(
            Instant::now() < deadline,
            "workers never came up: {health:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    drop(client);
    let _ = child.kill();
    let _ = child.wait();
    drop(stderr);
    health
        .get("job_threads")
        .and_then(Value::as_u64)
        .expect("job_threads in /healthz")
}

#[test]
fn job_threads_is_the_budget_split_over_the_workers() {
    assert_eq!(job_threads(1, 4), 4, "one worker gets the whole budget");
    assert_eq!(job_threads(2, 4), 2, "two workers get half each");
}
