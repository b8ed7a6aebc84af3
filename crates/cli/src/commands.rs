//! The subcommands: `generate`, `cluster`, `compare`, `evaluate` run
//! locally; `serve`, `route`, `submit`, `poll`, `health`, `loadgen` run
//! (or talk to) the batch service.
//!
//! `cluster` and `compare` are thin shells over the `sspc-api` layer:
//! algorithms are constructed by name through the [`AnyClusterer`]
//! registry and driven through the workspace-wide
//! [`ProjectedClusterer`](sspc_common::ProjectedClusterer) contract, so
//! every algorithm the workspace knows (SSPC and the six baselines) is
//! reachable from the shell with one flag. The service commands speak the
//! same protocol through `sspc-server` — a job submitted over the wire
//! returns exactly what the in-process call would.

use crate::args::Flags;
use sspc_api::registry::{AnyClusterer, ParamMap};
use sspc_api::{best_of, compare_algorithms, AlgorithmReport};
use sspc_common::io::{read_delimited, write_delimited};
use sspc_common::json::Value;
use sspc_common::{ClusterId, DimId, Error, ObjectId, ObjectiveSense, Result, Supervision};
use sspc_datagen::{generate, GeneratorConfig};
use sspc_metrics::{evaluate_partition, OutlierPolicy};
use sspc_server::router::spool::spool_path;
use sspc_server::{client, loadgen, Router, RouterConfig, Server, ServerConfig};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

const HELP: &str = "\
sspc-cli — Semi-Supervised Projected Clustering (ICDE 2005 reproduction)

subcommands:
  generate  --out FILE --truth FILE [--n 1000] [--d 100] [--k 5]
            [--dims 10] [--outliers 0.0] [--seed 1]
      Write a synthetic dataset (TSV) and its true labels (one per line,
      `-` for outliers).

  cluster   --input FILE --k K [--algorithm sspc] [--m 0.5 | --p 0.05]
            [--params \"key=value,...\"] [--labels FILE] [--runs 10]
            [--seed 1] [--threads N] [--out FILE] [--dims-out FILE]
      Cluster a delimited matrix with any algorithm: sspc, proclus,
      clarans, harp, doc, orclus or clique; best-of-N restarts by the
      algorithm's own objective score. --params passes algorithm-specific
      overrides (e.g. `l=6` for proclus, `w=2.5` for doc); --m/--p are
      shorthand for SSPC's threshold. Optional supervision file (SSPC
      only): lines `o <object-id> <class>` and `d <dim-id> <class>`.
      Writes one cluster label per line (`-` for outliers) to --out
      (default stdout) and selected dimensions per cluster to --dims-out.

  compare   --input FILE --k K [--truth FILE]
            [--algorithms sspc,proclus,clarans,harp,doc] [--runs 5]
            [--seed 1] [--threads N] [--labels FILE]
            [--params \"algorithm.key=value,...\"] [--format text|json]
      Run several algorithms on one dataset (best-of-N restarts each, the
      paper's Sec. 5 protocol) and print one row per algorithm: internal
      objective, cluster/outlier counts, time, and — when --truth is given
      — ARI, NMI and purity. --params scopes overrides per algorithm,
      e.g. `proclus.l=6,doc.w=2.5`.

  evaluate  --truth FILE --produced FILE
      Print ARI, NMI and purity of produced labels against true labels.

  serve     [--addr 127.0.0.1:7878] [--workers 2] [--queue-cap 64]
            [--max-conns 256] [--max-backlog-seconds S]
            [--drain-timeout 30] [--state-dir DIR] [--result-ttl SECONDS]
            [--max-jobs N] [--threads N] [--shard-id N] [--spool-dir DIR]
      Run the batch experiment service: JSON job submissions over HTTP
      (POST /jobs), status/result polling (GET /jobs/<id>), and /healthz
      with queue depth, latency percentiles, and per-algorithm
      throughput. Jobs execute on a bounded multi-worker queue; every
      overload answers 503 + Retry-After with a machine-readable reason
      (full queue, connection cap via --max-conns, or — with
      --max-backlog-seconds — an estimated work backlog over budget).
      SIGTERM/SIGINT drains gracefully: /healthz turns \"draining\", new
      submissions are refused, running jobs get up to --drain-timeout
      seconds to finish, then the process exits 0. With --state-dir, jobs
      and results are journaled (fsynced) to DIR/journal.jsonl and
      survive restart (completed results bit-identically; interrupted
      jobs re-run). --result-ttl evicts finished jobs that long after
      completion; --max-jobs caps the store, evicting oldest-finished
      first. Connections are HTTP/1.1 keep-alive, so pollers reuse one
      socket. Behind a router (`route`), run one process per shard with
      a distinct --shard-id (stamped into the top 16 bits of every job
      id) and the router's shared --spool-dir in place of --state-dir:
      the shard then journals to DIR/shard-<ID>.jsonl, the file the
      router replays if this shard dies, so acked jobs fail over, and a
      shard restarted on it keeps its jobs. --state-dir and --spool-dir
      are exclusive.

  route     --shards \"0=HOST:PORT,1=HOST:PORT,...\" [--addr 127.0.0.1:7870]
            [--spool-dir DIR] [--probe-interval 1] [--fail-after 3]
            [--max-conns 256] [--drain-timeout 30]
      Run the consistent-hash router tier in front of N `serve --shard-id`
      processes. POST /jobs spreads submissions over live shards;
      GET /jobs/<id> routes by the id's shard prefix; /healthz fans in
      every shard (merged counters plus a per-shard section); GET /jobs
      scatter-gathers listings. Shards are health-probed every
      --probe-interval seconds and declared dead after --fail-after
      consecutive failures; with --spool-dir, a dead shard's
      acked-but-unfinished jobs are replayed onto survivors (finished
      ones are served from the spool), so every 202 still completes.
      Shard 503 reasons and Retry-After pass through unchanged; the
      router adds its own `no_shards_available` (no live shard took the
      request) and `shard_unavailable` (a dead shard's job with no spool
      record). SIGTERM/SIGINT drains like `serve`.

  route add-shard    --addr ROUTER --shard ID --shard-addr HOST:PORT
  route remove-shard --addr ROUTER --shard ID [--dead true]
      Change a running router's shard roster. add-shard health-checks
      the new shard and puts it on the ring: new submissions start
      landing on it, and every job acked before the join stays on the
      shard that acked it. The join summary prints as JSON.
      remove-shard is graceful by default: the departing shard's spool
      moves onto the survivors (finished results as they are, pending
      jobs re-submitted) before it leaves the ring, and the summary
      (planned/moved counts, handoff seconds) prints as JSON; --dead
      true folds the spool of an unreachable shard through the failover
      path instead. Either way every acked id keeps answering under its
      own id. Removing the last routable shard is refused.

  submit    --addr HOST:PORT --k K
            (--input FILE [--truth-path FILE] | --generate \"n=1000,d=100,...\")
            [--type compare|cluster] [--algorithms sspc,clarans,...]
            [--params \"algorithm.key=value,...\"] [--runs 5] [--seed 1]
            [--truth true] [--include-assignment true] [--timeout SECONDS]
            [--wait true] [--interval-ms 250] [--timeout-sec 600]
      Submit a job to a running service and print the job id — or, with
      --wait true, block until it finishes and print the full result JSON.
      --generate accepts n, d, k, dims, outliers, seed and evaluates the
      synthetic dataset server-side; --truth true scores against its
      planted labels. --input paths are resolved to absolute paths but
      must be readable by the *server* process. --timeout sets the job's
      server-side deadline (`timeout_secs`): a job still running that many
      seconds after it starts is cancelled and marked failed. (The
      separate --timeout-sec bounds only how long --wait polls.)

  poll      --addr HOST:PORT (--job ID | --list true) [--wait true]
            [--interval-ms 250] [--timeout-sec 600]
            [--status queued|running|done|failed] [--limit N]
      Print a submitted job's status/result JSON (optionally waiting for
      it to finish) — or, with --list true, a bounded job listing (newest
      first; --status filters, --limit caps, `total` reports the uncapped
      match count).

  health    --addr HOST:PORT
      Print the service's /healthz JSON (stdout) and a one-line summary —
      status (including draining), queue, connections, workers alive, job
      counters, latency percentiles, degraded flag — to stderr. Against a
      router, the summary covers the fleet and a per-shard table
      (membership state — active/leaving/down — plus status,
      conns, queue depth, job p99) follows on stderr; stdout stays the
      raw merged JSON either way.

  loadgen   --addr HOST:PORT [--jobs 50] [--pattern poisson|burst]
            [--rate 20] [--burst-size 10] [--burst-every-ms 500]
            [--seed 1] [--wait-timeout-sec 60] [--out FILE]
      Replay an open-loop trace of mixed-size jobs against a running
      service (Poisson arrivals at --rate jobs/s, or bursts of
      --burst-size every --burst-every-ms) and print a report JSON —
      acks, an error taxonomy keyed by 503 reason, submit/e2e latency
      percentiles — to stdout plus a one-line summary to stderr. After
      the trace, acked jobs are polled to a terminal state for up to
      --wait-timeout-sec (0 skips the wait). --out appends the report as
      one JSON line to FILE (the BENCH_server.json shape). Deterministic
      in --seed.

  help
      This message.

`--threads N` (cluster, compare, serve) sets SSPC_NUM_THREADS for the run:
the process's thread budget for best-of-N restarts and the deterministic
parallel assignment/refit phases, without env fiddling. A server splits it
evenly over its workers.";

/// Dispatches a full argv (without the program name).
///
/// # Errors
///
/// Any parse, I/O, or clustering failure, with a message suitable for
/// printing.
pub fn dispatch(argv: &[String]) -> Result<()> {
    let Some(command) = argv.first() else {
        println!("{HELP}");
        return Ok(());
    };
    // `route add-shard` / `route remove-shard` carry a bare verb before
    // the flags; peel it off before flag parsing (which rejects bare
    // words everywhere else).
    if command == "route" {
        match argv.get(1).map(String::as_str) {
            Some("add-shard") => return cmd_route_add_shard(&Flags::parse(&argv[2..])?),
            Some("remove-shard") => return cmd_route_remove_shard(&Flags::parse(&argv[2..])?),
            _ => {}
        }
    }
    let flags = Flags::parse(&argv[1..])?;
    match command.as_str() {
        "generate" => cmd_generate(&flags),
        "cluster" => cmd_cluster(&flags),
        "compare" => cmd_compare(&flags),
        "evaluate" => cmd_evaluate(&flags),
        "serve" => cmd_serve(&flags),
        "route" => cmd_route(&flags),
        "submit" => cmd_submit(&flags),
        "poll" => cmd_poll(&flags),
        "health" => cmd_health(&flags),
        "loadgen" => cmd_loadgen(&flags),
        "help" | "--help" | "-h" => {
            println!("{HELP}");
            Ok(())
        }
        other => Err(Error::InvalidParameter(format!(
            "unknown subcommand `{other}`"
        ))),
    }
}

fn cmd_generate(flags: &Flags) -> Result<()> {
    flags.reject_unknown(&["out", "truth", "n", "d", "k", "dims", "outliers", "seed"])?;
    let out = flags.required("out")?;
    let truth_path = flags.required("truth")?;
    let config = GeneratorConfig {
        n: flags.parsed_or("n", 1000)?,
        d: flags.parsed_or("d", 100)?,
        k: flags.parsed_or("k", 5)?,
        avg_cluster_dims: flags.parsed_or("dims", 10)?,
        outlier_fraction: flags.parsed_or("outliers", 0.0)?,
        ..Default::default()
    };
    let seed = flags.parsed_or("seed", 1u64)?;
    let data = generate(&config, seed)?;

    let mut writer = buf_writer(out)?;
    write_delimited(&data.dataset, &mut writer, '\t')?;
    flush(writer, out)?;

    let mut writer = buf_writer(truth_path)?;
    write_labels(&mut writer, data.truth.assignment())?;
    flush(writer, truth_path)?;
    eprintln!(
        "wrote {}×{} dataset to {out}, labels to {truth_path}",
        config.n, config.d
    );
    Ok(())
}

fn cmd_cluster(flags: &Flags) -> Result<()> {
    flags.reject_unknown(&[
        "input",
        "algorithm",
        "k",
        "m",
        "p",
        "params",
        "labels",
        "runs",
        "seed",
        "threads",
        "out",
        "dims-out",
    ])?;
    apply_threads(flags)?;
    let input = flags.required("input")?;
    let k: usize = flags.parsed("k")?;
    let dataset = read_delimited(BufReader::new(open(input)?), '\t')?;

    let algorithm = flags.optional("algorithm").unwrap_or("sspc");
    let mut params = match flags.optional("params") {
        Some(spec) => ParamMap::parse(spec)?,
        None => ParamMap::default(),
    };
    // --m / --p are first-class shorthands for SSPC's threshold knob; the
    // registry rejects them for other algorithms and enforces exclusivity,
    // and `set_new` rejects the same key arriving via --params too.
    if let Some(m) = flags.optional("m") {
        params = params.set_new("m", m)?;
    }
    if let Some(p) = flags.optional("p") {
        params = params.set_new("p", p)?;
    }
    let clusterer = AnyClusterer::from_spec(algorithm, k, &params)?;

    let supervision = match flags.optional("labels") {
        Some(path) => read_supervision(path)?,
        None => Supervision::none(),
    };
    let runs: usize = flags.parsed_or("runs", 10)?;
    let seed: u64 = flags.parsed_or("seed", 1)?;

    let started = Instant::now();
    let outcome = best_of(&clusterer, &dataset, &supervision, runs, seed)?;
    let wall_seconds = started.elapsed().as_secs_f64();
    let best = outcome.best;

    match flags.optional("out") {
        Some(path) => {
            let mut writer = buf_writer(path)?;
            write_labels(&mut writer, best.assignment())?;
            flush(writer, path)?;
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            write_labels(&mut lock, best.assignment())
                .map_err(|e| Error::InvalidParameter(format!("stdout: {e}")))?;
        }
    }
    if let Some(path) = flags.optional("dims-out") {
        let mut writer = buf_writer(path)?;
        for c in 0..best.n_clusters() {
            let dims: Vec<String> = best
                .selected_dims(ClusterId(c))
                .iter()
                .map(|j| j.index().to_string())
                .collect();
            writeln!(writer, "{}", dims.join("\t"))
                .map_err(|e| Error::InvalidParameter(format!("{path}: {e}")))?;
        }
        flush(writer, path)?;
    }
    let iterations = match best.iterations() {
        Some(it) => format!(", {it} iterations"),
        None => String::new(),
    };
    // Restarts run in parallel, so their summed time can exceed the wall
    // time; print both, each labelled.
    eprintln!(
        "{algorithm}: objective {:.6} ({}), {} clusters, {} outliers{iterations}, \
         best of {} run(s) in {wall_seconds:.2}s wall ({:.2}s summed over runs)",
        best.objective(),
        sense_label(best.sense()),
        best.n_clusters(),
        best.n_outliers(),
        outcome.runs_executed,
        outcome.total_seconds,
    );
    Ok(())
}

fn cmd_compare(flags: &Flags) -> Result<()> {
    flags.reject_unknown(&[
        "input",
        "truth",
        "k",
        "algorithms",
        "runs",
        "seed",
        "threads",
        "labels",
        "params",
        "format",
    ])?;
    apply_threads(flags)?;
    let input = flags.required("input")?;
    let k: usize = flags.parsed("k")?;
    let dataset = read_delimited(BufReader::new(open(input)?), '\t')?;
    let truth = match flags.optional("truth") {
        Some(path) => Some(read_labels(path)?),
        None => None,
    };
    let supervision = match flags.optional("labels") {
        Some(path) => read_supervision(path)?,
        None => Supervision::none(),
    };

    let names: Vec<&str> = flags
        .optional("algorithms")
        .unwrap_or("sspc,proclus,clarans,harp,doc")
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    let scoped = match flags.optional("params") {
        Some(spec) => ParamMap::parse_scoped(spec)?,
        None => Default::default(),
    };
    // The shared roster builder (also used by the batch server and the
    // bench harness) validates names and rejects stray parameter scopes.
    let roster = AnyClusterer::roster(&names, k, &scoped)?;

    let runs: usize = flags.parsed_or("runs", 5)?;
    let seed: u64 = flags.parsed_or("seed", 1)?;
    let reports = compare_algorithms(
        &roster,
        &dataset,
        &supervision,
        truth.as_deref(),
        runs,
        seed,
    )?;

    match flags.optional("format").unwrap_or("text") {
        "text" => print_comparison_text(&reports, truth.is_some()),
        "json" => print_comparison_json(&reports),
        other => {
            return Err(Error::InvalidParameter(format!(
                "--format must be text or json, got `{other}`"
            )))
        }
    }
    Ok(())
}

fn cmd_evaluate(flags: &Flags) -> Result<()> {
    flags.reject_unknown(&["truth", "produced"])?;
    let truth = read_labels(flags.required("truth")?)?;
    let produced = read_labels(flags.required("produced")?)?;
    let e = evaluate_partition(&truth, &produced, OutlierPolicy::AsCluster)?;
    println!("ARI    {:.4}", e.ari);
    println!("NMI    {:.4}", e.nmi);
    println!("purity {:.4}", e.purity);
    Ok(())
}

// ---- the batch service -----------------------------------------------------

fn cmd_serve(flags: &Flags) -> Result<()> {
    flags.reject_unknown(&[
        "addr",
        "workers",
        "queue-cap",
        "max-conns",
        "max-backlog-seconds",
        "drain-timeout",
        "state-dir",
        "result-ttl",
        "max-jobs",
        "threads",
        "shard-id",
        "spool-dir",
    ])?;
    if flags.optional("state-dir").is_some() && flags.optional("spool-dir").is_some() {
        return Err(Error::InvalidParameter(
            "--state-dir and --spool-dir are exclusive: a shard journals to its \
             spool file, so give it --spool-dir alone"
                .into(),
        ));
    }
    apply_threads(flags)?;
    let workers = flags.parsed_or("workers", 2usize)?;
    if workers == 0 {
        return Err(Error::InvalidParameter(
            "--workers must be at least 1".into(),
        ));
    }
    let max_connections = flags.parsed_or("max-conns", 256usize)?;
    if max_connections == 0 {
        return Err(Error::InvalidParameter(
            "--max-conns must be at least 1".into(),
        ));
    }
    let max_backlog_seconds = match flags.optional("max-backlog-seconds") {
        None => None,
        Some(_) => {
            let seconds: f64 = flags.parsed("max-backlog-seconds")?;
            if !seconds.is_finite() || seconds <= 0.0 {
                return Err(Error::InvalidParameter(
                    "--max-backlog-seconds must be a positive number".into(),
                ));
            }
            Some(seconds)
        }
    };
    let drain_timeout = flags
        .seconds("drain-timeout", true)?
        .unwrap_or(Duration::from_secs(30));
    let result_ttl = flags.seconds("result-ttl", false)?;
    let max_jobs = match flags.optional("max-jobs") {
        None => None,
        Some(_) => {
            let n: usize = flags.parsed("max-jobs")?;
            if n == 0 {
                return Err(Error::InvalidParameter(
                    "--max-jobs must be at least 1".into(),
                ));
            }
            Some(n)
        }
    };
    let shard_id = flags.parsed_or("shard-id", 0u16)?;
    let spool_dir = flags.optional("spool-dir").map(std::path::PathBuf::from);
    let config = ServerConfig {
        addr: flags
            .optional("addr")
            .unwrap_or("127.0.0.1:7878")
            .to_string(),
        workers,
        queue_capacity: flags.parsed_or("queue-cap", 64usize)?,
        max_connections,
        max_backlog_seconds,
        state_dir: flags.optional("state-dir").map(std::path::PathBuf::from),
        result_ttl,
        max_jobs,
        shard_id,
        spool_dir,
    };
    // Arm the SIGTERM/SIGINT latch before the listener exists so there is
    // no window where a signal kills us without a drain.
    crate::signal::install();
    let server = Server::start(&config)?;
    let mut store = match (&config.spool_dir, &config.state_dir) {
        (Some(dir), _) => format!("journal at {}", spool_path(dir, shard_id).display()),
        (None, Some(dir)) => format!("journal at {}", dir.join("journal.jsonl").display()),
        (None, None) => "memory store".to_string(),
    };
    if config.shard_id != 0 || config.spool_dir.is_some() {
        store.push_str(&format!(", shard {}", config.shard_id));
    }
    eprintln!(
        "sspc-server listening on {} ({} workers, queue capacity {}, {store})",
        server.addr(),
        config.workers,
        config.queue_capacity
    );
    // Supervision loop: a signal flips the latch; everything else keeps
    // running inside the server's own threads.
    while !crate::signal::triggered() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!(
        "sspc-server caught a termination signal; draining (up to {:.0}s)",
        drain_timeout.as_secs_f64()
    );
    if server.drain(drain_timeout) {
        eprintln!("sspc-server drained cleanly");
        Ok(())
    } else {
        Err(Error::InvalidParameter(format!(
            "drain did not finish within {:.0}s; exiting with jobs still running \
             (a --state-dir or --spool-dir journal will re-run them on the next start)",
            drain_timeout.as_secs_f64()
        )))
    }
}

/// Parses the `--shards` roster: comma-separated `id=host:port` pairs.
fn parse_shards(spec: &str) -> Result<Vec<(u16, String)>> {
    let mut shards = Vec::new();
    for pair in spec.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let Some((id, addr)) = pair.split_once('=') else {
            return Err(Error::InvalidParameter(format!(
                "--shards: expected `id=host:port`, got `{pair}`"
            )));
        };
        let id: u16 = id.trim().parse().map_err(|_| {
            Error::InvalidParameter(format!(
                "--shards: shard id `{}` must be an integer in 0..=65535",
                id.trim()
            ))
        })?;
        let addr = addr.trim();
        if addr.is_empty() {
            return Err(Error::InvalidParameter(format!(
                "--shards: shard {id} has an empty address"
            )));
        }
        if shards.iter().any(|(seen, _)| *seen == id) {
            return Err(Error::InvalidParameter(format!(
                "--shards: shard id {id} appears twice"
            )));
        }
        shards.push((id, addr.to_string()));
    }
    if shards.is_empty() {
        return Err(Error::InvalidParameter(
            "--shards needs at least one `id=host:port` pair".into(),
        ));
    }
    Ok(shards)
}

fn cmd_route(flags: &Flags) -> Result<()> {
    flags.reject_unknown(&[
        "addr",
        "shards",
        "spool-dir",
        "probe-interval",
        "fail-after",
        "max-conns",
        "drain-timeout",
    ])?;
    let shards = parse_shards(flags.required("shards")?)?;
    let fail_after = flags.parsed_or("fail-after", 3u32)?;
    if fail_after == 0 {
        return Err(Error::InvalidParameter(
            "--fail-after must be at least 1".into(),
        ));
    }
    let max_connections = flags.parsed_or("max-conns", 256usize)?;
    if max_connections == 0 {
        return Err(Error::InvalidParameter(
            "--max-conns must be at least 1".into(),
        ));
    }
    let probe_interval = flags
        .seconds("probe-interval", false)?
        .unwrap_or(Duration::from_secs(1));
    let drain_timeout = flags
        .seconds("drain-timeout", true)?
        .unwrap_or(Duration::from_secs(30));
    let config = RouterConfig {
        addr: flags
            .optional("addr")
            .unwrap_or("127.0.0.1:7870")
            .to_string(),
        shards,
        spool_dir: flags.optional("spool-dir").map(std::path::PathBuf::from),
        probe_interval,
        fail_after,
        max_connections,
    };
    // Same drain discipline as `serve`: latch the signal before binding.
    crate::signal::install();
    let router = Router::start(&config)?;
    let failover = match &config.spool_dir {
        Some(dir) => format!("spool at {}", dir.display()),
        None => "no spool (failover disabled)".to_string(),
    };
    eprintln!(
        "sspc-router listening on {} ({} shards, {failover})",
        router.addr(),
        config.shards.len()
    );
    while !crate::signal::triggered() {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!(
        "sspc-router caught a termination signal; draining (up to {:.0}s)",
        drain_timeout.as_secs_f64()
    );
    if router.drain(drain_timeout) {
        eprintln!("sspc-router drained cleanly");
        Ok(())
    } else {
        Err(Error::InvalidParameter(format!(
            "drain did not finish within {:.0}s; exiting with clients still \
             connected (shards keep executing whatever was admitted)",
            drain_timeout.as_secs_f64()
        )))
    }
}

/// `route add-shard`: join a shard to a running router at runtime. The
/// router's join summary goes to stdout as JSON; a one-line
/// confirmation goes to stderr.
fn cmd_route_add_shard(flags: &Flags) -> Result<()> {
    flags.reject_unknown(&["addr", "shard", "shard-addr"])?;
    let router = flags.required("addr")?;
    let shard: u16 = flags.parsed("shard")?;
    let shard_addr = flags.required("shard-addr")?;
    let summary = client::Client::new(router).add_shard(shard, shard_addr)?;
    println!("{summary}");
    eprintln!("shard {shard} at {shard_addr} joined the ring");
    Ok(())
}

/// `route remove-shard`: remove a shard from a running router —
/// gracefully (its spool moved onto the survivors first) unless
/// `--dead true`.
fn cmd_route_remove_shard(flags: &Flags) -> Result<()> {
    flags.reject_unknown(&["addr", "shard", "dead"])?;
    let router = flags.required("addr")?;
    let shard: u16 = flags.parsed("shard")?;
    let dead = flags.parsed_or("dead", false)?;
    let summary = client::Client::new(router).remove_shard(shard, dead)?;
    println!("{summary}");
    if dead {
        eprintln!("shard {shard} removed dead: its spool was folded through failover");
    } else {
        eprintln!(
            "shard {shard} left gracefully: {} of {} planned records moved in {:.3}s",
            summary.get("moved").and_then(Value::as_u64).unwrap_or(0),
            summary.get("planned").and_then(Value::as_u64).unwrap_or(0),
            summary
                .get("handoff_seconds")
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
        );
    }
    Ok(())
}

fn cmd_loadgen(flags: &Flags) -> Result<()> {
    flags.reject_unknown(&[
        "addr",
        "jobs",
        "pattern",
        "rate",
        "burst-size",
        "burst-every-ms",
        "seed",
        "wait-timeout-sec",
        "out",
    ])?;
    let pattern = match flags.optional("pattern").unwrap_or("poisson") {
        "poisson" => loadgen::Pattern::Poisson {
            rate: flags.parsed_or("rate", 20.0f64)?,
        },
        "burst" => loadgen::Pattern::Burst {
            size: flags.parsed_or("burst-size", 10usize)?,
            every: Duration::from_millis(flags.parsed_or("burst-every-ms", 500u64)?),
        },
        other => {
            return Err(Error::InvalidParameter(format!(
                "--pattern must be poisson or burst, got `{other}`"
            )));
        }
    };
    let config = loadgen::LoadgenConfig {
        addr: flags.required("addr")?.to_string(),
        jobs: flags.parsed_or("jobs", 50usize)?,
        pattern,
        seed: flags.parsed_or("seed", 1u64)?,
        wait_timeout: Duration::from_secs(flags.parsed_or("wait-timeout-sec", 60u64)?),
        poll_every: Duration::from_millis(25),
    };
    let report = loadgen::run(&config)?;
    let record = report.to_value();
    println!("{record}");
    eprintln!(
        "loadgen: {}/{} acked ({:.1}/s), {} rejected, {} completed, {} failed, {} unfinished",
        report.acked.len(),
        report.attempted,
        report.acked_per_second,
        report.rejected_total(),
        report.completed,
        report.failed,
        report.unfinished.len(),
    );
    if let Some(path) = flags.optional("out") {
        use std::io::Write;
        let line = record
            .to_string_checked()
            .map_err(|e| Error::InvalidParameter(format!("serializing report: {e}")))?;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| Error::InvalidParameter(format!("--out {path}: {e}")))?;
        writeln!(file, "{line}")
            .map_err(|e| Error::InvalidParameter(format!("--out {path}: {e}")))?;
    }
    Ok(())
}

/// Builds the `dataset` member of a job from `--input` or `--generate`.
fn submit_dataset(flags: &Flags) -> Result<Value> {
    match (flags.optional("input"), flags.optional("generate")) {
        (Some(path), None) => {
            // Resolve to an absolute path so the job does not depend on the
            // server process's working directory (it still must be readable
            // from the server's filesystem).
            let absolute = std::fs::canonicalize(path)
                .map_err(|e| Error::InvalidParameter(format!("--input {path}: {e}")))?;
            Ok(Value::object().with("path", absolute.to_string_lossy().into_owned()))
        }
        (None, Some(spec)) => {
            let params = ParamMap::parse(spec)?;
            const KNOWN: [&str; 6] = ["n", "d", "k", "dims", "outliers", "seed"];
            if let Some(unknown) = params.keys().find(|key| !KNOWN.contains(key)) {
                return Err(Error::InvalidParameter(format!(
                    "--generate does not accept `{unknown}` (accepted: {})",
                    KNOWN.join(", ")
                )));
            }
            let mut generate = Value::object();
            for key in ["n", "d", "k", "dims", "seed"] {
                if let Some(v) = params.parsed_opt::<u64>(key)? {
                    generate = generate.with(key, v);
                }
            }
            if let Some(v) = params.parsed_opt::<f64>("outliers")? {
                generate = generate.with("outliers", v);
            }
            Ok(Value::object().with("generate", generate))
        }
        _ => Err(Error::InvalidParameter(
            "give exactly one of --input FILE or --generate \"n=...,d=...\"".into(),
        )),
    }
}

fn cmd_submit(flags: &Flags) -> Result<()> {
    flags.reject_unknown(&[
        "addr",
        "input",
        "generate",
        "type",
        "k",
        "algorithms",
        "params",
        "runs",
        "seed",
        "truth",
        "truth-path",
        "include-assignment",
        "timeout",
        "wait",
        "interval-ms",
        "timeout-sec",
    ])?;
    let addr = flags.required("addr")?;
    let k: u64 = flags.parsed("k")?;

    let mut job = Value::object()
        .with("k", k)
        .with("dataset", submit_dataset(flags)?)
        .with("runs", flags.parsed_or("runs", 5u64)?)
        .with("seed", flags.parsed_or("seed", 1u64)?);
    if flags.optional("timeout").is_some() {
        // Validation (positive, finite, Duration-representable) happens
        // server-side in JobSpec::from_json; the flag just ships the
        // number.
        job = job.with("timeout_secs", flags.parsed::<f64>("timeout")?);
    }
    let kind = flags.optional("type");
    if let Some(kind) = kind {
        job = job.with("type", kind);
    }
    // The compare default is the paper's roster; a cluster job takes
    // exactly one algorithm, so its default is SSPC alone.
    let default_algorithms = if kind == Some("cluster") {
        "sspc"
    } else {
        "sspc,proclus,clarans,harp,doc"
    };
    job = job.with(
        "algorithms",
        flags.optional("algorithms").unwrap_or(default_algorithms),
    );
    if let Some(params) = flags.optional("params") {
        job = job.with("params", params);
    }
    if flags.parsed_or("truth", false)? {
        job = job.with("truth", true);
    }
    if let Some(path) = flags.optional("truth-path") {
        let absolute = std::fs::canonicalize(path)
            .map_err(|e| Error::InvalidParameter(format!("--truth-path {path}: {e}")))?;
        job = job.with("truth_path", absolute.to_string_lossy().into_owned());
    }
    if flags.optional("include-assignment").is_some() {
        job = job.with(
            "include_assignment",
            flags.parsed::<bool>("include-assignment")?,
        );
    }

    // One keep-alive client carries the submission AND the whole polling
    // loop — one TCP connect for the entire `submit --wait`.
    let mut client = client::Client::new(addr);
    let id = client.submit(&job)?;
    eprintln!("job {id} submitted to {addr}");
    if flags.parsed_or("wait", false)? {
        print_job(wait_flags(flags, &mut client, id)?)
    } else {
        println!("{id}");
        Ok(())
    }
}

fn cmd_poll(flags: &Flags) -> Result<()> {
    flags.reject_unknown(&[
        "addr",
        "job",
        "list",
        "status",
        "limit",
        "wait",
        "interval-ms",
        "timeout-sec",
    ])?;
    let addr = flags.required("addr")?;
    let mut client = client::Client::new(addr);
    if flags.parsed_or("list", false)? {
        if flags.optional("job").is_some() {
            return Err(Error::InvalidParameter(
                "give either --job ID or --list true, not both".into(),
            ));
        }
        let limit = match flags.optional("limit") {
            None => None,
            Some(_) => Some(flags.parsed::<usize>("limit")?),
        };
        println!("{}", client.list_jobs(flags.optional("status"), limit)?);
        return Ok(());
    }
    let id: u64 = flags.parsed("job")?;
    let status = if flags.parsed_or("wait", false)? {
        wait_flags(flags, &mut client, id)?
    } else {
        client.job_status(id)?
    };
    print_job(status)
}

fn cmd_health(flags: &Flags) -> Result<()> {
    flags.reject_unknown(&["addr"])?;
    let health = client::healthz(flags.required("addr")?)?;
    // Raw JSON on stdout (scripts and CI grep it); the summary goes to
    // stderr like every other human-facing line. A router answer gets a
    // per-shard table after the fleet summary — still stderr-only.
    println!("{health}");
    eprintln!("{}", health_summary(&health));
    if let Some(table) = shard_table(&health) {
        eprintln!("{table}");
    }
    Ok(())
}

/// One human-readable line from the `/healthz` document: overall status
/// (draining included), queue pressure, connection occupancy, worker
/// liveness, job outcomes, the failure-domain counters, and the latency
/// percentiles added for overload observability. A router document (it
/// carries a `router` section) summarizes the fleet instead.
fn health_summary(health: &Value) -> String {
    if health.get("router").is_some() {
        return router_summary(health);
    }
    single_node_summary(health)
}

fn single_node_summary(health: &Value) -> String {
    let str_at = |keys: &[&str]| -> &str {
        let mut v = Some(health);
        for k in keys {
            v = v.and_then(|v| v.get(k));
        }
        v.and_then(Value::as_str).unwrap_or("?")
    };
    let num_at = |keys: &[&str]| -> u64 {
        let mut v = Some(health);
        for k in keys {
            v = v.and_then(|v| v.get(k));
        }
        v.and_then(Value::as_u64).unwrap_or(0)
    };
    let ms_at = |keys: &[&str]| -> f64 {
        let mut v = Some(health);
        for k in keys {
            v = v.and_then(|v| v.get(k));
        }
        v.and_then(Value::as_f64).unwrap_or(0.0)
    };
    let mut line = format!(
        "status {}: queue {}/{}, conns {}/{}, workers {}/{} alive, \
         {} completed, {} failed ({} panicked, {} past deadline), \
         queue-wait p50/p99 {:.1}/{:.1}ms, job p50/p99 {:.1}/{:.1}ms",
        str_at(&["status"]),
        num_at(&["queue", "depth"]),
        num_at(&["queue", "capacity"]),
        num_at(&["connections_active"]),
        num_at(&["connections_limit"]),
        num_at(&["workers_alive"]),
        num_at(&["workers"]),
        num_at(&["jobs", "completed"]),
        num_at(&["jobs", "failed"]),
        num_at(&["jobs_panicked"]),
        num_at(&["jobs_deadline_exceeded"]),
        ms_at(&["latency", "queue_wait", "p50_ms"]),
        ms_at(&["latency", "queue_wait", "p99_ms"]),
        ms_at(&["latency", "job", "p50_ms"]),
        ms_at(&["latency", "job", "p99_ms"]),
    );
    if str_at(&["status"]) == "draining" {
        line.push_str("; DRAINING (refusing new jobs, finishing admitted ones)");
    }
    if health.get("store_degraded").and_then(Value::as_bool) == Some(true) {
        line.push_str("; STORE DEGRADED (read-only; restart to recover)");
    }
    line
}

/// The fleet-level summary line for a router `/healthz` document.
fn router_summary(health: &Value) -> String {
    let num = |keys: &[&str]| -> u64 {
        let mut v = Some(health);
        for k in keys {
            v = v.and_then(|v| v.get(k));
        }
        v.and_then(Value::as_u64).unwrap_or(0)
    };
    let ms = |keys: &[&str]| -> f64 {
        let mut v = Some(health);
        for k in keys {
            v = v.and_then(|v| v.get(k));
        }
        v.and_then(Value::as_f64).unwrap_or(0.0)
    };
    let status = health.get("status").and_then(Value::as_str).unwrap_or("?");
    let mut line = format!(
        "status {status}: {}/{} shards alive, queue {}/{}, \
         {} completed, {} failed, routed {}, shed {}, \
         {} failovers ({} jobs replayed, {} owed), \
         job p50/p99 {:.1}/{:.1}ms",
        num(&["router", "shards_alive"]),
        num(&["router", "shards"]),
        num(&["queue", "depth"]),
        num(&["queue", "capacity"]),
        num(&["jobs", "completed"]),
        num(&["jobs", "failed"]),
        num(&["router", "routed"]),
        num(&["router", "shed"]),
        num(&["router", "failovers"]),
        num(&["router", "replayed_jobs"]),
        num(&["router", "owed_jobs"]),
        ms(&["latency", "job", "p50_ms"]),
        ms(&["latency", "job", "p99_ms"]),
    );
    if status == "draining" {
        line.push_str("; DRAINING (refusing new jobs, finishing admitted ones)");
    }
    line
}

/// The per-shard table for a router `/healthz` document — `None` for a
/// single-node answer (no `router`/`shards` sections). One row per
/// shard: membership state (`active`/`leaving`/`down`),
/// status, connection occupancy, queue depth, job p99.
fn shard_table(health: &Value) -> Option<String> {
    health.get("router")?;
    let shards = health.get("shards").and_then(Value::as_object)?;
    let mut rows: Vec<(u16, &Value)> = shards
        .iter()
        .filter_map(|(id, doc)| Some((id.parse::<u16>().ok()?, doc)))
        .collect();
    rows.sort_unstable_by_key(|(id, _)| *id);
    let mut table = vec![vec![
        "shard".to_string(),
        "membership".to_string(),
        "status".to_string(),
        "conns".to_string(),
        "queue".to_string(),
        "job p99".to_string(),
    ]];
    for (id, doc) in rows {
        let num = |keys: &[&str]| -> Option<u64> {
            let mut v = Some(doc);
            for k in keys {
                v = v.and_then(|v| v.get(k));
            }
            v.and_then(Value::as_u64)
        };
        let status = doc.get("status").and_then(Value::as_str).unwrap_or("?");
        let membership = doc.get("membership").and_then(Value::as_str).unwrap_or("?");
        // An unreachable shard has no gauges; dash its columns rather
        // than rendering misleading zeros.
        let reachable = doc.get("reachable").and_then(Value::as_bool) != Some(false);
        let (conns, queue, p99) = if reachable {
            (
                format!(
                    "{}/{}",
                    num(&["connections_active"]).unwrap_or(0),
                    num(&["connections_limit"]).unwrap_or(0)
                ),
                format!(
                    "{}/{}",
                    num(&["queue", "depth"]).unwrap_or(0),
                    num(&["queue", "capacity"]).unwrap_or(0)
                ),
                format!(
                    "{:.1}ms",
                    doc.get("latency")
                        .and_then(|l| l.get("job"))
                        .and_then(|j| j.get("p99_ms"))
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0)
                ),
            )
        } else {
            ("-".to_string(), "-".to_string(), "-".to_string())
        };
        table.push(vec![
            id.to_string(),
            membership.to_string(),
            status.to_string(),
            conns,
            queue,
            p99,
        ]);
    }
    let widths: Vec<usize> = (0..table[0].len())
        .map(|c| table.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    let lines: Vec<String> = table
        .iter()
        .map(|row| {
            row.iter()
                .zip(&widths)
                .map(|(cell, w)| format!("{cell:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        })
        .collect();
    Some(lines.join("\n"))
}

/// Polls the job per the `--interval-ms`/`--timeout-sec` flags, reusing
/// the given keep-alive client.
fn wait_flags(flags: &Flags, client: &mut client::Client, id: u64) -> Result<Value> {
    client.wait_for(
        id,
        Duration::from_millis(flags.parsed_or("interval-ms", 250u64)?),
        Duration::from_secs(flags.parsed_or("timeout-sec", 600u64)?),
    )
}

/// Prints the job document; a failed job becomes this process's error.
fn print_job(status: Value) -> Result<()> {
    if status.get("status").and_then(Value::as_str) == Some("failed") {
        return Err(Error::InvalidParameter(format!(
            "job {} failed: {}",
            status.get("job").and_then(Value::as_u64).unwrap_or(0),
            status.get("error").and_then(Value::as_str).unwrap_or("?")
        )));
    }
    println!("{status}");
    Ok(())
}

// ---- comparison rendering --------------------------------------------------

fn sense_label(sense: ObjectiveSense) -> &'static str {
    match sense {
        ObjectiveSense::HigherIsBetter => "max",
        ObjectiveSense::LowerIsBetter => "min",
    }
}

/// Prints one aligned row per algorithm; metric columns appear only when a
/// ground truth was supplied.
fn print_comparison_text(reports: &[AlgorithmReport], with_truth: bool) {
    let mut header = vec![
        "algorithm".to_string(),
        "objective".to_string(),
        "clusters".to_string(),
        "outliers".to_string(),
        "runs".to_string(),
        "seconds".to_string(),
    ];
    if with_truth {
        header.extend(["ARI".to_string(), "NMI".to_string(), "purity".to_string()]);
    }
    let mut rows = vec![header];
    for r in reports {
        let mut row = vec![
            r.algorithm.clone(),
            format!(
                "{:.4} ({})",
                r.best.objective(),
                sense_label(r.best.sense())
            ),
            r.best.n_clusters().to_string(),
            r.best.n_outliers().to_string(),
            r.runs_executed.to_string(),
            format!("{:.2}", r.total_seconds),
        ];
        if with_truth {
            match r.evaluation {
                Some(e) => row.extend([
                    format!("{:.4}", e.ari),
                    format!("{:.4}", e.nmi),
                    format!("{:.4}", e.purity),
                ]),
                None => row.extend(["-".into(), "-".into(), "-".into()]),
            }
        }
        rows.push(row);
    }
    let n_cols = rows[0].len();
    let widths: Vec<usize> = (0..n_cols)
        .map(|c| rows.iter().map(|r| r[c].len()).max().unwrap_or(0))
        .collect();
    for row in &rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .enumerate()
            .map(|(c, (cell, w))| {
                // Left-align the name column, right-align the numbers.
                if c == 0 {
                    format!("{cell:<w$}")
                } else {
                    format!("{cell:>w$}")
                }
            })
            .collect();
        println!("{}", line.join("  ").trim_end());
    }
}

/// A JSON number (or `null` for non-finite values, which bare JSON cannot
/// represent).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn print_comparison_json(reports: &[AlgorithmReport]) {
    let entries: Vec<String> = reports
        .iter()
        .map(|r| {
            let mut fields = vec![
                format!("\"algorithm\":{:?}", r.algorithm),
                format!("\"objective\":{}", json_num(r.best.objective())),
                format!(
                    "\"sense\":\"{}\"",
                    match r.best.sense() {
                        ObjectiveSense::HigherIsBetter => "higher_is_better",
                        ObjectiveSense::LowerIsBetter => "lower_is_better",
                    }
                ),
                format!("\"clusters\":{}", r.best.n_clusters()),
                format!("\"outliers\":{}", r.best.n_outliers()),
                format!("\"runs\":{}", r.runs_executed),
                format!("\"seconds\":{}", json_num(r.total_seconds)),
            ];
            if let Some(it) = r.best.iterations() {
                fields.push(format!("\"iterations\":{it}"));
            }
            if let Some(e) = r.evaluation {
                fields.push(format!("\"ari\":{}", json_num(e.ari)));
                fields.push(format!("\"nmi\":{}", json_num(e.nmi)));
                fields.push(format!("\"purity\":{}", json_num(e.purity)));
            }
            format!("{{{}}}", fields.join(","))
        })
        .collect();
    println!("[{}]", entries.join(","));
}

// ---- flags shared by cluster and compare -----------------------------------

/// Maps `--threads N` onto `SSPC_NUM_THREADS`, the process-wide thread
/// budget the deterministic parallel helpers in `sspc_common::parallel`
/// resolve their worker count from. Results are bit-identical at any
/// thread count, so this is purely a speed dial.
fn apply_threads(flags: &Flags) -> Result<()> {
    if let Some(raw) = flags.optional("threads") {
        let n: usize = raw
            .parse()
            .map_err(|_| Error::InvalidParameter(format!("--threads: cannot parse `{raw}`")))?;
        if n == 0 {
            return Err(Error::InvalidParameter(
                "--threads must be at least 1".into(),
            ));
        }
        std::env::set_var("SSPC_NUM_THREADS", n.to_string());
    }
    Ok(())
}

// ---- label and supervision file formats -----------------------------------

/// Writes one label per line: the cluster index or `-` (the shared
/// workspace format from `sspc_common::io`).
fn write_labels<W: Write>(writer: &mut W, labels: &[Option<ClusterId>]) -> Result<()> {
    sspc_common::io::write_labels(writer, labels)
}

fn read_labels(path: &str) -> Result<Vec<Option<ClusterId>>> {
    sspc_common::io::read_labels(BufReader::new(open(path)?), path)
}

/// Supervision file: lines `o <object-id> <class>` / `d <dim-id> <class>`.
fn read_supervision(path: &str) -> Result<Supervision> {
    let reader = BufReader::new(open(path)?);
    let mut supervision = Supervision::none();
    for (no, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| Error::InvalidParameter(format!("{path}: {e}")))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = t.split_whitespace().collect();
        let bad = || {
            Error::InvalidSupervision(format!(
                "{path}:{}: expected `o|d <id> <class>`, got `{t}`",
                no + 1
            ))
        };
        if fields.len() != 3 {
            return Err(bad());
        }
        let id: usize = fields[1].parse().map_err(|_| bad())?;
        let class: usize = fields[2].parse().map_err(|_| bad())?;
        supervision = match fields[0] {
            "o" => supervision.label_object(ObjectId(id), ClusterId(class)),
            "d" => supervision.label_dim(DimId(id), ClusterId(class)),
            _ => return Err(bad()),
        };
    }
    Ok(supervision)
}

// ---- small I/O helpers -----------------------------------------------------

fn open(path: &str) -> Result<File> {
    File::open(Path::new(path))
        .map_err(|e| Error::InvalidParameter(format!("cannot open {path}: {e}")))
}

fn buf_writer(path: &str) -> Result<BufWriter<File>> {
    File::create(Path::new(path))
        .map(BufWriter::new)
        .map_err(|e| Error::InvalidParameter(format!("cannot create {path}: {e}")))
}

fn flush(mut writer: BufWriter<File>, path: &str) -> Result<()> {
    writer
        .flush()
        .map_err(|e| Error::InvalidParameter(format!("cannot flush {path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sspc_api::registry::ALGORITHMS;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> String {
        let mut p: PathBuf = std::env::temp_dir();
        p.push(format!("sspc_cli_test_{}_{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn help_and_unknown_commands() {
        dispatch(&[]).unwrap();
        dispatch(&["help".into()]).unwrap();
        assert!(dispatch(&["frobnicate".into()]).is_err());
    }

    /// `generate → cluster --algorithm X → evaluate` for SSPC and two
    /// baselines, all through the registry path.
    #[test]
    fn generate_cluster_evaluate_roundtrip_per_algorithm() {
        let data = temp_path("data.tsv");
        let truth = temp_path("truth.tsv");

        dispatch(&argv(&[
            "generate", "--out", &data, "--truth", &truth, "--n", "120", "--d", "20", "--k", "3",
            "--dims", "6", "--seed", "7",
        ]))
        .unwrap();

        for (algorithm, extra) in [
            ("sspc", &["--m", "0.5"][..]),
            ("proclus", &["--params", "l=6"][..]),
            ("clarans", &[][..]),
        ] {
            let out = temp_path(&format!("{algorithm}_out.tsv"));
            let dims = temp_path(&format!("{algorithm}_dims.tsv"));
            let mut args = argv(&[
                "cluster",
                "--input",
                &data,
                "--algorithm",
                algorithm,
                "--k",
                "3",
                "--runs",
                "2",
                "--seed",
                "2",
                "--out",
                &out,
                "--dims-out",
                &dims,
            ]);
            args.extend(extra.iter().map(|s| s.to_string()));
            dispatch(&args).unwrap();
            dispatch(&argv(&["evaluate", "--truth", &truth, "--produced", &out])).unwrap();

            let labels = read_labels(&out).unwrap();
            assert_eq!(labels.len(), 120, "{algorithm} label count");
            let dim_lines = std::fs::read_to_string(&dims).unwrap();
            assert_eq!(dim_lines.lines().count(), 3, "{algorithm} dims lines");
            for p in [out, dims] {
                let _ = std::fs::remove_file(p);
            }
        }
        for p in [data, truth] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn cluster_rejects_unknown_algorithm_naming_the_options() {
        let data = temp_path("unknown_alg.tsv");
        std::fs::write(&data, "1\t2\n3\t4\n5\t6\n7\t8\n").unwrap();
        let err = dispatch(&argv(&[
            "cluster",
            "--input",
            &data,
            "--k",
            "2",
            "--algorithm",
            "kmeans",
        ]))
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown algorithm `kmeans`"), "{msg}");
        for name in ALGORITHMS {
            assert!(msg.contains(name), "{msg} should list {name}");
        }
        let _ = std::fs::remove_file(data);
    }

    #[test]
    fn cluster_rejects_conflicting_thresholds() {
        let data = temp_path("conflict.tsv");
        std::fs::write(&data, "1\t2\n3\t4\n5\t6\n7\t8\n").unwrap();
        assert!(dispatch(&argv(&[
            "cluster", "--input", &data, "--k", "2", "--m", "0.5", "--p", "0.05",
        ]))
        .is_err());
        // The same key arriving as a flag *and* inside --params is a
        // conflict, not a silent overwrite.
        assert!(dispatch(&argv(&[
            "cluster", "--input", &data, "--k", "2", "--m", "0.5", "--params", "m=0.3",
        ]))
        .is_err());
        let _ = std::fs::remove_file(data);
    }

    #[test]
    fn threads_flag_validates_and_sets_env() {
        let data = temp_path("threads.tsv");
        std::fs::write(&data, "1\t2\n3\t4\n5\t6\n7\t8\n").unwrap();
        // Invalid values fail before any clustering happens.
        for bad in ["0", "many"] {
            assert!(dispatch(&argv(&[
                "cluster",
                "--input",
                &data,
                "--k",
                "2",
                "--threads",
                bad,
            ]))
            .is_err());
        }
        let flags = Flags::parse(&argv(&["--threads", "2"])).unwrap();
        apply_threads(&flags).unwrap();
        assert_eq!(std::env::var("SSPC_NUM_THREADS").unwrap(), "2");
        std::env::remove_var("SSPC_NUM_THREADS");
        let _ = std::fs::remove_file(data);
    }

    #[test]
    fn compare_produces_rows_and_json() {
        let data = temp_path("cmp_data.tsv");
        let truth = temp_path("cmp_truth.tsv");
        dispatch(&argv(&[
            "generate", "--out", &data, "--truth", &truth, "--n", "90", "--d", "12", "--k", "2",
            "--dims", "4", "--seed", "5",
        ]))
        .unwrap();

        for format in ["text", "json"] {
            dispatch(&argv(&[
                "compare",
                "--input",
                &data,
                "--truth",
                &truth,
                "--k",
                "2",
                "--algorithms",
                "sspc,clarans,harp",
                "--runs",
                "2",
                "--seed",
                "3",
                "--params",
                "clarans.num-local=1",
                "--format",
                format,
            ]))
            .unwrap();
        }
        // Truth-free comparison and format validation.
        dispatch(&argv(&[
            "compare",
            "--input",
            &data,
            "--k",
            "2",
            "--algorithms",
            "clarans",
            "--runs",
            "1",
        ]))
        .unwrap();
        assert!(dispatch(&argv(&[
            "compare", "--input", &data, "--k", "2", "--format", "xml",
        ]))
        .is_err());
        // Scoped params must name algorithms that are actually in the run.
        assert!(dispatch(&argv(&[
            "compare",
            "--input",
            &data,
            "--k",
            "2",
            "--algorithms",
            "clarans",
            "--params",
            "doc.w=2.0",
        ]))
        .is_err());

        for p in [data, truth] {
            let _ = std::fs::remove_file(p);
        }
    }

    /// `submit --wait` / `poll` / `health` against a real in-process
    /// service; also the client-side validation paths.
    #[test]
    fn submit_poll_health_against_a_live_service() {
        let server = Server::start(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 8,
            ..Default::default()
        })
        .unwrap();
        let addr = server.addr().to_string();

        dispatch(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--k",
            "2",
            "--generate",
            "n=60,d=8,dims=4,seed=3",
            "--algorithms",
            "clarans,harp",
            "--runs",
            "2",
            "--truth",
            "true",
            "--wait",
            "true",
            "--interval-ms",
            "20",
        ]))
        .unwrap();

        // The waited job is job 1; poll sees its final state.
        dispatch(&argv(&["poll", "--addr", &addr, "--job", "1"])).unwrap();
        dispatch(&argv(&["health", "--addr", &addr])).unwrap();

        // The listing mode: filtered, capped, and exclusive with --job.
        dispatch(&argv(&["poll", "--addr", &addr, "--list", "true"])).unwrap();
        dispatch(&argv(&[
            "poll", "--addr", &addr, "--list", "true", "--status", "done", "--limit", "1",
        ]))
        .unwrap();
        assert!(dispatch(&argv(&[
            "poll", "--addr", &addr, "--list", "true", "--job", "1",
        ]))
        .is_err());
        assert!(dispatch(&argv(&[
            "poll", "--addr", &addr, "--list", "true", "--status", "bogus",
        ]))
        .is_err());

        // Unknown job ids and client-side validation failures error out.
        assert!(dispatch(&argv(&["poll", "--addr", &addr, "--job", "99"])).is_err());
        assert!(dispatch(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--k",
            "2",
            "--generate",
            "n=60,bogus=1",
        ]))
        .is_err());
        assert!(dispatch(&argv(&["submit", "--addr", &addr, "--k", "2"])).is_err());
        assert!(dispatch(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--k",
            "2",
            "--generate",
            "n=60,d=8,dims=4",
            "--input",
            "also-a-file.tsv",
        ]))
        .is_err());

        // A cluster job without --algorithms defaults to SSPC alone (the
        // 5-name compare default would be rejected server-side).
        dispatch(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--k",
            "2",
            "--generate",
            "n=60,d=8,dims=4,seed=3",
            "--type",
            "cluster",
            "--runs",
            "1",
            "--wait",
            "true",
            "--interval-ms",
            "20",
        ]))
        .unwrap();

        // A job that fails server-side surfaces as a CLI error on --wait.
        assert!(dispatch(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--k",
            "2",
            "--generate",
            "n=60,d=8,dims=4",
            "--algorithms",
            "kmeans",
            "--wait",
            "true",
            "--interval-ms",
            "20",
        ]))
        .is_err());
        server.shutdown();
    }

    #[test]
    fn health_summary_renders_counters_and_degraded_flag() {
        let health = Value::object()
            .with("status", "degraded")
            .with("workers", 2u64)
            .with("workers_alive", 1u64)
            .with(
                "queue",
                Value::object().with("depth", 3u64).with("capacity", 64u64),
            )
            .with(
                "jobs",
                Value::object().with("completed", 5u64).with("failed", 2u64),
            )
            .with("jobs_panicked", 1u64)
            .with("jobs_deadline_exceeded", 1u64)
            .with("connections_active", 4u64)
            .with("connections_limit", 256u64)
            .with(
                "latency",
                Value::object()
                    .with(
                        "queue_wait",
                        Value::object().with("p50_ms", 1.5).with("p99_ms", 9.0),
                    )
                    .with(
                        "job",
                        Value::object().with("p50_ms", 20.0).with("p99_ms", 80.5),
                    ),
            )
            .with("store_degraded", true);
        let line = health_summary(&health);
        assert!(line.contains("status degraded"), "{line}");
        assert!(line.contains("queue 3/64"), "{line}");
        assert!(line.contains("conns 4/256"), "{line}");
        assert!(line.contains("workers 1/2 alive"), "{line}");
        assert!(line.contains("5 completed"), "{line}");
        assert!(
            line.contains("2 failed (1 panicked, 1 past deadline)"),
            "{line}"
        );
        assert!(line.contains("queue-wait p50/p99 1.5/9.0ms"), "{line}");
        assert!(line.contains("job p50/p99 20.0/80.5ms"), "{line}");
        assert!(line.contains("STORE DEGRADED"), "{line}");
        // A healthy doc omits the degraded and draining suffixes.
        let ok = health_summary(&Value::object().with("status", "ok"));
        assert!(!ok.contains("DEGRADED"), "{ok}");
        assert!(!ok.contains("DRAINING"), "{ok}");
        // A draining doc announces it loudly.
        let draining = health_summary(&Value::object().with("status", "draining"));
        assert!(draining.contains("DRAINING"), "{draining}");
    }

    /// A router /healthz document flips the summary to fleet form and
    /// grows a per-shard table; a single-node document gets no table.
    #[test]
    fn router_health_renders_fleet_summary_and_shard_table() {
        let shard_ok = Value::object()
            .with("status", "ok")
            .with("membership", "active")
            .with("connections_active", 1u64)
            .with("connections_limit", 256u64)
            .with(
                "queue",
                Value::object().with("depth", 2u64).with("capacity", 64u64),
            )
            .with(
                "latency",
                Value::object().with("job", Value::object().with("p99_ms", 42.5)),
            );
        let shard_down = Value::object()
            .with("status", "down")
            .with("membership", "down")
            .with("reachable", false)
            .with("addr", "127.0.0.1:9999");
        let health = Value::object()
            .with("status", "degraded")
            .with(
                "router",
                Value::object()
                    .with("shards", 2u64)
                    .with("shards_alive", 1u64)
                    .with("routed", 9u64)
                    .with("shed", 1u64)
                    .with("failovers", 1u64)
                    .with("replayed_jobs", 3u64)
                    .with("owed_jobs", 2u64),
            )
            .with(
                "shards",
                Value::object().with("0", shard_ok).with("1", shard_down),
            )
            .with(
                "jobs",
                Value::object().with("completed", 7u64).with("failed", 1u64),
            )
            .with(
                "queue",
                Value::object().with("depth", 2u64).with("capacity", 64u64),
            )
            .with(
                "latency",
                Value::object().with(
                    "job",
                    Value::object().with("p50_ms", 10.0).with("p99_ms", 42.5),
                ),
            );
        let line = health_summary(&health);
        assert!(line.contains("status degraded"), "{line}");
        assert!(line.contains("1/2 shards alive"), "{line}");
        assert!(line.contains("routed 9"), "{line}");
        assert!(line.contains("shed 1"), "{line}");
        assert!(
            line.contains("1 failovers (3 jobs replayed, 2 owed)"),
            "{line}"
        );
        assert!(line.contains("job p50/p99 10.0/42.5ms"), "{line}");

        let table = shard_table(&health).unwrap();
        let rows: Vec<&str> = table.lines().collect();
        assert_eq!(rows.len(), 3, "{table}");
        assert!(
            rows[0].starts_with("shard") && rows[0].contains("membership"),
            "{table}"
        );
        assert!(
            rows[1].contains("active") && rows[1].contains("ok") && rows[1].contains("1/256"),
            "{table}"
        );
        assert!(
            rows[1].contains("2/64") && rows[1].contains("42.5ms"),
            "{table}"
        );
        assert!(rows[2].contains("down") && rows[2].contains('-'), "{table}");

        // Single-node documents keep the old summary and get no table.
        let single = Value::object().with("status", "ok");
        assert!(health_summary(&single).contains("workers"), "no fleet form");
        assert!(shard_table(&single).is_none());
    }

    /// `route` flag validation fails before any socket binds.
    #[test]
    fn route_validates_flags() {
        for bad in [
            &["route"][..], // --shards is required
            &["route", "--shards", ""][..],
            &["route", "--shards", "0"][..],
            &["route", "--shards", "zero=127.0.0.1:7878"][..],
            &["route", "--shards", "0="][..],
            &["route", "--shards", "0=a,0=b", "--addr", "127.0.0.1:0"][..],
            &["route", "--shards", "0=127.0.0.1:1", "--fail-after", "0"][..],
            &["route", "--shards", "0=127.0.0.1:1", "--max-conns", "0"][..],
            &[
                "route",
                "--shards",
                "0=127.0.0.1:1",
                "--probe-interval",
                "0",
            ][..],
            &[
                "route",
                "--shards",
                "0=127.0.0.1:1",
                "--probe-interval",
                "-1",
            ][..],
            &[
                "route",
                "--shards",
                "0=127.0.0.1:1",
                "--drain-timeout",
                "-5",
            ][..],
            // The admin verbs validate their flags before any socket work.
            &["route", "add-shard", "--addr", "127.0.0.1:1"][..],
            &["route", "add-shard", "--shard", "2", "--shard-addr", "a:1"][..],
            &[
                "route",
                "add-shard",
                "--addr",
                "127.0.0.1:1",
                "--shard",
                "two",
                "--shard-addr",
                "a:1",
            ][..],
            &["route", "remove-shard", "--addr", "127.0.0.1:1"][..],
            &[
                "route",
                "remove-shard",
                "--addr",
                "127.0.0.1:1",
                "--shard",
                "1",
                "--mode",
                "dead",
            ][..],
        ] {
            assert!(dispatch(&argv(bad)).is_err(), "{bad:?} should be rejected");
        }
        let roster = parse_shards(" 0 = 127.0.0.1:7871 , 1=127.0.0.1:7872 ,").unwrap();
        assert_eq!(
            roster,
            vec![(0, "127.0.0.1:7871".into()), (1, "127.0.0.1:7872".into())]
        );
    }

    /// `submit`/`poll`/`health` through a live router over two shards:
    /// the CLI is oblivious to sharding (same flags, same outputs).
    #[test]
    fn cli_commands_work_through_a_router() {
        let a = Server::start(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 8,
            shard_id: 0,
            ..Default::default()
        })
        .unwrap();
        let b = Server::start(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 8,
            shard_id: 1,
            ..Default::default()
        })
        .unwrap();
        let router = Router::start(&RouterConfig {
            addr: "127.0.0.1:0".into(),
            shards: vec![(0, a.addr().to_string()), (1, b.addr().to_string())],
            ..Default::default()
        })
        .unwrap();
        let addr = router.addr().to_string();

        dispatch(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--k",
            "2",
            "--generate",
            "n=40,d=6,dims=3,seed=2",
            "--algorithms",
            "harp",
            "--runs",
            "1",
            "--wait",
            "true",
            "--interval-ms",
            "20",
        ]))
        .unwrap();
        dispatch(&argv(&["poll", "--addr", &addr, "--list", "true"])).unwrap();
        dispatch(&argv(&["health", "--addr", &addr])).unwrap();

        // Membership from the shell: join a third shard at runtime, then
        // remove it again (dead mode — this roster has no spool).
        let c = Server::start(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 8,
            shard_id: 2,
            ..Default::default()
        })
        .unwrap();
        dispatch(&argv(&[
            "route",
            "add-shard",
            "--addr",
            &addr,
            "--shard",
            "2",
            "--shard-addr",
            &c.addr().to_string(),
        ]))
        .unwrap();
        let health = client::healthz(&addr).unwrap();
        assert_eq!(
            health
                .get("shards")
                .and_then(Value::as_object)
                .map(std::collections::BTreeMap::len),
            Some(3),
            "the joiner shows up in /healthz: {health}"
        );
        dispatch(&argv(&[
            "route",
            "remove-shard",
            "--addr",
            &addr,
            "--shard",
            "2",
            "--dead",
            "true",
        ]))
        .unwrap();
        c.shutdown();
        router.shutdown();
        a.shutdown();
        b.shutdown();
    }

    /// The new serve overload flags validate before anything binds.
    #[test]
    fn serve_validates_overload_flags() {
        for bad in [
            &["serve", "--max-conns", "0"][..],
            &["serve", "--max-conns", "lots"][..],
            &["serve", "--max-backlog-seconds", "0"][..],
            &["serve", "--max-backlog-seconds", "-1"][..],
            &["serve", "--drain-timeout", "-5"][..],
            &["serve", "--drain-timeout", "soon"][..],
        ] {
            assert!(dispatch(&argv(bad)).is_err(), "{bad:?} should be rejected");
        }
    }

    /// `loadgen` flag validation: bad patterns and rates fail before any
    /// socket work.
    #[test]
    fn loadgen_validates_flags() {
        for bad in [
            &["loadgen", "--addr", "127.0.0.1:1", "--pattern", "steady"][..],
            &["loadgen", "--addr", "127.0.0.1:1", "--rate", "0"][..],
            &[
                "loadgen",
                "--addr",
                "127.0.0.1:1",
                "--pattern",
                "burst",
                "--burst-size",
                "0",
            ][..],
        ] {
            assert!(dispatch(&argv(bad)).is_err(), "{bad:?} should be rejected");
        }
    }

    /// `loadgen` against a live service: the report JSON lands on stdout
    /// is exercised by `run` directly here (stdout capture in-process),
    /// and `--out` appends exactly one JSON line per run.
    #[test]
    fn loadgen_runs_against_a_live_service_and_appends_records() {
        let server = Server::start(&ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 8,
            ..Default::default()
        })
        .unwrap();
        let out = temp_path("loadgen_out.json");
        let _ = std::fs::remove_file(&out);
        for seed in [1, 2] {
            dispatch(&argv(&[
                "loadgen",
                "--addr",
                &server.addr().to_string(),
                "--jobs",
                "4",
                "--pattern",
                "burst",
                "--burst-size",
                "4",
                "--burst-every-ms",
                "10",
                "--seed",
                &seed.to_string(),
                "--wait-timeout-sec",
                "60",
                "--out",
                &out,
            ]))
            .unwrap();
        }
        let recorded = std::fs::read_to_string(&out).unwrap();
        let lines: Vec<&str> = recorded.lines().collect();
        assert_eq!(lines.len(), 2, "one record per run");
        for line in lines {
            let record = Value::parse(line).unwrap();
            assert_eq!(record.get("attempted").and_then(Value::as_u64), Some(4));
            assert!(record.get("e2e_latency").is_some());
        }
        let _ = std::fs::remove_file(&out);
        server.shutdown();
    }

    #[test]
    fn serve_rejects_zero_workers() {
        assert!(dispatch(&argv(&["serve", "--workers", "0"])).is_err());
    }

    /// The store flags validate before anything binds.
    #[test]
    fn serve_validates_store_flags() {
        for bad in [
            &["serve", "--result-ttl", "0"][..],
            &["serve", "--result-ttl", "-3"][..],
            &["serve", "--result-ttl", "soon"][..],
            &["serve", "--result-ttl", "1e30"][..], // Duration overflow: error, not panic
            &["serve", "--max-jobs", "0"][..],
            &["serve", "--max-jobs", "many"][..],
            &["serve", "--shard-id", "70000"][..], // u16 overflow
            &["serve", "--shard-id", "one"][..],
        ] {
            assert!(dispatch(&argv(bad)).is_err(), "{bad:?} should be rejected");
        }
        // Two journal dirs at once are refused before either is opened
        // (the unbindable address only keeps a regression from serving).
        let dir = temp_path("both_journal_dirs");
        let err = dispatch(&argv(&[
            "serve",
            "--addr",
            "256.0.0.1:1",
            "--state-dir",
            &format!("{dir}/state"),
            "--spool-dir",
            &format!("{dir}/spool"),
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("exclusive"), "{err}");
        assert!(!Path::new(&dir).exists(), "nothing was opened");
    }

    /// `serve --state-dir` end to end *through the CLI config path*:
    /// results survive a stop/start cycle on the same directory.
    #[test]
    fn state_dir_flag_survives_a_restart() {
        let dir = temp_path("state_dir");
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            queue_capacity: 8,
            state_dir: Some(std::path::PathBuf::from(&dir)),
            ..Default::default()
        };
        let server = Server::start(&config).unwrap();
        let addr = server.addr().to_string();
        dispatch(&argv(&[
            "submit",
            "--addr",
            &addr,
            "--k",
            "2",
            "--generate",
            "n=40,d=6,dims=3,seed=2",
            "--algorithms",
            "harp",
            "--runs",
            "1",
            "--wait",
            "true",
            "--interval-ms",
            "20",
        ]))
        .unwrap();
        server.shutdown();

        let server = Server::start(&config).unwrap();
        let addr = server.addr().to_string();
        dispatch(&argv(&["poll", "--addr", &addr, "--job", "1"])).unwrap();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn supervision_file_parsing() {
        let path = temp_path("labels.txt");
        std::fs::write(&path, "# comment\no 3 0\nd 7 1\n\n").unwrap();
        let s = read_supervision(&path).unwrap();
        assert_eq!(s.labeled_objects(), &[(ObjectId(3), ClusterId(0))]);
        assert_eq!(s.labeled_dims(), &[(DimId(7), ClusterId(1))]);

        std::fs::write(&path, "x 1 2\n").unwrap();
        assert!(read_supervision(&path).is_err());
        std::fs::write(&path, "o 1\n").unwrap();
        assert!(read_supervision(&path).is_err());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn label_file_parsing() {
        let path = temp_path("lab.txt");
        std::fs::write(&path, "0\n-\n2\n").unwrap();
        let labels = read_labels(&path).unwrap();
        assert_eq!(labels, vec![Some(ClusterId(0)), None, Some(ClusterId(2))]);
        std::fs::write(&path, "abc\n").unwrap();
        assert!(read_labels(&path).is_err());
        std::fs::write(&path, "").unwrap();
        assert!(read_labels(&path).is_err());
        let _ = std::fs::remove_file(path);
    }
}
