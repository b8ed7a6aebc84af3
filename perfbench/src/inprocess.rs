//! The in-process workloads, `paper_protocol` and `scale_n`, and the SSPC
//! pieces the service workload's reference runs share with them.

use crate::context;
use crate::inputs::{self, Workload};
use crate::trace::{span, Scope, Tracer};
use crate::{rss_error, Outcome, RunConfig, ARI_JOBS, MIN_JOBS, RSS_WINDOW, SETUP_JOB};
use sspc::{Sspc, SspcParams};
use sspc_api::best_of;
use sspc_common::rng::derive_seed;
use sspc_common::{ClusterId, Clustering, Dataset, ProjectedClusterer, Result, Supervision};
use sspc_metrics::{adjusted_rand_index, OutlierPolicy};
use std::path::Path;
use std::time::Instant;

/// Restarts per `paper_protocol` job: the paper's best of 10.
const PAPER_RUNS: usize = 10;
/// Paired single-thread / resolved-thread runs of the parallel probe.
const PROBE_PAIRS: u64 = 6;

/// One dataset as the program sees it after loading its files.
pub struct Input {
    /// The matrix.
    pub dataset: Dataset,
    /// Planted cluster per object.
    pub truth: Vec<Option<ClusterId>>,
    /// Labeled objects and dimensions.
    pub supervision: Supervision,
    /// Bytes of the three files.
    pub bytes: u64,
}

/// Loads dataset `i` of `dir`, one span per load call when traced.
///
/// # Errors
///
/// I/O and parse failures.
pub fn load_input(dir: &Path, i: usize, scope: Option<Scope<'_>>) -> Result<Input> {
    let f = inputs::files(dir, i);
    let dataset = span(scope, "io.read_delimited", |_| {
        inputs::load_dataset(&f.data)
    })?;
    let truth = span(scope, "io.read_labels", |_| inputs::load_truth(&f.truth))?;
    let supervision = span(scope, "io.read_supervision", |_| {
        inputs::load_supervision(&f.labels)
    })?;
    let bytes = [&f.data, &f.truth, &f.labels]
        .iter()
        .map(|p| inputs::file_bytes(p))
        .sum();
    Ok(Input {
        dataset,
        truth,
        supervision,
        bytes,
    })
}

/// SSPC at the paper's default threshold, m = 0.5.
///
/// # Errors
///
/// Parameter validation failures.
pub fn paper_sspc(k: usize) -> Result<Sspc> {
    Sspc::new(SspcParams::new(k))
}

/// `Sspc` through the unified contract with a `core.run` span per call,
/// carrying the run's phase split and iteration count.
struct TracedSspc<'a> {
    sspc: &'a Sspc,
    scope: Scope<'a>,
}

impl ProjectedClusterer for TracedSspc<'_> {
    fn name(&self) -> &str {
        "sspc"
    }

    fn cluster(
        &self,
        dataset: &Dataset,
        supervision: &Supervision,
        seed: u64,
    ) -> Result<Clustering> {
        traced_run(self.sspc, dataset, supervision, seed, self.scope)
    }
}

fn traced_run(
    sspc: &Sspc,
    dataset: &Dataset,
    supervision: &Supervision,
    seed: u64,
    scope: Scope<'_>,
) -> Result<Clustering> {
    span(Some(scope), "core.run", |s| {
        let start = Instant::now();
        let (result, phases) = sspc.run_with_timings(dataset, supervision, seed)?;
        if let Some(s) = s {
            s.attr("assign_s", phases.assign_secs);
            s.attr("refit_s", phases.refit_secs);
            s.attr("other_s", phases.other_secs);
            s.attr("iterations", result.iterations() as f64);
            let dims: usize = result.all_selected_dims().iter().map(Vec::len).sum();
            s.attr("selected_dims", dims as f64);
        }
        Ok(Clustering::from(result).with_seconds(start.elapsed().as_secs_f64()))
    })
}

/// `Sspc` through the unified contract on the serial reference path.
pub struct NaiveSspc<'a>(pub &'a Sspc);

impl ProjectedClusterer for NaiveSspc<'_> {
    fn name(&self) -> &str {
        "sspc"
    }

    fn cluster(
        &self,
        dataset: &Dataset,
        supervision: &Supervision,
        seed: u64,
    ) -> Result<Clustering> {
        self.0.cluster_naive(dataset, supervision, seed)
    }
}

/// `sspc_api::best_of` over SSPC, traced when `scope` is set.
///
/// # Errors
///
/// Clustering failures.
pub fn best_of_sspc(
    sspc: &Sspc,
    input: &Input,
    runs: usize,
    seed: u64,
    scope: Option<Scope<'_>>,
) -> Result<Clustering> {
    let outcome = span(scope, "api.best_of", |s| match s {
        None => best_of(sspc, &input.dataset, &input.supervision, runs, seed),
        Some(scope) => best_of(
            &TracedSspc { sspc, scope },
            &input.dataset,
            &input.supervision,
            runs,
            seed,
        ),
    })?;
    Ok(outcome.best)
}

/// ARI against the planted truth with the labeled objects left out, the
/// paper's semi-supervised scoring (Sec. 5.3).
///
/// # Errors
///
/// Metric failures (length mismatch).
pub fn ari_excluding_labeled(input: &Input, produced: &[Option<ClusterId>]) -> Result<f64> {
    let mut labeled = vec![false; input.truth.len()];
    for (o, _) in input.supervision.labeled_objects() {
        labeled[o.index()] = true;
    }
    let keep = |v: &[Option<ClusterId>]| -> Vec<Option<ClusterId>> {
        v.iter()
            .zip(&labeled)
            .filter(|(_, &l)| !l)
            .map(|(&c, _)| c)
            .collect()
    };
    adjusted_rand_index(
        &keep(&input.truth),
        &keep(produced),
        OutlierPolicy::AsCluster,
    )
}

/// True when two clusterings agree bit for bit: objective, assignment,
/// selected dimensions, iterations and per-cluster scores.
pub fn same_clustering(a: &Clustering, b: &Clustering) -> bool {
    let bits = |s: Option<&[f64]>| s.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
    a.objective().to_bits() == b.objective().to_bits()
        && a.assignment() == b.assignment()
        && a.all_selected_dims() == b.all_selected_dims()
        && a.iterations() == b.iterations()
        && bits(a.cluster_scores()) == bits(b.cluster_scores())
}

/// Checks a job's result against its input: one label per object, `k`
/// clusters, a finite objective, and every labeled object in its class's
/// cluster (SSPC pins labeled objects).
fn check_result(c: &Clustering, input: &Input, k: usize) -> std::result::Result<(), String> {
    if c.assignment().len() != input.dataset.n_objects() {
        return Err(format!(
            "{} labels for {} objects",
            c.assignment().len(),
            input.dataset.n_objects()
        ));
    }
    if c.n_clusters() != k {
        return Err(format!("{} clusters, expected {k}", c.n_clusters()));
    }
    if !c.objective().is_finite() {
        return Err(format!("objective {}", c.objective()));
    }
    for &(o, class) in input.supervision.labeled_objects() {
        if c.cluster_of(o) != Some(class) {
            return Err(format!(
                "labeled object {} of class {} assigned {:?}",
                o.index(),
                class.index(),
                c.cluster_of(o)
            ));
        }
    }
    Ok(())
}

/// Runs `f` with the data-parallel layer resolved to one thread. Must be
/// called while no other thread of this process reads the environment.
fn at_one_thread<T>(f: impl FnOnce() -> T) -> T {
    const VAR: &str = "SSPC_NUM_THREADS";
    let previous = std::env::var_os(VAR);
    std::env::set_var(VAR, "1");
    let out = f();
    match previous {
        Some(v) => std::env::set_var(VAR, v),
        None => std::env::remove_var(VAR),
    }
    out
}

/// Phase speedups of the resolved thread count over one thread, on one
/// restart of `input`: `(refit, assign)`, each the median ratio over
/// alternating pairs. Must run while no other thread reads the
/// environment.
///
/// # Errors
///
/// Clustering failures.
pub fn thread_probe(sspc: &Sspc, input: &Input, seed: u64) -> Result<(f64, f64)> {
    let run = |s: u64| sspc.run_with_timings(&input.dataset, &input.supervision, s);
    let mut refit = Vec::new();
    let mut assign = Vec::new();
    for p in 0..PROBE_PAIRS {
        let s = derive_seed(seed, 5000 + p);
        let (one, many) = if p % 2 == 0 {
            let one = at_one_thread(|| run(s))?.1;
            (one, run(s)?.1)
        } else {
            let many = run(s)?.1;
            (at_one_thread(|| run(s))?.1, many)
        };
        refit.push(one.refit_secs / many.refit_secs);
        assign.push(one.assign_secs / many.assign_secs);
    }
    Ok((
        crate::stats::median(&refit).unwrap_or(f64::NAN),
        crate::stats::median(&assign).unwrap_or(f64::NAN),
    ))
}

/// Loads every input of the workload and builds the clusterer.
///
/// # Errors
///
/// Load failures.
pub fn setup(cfg: &RunConfig, dir: &Path, scope: Option<Scope<'_>>) -> Result<(Vec<Input>, Sspc)> {
    let spec = cfg.workload.spec();
    let loaded = (0..spec.datasets)
        .map(|i| load_input(dir, i, scope))
        .collect::<Result<Vec<_>>>()?;
    Ok((loaded, paper_sspc(spec.k)?))
}

/// Runs `paper_protocol` or `scale_n` on the files in `dir`.
///
/// # Errors
///
/// Load failures and clustering errors that stop the workload.
pub fn run(cfg: &RunConfig, dir: &Path, tracer: &Tracer) -> Result<Outcome> {
    let spec = cfg.workload.spec();
    let mut out = Outcome::default();

    // Set-up: load every input and build the clusterer. The other set-up
    // repetitions ran in processes of their own.
    let scope = cfg.trace.then(|| Scope::root(tracer, SETUP_JOB));
    let start = Instant::now();
    let (loaded, sspc) = span(scope, "setup", |s| setup(cfg, dir, s))?;
    out.setup_secs.push(start.elapsed().as_secs_f64());
    out.bytes_loaded = loaded.iter().map(|i| i.bytes).sum();
    out.peak_rss_setup_mb = context::peak_rss_mb();

    let job = |j: usize, scope: Option<Scope<'_>>| -> Result<(Clustering, f64, usize)> {
        let d = j % loaded.len();
        let input = &loaded[d];
        let seed = derive_seed(cfg.seed, 3000 + j as u64);
        let best = match cfg.workload {
            Workload::ScaleN => match scope {
                None => Clustering::from(sspc.run(&input.dataset, &input.supervision, seed)?),
                Some(s) => traced_run(&sspc, &input.dataset, &input.supervision, seed, s)?,
            },
            _ => best_of_sspc(&sspc, input, PAPER_RUNS, seed, scope)?,
        };
        let ari = span(scope, "metrics.eval", |_| {
            ari_excluding_labeled(input, best.assignment())
        })?;
        Ok((best, ari, d))
    };

    // Timed phase: whole jobs back to back until the time is up. In a
    // traced run every other rotation is traced, so the untraced ones give
    // the tracing overhead on the same job mix.
    out.host_before = context::host_reference();
    let cpu_start = context::process_cpu_secs();
    let mut first = None;
    let ((), rss) = context::rss_windows(RSS_WINDOW, || {
        let phase = Instant::now();
        let mut j = 0;
        while j < MIN_JOBS || phase.elapsed().as_secs_f64() < cfg.seconds {
            // Whole rotations over the datasets alternate, so traced and
            // untraced jobs are the same mix of datasets.
            let traced = cfg.trace && (j / loaded.len()) % 2 == 1;
            let start = Instant::now();
            let result = if traced {
                span(Some(Scope::root(tracer, j as u64)), "job", |s| job(j, s))
            } else {
                job(j, None)
            };
            let ms = start.elapsed().as_secs_f64() * 1e3;
            out.attempted += 1;
            match result {
                Ok((best, ari, d)) => {
                    out.completed += 1;
                    if traced {
                        out.traced_latencies_ms.push(ms);
                    } else {
                        out.latencies_ms.push(ms);
                    }
                    let checked = check_result(&best, &loaded[d], spec.k);
                    match &checked {
                        Ok(()) => out.ok += 1,
                        Err(e) => out.failures.push(format!("job {j}: {e}")),
                    }
                    if j < ARI_JOBS {
                        out.aris.push(ari);
                    }
                    if j == 0 {
                        first = Some((best, checked.is_ok()));
                    }
                }
                Err(e) => out.failures.push(format!("job {j}: {e}")),
            }
            j += 1;
        }
        out.wall_secs = phase.elapsed().as_secs_f64();
    })
    .map_err(rss_error)?;
    out.rss_windows_mb = rss;
    out.cpu_secs = context::process_cpu_secs() - cpu_start;
    out.host_after = context::host_reference();

    // Untimed: job 0 again on the serial reference path, bit for bit.
    let input = &loaded[0];
    let seed = derive_seed(cfg.seed, 3000);
    let naive = match cfg.workload {
        Workload::ScaleN => {
            Clustering::from(sspc.run_naive(&input.dataset, &input.supervision, seed)?)
        }
        _ => {
            best_of(
                &NaiveSspc(&sspc),
                &input.dataset,
                &input.supervision,
                PAPER_RUNS,
                seed,
            )?
            .best
        }
    };
    match first {
        Some((fast, _)) if same_clustering(&fast, &naive) => {}
        Some((_, counted_ok)) => {
            out.ok -= usize::from(counted_ok);
            out.failures
                .push("job 0: differs from the Sspc::run_naive reference".into());
        }
        None => {}
    }

    if cfg.trace {
        let (refit, assign) = thread_probe(&sspc, input, cfg.seed)?;
        out.refit_speedup = refit;
        out.assign_speedup = assign;
    }
    Ok(out)
}
