//! Criterion micro-benchmarks of the computational kernels behind every
//! experiment: objective evaluation and dimension selection (the per-
//! iteration core of SSPC), grid construction (initialization), the
//! chi-square quantile (p-scheme thresholds), the ARI metric, the
//! Hungarian matcher, and the synthetic generator.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use sspc::objective::{
    assignment_argmax, assignment_gain_row, assignment_gains_transposed, AssignCandidate,
    ClusterModel, FitScratch, ASSIGN_BLOCK,
};
use sspc::{ThresholdScheme, Thresholds};
use sspc_common::stats::ChiSquared;
use sspc_common::{ClusterId, DimId, ObjectId};
use sspc_datagen::{generate, GeneratorConfig};
use sspc_metrics::{adjusted_rand_index, matching, ContingencyTable, OutlierPolicy};
use std::hint::black_box;

fn config(n: usize, d: usize) -> GeneratorConfig {
    GeneratorConfig {
        n,
        d,
        k: 5,
        avg_cluster_dims: (d / 10).max(2),
        ..Default::default()
    }
}

fn bench_objective(c: &mut Criterion) {
    let mut group = c.benchmark_group("objective");
    for (n, d) in [(1000usize, 100usize), (150, 3000)] {
        let data = generate(&config(n, d), 1).unwrap();
        let members: Vec<ObjectId> = data.truth.members_of(ClusterId(0));
        let thresholds = Thresholds::new(ThresholdScheme::MFraction(0.5), &data.dataset).unwrap();
        group.bench_with_input(
            BenchmarkId::new("fit_and_select", format!("n{n}_d{d}")),
            &(&data, &members, &thresholds),
            |b, (data, members, thresholds)| {
                b.iter(|| {
                    let model = ClusterModel::fit(&data.dataset, members).unwrap();
                    let dims = model.select_dims(thresholds);
                    black_box(model.cluster_score(&dims, thresholds))
                })
            },
        );
    }
    group.finish();
}

/// Columnar gather (`fit_with_scratch`) vs the row-major strided reference
/// (`fit_naive`) — the core of the PR-1 performance layer. The gap widens
/// with `d` (stride `8·d` bytes between consecutive reads of one dimension
/// in the naive path).
fn bench_fit_layouts(c: &mut Criterion) {
    let mut group = c.benchmark_group("fit_layout");
    for (n, d) in [(1000usize, 100usize), (150, 3000), (5000, 1000)] {
        let data = generate(&config(n, d), 1).unwrap();
        let members: Vec<ObjectId> = data.truth.members_of(ClusterId(0));
        let mut scratch = FitScratch::new();
        group.bench_with_input(
            BenchmarkId::new("columnar", format!("n{n}_d{d}")),
            &(&data, &members),
            |b, (data, members)| {
                b.iter(|| {
                    black_box(
                        ClusterModel::fit_with_scratch(&data.dataset, members, &mut scratch)
                            .unwrap(),
                    )
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("naive", format!("n{n}_d{d}")),
            &(&data, &members),
            |b, (data, members)| {
                b.iter(|| black_box(ClusterModel::fit_naive(&data.dataset, members).unwrap()))
            },
        );
    }
    group.finish();
}

/// The assignment-phase gain kernel (order-exact 4-wide unroll) at
/// realistic selected-dimension counts.
fn bench_gain_row(c: &mut Criterion) {
    let mut group = c.benchmark_group("gain_row");
    let d = 1000usize;
    let data = generate(&config(2000, d), 4).unwrap();
    let row = data.dataset.row(ObjectId(0)).to_vec();
    let rep = data.dataset.row(ObjectId(1)).to_vec();
    let thresholds = Thresholds::new(ThresholdScheme::MFraction(0.5), &data.dataset).unwrap();
    let t_row = thresholds.row(400);
    // The pre-unroll formulation, kept here as the measured baseline the
    // order-exact unroll in `assignment_gain_row` is compared against
    // (PERFORMANCE.md quotes this A/B).
    let sequential = |dims: &[DimId]| -> f64 {
        dims.iter()
            .map(|&j| {
                let t = t_row[j.index()];
                if t <= 0.0 {
                    return 0.0;
                }
                let diff = row[j.index()] - rep[j.index()];
                1.0 - diff * diff / t
            })
            .sum()
    };
    for n_dims in [8usize, 20, 100] {
        let dims: Vec<DimId> = (0..n_dims).map(|j| DimId(j * (d / n_dims))).collect();
        group.bench_with_input(
            BenchmarkId::new("unrolled", format!("dims{n_dims}")),
            &dims,
            |b, dims| b.iter(|| black_box(assignment_gain_row(&row, &rep, dims, &t_row))),
        );
        group.bench_with_input(
            BenchmarkId::new("sequential", format!("dims{n_dims}")),
            &dims,
            |b, dims| b.iter(|| black_box(sequential(dims))),
        );
    }
    group.finish();
}

/// The whole-assignment-phase layout A/B: the row-wise reference
/// (per-object `assignment_gain_row` over every candidate, strided column
/// reads — what `run_naive` does) against the transposed kernel `run`
/// uses at every shape (per-candidate contiguous `column_slice` scans into
/// blocked gain stripes, then a per-object argmax reduction). Both produce
/// bit-identical gains; the sweep varies the per-cluster selected-dimension
/// count, the shape property the kernels' relative cost depends on.
fn bench_assign_layouts(c: &mut Criterion) {
    let mut group = c.benchmark_group("assign_layout");
    let (n, d, k) = (4096usize, 1000usize, 10usize);
    let data = generate(&config(n, d), 5).unwrap();
    let thresholds = Thresholds::new(ThresholdScheme::MFraction(0.5), &data.dataset).unwrap();
    let t_row = thresholds.row(n / k);
    for n_dims in [4usize, 20, 100] {
        // k candidate clusters: representatives from distinct data rows,
        // dimension sets offset per cluster so the scans don't all touch
        // the same columns.
        let reps: Vec<Vec<f64>> = (0..k)
            .map(|cl| data.dataset.row(ObjectId(cl * (n / k))).to_vec())
            .collect();
        let dims_list: Vec<Vec<DimId>> = (0..k)
            .map(|cl| {
                (0..n_dims)
                    .map(|j| DimId((cl * 7 + j * (d / n_dims)) % d))
                    .collect()
            })
            .collect();
        let candidates: Vec<AssignCandidate<'_>> = (0..k)
            .map(|cl| AssignCandidate {
                rep: &reps[cl],
                dims: &dims_list[cl],
                threshold_row: &t_row,
            })
            .collect();
        group.bench_with_input(
            BenchmarkId::new("row", format!("dims{n_dims}")),
            &candidates,
            |b, candidates| {
                b.iter(|| {
                    let mut outliers = 0usize;
                    for i in 0..n {
                        let row = data.dataset.row(ObjectId(i));
                        let mut best_gain = 0.0f64;
                        let mut best = None;
                        for (cl, cand) in candidates.iter().enumerate() {
                            let gain =
                                assignment_gain_row(row, cand.rep, cand.dims, cand.threshold_row);
                            if gain > best_gain {
                                best_gain = gain;
                                best = Some(cl);
                            }
                        }
                        if best.is_none() {
                            outliers += 1;
                        }
                    }
                    black_box(outliers)
                })
            },
        );
        let mut gains = Vec::new();
        group.bench_with_input(
            BenchmarkId::new("transposed", format!("dims{n_dims}")),
            &candidates,
            |b, candidates| {
                b.iter(|| {
                    let mut outliers = 0usize;
                    let mut start = 0usize;
                    while start < n {
                        let block_len = (n - start).min(ASSIGN_BLOCK);
                        assignment_gains_transposed(
                            &data.dataset,
                            start,
                            block_len,
                            candidates,
                            &mut gains,
                        );
                        for i in 0..block_len {
                            if assignment_argmax(&gains, block_len, i).is_none() {
                                outliers += 1;
                            }
                        }
                        start += block_len;
                    }
                    black_box(outliers)
                })
            },
        );
    }
    group.finish();
}

fn bench_chi_square_quantile(c: &mut Criterion) {
    c.bench_function("chi_square_quantile_dof30", |b| {
        let chi = ChiSquared::new(30.0).unwrap();
        b.iter(|| black_box(chi.quantile(black_box(0.01)).unwrap()))
    });
}

fn bench_ari(c: &mut Criterion) {
    let data = generate(&config(5000, 10), 2).unwrap();
    let truth = data.truth.assignment().to_vec();
    let mut shifted = truth.clone();
    shifted.rotate_right(7);
    c.bench_function("ari_n5000", |b| {
        b.iter(|| {
            black_box(adjusted_rand_index(&truth, &shifted, OutlierPolicy::AsCluster).unwrap())
        })
    });
}

fn bench_hungarian(c: &mut Criterion) {
    let data = generate(&config(2000, 10), 3).unwrap();
    let truth = data.truth.assignment().to_vec();
    let mut shifted = truth.clone();
    shifted.rotate_right(13);
    let table = ContingencyTable::build(&truth, &shifted, OutlierPolicy::Exclude).unwrap();
    c.bench_function("hungarian_match_5x5", |b| {
        b.iter(|| black_box(matching::match_clusters_to_classes(&table).unwrap()))
    });
}

fn bench_generator(c: &mut Criterion) {
    c.bench_function("generate_n1000_d100", |b| {
        let cfg = config(1000, 100);
        let mut seed = 0u64;
        b.iter_batched(
            || {
                seed += 1;
                seed
            },
            |s| black_box(generate(&cfg, s).unwrap()),
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_objective,
    bench_fit_layouts,
    bench_gain_row,
    bench_assign_layouts,
    bench_chi_square_quantile,
    bench_ari,
    bench_hungarian,
    bench_generator
);
criterion_main!(benches);
