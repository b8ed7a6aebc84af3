//! The paper's objective function `φ` (Sec. 3, Eqs. 1–4) and the
//! `SelectDim` procedure (Lemma 1).
//!
//! For a cluster `Cᵢ` and a dimension `vⱼ`, with sample mean `µᵢⱼ`, sample
//! variance `s²ᵢⱼ`, sample median `µ̃ᵢⱼ`, and selection threshold `ŝ²ᵢⱼ`:
//!
//! ```text
//! φᵢⱼ = (nᵢ − 1) · (1 − (s²ᵢⱼ + (µᵢⱼ − µ̃ᵢⱼ)²) / ŝ²ᵢⱼ)        (Eq. 4)
//! φᵢ  = Σ_{vⱼ ∈ Vᵢ} φᵢⱼ                                        (Eq. 2)
//! φ   = (1/nd) Σᵢ φᵢ                                           (Eq. 1)
//! ```
//!
//! The quantity `s²ᵢⱼ + (µᵢⱼ − µ̃ᵢⱼ)²` — dispersion around the **median**
//! — is [`sspc_common::stats::Summary::median_dispersion`]. Lemma 1 says
//! `φ` is maximized by selecting exactly the dimensions whose dispersion is
//! below the threshold, which is what [`ClusterModel::select_dims`] does.
//!
//! During the assignment phase the median is not yet known, so the paper
//! substitutes the cluster representative's projection for `µ̃ᵢⱼ`;
//! [`assignment_gain`] implements the resulting per-object score gain.

use crate::Thresholds;
use sspc_common::stats::{median_in_place, RunningStats, Summary};
use sspc_common::{Dataset, DimId, Error, ObjectId, Result};

/// Per-dimension statistics of one cluster's members — everything `φ` and
/// `SelectDim` need.
#[derive(Debug, Clone)]
pub struct ClusterModel {
    size: usize,
    summaries: Vec<Summary>,
}

/// Reusable buffers for [`ClusterModel::fit_with_scratch`], letting the
/// main loop fit `k` models per iteration without per-fit allocation.
#[derive(Debug, Clone, Default)]
pub struct FitScratch {
    /// Gather buffer for `LANES` dimensions at a time; grown on demand,
    /// never shrunk.
    buf: Vec<f64>,
}

impl FitScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Number of dimensions the columnar fit processes per pass.
///
/// Welford's update carries a serial dependency through a division, so a
/// single chain runs at the divider's *latency*; four independent chains
/// interleaved in one loop run at its *throughput* (~3–4× on current
/// x86). Each dimension's own operation sequence is untouched, so the
/// results are bit-identical to the one-dimension-at-a-time path.
const LANES: usize = 4;

impl ClusterModel {
    /// Fits the model: one [`Summary`] per dimension over `members`.
    ///
    /// O(nᵢ·d) time. Gathers each dimension's member projections from the
    /// dataset's contiguous column mirror ([`Dataset::column_slice`]) —
    /// the row-major equivalent ([`ClusterModel::fit_naive`]) pays one
    /// cache miss per element once `8·d` exceeds a cache line.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsufficientData`] for an empty member set.
    pub fn fit(dataset: &Dataset, members: &[ObjectId]) -> Result<Self> {
        Self::fit_with_scratch(dataset, members, &mut FitScratch::new())
    }

    /// [`ClusterModel::fit`] with caller-owned scratch buffers; the hot
    /// loop reuses one [`FitScratch`] across all fits of a run.
    ///
    /// Processes `LANES` dimensions per pass: the gather from each
    /// column is fused with the Welford accumulation (one read per
    /// element), and the interleaved chains hide the division latency.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsufficientData`] for an empty member set.
    pub fn fit_with_scratch(
        dataset: &Dataset,
        members: &[ObjectId],
        scratch: &mut FitScratch,
    ) -> Result<Self> {
        if members.is_empty() {
            return Err(Error::InsufficientData(
                "cannot fit a cluster model on zero members".into(),
            ));
        }
        let m = members.len();
        let d = dataset.n_dims();
        let mut summaries = Vec::with_capacity(d);
        let mut finish = |stats: RunningStats, buf: &mut [f64]| {
            summaries.push(Summary {
                mean: stats.mean(),
                variance: stats.sample_variance(),
                median: median_in_place(buf),
                count: m,
            });
        };
        scratch.buf.resize(LANES * m, 0.0);

        let mut j = 0;
        while j + LANES <= d {
            let cols = [
                dataset.column_slice(DimId(j)),
                dataset.column_slice(DimId(j + 1)),
                dataset.column_slice(DimId(j + 2)),
                dataset.column_slice(DimId(j + 3)),
            ];
            let (b0, rest) = scratch.buf.split_at_mut(m);
            let (b1, rest) = rest.split_at_mut(m);
            let (b2, b3) = rest.split_at_mut(m);
            let mut stats = [RunningStats::new(); LANES];
            for (i, &o) in members.iter().enumerate() {
                let oi = o.index();
                let v0 = cols[0][oi];
                let v1 = cols[1][oi];
                let v2 = cols[2][oi];
                let v3 = cols[3][oi];
                b0[i] = v0;
                b1[i] = v1;
                b2[i] = v2;
                b3[i] = v3;
                stats[0].push(v0);
                stats[1].push(v1);
                stats[2].push(v2);
                stats[3].push(v3);
            }
            for (lane, buf) in [b0, b1, b2, b3].into_iter().enumerate() {
                finish(stats[lane], buf);
            }
            j += LANES;
        }
        // Remainder dimensions, one at a time (same formulas).
        while j < d {
            let col = dataset.column_slice(DimId(j));
            let buf = &mut scratch.buf[..m];
            let mut stats = RunningStats::new();
            for (slot, &o) in buf.iter_mut().zip(members.iter()) {
                let v = col[o.index()];
                *slot = v;
                stats.push(v);
            }
            finish(stats, buf);
            j += 1;
        }
        Ok(ClusterModel { size: m, summaries })
    }

    /// The pre-columnar reference implementation: gathers each dimension by
    /// striding the row-major buffer (`values[o·d + j]`). Numerically
    /// identical to [`ClusterModel::fit`] — kept for A/B benchmarking
    /// (`benches/hotloop.rs`) and the equivalence tests.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InsufficientData`] for an empty member set.
    pub fn fit_naive(dataset: &Dataset, members: &[ObjectId]) -> Result<Self> {
        if members.is_empty() {
            return Err(Error::InsufficientData(
                "cannot fit a cluster model on zero members".into(),
            ));
        }
        let d = dataset.n_dims();
        let mut summaries = Vec::with_capacity(d);
        let mut buf = vec![0.0f64; members.len()];
        for j in 0..d {
            for (slot, &o) in buf.iter_mut().zip(members.iter()) {
                *slot = dataset.value(o, DimId(j));
            }
            summaries.push(Summary::from_values(&mut buf)?);
        }
        Ok(ClusterModel {
            size: members.len(),
            summaries,
        })
    }

    /// Number of member objects `nᵢ`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The per-dimension summary.
    pub fn summary(&self, j: DimId) -> &Summary {
        &self.summaries[j.index()]
    }

    /// Number of dimensions covered.
    pub fn n_dims(&self) -> usize {
        self.summaries.len()
    }

    /// The score component `φᵢⱼ` (Eq. 4). Zero-or-negative thresholds
    /// (constant global dimensions) yield `−∞`-like behaviour encoded as
    /// `f64::NEG_INFINITY` so such dimensions are never selected.
    pub fn dim_score(&self, j: DimId, thresholds: &Thresholds) -> f64 {
        let t = thresholds.threshold(self.size, j);
        if t <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let s = &self.summaries[j.index()];
        (self.size as f64 - 1.0) * (1.0 - s.median_dispersion() / t)
    }

    /// `SelectDim` (Lemma 1): all dimensions with
    /// `s²ᵢⱼ + (µᵢⱼ − µ̃ᵢⱼ)² < ŝ²ᵢⱼ`, ascending.
    pub fn select_dims(&self, thresholds: &Thresholds) -> Vec<DimId> {
        self.select_dims_row(&thresholds.row(self.size))
    }

    /// [`ClusterModel::select_dims`] against a prefetched threshold row
    /// (`threshold_row[j] = ŝ²ᵢⱼ` at this model's size).
    pub fn select_dims_row(&self, threshold_row: &[f64]) -> Vec<DimId> {
        (0..self.summaries.len())
            .map(DimId)
            .filter(|&j| {
                let t = threshold_row[j.index()];
                t > 0.0 && self.summaries[j.index()].median_dispersion() < t
            })
            .collect()
    }

    /// The cluster score `φᵢ` over a set of selected dimensions (Eq. 2).
    pub fn cluster_score(&self, dims: &[DimId], thresholds: &Thresholds) -> f64 {
        self.cluster_score_row(dims, &thresholds.row(self.size))
    }

    /// [`ClusterModel::cluster_score`] against a prefetched threshold row.
    pub fn cluster_score_row(&self, dims: &[DimId], threshold_row: &[f64]) -> f64 {
        dims.iter()
            .map(|&j| {
                let t = threshold_row[j.index()];
                let s = if t <= 0.0 {
                    f64::NEG_INFINITY
                } else {
                    let summary = &self.summaries[j.index()];
                    (self.size as f64 - 1.0) * (1.0 - summary.median_dispersion() / t)
                };
                if s.is_finite() {
                    s
                } else {
                    0.0
                }
            })
            .sum()
    }
}

/// The overall objective `φ = (1/nd) Σᵢ φᵢ` (Eq. 1).
pub fn total_score(cluster_scores: &[f64], n: usize, d: usize) -> f64 {
    if n == 0 || d == 0 {
        return 0.0;
    }
    cluster_scores.iter().sum::<f64>() / (n as f64 * d as f64)
}

/// The score gain of assigning object `o` to a cluster with representative
/// `rep` (a full-length point) and selected dimensions `dims`, with the
/// representative's projections substituted for the medians (paper Sec. 4,
/// step 3):
///
/// ```text
/// Δφᵢ = Σ_{vⱼ ∈ Vᵢ} (1 − (xⱼ − repⱼ)² / ŝ²ᵢⱼ)
/// ```
///
/// Derivation: with `µ̃ᵢⱼ` fixed at `repⱼ`, Eq. 3 gives
/// `φᵢⱼ = nᵢ − 1 − Σ_x (xⱼ−repⱼ)²/ŝ²ᵢⱼ`; adding one object raises `nᵢ` by
/// one and adds its own squared deviation. The gain is positive exactly
/// when the object lies within the threshold-scaled neighbourhood of the
/// representative in the cluster's subspace, so objects improving no
/// cluster (gain ≤ 0 everywhere) go to the outlier list.
///
/// `ref_size` is the cluster size used for the `p`-scheme threshold lookup
/// (the size from the previous iteration, or `n/k` before any assignment).
pub fn assignment_gain(
    dataset: &Dataset,
    o: ObjectId,
    rep: &[f64],
    dims: &[DimId],
    thresholds: &Thresholds,
    ref_size: usize,
) -> f64 {
    debug_assert_eq!(rep.len(), dataset.n_dims());
    assignment_gain_row(dataset.row(o), rep, dims, &thresholds.row(ref_size))
}

/// [`assignment_gain`] with the object row and the threshold row already
/// in hand. This is the per-object reference kernel: [`Sspc::run_naive`]
/// reaches it through [`assignment_gain`], and the tests hold the
/// transposed kernel ([`assignment_gains_transposed`]) that [`Sspc::run`]
/// uses to its bits.
///
/// [`Sspc::run_naive`]: crate::Sspc::run_naive
/// [`Sspc::run`]: crate::Sspc::run
///
/// The loop is unrolled four terms at a time with the accumulation kept in
/// **strict dimension order** (`acc + t₀ + t₁ + t₂ + t₃`, left to right):
/// each term's division is independent, so four of them issue back-to-back
/// and run at the divider's throughput instead of its latency, while the
/// serial adds preserve the exact operation order of the scalar loop —
/// results are bit-identical to a plain sequential sum. A wider `f64x4`
/// reduction (four partial sums) would reassociate the adds and break the
/// fast-path/naive bit-identity contract, so it is deliberately not used;
/// PERFORMANCE.md records the measured effect of the order-exact unroll.
pub fn assignment_gain_row(row: &[f64], rep: &[f64], dims: &[DimId], threshold_row: &[f64]) -> f64 {
    #[inline(always)]
    fn term(row: &[f64], rep: &[f64], threshold_row: &[f64], j: DimId) -> f64 {
        let t = threshold_row[j.index()];
        if t <= 0.0 {
            return 0.0;
        }
        let diff = row[j.index()] - rep[j.index()];
        1.0 - diff * diff / t
    }

    // `Iterator::sum::<f64>` folds from -0.0 (the true additive identity);
    // start there so the empty-dims result keeps the same bits.
    let mut acc = -0.0f64;
    let mut quads = dims.chunks_exact(4);
    for quad in quads.by_ref() {
        let t0 = term(row, rep, threshold_row, quad[0]);
        let t1 = term(row, rep, threshold_row, quad[1]);
        let t2 = term(row, rep, threshold_row, quad[2]);
        let t3 = term(row, rep, threshold_row, quad[3]);
        acc += t0;
        acc += t1;
        acc += t2;
        acc += t3;
    }
    for &j in quads.remainder() {
        acc += term(row, rep, threshold_row, j);
    }
    acc
}

/// One candidate cluster of the transposed assignment kernel: the frozen
/// per-cluster state [`assignment_gains_transposed`] reads — the
/// representative, the selected dimensions, and the memoized threshold row
/// for the cluster's reference size.
pub struct AssignCandidate<'a> {
    /// The cluster representative (length `d`).
    pub rep: &'a [f64],
    /// The cluster's selected dimensions, in selection order.
    pub dims: &'a [DimId],
    /// The threshold row for the cluster's reference size (length `d`).
    pub threshold_row: &'a [f64],
}

/// Objects per block of the transposed assignment phase. The kernel's
/// working set is one gain stripe per candidate (`k × ASSIGN_BLOCK × 8`
/// bytes — 80 KB at k = 10) plus one column block per inner pass
/// (`ASSIGN_BLOCK × 8` bytes), sized to sit in L2 so every stripe stays
/// resident across a cluster's whole dimension walk.
pub const ASSIGN_BLOCK: usize = 1024;

/// The transposed assignment kernel: gains for one block of objects
/// against every candidate cluster, written cluster-major into `gains`
/// (`gains[c * block_len + i]` is object `block_start + i` against
/// candidate `c`).
///
/// Instead of walking each object's row (strided probes of `|dims|` cache
/// lines scattered over `8·d` bytes per (object, cluster)), the kernel
/// walks each candidate's selected dimensions in order and scans the
/// columnar mirror's `column_block` contiguously, accumulating into the
/// per-object stripe. Each object's accumulator therefore receives exactly
/// the terms of [`assignment_gain_row`] in exactly its order — starting
/// from `-0.0` and including an explicit `+ 0.0` for degenerate
/// (`t ≤ 0`) dimensions, which the row kernel also adds and which turns
/// `-0.0` into `+0.0` — so the sums are **bit-identical by construction**.
pub fn assignment_gains_transposed(
    dataset: &Dataset,
    block_start: usize,
    block_len: usize,
    candidates: &[AssignCandidate<'_>],
    gains: &mut Vec<f64>,
) {
    debug_assert!(block_start + block_len <= dataset.n_objects());
    gains.clear();
    // `Iterator::sum::<f64>` folds from -0.0 (the true additive identity);
    // every accumulator starts there, as `assignment_gain_row` does.
    gains.resize(candidates.len() * block_len, -0.0);
    for (c, cand) in candidates.iter().enumerate() {
        let stripe = &mut gains[c * block_len..(c + 1) * block_len];
        for &j in cand.dims {
            let t = cand.threshold_row[j.index()];
            if t <= 0.0 {
                // The row kernel's term is an explicit 0.0 here, and
                // -0.0 + 0.0 = +0.0: the add cannot be skipped or an
                // all-degenerate gain would keep -0.0 bits.
                for g in stripe.iter_mut() {
                    *g += 0.0;
                }
                continue;
            }
            let rep_j = cand.rep[j.index()];
            let col = dataset.column_block(j, block_start, block_len);
            for (g, &x) in stripe.iter_mut().zip(col) {
                let diff = x - rep_j;
                *g += 1.0 - diff * diff / t;
            }
        }
    }
}

/// Reduces one object of a [`assignment_gains_transposed`] block to its
/// assignment decision, mirroring the row-wise argmax exactly: candidates
/// scanned in index order, strictly-greater comparison, `0.0` floor — an
/// object improving no cluster (gain ≤ 0 everywhere) stays an outlier.
pub fn assignment_argmax(gains: &[f64], block_len: usize, i: usize) -> Option<usize> {
    debug_assert!(i < block_len);
    let mut best_gain = 0.0f64;
    let mut best = None;
    for (c, stripe) in gains.chunks_exact(block_len).enumerate() {
        let gain = stripe[i];
        if gain > best_gain {
            best_gain = gain;
            best = Some(c);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThresholdScheme;

    /// 6 objects × 3 dims; dim 0 is compact for the first three objects,
    /// dim 2 is compact for the last three, dim 1 is spread for everyone.
    fn dataset() -> Dataset {
        Dataset::from_rows(
            6,
            3,
            vec![
                1.0, 10.0, 90.0, //
                1.2, 50.0, 10.0, //
                0.8, 90.0, 50.0, //
                9.0, 20.0, 70.0, //
                9.2, 60.0, 70.2, //
                8.8, 95.0, 69.8,
            ],
        )
        .unwrap()
    }

    fn members(ids: &[usize]) -> Vec<ObjectId> {
        ids.iter().map(|&i| ObjectId(i)).collect()
    }

    #[test]
    fn fit_requires_members() {
        let ds = dataset();
        assert!(ClusterModel::fit(&ds, &[]).is_err());
        let m = ClusterModel::fit(&ds, &members(&[0, 1, 2])).unwrap();
        assert_eq!(m.size(), 3);
        assert_eq!(m.n_dims(), 3);
    }

    #[test]
    fn select_dims_picks_compact_dimensions() {
        let ds = dataset();
        let th = Thresholds::new(ThresholdScheme::MFraction(0.5), &ds).unwrap();
        let m0 = ClusterModel::fit(&ds, &members(&[0, 1, 2])).unwrap();
        assert_eq!(m0.select_dims(&th), vec![DimId(0)]);
        let m1 = ClusterModel::fit(&ds, &members(&[3, 4, 5])).unwrap();
        assert_eq!(m1.select_dims(&th), vec![DimId(0), DimId(2)]);
    }

    #[test]
    fn dim_score_positive_iff_selected() {
        let ds = dataset();
        let th = Thresholds::new(ThresholdScheme::MFraction(0.5), &ds).unwrap();
        let m = ClusterModel::fit(&ds, &members(&[0, 1, 2])).unwrap();
        let selected = m.select_dims(&th);
        for j in ds.dim_ids() {
            let score = m.dim_score(j, &th);
            if selected.contains(&j) {
                assert!(score > 0.0, "selected {j} must score positive");
            } else {
                assert!(score <= 0.0, "unselected {j} must score non-positive");
            }
        }
    }

    #[test]
    fn lemma_1_selected_set_maximizes_cluster_score() {
        // Any other dimension set must not beat SelectDim's choice.
        let ds = dataset();
        let th = Thresholds::new(ThresholdScheme::MFraction(0.6), &ds).unwrap();
        let m = ClusterModel::fit(&ds, &members(&[3, 4, 5])).unwrap();
        let best_dims = m.select_dims(&th);
        let best = m.cluster_score(&best_dims, &th);
        // Enumerate all 2³ subsets.
        for mask in 0u32..8 {
            let dims: Vec<DimId> = (0..3).filter(|b| mask >> b & 1 == 1).map(DimId).collect();
            let score = m.cluster_score(&dims, &th);
            assert!(
                score <= best + 1e-12,
                "subset {dims:?} scored {score} > best {best}"
            );
        }
    }

    #[test]
    fn better_dimension_contributes_more() {
        // Tighter dimension (smaller dispersion) must have larger φᵢⱼ
        // (design goal #2 in Sec. 3).
        let ds = Dataset::from_rows(
            4,
            2,
            vec![
                0.0, 0.0, //
                0.1, 1.0, //
                0.2, 2.0, //
                100.0, 100.0, // spreads the global variance
            ],
        )
        .unwrap();
        let th = Thresholds::new(ThresholdScheme::MFraction(1.0), &ds).unwrap();
        let m = ClusterModel::fit(&ds, &members(&[0, 1, 2])).unwrap();
        let tight = m.dim_score(DimId(0), &th);
        let loose = m.dim_score(DimId(1), &th);
        assert!(tight > loose);
    }

    #[test]
    fn singleton_cluster_scores_zero_everywhere() {
        let ds = dataset();
        let th = Thresholds::new(ThresholdScheme::MFraction(0.5), &ds).unwrap();
        let m = ClusterModel::fit(&ds, &members(&[2])).unwrap();
        for j in ds.dim_ids() {
            let s = m.dim_score(j, &th);
            assert!(s == 0.0 || s.is_infinite() && s < 0.0);
        }
    }

    #[test]
    fn constant_dimension_never_selected() {
        let ds = Dataset::from_rows(3, 2, vec![1.0, 5.0, 2.0, 5.0, 3.0, 5.0]).unwrap();
        let th = Thresholds::new(ThresholdScheme::MFraction(0.5), &ds).unwrap();
        let m = ClusterModel::fit(&ds, &members(&[0, 1, 2])).unwrap();
        let dims = m.select_dims(&th);
        assert!(!dims.contains(&DimId(1)));
        assert_eq!(m.dim_score(DimId(1), &th), f64::NEG_INFINITY);
        // cluster_score treats the degenerate dimension as zero.
        assert_eq!(m.cluster_score(&[DimId(1)], &th), 0.0);
    }

    #[test]
    fn total_score_normalizes_by_nd() {
        assert_eq!(total_score(&[6.0, 4.0], 5, 2), 1.0);
        assert_eq!(total_score(&[], 5, 2), 0.0);
        assert_eq!(total_score(&[1.0], 0, 2), 0.0);
    }

    #[test]
    fn assignment_gain_prefers_nearby_objects() {
        let ds = dataset();
        let th = Thresholds::new(ThresholdScheme::MFraction(0.5), &ds).unwrap();
        let rep = ds.row(ObjectId(0)).to_vec();
        let dims = [DimId(0)];
        let near = assignment_gain(&ds, ObjectId(1), &rep, &dims, &th, 3);
        let far = assignment_gain(&ds, ObjectId(3), &rep, &dims, &th, 3);
        assert!(near > 0.0, "near object should improve the score");
        assert!(far < 0.0, "far object should worsen the score");
        assert!(near > far);
    }

    #[test]
    fn assignment_gain_empty_dims_is_zero() {
        let ds = dataset();
        let th = Thresholds::new(ThresholdScheme::MFraction(0.5), &ds).unwrap();
        let rep = ds.row(ObjectId(0)).to_vec();
        assert_eq!(assignment_gain(&ds, ObjectId(1), &rep, &[], &th, 3), 0.0);
    }

    #[test]
    fn columnar_fit_equals_naive_fit_exactly() {
        let ds = dataset();
        let th = Thresholds::new(ThresholdScheme::PValue(0.1), &ds).unwrap();
        for members in [
            members(&[0, 1, 2]),
            members(&[3, 4, 5]),
            members(&[1, 3, 5, 0]),
        ] {
            let fast =
                ClusterModel::fit_with_scratch(&ds, &members, &mut FitScratch::new()).unwrap();
            let naive = ClusterModel::fit_naive(&ds, &members).unwrap();
            assert_eq!(fast.size(), naive.size());
            for j in ds.dim_ids() {
                assert_eq!(fast.summary(j), naive.summary(j), "summary mismatch at {j}");
            }
            assert_eq!(fast.select_dims(&th), naive.select_dims(&th));
        }
    }

    #[test]
    fn row_variants_equal_scalar_variants() {
        let ds = dataset();
        let th = Thresholds::new(ThresholdScheme::MFraction(0.5), &ds).unwrap();
        let m = ClusterModel::fit(&ds, &members(&[0, 1, 2])).unwrap();
        let t_row = th.row(m.size());
        assert_eq!(m.select_dims(&th), m.select_dims_row(&t_row));
        let dims: Vec<DimId> = ds.dim_ids().collect();
        assert_eq!(
            m.cluster_score(&dims, &th),
            m.cluster_score_row(&dims, &t_row)
        );
        let rep = ds.row(ObjectId(0)).to_vec();
        for o in ds.object_ids() {
            assert_eq!(
                assignment_gain(&ds, o, &rep, &dims, &th, m.size()),
                assignment_gain_row(ds.row(o), &rep, &dims, &th.row(m.size()))
            );
        }
    }

    /// A 30×7 dataset with enough spread to make selections non-trivial.
    fn wide_dataset(seed: u64) -> Dataset {
        use rand::Rng;
        let mut rng = sspc_common::rng::seeded_rng(seed);
        let (n, d) = (30, 7);
        let mut values = vec![0.0f64; n * d];
        for v in values.iter_mut() {
            *v = rng.gen_range(-50.0..50.0);
        }
        // Dims 0..2 compact for the first half of the objects.
        for o in 0..n / 2 {
            values[o * d] = 5.0 + rng.gen_range(-0.5..0.5);
            values[o * d + 1] = -3.0 + rng.gen_range(-0.5..0.5);
        }
        Dataset::from_rows(n, d, values).unwrap()
    }

    #[test]
    fn zero_selection_score_bits_match_batch_path() {
        // A cluster selecting no dimensions scores the empty sum, which
        // `Iterator::sum::<f64>` folds from -0.0; the columnar fit and the
        // row-major reference fit must produce the same bits.
        let ds = wide_dataset(21);
        // Scattered members with a vanishing threshold: nothing selected.
        let members: Vec<ObjectId> = (15..30).map(ObjectId).collect();
        let t_row: Vec<f64> = vec![1e-300; ds.n_dims()];
        let fast = ClusterModel::fit_with_scratch(&ds, &members, &mut FitScratch::new()).unwrap();
        let naive = ClusterModel::fit_naive(&ds, &members).unwrap();
        let dims = fast.select_dims_row(&t_row);
        assert!(dims.is_empty(), "nothing should be selected");
        assert_eq!(naive.select_dims_row(&t_row), dims);
        let score = fast.cluster_score_row(&dims, &t_row);
        assert_eq!(
            score.to_bits(),
            naive.cluster_score_row(&dims, &t_row).to_bits()
        );
        assert_eq!(score.to_bits(), (-0.0f64).to_bits(), "empty-sum bits");
    }

    #[test]
    fn unrolled_gain_matches_sequential_reference() {
        // The unroll must preserve the exact left-to-right accumulation
        // order; compare against a straightforward sequential fold for dim
        // counts covering every remainder case.
        let ds = wide_dataset(9);
        let th = Thresholds::new(ThresholdScheme::MFraction(0.5), &ds).unwrap();
        let t_row = th.row(10);
        let rep = ds.row(ObjectId(1)).to_vec();
        for n_dims in 0..=ds.n_dims() {
            let dims: Vec<DimId> = (0..n_dims).map(DimId).collect();
            for o in ds.object_ids() {
                let row = ds.row(o);
                let reference: f64 = dims
                    .iter()
                    .map(|&j| {
                        let t = t_row[j.index()];
                        if t <= 0.0 {
                            return 0.0;
                        }
                        let diff = row[j.index()] - rep[j.index()];
                        1.0 - diff * diff / t
                    })
                    .sum();
                let unrolled = assignment_gain_row(row, &rep, &dims, &t_row);
                assert_eq!(
                    unrolled.to_bits(),
                    reference.to_bits(),
                    "gain bits differ for {n_dims} dims at {o}"
                );
            }
        }
    }

    #[test]
    fn transposed_gains_match_row_kernel_bitwise() {
        // The transposed kernel must reproduce `assignment_gain_row`
        // ulp-for-ulp for every (object, candidate) pair — including
        // degenerate (t ≤ 0) threshold entries, empty dim lists, and
        // blocks that don't start at object 0 or span the whole dataset.
        let ds = wide_dataset(17);
        let th = Thresholds::new(ThresholdScheme::MFraction(0.5), &ds).unwrap();
        let t_row = th.row(10);
        // A second row with a degenerate entry: the 0.0-term add is the
        // -0.0 → +0.0 subtlety the kernel must preserve.
        let mut degenerate_row = t_row.to_vec();
        degenerate_row[1] = 0.0;
        let rep_a = ds.row(ObjectId(0)).to_vec();
        let rep_b = ds.row(ObjectId(20)).to_vec();
        let dims_a: Vec<DimId> = (0..5).map(DimId).collect();
        let dims_b: Vec<DimId> = vec![DimId(1)];
        let candidates = [
            AssignCandidate {
                rep: &rep_a,
                dims: &dims_a,
                threshold_row: &t_row,
            },
            AssignCandidate {
                rep: &rep_b,
                dims: &dims_b,
                threshold_row: &degenerate_row,
            },
            AssignCandidate {
                rep: &rep_a,
                dims: &[],
                threshold_row: &t_row,
            },
        ];
        let mut gains = Vec::new();
        for (block_start, block_len) in [(0, ds.n_objects()), (3, 11), (25, 5)] {
            assignment_gains_transposed(&ds, block_start, block_len, &candidates, &mut gains);
            for i in 0..block_len {
                let o = ObjectId(block_start + i);
                let row = ds.row(o);
                let mut best_gain = 0.0f64;
                let mut best = None;
                for (c, cand) in candidates.iter().enumerate() {
                    let row_gain =
                        assignment_gain_row(row, cand.rep, cand.dims, cand.threshold_row);
                    assert_eq!(
                        gains[c * block_len + i].to_bits(),
                        row_gain.to_bits(),
                        "gain bits differ at {o} candidate {c} (block {block_start}+{block_len})"
                    );
                    if row_gain > best_gain {
                        best_gain = row_gain;
                        best = Some(c);
                    }
                }
                assert_eq!(
                    assignment_argmax(&gains, block_len, i),
                    best,
                    "argmax decision differs at {o}"
                );
            }
        }
    }

    #[test]
    fn p_scheme_select_dims_also_picks_planted_dims() {
        let ds = dataset();
        let th = Thresholds::new(ThresholdScheme::PValue(0.1), &ds).unwrap();
        let m = ClusterModel::fit(&ds, &members(&[3, 4, 5])).unwrap();
        let dims = m.select_dims(&th);
        assert!(dims.contains(&DimId(0)));
        assert!(dims.contains(&DimId(2)));
        assert!(!dims.contains(&DimId(1)));
    }
}
