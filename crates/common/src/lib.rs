//! Shared substrate for the SSPC reproduction.
//!
//! This crate provides the pieces every other crate in the workspace builds
//! on:
//!
//! * [`Dataset`] — a dense numerical dataset with typed indices
//!   ([`ObjectId`], [`DimId`]), a column-major mirror for per-dimension
//!   kernels, and cached per-dimension global statistics.
//! * [`parallel`] — deterministic data-parallel helpers (std-thread based;
//!   results are bit-identical at any thread count) plus the bounded
//!   [`parallel::TaskQueue`] that feeds long-lived worker pools (the batch
//!   server's job queue).
//! * [`json`] — dependency-free JSON parsing/serialization (the offline
//!   environment has no serde) used by the batch server, the CLI client
//!   mode, and the bench records.
//! * [`hist`] — allocation-free log-linear histograms with a documented
//!   quantile error bound (the batch server's latency observability).
//! * [`stats`] — descriptive statistics (mean / variance / median computed
//!   the way the paper's objective function needs them) and the special
//!   functions backing the probabilistic selection-threshold scheme
//!   (log-gamma, regularized incomplete gamma, chi-square CDF and quantile).
//! * [`rng`] — deterministic seeding and sampling helpers so that every
//!   experiment in the workspace is reproducible from a single `u64` seed.
//! * [`Error`] — the shared error type for fallible public APIs.
//!
//! On top of the substrate sits the workspace's one **abstract clustering
//! contract** ([`clusterer`]): the [`ProjectedClusterer`] trait, the
//! canonical [`Clustering`] result, and the [`Supervision`] input type that
//! semi-supervised algorithms consume and unsupervised ones ignore. No
//! concrete algorithm lives here — implementations are in `sspc` (core) and
//! `sspc-baselines`, the dynamic registry and experiment protocol in
//! `sspc-api`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cancel;
pub mod clusterer;
mod dataset;
mod error;
pub mod fault;
pub mod hist;
mod ids;
pub mod io;
pub mod json;
pub mod linalg;
pub mod parallel;
pub mod rng;
pub mod stats;
mod supervision;

pub use clusterer::{Clustering, ObjectiveSense, ProjectedClusterer};
pub use dataset::{Dataset, DatasetBuilder};
pub use error::Error;
pub use ids::{ClusterId, DimId, ObjectId};
pub use supervision::Supervision;

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;
