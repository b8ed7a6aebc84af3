//! SSPC — Semi-Supervised Projected Clustering.
//!
//! A faithful reproduction of *"On Discovery of Extremely Low-Dimensional
//! Clusters using Semi-Supervised Projected Clustering"* (Yip, Cheung & Ng,
//! ICDE 2005).
//!
//! # What SSPC does
//!
//! A **projected cluster** is a set of objects together with a set of
//! *relevant dimensions* such that the members are close to each other in
//! the subspace those dimensions span, but not elsewhere. In
//! high-dimensional data (gene-expression matrices are the motivating
//! example) the relevant dimensions can be fewer than 5 % — even 1 % — of
//! all dimensions, which defeats both full-space clustering algorithms and
//! earlier projected-clustering algorithms whose dimension selection relies
//! on full-space distances.
//!
//! SSPC contributes:
//!
//! 1. A robust objective function ([`objective`]) that folds dimension
//!    selection into a single maximization and normalizes each dimension's
//!    contribution by a per-(cluster, dimension) *selection threshold*
//!    ([`ThresholdScheme`]) instead of by the number of selected dimensions.
//! 2. Optional **semi-supervision** ([`Supervision`]): labeled objects
//!    ("these samples belong to class 2") and labeled dimensions ("this
//!    gene is relevant to class 2") guide the construction of seed groups,
//!    from which cluster medoids are drawn.
//! 3. A k-medoid-style iterative algorithm ([`Sspc`]) with an outlier list,
//!    best-state bookkeeping, and bad-cluster medoid replacement.
//!
//! # Quick start
//!
//! Build parameters with the builder API, finish into an [`Sspc`]
//! clusterer, and run it through the workspace-wide
//! [`ProjectedClusterer`] trait — every algorithm in the workspace
//! (`sspc-baselines`, the `sspc-api` registry) speaks the same contract
//! and returns the same canonical [`Clustering`] result:
//!
//! ```
//! use sspc::{ProjectedClusterer, Sspc, SspcParams, Supervision, ThresholdScheme};
//! use sspc_common::Dataset;
//!
//! // Six objects in 4-D: two clusters, each compact in two dimensions.
//! let dataset = Dataset::from_rows(6, 4, vec![
//!     1.0, 1.1, 50.0, 90.0,
//!     1.1, 0.9, 10.0, 30.0,
//!     0.9, 1.0, 80.0, 60.0,
//!     9.0, 9.1, 20.0, 70.0,
//!     9.1, 8.9, 60.0, 20.0,
//!     8.9, 9.0, 40.0, 50.0,
//! ]).unwrap();
//!
//! let clusterer = Sspc::new(
//!     SspcParams::new(2).with_threshold(ThresholdScheme::MFraction(0.5)),
//! ).unwrap();
//! let clustering = clusterer
//!     .cluster(&dataset, &Supervision::none(), 7)
//!     .unwrap();
//! assert_eq!(clustering.algorithm(), "sspc");
//! assert_eq!(clustering.n_clusters(), 2);
//! ```
//!
//! The trait impl is [`Sspc::run`] plus a conversion: `run` returns the
//! same result as an [`SspcResult`] (assignment, selected dimensions,
//! per-cluster φᵢ scores, objective, iterations).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod algorithm;
mod cluster;
pub mod fuzzy;
mod grid;
pub mod objective;
mod params;
mod result;
mod seeds;
mod threshold;
pub mod validation;

pub use algorithm::{PhaseTimings, Sspc};
pub use fuzzy::FuzzySupervision;
pub use params::SspcParams;
pub use result::SspcResult;
// The supervision input type and the unified clustering contract live in
// `sspc_common::clusterer`; re-exported here so `sspc::Supervision` (and
// friends) remain the natural paths for core users.
pub use sspc_common::{Clustering, ObjectiveSense, ProjectedClusterer, Supervision};
pub use threshold::{ThresholdScheme, Thresholds};
