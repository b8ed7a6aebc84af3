use crate::ThresholdScheme;
use sspc_common::{Error, Result};

/// Tunable parameters of [`crate::Sspc`].
///
/// Only `k` (the target number of clusters) and the [`ThresholdScheme`]
/// correspond to user-facing knobs in the paper; the paper stresses that the
/// threshold parameter is *not critical* (Sec. 4.1 recommends
/// `0.3 ≤ m ≤ 0.7` or `0.01 ≤ p ≤ 0.2`). Everything else is an internal
/// constant of the published algorithm, defaulted to the values the paper
/// uses (`c = 3` grid-building dimensions, `g = 20` grids per seed group)
/// and exposed for the ablation studies in the bench crate.
#[derive(Debug, Clone, PartialEq)]
pub struct SspcParams {
    /// Target number of clusters `k`.
    pub k: usize,
    /// Selection-threshold scheme for `ŝ²ᵢⱼ` (paper Sec. 4.1).
    pub threshold: ThresholdScheme,
    /// Number of dimensions used to build each grid (`c` in the paper;
    /// "normally a three-dimensional grid serves the purpose quite well").
    pub grid_dims: usize,
    /// Number of grids built per seed group (`g` in the paper's analysis;
    /// 20 in the Sec. 4.5 figures).
    pub grids_per_group: usize,
    /// Histogram bins per grid dimension. The paper leaves the cell size
    /// unspecified; 5 bins per dimension keeps expected cell occupancy
    /// sensible for the paper's dataset sizes.
    pub bins_per_dim: usize,
    /// Number of *public* seed groups shared by clusters without input
    /// knowledge. `None` (default) means `2k`, mirroring the "some large
    /// number" of the paper while bounding initialization cost.
    pub public_groups: Option<usize>,
    /// Terminate after this many consecutive iterations without an
    /// improvement of the best objective score.
    pub max_stall: usize,
    /// Hard cap on iterations, as a defense against pathological cycling.
    pub max_iterations: usize,
    /// If true (default), each labeled object is pre-assigned to its
    /// class's cluster before the free assignment pass. The paper uses
    /// labels for initialization only; pinning additionally keeps the
    /// labeled objects from migrating, which matches the semantics of a
    /// hard label. The ablation bench flips this off.
    pub pin_labeled_objects: bool,
    /// Minimum number of seeds a seed group should contain; peak cells with
    /// fewer objects are widened by absorbing neighboring cells.
    pub min_seeds: usize,
    /// Maximum number of seeds kept per group (the first `max_seeds` found,
    /// center cell first). Peak cells grow linearly with `n`, and unbounded
    /// seed lists would make the max-min anchor scan quadratic in `n` —
    /// the cap preserves the paper's O(knd) complexity claim (Sec. 4.4).
    pub max_seeds: usize,
    /// If true (default, the published behaviour), non-bad clusters replace
    /// their representative by the member-wise median each iteration
    /// (Sec. 4.3). `false` keeps the previous representative — an ablation
    /// knob for quantifying what the median replacement buys.
    pub median_representatives: bool,
    /// If true (default, the published behaviour), seed-group search
    /// hill-climbs from its starting cell. `false` uses the starting cell
    /// as-is — an ablation knob for the localized search of Sec. 4.2.1.
    pub hill_climbing: bool,
    /// Threshold scheme used during **seed-group construction** (the
    /// `SelectDim(Cᵢ′)` candidate filter and the seed groups' estimated
    /// dimensions). `Some(p)` uses the probabilistic scheme with that bound
    /// — the default `Some(0.01)` matches the value the paper's Sec. 4.5
    /// analysis (Fig. 1) is computed with. `None` reuses the run's
    /// [`SspcParams::threshold`].
    ///
    /// Why this exists: with the `m`-scheme, a temporary cluster of 5
    /// labeled objects lets ~15 % of irrelevant dimensions through by
    /// chance (the sample variance of 5 points scatters widely), flooding
    /// the grid-candidate set; the `p`-scheme's chi-square threshold adapts
    /// to the tiny sample and keeps the false-candidate rate at `p`. This
    /// is exactly the regime the paper's own analysis assumes.
    pub init_p: Option<f64>,
}

impl SspcParams {
    /// Parameters with the paper's defaults for a given `k`
    /// (threshold `m = 0.5`).
    pub fn new(k: usize) -> Self {
        SspcParams {
            k,
            threshold: ThresholdScheme::MFraction(0.5),
            grid_dims: 3,
            grids_per_group: 20,
            bins_per_dim: 5,
            public_groups: None,
            max_stall: 5,
            max_iterations: 60,
            pin_labeled_objects: true,
            min_seeds: 3,
            max_seeds: 32,
            median_representatives: true,
            hill_climbing: true,
            init_p: Some(0.01),
        }
    }

    /// Sets the seed-group construction threshold: `Some(p)` for the
    /// probabilistic scheme (default `Some(0.01)`), `None` to reuse the
    /// run's threshold scheme.
    pub fn with_init_p(mut self, init_p: Option<f64>) -> Self {
        self.init_p = init_p;
        self
    }

    /// Enables or disables the median-representative replacement
    /// (ablation knob; the paper's algorithm uses `true`).
    pub fn with_median_representatives(mut self, enabled: bool) -> Self {
        self.median_representatives = enabled;
        self
    }

    /// Enables or disables localized hill-climbing during seed-group search
    /// (ablation knob; the paper's algorithm uses `true`).
    pub fn with_hill_climbing(mut self, enabled: bool) -> Self {
        self.hill_climbing = enabled;
        self
    }

    /// Replaces the threshold scheme.
    pub fn with_threshold(mut self, threshold: ThresholdScheme) -> Self {
        self.threshold = threshold;
        self
    }

    /// Replaces the grid shape (`c` building dimensions, bins per
    /// dimension).
    pub fn with_grid(mut self, grid_dims: usize, bins_per_dim: usize) -> Self {
        self.grid_dims = grid_dims;
        self.bins_per_dim = bins_per_dim;
        self
    }

    /// Replaces the number of grids built per seed group.
    pub fn with_grids_per_group(mut self, g: usize) -> Self {
        self.grids_per_group = g;
        self
    }

    /// Replaces the number of public seed groups.
    pub fn with_public_groups(mut self, groups: usize) -> Self {
        self.public_groups = Some(groups);
        self
    }

    /// Replaces the termination controls.
    pub fn with_termination(mut self, max_stall: usize, max_iterations: usize) -> Self {
        self.max_stall = max_stall;
        self.max_iterations = max_iterations;
        self
    }

    /// Enables or disables pinning of labeled objects.
    pub fn with_pinning(mut self, pin: bool) -> Self {
        self.pin_labeled_objects = pin;
        self
    }

    /// Effective number of public seed groups.
    pub fn effective_public_groups(&self) -> usize {
        self.public_groups.unwrap_or(2 * self.k).max(1)
    }

    /// Validates the parameters against their documented domains.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on any violation.
    pub fn validate(&self) -> Result<()> {
        if self.k == 0 {
            return Err(Error::InvalidParameter("k must be positive".into()));
        }
        self.threshold.validate()?;
        if self.grid_dims == 0 {
            return Err(Error::InvalidParameter("grid_dims must be positive".into()));
        }
        if self.grids_per_group == 0 {
            return Err(Error::InvalidParameter(
                "grids_per_group must be positive".into(),
            ));
        }
        if self.bins_per_dim < 2 {
            return Err(Error::InvalidParameter(
                "bins_per_dim must be at least 2".into(),
            ));
        }
        if self.bins_per_dim > u16::MAX as usize + 1 {
            // Bound chosen so the initializer's per-dimension bin cache can
            // store indices in u16; no meaningful histogram needs more.
            return Err(Error::InvalidParameter(format!(
                "bins_per_dim must be at most 65536, got {}",
                self.bins_per_dim
            )));
        }
        if self.max_stall == 0 || self.max_iterations == 0 {
            return Err(Error::InvalidParameter(
                "max_stall and max_iterations must be positive".into(),
            ));
        }
        if self.min_seeds == 0 {
            return Err(Error::InvalidParameter("min_seeds must be positive".into()));
        }
        if self.max_seeds < self.min_seeds {
            return Err(Error::InvalidParameter(format!(
                "max_seeds ({}) must be at least min_seeds ({})",
                self.max_seeds, self.min_seeds
            )));
        }
        if let Some(p) = self.init_p {
            if !(p > 0.0 && p < 1.0) {
                return Err(Error::InvalidParameter(format!(
                    "init_p must be in (0, 1), got {p}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_match_paper() {
        let p = SspcParams::new(5);
        p.validate().unwrap();
        assert_eq!(p.grid_dims, 3);
        assert_eq!(p.grids_per_group, 20);
        assert_eq!(p.effective_public_groups(), 10);
    }

    #[test]
    fn builder_methods_compose() {
        let p = SspcParams::new(3)
            .with_threshold(ThresholdScheme::PValue(0.05))
            .with_grid(2, 8)
            .with_grids_per_group(10)
            .with_public_groups(7)
            .with_termination(2, 30)
            .with_pinning(false);
        p.validate().unwrap();
        assert_eq!(p.threshold, ThresholdScheme::PValue(0.05));
        assert_eq!(p.grid_dims, 2);
        assert_eq!(p.bins_per_dim, 8);
        assert_eq!(p.grids_per_group, 10);
        assert_eq!(p.effective_public_groups(), 7);
        assert_eq!(p.max_stall, 2);
        assert!(!p.pin_labeled_objects);
    }

    #[test]
    fn rejects_out_of_domain_values() {
        assert!(SspcParams::new(0).validate().is_err());
        assert!(SspcParams::new(2).with_grid(0, 5).validate().is_err());
        assert!(SspcParams::new(2).with_grid(3, 1).validate().is_err());
        assert!(SspcParams::new(2)
            .with_grids_per_group(0)
            .validate()
            .is_err());
        assert!(SspcParams::new(2)
            .with_termination(0, 10)
            .validate()
            .is_err());
        assert!(SspcParams::new(2)
            .with_termination(3, 0)
            .validate()
            .is_err());
        let mut p = SspcParams::new(2);
        p.min_seeds = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn invalid_threshold_fails_validation() {
        let p = SspcParams::new(2).with_threshold(ThresholdScheme::MFraction(0.0));
        assert!(p.validate().is_err());
    }
}
