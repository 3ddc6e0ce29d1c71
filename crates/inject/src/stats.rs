//! Binomial proportion statistics (Wilson score interval, 95%).

/// A binomial proportion: `successes` out of `trials`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Proportion {
    /// Number of successes.
    pub successes: u64,
    /// Number of trials.
    pub trials: u64,
}

impl Proportion {
    /// Build a proportion. `successes` is clamped to `trials`: campaign
    /// tallies are computed by subtraction in places, and an off-by-one
    /// there must degrade to a saturated estimate, not propagate `p > 1`
    /// into the Wilson square root (which would go NaN in release builds
    /// where the debug assertion is compiled out).
    #[must_use]
    pub fn new(successes: u64, trials: u64) -> Self {
        Self {
            successes: successes.min(trials),
            trials,
        }
    }

    /// The point estimate (0 when there are no trials). Saturates at 1 for
    /// a hand-built proportion whose `successes` exceed `trials`.
    #[must_use]
    pub fn point(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.successes.min(self.trials) as f64 / self.trials as f64
        }
    }

    /// The Wilson score 95% confidence interval `(lo, hi)`.
    ///
    /// Wilson is well-behaved at the extremes (0 or all successes), which
    /// matters here because several codes reach 0% SDC in a finite sample.
    /// With no trials at all the interval is the vacuous `(0, 1)` rather
    /// than a division by zero.
    #[must_use]
    pub fn wilson95(&self) -> (f64, f64) {
        if self.trials == 0 {
            return (0.0, 1.0);
        }
        let z = 1.959_963_985; // 97.5th percentile of the normal
        let n = self.trials as f64;
        let p = self.point();
        let z2 = z * z;
        let denom = 1.0 + z2 / n;
        let centre = p + z2 / (2.0 * n);
        let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
        (
            ((centre - half) / denom).max(0.0),
            ((centre + half) / denom).min(1.0),
        )
    }
}

impl std::fmt::Display for Proportion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.trials == 0 {
            return write!(f, "n/a (0 trials)");
        }
        let (lo, hi) = self.wilson95();
        write!(
            f,
            "{:.2}% [{:.2}%, {:.2}%]",
            self.point() * 100.0,
            lo * 100.0,
            hi * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_estimates() {
        assert_eq!(Proportion::new(0, 0).point(), 0.0);
        assert_eq!(Proportion::new(1, 4).point(), 0.25);
    }

    #[test]
    fn wilson_contains_point_and_is_ordered() {
        for (s, n) in [(0u64, 100u64), (1, 100), (50, 100), (100, 100), (3, 10_000)] {
            let p = Proportion::new(s, n);
            let (lo, hi) = p.wilson95();
            assert!(
                lo <= p.point() + 1e-12 && p.point() <= hi + 1e-12,
                "{s}/{n}"
            );
            assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
        }
    }

    #[test]
    fn zero_successes_has_nonzero_upper_bound() {
        let (lo, hi) = Proportion::new(0, 1000).wilson95();
        assert_eq!(lo, 0.0);
        assert!(hi > 0.0 && hi < 0.01);
    }

    #[test]
    fn interval_narrows_with_more_trials() {
        let wide = Proportion::new(5, 100).wilson95();
        let narrow = Proportion::new(500, 10_000).wilson95();
        assert!((narrow.1 - narrow.0) < (wide.1 - wide.0));
    }

    #[test]
    fn zero_trials_is_finite_everywhere() {
        let p = Proportion::new(0, 0);
        assert_eq!(p.point(), 0.0);
        let (lo, hi) = p.wilson95();
        assert_eq!((lo, hi), (0.0, 1.0));
        assert!(lo.is_finite() && hi.is_finite());
        assert_eq!(p.to_string(), "n/a (0 trials)");
    }

    #[test]
    fn all_successes_is_finite_and_pinned_to_one() {
        for n in [1u64, 2, 100, 1_000_000] {
            let p = Proportion::new(n, n);
            assert_eq!(p.point(), 1.0, "n={n}");
            let (lo, hi) = p.wilson95();
            assert!(lo.is_finite() && hi.is_finite(), "n={n}");
            assert!(lo > 0.0 && lo < 1.0, "lower bound strictly inside: n={n}");
            assert_eq!(hi, 1.0, "n={n}");
        }
    }

    #[test]
    fn overshoot_saturates_instead_of_going_nan() {
        // Release builds compile out the debug assertion; the estimate must
        // stay well-defined anyway.
        let p = Proportion {
            successes: 7,
            trials: 5,
        };
        let via_new = Proportion::new(u64::MAX, 5);
        assert_eq!(via_new.successes, 5);
        let (lo, hi) = p.wilson95();
        assert!(lo.is_finite() && hi.is_finite());
        assert!((0.0..=1.0).contains(&lo) && (0.0..=1.0).contains(&hi));
    }
}
