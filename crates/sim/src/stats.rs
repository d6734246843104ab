//! Measurement primitives: the cumulative distribution behind "what
//! fraction of pages causes what fraction of refetches" (Figure 5 of
//! the paper) — [`Cdf`].

use std::fmt;

/// Builds the cumulative distribution used in Figure 5 of the paper:
/// sort contributors descending by weight and report what cumulative
/// fraction of the total the top x% of contributors account for.
///
/// # Example
///
/// ```
/// use rnuma_sim::Cdf;
///
/// // Four pages with refetch counts; the top 25% of pages (one page)
/// // accounts for 80/100 = 80% of refetches.
/// let cdf = Cdf::from_weights("refetches-by-page", vec![80, 10, 5, 5]);
/// let pts = cdf.points();
/// assert!((pts[0].1 - 0.8).abs() < 1e-9);
/// assert!((pts[3].1 - 1.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct Cdf {
    name: &'static str,
    /// `(fraction_of_contributors, cumulative_fraction_of_weight)` pairs,
    /// one per contributor, in descending weight order.
    points: Vec<(f64, f64)>,
    total: u64,
    contributors: usize,
}

impl Cdf {
    /// Builds a CDF from per-contributor weights (e.g., refetches per page).
    ///
    /// Zero-weight contributors still count toward the x-axis (they are the
    /// flat tail of the paper's Figure 5). An empty input yields an empty
    /// CDF with no points.
    #[must_use]
    pub fn from_weights(name: &'static str, mut weights: Vec<u64>) -> Cdf {
        weights.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = weights.iter().sum();
        let n = weights.len();
        let mut points = Vec::with_capacity(n);
        let mut running = 0u64;
        for (i, w) in weights.into_iter().enumerate() {
            running += w;
            let frac_pages = (i + 1) as f64 / n as f64;
            let frac_weight = if total == 0 {
                0.0
            } else {
                running as f64 / total as f64
            };
            points.push((frac_pages, frac_weight));
        }
        Cdf {
            name,
            points,
            total,
            contributors: n,
        }
    }

    /// The `(x, y)` points of the CDF, ascending in x.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Cumulative weight fraction accounted for by the top `frac` (0–1)
    /// of contributors. Returns 0.0 for an empty CDF.
    #[must_use]
    pub fn weight_of_top(&self, frac: f64) -> f64 {
        let frac = frac.clamp(0.0, 1.0);
        let mut best = 0.0;
        for &(x, y) in &self.points {
            if x <= frac + 1e-12 {
                best = y;
            } else {
                break;
            }
        }
        best
    }

    /// Total weight across all contributors.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of contributors.
    #[must_use]
    pub fn contributors(&self) -> usize {
        self.contributors
    }

    /// Label given at construction.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl fmt::Display for Cdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} contributors, total weight {}",
            self.name, self.contributors, self.total
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_matches_paper_shape_description() {
        // "less than 10% of the remote pages account for over 80% of the
        // capacity and conflict misses" — construct such a distribution
        // and check the reader.
        let mut weights = vec![0u64; 100];
        for w in weights.iter_mut().take(9) {
            *w = 100; // 9% of pages: 900 refetches
        }
        for w in weights.iter_mut().skip(9).take(41) {
            *w = 4; // the rest spread thinly: 164
        }
        let cdf = Cdf::from_weights("t", weights);
        assert!(cdf.weight_of_top(0.10) > 0.80);
        assert!((cdf.weight_of_top(1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_handles_all_zero_weights() {
        let cdf = Cdf::from_weights("z", vec![0, 0, 0]);
        assert_eq!(cdf.total(), 0);
        assert_eq!(cdf.weight_of_top(1.0), 0.0);
        assert_eq!(cdf.points().len(), 3);
    }

    #[test]
    fn cdf_empty_input() {
        let cdf = Cdf::from_weights("e", vec![]);
        assert_eq!(cdf.points().len(), 0);
        assert_eq!(cdf.weight_of_top(0.5), 0.0);
    }

    #[test]
    fn cdf_is_monotone_nondecreasing() {
        let cdf = Cdf::from_weights("m", vec![5, 9, 1, 7, 3, 3, 8]);
        let pts = cdf.points();
        for w in pts.windows(2) {
            assert!(w[1].0 > w[0].0);
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }
}
