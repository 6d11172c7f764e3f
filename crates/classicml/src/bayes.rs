//! Multinomial naive Bayes — the classical bag-of-words baseline.
//!
//! The paper frames its text-side attack as text classification; naive
//! Bayes is the canonical reference classifier for BoW features and
//! completes the baseline suite (SVM / RFC / k-NN / NB). Features are
//! treated as (fractional) event counts, which the L1-normalized
//! occurrence-probability vectors of `textrep` are.

use serde::{Deserialize, Serialize};

/// Multinomial naive Bayes with Laplace (add-α) smoothing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NaiveBayes {
    /// `log P(class)`.
    log_priors: Vec<f64>,
    /// `log P(feature | class)`, `[class][feature]`.
    log_likelihoods: Vec<Vec<f64>>,
    dim: usize,
}

impl NaiveBayes {
    /// Fits with smoothing parameter `alpha` (1.0 = Laplace).
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or ragged, lengths mismatch, `alpha` is
    /// not positive, or any feature value is negative.
    pub fn fit(x: &[Vec<f32>], y: &[u32], alpha: f64) -> Self {
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(x.len(), y.len(), "one label per row");
        assert!(alpha > 0.0 && alpha.is_finite(), "alpha must be positive");
        let dim = x[0].len();
        assert!(x.iter().all(|r| r.len() == dim), "ragged feature rows");
        assert!(
            x.iter().all(|r| r.iter().all(|&v| v >= 0.0)),
            "multinomial NB needs non-negative counts"
        );
        let n_classes = y.iter().copied().max().expect("non-empty") as usize + 1;

        let mut class_counts = vec![0usize; n_classes];
        let mut feature_sums = vec![vec![0.0f64; dim]; n_classes];
        for (row, &label) in x.iter().zip(y) {
            class_counts[label as usize] += 1;
            for (s, &v) in feature_sums[label as usize].iter_mut().zip(row) {
                *s += v as f64;
            }
        }
        let log_priors = class_counts
            .iter()
            .map(|&c| ((c.max(1)) as f64 / x.len() as f64).ln())
            .collect();
        let log_likelihoods = feature_sums
            .into_iter()
            .map(|sums| {
                let total: f64 = sums.iter().sum::<f64>() + alpha * dim as f64;
                sums.into_iter().map(|s| ((s + alpha) / total).ln()).collect()
            })
            .collect();
        Self { log_priors, log_likelihoods, dim }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.log_priors.len()
    }

    /// Per-class log-posterior scores (up to a constant) for one row.
    ///
    /// # Panics
    ///
    /// Panics on feature-width mismatch.
    pub fn log_scores(&self, row: &[f32]) -> Vec<f64> {
        assert_eq!(row.len(), self.dim, "feature width mismatch");
        self.log_priors
            .iter()
            .zip(&self.log_likelihoods)
            .map(|(&prior, ll)| {
                prior
                    + ll.iter()
                        .zip(row)
                        .map(|(&l, &v)| l * v as f64)
                        .sum::<f64>()
            })
            .collect()
    }

    /// Predicted class for one row (ties to the lower index).
    pub fn predict_one(&self, row: &[f32]) -> u32 {
        let scores = self.log_scores(row);
        let mut best = 0usize;
        for i in 1..scores.len() {
            if scores[i] > scores[best] {
                best = i;
            }
        }
        best as u32
    }

    /// Predictions for many rows.
    pub fn predict(&self, rows: &[Vec<f32>]) -> Vec<u32> {
        rows.iter().map(|r| self.predict_one(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two "vocabulary" distributions: class 0 uses features 0–1,
    /// class 1 uses features 2–3.
    fn corpus() -> (Vec<Vec<f32>>, Vec<u32>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..20 {
            let t = (i as f32 * 0.3).sin().abs() * 0.2;
            x.push(vec![0.6 + t, 0.4 - t, 0.0, 0.0]);
            y.push(0);
            x.push(vec![0.0, 0.0, 0.3 + t, 0.7 - t]);
            y.push(1);
        }
        (x, y)
    }

    #[test]
    fn separates_disjoint_vocabularies() {
        let (x, y) = corpus();
        let nb = NaiveBayes::fit(&x, &y, 1.0);
        assert_eq!(nb.predict(&x), y);
    }

    #[test]
    fn priors_reflect_class_frequencies() {
        let x = vec![vec![1.0f32]; 10];
        let y = vec![0u32, 0, 0, 0, 0, 0, 0, 0, 0, 1];
        let nb = NaiveBayes::fit(&x, &y, 1.0);
        // With identical likelihoods, the majority prior wins.
        assert_eq!(nb.predict_one(&[1.0]), 0);
    }

    #[test]
    fn smoothing_handles_unseen_features() {
        let (x, y) = corpus();
        let nb = NaiveBayes::fit(&x, &y, 1.0);
        // A probe using only features never seen with class 0 still
        // yields finite scores and a sane prediction.
        let scores = nb.log_scores(&[0.0, 0.0, 0.5, 0.5]);
        assert!(scores.iter().all(|s| s.is_finite()));
        assert_eq!(nb.predict_one(&[0.0, 0.0, 0.5, 0.5]), 1);
    }

    #[test]
    fn alpha_controls_regularization() {
        let (x, y) = corpus();
        let sharp = NaiveBayes::fit(&x, &y, 1e-6);
        let smooth = NaiveBayes::fit(&x, &y, 100.0);
        // Heavier smoothing flattens the likelihood gap between classes.
        let probe = vec![1.0f32, 0.0, 0.0, 0.0];
        let gap = |nb: &NaiveBayes| {
            let s = nb.log_scores(&probe);
            (s[0] - s[1]).abs()
        };
        assert!(gap(&sharp) > gap(&smooth));
    }

    #[test]
    fn deterministic() {
        let (x, y) = corpus();
        assert_eq!(NaiveBayes::fit(&x, &y, 1.0), NaiveBayes::fit(&x, &y, 1.0));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_counts() {
        NaiveBayes::fit(&[vec![-1.0]], &[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_zero_alpha() {
        NaiveBayes::fit(&[vec![1.0]], &[0], 0.0);
    }
}
