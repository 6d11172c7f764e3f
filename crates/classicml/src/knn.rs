//! k-nearest-neighbours — the natural baseline for overlap leakage.
//!
//! The paper attributes TM-1's strength to repeated routes: a test
//! profile often has a near-duplicate in training. A k-NN classifier
//! makes that mechanism explicit, so comparing it against the trained
//! models separates "the model memorized a twin" from "the model
//! generalized" (see the `ablation_spectral_baseline` family).

use serde::{Deserialize, Serialize};

/// Distance metric for [`KnnClassifier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KnnMetric {
    /// Euclidean (L2) distance.
    #[default]
    Euclidean,
    /// Manhattan (L1) distance — natural for the L1-normalized BoW
    /// probability vectors.
    Manhattan,
}

impl KnnMetric {
    /// Ranking distance between two dense rows. For
    /// [`KnnMetric::Euclidean`] this is the *squared* distance — `√` is
    /// strictly monotone on non-negative inputs, so neighbour ordering
    /// is unchanged and the per-pair `sqrt` is pure waste in a
    /// nearest-neighbour scan.
    fn rank_distance(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            KnnMetric::Euclidean => {
                a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>()
            }
            KnnMetric::Manhattan => a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum(),
        }
    }
}

/// A brute-force k-NN classifier with majority voting (distance ties
/// and vote ties resolve to the smaller index/class, deterministically).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnnClassifier {
    x: Vec<Vec<f32>>,
    y: Vec<u32>,
    k: usize,
    dim: usize,
    metric: KnnMetric,
    n_classes: usize,
}

impl KnnClassifier {
    /// Stores the training set.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or ragged, lengths mismatch, or `k == 0`.
    pub fn fit(x: &[Vec<f32>], y: &[u32], k: usize, metric: KnnMetric) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(x.len(), y.len(), "one label per row");
        let dim = x[0].len();
        assert!(x.iter().all(|r| r.len() == dim), "ragged feature rows");
        let n_classes = y.iter().copied().max().unwrap() as usize + 1;
        Self { x: x.to_vec(), y: y.to_vec(), k, dim, metric, n_classes }
    }

    /// Number of neighbours consulted.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Votes over the k nearest training rows given per-row distances.
    fn vote(&self, mut dists: Vec<(f32, usize)>) -> u32 {
        let k = self.k.min(dists.len());
        dists.select_nth_unstable_by(k - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut votes = vec![0usize; self.n_classes];
        for &(_, i) in &dists[..k] {
            votes[self.y[i] as usize] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by_key(|(i, &v)| (v, usize::MAX - i))
            .map(|(i, _)| i as u32)
            .expect("at least one class")
    }

    /// Predicts one dense row.
    ///
    /// # Panics
    ///
    /// Panics on feature-width mismatch.
    pub fn predict_one(&self, row: &[f32]) -> u32 {
        assert_eq!(row.len(), self.dim, "feature width mismatch");
        let dists: Vec<(f32, usize)> = self
            .x
            .iter()
            .enumerate()
            .map(|(i, t)| (self.metric.rank_distance(row, t), i))
            .collect();
        self.vote(dists)
    }

    /// Predicts many dense rows.
    pub fn predict(&self, rows: &[Vec<f32>]) -> Vec<u32> {
        rows.iter().map(|r| self.predict_one(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> (Vec<Vec<f32>>, Vec<u32>) {
        (
            vec![
                vec![0.0, 0.0],
                vec![0.1, 0.1],
                vec![5.0, 5.0],
                vec![5.1, 4.9],
                vec![5.2, 5.1],
            ],
            vec![0, 0, 1, 1, 1],
        )
    }

    #[test]
    fn one_nn_recalls_training_points_exactly() {
        let (x, y) = toy();
        let knn = KnnClassifier::fit(&x, &y, 1, KnnMetric::Euclidean);
        assert_eq!(knn.predict(&x), y);
    }

    #[test]
    fn k3_majority_vote() {
        let (x, y) = toy();
        let knn = KnnClassifier::fit(&x, &y, 3, KnnMetric::Euclidean);
        // A point near the class-1 cluster.
        assert_eq!(knn.predict_one(&[4.8, 5.0]), 1);
        // A point near the class-0 cluster: neighbours are the two 0s
        // plus one 1 → majority 0.
        assert_eq!(knn.predict_one(&[0.05, 0.0]), 0);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let (x, y) = toy();
        let knn = KnnClassifier::fit(&x, &y, 99, KnnMetric::Euclidean);
        // Global majority is class 1 (3 vs 2).
        assert_eq!(knn.predict_one(&[100.0, 100.0]), 1);
    }

    #[test]
    fn euclidean_ranks_by_squared_distance() {
        let m = KnnMetric::Manhattan;
        let e = KnnMetric::Euclidean;
        assert_eq!(m.rank_distance(&[0.0, 0.0], &[3.0, 4.0]), 7.0);
        // No sqrt: the Euclidean ranking distance is the squared value.
        assert_eq!(e.rank_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn rejects_zero_k() {
        let (x, y) = toy();
        KnnClassifier::fit(&x, &y, 0, KnnMetric::Euclidean);
    }
}
