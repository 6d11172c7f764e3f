//! Linear one-vs-rest SVM trained with Pegasos.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{derive_support, Deserialize, Error, Serialize, Value};
use sparsemat::{CsrMatrix, SparseVec};

/// SVM hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvmConfig {
    /// L2 regularization strength λ of the Pegasos objective.
    pub lambda: f32,
    /// Number of stochastic epochs over the training set.
    pub epochs: usize,
}

impl Default for SvmConfig {
    fn default() -> Self {
        Self { lambda: 1e-4, epochs: 30 }
    }
}

/// One binary hyperplane (weights + bias).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Hyperplane {
    w: Vec<f32>,
    b: f32,
}

impl Hyperplane {
    fn score(&self, x: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), self.w.len());
        self.w.iter().zip(x).map(|(w, v)| w * v).sum::<f32>() + self.b
    }
}

/// A linear multi-class SVM (one-vs-rest).
///
/// Each class gets a Pegasos-trained hyperplane separating it from the
/// rest; prediction takes the class with the highest margin.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SvmClassifier {
    planes: Vec<Hyperplane>,
    dim: usize,
}

/// Accepts exactly what [`Serialize`] writes: every plane is `dim`
/// weights wide.
impl Deserialize for SvmClassifier {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let field = |key| derive_support::field(value, "SvmClassifier", key);
        let planes = Vec::<Hyperplane>::from_value(field("planes")?)?;
        let dim = usize::from_value(field("dim")?)?;
        if let Some(p) = planes.iter().find(|p| p.w.len() != dim) {
            return Err(Error::custom(format!(
                "SvmClassifier: a plane {} weights wide in a {dim}-feature model",
                p.w.len()
            )));
        }
        Ok(Self { planes, dim })
    }
}

impl SvmClassifier {
    /// Trains on dense rows `x` with labels `y`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or ragged, `x`/`y` lengths differ, or
    /// fewer than two classes are present.
    pub fn fit(x: &[Vec<f32>], y: &[u32], config: &SvmConfig, seed: u64) -> Self {
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(x.len(), y.len(), "one label per row");
        let dim = x[0].len();
        assert!(x.iter().all(|r| r.len() == dim), "ragged feature rows");
        let n_classes = y.iter().copied().max().expect("non-empty") as usize + 1;
        assert!(n_classes >= 2, "need at least two classes");

        let planes = (0..n_classes)
            .map(|class| {
                train_binary(x, y, class as u32, config, seed.wrapping_add(class as u64))
            })
            .collect();
        Self { planes, dim }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.planes.len()
    }

    /// Feature width the model was trained on.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Per-class margins for one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the training data.
    pub fn decision_function(&self, row: &[f32]) -> Vec<f32> {
        assert_eq!(row.len(), self.dim, "feature width mismatch");
        self.planes.iter().map(|p| p.score(row)).collect()
    }

    /// Predicted class for one row.
    pub fn predict_one(&self, row: &[f32]) -> u32 {
        let scores = self.decision_function(row);
        let mut best = 0usize;
        for i in 1..scores.len() {
            if scores[i] > scores[best] {
                best = i;
            }
        }
        best as u32
    }

    /// Predicted classes for many rows.
    pub fn predict(&self, rows: &[Vec<f32>]) -> Vec<u32> {
        rows.iter().map(|r| self.predict_one(r)).collect()
    }

    /// Trains on CSR rows without ever densifying them.
    ///
    /// The Pegasos recurrence is identical to [`SvmClassifier::fit`] —
    /// same RNG stream, same shrink and projection steps — except that
    /// the margin dot and the violation update walk only the row's
    /// nonzeros. A skipped term is `w_j · 0.0` (resp. `w_j += η·y·0.0`),
    /// which never changes a finite accumulator except possibly the sign
    /// of an exact zero, so the learned hyperplanes compare equal
    /// (`==`) to the dense fit's and every margin comparison, and hence
    /// every prediction, is identical.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty, `x`/`y` lengths differ, or fewer than two
    /// classes are present.
    pub fn fit_sparse(x: &CsrMatrix, y: &[u32], config: &SvmConfig, seed: u64) -> Self {
        assert!(x.n_rows() > 0, "cannot fit on an empty dataset");
        assert_eq!(x.n_rows(), y.len(), "one label per row");
        let n_classes = y.iter().copied().max().expect("non-empty") as usize + 1;
        assert!(n_classes >= 2, "need at least two classes");

        let planes = (0..n_classes)
            .map(|class| {
                train_binary_sparse(x, y, class as u32, config, seed.wrapping_add(class as u64))
            })
            .collect();
        Self { planes, dim: x.n_cols() }
    }

    /// Per-class margins for one sparse row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the training data.
    pub fn decision_function_sparse(&self, row: &SparseVec) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.planes.len());
        self.decision_function_sparse_into(row, &mut out);
        out
    }

    /// [`decision_function_sparse`](Self::decision_function_sparse)
    /// into a caller-owned buffer (cleared first) — the serving hot
    /// path's allocation-free variant: once `out` has warmed to
    /// `n_classes` capacity, no heap allocation occurs.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the training data.
    pub fn decision_function_sparse_into(&self, row: &SparseVec, out: &mut Vec<f32>) {
        assert_eq!(row.dim(), self.dim, "feature width mismatch");
        out.clear();
        out.extend(self.planes.iter().map(|p| row.dot_dense(&p.w) + p.b));
    }

    /// Predicted class for one sparse row.
    pub fn predict_one_sparse(&self, row: &SparseVec) -> u32 {
        let scores = self.decision_function_sparse(row);
        let mut best = 0usize;
        for i in 1..scores.len() {
            if scores[i] > scores[best] {
                best = i;
            }
        }
        best as u32
    }

    /// Predicted classes for every row of a CSR matrix.
    pub fn predict_sparse(&self, rows: &CsrMatrix) -> Vec<u32> {
        assert_eq!(rows.n_cols(), self.dim, "feature width mismatch");
        (0..rows.n_rows())
            .map(|i| {
                let mut best = 0usize;
                let mut best_score = f32::NEG_INFINITY;
                for (c, p) in self.planes.iter().enumerate() {
                    let s = rows.row_dot_dense(i, &p.w) + p.b;
                    if s > best_score {
                        best_score = s;
                        best = c;
                    }
                }
                best as u32
            })
            .collect()
    }
}

/// Pegasos: stochastic sub-gradient descent on
/// `λ/2‖w‖² + mean(hinge)` with step `1/(λt)`.
fn train_binary(
    x: &[Vec<f32>],
    y: &[u32],
    positive: u32,
    config: &SvmConfig,
    seed: u64,
) -> Hyperplane {
    let dim = x[0].len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = vec![0.0f32; dim];
    let mut b = 0.0f32;
    let mut t = 0u64;
    let n = x.len();
    for _ in 0..config.epochs {
        for _ in 0..n {
            t += 1;
            let i = rng.gen_range(0..n);
            let label = if y[i] == positive { 1.0f32 } else { -1.0 };
            let eta = 1.0 / (config.lambda * t as f32);
            let margin = label * (dot(&w, &x[i]) + b);
            // w ← (1 − ηλ)w (+ ηy x if margin violated)
            let shrink = 1.0 - eta * config.lambda;
            for wj in &mut w {
                *wj *= shrink;
            }
            if margin < 1.0 {
                for (wj, &xj) in w.iter_mut().zip(&x[i]) {
                    *wj += eta * label * xj;
                }
                b += eta * label;
            }
            // Pegasos projection step: keep ‖w‖ ≤ 1/√λ, which bounds the
            // early-iteration oscillation of the 1/(λt) step size.
            let norm2: f32 = w.iter().map(|v| v * v).sum();
            let radius2 = 1.0 / config.lambda;
            if norm2 > radius2 {
                let scale = (radius2 / norm2).sqrt();
                for wj in &mut w {
                    *wj *= scale;
                }
            }
        }
    }
    Hyperplane { w, b }
}

/// Pegasos over CSR rows: the dot and the violation update touch only
/// nonzeros; the shrink and projection steps still sweep the dense
/// weight vector (they scale every coordinate, sparse input or not).
fn train_binary_sparse(
    x: &CsrMatrix,
    y: &[u32],
    positive: u32,
    config: &SvmConfig,
    seed: u64,
) -> Hyperplane {
    let dim = x.n_cols();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = vec![0.0f32; dim];
    let mut b = 0.0f32;
    let mut t = 0u64;
    let n = x.n_rows();
    for _ in 0..config.epochs {
        for _ in 0..n {
            t += 1;
            let i = rng.gen_range(0..n);
            let label = if y[i] == positive { 1.0f32 } else { -1.0 };
            let eta = 1.0 / (config.lambda * t as f32);
            let margin = label * (x.row_dot_dense(i, &w) + b);
            let shrink = 1.0 - eta * config.lambda;
            for wj in &mut w {
                *wj *= shrink;
            }
            if margin < 1.0 {
                x.row_axpy_into(i, eta * label, &mut w);
                b += eta * label;
            }
            let norm2: f32 = w.iter().map(|v| v * v).sum();
            let radius2 = 1.0 / config.lambda;
            if norm2 > radius2 {
                let scale = (radius2 / norm2).sqrt();
                for wj in &mut w {
                    *wj *= scale;
                }
            }
        }
    }
    Hyperplane { w, b }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deserialize_rejects_a_plane_of_the_wrong_width() {
        let (x, y) = blobs(5);
        let svm = SvmClassifier::fit(&x, &y, &SvmConfig { epochs: 2, ..Default::default() }, 1);
        assert_eq!(SvmClassifier::from_value(&svm.to_value()), Ok(svm.clone()));
        let mut short = svm.clone();
        short.planes[1].w.pop();
        let err = SvmClassifier::from_value(&short.to_value()).unwrap_err();
        assert!(err.to_string().contains("1 weights wide in a 2-feature model"), "{err}");
    }

    fn blobs(n_per: usize) -> (Vec<Vec<f32>>, Vec<u32>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n_per {
            let j = (i as f32 * 0.7).sin() * 0.2;
            x.push(vec![1.0 + j, 0.0 + j]);
            y.push(0);
            x.push(vec![-1.0 - j, 0.5 - j]);
            y.push(1);
            x.push(vec![0.0 + j, -1.5 + j]);
            y.push(2);
        }
        (x, y)
    }

    #[test]
    fn separates_three_blobs() {
        let (x, y) = blobs(20);
        let svm = SvmClassifier::fit(&x, &y, &SvmConfig::default(), 1);
        let pred = svm.predict(&x);
        let correct = pred.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(correct >= 58, "correct {correct}/60");
    }

    #[test]
    fn decision_function_has_one_score_per_class() {
        let (x, y) = blobs(5);
        let svm = SvmClassifier::fit(&x, &y, &SvmConfig::default(), 1);
        assert_eq!(svm.n_classes(), 3);
        assert_eq!(svm.decision_function(&x[0]).len(), 3);
    }

    #[test]
    fn training_is_deterministic() {
        let (x, y) = blobs(10);
        let a = SvmClassifier::fit(&x, &y, &SvmConfig::default(), 9);
        let b = SvmClassifier::fit(&x, &y, &SvmConfig::default(), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn margin_violations_shrink_with_training() {
        let (x, y) = blobs(15);
        let short = SvmClassifier::fit(&x, &y, &SvmConfig { epochs: 1, ..Default::default() }, 3);
        let long = SvmClassifier::fit(&x, &y, &SvmConfig { epochs: 40, ..Default::default() }, 3);
        let acc = |svm: &SvmClassifier| {
            svm.predict(&x).iter().zip(&y).filter(|(a, b)| a == b).count()
        };
        assert!(acc(&long) >= acc(&short));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty() {
        SvmClassifier::fit(&[], &[], &SvmConfig::default(), 0);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_rows() {
        SvmClassifier::fit(
            &[vec![1.0], vec![1.0, 2.0]],
            &[0, 1],
            &SvmConfig::default(),
            0,
        );
    }

    #[test]
    #[should_panic(expected = "feature width")]
    fn rejects_wrong_width_at_predict() {
        let (x, y) = blobs(5);
        let svm = SvmClassifier::fit(&x, &y, &SvmConfig::default(), 1);
        svm.predict_one(&[1.0, 2.0, 3.0]);
    }
}
