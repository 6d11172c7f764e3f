//! The text-side attack: n-gram BoW features into SVM / RFC / MLP.

use crate::featcache;
use crate::timing::{self, Phase};
use datasets::split::stratified_k_fold;
use datasets::Dataset;
use evalkit::{evaluate_folds, FoldSummary};
use sparsemat::{CsrMatrix, SparseVec};
use std::sync::Arc;
use textrep::{Discretizer, FeatureSelection};

/// Which classifier consumes the BoW features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TextModel {
    /// Linear one-vs-rest SVM (Pegasos).
    Svm,
    /// 100-tree random forest.
    Rfc,
    /// 100-unit single-hidden-layer MLP with Adam.
    Mlp,
}

impl std::fmt::Display for TextModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TextModel::Svm => "SVM",
            TextModel::Rfc => "RFC",
            TextModel::Mlp => "MLP",
        })
    }
}

/// Configuration of the text-side evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct TextAttackConfig {
    /// n-gram order (the paper fixes n = 8).
    pub ngram: usize,
    /// Cross-validation folds (the paper uses 5 and 10).
    pub folds: usize,
    /// Vocabulary feature selection.
    pub selection: FeatureSelection,
    /// Master seed for splits and model initialization.
    pub seed: u64,
    /// MLP epochs (text features are small, so this converges fast).
    pub mlp_epochs: usize,
    /// MLP learning rate.
    pub mlp_lr: f32,
    /// Random-forest tree count (paper: 100).
    pub rfc_trees: usize,
    /// SVM epochs.
    pub svm_epochs: usize,
    /// SVM regularization strength λ.
    pub svm_lambda: f32,
}

impl Default for TextAttackConfig {
    fn default() -> Self {
        Self {
            ngram: 8,
            folds: 10,
            selection: FeatureSelection::standard(),
            seed: 0,
            mlp_epochs: 60,
            mlp_lr: 3e-3,
            rfc_trees: 100,
            svm_epochs: 30,
            svm_lambda: 1e-4,
        }
    }
}

/// A trained text-side classifier (internal to this crate's API).
pub(crate) enum FittedTextModel {
    Svm(classicml::SvmClassifier),
    Rfc(classicml::RandomForest),
    Mlp(neuralnet::Sequential),
}

impl FittedTextModel {
    /// Fits the chosen model on CSR feature rows.
    ///
    /// The SVM and the MLP walk the nonzeros (SVM sparse dots, MLP
    /// sparse×dense input layer); both are bit-compatible with their
    /// dense references (see `crates/classicml/tests/sparse_agreement.rs`
    /// and `crates/neuralnet/tests/sparse_training.rs`). The random
    /// forest trains on a dense view, densified once per fit, because
    /// its per-node threshold scans want random column access.
    pub(crate) fn fit(
        model: TextModel,
        x: &CsrMatrix,
        y: &[u32],
        cfg: &TextAttackConfig,
        seed: u64,
    ) -> Self {
        let svm_cfg = classicml::SvmConfig { epochs: cfg.svm_epochs, lambda: cfg.svm_lambda };
        match model {
            TextModel::Svm => {
                FittedTextModel::Svm(classicml::SvmClassifier::fit_sparse(x, y, &svm_cfg, seed))
            }
            TextModel::Rfc => FittedTextModel::Rfc(classicml::RandomForest::fit(
                &x.to_dense_rows(),
                y,
                &classicml::ForestConfig { n_trees: cfg.rfc_trees, ..Default::default() },
                seed,
            )),
            TextModel::Mlp => {
                let n_classes = y.iter().copied().max().expect("non-empty") as usize + 1;
                let mut net = neuralnet::models::mlp(x.n_cols(), 100, n_classes.max(2), seed);
                let train_cfg = neuralnet::TrainConfig {
                    epochs: cfg.mlp_epochs,
                    lr: cfg.mlp_lr,
                    seed,
                    ..Default::default()
                };
                neuralnet::train_sparse(&mut net, x, y, &train_cfg);
                FittedTextModel::Mlp(net)
            }
        }
    }

    pub(crate) fn predict(&mut self, x: &CsrMatrix) -> Vec<u32> {
        match self {
            FittedTextModel::Svm(m) => m.predict_sparse(x),
            FittedTextModel::Rfc(m) => m.predict(&x.to_dense_rows()),
            FittedTextModel::Mlp(net) => net.predict_sparse(x),
        }
    }
}

/// Runs the paper's text-side k-fold evaluation on a dataset.
///
/// The preprocessing (codebook + vocabulary) is fit on the *whole*
/// corpus "regardless of labels", exactly as in the paper; only the
/// classifier respects the train/test split.
///
/// Featurization is memoized process-wide (see [`crate::featcache`])
/// and stays sparse end-to-end: each fold gathers its train/test rows
/// into a [`CsrMatrix`] without ever materializing the dense feature
/// matrix. Folds run in parallel on the `ELEV_THREADS` executor. Each fold
/// trains with an RNG stream derived from the master seed and the fold
/// index, so the summary is bit-identical at every thread count.
///
/// # Panics
///
/// Panics if the dataset has fewer samples than folds or fewer than two
/// classes.
pub fn evaluate_text(
    ds: &Dataset,
    discretizer: Discretizer,
    model: TextModel,
    cfg: &TextAttackConfig,
) -> FoldSummary {
    assert!(ds.n_classes() >= 2, "need at least two classes");
    let executor = exec::Executor::from_env();
    let signals: Vec<Vec<f64>> =
        ds.samples().iter().map(|s| s.elevation.clone()).collect();
    let features: Vec<Arc<SparseVec>> = timing::time(Phase::Featurize, || {
        let pipeline = featcache::pipeline_for(&signals, discretizer, cfg.ngram, cfg.selection);
        executor.map(&signals, |_, s| pipeline.bow(s))
    });
    let gather =
        |rows: &[usize]| CsrMatrix::from_rows(rows.iter().map(|&i| features[i].as_ref()));
    let labels = ds.labels();
    let folds = stratified_k_fold(&labels, cfg.folds, cfg.seed);
    evaluate_folds(&labels, ds.n_classes(), &folds, &executor, |fold_idx, train, test| {
        let xt = gather(train);
        let yt: Vec<u32> = train.iter().map(|&i| labels[i]).collect();
        let fold_seed = exec::mix_seed(cfg.seed ^ 0x7E47, fold_idx as u64);
        let mut fitted =
            timing::time(Phase::Fit, || FittedTextModel::fit(model, &xt, &yt, cfg, fold_seed));
        let xs = gather(test);
        timing::time(Phase::Predict, || fitted.predict(&xs))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::{Dataset, Sample};

    /// A toy dataset with two obviously separable elevation regimes.
    fn toy_dataset() -> Dataset {
        let mut ds = Dataset::new(vec!["low".into(), "high".into()]);
        for i in 0..30 {
            let phase = i as f64 * 0.37;
            let low: Vec<f64> =
                (0..60).map(|t| 5.0 + ((t as f64) * 0.3 + phase).sin() * 2.0).collect();
            let high: Vec<f64> =
                (0..60).map(|t| 500.0 + ((t as f64) * 0.21 + phase).cos() * 40.0).collect();
            ds.push(Sample { elevation: low, label: 0, path: None }).unwrap();
            ds.push(Sample { elevation: high, label: 1, path: None }).unwrap();
        }
        ds
    }

    fn quick_cfg() -> TextAttackConfig {
        TextAttackConfig {
            folds: 3,
            ngram: 4,
            mlp_epochs: 30,
            rfc_trees: 15,
            svm_epochs: 10,
            ..Default::default()
        }
    }

    #[test]
    fn all_models_separate_toy_regimes() {
        let ds = toy_dataset();
        for model in [TextModel::Svm, TextModel::Rfc, TextModel::Mlp] {
            let summary = evaluate_text(&ds, Discretizer::Floor, model, &quick_cfg());
            let acc = summary.outcome().accuracy;
            assert!(acc > 0.9, "{model} accuracy {acc}");
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let ds = toy_dataset();
        let a = evaluate_text(&ds, Discretizer::Floor, TextModel::Svm, &quick_cfg());
        let b = evaluate_text(&ds, Discretizer::Floor, TextModel::Svm, &quick_cfg());
        assert_eq!(a.pooled, b.pooled);
    }

    #[test]
    #[should_panic(expected = "two classes")]
    fn rejects_single_class_dataset() {
        let mut ds = Dataset::new(vec!["only".into()]);
        ds.push(Sample { elevation: vec![1.0], label: 0, path: None }).unwrap();
        evaluate_text(&ds, Discretizer::Floor, TextModel::Svm, &quick_cfg());
    }
}
