//! The image-side attack: colored line graphs into the Fig. 7 CNN.

use crate::featcache;
use crate::timing::{self, Phase};
use datasets::split::inverse_proportional_test_split;
use datasets::Dataset;
use evalkit::ConfusionMatrix;
use imgrep::ImageConfig;
use neuralnet::finetune::{fine_tune, make_rounds, FineTuneConfig};
use neuralnet::loss::inverse_frequency_weights;
use neuralnet::models::paper_cnn;
use neuralnet::{train, Sequential, TrainConfig};
use tensorlite::Tensor;

/// The paper's three ways of coping with unbalanced data (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageMethod {
    /// Plain cross-entropy — the *biased* baseline (UWL column of
    /// Table VII; "the results are biased" toward the majority class).
    UnweightedLoss,
    /// Class-weighted cross-entropy, weights inversely proportional to
    /// class size (WL column).
    WeightedLoss,
    /// Round-based fine-tuning (FT column, Figs. 10–11).
    FineTune,
}

impl std::fmt::Display for ImageMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ImageMethod::UnweightedLoss => "UWL",
            ImageMethod::WeightedLoss => "WL",
            ImageMethod::FineTune => "FT",
        })
    }
}

/// Configuration of the image-side evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageAttackConfig {
    /// Rendering parameters (the paper's 200-point 32×32 line graphs).
    pub image: ImageConfig,
    /// CNN training epochs (per round, for fine-tuning).
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Learning rate of the final fine-tuning round.
    pub final_lr: f32,
    /// Fraction of samples selected as the test set (by inverse class
    /// probability, per the paper).
    pub test_fraction: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Master seed.
    pub seed: u64,
    /// Gradient lanes per CNN mini-batch (see
    /// [`neuralnet::TrainConfig::shards`]); `None` sizes lanes from the
    /// share of the `ELEV_THREADS` budget left to the calling worker.
    /// Trained weights are bit-identical at any setting.
    pub shards: Option<usize>,
}

impl Default for ImageAttackConfig {
    fn default() -> Self {
        Self {
            image: ImageConfig::default(),
            epochs: 12,
            lr: 2e-3,
            final_lr: 1e-3,
            test_fraction: 0.2,
            batch_size: 32,
            seed: 0,
            shards: None,
        }
    }
}

/// Renders every sample of a dataset into one `[N, 3, H, W]` tensor.
///
/// Per-sample rasters render in parallel on the `ELEV_THREADS`
/// executor and are memoized process-wide (see [`crate::featcache`]),
/// so re-evaluating the same dataset — e.g. under each Table VII
/// method — renders each profile once.
pub fn render_dataset(ds: &Dataset, image: &ImageConfig) -> Tensor {
    let (h, w) = (image.height, image.width);
    let rows = exec::Executor::from_env()
        .map(ds.samples(), |_, s| featcache::raster_for(&s.elevation, image));
    let mut data = Vec::with_capacity(ds.len() * 3 * h * w);
    for row in rows {
        data.extend_from_slice(&row);
    }
    Tensor::from_vec(data, &[ds.len(), 3, h, w])
}

/// The fine-tuning drop schedule for a class count, following the
/// paper's round counts (TM-1: 4 classes → 3 rounds; TM-3: 10 classes →
/// 5 rounds dropping 1, 2, 1, 2).
pub fn default_drops(n_classes: usize) -> Vec<usize> {
    if n_classes <= 2 {
        return Vec::new();
    }
    if n_classes <= 5 {
        return vec![1; n_classes - 2];
    }
    // Alternate 1, 2, 1, 2, … until 4 classes remain.
    let mut drops = Vec::new();
    let mut remaining = n_classes;
    let mut step = 1usize;
    while remaining > 4 {
        let d = step.min(remaining - 4);
        drops.push(d);
        remaining -= d;
        step = if step == 1 { 2 } else { 1 };
    }
    drops
}

/// The result of one image-side evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageOutcome {
    /// Confusion matrix on the held-out test set.
    pub confusion: ConfusionMatrix,
    /// The method evaluated.
    pub method: ImageMethod,
}

/// Trains the Fig. 7 CNN on `ds` with the given imbalance remedy and
/// scores it on an inverse-proportionally selected test set.
///
/// # Panics
///
/// Panics if the dataset has fewer than two classes or too few samples
/// to split.
pub fn evaluate_image(
    ds: &Dataset,
    method: ImageMethod,
    cfg: &ImageAttackConfig,
) -> ImageOutcome {
    assert!(ds.n_classes() >= 2, "need at least two classes");
    let labels = ds.labels();
    let test_count = ((ds.len() as f64) * cfg.test_fraction).round().max(1.0) as usize;
    let (train_idx, test_idx) =
        inverse_proportional_test_split(&labels, test_count, cfg.seed);

    let x = timing::time(Phase::Featurize, || render_dataset(ds, &cfg.image));
    let y_train: Vec<u32> = train_idx.iter().map(|&i| labels[i]).collect();
    let x_train = neuralnet::gather_samples(&x, &train_idx);
    let x_test = neuralnet::gather_samples(&x, &test_idx);
    let y_test: Vec<u32> = test_idx.iter().map(|&i| labels[i]).collect();

    let mut net = timing::time(Phase::Fit, || {
        train_cnn(&x_train, &y_train, ds.n_classes(), method, cfg)
    });
    let preds = timing::time(Phase::Predict, || net.predict(&x_test));
    ImageOutcome {
        confusion: ConfusionMatrix::from_predictions(&y_test, &preds, ds.n_classes()),
        method,
    }
}

/// Trains a CNN on pre-rendered tensors (exposed for the epoch-sweep
/// experiments of Table VIII).
pub fn train_cnn(
    x_train: &Tensor,
    y_train: &[u32],
    n_classes: usize,
    method: ImageMethod,
    cfg: &ImageAttackConfig,
) -> Sequential {
    timing::time(Phase::CnnTrain, || {
        let mut net = paper_cnn(n_classes.max(2), cfg.seed);
        match method {
            ImageMethod::UnweightedLoss | ImageMethod::WeightedLoss => {
                let class_weights = if method == ImageMethod::WeightedLoss {
                    Some(inverse_frequency_weights(y_train, n_classes))
                } else {
                    None
                };
                train(
                    &mut net,
                    x_train,
                    y_train,
                    &TrainConfig {
                        epochs: cfg.epochs,
                        batch_size: cfg.batch_size,
                        lr: cfg.lr,
                        seed: cfg.seed,
                        class_weights,
                        shards: cfg.shards,
                    },
                );
            }
            ImageMethod::FineTune => {
                let drops = default_drops(n_classes);
                let rounds = make_rounds(y_train, n_classes, &drops, cfg.seed);
                fine_tune(
                    &mut net,
                    x_train,
                    y_train,
                    &rounds,
                    &FineTuneConfig {
                        epochs_per_round: cfg.epochs,
                        batch_size: cfg.batch_size,
                        lr: cfg.lr,
                        final_lr: cfg.final_lr,
                        seed: cfg.seed,
                        shards: cfg.shards,
                    },
                );
            }
        }
        net
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::{Dataset, Sample};

    fn toy_dataset(n_per: usize) -> Dataset {
        let mut ds = Dataset::new(vec!["flat-low".into(), "hilly-high".into()]);
        for i in 0..n_per {
            let phase = i as f64 * 0.61;
            let low: Vec<f64> =
                (0..200).map(|t| 3.0 + ((t as f64) * 0.05 + phase).sin() * 1.0).collect();
            let high: Vec<f64> =
                (0..200).map(|t| 800.0 + ((t as f64) * 0.4 + phase).sin() * 90.0).collect();
            ds.push(Sample { elevation: low, label: 0, path: None }).unwrap();
            ds.push(Sample { elevation: high, label: 1, path: None }).unwrap();
        }
        ds
    }

    fn quick_cfg() -> ImageAttackConfig {
        ImageAttackConfig { epochs: 4, ..Default::default() }
    }

    #[test]
    fn default_drops_match_paper_round_counts() {
        assert_eq!(default_drops(4).len(), 2); // 3 rounds for TM-1
        assert_eq!(default_drops(10), vec![1, 2, 1, 2]); // 5 rounds for TM-3
        assert!(default_drops(2).is_empty());
    }

    #[test]
    fn render_dataset_shapes() {
        let ds = toy_dataset(3);
        let x = render_dataset(&ds, &ImageConfig::default());
        assert_eq!(x.shape(), &[6, 3, 32, 32]);
    }

    #[test]
    fn weighted_loss_separates_toy_classes() {
        let outcome = evaluate_image(&toy_dataset(20), ImageMethod::WeightedLoss, &quick_cfg());
        let acc = outcome.confusion.accuracy();
        assert!(acc > 0.85, "accuracy {acc}");
    }

    #[test]
    fn fine_tune_runs_end_to_end() {
        // 3 classes so rounds exist.
        let mut ds = toy_dataset(12);
        ds = {
            let mut bigger = Dataset::new(vec![
                "flat-low".into(),
                "hilly-high".into(),
                "mid".into(),
            ]);
            for s in ds.samples() {
                bigger.push(s.clone()).unwrap();
            }
            for i in 0..6 {
                let phase = i as f64;
                let mid: Vec<f64> =
                    (0..200).map(|t| 120.0 + ((t as f64) * 0.1 + phase).cos() * 10.0).collect();
                bigger.push(Sample { elevation: mid, label: 2, path: None }).unwrap();
            }
            bigger
        };
        let outcome = evaluate_image(&ds, ImageMethod::FineTune, &quick_cfg());
        assert_eq!(outcome.method, ImageMethod::FineTune);
        assert!(outcome.confusion.total() > 0);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let ds = toy_dataset(8);
        let a = evaluate_image(&ds, ImageMethod::UnweightedLoss, &quick_cfg());
        let b = evaluate_image(&ds, ImageMethod::UnweightedLoss, &quick_cfg());
        assert_eq!(a.confusion, b.confusion);
    }
}
