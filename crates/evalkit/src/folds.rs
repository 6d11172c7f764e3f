//! Cross-validation fold aggregation.

use crate::confusion::ConfusionMatrix;

/// Aggregate metrics over folds.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldSummary {
    /// Per-fold confusion matrices.
    pub folds: Vec<ConfusionMatrix>,
    /// All folds merged (micro aggregation).
    pub pooled: ConfusionMatrix,
}

/// The per-fold quantities most tables report, averaged across folds
/// (the paper "averaged results of the 10 folds").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldOutcome {
    /// Mean multiclass accuracy.
    pub accuracy: f64,
    /// Mean one-vs-rest accuracy (the paper's A column).
    pub ovr_accuracy: f64,
    /// Mean macro precision.
    pub precision: f64,
    /// Mean macro recall.
    pub recall: f64,
    /// Mean macro F1.
    pub f1: f64,
    /// Mean macro specificity.
    pub specificity: f64,
}

impl FoldSummary {
    /// Fold-averaged metrics.
    pub fn outcome(&self) -> FoldOutcome {
        let n = self.folds.len() as f64;
        let mut o = FoldOutcome {
            accuracy: 0.0,
            ovr_accuracy: 0.0,
            precision: 0.0,
            recall: 0.0,
            f1: 0.0,
            specificity: 0.0,
        };
        for m in &self.folds {
            o.accuracy += m.accuracy() / n;
            o.ovr_accuracy += m.ovr_accuracy() / n;
            o.precision += m.macro_precision() / n;
            o.recall += m.macro_recall() / n;
            o.f1 += m.macro_f1() / n;
            o.specificity += m.macro_specificity() / n;
        }
        o
    }
}

/// Runs `fit_predict` on each `(train, test)` fold on `executor` and
/// aggregates the results in fold order.
///
/// `fit_predict(fold_index, train_indices, test_indices)` must return
/// one predicted label per test index, in order. It receives the fold's
/// position so callers can derive a per-fold RNG stream from a master
/// seed (`exec::mix_seed`); it must be deterministic in its arguments
/// for results to be identical at every thread count. The fold indices
/// typically come from `datasets::split::stratified_k_fold`.
///
/// # Panics
///
/// Panics if `folds` is empty or a closure returns the wrong number of
/// predictions.
pub fn evaluate_folds<F>(
    labels: &[u32],
    n_classes: usize,
    folds: &[(Vec<usize>, Vec<usize>)],
    executor: &exec::Executor,
    fit_predict: F,
) -> FoldSummary
where
    F: Fn(usize, &[usize], &[usize]) -> Vec<u32> + Sync,
{
    assert!(!folds.is_empty(), "need at least one fold");
    let matrices = executor.map(folds, |fold_idx, (train, test)| {
        let preds = fit_predict(fold_idx, train, test);
        assert_eq!(preds.len(), test.len(), "one prediction per test sample");
        let truth: Vec<u32> = test.iter().map(|&i| labels[i]).collect();
        ConfusionMatrix::from_predictions(&truth, &preds, n_classes)
    });
    let pooled = matrices
        .iter()
        .skip(1)
        .fold(matrices[0].clone(), |acc, m| acc.merged(m));
    FoldSummary { folds: matrices, pooled }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_thread() -> exec::Executor {
        exec::Executor::new(1)
    }

    #[test]
    fn aggregates_perfect_oracle() {
        let labels = vec![0u32, 1, 0, 1, 0, 1];
        let folds = vec![
            (vec![0, 1, 2, 3], vec![4, 5]),
            (vec![2, 3, 4, 5], vec![0, 1]),
        ];
        let summary = evaluate_folds(&labels, 2, &folds, &one_thread(), |_, _, test| {
            test.iter().map(|&i| labels[i]).collect()
        });
        let o = summary.outcome();
        assert_eq!(o.accuracy, 1.0);
        assert_eq!(o.f1, 1.0);
        assert_eq!(summary.pooled.total(), 4);
    }

    #[test]
    fn averages_across_folds() {
        let labels = vec![0u32, 1, 0, 1];
        let folds = vec![
            (vec![2, 3], vec![0, 1]),
            (vec![0, 1], vec![2, 3]),
        ];
        // First fold perfect, second fold fully wrong.
        let summary = evaluate_folds(&labels, 2, &folds, &one_thread(), |fold, _, test| {
            if fold == 0 {
                test.iter().map(|&i| labels[i]).collect()
            } else {
                test.iter().map(|&i| 1 - labels[i]).collect()
            }
        });
        assert!((summary.outcome().accuracy - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one prediction per test sample")]
    fn rejects_wrong_prediction_count() {
        let labels = vec![0u32, 1];
        let folds = vec![(vec![0], vec![1])];
        evaluate_folds(&labels, 2, &folds, &one_thread(), |_, _, _| vec![]);
    }

    #[test]
    #[should_panic(expected = "at least one fold")]
    fn rejects_empty_folds() {
        evaluate_folds(&[0u32], 1, &[], &one_thread(), |_, _, _| vec![]);
    }

    #[test]
    fn parallel_matches_sequential_at_any_thread_count() {
        let labels: Vec<u32> = (0..40).map(|i| i % 4).collect();
        let folds: Vec<(Vec<usize>, Vec<usize>)> = (0..5)
            .map(|f| {
                let test: Vec<usize> = (0..40).filter(|i| i % 5 == f).collect();
                let train: Vec<usize> = (0..40).filter(|i| i % 5 != f).collect();
                (train, test)
            })
            .collect();
        // A deterministic but fold-dependent "model".
        let predict = |fold_idx: usize, _train: &[usize], test: &[usize]| -> Vec<u32> {
            test.iter().map(|&i| ((i + fold_idx) % 4) as u32).collect()
        };
        // One thread runs the folds in order; more run them at once.
        let sequential = evaluate_folds(&labels, 4, &folds, &one_thread(), predict);
        assert_eq!(sequential.folds.len(), folds.len());
        for threads in [2, 4] {
            let parallel =
                evaluate_folds(&labels, 4, &folds, &exec::Executor::new(threads), predict);
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }
}
