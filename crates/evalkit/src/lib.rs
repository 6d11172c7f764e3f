//! Evaluation kit: confusion matrices, the paper's metric suite, and
//! fold aggregation.
//!
//! A reproduction note on the paper's **accuracy** column: Tables V/VI
//! report accuracies far above their macro recalls even on *balanced*
//! test sets, and accuracy *rises* with class count — the signature of
//! the one-vs-rest binary accuracy `(TP + TN) / N` averaged over
//! classes (scikit-learn's per-label accuracy), not the multiclass
//! fraction-correct. [`ConfusionMatrix`] exposes both:
//! [`ConfusionMatrix::accuracy`] (fraction correct) and
//! [`ConfusionMatrix::ovr_accuracy`] (the paper's table metric), plus
//! macro precision / recall / F1 / specificity (Tables VIII–IX use
//! specificity explicitly).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod confusion;
mod folds;
mod report;

pub use confusion::ConfusionMatrix;
pub use folds::{evaluate_folds, FoldOutcome, FoldSummary};
pub use report::ClassificationReport;
