//! Classic machine-learning models of the paper's text-side attack.
//!
//! - [`SvmClassifier`]: a linear one-vs-rest support vector machine
//!   trained with the Pegasos stochastic sub-gradient method on the
//!   hinge loss ("the standard SVM, where the objective is to find the
//!   best hyperplane separating classes"),
//! - [`RandomForest`]: "the standard RFC, with 100 trees, and a
//!   majority voting ... over the outcomes of those trees", built from
//!   CART [`DecisionTree`]s with Gini impurity, bootstrap sampling, and
//!   √d feature subsampling, trained in parallel with crossbeam,
//! - [`KnnClassifier`]: a k-nearest-neighbours baseline that makes the
//!   paper's overlap-leakage mechanism explicit (a repeated route's
//!   near-twin sits in the training set).
//!
//! Models consume dense `Vec<f32>` feature rows; the SVM also takes the
//! sparse CSR layout of `sparsemat` (the BoW vectors of `textrep` are
//! over 95% zeros at realistic vocabulary sizes) and walks its nonzeros
//! directly (`fit_sparse`/`predict_sparse`). A caller holding CSR rows
//! trains the forest on `CsrMatrix::to_dense_rows`, since its split
//! scans want random column access. The SVM's sparse path is
//! bit-compatible with its dense one — same accumulation order, only
//! exact-zero terms skipped — so a given seed produces the same model
//! and predictions in either layout. Naive Bayes and k-NN take dense
//! rows only. All models are deterministic given a seed.
//!
//! # Examples
//!
//! ```
//! use classicml::SvmClassifier;
//!
//! let x = vec![
//!     vec![0.0, 1.0], vec![0.1, 0.9], vec![1.0, 0.0], vec![0.9, 0.2],
//! ];
//! let y = vec![0u32, 0, 1, 1];
//! let svm = SvmClassifier::fit(&x, &y, &Default::default(), 7);
//! assert_eq!(svm.predict(&x), y);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bayes;
mod forest;
mod knn;
mod svm;
mod tree;

pub use bayes::NaiveBayes;
pub use forest::{ForestConfig, RandomForest};
pub use knn::{KnnClassifier, KnnMetric};
pub use svm::{SvmClassifier, SvmConfig};
pub use tree::{DecisionTree, TreeConfig};
