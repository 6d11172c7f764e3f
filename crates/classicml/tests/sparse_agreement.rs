//! Bit-for-bit agreement between the sparse and dense classifier paths.
//!
//! The sparse kernels claim to be drop-in replacements: identical
//! accumulation order with only exact-zero terms skipped. These tests
//! pin that claim on sparse BoW-like data (non-negative, L1-normalized
//! rows with ~90% zeros), comparing fitted parameters with `==` and
//! predictions exactly.

use classicml::{RandomForest, SvmClassifier, SvmConfig};
use sparsemat::{CsrMatrix, SparseVec};

/// Deterministic sparse "BoW" rows: `n` rows over `dim` features, a few
/// nonzeros each, L1-normalized, labels by latent cluster.
fn bow_like(n: usize, dim: usize, classes: u32) -> (Vec<Vec<f32>>, Vec<u32>) {
    let mut x = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    let mut state = 0x9E37_79B9u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    for i in 0..n {
        let class = (i as u32) % classes;
        let mut row = vec![0.0f32; dim];
        // Class-specific band of features plus a couple of shared ones.
        let base = (class as usize * dim / classes as usize) % dim;
        let nnz = 3 + (next() as usize % 5);
        for _ in 0..nnz {
            let j = (base + next() as usize % (dim / 2)) % dim;
            row[j] += 1.0 + (next() % 4) as f32;
        }
        let total: f32 = row.iter().sum();
        for v in &mut row {
            *v /= total;
        }
        x.push(row);
        y.push(class);
    }
    (x, y)
}

#[test]
fn svm_sparse_fit_matches_dense_exactly() {
    let (x, y) = bow_like(60, 40, 3);
    let csr = CsrMatrix::from_dense_rows(&x);
    let cfg = SvmConfig { epochs: 12, ..Default::default() };
    let dense = SvmClassifier::fit(&x, &y, &cfg, 42);
    let sparse = SvmClassifier::fit_sparse(&csr, &y, &cfg, 42);
    // Same RNG stream, same updates: the hyperplanes compare equal.
    assert_eq!(dense, sparse);
    assert_eq!(dense.predict(&x), sparse.predict_sparse(&csr));
    for row in &x {
        let sv = SparseVec::from_dense(row);
        assert_eq!(dense.predict_one(row), sparse.predict_one_sparse(&sv));
        let dd = dense.decision_function(row);
        let sd = sparse.decision_function_sparse(&sv);
        assert_eq!(dd, sd);
    }
}

#[test]
fn forest_on_densified_csr_is_the_dense_model() {
    let (x, y) = bow_like(30, 16, 2);
    let cfg = classicml::ForestConfig { n_trees: 10, ..Default::default() };
    let dense = RandomForest::fit(&x, &y, &cfg, 5);
    let csr = CsrMatrix::from_dense_rows(&x);
    assert_eq!(dense, RandomForest::fit(&csr.to_dense_rows(), &y, &cfg, 5));
}
