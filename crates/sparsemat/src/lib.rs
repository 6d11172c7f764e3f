//! Sparse feature vectors and CSR matrices for the attack pipeline.
//!
//! The paper's bag-of-words rows are occurrence-probability vectors over
//! an n-gram vocabulary; at realistic vocabulary sizes (thousands of
//! features, `FeatureSelection::standard` caps at 4096) a single profile
//! matches a few dozen grams, so dense `Vec<f32>` rows are >95% zeros.
//! This crate stores only the nonzeros — sorted `(index, value)` pairs —
//! and provides the kernels the classifiers need:
//!
//! - [`SparseVec::dot_dense`] — the Pegasos SVM inner product,
//! - [`CsrMatrix::matmul_dense`] — the MLP's sparse×dense input matmul,
//! - [`CsrMatrix::to_dense_rows`] — the dense view column-split
//!   learners (the random forest) train on.
//!
//! [`CsrMatrix`] is the one input of the text-side models; short dense
//! rows (the spectral baseline's) enter through
//! [`CsrMatrix::from_dense_rows`].
//!
//! Every kernel accumulates in ascending index order, skipping only
//! exact-zero terms, so results are bit-identical to the dense
//! computation they replace (`x + 0.0 == x` for every finite `x` that
//! is not `-0.0`, and the pipeline's feature values are non-negative).
//!
//! # Examples
//!
//! ```
//! use sparsemat::SparseVec;
//!
//! let dense = vec![0.0, 0.5, 0.0, 0.0, 0.25, 0.25];
//! let sparse = SparseVec::from_dense(&dense);
//! assert_eq!(sparse.nnz(), 3);
//! assert_eq!(sparse.to_dense(), dense);
//! let w = vec![1.0f32; 6];
//! assert_eq!(sparse.dot_dense(&w), 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use tensorlite::Tensor;

/// Merge-join dot product of two sparse vectors given as parallel
/// sorted index/value slices — the reference the scale matcher's
/// dense-probe scoring is tested against, bit for bit. Accumulates in
/// ascending index order, so the result is a pure function of the two
/// operands (bit-identical at any call site).
pub fn dot_sorted(a_idx: &[u32], a_val: &[f32], b_idx: &[u32], b_val: &[f32]) -> f32 {
    let (mut i, mut j, mut acc) = (0usize, 0usize, 0f32);
    while i < a_idx.len() && j < b_idx.len() {
        match a_idx[i].cmp(&b_idx[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                acc += a_val[i] * b_val[j];
                i += 1;
                j += 1;
            }
        }
    }
    acc
}

/// A sparse `f32` vector: sorted indices plus their nonzero values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseVec {
    dim: usize,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl SparseVec {
    /// Builds a sparse vector from parallel index/value arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays' lengths differ, indices are not strictly
    /// increasing, or any index is out of bounds for `dim`.
    pub fn new(dim: usize, indices: Vec<u32>, values: Vec<f32>) -> Self {
        assert_eq!(indices.len(), values.len(), "one value per index");
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "indices must be strictly increasing"
        );
        if let Some(&last) = indices.last() {
            assert!((last as usize) < dim, "index {last} out of bounds for dim {dim}");
        }
        Self { dim, indices, values }
    }

    /// An all-zero vector of the given width.
    pub fn zeros(dim: usize) -> Self {
        Self { dim, indices: Vec::new(), values: Vec::new() }
    }

    /// Compresses a dense slice, dropping exact zeros.
    pub fn from_dense(row: &[f32]) -> Self {
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for (i, &v) in row.iter().enumerate() {
            if v != 0.0 {
                indices.push(i as u32);
                values.push(v);
            }
        }
        Self { dim: row.len(), indices, values }
    }

    /// Scatters back to a dense vector.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] = v;
        }
        out
    }

    /// Logical width of the vector.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored (nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The sorted nonzero indices.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// The values parallel to [`SparseVec::indices`].
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Iterates `(index, value)` pairs in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f32)> + '_ {
        self.indices.iter().zip(&self.values).map(|(&i, &v)| (i as usize, v))
    }

    /// Inner product with a dense weight vector, accumulated in index
    /// order — bit-identical to the dense dot over the scattered row.
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != self.dim()`.
    pub fn dot_dense(&self, w: &[f32]) -> f32 {
        assert_eq!(w.len(), self.dim, "weight width mismatch");
        let mut acc = 0.0f32;
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            acc += w[i as usize] * v;
        }
        acc
    }
}

/// A compressed-sparse-row matrix of feature rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    n_cols: usize,
    /// Row `i` occupies `indices[indptr[i]..indptr[i+1]]`.
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Concatenates sparse rows into CSR form.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows disagree on width.
    pub fn from_rows<'a, I>(rows: I) -> Self
    where
        I: IntoIterator<Item = &'a SparseVec>,
    {
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        let mut n_cols = None;
        for row in rows {
            match n_cols {
                None => n_cols = Some(row.dim()),
                Some(d) => assert_eq!(d, row.dim(), "ragged sparse rows"),
            }
            indices.extend_from_slice(row.indices());
            values.extend_from_slice(row.values());
            indptr.push(indices.len());
        }
        let n_cols = n_cols.expect("cannot build a CSR matrix from zero rows");
        Self { n_cols, indptr, indices, values }
    }

    /// Compresses dense rows (dropping exact zeros).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or ragged.
    pub fn from_dense_rows(rows: &[Vec<f32>]) -> Self {
        let sparse: Vec<SparseVec> = rows.iter().map(|r| SparseVec::from_dense(r)).collect();
        Self::from_rows(&sparse)
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.indptr.len() - 1
    }

    /// Number of (logical) columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Total stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The `(indices, values)` slices of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.indptr[i], self.indptr[i + 1]);
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// Copies row `i` out as a [`SparseVec`].
    pub fn row_vec(&self, i: usize) -> SparseVec {
        let (idx, val) = self.row(i);
        SparseVec { dim: self.n_cols, indices: idx.to_vec(), values: val.to_vec() }
    }

    /// Row `i`'s inner product with a dense weight vector.
    pub fn row_dot_dense(&self, i: usize, w: &[f32]) -> f32 {
        assert_eq!(w.len(), self.n_cols, "weight width mismatch");
        let (idx, val) = self.row(i);
        let mut acc = 0.0f32;
        for (&j, &v) in idx.iter().zip(val) {
            acc += w[j as usize] * v;
        }
        acc
    }

    /// `out[j] += scale * row_i[j]` over row `i`'s nonzeros.
    pub fn row_axpy_into(&self, i: usize, scale: f32, out: &mut [f32]) {
        assert_eq!(out.len(), self.n_cols, "output width mismatch");
        let (idx, val) = self.row(i);
        for (&j, &v) in idx.iter().zip(val) {
            out[j as usize] += scale * v;
        }
    }

    /// Gathers the listed rows into a new CSR matrix (cheap row copies;
    /// used for mini-batching and fold splits).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or any index is out of range.
    pub fn gather(&self, rows: &[usize]) -> CsrMatrix {
        assert!(!rows.is_empty(), "cannot gather zero rows");
        let mut indptr = vec![0usize];
        let mut indices = Vec::new();
        let mut values = Vec::new();
        for &r in rows {
            let (idx, val) = self.row(r);
            indices.extend_from_slice(idx);
            values.extend_from_slice(val);
            indptr.push(indices.len());
        }
        CsrMatrix { n_cols: self.n_cols, indptr, indices, values }
    }

    /// Expands to dense rows.
    pub fn to_dense_rows(&self) -> Vec<Vec<f32>> {
        (0..self.n_rows())
            .map(|i| {
                let mut row = vec![0.0f32; self.n_cols];
                let (idx, val) = self.row(i);
                for (&j, &v) in idx.iter().zip(val) {
                    row[j as usize] = v;
                }
                row
            })
            .collect()
    }

    /// Sparse×dense matrix product: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Each output element accumulates over this row's nonzeros in
    /// ascending column order — the dense accumulation order with
    /// zero terms skipped — so the product is bit-identical to
    /// densifying and calling [`Tensor::matmul`] (up to the sign of
    /// zero, which no downstream consumer observes).
    ///
    /// # Panics
    ///
    /// Panics unless `rhs` is 2-D with `rhs.shape()[0] == self.n_cols()`.
    pub fn matmul_dense(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(rhs.shape().len(), 2, "matmul rhs must be 2-D");
        let (k, n) = (rhs.shape()[0], rhs.shape()[1]);
        assert_eq!(k, self.n_cols, "inner dimensions {} vs {k}", self.n_cols);
        let m = self.n_rows();
        let mut out = vec![0.0f32; m * n];
        let b = rhs.data();
        for i in 0..m {
            let (idx, val) = self.row(i);
            let dst = &mut out[i * n..(i + 1) * n];
            for (&p, &a) in idx.iter().zip(val) {
                let src = &b[p as usize * n..(p as usize + 1) * n];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += a * s;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_fixture() -> Vec<Vec<f32>> {
        vec![
            vec![0.0, 1.5, 0.0, -2.0, 0.0],
            vec![0.0, 0.0, 0.0, 0.0, 0.0],
            vec![3.0, 0.0, 0.25, 0.0, 1.0],
        ]
    }

    #[test]
    fn dense_roundtrip() {
        for row in dense_fixture() {
            assert_eq!(SparseVec::from_dense(&row).to_dense(), row);
        }
    }

    #[test]
    fn dot_matches_dense() {
        let w: Vec<f32> = (0..5).map(|i| i as f32 * 0.5 - 1.0).collect();
        for row in dense_fixture() {
            let dense: f32 = row.iter().zip(&w).map(|(a, b)| a * b).sum();
            let sparse = SparseVec::from_dense(&row).dot_dense(&w);
            assert_eq!(sparse.to_bits(), dense.to_bits());
        }
    }

    #[test]
    fn csr_row_access_and_gather() {
        let m = CsrMatrix::from_dense_rows(&dense_fixture());
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 5);
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.row(1).0.len(), 0);
        let g = m.gather(&[2, 0, 2]);
        assert_eq!(g.n_rows(), 3);
        assert_eq!(g.to_dense_rows()[0], dense_fixture()[2]);
        assert_eq!(g.to_dense_rows()[1], dense_fixture()[0]);
    }

    #[test]
    fn csr_matmul_matches_dense_matmul() {
        let rows = dense_fixture();
        let csr = CsrMatrix::from_dense_rows(&rows);
        let rhs = Tensor::from_vec(
            (0..5 * 4).map(|i| ((i * 7 % 13) as f32 - 6.0) * 0.25).collect(),
            &[5, 4],
        );
        let dense = Tensor::from_rows(&rows).matmul(&rhs);
        let sparse = csr.matmul_dense(&rhs);
        assert_eq!(sparse.shape(), dense.shape());
        for (a, b) in sparse.data().iter().zip(dense.data()) {
            assert_eq!(a.to_bits(), b.to_bits(), "sparse {a} vs dense {b}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_indices() {
        SparseVec::new(4, vec![2, 1], vec![1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_out_of_bounds_index() {
        SparseVec::new(2, vec![2], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn csr_rejects_ragged_rows() {
        let a = SparseVec::zeros(3);
        let b = SparseVec::zeros(4);
        CsrMatrix::from_rows([&a, &b]);
    }
}
