//! Minimal dense `f32` tensors for the from-scratch neural networks.
//!
//! Only what [`neuralnet`](../neuralnet/index.html) needs: row-major
//! storage, 2-D matrix multiplication, element-wise arithmetic, and
//! shape bookkeeping. Not a general array library by design — the
//! public surface is small enough to audit and fast enough (with the
//! workspace's optimized dev profile) to train the paper's CNN.
//!
//! # Examples
//!
//! ```
//! use tensorlite::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// A dense row-major `f32` tensor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    ///
    /// # Panics
    ///
    /// Panics if the shape has a zero dimension.
    pub fn zeros(shape: &[usize]) -> Self {
        let n = checked_len(shape);
        Self { data: vec![0.0; n], shape: shape.to_vec() }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = checked_len(shape);
        Self { data: vec![value; n], shape: shape.to_vec() }
    }

    /// Wraps a vector with a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let n = checked_len(shape);
        assert_eq!(data.len(), n, "data length {} != shape product {n}", data.len());
        Self { data, shape: shape.to_vec() }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Self::zeros(&[n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true for valid shapes).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshaped(mut self, shape: &[usize]) -> Self {
        let n = checked_len(shape);
        assert_eq!(self.data.len(), n, "cannot reshape {:?} to {shape:?}", self.shape);
        self.shape = shape.to_vec();
        self
    }

    /// 2-D matrix multiplication: `[m, k] × [k, n] → [m, n]`.
    ///
    /// Runs the register-blocked kernel (see [`Tensor::matmul_reference`]
    /// for the oracle it is tested against). Every output element is a
    /// single accumulator over `p = 0..k` in ascending order, so the
    /// result is bit-identical to the naive triple loop.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with compatible inner dims.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = matmul_dims(self, other);
        let mut out = vec![0.0f32; m * n];
        matmul_blocked(&self.data, &other.data, &mut out, k, n);
        Tensor { data: out, shape: vec![m, n] }
    }

    /// Fused `self × other + bias`, with `bias` added per output column
    /// after the full accumulation — bit-identical to `matmul` followed
    /// by a broadcast row-wise bias add, without the extra pass.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch or `bias.len() != n`.
    pub fn matmul_add_bias(&self, other: &Tensor, bias: &[f32]) -> Tensor {
        let (m, k, n) = matmul_dims(self, other);
        assert_eq!(bias.len(), n, "bias width mismatch");
        let mut out = vec![0.0f32; m * n];
        matmul_blocked(&self.data, &other.data, &mut out, k, n);
        for row in out.chunks_exact_mut(n) {
            for (d, &b) in row.iter_mut().zip(bias) {
                *d += b;
            }
        }
        Tensor { data: out, shape: vec![m, n] }
    }

    /// `selfᵀ × other` without materializing the transpose:
    /// `[k, m]ᵀ × [k, n] → [m, n]`.
    ///
    /// Streams both operands row-by-row (`p` outermost), accumulating
    /// each output element in ascending-`p` order — bit-identical to
    /// `self.transposed().matmul(other)`.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D sharing their first dim.
    pub fn matmul_at(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be 2-D");
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "leading dimensions {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let arow = &self.data[p * m..(p + 1) * m];
            let brow = &other.data[p * n..(p + 1) * n];
            for (i, &a) in arow.iter().enumerate() {
                let dst = &mut out[i * n..(i + 1) * n];
                for (d, &b) in dst.iter_mut().zip(brow) {
                    *d += a * b;
                }
            }
        }
        Tensor { data: out, shape: vec![m, n] }
    }

    /// `self × otherᵀ` without materializing the transpose:
    /// `[m, k] × [n, k]ᵀ → [m, n]`.
    ///
    /// Row-against-row dot products (both contiguous), eight
    /// independent accumulators at a time, each in ascending-`p` order —
    /// bit-identical to `self.matmul(&other.transposed())`.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D sharing their second dim.
    pub fn matmul_bt(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be 2-D");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be 2-D");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "inner dimensions {k} vs {k2}");
        const JB: usize = 8;
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let arow = &self.data[i * k..(i + 1) * k];
            let dst = &mut out[i * n..(i + 1) * n];
            let mut j = 0;
            while j + JB <= n {
                let mut acc = [0.0f32; JB];
                for (p, &a) in arow.iter().enumerate() {
                    for (l, slot) in acc.iter_mut().enumerate() {
                        *slot += a * other.data[(j + l) * k + p];
                    }
                }
                dst[j..j + JB].copy_from_slice(&acc);
                j += JB;
            }
            for (jj, slot) in dst.iter_mut().enumerate().skip(j) {
                let brow = &other.data[jj * k..(jj + 1) * k];
                let mut acc = 0.0f32;
                for (&a, &b) in arow.iter().zip(brow) {
                    acc += a * b;
                }
                *slot = acc;
            }
        }
        Tensor { data: out, shape: vec![m, n] }
    }

    /// Textbook ikj triple-loop product — the correctness oracle the
    /// blocked kernel is tested against (bit-for-bit; both accumulate
    /// each output element in ascending-`p` order).
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are 2-D with compatible inner dims.
    pub fn matmul_reference(&self, other: &Tensor) -> Tensor {
        let (m, k, n) = matmul_dims(self, other);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a = self.data[i * k + p];
                let row = &other.data[p * n..(p + 1) * n];
                let dst = &mut out[i * n..(i + 1) * n];
                for (d, &b) in dst.iter_mut().zip(row) {
                    *d += a * b;
                }
            }
        }
        Tensor { data: out, shape: vec![m, n] }
    }

    /// 2-D transpose.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is 2-D.
    pub fn transposed(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transpose requires 2-D");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor { data: out, shape: vec![n, m] }
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch in add");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Element-wise in-place scaling.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Element-wise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor { data: self.data.iter().map(|&x| f(x)).collect(), shape: self.shape.clone() }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Builds a `[rows.len(), dim]` matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from `dim` or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f32>]) -> Tensor {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let dim = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * dim);
        for r in rows {
            assert_eq!(r.len(), dim, "ragged rows");
            data.extend_from_slice(r);
        }
        Tensor { data, shape: vec![rows.len(), dim] }
    }

    /// The `i`-th row of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics unless 2-D and `i` is in range.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.shape.len(), 2, "row requires 2-D");
        let n = self.shape[1];
        &self.data[i * n..(i + 1) * n]
    }
}

fn matmul_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(a.shape.len(), 2, "matmul lhs must be 2-D");
    assert_eq!(b.shape.len(), 2, "matmul rhs must be 2-D");
    let (m, k) = (a.shape[0], a.shape[1]);
    let (k2, n) = (b.shape[0], b.shape[1]);
    assert_eq!(k, k2, "inner dimensions {k} vs {k2}");
    (m, k, n)
}

/// Rows per register tile.
const MR: usize = 4;
/// Column lanes per register tile (one f32 SIMD vector on AVX2).
const NR: usize = 8;

/// Register-blocked matmul with a packed B panel.
///
/// The `j` loop is outermost: each `k × NR` column panel of B is copied
/// once into a contiguous, L1-resident buffer and reused by every
/// `MR`-row tile of A, so the inner loop streams both operands
/// sequentially instead of striding B by `n` (the naive loop's other
/// cost is re-loading and re-storing the output row on every `p`; here
/// the `MR·NR` accumulators live in registers across the whole `k`
/// loop). Packing is pure data movement and each accumulator still sums
/// `p = 0..k` in ascending order, which keeps the result bit-identical
/// to the naive kernel — blocking only over `i`/`j` reorders nothing.
///
/// The last `n % NR` columns reuse the same tile kernel on a
/// zero-padded panel: the padded lanes compute sums nobody reads, and
/// only the real `jw` lanes are stored back, so every written value
/// has the same operands in the same order as a full panel.
fn matmul_blocked(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    let mut panel = vec![0.0f32; k * NR];
    let mut jb = 0;
    while jb + NR <= n {
        for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
            dst.copy_from_slice(&b[p * n + jb..p * n + jb + NR]);
        }
        matmul_panel(a, &panel, out, k, n, jb, NR);
        jb += NR;
    }
    // The last n % NR columns reuse the same tile kernel on a
    // zero-padded panel: the padded lanes compute sums nobody reads,
    // and only the real `jw` lanes are stored back, so every written
    // value has the same operands in the same order as a full panel.
    if jb < n {
        let jw = n - jb;
        for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
            dst[..jw].copy_from_slice(&b[p * n + jb..p * n + jb + jw]);
            dst[jw..].fill(0.0);
        }
        matmul_panel(a, &panel, out, k, n, jb, jw);
    }
}

/// One packed `k × NR` panel of B against all rows of A, storing output
/// columns `jb..jb + jw` (`jw == NR` except for the rightmost panel).
fn matmul_panel(a: &[f32], panel: &[f32], out: &mut [f32], k: usize, n: usize, jb: usize, jw: usize) {
    let m = a.len() / k;
    let mut ib = 0;
    while ib + MR <= m {
        let (a0, rest) = a[ib * k..].split_at(k);
        let (a1, rest) = rest.split_at(k);
        let (a2, rest) = rest.split_at(k);
        let a3 = &rest[..k];
        let mut acc = [[0.0f32; NR]; MR];
        let lanes = a0.iter().zip(a1).zip(a2).zip(a3).zip(panel.chunks_exact(NR));
        for ((((&v0, &v1), &v2), &v3), brow) in lanes {
            let av = [v0, v1, v2, v3];
            for (row_acc, &a_val) in acc.iter_mut().zip(&av) {
                for (slot, &bv) in row_acc.iter_mut().zip(brow) {
                    *slot += a_val * bv;
                }
            }
        }
        for (r, row_acc) in acc.iter().enumerate() {
            out[(ib + r) * n + jb..(ib + r) * n + jb + jw].copy_from_slice(&row_acc[..jw]);
        }
        ib += MR;
    }
    // Leftover rows of this panel: 1 × NR tiles.
    for i in ib..m {
        let arow = &a[i * k..(i + 1) * k];
        let mut acc = [0.0f32; NR];
        for (&av, brow) in arow.iter().zip(panel.chunks_exact(NR)) {
            for (slot, &bv) in acc.iter_mut().zip(brow) {
                *slot += av * bv;
            }
        }
        out[i * n + jb..i * n + jb + jw].copy_from_slice(&acc[..jw]);
    }
}

fn checked_len(shape: &[usize]) -> usize {
    assert!(!shape.is_empty(), "shape must have at least one dimension");
    shape.iter().fold(1usize, |acc, &d| {
        assert!(d > 0, "zero dimension in shape");
        acc.checked_mul(d).expect("shape overflow")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 0.5, 3.0], &[2, 2]);
        assert_eq!(a.matmul(&Tensor::eye(2)).data(), a.data());
        assert_eq!(Tensor::eye(2).matmul(&a).data(), a.data());
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_rejects_mismatched_dims() {
        Tensor::zeros(&[2, 3]).matmul(&Tensor::zeros(&[2, 3]));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]);
        let t = a.transposed();
        assert_eq!(t.shape(), &[4, 3]);
        assert_eq!(t.transposed(), a);
    }

    #[test]
    fn transpose_matches_matmul_transposition() {
        // (AB)^T == B^T A^T
        let a = Tensor::from_vec((0..6).map(|i| i as f32 * 0.5).collect(), &[2, 3]);
        let b = Tensor::from_vec((0..12).map(|i| (i as f32).sin()).collect(), &[3, 4]);
        let lhs = a.matmul(&b).transposed();
        let rhs = b.transposed().matmul(&a.transposed());
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Tensor::from_vec((0..8).map(|i| i as f32).collect(), &[2, 4]);
        let b = a.clone().reshaped(&[4, 2]);
        assert_eq!(b.data(), a.data());
        assert_eq!(b.shape(), &[4, 2]);
    }

    #[test]
    #[should_panic(expected = "cannot reshape")]
    fn reshape_rejects_wrong_count() {
        Tensor::zeros(&[2, 2]).reshaped(&[3, 2]);
    }

    #[test]
    fn from_rows_and_row_access() {
        let t = Tensor::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(t.row(0), &[1.0, 2.0]);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        Tensor::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn elementwise_ops() {
        let mut a = Tensor::full(&[3], 2.0);
        a.add_assign(&Tensor::full(&[3], 1.0));
        a.scale(0.5);
        assert_eq!(a.data(), &[1.5, 1.5, 1.5]);
        assert_eq!(a.map(|x| x * 2.0).sum(), 9.0);
    }

    #[test]
    #[should_panic(expected = "zero dimension")]
    fn zero_dimension_rejected() {
        Tensor::zeros(&[2, 0]);
    }
}
