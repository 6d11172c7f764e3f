//! The layer abstraction and the dense building blocks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparsemat::CsrMatrix;
use tensorlite::Tensor;

/// A differentiable network layer.
///
/// `forward` caches whatever `backward` needs; `backward` receives the
/// loss gradient w.r.t. the layer's output, accumulates parameter
/// gradients internally, and returns the gradient w.r.t. its input.
///
/// `Send` so whole networks can move to (or be replicated onto) the
/// sharded trainer's worker threads.
pub trait Layer: Send {
    /// Forward pass. `train` enables training-only caching.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Forward pass over a sparse CSR batch, for layers that can consume
    /// nonzeros directly (the MLP's input [`Dense`] layer). Returns
    /// `None` when the layer has no sparse path and the caller should
    /// densify instead.
    fn forward_sparse(&mut self, _input: &CsrMatrix, _train: bool) -> Option<Tensor> {
        None
    }

    /// Backward pass; must be called after a `forward` with `train=true`.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Visits `(parameter, gradient)` pairs in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor));

    /// Zeroes accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.scale(0.0));
    }

    /// Clones the layer — parameters, gradients, and caches — into a
    /// boxed trait object. The sharded trainer uses this to build one
    /// replica network per lane.
    fn clone_box(&self) -> Box<dyn Layer>;
}

/// Stores `src` in `slot`, reusing the existing allocation when the
/// element count matches (shapes may differ, e.g. the last short batch
/// of an epoch).
pub(crate) fn cache_assign(slot: &mut Option<Tensor>, src: &Tensor) {
    if let Some(t) = slot.take() {
        if t.len() == src.len() {
            let mut t = t.reshaped(src.shape());
            t.data_mut().copy_from_slice(src.data());
            *slot = Some(t);
            return;
        }
    }
    *slot = Some(src.clone());
}

/// Fully-connected layer: `Y = X·W + b`.
#[derive(Debug, Clone)]
pub struct Dense {
    w: Tensor,       // [in, out]
    b: Tensor,       // [out]
    dw: Tensor,
    db: Tensor,
    input: Option<Tensor>,
    sparse_input: Option<CsrMatrix>,
}

impl Dense {
    /// Kaiming-uniform initialized dense layer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dense dimensions must be nonzero");
        let mut rng = StdRng::seed_from_u64(seed);
        // Xavier-uniform: keeps initial logits near zero so training
        // starts from the ~ln(C) loss plateau instead of above it.
        let bound = (6.0 / (in_dim + out_dim) as f32).sqrt();
        let w = Tensor::from_vec(
            (0..in_dim * out_dim).map(|_| rng.gen_range(-bound..bound)).collect(),
            &[in_dim, out_dim],
        );
        Self {
            w,
            b: Tensor::zeros(&[out_dim]),
            dw: Tensor::zeros(&[in_dim, out_dim]),
            db: Tensor::zeros(&[out_dim]),
            input: None,
            sparse_input: None,
        }
    }

    /// The weight matrix (for inspection/tests).
    pub fn weights(&self) -> &Tensor {
        &self.w
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.shape()[0]
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.shape()[1]
    }
}

impl Dense {
    fn accumulate_db(&mut self, grad_output: &Tensor) {
        for r in 0..grad_output.shape()[0] {
            let row = grad_output.row(r);
            for (g, &v) in self.db.data_mut().iter_mut().zip(row) {
                *g += v;
            }
        }
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.shape().len(), 2, "dense input must be [N, features]");
        assert_eq!(input.shape()[1], self.in_dim(), "dense input width");
        let out = input.matmul_add_bias(&self.w, self.b.data());
        if train {
            cache_assign(&mut self.input, input);
            self.sparse_input = None;
        }
        out
    }

    fn forward_sparse(&mut self, input: &CsrMatrix, train: bool) -> Option<Tensor> {
        assert_eq!(input.n_cols(), self.in_dim(), "dense input width");
        let mut out = input.matmul_dense(&self.w);
        let out_dim = self.out_dim();
        for r in 0..out.shape()[0] {
            let row = &mut out.data_mut()[r * out_dim..(r + 1) * out_dim];
            for (o, &bias) in row.iter_mut().zip(self.b.data()) {
                *o += bias;
            }
        }
        if train {
            self.sparse_input = Some(input.clone());
            self.input = None;
        }
        Some(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        if let Some(csr) = self.sparse_input.take() {
            // dW += Xᵀ·dY, scattered over the row nonzeros: for each
            // sample p (ascending) each nonzero X[p,j] rank-1 updates
            // dW's row j — the `matmul_at` accumulation order with the
            // zero terms skipped, so dW is bit-identical to the dense
            // backward's.
            let (in_dim, out_dim) = (self.in_dim(), self.out_dim());
            let mut dt = Tensor::zeros(&[in_dim, out_dim]);
            {
                let dtd = dt.data_mut();
                for p in 0..csr.n_rows() {
                    let (idx, val) = csr.row(p);
                    let gr = grad_output.row(p);
                    for (&j, &v) in idx.iter().zip(val) {
                        let dst =
                            &mut dtd[j as usize * out_dim..(j as usize + 1) * out_dim];
                        for (d, &g) in dst.iter_mut().zip(gr) {
                            *d += v * g;
                        }
                    }
                }
            }
            self.dw.add_assign(&dt);
            self.accumulate_db(grad_output);
            self.sparse_input = Some(csr);
            // Sparse input only ever feeds the network's first layer,
            // whose input gradient the trainer discards.
            return Tensor::zeros(&[grad_output.shape()[0], in_dim]);
        }
        let input = self.input.as_ref().expect("backward before forward(train=true)");
        // dW += Xᵀ·dY ; db += Σ_rows dY ; dX = dY·Wᵀ — both products via
        // the fused transpose kernels (no explicit transposed() copies).
        self.dw.add_assign(&input.matmul_at(grad_output));
        self.accumulate_db(grad_output);
        grad_output.matmul_bt(&self.w)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.w, &mut self.dw);
        f(&mut self.b, &mut self.db);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
}

impl Relu {
    /// A fresh ReLU.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        if train {
            let mask = self.mask.get_or_insert_with(Vec::new);
            mask.clear();
            mask.extend(input.data().iter().map(|&x| x > 0.0));
        }
        input.map(|x| x.max(0.0))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self.mask.as_ref().expect("backward before forward(train=true)");
        let data = grad_output
            .data()
            .iter()
            .zip(mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(data, grad_output.shape())
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Flattens `[N, ...]` to `[N, prod]`.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// A fresh Flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let n = input.shape()[0];
        let rest: usize = input.shape()[1..].iter().product();
        if train {
            self.input_shape = Some(input.shape().to_vec());
        }
        input.clone().reshaped(&[n, rest])
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self.input_shape.as_ref().expect("backward before forward(train=true)");
        grad_output.clone().reshaped(shape)
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {}

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_forward_matches_manual() {
        let mut d = Dense::new(2, 2, 1);
        // Overwrite with known weights.
        d.w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        d.b = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let x = Tensor::from_rows(&[vec![1.0, 1.0]]);
        let y = d.forward(&x, false);
        assert_eq!(y.data(), &[4.5, 5.5]);
    }

    #[test]
    fn relu_zeroes_negatives() {
        let mut r = Relu::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[1, 3]);
        assert_eq!(r.forward(&x, true).data(), &[0.0, 0.0, 2.0]);
        let g = r.backward(&Tensor::from_vec(vec![5.0, 5.0, 5.0], &[1, 3]));
        assert_eq!(g.data(), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = f.forward(&x, true);
        assert_eq!(y.shape(), &[2, 48]);
        let g = f.backward(&y);
        assert_eq!(g.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn dense_init_is_seeded() {
        let a = Dense::new(4, 3, 42);
        let b = Dense::new(4, 3, 42);
        let c = Dense::new(4, 3, 43);
        assert_eq!(a.weights(), b.weights());
        assert_ne!(a.weights(), c.weights());
    }

    /// Finite-difference check of Dense gradients.
    #[test]
    fn dense_gradients_match_finite_differences() {
        let mut d = Dense::new(3, 2, 7);
        let x = Tensor::from_rows(&[vec![0.5, -1.0, 2.0], vec![1.5, 0.3, -0.7]]);
        // Scalar loss = sum of outputs.
        let y = d.forward(&x, true);
        let ones = Tensor::full(y.shape(), 1.0);
        let dx = d.backward(&ones);

        let eps = 1e-3f32;
        // Check dW numerically.
        let mut dw_expected = vec![0.0f32; 6];
        for (i, slot) in dw_expected.iter_mut().enumerate() {
            let mut dp = d.clone();
            dp.w.data_mut()[i] += eps;
            let mut dm = d.clone();
            dm.w.data_mut()[i] -= eps;
            let lp = dp.forward(&x, false).sum();
            let lm = dm.forward(&x, false).sum();
            *slot = (lp - lm) / (2.0 * eps);
        }
        for (a, e) in d.dw.data().iter().zip(&dw_expected) {
            assert!((a - e).abs() < 1e-2, "analytic {a} vs numeric {e}");
        }
        // Check dX numerically.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let mut dd = d.clone();
            let lp = dd.forward(&xp, false).sum();
            let lm = dd.forward(&xm, false).sum();
            let num = (lp - lm) / (2.0 * eps);
            assert!((dx.data()[i] - num).abs() < 1e-2);
        }
    }
}
