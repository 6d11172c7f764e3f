//! Allocation-free MLP inference over a flat weight image.
//!
//! [`Sequential`]'s [`Layer::forward`](crate::Layer::forward)
//! allocates one output tensor per layer per call — fine for training,
//! fatal for a serving hot path that must not touch the heap per
//! request. [`FlatMlp`] is the inference-side counterpart of the
//! training arenas: the [`crate::models::mlp`] architecture reduced to
//! its flat parameter image (the same `export_params` visit-order image
//! the sharded trainer broadcasts), evaluated into caller-owned
//! [`InferScratch`] buffers.
//!
//! The arithmetic replays the training stack exactly: the sparse input
//! layer accumulates in ascending-nonzero order with the bias added
//! after the products (`Dense::forward_sparse`), ReLU is `max(0.0)`,
//! and the dense output layer accumulates in ascending-`k` order with
//! the bias added after (`matmul_add_bias`'s blocked kernel reorders
//! nothing). Predictions are therefore bit-identical to
//! [`Sequential::predict_sparse`] on the network the image came from —
//! asserted by this module's tests, not just argued.

use crate::net::Sequential;
use sparsemat::SparseVec;

/// A one-hidden-layer ReLU MLP flattened to its parameter image, laid
/// out in `visit_params` order: `w1 [input_dim × hidden]` row-major,
/// `b1 [hidden]`, `w2 [hidden × n_classes]` row-major, `b2 [n_classes]`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatMlp {
    input_dim: usize,
    hidden: usize,
    n_classes: usize,
    params: Vec<f32>,
}

impl FlatMlp {
    /// Expected flat-image length for the given dimensions, or `None`
    /// when it overflows `usize`.
    pub fn param_len(input_dim: usize, hidden: usize, n_classes: usize) -> Option<usize> {
        input_dim
            .checked_mul(hidden)?
            .checked_add(hidden)?
            .checked_add(hidden.checked_mul(n_classes)?)?
            .checked_add(n_classes)
    }

    /// Wraps an existing flat image.
    ///
    /// # Errors
    ///
    /// Rejects zero dimensions, dimensions whose image length overflows,
    /// and images whose length does not match the dimensions.
    pub fn from_params(
        input_dim: usize,
        hidden: usize,
        n_classes: usize,
        params: Vec<f32>,
    ) -> Result<Self, String> {
        if input_dim == 0 || hidden == 0 || n_classes < 2 {
            return Err(format!(
                "bad MLP dimensions: input_dim={input_dim} hidden={hidden} n_classes={n_classes}"
            ));
        }
        let want = Self::param_len(input_dim, hidden, n_classes).ok_or_else(|| {
            format!("MLP dimensions {input_dim}x{hidden}x{n_classes} overflow the image length")
        })?;
        if params.len() != want {
            return Err(format!("parameter image length {} != expected {want}", params.len()));
        }
        Ok(Self { input_dim, hidden, n_classes, params })
    }

    /// Captures the flat image of a trained [`crate::models::mlp`] network.
    ///
    /// # Panics
    ///
    /// Panics if `net`'s parameter count does not match the dimensions.
    pub fn capture(net: &mut Sequential, input_dim: usize, hidden: usize, n_classes: usize) -> Self {
        let mut params = Vec::new();
        net.export_params(&mut params);
        assert_eq!(
            Some(params.len()),
            Self::param_len(input_dim, hidden, n_classes),
            "network shape does not match the declared MLP dimensions"
        );
        Self { input_dim, hidden, n_classes, params }
    }

    /// Input feature count.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Hidden-layer width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Output class count.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The flat parameter image (visit order).
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Writes class logits for one sparse row into `scratch` and
    /// returns them; performs no heap allocation once the scratch has
    /// warmed to this network's shape.
    ///
    /// # Panics
    ///
    /// Panics if `row.dim()` differs from `input_dim`.
    pub fn logits_sparse<'s>(&self, row: &SparseVec, scratch: &'s mut InferScratch) -> &'s [f32] {
        assert_eq!(row.dim(), self.input_dim, "feature width mismatch");
        let (h, c) = (self.hidden, self.n_classes);
        let w1 = &self.params[..self.input_dim * h];
        let b1 = &self.params[self.input_dim * h..self.input_dim * h + h];
        let off2 = self.input_dim * h + h;
        let w2 = &self.params[off2..off2 + h * c];
        let b2 = &self.params[off2 + h * c..];

        scratch.hidden.clear();
        scratch.hidden.resize(h, 0.0);
        // Input layer: ascending-nonzero accumulation, bias after —
        // exactly `Dense::forward_sparse` on a one-row CSR.
        for (i, v) in row.iter() {
            let wrow = &w1[i * h..(i + 1) * h];
            for (d, &w) in scratch.hidden.iter_mut().zip(wrow) {
                *d += v * w;
            }
        }
        for (d, &b) in scratch.hidden.iter_mut().zip(b1) {
            *d += b;
        }
        for d in scratch.hidden.iter_mut() {
            *d = d.max(0.0);
        }

        scratch.logits.clear();
        scratch.logits.resize(c, 0.0);
        // Output layer: ascending-k accumulation, bias after — the
        // blocked `matmul_add_bias` kernel's exact operand order.
        for (k, &a) in scratch.hidden.iter().enumerate() {
            let wrow = &w2[k * c..(k + 1) * c];
            for (d, &w) in scratch.logits.iter_mut().zip(wrow) {
                *d += a * w;
            }
        }
        for (d, &b) in scratch.logits.iter_mut().zip(b2) {
            *d += b;
        }
        &scratch.logits
    }

    /// Predicted class for one sparse row (argmax, first maximum wins —
    /// the [`Sequential::predict_sparse`] tie rule).
    pub fn predict_sparse(&self, row: &SparseVec, scratch: &mut InferScratch) -> u32 {
        let logits = self.logits_sparse(row, scratch);
        let mut best = 0usize;
        for j in 1..logits.len() {
            if logits[j] > logits[best] {
                best = j;
            }
        }
        best as u32
    }
}

/// Reusable per-worker buffers for [`FlatMlp`] inference. Buffers grow
/// to the network's shape on first use and are reused afterwards, so
/// steady-state inference performs zero heap allocations.
#[derive(Debug, Default)]
pub struct InferScratch {
    hidden: Vec<f32>,
    logits: Vec<f32>,
}

impl InferScratch {
    /// An empty scratch (buffers grow lazily).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-grows the buffers for a network so even the first request
    /// stays allocation-free.
    pub fn warm(&mut self, net: &FlatMlp) {
        self.hidden.reserve(net.hidden());
        self.logits.reserve(net.n_classes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::models::mlp;
    use crate::net::{train_sparse, TrainConfig};
    use sparsemat::CsrMatrix;

    fn toy_rows(n: usize, dim: usize) -> (CsrMatrix, Vec<u32>) {
        // Two sparse regimes: low indices hot vs high indices hot.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for i in 0..n {
            let cls = (i % 2) as u32;
            let base = if cls == 0 { 0 } else { dim / 2 };
            let v = 0.5 + (i as f32 * 0.37).sin().abs();
            rows.push(SparseVec::new(
                dim,
                vec![base as u32, (base + 2 + i % 3) as u32],
                vec![v, 1.0 - v * 0.25],
            ));
            y.push(cls);
        }
        (CsrMatrix::from_rows(rows.iter()), y)
    }

    #[test]
    fn flat_mlp_matches_sequential_bit_for_bit() {
        let dim = 24;
        let (x, y) = toy_rows(40, dim);
        let mut net = mlp(dim, 16, 2, 7);
        train_sparse(&mut net, &x, &y, &TrainConfig { epochs: 8, lr: 1e-2, ..Default::default() });

        let flat = FlatMlp::capture(&mut net, dim, 16, 2);
        let mut scratch = InferScratch::new();
        let want = net.predict_sparse(&x);
        for (i, &want_i) in want.iter().enumerate() {
            let row = x.row_vec(i);
            // Logits, not just argmax: the flat path must replay the
            // layer arithmetic exactly.
            let logits = flat.logits_sparse(&row, &mut scratch).to_vec();
            let dense = net
                .forward_sparse(&CsrMatrix::from_rows([row.clone()].iter()), false)
                .expect("mlp takes sparse input");
            assert_eq!(logits.as_slice(), dense.data(), "row {i} logits diverged");
            assert_eq!(flat.predict_sparse(&row, &mut scratch), want_i);
        }
    }

    #[test]
    fn rejects_bad_dimensions() {
        assert!(FlatMlp::from_params(0, 4, 2, vec![]).is_err());
        assert!(FlatMlp::from_params(4, 4, 2, vec![0.0; 5]).is_err());
        let ok = FlatMlp::from_params(4, 4, 2, vec![0.0; FlatMlp::param_len(4, 4, 2).unwrap()]);
        assert!(ok.is_ok());
    }

    #[test]
    fn image_length_overflow_is_an_error() {
        assert_eq!(FlatMlp::param_len(usize::MAX / 2, 3, 2), None);
        assert_eq!(FlatMlp::param_len(2, usize::MAX / 4, 3), None);
        let err = FlatMlp::from_params(usize::MAX / 2, 3, 2, vec![0.0; 8]).unwrap_err();
        assert!(err.contains("overflow"), "{err}");
    }
}
