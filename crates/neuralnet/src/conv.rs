//! Convolution and pooling layers (the Fig. 7 building blocks).

use crate::layer::Layer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensorlite::Tensor;

/// 2-D convolution over `[N, C, H, W]` inputs.
///
/// Forward/backward stage each sample through a persistent im2col
/// column buffer (`col`) and a persistent `[OC, C·K·K]` weight view
/// (`wmat`), so steady-state training allocates only the layer's
/// output tensors — not the ~300 KB of per-batch scratch the naive
/// path rebuilt every call.
#[derive(Debug, Clone)]
pub struct Conv2d {
    w: Tensor, // [OC, C, K, K]
    b: Tensor, // [OC]
    dw: Tensor,
    db: Tensor,
    stride: usize,
    padding: usize,
    input: Option<Tensor>,
    /// Reused im2col column matrix `[C·K·K, OH·OW]`.
    col: Option<Tensor>,
    /// Reused `[OC, C·K·K]` copy of `w` (refreshed every forward).
    wmat: Option<Tensor>,
    /// Reused per-sample grad-output view `[OC, OH·OW]` (backward).
    go: Option<Tensor>,
    /// Reused dW accumulator `[OC, C·K·K]` (backward).
    dw_acc: Option<Tensor>,
}

impl Conv2d {
    /// Kaiming-initialized convolution.
    ///
    /// # Panics
    ///
    /// Panics on zero channels/kernel or zero stride.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0, "zero conv dims");
        assert!(stride > 0, "stride must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let fan_in = (in_channels * kernel * kernel) as f32;
        let bound = (6.0 / fan_in).sqrt();
        let w = Tensor::from_vec(
            (0..out_channels * in_channels * kernel * kernel)
                .map(|_| rng.gen_range(-bound..bound))
                .collect(),
            &[out_channels, in_channels, kernel, kernel],
        );
        Self {
            w,
            b: Tensor::zeros(&[out_channels]),
            dw: Tensor::zeros(&[out_channels, in_channels, kernel, kernel]),
            db: Tensor::zeros(&[out_channels]),
            stride,
            padding,
            input: None,
            col: None,
            wmat: None,
            go: None,
            dw_acc: None,
        }
    }

    fn dims(&self) -> (usize, usize, usize) {
        let s = self.w.shape();
        (s[0], s[1], s[2]) // (oc, c, k)
    }

    /// Output spatial size for an input of `h × w`.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        let (_, _, k) = self.dims();
        (
            (h + 2 * self.padding - k) / self.stride + 1,
            (w + 2 * self.padding - k) / self.stride + 1,
        )
    }
}

/// Hands out `slot`'s tensor resized/reshaped to `shape`, reusing its
/// allocation when the element count already matches.
fn take_scratch(slot: &mut Option<Tensor>, shape: &[usize]) -> Tensor {
    let want: usize = shape.iter().product();
    match slot.take() {
        Some(t) if t.len() == want => t.reshaped(shape),
        _ => Tensor::zeros(shape),
    }
}

/// Fills `col` with the im2col matrix `[C·K·K, OH·OW]` for one sample.
/// Zero-fills first, exactly like building the matrix from
/// `Tensor::zeros`, so padded positions stay 0.0.
#[allow(clippy::too_many_arguments)]
fn im2col_into(
    col: &mut Tensor,
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
) {
    let data = col.data_mut();
    data.fill(0.0);
    let (s, p) = (stride as isize, padding as isize);
    let mut row = 0usize;
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let base = row * oh * ow;
                for oy in 0..oh {
                    let iy = oy as isize * s - p + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src_row = (ci * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = ox as isize * s - p + kx as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        data[base + oy * ow + ox] = x[src_row + ix as usize];
                    }
                }
                row += 1;
            }
        }
    }
}

/// Scatter-adds a column matrix back into an image (inverse of im2col).
#[allow(clippy::too_many_arguments)]
fn col2im(
    col: &Tensor,
    dx: &mut [f32],
    c: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
) {
    let data = col.data();
    let (s, p) = (stride as isize, padding as isize);
    let mut row = 0usize;
    for ci in 0..c {
        for ky in 0..k {
            for kx in 0..k {
                let base = row * oh * ow;
                for oy in 0..oh {
                    let iy = oy as isize * s - p + ky as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let dst_row = (ci * h + iy as usize) * w;
                    for ox in 0..ow {
                        let ix = ox as isize * s - p + kx as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        dx[dst_row + ix as usize] += data[base + oy * ow + ox];
                    }
                }
                row += 1;
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (oc, c, k) = self.dims();
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "conv input must be [N, C, H, W]");
        assert_eq!(shape[1], c, "conv input channels");
        let (n, h, w) = (shape[0], shape[2], shape[3]);
        let (oh, ow) = self.out_size(h, w);
        // Weight as [OC, C·K·K]; per sample: W_mat × col = [OC, OH·OW].
        // The weights change every optimizer step, so the flat view is
        // refreshed each call — into the same allocation.
        let mut w_mat = take_scratch(&mut self.wmat, &[oc, c * k * k]);
        w_mat.data_mut().copy_from_slice(self.w.data());
        let mut col = take_scratch(&mut self.col, &[c * k * k, oh * ow]);
        let mut out = Tensor::zeros(&[n, oc, oh, ow]);
        let sample_in = c * h * w;
        let sample_out = oc * oh * ow;
        for ni in 0..n {
            im2col_into(
                &mut col,
                &input.data()[ni * sample_in..(ni + 1) * sample_in],
                c, h, w, k, self.stride, self.padding, oh, ow,
            );
            let y = w_mat.matmul(&col); // [OC, OH·OW]
            let dst = &mut out.data_mut()[ni * sample_out..(ni + 1) * sample_out];
            for oci in 0..oc {
                let bias = self.b.data()[oci];
                let src = &y.data()[oci * oh * ow..(oci + 1) * oh * ow];
                let d = &mut dst[oci * oh * ow..(oci + 1) * oh * ow];
                for (o, &v) in d.iter_mut().zip(src) {
                    *o = v + bias;
                }
            }
        }
        self.wmat = Some(w_mat);
        self.col = Some(col);
        if train {
            crate::layer::cache_assign(&mut self.input, input);
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.input.as_ref().expect("backward before forward(train=true)");
        let (oc, c, k) = self.dims();
        let (n, h, w) = (input.shape()[0], input.shape()[2], input.shape()[3]);
        let (oh, ow) = (grad_output.shape()[2], grad_output.shape()[3]);
        // `wmat` was refreshed by the forward pass of this step and the
        // weights have not changed since.
        let w_mat = self.wmat.as_ref().expect("backward before forward(train=true)");
        let mut dx = Tensor::zeros(&[n, c, h, w]);
        let sample_in = c * h * w;
        let sample_out = oc * oh * ow;
        let mut col = take_scratch(&mut self.col, &[c * k * k, oh * ow]);
        let mut go = take_scratch(&mut self.go, &[oc, oh * ow]);
        let mut dw_acc = take_scratch(&mut self.dw_acc, &[oc, c * k * k]);
        dw_acc.data_mut().fill(0.0);
        for ni in 0..n {
            im2col_into(
                &mut col,
                &input.data()[ni * sample_in..(ni + 1) * sample_in],
                c, h, w, k, self.stride, self.padding, oh, ow,
            );
            go.data_mut()
                .copy_from_slice(&grad_output.data()[ni * sample_out..(ni + 1) * sample_out]);
            // dW += dY × colᵀ ; db += row sums of dY ; dcol = Wᵀ × dY.
            // Both transposes are fused into the kernels — no [C·K²,
            // OH·OW] or [C·K², OC] copies per sample.
            dw_acc.add_assign(&go.matmul_bt(&col));
            for oci in 0..oc {
                self.db.data_mut()[oci] +=
                    go.data()[oci * oh * ow..(oci + 1) * oh * ow].iter().sum::<f32>();
            }
            let dcol = w_mat.matmul_at(&go);
            col2im(
                &dcol,
                &mut dx.data_mut()[ni * sample_in..(ni + 1) * sample_in],
                c, h, w, k, self.stride, self.padding, oh, ow,
            );
        }
        for (d, &s) in self.dw.data_mut().iter_mut().zip(dw_acc.data()) {
            *d += s;
        }
        self.col = Some(col);
        self.go = Some(go);
        self.dw_acc = Some(dw_acc);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        f(&mut self.w, &mut self.dw);
        f(&mut self.b, &mut self.db);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// 2-D max pooling over `[N, C, H, W]`.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    kernel: usize,
    stride: usize,
    /// Argmax input index per output element.
    argmax: Option<Vec<usize>>,
    input_shape: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// A pooling layer (the paper uses kernel 2, stride 2).
    ///
    /// # Panics
    ///
    /// Panics on zero kernel/stride.
    pub fn new(kernel: usize, stride: usize) -> Self {
        assert!(kernel > 0 && stride > 0, "pool dims must be positive");
        Self { kernel, stride, argmax: None, input_shape: None }
    }
}

impl Layer for MaxPool2d {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let shape = input.shape();
        assert_eq!(shape.len(), 4, "pool input must be [N, C, H, W]");
        let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
        let oh = (h - self.kernel) / self.stride + 1;
        let ow = (w - self.kernel) / self.stride + 1;
        let mut out = Tensor::zeros(&[n, c, oh, ow]);
        let x = input.data();
        let out_data = out.data_mut();
        // Argmax indices are only needed for backward; inference skips
        // recording them. The buffer persists across training batches.
        let mut argmax = if train {
            let mut a = self.argmax.take().unwrap_or_default();
            a.clear();
            a.resize(n * c * oh * ow, 0);
            Some(a)
        } else {
            None
        };
        for ni in 0..n {
            for ci in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_i = 0usize;
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let iy = oy * self.stride + ky;
                                let ix = ox * self.stride + kx;
                                let xi = ((ni * c + ci) * h + iy) * w + ix;
                                if x[xi] > best {
                                    best = x[xi];
                                    best_i = xi;
                                }
                            }
                        }
                        let oi = ((ni * c + ci) * oh + oy) * ow + ox;
                        out_data[oi] = best;
                        if let Some(a) = argmax.as_mut() {
                            a[oi] = best_i;
                        }
                    }
                }
            }
        }
        if train {
            self.argmax = argmax;
            self.input_shape = Some(shape.to_vec());
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let argmax = self.argmax.as_ref().expect("backward before forward(train=true)");
        let shape = self.input_shape.as_ref().expect("backward before forward(train=true)");
        let mut dx = Tensor::zeros(shape);
        let dxd = dx.data_mut();
        for (oi, &xi) in argmax.iter().enumerate() {
            dxd[xi] += grad_output.data()[oi];
        }
        dx
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
    fn conv_output_size_matches_fig7() {
        // k=5, s=1, p=2 preserves 32×32.
        let conv = Conv2d::new(3, 8, 5, 1, 2, 1);
        assert_eq!(conv.out_size(32, 32), (32, 32));
    }

    #[test]
    fn pool_halves_dimensions() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::zeros(&[1, 2, 32, 32]);
        assert_eq!(pool.forward(&x, false).shape(), &[1, 2, 16, 16]);
    }

    #[test]
    fn conv_identity_kernel_is_identity() {
        // 1×1 kernel with weight 1, no padding: output == input.
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, 1);
        conv.w = Tensor::from_vec(vec![1.0], &[1, 1, 1, 1]);
        conv.b = Tensor::zeros(&[1]);
        let x = Tensor::from_vec((0..16).map(|i| i as f32).collect(), &[1, 1, 4, 4]);
        assert_eq!(conv.forward(&x, false).data(), x.data());
    }

    #[test]
    fn conv_known_sum_kernel() {
        // 2×2 all-ones kernel, stride 1, no padding on a 3×3 ramp.
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, 1);
        conv.w = Tensor::full(&[1, 1, 2, 2], 1.0);
        conv.b = Tensor::zeros(&[1]);
        let x = Tensor::from_vec((1..=9).map(|i| i as f32).collect(), &[1, 1, 3, 3]);
        let y = conv.forward(&x, false);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn maxpool_picks_maxima_and_routes_gradient() {
        let mut pool = MaxPool2d::new(2, 2);
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                0.1, 0.2, 0.5, 0.6, //
                0.3, 0.9, 0.7, 0.4,
            ],
            &[1, 1, 4, 4],
        );
        let y = pool.forward(&x, true);
        assert_eq!(y.data(), &[4.0, 8.0, 0.9, 0.7]);
        let g = pool.backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]));
        // Gradients land exactly on the argmax positions.
        assert_eq!(g.data()[5], 1.0); // value 4.0
        assert_eq!(g.data()[7], 2.0); // value 8.0
        assert_eq!(g.data()[13], 3.0); // value 0.9
        assert_eq!(g.data()[14], 4.0); // value 0.7
        assert_eq!(g.sum(), 10.0);
    }

    #[test]
    fn conv_gradients_match_finite_differences() {
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, 5);
        let x = Tensor::from_vec(
            (0..2 * 2 * 4 * 4).map(|i| ((i * 31 % 17) as f32 - 8.0) * 0.1).collect(),
            &[2, 2, 4, 4],
        );
        let y = conv.forward(&x, true);
        let ones = Tensor::full(y.shape(), 1.0);
        let dx = conv.backward(&ones);
        let eps = 1e-2f32;

        // Weights: sample a few indices.
        for &i in &[0usize, 7, 16, 35] {
            let mut cp = conv.clone();
            cp.w.data_mut()[i] += eps;
            let mut cm = conv.clone();
            cm.w.data_mut()[i] -= eps;
            let num = (cp.forward(&x, false).sum() - cm.forward(&x, false).sum()) / (2.0 * eps);
            let ana = conv.dw.data()[i];
            assert!((ana - num).abs() < 0.05, "w[{i}]: analytic {ana} vs numeric {num}");
        }
        // Inputs: sample a few indices.
        for &i in &[0usize, 13, 31, 63] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let mut c2 = conv.clone();
            let num = (c2.forward(&xp, false).sum() - c2.forward(&xm, false).sum()) / (2.0 * eps);
            assert!((dx.data()[i] - num).abs() < 0.05);
        }
        // Bias gradient: dL/db = number of output positions.
        let per_channel = 2.0 * 4.0 * 4.0; // n=2, 4x4 outputs
        for &db in conv.db.data() {
            assert!((db - per_channel).abs() < 1e-3);
        }
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn conv_rejects_zero_stride() {
        Conv2d::new(1, 1, 3, 0, 1, 1);
    }
}
