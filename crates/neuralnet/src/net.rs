//! Sequential networks and the mini-batch training loop.

use crate::layer::Layer;
use crate::loss::{cross_entropy_with_norm, weight_norm};
use crate::optim::Adam;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use sparsemat::CsrMatrix;
use std::ops::Range;
use std::sync::Mutex;
use tensorlite::Tensor;

/// A stack of layers applied in order.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential({} layers)", self.layers.len())
    }
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Self { layers: self.layers.iter().map(|l| l.clone_box()).collect() }
    }
}

impl Sequential {
    /// Builds a network from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Number of layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Total number of trainable parameters.
    pub fn n_params(&mut self) -> usize {
        let mut n = 0usize;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }

    /// Class predictions (argmax of logits). Takes `&mut self` because
    /// layer forward passes reuse internal buffers.
    pub fn predict(&mut self, x: &Tensor) -> Vec<u32> {
        let logits = self.forward(x, false);
        let c = logits.shape()[1];
        (0..logits.shape()[0])
            .map(|r| {
                let row = logits.row(r);
                let mut best = 0usize;
                for j in 1..c {
                    if row[j] > row[best] {
                        best = j;
                    }
                }
                best as u32
            })
            .collect()
    }

    /// Raw logits for a batch.
    pub fn logits(&mut self, x: &Tensor) -> Tensor {
        self.forward(x, false)
    }

    /// Class predictions over a sparse batch: the first layer consumes
    /// the CSR rows directly (sparse×dense matmul) when it can.
    pub fn predict_sparse(&mut self, x: &CsrMatrix) -> Vec<u32> {
        let logits = self.forward_sparse(x, false).expect("empty network");
        let c = logits.shape()[1];
        (0..logits.shape()[0])
            .map(|r| {
                let row = logits.row(r);
                let mut best = 0usize;
                for j in 1..c {
                    if row[j] > row[best] {
                        best = j;
                    }
                }
                best as u32
            })
            .collect()
    }

    /// Appends every parameter tensor, in `visit_params` order, to a
    /// flat buffer (cleared first). The sharded trainer broadcasts this
    /// image to its lane replicas each step, and the model registry
    /// persists it as the network's on-disk weight image.
    pub fn export_params(&mut self, out: &mut Vec<f32>) {
        out.clear();
        self.visit_params(&mut |p, _| out.extend_from_slice(p.data()));
    }

    /// Overwrites every parameter from a flat buffer written by
    /// [`export_params`](Self::export_params) on a structurally
    /// identical network.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when `src` is not exactly the
    /// network's parameter count; release builds truncate/ignore.
    pub fn import_params(&mut self, src: &[f32]) {
        let mut off = 0usize;
        self.visit_params(&mut |p, _| {
            let n = p.len();
            p.data_mut().copy_from_slice(&src[off..off + n]);
            off += n;
        });
        debug_assert_eq!(off, src.len(), "parameter count mismatch");
    }

    /// Appends every gradient tensor, in `visit_params` order, to a
    /// flat buffer (without clearing — lanes append one image per
    /// sample).
    pub(crate) fn export_grads(&mut self, out: &mut Vec<f32>) {
        self.visit_params(&mut |_, g| out.extend_from_slice(g.data()));
    }

    /// Adds a flat gradient image (visit order) onto the network's
    /// accumulated gradients.
    pub(crate) fn add_grads(&mut self, src: &[f32]) {
        let mut off = 0usize;
        self.visit_params(&mut |_, g| {
            let n = g.len();
            for (d, &s) in g.data_mut().iter_mut().zip(&src[off..off + n]) {
                *d += s;
            }
            off += n;
        });
        debug_assert_eq!(off, src.len(), "gradient count mismatch");
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return input.clone();
        };
        let mut cur = first.forward(input, train);
        for layer in rest {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    /// Feeds CSR rows to the first layer's sparse path when it has one
    /// (densifying otherwise), then proceeds densely. The sparse×dense
    /// first matmul skips only exact-zero terms of the dense product, so
    /// the logits match the dense forward bit for bit.
    fn forward_sparse(&mut self, input: &CsrMatrix, train: bool) -> Option<Tensor> {
        let (first, rest) = self.layers.split_first_mut()?;
        let mut cur = match first.forward_sparse(input, train) {
            Some(t) => t,
            None => first.forward(&Tensor::from_rows(&input.to_dense_rows()), train),
        };
        for layer in rest {
            cur = layer.forward(&cur, train);
        }
        Some(cur)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let Some((last, rest)) = self.layers.split_last_mut() else {
            return grad_output.clone();
        };
        let mut grad = last.backward(grad_output);
        for layer in rest.iter_mut().rev() {
            grad = layer.backward(&grad);
        }
        grad
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Optional per-class loss weights (the paper's weighted loss).
    pub class_weights: Option<Vec<f32>>,
    /// Number of parallel gradient lanes per mini-batch (dense path).
    /// `None` sizes lanes from [`exec::inner_threads_from_env`]. Either
    /// way the trained weights are bit-identical to the serial loop —
    /// per-sample gradients are reduced in global sample order — so
    /// this only trades memory for wall-clock.
    pub shards: Option<usize>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { epochs: 50, batch_size: 32, lr: 1e-3, seed: 0, class_weights: None, shards: None }
    }
}

/// Per-epoch training record.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss of each epoch.
    pub epoch_losses: Vec<f32>,
}

impl TrainReport {
    /// Loss of the final epoch.
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().unwrap_or(&f32::NAN)
    }
}

/// Trains `net` on `(x, y)` with softmax cross-entropy and Adam.
///
/// `x` is `[N, ...]` with one leading sample axis; `y` holds one label
/// per sample.
///
/// When more than one lane is requested (`config.shards`, default
/// [`exec::inner_threads_from_env`]) and the per-sample gradient stages
/// fit the `MAX_STAGE_FLOATS` cap (2²⁴ floats), each mini-batch fans
/// out across `Executor` lanes: every lane replays its contiguous shard
/// of the batch one sample at a time into a per-sample gradient stage,
/// and the main thread folds the stages in global sample order. Because
/// every kernel accumulates ascending over the sample axis from +0.0,
/// that fold reproduces the serial batch gradient bit for bit — the
/// trained weights are identical at any
/// `ELEV_THREADS`/`ELEV_INNER_THREADS`/shard setting.
///
/// # Panics
///
/// Panics if `x` and `y` disagree on the sample count, the batch size
/// is zero, or `x` is empty.
pub fn train(net: &mut Sequential, x: &Tensor, y: &[u32], config: &TrainConfig) -> TrainReport {
    run_epochs(net, TrainSet::Dense(x), y, config, &mut Adam::new(config.lr))
}

/// Largest `n_params × batch_size` (in floats) the sharded trainer will
/// stage per-sample gradients for: 2²⁴ floats = 64 MB. Beyond that the
/// staging traffic outweighs the parallel compute and the serial loop
/// is used instead.
const MAX_STAGE_FLOATS: usize = 1 << 24;

/// Splits `n` samples into `shards` contiguous ranges whose sizes
/// differ by at most one (longer shards first). A pure function of its
/// arguments — shard boundaries never depend on the machine's thread
/// count, only on how many worker threads pick the shards up.
pub fn shard_ranges(n: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    let shards = shards.clamp(1, n.max(1));
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0usize;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// The samples a training call runs over.
#[derive(Clone, Copy)]
pub(crate) enum TrainSet<'a> {
    /// `[N, ...]` with one leading sample axis.
    Dense(&'a Tensor),
    /// One CSR row per sample, fed to the first layer's sparse path.
    Sparse(&'a CsrMatrix),
}

/// The one epoch loop behind [`train`], [`train_sparse`] and
/// [`fine_tune`](crate::finetune::fine_tune): shuffle, batch, weight
/// the loss, step `adam`. A dense batch of more than one sample takes
/// the staged lane step when the call has lanes; every other batch runs
/// forward and backward whole. Nothing outlives the call but `net`'s
/// weights and layer scratch and `adam`'s moments.
pub(crate) fn run_epochs(
    net: &mut Sequential,
    x: TrainSet<'_>,
    y: &[u32],
    config: &TrainConfig,
    adam: &mut Adam,
) -> TrainReport {
    let n = match x {
        TrainSet::Dense(x) => x.shape()[0],
        TrainSet::Sparse(x) => x.n_rows(),
    };
    assert_eq!(n, y.len(), "one label per sample");
    assert!(config.batch_size > 0, "batch size must be positive");
    assert!(n > 0, "cannot train on an empty dataset");
    adam.set_lr(config.lr);
    let cw = config.class_weights.as_deref();
    let mut lanes = match x {
        TrainSet::Dense(_) => Lanes::new(net, config.shards, config.batch_size.min(n)),
        TrainSet::Sparse(_) => None,
    };

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut labels = Vec::with_capacity(config.batch_size.min(n));
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut total = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size) {
            labels.clear();
            labels.extend(chunk.iter().map(|&i| y[i]));
            let norm = weight_norm(&labels, cw);
            let raw = match (x, lanes.as_mut()) {
                (TrainSet::Dense(x), Some(lanes)) if chunk.len() > 1 => {
                    lanes.step(net, x, chunk, &labels, cw, norm)
                }
                _ => {
                    net.zero_grad();
                    let logits = match x {
                        TrainSet::Dense(x) => net.forward(&gather_samples(x, chunk), true),
                        TrainSet::Sparse(x) => {
                            net.forward_sparse(&x.gather(chunk), true).expect("empty network")
                        }
                    };
                    let (raw, grad) = cross_entropy_with_norm(&logits, &labels, cw, norm);
                    net.backward(&grad);
                    raw
                }
            };
            adam.step(net);
            total += raw / norm;
            batches += 1;
        }
        epoch_losses.push(total / batches.max(1) as f32);
    }
    TrainReport { epoch_losses }
}

/// The staged step's state for one training call: a replica network
/// and gradient stage per lane, the weight image broadcast to the
/// replicas each step, and the accumulator the stages fold into.
struct Lanes {
    replicas: Vec<Mutex<Lane>>,
    threads: usize,
    n_params: usize,
    weights: Vec<f32>,
    grads: Vec<f32>,
}

impl Lanes {
    /// Lanes for batches of up to `batch` samples, or `None` when the
    /// loop stays serial: fewer than two lanes requested or usable, or
    /// per-sample stages past `MAX_STAGE_FLOATS`.
    fn new(net: &mut Sequential, shards: Option<usize>, batch: usize) -> Option<Self> {
        let threads = exec::inner_threads_from_env();
        let n_lanes = shards.unwrap_or(threads).min(batch);
        let n_params = net.n_params();
        if n_lanes < 2 || n_params.saturating_mul(batch) > MAX_STAGE_FLOATS {
            return None;
        }
        let replicas = (0..n_lanes)
            .map(|_| Mutex::new(Lane { net: net.clone(), stage: Vec::new(), losses: Vec::new() }))
            .collect();
        Some(Self { replicas, threads, n_params, weights: Vec::new(), grads: Vec::new() })
    }

    /// One staged mini-batch step; returns the unnormalized batch loss.
    /// Lanes replay disjoint contiguous shards of the batch per sample
    /// against the broadcast weight image; the stages then fold into
    /// `net`'s gradients lanes ascending and samples within each lane
    /// ascending — global sample order, independent of which worker
    /// thread ran which lane (or how many workers there were) — from
    /// fresh `+0.0`s, exactly like the batch kernels' own sample-axis
    /// accumulation.
    fn step(
        &mut self,
        net: &mut Sequential,
        x: &Tensor,
        chunk: &[usize],
        labels: &[u32],
        cw: Option<&[f32]>,
        norm: f32,
    ) -> f32 {
        let n_lanes = self.replicas.len().min(chunk.len());
        net.export_params(&mut self.weights);
        let ranges = shard_ranges(chunk.len(), n_lanes);
        let weights = &self.weights;
        exec::Executor::new(self.threads.min(n_lanes)).map(&self.replicas[..n_lanes], |j, lane| {
            let mut lane = lane.lock().expect("lane lock");
            lane.run(ranges[j].clone(), x, chunk, labels, cw, norm, weights);
        });

        self.grads.clear();
        self.grads.resize(self.n_params, 0.0);
        let mut raw = 0.0f32;
        for lane in &self.replicas[..n_lanes] {
            let lane = lane.lock().expect("lane lock");
            for stage in lane.stage.chunks_exact(self.n_params) {
                for (a, &v) in self.grads.iter_mut().zip(stage) {
                    *a += v;
                }
            }
            for &l in &lane.losses {
                raw += l;
            }
        }
        net.zero_grad();
        net.add_grads(&self.grads);
        raw
    }
}

/// One gradient lane: a replica network plus the per-sample gradient
/// images and raw losses of its shard of the current mini-batch.
struct Lane {
    net: Sequential,
    /// `shard_len × n_params` per-sample gradient images, sample order.
    stage: Vec<f32>,
    /// Raw (unnormalized) per-sample losses, sample order.
    losses: Vec<f32>,
}

impl Lane {
    /// Replays batch positions `range` one sample at a time: sync
    /// weights from the broadcast image, then per sample zero the
    /// replica's gradients, forward, score against the *batch-wide*
    /// `norm`, backward, and append the flat gradient image to `stage`.
    #[allow(clippy::too_many_arguments)]
    fn run(
        &mut self,
        range: Range<usize>,
        x: &Tensor,
        chunk: &[usize],
        labels: &[u32],
        cw: Option<&[f32]>,
        norm: f32,
        weights: &[f32],
    ) {
        self.net.import_params(weights);
        self.stage.clear();
        self.losses.clear();
        for pos in range {
            self.net.zero_grad();
            let logits = self.net.forward(&gather_samples(x, &chunk[pos..=pos]), true);
            let (loss, grad) = cross_entropy_with_norm(&logits, &labels[pos..=pos], cw, norm);
            self.net.backward(&grad);
            self.net.export_grads(&mut self.stage);
            self.losses.push(loss);
        }
    }
}

/// [`train`] over CSR feature rows: mini-batches are gathered as CSR
/// row slices and the network's first layer runs the sparse×dense
/// matmul, so dense feature batches are never materialized.
///
/// Same shuffling RNG, loss, and optimizer schedule as [`train`]; the
/// sparse forward/backward are bit-compatible with the dense ones, so a
/// given seed yields the same report and the same trained weights.
///
/// Stays sample-serial regardless of `config.shards`: the sparse
/// backward touches only the nonzero rows of `dW`, so staging a dense
/// per-sample gradient image would cost orders of magnitude more than
/// the compute it parallelizes. Serial execution is trivially
/// independent of thread count, which is what the determinism
/// invariant checks.
///
/// # Panics
///
/// Panics if `x` and `y` disagree on the sample count, the batch size
/// is zero, `x` is empty, or the network has no layers.
pub fn train_sparse(
    net: &mut Sequential,
    x: &CsrMatrix,
    y: &[u32],
    config: &TrainConfig,
) -> TrainReport {
    run_epochs(net, TrainSet::Sparse(x), y, config, &mut Adam::new(config.lr))
}

/// Gathers samples along the leading axis.
pub fn gather_samples(x: &Tensor, indices: &[usize]) -> Tensor {
    let n = x.shape()[0];
    let sample_len = x.len() / n;
    let mut data = Vec::with_capacity(indices.len() * sample_len);
    for &i in indices {
        assert!(i < n, "sample index out of range");
        data.extend_from_slice(&x.data()[i * sample_len..(i + 1) * sample_len]);
    }
    let mut shape = x.shape().to_vec();
    shape[0] = indices.len();
    Tensor::from_vec(data, &shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, Relu};

    fn two_blob_data(n_per: usize) -> (Tensor, Vec<u32>) {
        // Two well-separated Gaussian-ish blobs on a line.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n_per {
            let jitter = (i as f32 * 0.37).sin() * 0.3;
            rows.push(vec![-2.0 + jitter, 1.0]);
            labels.push(0u32);
            rows.push(vec![2.0 - jitter, -1.0]);
            labels.push(1u32);
        }
        (Tensor::from_rows(&rows), labels)
    }

    #[test]
    fn trains_to_separate_blobs() {
        let (x, y) = two_blob_data(30);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(2, 8, 1)),
            Box::new(Relu::new()),
            Box::new(Dense::new(8, 2, 2)),
        ]);
        let report =
            train(&mut net, &x, &y, &TrainConfig { epochs: 60, lr: 0.01, ..Default::default() });
        assert!(report.final_loss() < 0.1, "loss {}", report.final_loss());
        assert_eq!(net.predict(&x), y);
    }

    #[test]
    fn loss_decreases_over_training() {
        let (x, y) = two_blob_data(20);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(2, 4, 5)),
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 2, 6)),
        ]);
        let report = train(&mut net, &x, &y, &TrainConfig { epochs: 30, ..Default::default() });
        assert!(report.final_loss() < report.epoch_losses[0]);
    }

    #[test]
    fn training_is_deterministic() {
        let (x, y) = two_blob_data(10);
        let make = || {
            Sequential::new(vec![
                Box::new(Dense::new(2, 4, 7)) as Box<dyn Layer>,
                Box::new(Relu::new()),
                Box::new(Dense::new(4, 2, 8)),
            ])
        };
        let mut a = make();
        let mut b = make();
        let cfg = TrainConfig { epochs: 5, ..Default::default() };
        let ra = train(&mut a, &x, &y, &cfg);
        let rb = train(&mut b, &x, &y, &cfg);
        assert_eq!(ra, rb);
        assert_eq!(a.predict(&x), b.predict(&x));
    }

    #[test]
    fn gather_samples_keeps_shape_tail() {
        let x = Tensor::zeros(&[4, 3, 2, 2]);
        let g = gather_samples(&x, &[1, 3]);
        assert_eq!(g.shape(), &[2, 3, 2, 2]);
    }

    #[test]
    fn n_params_counts_weights_and_biases() {
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(10, 5, 1)) as Box<dyn Layer>,
            Box::new(Dense::new(5, 3, 2)),
        ]);
        assert_eq!(net.n_params(), 10 * 5 + 5 + 5 * 3 + 3);
    }

    #[test]
    #[should_panic(expected = "one label per sample")]
    fn rejects_label_mismatch() {
        let mut net = Sequential::new(vec![Box::new(Dense::new(2, 2, 1)) as Box<dyn Layer>]);
        train(&mut net, &Tensor::zeros(&[3, 2]), &[0, 1], &TrainConfig::default());
    }

    /// Bit patterns of every parameter, for exact comparisons.
    fn weight_bits(net: &mut Sequential) -> Vec<u32> {
        let mut bits = Vec::new();
        net.visit_params(&mut |p, _| bits.extend(p.data().iter().map(|v| v.to_bits())));
        bits
    }

    #[test]
    fn shard_ranges_partition_contiguously_and_balanced() {
        for n in [0usize, 1, 2, 5, 31, 32, 33, 100] {
            for shards in [1usize, 2, 3, 7, 8, 64] {
                let ranges = shard_ranges(n, shards);
                // Contiguous cover of 0..n in order.
                let mut next = 0usize;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, n, "n={n} shards={shards}");
                // Balanced: sizes differ by at most one.
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "n={n} shards={shards} sizes={sizes:?}");
            }
        }
    }

    #[test]
    fn shard_ranges_ignore_thread_environment() {
        // Boundaries are a pure function of (n, shards): recomputing
        // them under any executor fan-out yields the same answer as on
        // the caller's thread, so a machine's core count (or
        // ELEV_THREADS) can never move a sample between shards.
        let expect = shard_ranges(37, 5);
        for workers in [1usize, 2, 4, 8] {
            let inside =
                exec::Executor::new(workers).map(&[(); 3], |_, _| shard_ranges(37, 5));
            for got in inside {
                assert_eq!(got, expect, "workers={workers}");
            }
        }
    }

    /// The tentpole guarantee: the staged (sharded) trainer reproduces
    /// the serial trainer's weights *bit for bit*, at every lane count.
    #[test]
    fn staged_training_is_bit_identical_to_serial() {
        let (x, y) = two_blob_data(13); // 26 samples → uneven batches
        let make = || {
            Sequential::new(vec![
                Box::new(Dense::new(2, 8, 7)) as Box<dyn Layer>,
                Box::new(Relu::new()),
                Box::new(Dense::new(8, 2, 8)),
            ])
        };
        let base_cfg =
            TrainConfig { epochs: 4, batch_size: 8, lr: 0.01, shards: Some(1), ..Default::default() };
        let mut serial = make();
        let r0 = train(&mut serial, &x, &y, &base_cfg);
        let expect = weight_bits(&mut serial);
        for lanes in [2usize, 3, 8] {
            let mut net = make();
            let cfg = TrainConfig { shards: Some(lanes), ..base_cfg.clone() };
            let r = train(&mut net, &x, &y, &cfg);
            assert_eq!(r.epoch_losses, r0.epoch_losses, "lanes={lanes}");
            assert_eq!(weight_bits(&mut net), expect, "lanes={lanes}");
        }
    }

    /// Same guarantee for the conv stack (the paper CNN's layer types),
    /// including class weights in the loss.
    #[test]
    fn staged_cnn_training_matches_serial_bitwise() {
        use crate::models::paper_cnn;
        // 12 tiny images, 3 classes, unbalanced so weights matter.
        let n = 12usize;
        let x = Tensor::from_vec(
            (0..n * 3 * 32 * 32).map(|i| ((i * 37 % 97) as f32 - 48.0) * 0.02).collect(),
            &[n, 3, 32, 32],
        );
        let y: Vec<u32> = (0..n as u32).map(|i| if i < 7 { 0 } else if i < 11 { 1 } else { 2 }).collect();
        let cw = crate::loss::inverse_frequency_weights(&y, 3);
        let base_cfg = TrainConfig {
            epochs: 2,
            batch_size: 5,
            lr: 2e-3,
            class_weights: Some(cw),
            shards: Some(1),
            ..Default::default()
        };
        let mut serial = paper_cnn(3, 0);
        let r0 = train(&mut serial, &x, &y, &base_cfg);
        let expect = weight_bits(&mut serial);
        for lanes in [2usize, 4] {
            let mut net = paper_cnn(3, 0);
            let cfg = TrainConfig { shards: Some(lanes), ..base_cfg.clone() };
            let r = train(&mut net, &x, &y, &cfg);
            assert_eq!(r.epoch_losses, r0.epoch_losses, "lanes={lanes}");
            assert_eq!(weight_bits(&mut net), expect, "lanes={lanes}");
        }
    }

    /// A kept network carries its layer scratch into the next fit (and
    /// its lanes are cloned from it, scratch included); that must not
    /// move a bit of the result.
    #[test]
    fn layer_scratch_reuse_across_fits_changes_nothing() {
        use crate::models::paper_cnn;
        let n = 6usize;
        let x = Tensor::from_vec(
            (0..n * 3 * 32 * 32).map(|i| ((i * 53 % 89) as f32 - 44.0) * 0.02).collect(),
            &[n, 3, 32, 32],
        );
        let y = [0u32, 1, 0, 1, 1, 0];
        let cfg = TrainConfig { epochs: 1, batch_size: 3, shards: Some(2), ..Default::default() };
        let mut fresh = paper_cnn(2, 4);
        let mut start = Vec::new();
        fresh.export_params(&mut start);
        train(&mut fresh, &x, &y, &cfg);
        let expect = weight_bits(&mut fresh);

        let mut kept = paper_cnn(2, 4);
        train(&mut kept, &x, &y, &TrainConfig { shards: Some(1), ..cfg.clone() });
        for shards in [Some(2), Some(1)] {
            kept.import_params(&start);
            train(&mut kept, &x, &y, &TrainConfig { shards, ..cfg.clone() });
            assert_eq!(weight_bits(&mut kept), expect, "shards={shards:?}");
        }
    }
}
