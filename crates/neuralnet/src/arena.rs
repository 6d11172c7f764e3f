//! Persistent training arenas: reusable scratch for the mini-batch
//! loop and the per-lane state of the sharded trainer.
//!
//! A [`TrainArena`] owns every buffer the training loop would otherwise
//! reallocate per batch — the gathered mini-batch, the label vector,
//! the broadcast weight image, the per-sample gradient stages and their
//! reduction accumulator, plus one replica network per gradient lane.
//! Holding one arena across repeated fits (fine-tuning rounds, threat
//! model sweeps) makes steady-state training allocate only the layer
//! output tensors.

use crate::layer::Layer;
use crate::loss::cross_entropy_with_norm;
use crate::net::Sequential;
use std::ops::Range;
use std::sync::Mutex;
use tensorlite::Tensor;

/// Reusable scratch state for [`train_in_arena`](crate::train_in_arena).
///
/// An arena is tied to one network *shape*: lane replicas are cloned
/// from the first network trained with it and rebuilt if a structurally
/// different one shows up. Creating one is cheap — buffers grow lazily
/// to the sizes the training loop needs.
#[derive(Debug, Default)]
pub struct TrainArena {
    /// Mini-batch labels (reused across batches).
    yb: Vec<u32>,
    /// Backing storage of the gathered dense mini-batch.
    xb_data: Vec<f32>,
    /// Flat parameter image broadcast to the lanes each step.
    weight_stage: Vec<f32>,
    /// Fixed-order reduction accumulator (`n_params` floats).
    grad_accum: Vec<f32>,
    /// One replica network + per-sample gradient stage per lane.
    lanes: Vec<Mutex<Lane>>,
}

impl TrainArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies the chunk's labels into the reused label buffer.
    pub(crate) fn fill_labels(&mut self, chunk: &[usize], y: &[u32]) {
        self.yb.clear();
        self.yb.extend(chunk.iter().map(|&i| y[i]));
    }

    /// The labels of the current mini-batch.
    pub(crate) fn labels(&self) -> &[u32] {
        &self.yb
    }

    /// Gathers `chunk`'s samples along the leading axis into a tensor
    /// backed by the arena's reused buffer. Return it with
    /// [`recycle`](Self::recycle) so the allocation survives.
    pub(crate) fn gather(&mut self, x: &Tensor, chunk: &[usize]) -> Tensor {
        let n = x.shape()[0];
        let slen = x.len() / n;
        let mut buf = std::mem::take(&mut self.xb_data);
        buf.clear();
        buf.reserve(chunk.len() * slen);
        for &i in chunk {
            assert!(i < n, "sample index out of range");
            buf.extend_from_slice(&x.data()[i * slen..(i + 1) * slen]);
        }
        let mut shape = x.shape().to_vec();
        shape[0] = chunk.len();
        Tensor::from_vec(buf, &shape)
    }

    /// Takes a gathered batch's backing storage back for the next one.
    pub(crate) fn recycle(&mut self, xb: Tensor) {
        self.xb_data = xb.into_data();
    }

    /// The weight-broadcast buffer, for [`Sequential::export_params`].
    pub(crate) fn weight_stage_mut(&mut self) -> &mut Vec<f32> {
        &mut self.weight_stage
    }

    /// Grows (or rebuilds, when the network shape changed) the lane
    /// pool to at least `n` replicas of `net`.
    pub(crate) fn ensure_lanes(&mut self, net: &mut Sequential, n: usize) {
        let want_params = net.n_params();
        let compatible = self.lanes.first().is_none_or(|slot| {
            let mut lane = slot.lock().expect("lane lock");
            lane.net.n_params() == want_params && lane.net.n_layers() == net.n_layers()
        });
        if !compatible {
            self.lanes.clear();
        }
        while self.lanes.len() < n {
            self.lanes.push(Mutex::new(Lane::new(net)));
        }
    }

    /// Shared view of the first `n` lanes plus the broadcast weights
    /// and current labels — everything an `Executor::map` over lane
    /// indices needs.
    pub(crate) fn lane_view(&self, n: usize) -> (&[Mutex<Lane>], &[f32], &[u32]) {
        (&self.lanes[..n], &self.weight_stage, &self.yb)
    }

    /// Folds the lanes' per-sample gradient stages into `grad_accum`
    /// and returns the unnormalized loss, both in global sample order
    /// (lanes ascending, samples within a lane ascending). The
    /// accumulator starts from fresh `+0.0`s, exactly like the batch
    /// kernels' own sample-axis accumulation.
    pub(crate) fn reduce(&mut self, n_lanes: usize, n_params: usize) -> f32 {
        self.grad_accum.clear();
        self.grad_accum.resize(n_params, 0.0);
        let mut raw = 0.0f32;
        for slot in &self.lanes[..n_lanes] {
            let lane = slot.lock().expect("lane lock");
            for stage in lane.stage.chunks_exact(n_params) {
                for (a, &v) in self.grad_accum.iter_mut().zip(stage) {
                    *a += v;
                }
            }
            for &l in &lane.losses {
                raw += l;
            }
        }
        raw
    }

    /// The reduced gradient image of the last [`reduce`](Self::reduce).
    pub(crate) fn grad_accum(&self) -> &[f32] {
        &self.grad_accum
    }
}

/// One gradient lane: a replica network plus the per-sample stages it
/// produced for its shard of the current mini-batch.
#[derive(Debug)]
pub(crate) struct Lane {
    net: Sequential,
    /// Reused single-sample input tensor `[1, ...]`.
    x1: Option<Tensor>,
    /// `shard_len × n_params` per-sample gradient images, sample order.
    stage: Vec<f32>,
    /// Raw (unnormalized) per-sample losses, sample order.
    losses: Vec<f32>,
}

impl Lane {
    fn new(net: &Sequential) -> Self {
        Self { net: net.clone(), x1: None, stage: Vec::new(), losses: Vec::new() }
    }

    /// Replays batch positions `range` one sample at a time: sync
    /// weights from the broadcast image, then per sample zero the
    /// replica's gradients, forward, score against the *batch-wide*
    /// `norm`, backward, and append the flat gradient image to `stage`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run(
        &mut self,
        range: Range<usize>,
        x: &Tensor,
        chunk: &[usize],
        labels: &[u32],
        cw: Option<&[f32]>,
        norm: f32,
        weights: &[f32],
        n_params: usize,
    ) {
        self.net.import_params(weights);
        self.stage.clear();
        self.stage.reserve(range.len() * n_params);
        self.losses.clear();
        let slen = x.len() / x.shape()[0];
        let mut shape = x.shape().to_vec();
        shape[0] = 1;
        for pos in range {
            let idx = chunk[pos];
            let src = &x.data()[idx * slen..(idx + 1) * slen];
            let x1 = match self.x1.take() {
                Some(t) if t.len() == slen => {
                    let mut t = t.reshaped(&shape);
                    t.data_mut().copy_from_slice(src);
                    t
                }
                _ => Tensor::from_vec(src.to_vec(), &shape),
            };
            self.net.zero_grad();
            let logits = self.net.forward(&x1, true);
            let (loss, grad) =
                cross_entropy_with_norm(&logits, &labels[pos..pos + 1], cw, norm);
            self.net.backward(&grad);
            self.net.export_grads(&mut self.stage);
            self.losses.push(loss);
            self.x1 = Some(x1);
        }
    }
}
