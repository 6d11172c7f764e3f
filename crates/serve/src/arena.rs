//! Per-worker zero-alloc inference arenas.
//!
//! The serving hot path owns every reusable buffer up front, so a warm
//! request allocates nothing. One [`InferenceArena`] per connection
//! worker owns:
//!
//! - the SVM margin buffer,
//! - the forest vote histogram,
//! - the dense scatter row the forest's trees index into (scattered
//!   from the sparse BoW before voting, re-zeroed after),
//! - the MLP's [`neuralnet::InferScratch`] (hidden + logit buffers),
//! - the streaming ingester ([`elev_core::ingest::StreamingIngest`])
//!   whose point buffer, timestamp arena, and repair scratch take
//!   uploads from raw bytes to an elevation profile with no DOM.
//!
//! After [`ModelBundle::warm`](crate::ModelBundle::warm) (or one cold
//! request), every classify call reuses these buffers: the classify
//! path performs **zero heap allocations**, asserted under a counting
//! global allocator in `crates/serve/tests/zero_alloc.rs` and reported
//! by the serve bench.

use elev_core::ingest::StreamingIngest;
use neuralnet::InferScratch;

/// Reusable classification scratch for one worker.
#[derive(Debug, Default)]
pub struct InferenceArena {
    /// SVM per-class margins.
    pub(crate) scores: Vec<f32>,
    /// Forest per-class vote counts.
    pub(crate) votes: Vec<usize>,
    /// Dense scatter row for the forest (sized to the widest task's
    /// feature count, zero except while a row is scattered in).
    pub(crate) dense: Vec<f32>,
    /// MLP hidden/logit buffers.
    pub(crate) scratch: InferScratch,
    /// Streaming (DOM-free) upload ingestion with reusable buffers.
    pub(crate) ingest: StreamingIngest,
}

impl InferenceArena {
    /// An empty arena; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the dense scatter row to at least `n_features`, zeroed.
    pub(crate) fn ensure_dense(&mut self, n_features: usize) {
        if self.dense.len() < n_features {
            self.dense.resize(n_features, 0.0);
        }
    }
}
