//! Per-phase wall-clock accounting for the experiment pipeline.
//!
//! The pipeline has three hot phases — featurization (BoW/raster),
//! model fitting, and prediction — and `run_all` reports how the total
//! wall-clock splits across them. Counters are process-global atomics:
//! spans recorded on worker threads of the parallel executor simply
//! accumulate, so with `ELEV_THREADS > 1` the totals are summed
//! thread-time, which can exceed elapsed wall-clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The accounted pipeline phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Featurization: discretize → encode → BoW, or raster rendering.
    Featurize,
    /// Classifier training (SVM / RFC / MLP / CNN).
    Fit,
    /// CNN training specifically — a *subset* of [`Phase::Fit`] (the
    /// span nests inside a `Fit` span), broken out because it dominates
    /// the image-side tables. Excluded from [`PhaseTimes::total`].
    CnnTrain,
    /// Inference on held-out samples.
    Predict,
}

/// One set of per-phase counters, in nanoseconds.
struct Counters {
    featurize: AtomicU64,
    fit: AtomicU64,
    cnn_train: AtomicU64,
    predict: AtomicU64,
}

/// The process-global counters behind [`time`], [`snapshot`] and
/// [`reset`].
static COUNTERS: Counters = Counters::new();

impl Counters {
    const fn new() -> Self {
        Self {
            featurize: AtomicU64::new(0),
            fit: AtomicU64::new(0),
            cnn_train: AtomicU64::new(0),
            predict: AtomicU64::new(0),
        }
    }

    fn counter(&self, phase: Phase) -> &AtomicU64 {
        match phase {
            Phase::Featurize => &self.featurize,
            Phase::Fit => &self.fit,
            Phase::CnnTrain => &self.cnn_train,
            Phase::Predict => &self.predict,
        }
    }

    fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.counter(phase).fetch_add(ns, Ordering::Relaxed);
        out
    }

    fn snapshot(&self) -> PhaseTimes {
        let read = |c: &AtomicU64| Duration::from_nanos(c.load(Ordering::Relaxed));
        PhaseTimes {
            featurize: read(&self.featurize),
            fit: read(&self.fit),
            cnn_train: read(&self.cnn_train),
            predict: read(&self.predict),
        }
    }

    fn reset(&self) {
        for c in [&self.featurize, &self.fit, &self.cnn_train, &self.predict] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

/// Runs `f`, charging its elapsed time to `phase`.
pub fn time<T>(phase: Phase, f: impl FnOnce() -> T) -> T {
    COUNTERS.time(phase, f)
}

/// Accumulated per-phase totals since process start (or [`reset`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimes {
    /// Total featurization time.
    pub featurize: Duration,
    /// Total fitting time.
    pub fit: Duration,
    /// CNN-training share of `fit` (nested spans; not added to
    /// [`total`](Self::total)).
    pub cnn_train: Duration,
    /// Total prediction time.
    pub predict: Duration,
}

impl PhaseTimes {
    /// Sum of the disjoint phases. `cnn_train` is excluded: its spans
    /// nest inside `fit` spans and are already counted there.
    pub fn total(&self) -> Duration {
        self.featurize + self.fit + self.predict
    }
}

/// Reads the current totals.
pub fn snapshot() -> PhaseTimes {
    COUNTERS.snapshot()
}

/// Zeroes all counters (tests and per-run reporting).
pub fn reset() {
    COUNTERS.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_accumulate_into_snapshot() {
        // Other tests in the process may also record spans; assert
        // relative growth instead of absolute values.
        let before = snapshot();
        let out = time(Phase::Fit, || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(out, 7);
        let after = snapshot();
        assert!(after.fit >= before.fit + Duration::from_millis(2));
        assert!(after.total() > before.total());
    }

    #[test]
    fn phases_are_charged_independently() {
        // Private counters: other tests in the process charge the
        // global ones concurrently, a `Predict` span included.
        let counters = Counters::new();
        counters.time(Phase::Featurize, || std::thread::sleep(Duration::from_millis(1)));
        let after = counters.snapshot();
        assert!(after.featurize >= Duration::from_millis(1));
        assert_eq!((after.fit, after.cnn_train, after.predict), Default::default());
    }
}
