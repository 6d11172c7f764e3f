//! Round-based fine-tuning for unbalanced datasets (paper Figs. 10–11).
//!
//! The paper's third remedy for class imbalance: build a series of
//! *round datasets* from the unbalanced corpus — the first round holds
//! every class balanced at the smallest class size; each consecutive
//! round drops the smallest class(es) and rebalances at the (larger)
//! new minimum — then train in **reverse creation order** (largest
//! classes first, all classes last), carrying parameters across rounds
//! and optionally lowering the learning rate for the final round.

use crate::net::{gather_samples, run_epochs, Sequential, TrainConfig, TrainReport, TrainSet};
use crate::optim::Adam;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use tensorlite::Tensor;

/// One round dataset: the sample indices it trains on and the classes
/// it still contains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Round {
    /// Indices into the full dataset (balanced across `classes`).
    pub indices: Vec<usize>,
    /// Classes present in this round.
    pub classes: Vec<u32>,
    /// Per-class sample count in this round.
    pub per_class: usize,
}

/// Builds round datasets from labels.
///
/// `drops[i]` is how many of the smallest remaining classes are removed
/// *after* round `i` (the paper's TM-3 run uses `[1, 2, 1, 2]` to go
/// from 10 classes to 5 rounds). Rounds are returned in creation order
/// (round 0 = all classes); training should iterate them in reverse.
///
/// # Panics
///
/// Panics if labels are empty, a drop count is zero, or the drops
/// exhaust all classes before the last round (at least two classes must
/// remain in the final round).
pub fn make_rounds(labels: &[u32], n_classes: usize, drops: &[usize], seed: u64) -> Vec<Round> {
    assert!(!labels.is_empty(), "cannot build rounds from no samples");
    let mut rng = StdRng::seed_from_u64(seed);

    // Per-class index pools, shuffled once for random selection.
    let mut pools: Vec<Vec<usize>> = vec![Vec::new(); n_classes];
    for (i, &l) in labels.iter().enumerate() {
        assert!((l as usize) < n_classes, "label {l} out of range");
        pools[l as usize].push(i);
    }
    for pool in &mut pools {
        pool.shuffle(&mut rng);
    }
    // Classes sorted ascending by size; empty classes are excluded.
    let mut remaining: Vec<u32> = (0..n_classes as u32)
        .filter(|&c| !pools[c as usize].is_empty())
        .collect();
    remaining.sort_by_key(|&c| (pools[c as usize].len(), c));

    let mut rounds = Vec::with_capacity(drops.len() + 1);
    let mut drop_iter = drops.iter();
    loop {
        assert!(
            remaining.len() >= 2,
            "rounds must keep at least two classes; too many drops"
        );
        let per_class = remaining
            .iter()
            .map(|&c| pools[c as usize].len())
            .min()
            .expect("remaining is non-empty");
        let mut indices = Vec::with_capacity(per_class * remaining.len());
        for &c in &remaining {
            indices.extend_from_slice(&pools[c as usize][..per_class]);
        }
        indices.sort_unstable();
        rounds.push(Round { indices, classes: remaining.clone(), per_class });
        match drop_iter.next() {
            Some(&d) => {
                assert!(d > 0, "drop counts must be positive");
                let d = d.min(remaining.len().saturating_sub(2));
                remaining.drain(..d);
            }
            None => break,
        }
    }
    rounds
}

/// Fine-tuning schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FineTuneConfig {
    /// Epochs per round (the paper sweeps 500/1000/2000 total across
    /// rounds; see Table VIII).
    pub epochs_per_round: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Learning rate for all but the last round.
    pub lr: f32,
    /// Learning rate for the final (all-classes) round; the paper
    /// suggests reducing it "to find the loss minima".
    pub final_lr: f32,
    /// Shuffle seed.
    pub seed: u64,
    /// Gradient lanes per mini-batch (see [`TrainConfig::shards`]).
    pub shards: Option<usize>,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        Self {
            epochs_per_round: 30,
            batch_size: 32,
            lr: 1e-3,
            final_lr: 1e-3,
            seed: 0,
            shards: None,
        }
    }
}

/// Runs the Fig. 11 pipeline: trains `net` on the rounds in reverse
/// creation order, passing parameters (and optimizer state) forward.
///
/// Returns one [`TrainReport`] per executed round.
pub fn fine_tune(
    net: &mut Sequential,
    x: &Tensor,
    y: &[u32],
    rounds: &[Round],
    config: &FineTuneConfig,
) -> Vec<TrainReport> {
    let mut adam = Adam::new(config.lr);
    let mut reports = Vec::with_capacity(rounds.len());
    for (step, round) in rounds.iter().rev().enumerate() {
        let is_last = step + 1 == rounds.len();
        let xb = gather_samples(x, &round.indices);
        let yb: Vec<u32> = round.indices.iter().map(|&i| y[i]).collect();
        let cfg = TrainConfig {
            epochs: config.epochs_per_round,
            batch_size: config.batch_size,
            lr: if is_last { config.final_lr } else { config.lr },
            seed: config.seed.wrapping_add(step as u64),
            class_weights: None,
            shards: config.shards,
        };
        reports.push(run_epochs(net, TrainSet::Dense(&xb), &yb, &cfg, &mut adam));
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::mlp;

    fn unbalanced_labels() -> Vec<u32> {
        // Class sizes: 0 → 40, 1 → 12, 2 → 6.
        let mut y = vec![0u32; 40];
        y.extend(vec![1u32; 12]);
        y.extend(vec![2u32; 6]);
        y
    }

    #[test]
    fn rounds_shrink_classes_and_grow_per_class() {
        let y = unbalanced_labels();
        let rounds = make_rounds(&y, 3, &[1], 1);
        assert_eq!(rounds.len(), 2);
        // Round 0: all three classes at the smallest size (6).
        assert_eq!(rounds[0].classes.len(), 3);
        assert_eq!(rounds[0].per_class, 6);
        assert_eq!(rounds[0].indices.len(), 18);
        // Round 1: smallest class dropped, balanced at 12.
        assert_eq!(rounds[1].classes, vec![1, 0]);
        assert_eq!(rounds[1].per_class, 12);
        assert_eq!(rounds[1].indices.len(), 24);
    }

    #[test]
    fn round_indices_match_declared_classes() {
        let y = unbalanced_labels();
        for round in make_rounds(&y, 3, &[1], 5) {
            for &i in &round.indices {
                assert!(round.classes.contains(&y[i]));
            }
            // Balanced: every class appears per_class times.
            for &c in &round.classes {
                let n = round.indices.iter().filter(|&&i| y[i] == c).count();
                assert_eq!(n, round.per_class);
            }
        }
    }

    #[test]
    fn paper_tm3_round_structure() {
        // 10 classes, drops [1, 2, 1, 2] → 5 rounds ending with 4 classes.
        let mut y = Vec::new();
        for c in 0..10u32 {
            y.extend(vec![c; 10 + c as usize * 15]);
        }
        let rounds = make_rounds(&y, 10, &[1, 2, 1, 2], 3);
        assert_eq!(rounds.len(), 5);
        let class_counts: Vec<usize> = rounds.iter().map(|r| r.classes.len()).collect();
        assert_eq!(class_counts, vec![10, 9, 7, 6, 4]);
    }

    #[test]
    fn rounds_are_deterministic() {
        let y = unbalanced_labels();
        assert_eq!(make_rounds(&y, 3, &[1], 7), make_rounds(&y, 3, &[1], 7));
    }

    #[test]
    #[should_panic(expected = "at least two classes")]
    fn rejects_exhausting_drops() {
        // 2 classes: dropping even one leaves a single class → clamped,
        // but an initial single-class dataset must panic.
        make_rounds(&[0u32, 0, 0], 1, &[], 0);
    }

    #[test]
    fn fine_tune_trains_all_classes() {
        // Separable 1-D blobs at -3, 0, +3 with unbalanced sizes.
        let mut rows = Vec::new();
        let mut y = Vec::new();
        for (c, (center, n)) in [(-3.0f32, 30usize), (0.0, 12), (3.0, 6)].iter().enumerate() {
            for i in 0..*n {
                rows.push(vec![center + ((i as f32) * 0.61).sin() * 0.4]);
                y.push(c as u32);
            }
        }
        let x = Tensor::from_rows(&rows);
        let rounds = make_rounds(&y, 3, &[1], 11);
        let mut net = mlp(1, 16, 3, 2);
        let cfg = FineTuneConfig {
            epochs_per_round: 80,
            lr: 0.01,
            final_lr: 0.005,
            ..Default::default()
        };
        let reports = fine_tune(&mut net, &x, &y, &rounds, &cfg);
        assert_eq!(reports.len(), 2);
        let pred = net.predict(&x);
        let correct = pred.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(correct as f64 >= y.len() as f64 * 0.9, "{correct}/{}", y.len());
    }
}
