//! Random forest: bagged CART trees with majority voting.

use crate::tree::{DecisionTree, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{derive_support, Deserialize, Error, Serialize, Value};

/// Forest hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees (the paper uses 100).
    pub n_trees: usize,
    /// Per-tree configuration; `max_features: None` here means √d is
    /// chosen automatically, the standard forest heuristic.
    pub tree: TreeConfig,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self { n_trees: 100, tree: TreeConfig::default() }
    }
}

/// The paper's RFC: 100 bagged trees, majority vote.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
}

/// Accepts exactly what [`Serialize`] writes: at least one tree, every
/// tree as wide as the first, and every leaf's class below `n_classes`.
impl Deserialize for RandomForest {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let field = |key| derive_support::field(value, "RandomForest", key);
        let trees = Vec::<DecisionTree>::from_value(field("trees")?)?;
        let n_classes = usize::from_value(field("n_classes")?)?;
        let dim = trees.first().ok_or_else(|| Error::custom("RandomForest: no trees"))?.dim();
        if let Some(t) = trees.iter().find(|t| t.dim() != dim) {
            return Err(Error::custom(format!(
                "RandomForest: a {}-feature tree among {dim}-feature ones",
                t.dim()
            )));
        }
        if let Some(class) = trees.iter().map(DecisionTree::max_class).max() {
            if class as usize >= n_classes {
                return Err(Error::custom(format!(
                    "RandomForest: a leaf of class {class} in a {n_classes}-class forest"
                )));
            }
        }
        Ok(Self { trees, n_classes })
    }
}

impl RandomForest {
    /// Trains the forest. Trees are grown in parallel on the shared
    /// work-stealing executor (`ELEV_THREADS`-aware); results are
    /// position-stable, so training remains deterministic for a given
    /// seed at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or ragged, lengths mismatch, or
    /// `n_trees == 0`.
    pub fn fit(x: &[Vec<f32>], y: &[u32], config: &ForestConfig, seed: u64) -> Self {
        assert!(config.n_trees > 0, "need at least one tree");
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(x.len(), y.len(), "one label per row");
        let dim = x[0].len();
        let n_classes = y.iter().copied().max().unwrap() as usize + 1;

        let tree_cfg = TreeConfig {
            max_features: config
                .tree
                .max_features
                .or_else(|| Some(((dim as f64).sqrt().round() as usize).max(1))),
            ..config.tree
        };

        // Pre-draw bootstrap samples sequentially for determinism.
        let mut rng = StdRng::seed_from_u64(seed);
        let bootstraps: Vec<(Vec<Vec<f32>>, Vec<u32>, u64)> = (0..config.n_trees)
            .map(|_| {
                let mut bx = Vec::with_capacity(x.len());
                let mut by = Vec::with_capacity(y.len());
                for _ in 0..x.len() {
                    let i = rng.gen_range(0..x.len());
                    bx.push(x[i].clone());
                    by.push(y[i]);
                }
                (bx, by, rng.gen())
            })
            .collect();

        let trees = exec::Executor::from_env().map(&bootstraps, |_, (bx, by, tree_seed)| {
            DecisionTree::fit(bx, by, &tree_cfg, *tree_seed)
        });

        Self { trees, n_classes }
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of classes the forest votes over.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Feature width the trees were grown on.
    pub fn dim(&self) -> usize {
        self.trees[0].dim()
    }

    /// Class-vote histogram for one row.
    pub fn votes(&self, row: &[f32]) -> Vec<usize> {
        let mut votes = Vec::with_capacity(self.n_classes);
        self.votes_into(row, &mut votes);
        votes
    }

    /// [`votes`](Self::votes) into a caller-owned buffer (cleared and
    /// re-zeroed first) — the serving hot path's allocation-free
    /// variant: once `out` has warmed to `n_classes` capacity, no heap
    /// allocation occurs.
    pub fn votes_into(&self, row: &[f32], out: &mut Vec<usize>) {
        out.clear();
        out.resize(self.n_classes, 0);
        for tree in &self.trees {
            out[tree.predict_one(row) as usize] += 1;
        }
    }

    /// Majority-vote prediction for one row (ties go to the lower
    /// class index, deterministically).
    pub fn predict_one(&self, row: &[f32]) -> u32 {
        let votes = self.votes(row);
        votes
            .iter()
            .enumerate()
            .max_by_key(|(i, &v)| (v, usize::MAX - i))
            .map(|(i, _)| i as u32)
            .expect("at least one class")
    }

    /// Predictions for many rows.
    pub fn predict(&self, rows: &[Vec<f32>]) -> Vec<u32> {
        rows.iter().map(|r| self.predict_one(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_per: usize) -> (Vec<Vec<f32>>, Vec<u32>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..n_per {
            let j = (i as f32 * 0.31).sin() * 0.3;
            x.push(vec![2.0 + j, 2.0 - j]);
            y.push(0);
            x.push(vec![-2.0 + j, -2.0 - j]);
            y.push(1);
        }
        (x, y)
    }

    #[test]
    fn deserialize_rejects_inconsistent_forests() {
        let (x, y) = blobs(10);
        let forest =
            RandomForest::fit(&x, &y, &ForestConfig { n_trees: 4, ..Default::default() }, 3);
        assert_eq!(RandomForest::from_value(&forest.to_value()), Ok(forest.clone()));
        let rejects = |f: RandomForest, what: &str| {
            let err = RandomForest::from_value(&f.to_value()).unwrap_err();
            assert!(err.to_string().contains(what), "{err}");
        };
        rejects(RandomForest { n_classes: 1, ..forest.clone() }, "leaf of class 1 in a 1-class");
        rejects(RandomForest { trees: Vec::new(), ..forest.clone() }, "no trees");
        let (wide_x, wide_y): (Vec<Vec<f32>>, Vec<u32>) =
            x.iter().map(|r| [r.as_slice(), &[0.0]].concat()).zip(y.clone()).unzip();
        let mut mixed = forest.clone();
        mixed.trees[2] = DecisionTree::fit(&wide_x, &wide_y, &TreeConfig::default(), 1);
        rejects(mixed, "a 3-feature tree among 2-feature ones");
    }

    #[test]
    fn forest_separates_blobs() {
        let (x, y) = blobs(25);
        let cfg = ForestConfig { n_trees: 20, ..Default::default() };
        let forest = RandomForest::fit(&x, &y, &cfg, 3);
        assert_eq!(forest.predict(&x), y);
    }

    #[test]
    fn votes_sum_to_tree_count() {
        let (x, y) = blobs(10);
        let cfg = ForestConfig { n_trees: 15, ..Default::default() };
        let forest = RandomForest::fit(&x, &y, &cfg, 3);
        let votes = forest.votes(&x[0]);
        assert_eq!(votes.iter().sum::<usize>(), 15);
    }

    #[test]
    fn deterministic_despite_parallelism() {
        let (x, y) = blobs(10);
        let cfg = ForestConfig { n_trees: 12, ..Default::default() };
        let a = RandomForest::fit(&x, &y, &cfg, 7);
        let b = RandomForest::fit(&x, &y, &cfg, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn default_matches_paper_tree_count() {
        assert_eq!(ForestConfig::default().n_trees, 100);
    }

    #[test]
    fn forest_beats_single_stump_on_noisy_data() {
        // Noisy labels: ensemble should at least match one shallow tree.
        let (mut x, mut y) = blobs(30);
        for i in (0..y.len()).step_by(7) {
            y[i] = 1 - y[i]; // inject label noise
            x[i][0] += 0.1;
        }
        let stump = crate::tree::DecisionTree::fit(
            &x,
            &y,
            &TreeConfig { max_depth: 1, ..Default::default() },
            1,
        );
        let forest =
            RandomForest::fit(&x, &y, &ForestConfig { n_trees: 30, ..Default::default() }, 1);
        let acc = |pred: Vec<u32>| pred.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(acc(forest.predict(&x)) >= acc(stump.predict(&x)));
    }

    #[test]
    #[should_panic(expected = "at least one tree")]
    fn rejects_zero_trees() {
        let (x, y) = blobs(2);
        RandomForest::fit(&x, &y, &ForestConfig { n_trees: 0, ..Default::default() }, 0);
    }
}
