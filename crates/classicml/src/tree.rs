//! CART decision trees with Gini impurity.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{derive_support, Deserialize, Error, Serialize, Value};

/// Decision-tree hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of candidate features per split; `None` uses all
    /// (single trees) — forests pass `Some(√d)`.
    pub max_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        Self { max_depth: 24, min_samples_split: 2, max_features: None }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf {
        class: u32,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    /// The largest split feature (`None` for a lone leaf) and the
    /// largest leaf class in this subtree.
    fn extent(&self) -> (Option<usize>, u32) {
        match self {
            Node::Leaf { class } => (None, *class),
            Node::Split { feature, left, right, .. } => {
                let (lf, lc) = left.extent();
                let (rf, rc) = right.extent();
                (Some(*feature).max(lf).max(rf), lc.max(rc))
            }
        }
    }
}

/// A CART classifier: binary splits minimizing weighted Gini impurity.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DecisionTree {
    root: Node,
    dim: usize,
}

/// Accepts exactly what [`Serialize`] writes: every split tests a
/// feature below the tree's width.
impl Deserialize for DecisionTree {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let field = |key| derive_support::field(value, "DecisionTree", key);
        let root = Node::from_value(field("root")?)?;
        let dim = usize::from_value(field("dim")?)?;
        if let (Some(feature), _) = root.extent() {
            if feature >= dim {
                return Err(Error::custom(format!(
                    "DecisionTree: a split on feature {feature} in a {dim}-feature tree"
                )));
            }
        }
        Ok(Self { root, dim })
    }
}

impl DecisionTree {
    /// Grows a tree on `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or ragged or `x`/`y` lengths differ.
    pub fn fit(x: &[Vec<f32>], y: &[u32], config: &TreeConfig, seed: u64) -> Self {
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(x.len(), y.len(), "one label per row");
        let dim = x[0].len();
        assert!(x.iter().all(|r| r.len() == dim), "ragged feature rows");
        let n_classes = y.iter().copied().max().unwrap() as usize + 1;
        let mut rng = StdRng::seed_from_u64(seed);
        let indices: Vec<usize> = (0..x.len()).collect();
        let root = grow(x, y, &indices, n_classes, config, 0, &mut rng);
        Self { root, dim }
    }

    /// Feature width the tree was grown on.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The largest class any leaf predicts.
    pub fn max_class(&self) -> u32 {
        self.root.extent().1
    }

    /// Predicted class for one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the training data.
    pub fn predict_one(&self, row: &[f32]) -> u32 {
        assert_eq!(row.len(), self.dim, "feature width mismatch");
        let mut node = &self.root;
        loop {
            match node {
                Node::Leaf { class } => return *class,
                Node::Split { feature, threshold, left, right } => {
                    node = if row[*feature] <= *threshold { left } else { right };
                }
            }
        }
    }

    /// Predicted classes for many rows.
    pub fn predict(&self, rows: &[Vec<f32>]) -> Vec<u32> {
        rows.iter().map(|r| self.predict_one(r)).collect()
    }

    /// Tree depth (longest root-to-leaf path).
    pub fn depth(&self) -> usize {
        fn d(n: &Node) -> usize {
            match n {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + d(left).max(d(right)),
            }
        }
        d(&self.root)
    }
}

fn majority(y: &[u32], indices: &[usize], n_classes: usize) -> u32 {
    let mut counts = vec![0usize; n_classes];
    for &i in indices {
        counts[y[i] as usize] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|(_, &c)| c)
        .map(|(c, _)| c as u32)
        .unwrap_or(0)
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts.iter().map(|&c| (c as f64 / t).powi(2)).sum::<f64>()
}

#[allow(clippy::too_many_arguments)]
fn grow(
    x: &[Vec<f32>],
    y: &[u32],
    indices: &[usize],
    n_classes: usize,
    config: &TreeConfig,
    depth: usize,
    rng: &mut StdRng,
) -> Node {
    // Stop when pure, too deep, or too small.
    let first = y[indices[0]];
    if depth >= config.max_depth
        || indices.len() < config.min_samples_split
        || indices.iter().all(|&i| y[i] == first)
    {
        return Node::Leaf { class: majority(y, indices, n_classes) };
    }

    let dim = x[0].len();
    let mut feature_pool: Vec<usize> = (0..dim).collect();
    let n_candidates = config.max_features.unwrap_or(dim).clamp(1, dim);
    if n_candidates < dim {
        feature_pool.shuffle(rng);
        feature_pool.truncate(n_candidates);
    }

    let parent_counts = {
        let mut c = vec![0usize; n_classes];
        for &i in indices {
            c[y[i] as usize] += 1;
        }
        c
    };
    let parent_gini = gini(&parent_counts, indices.len());

    let mut best: Option<(usize, f32, f64)> = None; // (feature, threshold, score)
    let mut sorted = indices.to_vec();
    for &f in &feature_pool {
        sorted.sort_by(|&a, &b| x[a][f].total_cmp(&x[b][f]));
        // Sweep split points between distinct consecutive values.
        let mut left_counts = vec![0usize; n_classes];
        let mut right_counts = parent_counts.clone();
        for k in 0..sorted.len() - 1 {
            let i = sorted[k];
            left_counts[y[i] as usize] += 1;
            right_counts[y[i] as usize] -= 1;
            let (a, b) = (x[sorted[k]][f], x[sorted[k + 1]][f]);
            if a == b {
                continue;
            }
            let nl = k + 1;
            let nr = sorted.len() - nl;
            let score = (nl as f64 * gini(&left_counts, nl)
                + nr as f64 * gini(&right_counts, nr))
                / sorted.len() as f64;
            // Zero-gain splits are allowed (XOR-like data has no
            // first-level gain); recursion still terminates because both
            // children are strictly smaller.
            if best.map_or(score <= parent_gini + 1e-12, |(_, _, s)| score < s) {
                best = Some((f, (a + b) / 2.0, score));
            }
        }
    }

    let Some((feature, threshold, _)) = best else {
        return Node::Leaf { class: majority(y, indices, n_classes) };
    };
    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
        indices.iter().partition(|&&i| x[i][feature] <= threshold);
    if left_idx.is_empty() || right_idx.is_empty() {
        return Node::Leaf { class: majority(y, indices, n_classes) };
    }
    Node::Split {
        feature,
        threshold,
        left: Box::new(grow(x, y, &left_idx, n_classes, config, depth + 1, rng)),
        right: Box::new(grow(x, y, &right_idx, n_classes, config, depth + 1, rng)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_data() -> (Vec<Vec<f32>>, Vec<u32>) {
        let mut x = Vec::new();
        let mut y = Vec::new();
        for &(a, b, l) in
            &[(0.0f32, 0.0f32, 0u32), (0.0, 1.0, 1), (1.0, 0.0, 1), (1.0, 1.0, 0)]
        {
            for k in 0..5 {
                let j = k as f32 * 0.02;
                x.push(vec![a + j, b - j]);
                y.push(l);
            }
        }
        (x, y)
    }

    #[test]
    fn deserialize_rejects_a_split_past_the_width() {
        let (x, y) = xor_data();
        let tree = DecisionTree::fit(&x, &y, &TreeConfig::default(), 1);
        assert_eq!(DecisionTree::from_value(&tree.to_value()), Ok(tree.clone()));
        let mut wide = tree.clone();
        if let Node::Split { feature, .. } = &mut wide.root {
            *feature = 999_999;
        }
        let err = DecisionTree::from_value(&wide.to_value()).unwrap_err();
        assert!(err.to_string().contains("feature 999999 in a 2-feature tree"), "{err}");
    }

    #[test]
    fn learns_xor_exactly() {
        let (x, y) = xor_data();
        let tree = DecisionTree::fit(&x, &y, &TreeConfig::default(), 1);
        assert_eq!(tree.predict(&x), y);
        assert!(tree.depth() >= 2); // XOR needs two levels
    }

    #[test]
    fn pure_node_is_a_leaf() {
        let x = vec![vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1u32, 1, 1];
        let tree = DecisionTree::fit(&x, &y, &TreeConfig::default(), 1);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict_one(&[99.0]), 1);
    }

    #[test]
    fn max_depth_limits_growth() {
        let (x, y) = xor_data();
        let cfg = TreeConfig { max_depth: 1, ..Default::default() };
        let tree = DecisionTree::fit(&x, &y, &cfg, 1);
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn gini_identities() {
        assert_eq!(gini(&[10, 0], 10), 0.0);
        assert!((gini(&[5, 5], 10) - 0.5).abs() < 1e-12);
        assert!((gini(&[1, 1, 1, 1], 4) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = xor_data();
        let cfg = TreeConfig { max_features: Some(1), ..Default::default() };
        assert_eq!(DecisionTree::fit(&x, &y, &cfg, 5), DecisionTree::fit(&x, &y, &cfg, 5));
    }

    #[test]
    fn constant_features_yield_leaf() {
        let x = vec![vec![1.0, 1.0]; 6];
        let y = vec![0u32, 1, 0, 1, 0, 0];
        let tree = DecisionTree::fit(&x, &y, &TreeConfig::default(), 1);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict_one(&[1.0, 1.0]), 0); // majority
    }

    #[test]
    #[should_panic(expected = "one label per row")]
    fn rejects_mismatched_lengths() {
        DecisionTree::fit(&[vec![1.0]], &[0, 1], &TreeConfig::default(), 0);
    }
}
