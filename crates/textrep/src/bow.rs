//! Bag-of-words feature extraction with frequency-threshold selection.

use crate::ngrams::Vocabulary;
use serde::{Deserialize, Serialize};
use sparsemat::SparseVec;
use std::collections::HashMap;

/// Feature-selection policy for [`BowVectorizer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureSelection {
    /// Minimum corpus term frequency; entries below it are discarded
    /// (the paper's threshold-based selection). Values of 0 and 1 are
    /// equivalent (every counted gram survives).
    pub tf_threshold: usize,
    /// Optional hard cap: keep only the `max` most frequent features
    /// (ties broken lexicographically for determinism). The paper orders
    /// features by term frequency before discarding; the cap applies the
    /// same ordering when even thresholded vocabularies are too large.
    pub max_features: Option<usize>,
}

impl FeatureSelection {
    /// Keep everything that occurs at all.
    pub fn keep_all() -> Self {
        Self { tf_threshold: 1, max_features: None }
    }

    /// The default used by the experiment pipelines: grams occurring at
    /// least twice, capped at 4096 features.
    pub fn standard() -> Self {
        Self { tf_threshold: 2, max_features: Some(4096) }
    }
}

impl Default for FeatureSelection {
    fn default() -> Self {
        Self::standard()
    }
}

/// Bag-of-words vectorizer over an n-gram vocabulary.
///
/// Per the paper's feature extraction: "words and non-overlapping
/// occurrences of word sequences are counted, a feature vector for each
/// sample is created with each unique word sequence count being a
/// feature. Finally, the feature vectors are normalized where each
/// feature represents the probability of occurrence of each word in the
/// given sample." Counting tiles the encoded signal with non-overlapping
/// windows per gram order.
///
/// Feature selection: "features are ordered by term frequency across the
/// corpus and the features whose term frequency is under the specified
/// threshold are discarded and a new vocabulary is created."
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BowVectorizer {
    /// Selected vocabulary entries, sorted (feature order).
    features: Vec<String>,
    /// entry → feature index.
    index: HashMap<String, usize>,
    word_size: usize,
    max_n: usize,
}

impl BowVectorizer {
    /// Fits the vectorizer: counts term frequencies over `corpus` and
    /// keeps vocabulary entries with `tf >= tf_threshold`.
    ///
    /// A threshold of 0 or 1 keeps the whole vocabulary.
    pub fn fit(
        vocabulary: Vocabulary,
        word_size: usize,
        max_n: usize,
        corpus: &[String],
        tf_threshold: usize,
    ) -> Self {
        let full_index: HashMap<&str, usize> = vocabulary
            .entries()
            .iter()
            .enumerate()
            .map(|(i, e)| (e.as_str(), i))
            .collect();
        let mut tf = vec![0usize; vocabulary.len()];
        for line in corpus {
            count_tiled(line, word_size, max_n, |gram| {
                if let Some(&i) = full_index.get(gram) {
                    tf[i] += 1;
                }
            });
        }
        let counted: Vec<(String, usize)> = vocabulary
            .entries()
            .iter()
            .zip(&tf)
            .map(|(e, &f)| (e.clone(), f))
            .collect();
        Self::from_counts(
            counted,
            FeatureSelection { tf_threshold, max_features: None },
            word_size,
            max_n,
        )
    }

    /// Fits directly from the corpus's non-overlapping tilings, without
    /// materializing the full sliding-window [`Vocabulary`].
    ///
    /// This produces the same classifier inputs as [`BowVectorizer::fit`]
    /// with the same selection: a gram that appears only in sliding
    /// windows (never tiled) has term frequency 0 and transforms every
    /// sample to 0 in that coordinate, so dropping it changes nothing.
    /// For the mined corpora (hundreds of thousands of words) this is
    /// the only practical path.
    pub fn fit_tiled(
        corpus: &[String],
        word_size: usize,
        max_n: usize,
        selection: FeatureSelection,
    ) -> Self {
        // Counted under borrowed keys: one `String` per distinct gram,
        // not per occurrence. `from_counts` orders totally, so the
        // map's iteration order never reaches the features.
        let mut tf: HashMap<&str, usize> = HashMap::new();
        for line in corpus {
            count_tiled(line, word_size, max_n, |gram| {
                *tf.entry(gram).or_insert(0) += 1;
            });
        }
        let counted = tf.into_iter().map(|(gram, f)| (gram.to_owned(), f)).collect();
        Self::from_counts(counted, selection, word_size, max_n)
    }

    fn from_counts(
        counted: Vec<(String, usize)>,
        selection: FeatureSelection,
        word_size: usize,
        max_n: usize,
    ) -> Self {
        let mut kept: Vec<(String, usize)> = counted
            .into_iter()
            .filter(|(_, f)| *f >= selection.tf_threshold.max(1))
            .collect();
        // Order by descending term frequency (paper), ties lexicographic.
        kept.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        if let Some(max) = selection.max_features {
            kept.truncate(max);
        }
        let mut features: Vec<String> = kept.into_iter().map(|(e, _)| e).collect();
        features.sort_unstable();
        let index = features
            .iter()
            .enumerate()
            .map(|(i, e)| (e.clone(), i))
            .collect();
        Self { features, index, word_size, max_n }
    }

    /// The selected features, in feature-vector order.
    pub fn features(&self) -> &[String] {
        &self.features
    }

    /// Feature-vector dimensionality.
    pub fn n_features(&self) -> usize {
        self.features.len()
    }

    /// Counts non-overlapping gram occurrences in an encoded signal and
    /// L1-normalizes into occurrence probabilities.
    ///
    /// Signals matching no feature transform to the zero vector. This is
    /// the densified view of [`BowVectorizer::transform_sparse`]; the two
    /// agree coordinate-for-coordinate, bit for bit.
    pub fn transform(&self, encoded: &str) -> Vec<f32> {
        self.transform_sparse(encoded).to_dense()
    }

    /// Counts non-overlapping gram occurrences and L1-normalizes, without
    /// ever materializing a dense row.
    ///
    /// Only matched grams are touched: the matched feature indices are
    /// collected, sorted, and run-length counted, so the cost scales with
    /// the number of grams in the signal rather than with the vocabulary
    /// size. Each stored value is `count / total` — exactly the value the
    /// dense path computes for that coordinate (counts are exact small
    /// integers in `f32`, and the division is the identical operation),
    /// so densifying reproduces the dense transform bit for bit.
    ///
    /// Every buffer is sized before it is filled (the match list to the
    /// tile count, the row to the distinct matches), so a call makes the
    /// same few allocations at any signal length.
    pub fn transform_sparse(&self, encoded: &str) -> SparseVec {
        let words = encoded.len() / self.word_size;
        let tiles: usize = (1..=self.max_n).map(|n| words / n).sum();
        let mut matched: Vec<u32> = Vec::with_capacity(tiles);
        count_tiled(encoded, self.word_size, self.max_n, |gram| {
            if let Some(&i) = self.index.get(gram) {
                matched.push(i as u32);
            }
        });
        if matched.is_empty() {
            return SparseVec::zeros(self.features.len());
        }
        let total = matched.len() as f32;
        matched.sort_unstable();
        let distinct = 1 + matched.windows(2).filter(|w| w[0] != w[1]).count();
        let mut indices = Vec::with_capacity(distinct);
        let mut values = Vec::with_capacity(distinct);
        let mut pos = 0;
        while pos < matched.len() {
            let idx = matched[pos];
            let mut run = pos + 1;
            while run < matched.len() && matched[run] == idx {
                run += 1;
            }
            indices.push(idx);
            values.push((run - pos) as f32 / total);
            pos = run;
        }
        SparseVec::new(self.features.len(), indices, values)
    }
}

/// Visits the non-overlapping word-aligned tiling of `line` for every
/// gram order `1..=max_n`.
fn count_tiled<'a>(
    line: &'a str,
    word_size: usize,
    max_n: usize,
    mut visit: impl FnMut(&'a str),
) {
    let usable = line.len() - line.len() % word_size;
    let line = &line[..usable];
    for n in 1..=max_n {
        let window = word_size * n;
        if window > line.len() {
            break;
        }
        let mut start = 0;
        while start + window <= line.len() {
            visit(&line[start..start + window]);
            start += window;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fit(corpus: &[&str], word_size: usize, max_n: usize, threshold: usize) -> BowVectorizer {
        let corpus: Vec<String> = corpus.iter().map(|s| (*s).to_owned()).collect();
        let vocab = Vocabulary::build(&corpus, word_size, max_n);
        BowVectorizer::fit(vocab, word_size, max_n, &corpus, threshold)
    }

    #[test]
    fn counts_non_overlapping_tiles() {
        // "ababab" with word size 1, n <= 2:
        // 1-gram tiling: a,b,a,b,a,b (a:3, b:3)
        // 2-gram tiling: ab,ab,ab (ab:3, ba never in tiling)
        let v = fit(&["ababab"], 1, 2, 1);
        let f = v.transform("ababab");
        let get = |g: &str| f[v.features().iter().position(|e| e == g).unwrap()];
        // Vocabulary (sliding) has a, b, ab, ba — but "ba" is never in
        // any non-overlapping tiling, so tf("ba") = 0 and it is pruned.
        assert_eq!(v.n_features(), 3);
        assert!(!v.features().iter().any(|e| e == "ba"));
        let total = 3.0 + 3.0 + 3.0;
        assert!((get("a") - 3.0 / total).abs() < 1e-6);
        assert!((get("ab") - 3.0 / total).abs() < 1e-6);
    }

    #[test]
    fn transform_is_probability_vector() {
        let v = fit(&["abcabc", "bcabca"], 1, 3, 1);
        let f = v.transform("abcabc");
        let sum: f32 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn threshold_prunes_rare_features() {
        let all = fit(&["aa", "ab", "ab", "ab"], 2, 1, 1);
        let pruned = fit(&["aa", "ab", "ab", "ab"], 2, 1, 2);
        assert_eq!(all.n_features(), 2);
        assert_eq!(pruned.n_features(), 1);
        assert_eq!(pruned.features(), &["ab".to_owned()]);
    }

    #[test]
    fn unknown_grams_transform_to_zero() {
        let v = fit(&["abab"], 2, 1, 1);
        let f = v.transform("zzzz");
        assert!(f.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn partial_trailing_word_is_ignored() {
        let v = fit(&["abab"], 2, 1, 1);
        // 5-char input: trailing 'a' is not a whole word.
        let f = v.transform("ababa");
        let sum: f32 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn feature_order_is_deterministic() {
        let a = fit(&["abcd", "cdab"], 2, 2, 1);
        let b = fit(&["abcd", "cdab"], 2, 2, 1);
        assert_eq!(a.features(), b.features());
    }

    #[test]
    fn fit_tiled_matches_vocabulary_fit() {
        let corpus: Vec<String> =
            ["abcabc", "bcabca", "cababab"].iter().map(|s| (*s).to_owned()).collect();
        let via_vocab = {
            let vocab = Vocabulary::build(&corpus, 1, 3);
            BowVectorizer::fit(vocab, 1, 3, &corpus, 2)
        };
        let via_tiled = BowVectorizer::fit_tiled(
            &corpus,
            1,
            3,
            FeatureSelection { tf_threshold: 2, max_features: None },
        );
        assert_eq!(via_vocab.features(), via_tiled.features());
        for line in &corpus {
            assert_eq!(via_vocab.transform(line), via_tiled.transform(line));
        }
    }

    #[test]
    fn max_features_keeps_most_frequent() {
        let corpus: Vec<String> = vec!["aaaab".into(), "aaaac".into()];
        let v = BowVectorizer::fit_tiled(
            &corpus,
            1,
            1,
            FeatureSelection { tf_threshold: 1, max_features: Some(1) },
        );
        assert_eq!(v.features(), &["a".to_owned()]);
    }

    #[test]
    fn sparse_transform_roundtrips_to_dense_bitwise() {
        let v = fit(&["abcabc", "bcabca", "cababab"], 1, 3, 1);
        for line in ["abcabc", "bcabca", "cababab", "zzzz", "abca"] {
            let dense = v.transform(line);
            let sparse = v.transform_sparse(line);
            assert_eq!(sparse.dim(), dense.len());
            let densified = sparse.to_dense();
            for (a, b) in dense.iter().zip(&densified) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            // Every stored entry is an actual nonzero.
            assert!(sparse.values().iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn sparse_transform_of_unmatched_signal_is_empty() {
        let v = fit(&["abab"], 2, 1, 1);
        let s = v.transform_sparse("zzzz");
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.dim(), v.n_features());
    }

    #[test]
    fn standard_selection_defaults() {
        let s = FeatureSelection::standard();
        assert_eq!(s.tf_threshold, 2);
        assert_eq!(s.max_features, Some(4096));
        assert_eq!(FeatureSelection::default(), s);
    }
}
