//! Bag-of-words feature extraction with frequency-threshold selection.

use crate::encode::{push_word, read_rank, NO_WORD};
use crate::trie::GramTrie;
use serde::{derive_support, Deserialize, Error, Serialize, Value};
use sparsemat::SparseVec;
use std::collections::HashMap;

/// Feature-selection policy for [`TextPipeline::fit`](crate::TextPipeline::fit).
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

/// Bag-of-words vectorizer over an n-gram vocabulary, the feature half
/// of a [`TextPipeline`](crate::TextPipeline).
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
///
/// Grams are counted and looked up as sequences of word ranks, the
/// numbers each word spells in base 26, in a trie of integer paths;
/// only the selected features are spelled out as text. Words have one
/// fixed width, so a gram's text and its rank sequence determine each
/// other and sort alike, and the features, their order and every
/// transformed value are those the text form gives. A word with a byte
/// outside the alphabet (`a..=z`) spells no rank: it is counted in no
/// gram and matches no feature.
#[derive(Debug, Clone)]
pub(crate) struct BowVectorizer {
    /// Selected vocabulary entries, sorted (feature order).
    features: Vec<String>,
    /// The features as rank paths; each one's end node holds its index.
    trie: GramTrie,
    word_size: usize,
    max_n: usize,
}

impl BowVectorizer {
    /// Selects features from grams counted over word ids (see
    /// [`GramTrie::count_tiles`]), where `rank_of` gives each id's word
    /// rank: only grams that pass the threshold are spelled out.
    pub(crate) fn select(
        counts: &GramTrie,
        word_size: usize,
        max_n: usize,
        selection: FeatureSelection,
        rank_of: impl Fn(u32) -> u32,
    ) -> Self {
        let min = u32::try_from(selection.tf_threshold).unwrap_or(u32::MAX);
        let mut counted = Vec::new();
        counts.for_each_at_least(min, |gram, tf| {
            let mut text = String::with_capacity(gram.len() * word_size);
            for &id in gram {
                push_word(&mut text, rank_of(id), word_size);
            }
            counted.push((text, tf as usize));
        });
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
        // Keep the `max` first by descending term frequency (paper),
        // ties lexicographic. Entries are distinct, so the order is
        // total and the kept set is the same however it is found.
        if let Some(max) = selection.max_features.filter(|&max| max < kept.len()) {
            if max == 0 {
                kept.clear();
            } else {
                kept.select_nth_unstable_by(max - 1, |a, b| {
                    b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0))
                });
                kept.truncate(max);
            }
        }
        let mut features: Vec<String> = kept.into_iter().map(|(e, _)| e).collect();
        features.sort_unstable();
        let trie = feature_trie(&features, word_size, max_n).expect("counted grams are features");
        Self { features, trie, word_size, max_n }
    }

    /// The selected features, in feature-vector order.
    pub(crate) fn features(&self) -> &[String] {
        &self.features
    }

    /// Feature-vector dimensionality.
    pub(crate) fn n_features(&self) -> usize {
        self.features.len()
    }

    /// Counts the non-overlapping gram occurrences of a signal given as
    /// word ranks and L1-normalizes them into occurrence probabilities.
    /// A signal matching no feature transforms to the zero vector.
    ///
    /// Only matched grams are touched: the matched feature indices are
    /// collected, sorted, and run-length counted, so the cost scales with
    /// the number of grams in the signal rather than with the vocabulary
    /// size. Each stored value is `count / total`.
    ///
    /// Every buffer is sized before it is filled (the match list to the
    /// tile count, the row to the distinct matches), so a call makes the
    /// same few allocations at any signal length.
    pub(crate) fn transform_ranks(&self, ranks: &[u32]) -> SparseVec {
        let words = ranks.len();
        let tiles: usize = (1..=self.max_n.min(words)).map(|n| words / n).sum();
        let mut matched: Vec<u32> = Vec::with_capacity(tiles);
        self.trie.match_tiles(ranks, self.max_n, &mut matched);
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

/// Reads `text` as a gram's rank sequence into `gram`: it must be one
/// to `max_n` whole words of the alphabet.
fn read_gram(
    text: &str,
    word_size: usize,
    max_n: usize,
    gram: &mut Vec<u32>,
) -> Result<(), String> {
    gram.clear();
    if word_size == 0 || text.is_empty() || !text.len().is_multiple_of(word_size) {
        return Err(format!("{text:?} is not whole {word_size}-letter words"));
    }
    gram.extend(text.as_bytes().chunks_exact(word_size).map(read_rank));
    if gram.len() > max_n || gram.contains(&NO_WORD) {
        return Err(format!("{text:?} is not a gram of 1 to {max_n} alphabet words"));
    }
    Ok(())
}

/// The trie of `features`, each end node holding its index plus one.
fn feature_trie(features: &[String], word_size: usize, max_n: usize) -> Result<GramTrie, String> {
    let mut trie = GramTrie::with_capacity(features.len());
    let mut gram = Vec::new();
    for (i, feature) in features.iter().enumerate() {
        read_gram(feature, word_size, max_n, &mut gram)?;
        let value = u32::try_from(i + 1).map_err(|_| "too many features".to_owned())?;
        trie.insert(&gram, value);
    }
    Ok(trie)
}

/// Serializes as the text form always has: the features, the
/// feature → index pairs (the shim's map encoding), the word size and
/// the gram order. The trie is rebuilt on load.
impl Serialize for BowVectorizer {
    fn to_value(&self) -> Value {
        let index: HashMap<&str, usize> =
            self.features.iter().enumerate().map(|(i, f)| (f.as_str(), i)).collect();
        derive_support::object(vec![
            ("features", self.features.to_value()),
            ("index", index.to_value()),
            ("word_size", self.word_size.to_value()),
            ("max_n", self.max_n.to_value()),
        ])
    }
}

/// Rejects a word size of 0, an `index` that does not map each feature
/// to its position, and a feature that is not one to `max_n` whole
/// alphabet words.
impl Deserialize for BowVectorizer {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let field = |key| derive_support::field(value, "BowVectorizer", key);
        let features = Vec::<String>::from_value(field("features")?)?;
        let index = HashMap::<String, usize>::from_value(field("index")?)?;
        let word_size = usize::from_value(field("word_size")?)?;
        let max_n = usize::from_value(field("max_n")?)?;
        if word_size == 0 {
            return Err(Error::custom("BowVectorizer: word size 0"));
        }
        let positions_hold = index.len() == features.len()
            && features.iter().enumerate().all(|(i, f)| index.get(f) == Some(&i));
        if !positions_hold {
            return Err(Error::custom(
                "BowVectorizer: index does not hold the features' positions",
            ));
        }
        let trie = feature_trie(&features, word_size, max_n)
            .map_err(|e| Error::custom(format!("BowVectorizer: feature {e}")))?;
        Ok(Self { features, trie, word_size, max_n })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ranks of `text`'s whole words; a trailing partial word is
    /// dropped, as it is from an encoded signal.
    fn ranks(text: &str, word_size: usize) -> Vec<u32> {
        text.as_bytes().chunks_exact(word_size).map(read_rank).collect()
    }

    /// Fits on an encoded corpus: its tiled grams counted as ranks, then
    /// selected as [`crate::TextPipeline::fit`] selects them.
    fn fit_selected(
        corpus: &[&str],
        word_size: usize,
        max_n: usize,
        selection: FeatureSelection,
    ) -> BowVectorizer {
        let mut counts = GramTrie::default();
        for line in corpus {
            counts.count_tiles(&ranks(line, word_size), max_n);
        }
        BowVectorizer::select(&counts, word_size, max_n, selection, |rank| rank)
    }

    fn fit(corpus: &[&str], word_size: usize, max_n: usize, threshold: usize) -> BowVectorizer {
        let selection = FeatureSelection { tf_threshold: threshold, max_features: None };
        fit_selected(corpus, word_size, max_n, selection)
    }

    fn transform(v: &BowVectorizer, text: &str) -> SparseVec {
        v.transform_ranks(&ranks(text, v.word_size))
    }

    #[test]
    fn counts_non_overlapping_tiles() {
        // "ababab" with word size 1, n <= 2:
        // 1-gram tiling: a,b,a,b,a,b (a:3, b:3)
        // 2-gram tiling: ab,ab,ab (ab:3, ba never in tiling)
        let v = fit(&["ababab"], 1, 2, 1);
        let f = transform(&v, "ababab").to_dense();
        let get = |g: &str| f[v.features().iter().position(|e| e == g).unwrap()];
        // The sliding-window vocabulary has a, b, ab, ba — but "ba" is
        // in no non-overlapping tiling, so it is never counted.
        assert_eq!(v.n_features(), 3);
        assert!(!v.features().iter().any(|e| e == "ba"));
        let total = 3.0 + 3.0 + 3.0;
        assert!((get("a") - 3.0 / total).abs() < 1e-6);
        assert!((get("ab") - 3.0 / total).abs() < 1e-6);
    }

    #[test]
    fn transform_is_probability_vector() {
        let v = fit(&["abcabc", "bcabca"], 1, 3, 1);
        let sum: f32 = transform(&v, "abcabc").values().iter().sum();
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
        assert!(transform(&v, "zzzz").to_dense().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn partial_trailing_word_is_ignored() {
        let v = fit(&["abab"], 2, 1, 1);
        // 5-char input: trailing 'a' is not a whole word.
        let sum: f32 = transform(&v, "ababa").values().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn feature_order_is_deterministic() {
        let a = fit(&["abcd", "cdab"], 2, 2, 1);
        let b = fit(&["abcd", "cdab"], 2, 2, 1);
        assert_eq!(a.features(), b.features());
    }

    /// The paper's form of selection: entries of the sliding-window
    /// vocabulary whose tiled corpus count passes the threshold. Tiled
    /// counting never finds a gram outside that vocabulary, so selecting
    /// straight from the counted tiles keeps the same features, and each
    /// row is its line's tiled counts of them over their total.
    #[test]
    fn fit_tiled_matches_vocabulary_fit() {
        let corpus = ["abcabc", "bcabca", "cababab"];
        let tiled = |lines: &[&str]| {
            let mut counts = GramTrie::default();
            for line in lines {
                counts.count_tiles(&ranks(line, 1), 3);
            }
            counts
        };
        let owned: Vec<String> = corpus.iter().map(|s| (*s).to_owned()).collect();
        let counts = tiled(&corpus);
        let via_vocab: Vec<String> = crate::Vocabulary::build(&owned, 1, 3)
            .entries()
            .iter()
            .filter(|entry| counts.get(&ranks(entry, 1)) >= 2)
            .cloned()
            .collect();
        let via_tiled = fit(&corpus, 1, 3, 2);
        assert_eq!(via_tiled.features(), &via_vocab[..]);
        for line in corpus {
            let line_counts = tiled(&[line]);
            let matched: Vec<u32> =
                via_vocab.iter().map(|entry| line_counts.get(&ranks(entry, 1))).collect();
            let total = matched.iter().sum::<u32>() as f32;
            let want: Vec<f32> = matched.iter().map(|&c| c as f32 / total).collect();
            assert_eq!(transform(&via_tiled, line).to_dense(), want);
        }
    }

    #[test]
    fn max_features_keeps_most_frequent() {
        let cap = FeatureSelection { tf_threshold: 1, max_features: Some(1) };
        let v = fit_selected(&["aaaab", "aaaac"], 1, 1, cap);
        assert_eq!(v.features(), &["a".to_owned()]);
    }

    #[test]
    fn sparse_transform_roundtrips_to_dense_bitwise() {
        let v = fit(&["abcabc", "bcabca", "cababab"], 1, 3, 1);
        for line in ["abcabc", "bcabca", "cababab", "zzzz", "abca"] {
            let sparse = transform(&v, line);
            assert_eq!(sparse.dim(), v.n_features());
            let dense = sparse.to_dense();
            let mut stored = sparse.iter().peekable();
            for (i, x) in dense.iter().enumerate() {
                let want = stored.next_if(|&(j, _)| j == i).map_or(0.0, |(_, v)| v);
                assert_eq!(x.to_bits(), want.to_bits());
            }
            // Every stored entry is an actual nonzero.
            assert!(sparse.values().iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn sparse_transform_of_unmatched_signal_is_empty() {
        let v = fit(&["abab"], 2, 1, 1);
        let s = transform(&v, "zzzz");
        assert_eq!(s.nnz(), 0);
        assert_eq!(s.dim(), v.n_features());
    }

    #[test]
    fn words_outside_the_alphabet_match_nothing() {
        // A non-ASCII character is two bytes, so at word size 1 it is
        // two words that are not letters; upper-case letters are not
        // words of the alphabet either. Neither is counted or matched.
        let v = fit_selected(&["abab", "aé", "abAB"], 1, 2, FeatureSelection::keep_all());
        assert_eq!(v.features(), &["a".to_owned(), "ab".to_owned(), "b".to_owned()]);
        let s = transform(&v, "aé");
        assert_eq!(s.indices(), &[0]);
        assert_eq!(s.values(), &[1.0]);
        assert_eq!(transform(&v, "ABé").nnz(), 0);
        let (mixed, plain) = (transform(&v, "abAB"), transform(&v, "ab"));
        assert_eq!((mixed.indices(), mixed.values()), (plain.indices(), plain.values()));
        // At word size 2 the character is one whole word, still no rank.
        let wide = fit_selected(&["abé"], 2, 2, FeatureSelection::keep_all());
        assert_eq!(wide.features(), &["ab".to_owned()]);
        assert_eq!(transform(&wide, "éab").values(), &[1.0]);
    }

    #[test]
    fn serialized_index_must_hold_feature_positions() {
        let v = fit(&["abcabc", "bcabca"], 1, 2, 1);
        let value = v.to_value();
        let back = BowVectorizer::from_value(&value).expect("round trip");
        assert_eq!(back.features(), v.features());
        assert_eq!(back.to_value(), value);
        let with = |key: &str, replacement: Value| {
            let Value::Object(mut m) = value.clone() else { unreachable!() };
            m.insert(key.to_owned(), replacement);
            BowVectorizer::from_value(&Value::Object(m))
        };
        let mut index: HashMap<String, usize> =
            v.features().iter().enumerate().map(|(i, f)| (f.clone(), i)).collect();
        *index.get_mut("a").unwrap() += 1;
        assert!(with("index", index.to_value()).is_err());
        assert!(with("index", Vec::<(String, usize)>::new().to_value()).is_err());
        let mut features = v.features().to_vec();
        features[0] = "A".into();
        let index: HashMap<String, usize> =
            features.iter().enumerate().map(|(i, f)| (f.clone(), i)).collect();
        let Value::Object(mut m) = value.clone() else { unreachable!() };
        m.insert("features".into(), features.to_value());
        m.insert("index".into(), index.to_value());
        assert!(BowVectorizer::from_value(&Value::Object(m)).is_err());
        assert!(with("max_n", 1usize.to_value()).is_err());
        assert!(with("word_size", 0usize.to_value()).is_err());
        let empty = fit(&[""], 1, 2, 1);
        assert_eq!(empty.n_features(), 0);
        let Value::Object(mut m) = empty.to_value() else { unreachable!() };
        m.insert("word_size".into(), 0usize.to_value());
        assert!(BowVectorizer::from_value(&Value::Object(m)).is_err());
    }

    #[test]
    fn gram_order_zero_counts_nothing() {
        let v = fit_selected(&["abab"], 1, 0, FeatureSelection::keep_all());
        assert_eq!(v.n_features(), 0);
        assert_eq!(transform(&v, "abab").nnz(), 0);
    }

    #[test]
    fn standard_selection_defaults() {
        let s = FeatureSelection::standard();
        assert_eq!(s.tf_threshold, 2);
        assert_eq!(s.max_features, Some(4096));
        assert_eq!(FeatureSelection::default(), s);
    }
}
