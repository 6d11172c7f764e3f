//! Text-like representation of elevation profiles (paper §III-B1/III-C).
//!
//! The paper converts each elevation signal into text in four steps
//! (Fig. 5), then extracts bag-of-words features over an n-gram
//! vocabulary (Fig. 6):
//!
//! 1. **Discretization** ([`Discretizer`]): `⌊e⌋` for the dense
//!    user-specific signals, `⌊e·10³⌋/10³` for the sparse mined ones.
//! 2. **Word-size decision**: `w = ⌈log_l c⌉` where `l` is the alphabet
//!    length and `c` the number of unique discrete values.
//! 3. **Text encoding** ([`ValueCodebook`]): each unique value maps to a
//!    unique length-`w` string, the base-`l` spelling of its rank in
//!    value order; a signal becomes the concatenation of its values'
//!    words.
//! 4. **Vocabulary creation** ([`Vocabulary`]): unique word-aligned
//!    k-grams for `k = 1..=n` over the whole corpus.
//!
//! Feature extraction ([`TextPipeline`], the one way in) counts
//! non-overlapping occurrences of vocabulary entries in each encoded
//! signal and L1-normalizes the counts into occurrence probabilities,
//! with term-frequency-threshold feature selection
//! ([`FeatureSelection`]) for large corpora.
//!
//! [`TextPipeline`] never writes a signal's text to featurize it. A
//! value's word is handled as the number it spells, its rank, and grams
//! are counted and looked up as rank sequences in an integer trie. Every
//! word has the same width and spells its rank as a base-`l` numeral, so
//! a gram's text and its rank sequence determine each other and sort
//! the same way: the selected features, their order and every feature
//! value are those the text form gives. Only the selected features are
//! spelled out. [`ValueCodebook::encode_signal`] and [`Vocabulary`]
//! still spell a signal's text and its sliding-window vocabulary, to
//! show Figs. 5–6 and to check the pipeline against.
//!
//! # Examples
//!
//! ```
//! use textrep::TextPipeline;
//!
//! let signals: Vec<Vec<f64>> = vec![
//!     vec![10.2, 11.7, 12.1, 11.0],
//!     vec![10.9, 10.1, 12.8, 13.2],
//! ];
//! let pipeline = TextPipeline::fit(
//!     textrep::Discretizer::Floor,
//!     4, // n-gram order
//!     textrep::FeatureSelection::keep_all(),
//!     &signals,
//! );
//! let features = pipeline.transform_all(&signals);
//! assert_eq!(features.len(), 2);
//! let sum: f32 = features[0].iter().sum();
//! assert!((sum - 1.0).abs() < 1e-5); // probabilities
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bow;
mod discretize;
mod encode;
mod ngrams;
#[cfg(test)]
mod reference;
mod trie;

use bow::BowVectorizer;
pub use bow::FeatureSelection;
pub use discretize::Discretizer;
use encode::ValueIds;
pub use encode::{ValueCodebook, ALPHABET, ALPHABET_LEN};
pub use ngrams::Vocabulary;

/// The full text-side preprocessing + feature-extraction pipeline.
///
/// Mirrors the paper's setup: the codebook and vocabulary are fit on
/// *all* signals regardless of labels ("we consider the corpus created
/// from all encoded signals regardless of labels").
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TextPipeline {
    discretizer: Discretizer,
    codebook: ValueCodebook,
    vectorizer: BowVectorizer,
}

impl TextPipeline {
    /// Fits the pipeline on a corpus of elevation signals.
    ///
    /// `max_n` is the n-gram order (the paper fixes n = 8); `selection`
    /// is the paper's term-frequency feature selection. Grams are
    /// counted over non-overlapping tilings directly, without building
    /// the sliding-window [`Vocabulary`]: a gram that appears only in
    /// sliding windows has term frequency 0 and transforms every signal
    /// to 0 in its coordinate, so the features after selection are the
    /// same, and the fit scales to the mined corpora. The corpus is read
    /// once: values are numbered as they are first seen, grams are
    /// counted over those numbers, and once the codebook ranks the
    /// values the grams that pass the threshold are spelled.
    ///
    /// # Panics
    ///
    /// Panics if `max_n == 0`.
    pub fn fit(
        discretizer: Discretizer,
        max_n: usize,
        selection: FeatureSelection,
        signals: &[Vec<f64>],
    ) -> Self {
        assert!(max_n > 0, "n-gram order must be at least 1");
        let mut ids = ValueIds::default();
        let mut counts = trie::GramTrie::default();
        let mut words = Vec::new();
        for signal in signals {
            words.clear();
            words.extend(signal.iter().map(|&e| ids.id(discretizer.apply_one(e))));
            counts.count_tiles(&words, max_n);
        }
        let (codebook, rank_of) = ids.into_codebook();
        let vectorizer =
            BowVectorizer::select(&counts, codebook.word_size(), max_n, selection, |id| {
                rank_of[id as usize]
            });
        Self { discretizer, codebook, vectorizer }
    }

    /// The fitted codebook.
    pub fn codebook(&self) -> &ValueCodebook {
        &self.codebook
    }

    /// The selected features (vocabulary entries), in feature-vector
    /// order.
    pub fn features(&self) -> &[String] {
        self.vectorizer.features()
    }

    /// Number of features produced per signal.
    pub fn n_features(&self) -> usize {
        self.vectorizer.n_features()
    }

    /// Transforms one elevation signal into its normalized BoW vector.
    pub fn transform(&self, signal: &[f64]) -> Vec<f32> {
        self.transform_sparse(signal).to_dense()
    }

    /// Transforms one elevation signal into a sparse BoW vector without
    /// materializing the dense row or the encoded text: only the grams
    /// the signal matches are touched, and densifying the row gives
    /// [`TextPipeline::transform`] bit for bit.
    pub fn transform_sparse(&self, signal: &[f64]) -> sparsemat::SparseVec {
        // At most one rank per point, so the buffer never reallocates:
        // a call allocates as often at any signal length.
        let mut ranks = Vec::with_capacity(signal.len());
        let (d, codebook) = (self.discretizer, &self.codebook);
        ranks.extend(signal.iter().filter_map(|&e| codebook.rank(d.apply_one(e))));
        self.vectorizer.transform_ranks(&ranks)
    }

    /// Transforms a batch of signals.
    pub fn transform_all(&self, signals: &[Vec<f64>]) -> Vec<Vec<f32>> {
        signals.iter().map(|s| self.transform(s)).collect()
    }

    /// Transforms a batch of signals into sparse rows.
    pub fn transform_all_sparse(&self, signals: &[Vec<f64>]) -> Vec<sparsemat::SparseVec> {
        signals.iter().map(|s| self.transform_sparse(s)).collect()
    }

    /// Transforms a batch of signals straight into a CSR feature matrix.
    pub fn transform_all_csr(&self, signals: &[Vec<f64>]) -> sparsemat::CsrMatrix {
        let rows = self.transform_all_sparse(signals);
        sparsemat::CsrMatrix::from_rows(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_produces_probability_vectors() {
        let signals = vec![
            vec![1.0, 2.0, 3.0, 2.0, 1.0],
            vec![5.0, 5.5, 6.0, 6.5, 7.0],
            vec![1.2, 2.9, 3.3, 2.1, 1.7],
        ];
        let p = TextPipeline::fit(Discretizer::Floor, 3, FeatureSelection::keep_all(), &signals);
        for f in p.transform_all(&signals) {
            let sum: f32 = f.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
            assert!(f.iter().all(|&x| x >= 0.0));
        }
    }

    #[test]
    fn similar_signals_have_similar_features() {
        let a = vec![10.0, 11.0, 12.0, 13.0, 12.0, 11.0, 10.0];
        let b = vec![10.4, 11.2, 12.3, 13.1, 12.2, 11.4, 10.2]; // same floors
        let c = vec![100.0, 150.0, 200.0, 150.0, 100.0, 50.0, 10.0];
        let p = TextPipeline::fit(Discretizer::Floor, 2, FeatureSelection::keep_all(), &[a.clone(), b.clone(), c.clone()]);
        let (fa, fb, fc) = (p.transform(&a), p.transform(&b), p.transform(&c));
        let dist = |x: &[f32], y: &[f32]| -> f32 {
            x.iter().zip(y).map(|(u, v)| (u - v).powi(2)).sum::<f32>().sqrt()
        };
        assert!(dist(&fa, &fb) < dist(&fa, &fc));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_ngram_order() {
        TextPipeline::fit(Discretizer::Floor, 0, FeatureSelection::keep_all(), &[vec![1.0]]);
    }
}
