//! Property-based tests for the text-like representation.

use proptest::prelude::*;
use textrep::{Discretizer, FeatureSelection, TextPipeline, ValueCodebook, Vocabulary};

fn arb_signal() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..3000.0, 1..120)
}

proptest! {
    #[test]
    fn discretization_is_monotone(d in prop_oneof![
        Just(Discretizer::Floor),
        (1u32..4).prop_map(|decimals| Discretizer::FixedPrecision { decimals }),
    ], mut values in prop::collection::vec(-500.0f64..500.0, 2..50)) {
        values.sort_by(f64::total_cmp);
        let out = d.apply(&values);
        for w in out.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn discretizer_bins_are_monotone_and_roundtrip(d in prop_oneof![
        Just(Discretizer::Floor),
        (1u32..4).prop_map(|decimals| Discretizer::FixedPrecision { decimals }),
    ], a in -500.0f64..500.0, b in -500.0f64..500.0) {
        // Encoding preserves order.
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(d.apply_one(lo) <= d.apply_one(hi));
        // Floor bins contain their values: bin ≤ e < bin + 1, and the
        // bin's representative decodes back to the same bin.
        let bin = Discretizer::Floor.apply_one(a);
        prop_assert!(bin as f64 <= a && a < (bin + 1) as f64);
        prop_assert_eq!(Discretizer::Floor.apply_one(bin as f64), bin);
    }

    #[test]
    fn ngram_window_count_is_words_minus_n_plus_1(
        n_words in 1usize..30,
        max_n in 1usize..6,
    ) {
        // Distinct two-char words, so the set never deduplicates and
        // the count per order n is exactly W − n + 1 sliding windows.
        let line: String = (0..n_words).map(|i| format!("{i:02}")).collect();
        let vocab = Vocabulary::build(&[line], 2, max_n);
        for n in 1..=max_n.min(n_words) {
            let count = vocab.entries().iter().filter(|e| e.len() == 2 * n).count();
            prop_assert_eq!(count, n_words - n + 1, "order {}", n);
        }
        let expected: usize = (1..=max_n.min(n_words)).map(|n| n_words - n + 1).sum();
        prop_assert_eq!(vocab.len(), expected);
    }

    #[test]
    fn codebook_words_are_unique_and_fixed_width(signal in prop::collection::vec(-1000i64..1000, 1..200)) {
        let cb = ValueCodebook::fit([signal.as_slice()]);
        let mut words = std::collections::HashSet::new();
        for &v in &signal {
            let w = cb.word(v).unwrap();
            prop_assert_eq!(w.len(), cb.word_size());
            words.insert(w.to_owned());
        }
        prop_assert_eq!(words.len(), cb.unique_values());
    }

    #[test]
    fn encoded_signal_length_is_exact(signal in prop::collection::vec(-50i64..50, 0..100)) {
        let cb = ValueCodebook::fit([signal.as_slice()]);
        let text = cb.encode_signal(&signal);
        prop_assert_eq!(text.len(), signal.len() * cb.word_size());
    }

    #[test]
    fn vocabulary_entries_have_valid_gram_lengths(
        lines in prop::collection::vec("[a-d]{0,24}", 0..6),
        max_n in 1usize..5,
    ) {
        // Trim lines to whole words of size 2.
        let lines: Vec<String> = lines
            .into_iter()
            .map(|l| {
                let keep = l.len() - l.len() % 2;
                l[..keep].to_owned()
            })
            .collect();
        let vocab = Vocabulary::build(&lines, 2, max_n);
        for e in vocab.entries() {
            prop_assert_eq!(e.len() % 2, 0);
            let words = e.len() / 2;
            prop_assert!(words >= 1 && words <= max_n);
        }
    }

    #[test]
    fn bow_vectors_are_probability_or_zero(
        signals in prop::collection::vec(arb_signal(), 2..8),
        max_n in 1usize..4,
    ) {
        let p = TextPipeline::fit(Discretizer::Floor, max_n, FeatureSelection::keep_all(), &signals);
        for s in &signals {
            let f = p.transform(s);
            let sum: f32 = f.iter().sum();
            prop_assert!(f.iter().all(|&v| v >= 0.0));
            prop_assert!((sum - 1.0).abs() < 1e-4 || sum == 0.0, "sum {sum}");
        }
    }

    #[test]
    fn feature_cap_is_respected(
        signals in prop::collection::vec(arb_signal(), 2..6),
        cap in 1usize..64,
    ) {
        let p = TextPipeline::fit(
            Discretizer::Floor,
            3,
            FeatureSelection { tf_threshold: 1, max_features: Some(cap) },
            &signals,
        );
        prop_assert!(p.n_features() <= cap);
    }

    /// Selecting from tiled counts is the paper's selection from the
    /// sliding-window vocabulary: the features are exactly the entries
    /// that some line's tiling holds, and each row is its line's tiled
    /// counts of them over their total.
    #[test]
    fn tiled_fit_matches_vocabulary_fit(
        lines in prop::collection::vec(prop::collection::vec(0u8..2, 0..16), 1..6),
    ) {
        let signals: Vec<Vec<f64>> =
            lines.iter().map(|l| l.iter().map(|&v| f64::from(v)).collect()).collect();
        let p = TextPipeline::fit(Discretizer::Floor, 3, FeatureSelection::keep_all(), &signals);
        let w = p.codebook().word_size();
        let corpus: Vec<String> = signals
            .iter()
            .map(|s| p.codebook().encode_signal(&Discretizer::Floor.apply(s)))
            .collect();
        // Non-overlapping occurrences of `entry` in `line`'s tiling.
        let tiled = |line: &str, entry: &str| {
            let words = line.as_bytes().chunks_exact(w).collect::<Vec<_>>();
            words.chunks_exact(entry.len() / w).filter(|t| t.concat() == entry.as_bytes()).count()
        };
        let via_vocab: Vec<String> = Vocabulary::build(&corpus, w, 3)
            .entries()
            .iter()
            .filter(|entry| corpus.iter().any(|line| tiled(line, entry) > 0))
            .cloned()
            .collect();
        prop_assert_eq!(p.features(), &via_vocab[..]);
        for (signal, line) in signals.iter().zip(&corpus) {
            let counts: Vec<usize> = via_vocab.iter().map(|entry| tiled(line, entry)).collect();
            let total = counts.iter().sum::<usize>() as f32;
            let want: Vec<f32> = counts
                .iter()
                .map(|&c| if total == 0.0 { 0.0 } else { c as f32 / total })
                .collect();
            prop_assert_eq!(p.transform(signal), want);
        }
    }

    #[test]
    fn unseen_profiles_transform_without_panic(
        train in prop::collection::vec(arb_signal(), 2..5),
        probe in arb_signal(),
    ) {
        let p = TextPipeline::fit(Discretizer::mined(), 4, FeatureSelection::standard(), &train);
        let f = p.transform(&probe);
        prop_assert_eq!(f.len(), p.n_features());
    }
}
