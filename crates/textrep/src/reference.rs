//! The text-form pipeline the word-rank path replaced: a `BTreeMap`
//! codebook that spells every value, and tiled grams counted and looked
//! up as `&str` slices of the encoded signal. It is kept only as the
//! reference the property test below holds the rank path to, bit for
//! bit, and to tie the selected features to the paper's sliding-window
//! vocabulary.

use crate::{Discretizer, FeatureSelection, TextPipeline, Vocabulary};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sparsemat::SparseVec;
use std::collections::{BTreeMap, HashMap};

/// The text pipeline: value → word, the selected features and their
/// index.
struct Reference {
    words: BTreeMap<i64, String>,
    word_size: usize,
    features: Vec<String>,
    index: HashMap<String, usize>,
    max_n: usize,
}

fn spell(rank: usize, width: usize) -> String {
    let mut out = vec![b'a'; width];
    let mut r = rank;
    for slot in out.iter_mut().rev() {
        *slot = crate::ALPHABET[r % crate::ALPHABET_LEN];
        r /= crate::ALPHABET_LEN;
    }
    String::from_utf8(out).expect("alphabet is ascii")
}

fn word_size_for(c: usize) -> usize {
    let mut w = 1;
    while crate::ALPHABET_LEN.pow(w as u32) < c {
        w += 1;
    }
    w
}

/// Visits the non-overlapping word-aligned tiling of `line` for every
/// gram order `1..=max_n`.
fn count_tiled<'a>(line: &'a str, word_size: usize, max_n: usize, mut visit: impl FnMut(&'a str)) {
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

/// Counts tiled grams under borrowed keys, then orders by descending
/// term frequency, ties by text, caps, and sorts the survivors.
fn select(corpus: &[String], word_size: usize, max_n: usize, s: FeatureSelection) -> Vec<String> {
    let mut tf: HashMap<&str, usize> = HashMap::new();
    for line in corpus {
        count_tiled(line, word_size, max_n, |gram| *tf.entry(gram).or_insert(0) += 1);
    }
    let mut kept: Vec<(&str, usize)> =
        tf.into_iter().filter(|(_, f)| *f >= s.tf_threshold.max(1)).collect();
    kept.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
    if let Some(max) = s.max_features {
        kept.truncate(max);
    }
    let mut features: Vec<String> = kept.into_iter().map(|(g, _)| g.to_owned()).collect();
    features.sort_unstable();
    features
}

impl Reference {
    fn fit(d: Discretizer, max_n: usize, s: FeatureSelection, signals: &[Vec<f64>]) -> Self {
        let mut words: BTreeMap<i64, String> = BTreeMap::new();
        for signal in signals {
            for v in d.apply(signal) {
                words.entry(v).or_default();
            }
        }
        let word_size = word_size_for(words.len());
        for (rank, word) in words.values_mut().enumerate() {
            *word = spell(rank, word_size);
        }
        let mut r = Self { words, word_size, features: Vec::new(), index: HashMap::new(), max_n };
        let corpus: Vec<String> = signals.iter().map(|s| r.encode(&d.apply(s))).collect();
        r.features = select(&corpus, word_size, max_n, s);
        r.index = r.features.iter().enumerate().map(|(i, f)| (f.clone(), i)).collect();
        r
    }

    fn encode(&self, signal: &[i64]) -> String {
        let mut out = String::new();
        for &v in signal {
            let below = self.words.range(..=v).next_back();
            let above = self.words.range(v..).next();
            let word = match (below, above) {
                (Some((bv, bw)), Some((av, aw))) => {
                    if v - bv <= av - v {
                        bw
                    } else {
                        aw
                    }
                }
                (Some((_, w)), None) | (None, Some((_, w))) => w,
                (None, None) => continue,
            };
            out.push_str(word);
        }
        out
    }

    fn transform(&self, encoded: &str) -> SparseVec {
        let mut matched: Vec<u32> = Vec::new();
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
        let (mut indices, mut values) = (Vec::new(), Vec::new());
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

fn bits(v: &SparseVec) -> (Vec<u32>, Vec<u32>) {
    (v.indices().to_vec(), v.values().iter().map(|x| x.to_bits()).collect())
}

/// A deterministic corpus for one property case: `regime` 0, 1 or 2
/// gives at most 26, at most 676 or more than 676 distinct values (when
/// the ladder signal is drawn). Fitted values floor to even numbers, so
/// held-out values fall below, above, between and exactly halfway
/// between fitted ones.
fn corpus(seed: u64, regime: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut state = seed | 1;
    let mut next = move |bound: u64| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state % bound.max(1)
    };
    let distinct = [2 + next(25), 27 + next(650), 677 + next(400)][regime];
    let n_signals = 1 + next(6) as usize;
    let mut signals: Vec<Vec<f64>> = (0..n_signals)
        .map(|_| {
            let len = next(90) as usize;
            let mut v = next(distinct) as i64;
            (0..len)
                .map(|_| {
                    // A random walk with jumps, so grams repeat.
                    v = if next(5) == 0 {
                        next(distinct) as i64
                    } else {
                        (v + next(3) as i64 - 1).clamp(0, distinct as i64 - 1)
                    };
                    (2 * v) as f64 + 0.5
                })
                .collect()
        })
        .collect();
    // One ladder over every value pins the regime's word size.
    if next(4) != 0 {
        signals.push((0..distinct as i64).map(|v| (2 * v) as f64 + 0.5).collect());
    }
    let held_out = (0..4)
        .map(|_| {
            let len = next(60) as usize;
            (0..len).map(|_| next(2 * distinct + 40) as f64 - 20.0).collect()
        })
        .chain(std::iter::once(Vec::new()))
        .collect();
    (signals, held_out)
}

/// Fits both paths on one generated corpus and compares the codebook,
/// the features and every bit of every transform, on the fitted signals
/// and on held-out ones. Every feature must also be an entry of the
/// sliding-window [`Vocabulary`] of the encoded corpus: tiled counting
/// selects from the vocabulary the paper builds, never beyond it.
fn check(
    seed: u64,
    regime: usize,
    max_n: usize,
    selection: FeatureSelection,
    empty_codebook: bool,
) -> Result<usize, TestCaseError> {
    let (mut signals, held_out) = corpus(seed, regime);
    if empty_codebook {
        signals = vec![Vec::new(); signals.len()];
    }
    let d = Discretizer::Floor;
    let want = Reference::fit(d, max_n, selection, &signals);
    let got = TextPipeline::fit(d, max_n, selection, &signals);

    prop_assert_eq!(got.codebook().word_size(), want.word_size);
    prop_assert_eq!(got.codebook().unique_values(), want.words.len());
    for (&v, word) in &want.words {
        let spelled = got.codebook().word(v);
        prop_assert_eq!(spelled.as_deref(), Some(word.as_str()));
    }
    prop_assert_eq!(got.features(), &want.features[..]);

    for signal in signals.iter().chain(&held_out) {
        let discrete = d.apply(signal);
        let text = want.encode(&discrete);
        prop_assert_eq!(&got.codebook().encode_signal(&discrete), &text);
        prop_assert_eq!(&bits(&got.transform_sparse(signal)), &bits(&want.transform(&text)));
    }

    let corpus: Vec<String> = signals.iter().map(|s| want.encode(&d.apply(s))).collect();
    let vocabulary = Vocabulary::build(&corpus, want.word_size, max_n);
    for feature in got.features() {
        prop_assert!(vocabulary.entries().binary_search(feature).is_ok(), "{feature} is no entry");
    }
    Ok(want.word_size)
}

/// Every word-size regime at every gram order, under keep-all, the
/// standard selection and a tight cap, plus an empty codebook.
#[test]
fn rank_path_equals_the_text_form_on_a_grid() {
    let selections = [
        FeatureSelection::keep_all(),
        FeatureSelection::standard(),
        FeatureSelection { tf_threshold: 2, max_features: Some(5) },
    ];
    let mut word_sizes = std::collections::BTreeSet::new();
    for regime in 0..3 {
        for max_n in 1..=8 {
            for (k, &selection) in selections.iter().enumerate() {
                let seed = (regime * 100 + max_n * 10 + k) as u64;
                word_sizes.insert(check(seed, regime, max_n, selection, false).unwrap());
            }
        }
    }
    assert_eq!(word_sizes.into_iter().collect::<Vec<_>>(), [1, 2, 3]);
    check(7, 1, 4, FeatureSelection::standard(), true).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn rank_path_equals_the_text_form(
        seed in 0u64..u64::MAX,
        regime in 0usize..3,
        max_n in 1usize..=8,
        tf_threshold in 0usize..4,
        cap in 0usize..24,
        empty in 0usize..12,
    ) {
        let selection = FeatureSelection {
            tf_threshold,
            max_features: (cap > 0).then_some(cap),
        };
        check(seed, regime, max_n, selection, empty == 0)?;
    }
}
