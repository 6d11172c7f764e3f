//! Word-size decision and text encoding (paper Fig. 5, steps 2–3).

use crate::trie::BuildMix64;
use serde::{derive_support, Deserialize, Error, Serialize, Value};
use std::collections::{BTreeMap, HashMap};

/// The encoding alphabet (lowercase Latin letters, `l = 26`).
pub const ALPHABET: &[u8; 26] = b"abcdefghijklmnopqrstuvwxyz";

/// The alphabet length `l` in the paper's `w = log_l c`.
pub const ALPHABET_LEN: usize = ALPHABET.len();

/// The rank of a word that is not a base-`l` numeral of the alphabet
/// (or is too large to be a rank): it is no gram's word.
pub(crate) const NO_WORD: u32 = u32::MAX;

/// Mapping from discrete elevation values to fixed-width words.
///
/// The word size is `w = ⌈log_l c⌉` (minimum width that can address all
/// `c` unique values with alphabet length `l`), and each unique value is
/// assigned the base-`l` spelling of its rank. Ranks follow value order,
/// so the mapping is deterministic for a given corpus. The codebook
/// keeps the ranks; words are spelled only when text is asked for.
///
/// # Examples
///
/// ```
/// use textrep::ValueCodebook;
///
/// let signals = [vec![3i64, 1, 2], vec![2, 2, 4]];
/// let cb = ValueCodebook::fit(signals.iter().map(|s| s.as_slice()));
/// assert_eq!(cb.unique_values(), 4);
/// assert_eq!(cb.word_size(), 1); // 26^1 >= 4
/// let text = cb.encode_signal(&[1, 2, 3, 4]);
/// assert_eq!(text, "abcd");
/// ```
#[derive(Debug, Clone)]
pub struct ValueCodebook {
    /// The fitted values, ascending: a value's rank is its index.
    values: Vec<i64>,
    /// value → rank, derived from `values` and never serialized.
    ranks: HashMap<i64, u32, BuildMix64>,
    word_size: usize,
}

impl PartialEq for ValueCodebook {
    fn eq(&self, other: &Self) -> bool {
        self.values == other.values && self.word_size == other.word_size
    }
}

impl Eq for ValueCodebook {}

impl ValueCodebook {
    /// Fits a codebook over every discrete signal in the corpus.
    ///
    /// An empty corpus yields a codebook with word size 1 and no words.
    pub fn fit<'a, I: IntoIterator<Item = &'a [i64]>>(signals: I) -> Self {
        let mut ids = ValueIds::default();
        for &v in signals.into_iter().flatten() {
            ids.id(v);
        }
        ids.into_codebook().0
    }

    fn from_sorted(values: Vec<i64>, word_size: usize) -> Self {
        let ranks = values.iter().enumerate().map(|(rank, &v)| (v, rank as u32)).collect();
        Self { values, ranks, word_size }
    }

    /// The word size `w`.
    pub fn word_size(&self) -> usize {
        self.word_size
    }

    /// Number of unique values `c` in the fitted corpus.
    pub fn unique_values(&self) -> usize {
        self.values.len()
    }

    /// The word for a value, if it was present at fit time.
    pub fn word(&self, value: i64) -> Option<String> {
        self.ranks.get(&value).map(|&rank| spell(rank, self.word_size))
    }

    /// The rank of the word `value` encodes to: its own, or for a value
    /// unseen at fit time the nearest fitted value's (the lower one at
    /// equal distance). `None` only for an empty codebook.
    pub(crate) fn rank(&self, value: i64) -> Option<u32> {
        if let Some(&rank) = self.ranks.get(&value) {
            return Some(rank);
        }
        let above = self.values.partition_point(|&v| v < value);
        let nearest = match (above.checked_sub(1), self.values.get(above)) {
            (Some(below), Some(&av)) => {
                if value.abs_diff(self.values[below]) <= av.abs_diff(value) {
                    below
                } else {
                    above
                }
            }
            (Some(below), None) => below,
            (None, Some(_)) => above,
            (None, None) => return None,
        };
        Some(nearest as u32)
    }

    /// Encodes a discrete signal as concatenated words.
    ///
    /// Values unseen at fit time (possible when transforming held-out
    /// data) are mapped to the nearest known value — the closest
    /// elevation the vocabulary can express, the lower one at equal
    /// distance. An empty codebook encodes everything as `""`.
    pub fn encode_signal(&self, signal: &[i64]) -> String {
        let mut out = String::with_capacity(signal.len() * self.word_size);
        for &v in signal {
            if let Some(rank) = self.rank(v) {
                push_word(&mut out, rank, self.word_size);
            }
        }
        out
    }
}

/// Numbers values in the order they are first seen, so a corpus can be
/// read once, as ids, before the codebook that ranks its values exists:
/// one hash lookup per value fits the codebook and reads the corpus.
#[derive(Debug, Default)]
pub(crate) struct ValueIds {
    ids: HashMap<i64, u32, BuildMix64>,
    /// Each id's value.
    values: Vec<i64>,
}

impl ValueIds {
    /// The id of `value`, numbering it if it is new.
    pub(crate) fn id(&mut self, value: i64) -> u32 {
        let next = u32::try_from(self.values.len()).ok().filter(|&n| n != NO_WORD);
        let next = next.expect("a codebook ranks fewer than 2^32 - 1 values");
        let id = *self.ids.entry(value).or_insert(next);
        if id == next {
            self.values.push(value);
        }
        id
    }

    /// The codebook of every value seen, and the rank of each id.
    pub(crate) fn into_codebook(self) -> (ValueCodebook, Vec<u32>) {
        let Self { mut ids, values } = self;
        let mut by_value: Vec<u32> = (0..values.len() as u32).collect();
        by_value.sort_unstable_by_key(|&id| values[id as usize]);
        let mut rank_of = vec![0u32; values.len()];
        for (rank, &id) in by_value.iter().enumerate() {
            rank_of[id as usize] = rank as u32;
        }
        for id in ids.values_mut() {
            *id = rank_of[*id as usize];
        }
        let values = by_value.iter().map(|&id| values[id as usize]).collect::<Vec<_>>();
        let word_size = word_size_for(values.len());
        (ValueCodebook { values, ranks: ids, word_size }, rank_of)
    }
}

/// Serializes as the value → word pairs in value order, plus the word
/// size; the rank map is rebuilt on load.
impl Serialize for ValueCodebook {
    fn to_value(&self) -> Value {
        let words: Vec<(i64, String)> = self
            .values
            .iter()
            .enumerate()
            .map(|(rank, &v)| (v, spell(rank as u32, self.word_size)))
            .collect();
        derive_support::object(vec![
            ("words", words.to_value()),
            ("word_size", self.word_size.to_value()),
        ])
    }
}

/// Accepts exactly what [`Serialize`] writes: the word size must be
/// `⌈log_l c⌉`, and every word its value's rank spelled in that many
/// letters.
impl Deserialize for ValueCodebook {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let field = |key| derive_support::field(value, "ValueCodebook", key);
        let words = BTreeMap::<i64, String>::from_value(field("words")?)?;
        let word_size = usize::from_value(field("word_size")?)?;
        if word_size != word_size_for(words.len()) {
            return Err(Error::custom(format!(
                "ValueCodebook: word size {word_size} for {} values",
                words.len()
            )));
        }
        for (rank, (v, word)) in words.iter().enumerate() {
            if word.len() != word_size || read_rank(word.as_bytes()) as usize != rank {
                return Err(Error::custom(format!(
                    "ValueCodebook: value {v} has word {word:?}, not the spelling of rank {rank}"
                )));
            }
        }
        Ok(Self::from_sorted(words.into_keys().collect(), word_size))
    }
}

/// `w = ⌈log_l c⌉`, minimum 1.
fn word_size_for(c: usize) -> usize {
    if c <= 1 {
        return 1;
    }
    let mut w = 0usize;
    let mut capacity = 1usize;
    while capacity < c {
        capacity = capacity.saturating_mul(ALPHABET_LEN);
        w += 1;
    }
    w
}

/// The base-`l` spelling of `rank` in exactly `width` letters.
fn spell(rank: u32, width: usize) -> String {
    let mut word = String::with_capacity(width);
    push_word(&mut word, rank, width);
    word
}

/// Appends the base-`l` spelling of `rank` in exactly `width` letters.
pub(crate) fn push_word(out: &mut String, rank: u32, width: usize) {
    // 26^7 > u32::MAX: seven letters spell any rank, and wider words
    // start with 'a's.
    let mut letters = [b'a'; 7];
    let mut r = rank as usize;
    for slot in letters.iter_mut().rev() {
        *slot = ALPHABET[r % ALPHABET_LEN];
        r /= ALPHABET_LEN;
    }
    debug_assert!(
        width >= 7 || letters[..7 - width].iter().all(|&b| b == b'a'),
        "rank exceeds alphabet capacity for width"
    );
    out.extend(std::iter::repeat_n('a', width.saturating_sub(7)));
    out.extend(letters[7 - width.min(7)..].iter().map(|&b| char::from(b)));
}

/// Reads a word back as the rank it spells: the inverse of
/// [`push_word`], and [`NO_WORD`] for a byte outside the alphabet or a
/// numeral too large to be a rank.
pub(crate) fn read_rank(word: &[u8]) -> u32 {
    let mut rank: u32 = 0;
    for &b in word {
        let digit = b.wrapping_sub(b'a');
        if usize::from(digit) >= ALPHABET_LEN {
            return NO_WORD;
        }
        rank = match rank
            .checked_mul(ALPHABET_LEN as u32)
            .and_then(|r| r.checked_add(u32::from(digit)))
        {
            Some(r) => r,
            None => return NO_WORD,
        };
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_size_matches_log_formula() {
        assert_eq!(word_size_for(0), 1);
        assert_eq!(word_size_for(1), 1);
        assert_eq!(word_size_for(26), 1);
        assert_eq!(word_size_for(27), 2);
        assert_eq!(word_size_for(676), 2);
        assert_eq!(word_size_for(677), 3);
    }

    #[test]
    fn spelling_is_base26() {
        assert_eq!(spell(0, 2), "aa");
        assert_eq!(spell(1, 2), "ab");
        assert_eq!(spell(25, 2), "az");
        assert_eq!(spell(26, 2), "ba");
        assert_eq!(spell(675, 2), "zz");
        assert_eq!(spell(u32::MAX - 1, 16), "aaaaaaaaanxmrlxu");
    }

    #[test]
    fn read_rank_inverts_spelling() {
        for width in 1..=7 {
            for rank in [0, 1, 25, 26, 675, 676, 17_575, 308_915_775, NO_WORD - 1] {
                if (ALPHABET_LEN as u64).pow(width as u32) > u64::from(rank) {
                    assert_eq!(read_rank(spell(rank, width).as_bytes()), rank);
                }
            }
        }
        for word in ["A", "a1", "é", "zzzzzzz", "{", "`"] {
            assert_eq!(read_rank(word.as_bytes()), NO_WORD, "{word}");
        }
    }

    #[test]
    fn all_words_are_unique_and_fixed_width() {
        let signal: Vec<i64> = (0..100).map(|i| i * 7 % 53).collect();
        let cb = ValueCodebook::fit([signal.as_slice()]);
        let mut seen = std::collections::HashSet::new();
        for v in signal {
            let w = cb.word(v).unwrap();
            assert_eq!(w.len(), cb.word_size());
            seen.insert(w);
        }
        assert_eq!(seen.len(), cb.unique_values());
    }

    #[test]
    fn encoding_length_is_words_times_size() {
        let cb = ValueCodebook::fit([&[1i64, 2, 3][..]]);
        let text = cb.encode_signal(&[1, 2, 3, 3, 2, 1]);
        assert_eq!(text.len(), 6 * cb.word_size());
    }

    #[test]
    fn unseen_values_snap_to_nearest() {
        let cb = ValueCodebook::fit([&[0i64, 10][..]]);
        assert_eq!(cb.encode_signal(&[2]), cb.word(0).unwrap());
        assert_eq!(cb.encode_signal(&[9]), cb.word(10).unwrap());
        assert_eq!(cb.encode_signal(&[-5]), cb.word(0).unwrap());
        assert_eq!(cb.encode_signal(&[99]), cb.word(10).unwrap());
        // Equal distance: the lower value wins.
        assert_eq!(cb.encode_signal(&[5]), cb.word(0).unwrap());
    }

    #[test]
    fn extreme_values_snap_without_overflow() {
        let cb = ValueCodebook::fit([&[i64::MIN, i64::MAX][..]]);
        assert_eq!(cb.rank(-1), Some(0));
        assert_eq!(cb.rank(0), Some(1));
    }

    #[test]
    fn empty_codebook_encodes_empty() {
        let cb = ValueCodebook::fit(std::iter::empty::<&[i64]>());
        assert_eq!(cb.unique_values(), 0);
        assert_eq!(cb.word_size(), 1);
        assert_eq!(cb.encode_signal(&[1, 2, 3]), "");
        assert_eq!(cb.rank(7), None);
    }

    #[test]
    fn large_corpus_gets_wider_words() {
        let signal: Vec<i64> = (0..1000).collect();
        let cb = ValueCodebook::fit([signal.as_slice()]);
        assert_eq!(cb.word_size(), 3); // 26^2 = 676 < 1000 <= 26^3
    }

    #[test]
    fn serialized_words_must_spell_their_ranks() {
        let cb = ValueCodebook::fit([&[5i64, -3, 40][..]]);
        let value = cb.to_value();
        assert_eq!(ValueCodebook::from_value(&value), Ok(cb));
        let swapped = derive_support::object(vec![
            ("words", vec![(-3i64, "b".to_owned()), (5, "a".to_owned())].to_value()),
            ("word_size", 1usize.to_value()),
        ]);
        assert!(ValueCodebook::from_value(&swapped).is_err());
        for word_size in [0usize, 2] {
            let wrong_width = derive_support::object(vec![
                ("words", Vec::<(i64, String)>::new().to_value()),
                ("word_size", word_size.to_value()),
            ]);
            assert!(ValueCodebook::from_value(&wrong_width).is_err());
        }
    }
}
