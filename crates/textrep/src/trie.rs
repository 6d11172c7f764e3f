//! The gram trie: word-aligned grams stored as paths of word ranks.
//!
//! A gram of `n` words is the path `r₁ → r₂ → … → rₙ` of its words'
//! ranks. One-word grams are roots, held in a `Vec` indexed by rank;
//! every longer gram is a child of its `n − 1`-word prefix, and all
//! children live in one hash map keyed by `(parent << 32) | rank`. Each
//! node carries one `u32`: the gram's count while a vectorizer is
//! fitted, its feature index plus one once features are selected.

use crate::encode::NO_WORD;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Marks "no node" (and a root's parent in [`GramTrie::links`]).
const NONE: u32 = u32::MAX;

/// Roots with a rank at or above this bound live in the child map under
/// parent [`NONE`], so a sparse high rank cannot size the root `Vec`.
const DENSE_ROOTS: usize = 1 << 20;

/// Hashes one integer key with splitmix64's finalizer. The tries and
/// the codebook's rank map only ever hash one `u64`/`i64` per key.
/// Their keys are values of the fitted corpus and node numbers the
/// trie assigns, and featurizing an upload only looks keys up in
/// tables that fitting built, so outside input cannot lengthen a probe
/// chain and a keyed hasher buys nothing.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Mix64(u64);

impl Hasher for Mix64 {
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.rotate_left(29) ^ n;
    }

    fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64);
    }
}

/// `HashMap` hasher builder for [`Mix64`].
pub(crate) type BuildMix64 = BuildHasherDefault<Mix64>;

fn key(parent: u32, rank: u32) -> u64 {
    (u64::from(parent) << 32) | u64::from(rank)
}

/// Word-rank grams as a trie (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct GramTrie {
    /// Node of each one-word gram, indexed by rank ([`NONE`] if absent).
    roots: Vec<u32>,
    /// Nodes of longer grams (and of roots past [`DENSE_ROOTS`]).
    children: HashMap<u64, u32, BuildMix64>,
    /// Per node: `key(parent, rank)`, so a node can be read back as
    /// its rank sequence.
    links: Vec<u64>,
    /// Per node: the count or the feature index plus one (0: none).
    values: Vec<u32>,
}

impl GramTrie {
    /// An empty trie with room for `nodes` nodes.
    pub(crate) fn with_capacity(nodes: usize) -> Self {
        Self {
            roots: Vec::new(),
            children: HashMap::with_capacity_and_hasher(nodes, BuildMix64::default()),
            links: Vec::with_capacity(nodes),
            values: Vec::with_capacity(nodes),
        }
    }

    /// The node for `rank` under `parent` ([`NONE`] for a root).
    fn child(&self, parent: u32, rank: u32) -> Option<u32> {
        if parent == NONE && (rank as usize) < DENSE_ROOTS {
            return self.roots.get(rank as usize).copied().filter(|&n| n != NONE);
        }
        self.children.get(&key(parent, rank)).copied()
    }

    /// [`GramTrie::child`], creating the node if it is missing. A word
    /// outside the alphabet has no node.
    fn intern(&mut self, parent: u32, rank: u32) -> Option<u32> {
        if rank == NO_WORD {
            return None;
        }
        let next = u32::try_from(self.links.len()).ok().filter(|&n| n != NONE);
        let next = next.expect("a gram trie holds fewer than 2^32 - 1 nodes");
        let slot = if parent == NONE && (rank as usize) < DENSE_ROOTS {
            let r = rank as usize;
            if r >= self.roots.len() {
                self.roots.resize(r + 1, NONE);
            }
            &mut self.roots[r]
        } else {
            self.children.entry(key(parent, rank)).or_insert(NONE)
        };
        if *slot == NONE {
            *slot = next;
            self.links.push(key(parent, rank));
            self.values.push(0);
        }
        Some(*slot)
    }

    /// Adds one occurrence of every gram in the tiling of `ranks`
    /// (see [`walk_tiles`]).
    pub(crate) fn count_tiles(&mut self, ranks: &[u32], max_n: usize) {
        walk_tiles(ranks, max_n, |parent, rank, tile_end| {
            let node = self.intern(parent, rank)?;
            if tile_end {
                let count = &mut self.values[node as usize];
                *count = count.saturating_add(1);
            }
            Some(node)
        });
    }

    /// Pushes the feature index of every gram in the tiling of `ranks`
    /// that is a feature. A walk stops at its first missing child: no
    /// longer gram from that start can be a feature, because every
    /// prefix of a feature is a node.
    pub(crate) fn match_tiles(&self, ranks: &[u32], max_n: usize, matched: &mut Vec<u32>) {
        walk_tiles(ranks, max_n, |parent, rank, tile_end| {
            let node = self.child(parent, rank)?;
            if tile_end {
                if let Some(index) = self.values[node as usize].checked_sub(1) {
                    matched.push(index);
                }
            }
            Some(node)
        });
    }

    /// Stores `value` at the end node of `gram`, creating its path.
    /// Returns `false` (and stores nothing) if `gram` is empty or holds
    /// a word outside the alphabet.
    pub(crate) fn insert(&mut self, gram: &[u32], value: u32) -> bool {
        let mut node = NONE;
        for &rank in gram {
            match self.intern(node, rank) {
                Some(n) => node = n,
                None => return false,
            }
        }
        if node == NONE {
            return false;
        }
        self.values[node as usize] = value;
        true
    }

    /// The value stored at `gram`'s end node (0 when it has none).
    #[cfg(test)]
    pub(crate) fn get(&self, gram: &[u32]) -> u32 {
        let mut node = NONE;
        for &rank in gram {
            match self.child(node, rank) {
                Some(n) => node = n,
                None => return 0,
            }
        }
        if node == NONE {
            0
        } else {
            self.values[node as usize]
        }
    }

    /// Visits every node whose value is at least `min` (and at least 1)
    /// with its rank sequence and its value.
    pub(crate) fn for_each_at_least(&self, min: u32, mut visit: impl FnMut(&[u32], u32)) {
        let mut gram = Vec::new();
        for (node, &value) in self.values.iter().enumerate() {
            if value < min.max(1) {
                continue;
            }
            gram.clear();
            let mut link = self.links[node];
            loop {
                gram.push(link as u32);
                let parent = (link >> 32) as u32;
                if parent == NONE {
                    break;
                }
                link = self.links[parent as usize];
            }
            gram.reverse();
            visit(&gram, value);
        }
    }
}

/// `lcm(1..=8)`: every order up to 8 divides a word position `p` exactly
/// when it divides `p % PERIOD`.
const PERIOD: usize = 840;

/// Bit `n - 1` of `SMALL_DIVISORS[q]` is set when order `n ≤ 8` divides
/// `q`, so the orders whose tiles start at `p` need no division.
static SMALL_DIVISORS: [u8; PERIOD] = {
    let mut table = [0u8; PERIOD];
    let mut q = 0;
    while q < PERIOD {
        let mut n = 1;
        while n <= 8 {
            if q.is_multiple_of(n) {
                table[q] |= 1 << (n - 1);
            }
            n += 1;
        }
        q += 1;
    }
    table
};

/// Walks the non-overlapping, word-aligned tiling of `ranks` for every
/// gram order `1..=max_n`.
///
/// Order `n`'s tiles start at the multiples of `n`, so the tiles that
/// start at word `p` are prefixes of one another: one walk from `p`
/// serves every order that divides `p`, and goes as far as the largest.
/// `step(parent, rank, tile_end)` advances the walk by one word
/// (`parent` is [`NONE`] at the first) and returns the next node, or
/// `None` to end the walk; `tile_end` is true when the `j` words walked
/// so far are order `j`'s tile.
fn walk_tiles(ranks: &[u32], max_n: usize, mut step: impl FnMut(u32, u32, bool) -> Option<u32>) {
    if max_n == 0 {
        return;
    }
    let mut q = 0;
    for p in 0..ranks.len() {
        let limit = max_n.min(ranks.len() - p);
        // Orders 1..=8 from the table; larger ones (rare) by division.
        let small = SMALL_DIVISORS[q] & (u16::MAX >> (16 - limit.min(8))) as u8;
        let mut reach = 8 - small.leading_zeros() as usize;
        if let Some(n) = (9..=limit).rev().find(|&n| p.is_multiple_of(n)) {
            reach = n;
        }
        let mut node = NONE;
        for (j, &rank) in ranks[p..p + reach].iter().enumerate() {
            let tile_end = if j < 8 { small >> j & 1 == 1 } else { p.is_multiple_of(j + 1) };
            match step(node, rank, tile_end) {
                Some(next) => node = next,
                None => break,
            }
        }
        q = if q + 1 == PERIOD { 0 } else { q + 1 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_walks_visit_exactly_the_per_order_tiles() {
        // Positions past the divisor table's period, and orders past 8.
        let ranks: Vec<u32> = (0..2000).map(|i| i % 7).collect();
        for max_n in [0, 1, 3, 8, 9, 12, 40] {
            let mut got = Vec::new();
            let mut start = 0;
            walk_tiles(&ranks, max_n, |parent, _, tile_end| {
                let depth = if parent == NONE {
                    start += 1;
                    1
                } else {
                    parent + 1
                };
                if tile_end {
                    got.push((start - 1, depth));
                }
                Some(depth)
            });
            got.sort_unstable();
            let mut want = Vec::new();
            for p in 0..ranks.len() {
                for n in 1..=max_n {
                    if p.is_multiple_of(n) && p + n <= ranks.len() {
                        want.push((p, n as u32));
                    }
                }
            }
            assert_eq!(got, want, "max_n {max_n}");
        }
    }

    #[test]
    fn words_outside_the_alphabet_end_a_walk() {
        let mut trie = GramTrie::default();
        trie.count_tiles(&[0, NO_WORD, 0, 0], 2);
        assert_eq!(trie.get(&[0]), 3);
        assert_eq!(trie.get(&[0, 0]), 1);
        assert_eq!(trie.get(&[0, NO_WORD]), 0);
        assert!(!trie.insert(&[NO_WORD], 1));
        assert!(!trie.insert(&[], 1));
    }

    #[test]
    fn sparse_high_ranks_leave_the_root_vec_small() {
        let mut trie = GramTrie::default();
        let high = (DENSE_ROOTS as u32) * 100;
        assert!(trie.insert(&[high, 3], 7));
        assert!(trie.roots.is_empty());
        assert_eq!(trie.get(&[high, 3]), 7);
        let mut matched = Vec::new();
        trie.match_tiles(&[high, 3], 2, &mut matched);
        assert_eq!(matched, vec![6]);
    }
}
