//! The feature-store row codec contracts:
//!
//! - **bit-exact round-trip** — random CSR shards survive
//!   write → read → re-write with byte-identical files;
//! - **the torn-write ladder** — `durable::ladder` run through
//!   [`ShardReader`]: every cut, flip, foreign or future header and a
//!   deleted file classify distinctly; no corruption mode ever decodes
//!   quietly;
//! - **manifest cross-checks** — a shard whose header disagrees with
//!   `store.txt` is refused, every cut or flipped byte of `store.txt`
//!   reads as an error, and a republish takes the next generation.

use featstore::{
    shard_file_name, FeatureStore, RowBuf, ShardEntry, ShardReader, ShardWriter, StoreManifest,
};
use durable::ladder::TempDir;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// A deterministic pseudo-random shard of `n_rows` rows over `n_cols`
/// columns; returns its path and the rows written.
fn write_shard(dir: &Path, seed: u64, n_rows: usize, n_cols: u64) -> (PathBuf, Vec<RowBuf>) {
    let mut w = ShardWriter::create(dir, 0, n_cols, seed).expect("create");
    let mut rows = Vec::new();
    for r in 0..n_rows {
        let mix = |i: u64| exec_mix(seed, r as u64 * 1_000 + i);
        let nnz = (mix(0) % 9) as usize;
        let mut indices: Vec<u32> = (0..nnz).map(|i| (mix(1 + i as u64) % n_cols) as u32).collect();
        indices.sort_unstable();
        indices.dedup();
        let values: Vec<f32> =
            (0..indices.len()).map(|i| f32::from_bits(0x3F00_0000 | (mix(100 + i as u64) as u32 & 0xFFFF))).collect();
        let row = RowBuf {
            athlete: r as u64,
            city: (mix(2) % 10) as u32,
            activity: (mix(3) % 4) as u32,
            indices,
            values,
        };
        w.append_row(row.athlete, row.city, row.activity, &row.indices, &row.values)
            .expect("append");
        rows.push(row);
    }
    let meta = w.finish().expect("finish");
    (dir.join(meta.file), rows)
}

/// Local copy of `exec::mix_seed` so the test stays dependency-light.
fn exec_mix(master: u64, index: u64) -> u64 {
    let mut z = master.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn read_all(path: &Path) -> Result<Vec<RowBuf>, durable::Error> {
    let mut r = ShardReader::open(path)?;
    let mut rows = Vec::new();
    let mut buf = RowBuf::default();
    while r.next_row(&mut buf)? {
        rows.push(buf.clone());
    }
    Ok(rows)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Round-trip every shard bit-exact: decoded rows match what was
    /// written, and re-encoding them reproduces the file byte for
    /// byte.
    #[test]
    fn shards_roundtrip_bit_exact(seed in 0u64..10_000, n_rows in 0usize..24) {
        let dir = TempDir::new(&format!("fst-torn-rt-{seed}-{n_rows}"));
        let (path, written) = write_shard(&dir.0, seed, n_rows, 64);
        let decoded = read_all(&path).expect("clean shard reads");
        prop_assert_eq!(&decoded, &written);

        // Re-encode: an independent writer fed the decoded rows must
        // produce byte-identical output (the format has exactly one
        // encoding per shard).
        let dir2 = TempDir::new(&format!("fst-torn-rt2-{seed}-{n_rows}"));
        let mut w = ShardWriter::create(&dir2.0, 0, 64, seed).expect("create");
        for row in &decoded {
            w.append_row(row.athlete, row.city, row.activity, &row.indices, &row.values)
                .expect("append");
        }
        let meta = w.finish().expect("finish");
        let a = std::fs::read(&path).expect("original bytes");
        let b = std::fs::read(dir2.0.join(meta.file)).expect("re-encoded bytes");
        prop_assert_eq!(a, b);
    }
}

#[test]
fn shard_reader_runs_the_framing_ladder() {
    let dir = TempDir::new("fst-torn-ladder");
    let (path, _) = write_shard(&dir.0, 1, 6, 64);
    durable::ladder::run(&path, |p| ShardReader::open(p)?.validate());
}

#[test]
fn store_manifest_crosschecks_shard_headers() {
    let dir = TempDir::new("fst-torn-store");
    let (_, rows) = write_shard(&dir.0, 3, 4, 64);
    let manifest = StoreManifest {
        config: 3,
        n_cols: 64,
        shard_size: 8,
        athletes: 4,
        generation: 1,
        shards: vec![ShardEntry { index: 0, file: shard_file_name(0), rows: rows.len() as u64 }],
    };
    FeatureStore::publish_manifest(&dir.0, &manifest).expect("publish");
    let store = FeatureStore::open(&dir.0).expect("open");
    assert_eq!(store.rows(), rows.len() as u64);
    assert_eq!(store.reader(0).expect("reader").validate().expect("validates"), rows.len() as u64);
    durable::ladder::manifest(&dir.0.join(featstore::MANIFEST), |_| FeatureStore::open(&dir.0));

    // A republish (a rebuild in place) must not reuse a published
    // number: 1 is refused, 2 is next.
    assert_eq!(FeatureStore::publish_manifest(&dir.0, &manifest).unwrap_err().name(), "malformed");
    assert_eq!(durable::Generation::next(&dir.0, &featstore::STORE), 2);

    // A manifest claiming a different config must refuse the shard.
    let wrong = StoreManifest { config: 999, generation: 2, ..manifest };
    FeatureStore::publish_manifest(&dir.0, &wrong).expect("publish");
    let store = FeatureStore::open(&dir.0).expect("open");
    assert_eq!(store.manifest().generation, 2);
    assert_eq!(store.reader(0).unwrap_err().name(), "malformed");
}
