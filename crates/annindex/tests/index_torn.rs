//! IVF sidecar format contracts:
//!
//! - **bit-exact round-trip** — posting lists and the codebook survive
//!   write → read → re-write byte-identically, and every posting entry
//!   addresses a row record that positioned reads decode;
//! - **the torn-write ladder** — `durable::ladder` run through
//!   [`Codebook::load`] and [`read_postings`], plus the cross-checks
//!   that refuse a sidecar built for another shard, `k` or config, and
//!   the manifest ladder through [`AnnIndex::open`];
//! - **determinism** — the codebook is bit-identical at 1 vs 4
//!   executor threads and depends only on shard-0 content, so an
//!   index built incrementally over appended shards equals one built
//!   from scratch.

use annindex::{ann_shard_file_name, read_postings, AnnIndex, Codebook, Ensured, CODEBOOK_FILE};
use durable::ladder::TempDir;
use durable::{Enc, FramedWriter};
use exec::Executor;
use featstore::{
    shard_file_name, FeatureStore, RowBuf, ShardEntry, ShardWriter, StoreManifest,
};
use std::path::Path;

const N_COLS: u64 = 48;
const CONFIG: u64 = 0x5EED_CAFE;

fn synth_row(seed: u64, athlete: u64) -> RowBuf {
    let mix = |j: u64| exec::mix_seed(seed, athlete * 1_000 + j);
    let block = ((athlete % 4) * (N_COLS / 4)) as u32;
    let nnz = 2 + (mix(0) % 3) as usize;
    let mut indices: Vec<u32> =
        (0..nnz).map(|j| block + (mix(j as u64 + 1) % (N_COLS / 4)) as u32).collect();
    indices.sort_unstable();
    indices.dedup();
    let values = (0..indices.len()).map(|j| 1.0 + (mix(50 + j as u64) % 8) as f32).collect();
    RowBuf { athlete, city: (athlete % 3) as u32, activity: 0, indices, values }
}

/// Publishes a synthetic feature store: `shards` shards of
/// `per_shard` athletes, one row each.
fn publish_store(dir: &Path, seed: u64, shards: usize, per_shard: usize) -> FeatureStore {
    let mut entries = Vec::new();
    for s in 0..shards {
        let mut w = ShardWriter::create(dir, s, N_COLS, CONFIG).expect("create");
        for a in 0..per_shard {
            let row = synth_row(seed, (s * per_shard + a) as u64);
            w.append_row(row.athlete, row.city, row.activity, &row.indices, &row.values)
                .expect("append");
        }
        let meta = w.finish().expect("finish");
        entries.push(ShardEntry { index: s, file: meta.file, rows: meta.rows });
    }
    let manifest = StoreManifest {
        config: CONFIG,
        n_cols: N_COLS,
        shard_size: per_shard as u64,
        athletes: (shards * per_shard) as u64,
        generation: 1,
        shards: entries,
    };
    FeatureStore::publish_manifest(dir, &manifest).expect("publish");
    FeatureStore::open(dir).expect("open")
}

#[test]
fn index_roundtrips_and_postings_address_real_rows() {
    let dir = TempDir::new("ann-torn-rt");
    let store = publish_store(&dir.0, 5, 2, 12);
    let exec = Executor::new(2);
    let idx = AnnIndex::build(&store, 4, 77, &exec).expect("build");
    assert_eq!(idx.manifest().shards.len(), 2);

    // Reopen from disk: manifest and codebook read back identically.
    let reopened = AnnIndex::open(&dir.0).expect("open");
    assert_eq!(reopened.manifest(), idx.manifest());

    let mut row = RowBuf::default();
    let mut seen = 0u64;
    for s in 0..2 {
        let lists = idx.postings(s).expect("postings");
        assert_eq!(lists.len(), idx.codebook().k());
        let mut reader = store.reader(s).expect("reader");
        for (c, list) in lists.iter().enumerate() {
            for e in list {
                let next = reader.read_row_at(e.offset, &mut row).expect("row at offset");
                assert!(next > e.offset);
                assert_eq!(row.athlete, e.athlete, "entry must address its own row");
                assert_eq!(row.city, e.city);
                assert_eq!(idx.codebook().assign(&row.indices, &row.values), c as u32);
                seen += 1;
            }
        }
    }
    assert_eq!(seen, 24, "every row lands in exactly one posting list");

    // Re-writing the decoded lists reproduces the sidecar byte for
    // byte (one encoding per index).
    let lists = idx.postings(0).expect("postings");
    let copy = dir.0.join("rewrite.ivf");
    annindex::write_postings(&copy, 0, CONFIG, &lists).expect("rewrite");
    let a = std::fs::read(dir.0.join(ann_shard_file_name(0))).expect("original");
    let b = std::fs::read(&copy).expect("rewritten");
    assert_eq!(a, b);
}

#[test]
fn codebook_and_sidecar_readers_run_the_framing_ladder() {
    let dir = TempDir::new("ann-torn-ladder");
    let store = publish_store(&dir.0, 6, 1, 10);
    let idx = AnnIndex::build(&store, 4, 1, &Executor::new(1)).expect("build");
    let k = idx.codebook().k();
    durable::ladder::run(&dir.0.join(CODEBOOK_FILE), |p| Codebook::load(p, CONFIG));
    durable::ladder::run(&dir.0.join(ann_shard_file_name(0)), |p| read_postings(p, 0, k, CONFIG));
    durable::ladder::manifest(&dir.0.join(annindex::ANN_MANIFEST), |_| AnnIndex::open(&dir.0));
    assert!(AnnIndex::open(&dir.0).is_ok(), "restored index reads clean");
}

#[test]
fn sidecar_headers_crosscheck_their_expectation() {
    let dir = TempDir::new("ann-torn-classes");
    let store = publish_store(&dir.0, 8, 1, 6);
    let idx = AnnIndex::build(&store, 2, 3, &Executor::new(1)).expect("build");
    let k = idx.codebook().k();
    let target = dir.0.join(ann_shard_file_name(0));
    let original = std::fs::read(&target).expect("bytes");

    // A feature-store shard is not an IVF sidecar.
    std::fs::copy(dir.0.join(shard_file_name(0)), &target).expect("copy");
    assert_eq!(read_postings(&target, 0, k, CONFIG).unwrap_err().name(), "bad_magic");

    // A sidecar for the wrong shard index, k or config is malformed.
    std::fs::write(&target, &original).expect("restore");
    assert_eq!(read_postings(&target, 1, k, CONFIG).unwrap_err().name(), "malformed");
    assert_eq!(read_postings(&target, 0, k + 1, CONFIG).unwrap_err().name(), "malformed");
    assert_eq!(read_postings(&target, 0, k, CONFIG ^ 1).unwrap_err().name(), "malformed");
    let codebook = dir.0.join(CODEBOOK_FILE);
    assert_eq!(Codebook::load(&codebook, CONFIG ^ 1).unwrap_err().name(), "malformed");
}

#[test]
fn counts_the_bytes_cannot_hold_read_as_malformed() {
    let dir = TempDir::new("ann-torn-counts");
    let store = publish_store(&dir.0, 4, 1, 6);
    let exec = Executor::new(1);
    let (idx, _) = AnnIndex::ensure(&store, 2, 3, &exec).expect("build");
    let k = idx.codebook().k();
    let framed = |path: &Path, fields: [u64; 3], records: &[&[u8]]| {
        let mut w = FramedWriter::create(path, annindex::MAGIC, annindex::FORMAT_VERSION, fields)
            .expect("create");
        for r in records {
            w.write_record(r).expect("record");
        }
        w.finish().expect("finish")
    };

    // A 76-byte codebook whose valid header promises 2^30 centroids of
    // 2^30 columns, and one promising a single 2^30-column centroid
    // that its record does not hold.
    let codebook = dir.0.join(CODEBOOK_FILE);
    let huge = 1u64 << 30;
    let mut short = Enc::default();
    short.u32(1).u32(0).f32(0.5);
    assert_eq!(framed(&codebook, [1, huge, CONFIG], &[&short.0]), 76 + 4 + 12 + 8);
    assert_eq!(Codebook::load(&codebook, CONFIG).unwrap_err().name(), "malformed");
    assert_eq!(framed(&codebook, [huge, huge, CONFIG], &[]), 76);
    assert_eq!(Codebook::load(&codebook, CONFIG).unwrap_err().name(), "malformed");
    // The index over it no longer opens, so ensure rebuilds it.
    let (rebuilt, path) = AnnIndex::ensure(&store, 2, 3, &exec).expect("rebuild");
    assert_eq!(path, Ensured::Built);
    assert_eq!(rebuilt.codebook(), idx.codebook());

    // A posting list promising u32::MAX entries in a 12-byte payload.
    let sidecar = dir.0.join(ann_shard_file_name(0));
    let mut list = Enc::default();
    list.u32(1).u32(0).u32(u32::MAX);
    framed(&sidecar, [0, k as u64, CONFIG], &[&list.0]);
    assert_eq!(read_postings(&sidecar, 0, k, CONFIG).unwrap_err().name(), "malformed");
}

#[test]
fn codebook_is_thread_invariant_and_prefix_stable_across_stores() {
    let small = TempDir::new("ann-torn-prefix-small");
    let large = TempDir::new("ann-torn-prefix-large");
    // Same shard-0 content; the large store has three more shards.
    let store_small = publish_store(&small.0, 11, 1, 16);
    let store_large = publish_store(&large.0, 11, 4, 16);

    AnnIndex::build(&store_small, 4, 9, &Executor::new(1)).expect("build small");
    AnnIndex::build(&store_large, 4, 9, &Executor::new(4)).expect("build large");

    // Thread count and trailing shards must not leak into the
    // codebook: the two files are byte-identical.
    let a = std::fs::read(small.0.join(CODEBOOK_FILE)).expect("small codebook");
    let b = std::fs::read(large.0.join(CODEBOOK_FILE)).expect("large codebook");
    assert_eq!(a, b, "codebook must depend only on shard-0 content");

    // And shard-0 sidecars agree too.
    let a = std::fs::read(small.0.join(ann_shard_file_name(0))).expect("small sidecar");
    let b = std::fs::read(large.0.join(ann_shard_file_name(0))).expect("large sidecar");
    assert_eq!(a, b);
}

#[test]
fn ensure_reuses_extends_and_rebuilds() {
    let inc = TempDir::new("ann-torn-inc");
    let full = TempDir::new("ann-torn-full");
    let exec = Executor::new(2);

    // Incremental path: 2 shards, index, append 2 more, ensure.
    let mut store = publish_store(&inc.0, 13, 2, 8);
    let (idx, path) = AnnIndex::ensure(&store, 4, 21, &exec).expect("build");
    assert_eq!(path, Ensured::Built);
    assert_eq!((idx.manifest().generation, idx.manifest().store_generation), (1, 1));
    let (_, path) = AnnIndex::ensure(&store, 4, 21, &exec).expect("reuse");
    assert_eq!(path, Ensured::Reused, "unchanged store must reuse the index as-is");
    let codebook_before = std::fs::read(inc.0.join(CODEBOOK_FILE)).expect("codebook");

    let mut metas = Vec::new();
    for s in 2..4 {
        let mut w = ShardWriter::create(&inc.0, s, N_COLS, CONFIG).expect("create");
        for a in 0..8 {
            let row = synth_row(13, (s * 8 + a) as u64);
            w.append_row(row.athlete, row.city, row.activity, &row.indices, &row.values)
                .expect("append");
        }
        metas.push(w.finish().expect("finish"));
    }
    store.append_shards(CONFIG, 32, &metas).expect("append");
    let (idx, path) = AnnIndex::ensure(&store, 4, 21, &exec).expect("extend");
    assert_eq!(path, Ensured::Extended, "whole appended shards extend the index");
    assert_eq!(idx.manifest().shards.len(), 4);
    assert_eq!(idx.manifest().store_generation, 2, "index tracks the store generation");
    assert_eq!(idx.manifest().generation, 2, "the extension is the index's next generation");
    let codebook_after = std::fs::read(inc.0.join(CODEBOOK_FILE)).expect("codebook");
    assert_eq!(codebook_before, codebook_after, "extension freezes the codebook");

    // Build-all-at-once produces byte-identical sidecars.
    let store_full = publish_store(&full.0, 13, 4, 8);
    AnnIndex::build(&store_full, 4, 21, &exec).expect("build full");
    for s in 0..4 {
        let a = std::fs::read(inc.0.join(ann_shard_file_name(s))).expect("inc sidecar");
        let b = std::fs::read(full.0.join(ann_shard_file_name(s))).expect("full sidecar");
        assert_eq!(a, b, "shard {s} sidecar must not depend on the build path");
    }

    // A different seed is incompatible: ensure rebuilds from scratch,
    // under the index's next generation number.
    let (idx2, path) = AnnIndex::ensure(&store, 4, 22, &exec).expect("rebuild");
    assert_eq!(path, Ensured::Built);
    assert_eq!(idx2.manifest().seed, 22);
    assert_eq!(idx2.manifest().generation, 3);
}
