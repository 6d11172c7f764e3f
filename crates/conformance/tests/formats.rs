//! Pins the on-disk bytes of every durable container. The goldens
//! digest in-memory artifacts, so nothing else holds the file formats
//! still: a feature-store shard plus `store.txt`, the IVF codebook,
//! posting sidecar and `ann.txt`, and a registry directory of
//! `.elevmdl` records with `manifest.txt` and `manifest.prev.txt`.
//! Each is written from fixed, hand-built inputs and every file's
//! length and FNV-1a-64 must match the constants below.

use annindex::AnnIndex;
use conformance::Digest;
use exec::Executor;
use featstore::{FeatureStore, ShardEntry, ShardWriter, StoreManifest};
use neuralnet::FlatMlp;
use serve::registry::{self, ModelPayload, ModelRecord};
use std::path::{Path, PathBuf};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("elev-formats-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        Self(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Asserts that `dir` holds exactly the files in `want`, each with
/// the pinned `(name, length, FNV-1a-64)`. A mismatch prints the
/// observed table.
fn assert_files(dir: &Path, want: &[(&str, usize, u64)]) {
    let mut got: Vec<(String, usize, u64)> = std::fs::read_dir(dir)
        .expect("read_dir")
        .map(|e| {
            let path = e.expect("entry").path();
            let bytes = std::fs::read(&path).expect("read");
            let name = path.file_name().expect("name").to_string_lossy().into_owned();
            (name, bytes.len(), Digest::new().raw(&bytes).finish())
        })
        .collect();
    got.sort();
    let want: Vec<(String, usize, u64)> =
        want.iter().map(|&(n, len, fnv)| (n.to_owned(), len, fnv)).collect();
    let table: String =
        got.iter().map(|(n, len, fnv)| format!("(\"{n}\", {len}, {fnv:#018x}),\n")).collect();
    assert_eq!(got, want, "on-disk bytes moved; observed:\n{table}");
}

/// One hand-built feature row: athlete, city, activity, indices, values.
type Row = (u64, u32, u32, &'static [u32], &'static [f32]);

#[test]
fn feature_store_and_ivf_index_bytes_are_pinned() {
    let dir = TempDir::new("store");
    const CONFIG: u64 = 0x00F0_4A75;
    const N_COLS: u64 = 16;
    let rows: [Row; 6] = [
        (0, 0, 0, &[0, 3, 7], &[1.0, 0.5, 2.0]),
        (1, 1, 0, &[1, 4], &[3.0, 1.25]),
        (2, 0, 1, &[0, 2, 9], &[0.75, 1.0, 4.0]),
        (3, 2, 0, &[5, 12, 15], &[2.0, 2.0, 0.5]),
        (4, 1, 1, &[], &[]),
        (5, 2, 1, &[8, 13], &[1.5, -1.0]),
    ];
    let mut w = ShardWriter::create(&dir.0, 0, N_COLS, CONFIG).expect("create");
    for (athlete, city, activity, indices, values) in rows {
        w.append_row(athlete, city, activity, indices, values).expect("append");
    }
    let meta = w.finish().expect("finish");
    let manifest = StoreManifest {
        config: CONFIG,
        n_cols: N_COLS,
        shard_size: 8,
        athletes: 6,
        generation: 1,
        shards: vec![ShardEntry { index: 0, file: meta.file, rows: meta.rows }],
    };
    FeatureStore::publish_manifest(&dir.0, &manifest).expect("publish");
    let store = FeatureStore::open(&dir.0).expect("open");
    AnnIndex::build(&store, 2, 7, &Executor::new(1)).expect("index");

    assert_files(
        &dir.0,
        &[
            ("ann.txt", 98, 0x8bc9fbf08e45722d),
            ("codebook.ann", 244, 0x1cf41ffcf8674ac9),
            ("shard-00000.fst", 396, 0xfe1b899a994742fa),
            ("shard-00000.ivf", 268, 0x8d0999e3ad7692e1),
            ("store.txt", 111, 0xf0e7368637544f36),
        ],
    );
}

fn records(version: u32) -> Vec<ModelRecord> {
    let mlp_params = (0..14).map(|i| i as f32 * 0.25 - 1.0).collect();
    vec![
        ModelRecord {
            name: "fmt-mlp".into(),
            version,
            task: "tm1".into(),
            labels: vec!["WDC".into(), "MIA".into()],
            pipeline: None,
            payload: ModelPayload::Mlp(FlatMlp::from_params(3, 2, 2, mlp_params).expect("mlp")),
        },
        ModelRecord {
            name: "fmt-cnn".into(),
            version,
            task: "tm3".into(),
            labels: vec!["a".into(), "b".into(), "c".into()],
            pipeline: None,
            payload: ModelPayload::Cnn { n_classes: 3, params: vec![0.5, -0.25, 1.0, 2.0] },
        },
    ]
}

#[test]
fn registry_directory_bytes_are_pinned() {
    let dir = TempDir::new("registry");
    registry::save_dir(&dir.0, &records(1)).expect("publish 1");
    registry::save_dir(&dir.0, &records(2)).expect("publish 2");

    assert_files(
        &dir.0,
        &[
            ("fmt-cnn@1.elevmdl", 113, 0x1cd4785dc6484be3),
            ("fmt-cnn@2.elevmdl", 113, 0x9f37412d827ccd61),
            ("fmt-mlp@1.elevmdl", 168, 0x936f89a5f4c4d1e7),
            ("fmt-mlp@2.elevmdl", 168, 0xd34616efbc477dad),
            ("manifest.prev.txt", 161, 0x74be6251f760298f),
            ("manifest.txt", 161, 0x3b4219a29ad3e1e5),
        ],
    );
}
