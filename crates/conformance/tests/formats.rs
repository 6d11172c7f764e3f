//! Pins the on-disk bytes of every durable container. The goldens
//! digest in-memory artifacts, so nothing else holds the file formats
//! still: a feature-store shard plus `store.txt`, the IVF codebook,
//! posting sidecar and `ann.txt`, and a registry directory of framed
//! `.elevmdl` records with `manifest.txt` and `manifest.prev.txt` (the
//! three manifests are `durable::Generation` texts). Each is written
//! from fixed, hand-built inputs and every file's length and
//! FNV-1a-64 must match the constants below.

use annindex::AnnIndex;
use conformance::Digest;
use durable::ladder::TempDir;
use exec::Executor;
use featstore::{FeatureStore, ShardEntry, ShardWriter, StoreManifest};
use neuralnet::FlatMlp;
use serve::registry::{self, ModelPayload, ModelRecord};
use std::path::Path;

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
    let dir = TempDir::new("formats-store");
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
            ("ann.txt", 141, 0x89f269703f7b515f),
            ("codebook.ann", 244, 0x1cf41ffcf8674ac9),
            ("shard-00000.fst", 396, 0xfe1b899a994742fa),
            ("shard-00000.ivf", 268, 0x8d0999e3ad7692e1),
            ("store.txt", 135, 0xf56d809e8730f31e),
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
    let dir = TempDir::new("formats-registry");
    registry::save_dir(&dir.0, &records(1)).expect("publish 1");
    registry::save_dir(&dir.0, &records(2)).expect("publish 2");

    assert_files(
        &dir.0,
        &[
            ("fmt-cnn@1.elevmdl", 177, 0x686fcb4ef1be5f5d),
            ("fmt-cnn@2.elevmdl", 177, 0xce727cf25bc62b73),
            ("fmt-mlp@1.elevmdl", 232, 0x217c473e5167cb46),
            ("fmt-mlp@2.elevmdl", 232, 0x152b46dfeccfab75),
            ("manifest.prev.txt", 138, 0x70499ccd13556106),
            ("manifest.txt", 138, 0xf68222e8aa3e8713),
        ],
    );
}
