//! Registry lifecycle tests: bit-exact save→load for every model
//! kind, report-preserving directory round trips, and manifest-driven
//! hot reload on a live server. The corruption ladder over a record
//! file lives in `registry_torn.rs`.

mod common;

use classicml::{ForestConfig, RandomForest, SvmClassifier, SvmConfig};
use durable::ladder::TempDir;
use neuralnet::FlatMlp;
use serve::bundle::ModelBundle;
use serve::client::HttpClient;
use serve::registry::{self, read_record, write_record, ModelPayload, ModelRecord};
use serve::{InferenceArena, ServeConfig, Server};
use std::time::{Duration, Instant};

/// Asserts two payloads carry bit-identical weights (stricter than
/// `PartialEq`, which NaN would satisfy vacuously for raw images).
fn assert_payload_bits(a: &ModelPayload, b: &ModelPayload) {
    match (a, b) {
        (ModelPayload::Svm(x), ModelPayload::Svm(y)) => {
            let xs = serde_json::to_string(x).expect("svm json");
            let ys = serde_json::to_string(y).expect("svm json");
            assert_eq!(xs, ys, "svm weights changed across the round trip");
        }
        (ModelPayload::Forest(x), ModelPayload::Forest(y)) => {
            let xs = serde_json::to_string(x).expect("forest json");
            let ys = serde_json::to_string(y).expect("forest json");
            assert_eq!(xs, ys, "forest changed across the round trip");
        }
        (ModelPayload::Mlp(x), ModelPayload::Mlp(y)) => {
            assert_eq!(
                (x.input_dim(), x.hidden(), x.n_classes()),
                (y.input_dim(), y.hidden(), y.n_classes())
            );
            let xb: Vec<u32> = x.params().iter().map(|w| w.to_bits()).collect();
            let yb: Vec<u32> = y.params().iter().map(|w| w.to_bits()).collect();
            assert_eq!(xb, yb, "mlp weight bits changed across the round trip");
        }
        (
            ModelPayload::Cnn { n_classes: nx, params: px },
            ModelPayload::Cnn { n_classes: ny, params: py },
        ) => {
            assert_eq!(nx, ny);
            let xb: Vec<u32> = px.iter().map(|w| w.to_bits()).collect();
            let yb: Vec<u32> = py.iter().map(|w| w.to_bits()).collect();
            assert_eq!(xb, yb, "cnn weight bits changed across the round trip");
        }
        (a, b) => panic!("kind changed across the round trip: {:?} vs {:?}", a.kind(), b.kind()),
    }
}

/// One CNN record (untrained weights — the round trip doesn't care)
/// so all four kinds cross the format.
fn cnn_record() -> ModelRecord {
    let mut net = neuralnet::ArchSpec::PaperCnn { n_classes: 4 }.build(common::SEED);
    ModelRecord {
        name: "tm2-cnn".into(),
        version: 1,
        task: "tm2".into(),
        labels: (0..4).map(|i| format!("class-{i}")).collect(),
        pipeline: None,
        payload: registry::cnn_payload(&mut net, 4),
    }
}

#[test]
fn every_kind_roundtrips_to_bits() {
    let mut records = common::tiny_bundle().to_records();
    records.push(cnn_record());
    let kinds: Vec<&str> = records.iter().map(|r| r.payload.kind().name()).collect();
    for kind in ["svm", "rfc", "mlp", "cnn"] {
        assert!(kinds.contains(&kind), "round trip must cover {kind}");
    }
    let dir = TempDir::new("serve-kinds");
    for record in &records {
        let path = dir.0.join(registry::file_name(record));
        let stamp = write_record(&path, record).expect("writes");
        let back = read_record(&path, stamp).expect("reads");
        assert_eq!(back.name, record.name);
        assert_eq!(back.version, record.version);
        assert_eq!(back.task, record.task);
        assert_eq!(back.labels, record.labels);
        match (&record.pipeline, &back.pipeline) {
            (None, None) => {}
            (Some(p), Some(q)) => assert_eq!(
                serde_json::to_string(p).expect("pipeline json"),
                serde_json::to_string(q).expect("pipeline json"),
                "pipeline changed across the round trip"
            ),
            _ => panic!("pipeline presence changed across the round trip"),
        }
        assert_payload_bits(&record.payload, &back.payload);
    }
}

#[test]
fn directory_roundtrip_preserves_reports() {
    let dir = TempDir::new("serve-dir-roundtrip");
    let bundle = common::tiny_bundle();
    registry::save_dir(&dir.0, &bundle.to_records()).expect("save_dir");

    let manifest = durable::Generation::read(&dir.0, &registry::REGISTRY).expect("manifest");
    assert_eq!(manifest.number, 1, "first publish is generation 1");
    let mut names: Vec<String> = bundle.to_records().iter().map(registry::file_name).collect();
    names.sort();
    let listed: Vec<String> = manifest.files.iter().map(|(file, _)| file.clone()).collect();
    assert_eq!(listed, names, "one manifest entry per record, by file name");

    let loaded = registry::load_generation(&dir.0).expect("load").records;
    let loaded = ModelBundle::from_records(loaded).expect("rebuilds");
    let mut arena = InferenceArena::new();
    for raw in [common::clean_gpx(), common::faulted_gpx(), common::corrupt_gpx()] {
        let direct = bundle.report_json(&raw, &mut arena);
        let via_disk = loaded.report_json(&raw, &mut arena);
        assert_eq!(direct, via_disk, "the disk round trip changed a report");
    }
}

#[test]
fn manifest_mtime_change_hot_reloads() {
    let dir = TempDir::new("serve-hot-reload");
    let bundle = common::tiny_bundle();
    registry::save_dir(&dir.0, &bundle.to_records()).expect("save_dir");

    let served = registry::load_generation(&dir.0).expect("load").records;
    let served = ModelBundle::from_records(served).expect("rebuilds");
    let cfg = ServeConfig {
        port: 0,
        workers: 1,
        model_dir: Some(dir.0.clone()),
        reload_poll: Duration::from_millis(50),
        ..ServeConfig::from_env()
    };
    let server = Server::start(served, &cfg).expect("bind");
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    assert!(client.get("/v1/models").expect("models").text().contains("\"version\": 1"));

    // Publish version 2 (same weights, bumped version): new record
    // files, then the manifest — whose mtime bump is the signal.
    let v2: Vec<ModelRecord> = bundle
        .to_records()
        .into_iter()
        .map(|mut r| {
            r.version = 2;
            r
        })
        .collect();
    // Replace v1 files so the directory holds exactly one version.
    for entry in std::fs::read_dir(&dir.0).expect("read_dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "elevmdl") {
            std::fs::remove_file(path).expect("rm");
        }
    }
    registry::save_dir(&dir.0, &v2).expect("save_dir v2");

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let listing = client.get("/v1/models").expect("models").text();
        if listing.contains("\"version\": 2") {
            break;
        }
        assert!(Instant::now() < deadline, "hot reload never happened: {listing}");
        std::thread::sleep(Duration::from_millis(25));
    }

    // The reloaded bundle still serves byte-identical reports.
    let raw = common::clean_gpx();
    let served_body = client.post("/v1/report", &raw).expect("post").text();
    let mut arena = InferenceArena::new();
    let (_, offline) = bundle.report_json(&raw, &mut arena);
    assert_eq!(served_body, offline);
    server.shutdown();
}

#[test]
fn a_model_whose_width_is_not_its_pipelines_does_not_load() {
    let records = common::tiny_bundle().to_records();
    let task = records[0].task.clone();
    let n_features = records[0].pipeline.as_ref().expect("text records carry one").n_features();
    // Two-class rows as wide as asked.
    let rows = |width: usize| -> (Vec<Vec<f32>>, Vec<u32>) {
        let y: Vec<u32> = (0..8).map(|i| i % 2).collect();
        (y.iter().map(|&c| vec![c as f32; width]).collect(), y)
    };
    let svm = |width| {
        let (x, y) = rows(width);
        let cfg = SvmConfig { epochs: 1, ..Default::default() };
        ModelPayload::Svm(SvmClassifier::fit(&x, &y, &cfg, 1))
    };
    let forest = |width| {
        let (x, y) = rows(width);
        let cfg = ForestConfig { n_trees: 2, ..Default::default() };
        ModelPayload::Forest(RandomForest::fit(&x, &y, &cfg, 1))
    };
    let mlp = |width| {
        let params = vec![0.0; FlatMlp::param_len(width, 4, 2).unwrap()];
        ModelPayload::Mlp(FlatMlp::from_params(width, 4, 2, params).unwrap())
    };
    for width in [n_features - 1, n_features + 1] {
        for misfit in [svm(width), forest(width), mlp(width)] {
            let kind = misfit.kind();
            let mut records = records.clone();
            let slot = records
                .iter_mut()
                .find(|r| r.task == task && r.payload.kind() == kind)
                .expect("the task has a model of each kind");
            slot.payload = misfit;
            match ModelBundle::from_records(records) {
                Ok(_) => panic!("a {width}-feature {} loaded", kind.name()),
                Err(e) => assert!(e.contains(&format!("takes {width} features")), "{e}"),
            }
        }
    }
}
