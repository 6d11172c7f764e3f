//! The torn-write matrix: a publish killed at every interesting
//! boundary — mid-record-file, between record files, mid-manifest —
//! must never take the registry down. `load_generation` falls back to
//! the last-good generation, reports each torn file as its own
//! distinct structured error, and a live server keeps serving the old
//! generation until a clean publish lands.

mod common;

use durable::ladder::TempDir;
use durable::{atomic_write, Error, Generation};
use serve::bundle::ModelBundle;
use serve::client::HttpClient;
use serve::registry::{self, ModelRecord};
use serve::{InferenceArena, ServeConfig, Server};
use std::cell::RefCell;
use std::path::Path;
use std::time::{Duration, Instant};

fn records_v(version: u32) -> Vec<ModelRecord> {
    common::tiny_bundle()
        .to_records()
        .into_iter()
        .map(|mut r| {
            r.version = version;
            r
        })
        .collect()
}

/// Publishes generation 1 (v1 records) then generation 2 (v2 records)
/// and returns the v2 manifest entries (file name, stamp) in manifest
/// order.
fn two_generations(dir: &Path) -> Vec<(String, u64)> {
    registry::save_dir(dir, &records_v(1)).expect("publish gen1");
    registry::save_dir(dir, &records_v(2)).expect("publish gen2");
    Generation::read(dir, &registry::REGISTRY).expect("manifest").files
}

/// Parses the registry manifest file `name` (current or `.prev`).
fn manifest(dir: &Path, name: &str) -> Generation {
    let text = std::fs::read_to_string(dir.join(name)).expect("manifest");
    Generation::parse(&text, &registry::REGISTRY).expect("parses")
}

/// Requires `load` to have fallen back to generation 1 with exactly one
/// failed file, `file`, of error class `class`, and the fallback to
/// serve.
fn assert_served_fallback(load: registry::GenerationLoad, file: &str, class: &str) {
    assert!(load.fell_back, "must fall back: {:?}", load.errors);
    assert_eq!(load.generation, 1, "must serve the last-good generation");
    assert_eq!(load.errors.len(), 1, "one torn file: {:?}", load.errors);
    assert_eq!((load.errors[0].0.as_str(), load.errors[0].1.name()), (file, class));
    let bundle = ModelBundle::from_generation(load).expect("gen1 rebuilds");
    let mut arena = InferenceArena::new();
    let (status, _) = bundle.report_json(&common::clean_gpx(), &mut arena);
    assert_eq!(status, 200, "the fallback generation must actually serve");
}

#[test]
fn byte_level_cut_ladder_falls_back_with_distinct_errors() {
    let dir = TempDir::new("torn-cut-ladder");
    let files = two_generations(&dir.0);
    // The smallest record keeps the every-byte ladder quick.
    let size = |file: &str| std::fs::metadata(dir.0.join(file)).expect("record").len();
    let (victim, stamp) = files.iter().min_by_key(|(f, _)| size(f)).expect("records").clone();

    // Every rung reads as its class through the record reader; the
    // first of each class must also make the loader fall back and serve.
    let classes = RefCell::new(Vec::new());
    durable::ladder::run(&dir.0.join(&victim), |p| {
        let read = registry::read_record(p, stamp);
        if let Err(e) = &read {
            if !classes.borrow().contains(&e.name()) {
                classes.borrow_mut().push(e.name());
                let load = registry::load_generation(&dir.0).expect("fallback exists");
                assert_served_fallback(load, &victim, e.name());
            }
        }
        read
    });
    assert_eq!(
        *classes.borrow(),
        ["truncated", "checksum_mismatch", "bad_magic", "unsupported_version", "io"]
    );

    // Restored: generation 2 loads clean again.
    let load = registry::load_generation(&dir.0).expect("clean");
    assert!(!load.fell_back, "restored publish must load clean: {:?}", load.errors);
    assert_eq!(load.generation, 2);
}

#[test]
fn a_record_another_publish_wrote_under_the_same_name_never_loads() {
    let dir = TempDir::new("torn-foreign-record");
    let files = two_generations(&dir.0);

    // Another publish, even one numbered 2 as well, writes a v2 record
    // with other content under the same name: landing it here must not
    // make it part of this generation 2.
    let staging = TempDir::new("torn-foreign-record-staging");
    let mut other = records_v(2);
    other[0].labels[0].push_str("-relabelled");
    registry::save_dir(&staging.0, &records_v(1)).expect("stage gen1");
    registry::save_dir(&staging.0, &other).expect("stage gen2");
    let name = registry::file_name(&other[0]);
    assert!(files.iter().any(|(f, _)| *f == name));
    std::fs::copy(staging.0.join(&name), dir.0.join(&name)).expect("land");
    let load = registry::load_generation(&dir.0).expect("fallback exists");
    assert_served_fallback(load, &name, "malformed");
}

#[test]
fn kill_at_every_record_boundary_serves_the_last_good_generation() {
    let dir = TempDir::new("torn-record-boundary");
    let files: Vec<String> = two_generations(&dir.0).into_iter().map(|(f, _)| f).collect();
    let images: Vec<Vec<u8>> =
        files.iter().map(|f| std::fs::read(dir.0.join(f)).expect("image")).collect();

    // Simulate the publisher dying after exactly k record files became
    // durable (the manifest made it, the tail of the file set did not).
    for k in 0..files.len() {
        for file in &files {
            let _ = std::fs::remove_file(dir.0.join(file));
        }
        for (file, image) in files.iter().zip(&images).take(k) {
            std::fs::write(dir.0.join(file), image).expect("rewrite");
        }
        let load = registry::load_generation(&dir.0).expect("fallback exists");
        assert!(load.fell_back, "kill after {k} files: must fall back");
        assert_eq!(load.generation, 1, "kill after {k} files: wrong generation");
        assert_eq!(
            load.errors.len(),
            files.len() - k,
            "kill after {k} files: every missing file reported"
        );
        for (file, err) in &load.errors {
            assert_eq!(err.name(), "io", "missing {file}: got {err:?}");
        }
        assert_eq!(load.records.len(), files.len(), "the fallback generation is complete");
    }

    // All N files durable: the new generation loads clean.
    for (file, image) in files.iter().zip(&images) {
        std::fs::write(dir.0.join(file), image).expect("rewrite");
    }
    let load = registry::load_generation(&dir.0).expect("clean");
    assert!(!load.fell_back, "{:?}", load.errors);
    assert_eq!(load.generation, 2);
}

#[test]
fn torn_manifest_falls_back_to_prev() {
    let dir = TempDir::new("torn-torn-manifest");
    two_generations(&dir.0);
    let manifest_path = dir.0.join(registry::MANIFEST);
    let good = std::fs::read(&manifest_path).expect("manifest");

    // Cut (never a shorter valid manifest), flipped or deleted, the
    // manifest reads as its error class and falls back to generation 1.
    let mut flipped = good.clone();
    flipped[good.len() / 2] ^= 0x10;
    for (torn, class) in [
        (good[..good.len() / 2].to_vec(), "malformed"),
        (good[..good.len() - 10].to_vec(), "malformed"),
        (flipped, "checksum_mismatch"),
    ] {
        std::fs::write(&manifest_path, &torn).expect("tear");
        let load = registry::load_generation(&dir.0).expect("fallback exists");
        assert_served_fallback(load, registry::MANIFEST, class);
    }
    std::fs::remove_file(&manifest_path).expect("rm");
    let load = registry::load_generation(&dir.0).expect("fallback exists");
    assert_served_fallback(load, registry::MANIFEST, "io");
}

#[test]
fn every_cut_or_flip_of_the_manifest_reads_as_an_error() {
    // One generation, so no fallback hides the manifest's own error.
    let dir = TempDir::new("torn-manifest-ladder");
    registry::save_dir(&dir.0, &records_v(1)).expect("publish gen1");
    durable::ladder::manifest(&dir.0.join(registry::MANIFEST), |_| {
        registry::load_generation(&dir.0)
    });
}

#[test]
fn first_publish_has_no_fallback_and_surfaces_the_error() {
    let dir = TempDir::new("torn-no-fallback");
    registry::save_dir(&dir.0, &records_v(1)).expect("publish gen1");
    assert!(!dir.0.join(registry::MANIFEST_PREV).exists(), "first publish has no prev");

    let first = manifest(&dir.0, registry::MANIFEST).files[0].0.clone();
    let victim = dir.0.join(&first);
    let original = std::fs::read(&victim).expect("bytes");
    std::fs::write(&victim, &original[..original.len() / 2]).expect("tear");

    match registry::load_generation(&dir.0) {
        Err(Error::Truncated { .. }) => {}
        other => panic!("expected the torn file's own error, got {other:?}"),
    }
}

#[test]
fn leftover_tmp_files_are_ignored_by_the_loader() {
    let dir = TempDir::new("torn-tmp-leftovers");
    registry::save_dir(&dir.0, &records_v(1)).expect("publish gen1");
    // A crash between `File::create` and `rename` leaves a hidden
    // `.tmp` sibling; the loader must not trip on it.
    std::fs::write(dir.0.join(".tm1-svm@9.elevmdl.tmp"), b"half a write").expect("tmp");
    std::fs::write(dir.0.join(".manifest.txt.tmp"), b"generation 9\nhalf").expect("tmp");
    let load = registry::load_generation(&dir.0).expect("clean");
    assert!(!load.fell_back, "{:?}", load.errors);
    assert_eq!((load.generation, load.records.len()), (1, records_v(1).len()));
}

#[test]
fn publishing_over_a_torn_manifest_keeps_the_last_good_fallback() {
    let dir = TempDir::new("torn-publish-over-torn");
    two_generations(&dir.0);
    let manifest_path = dir.0.join(registry::MANIFEST);
    atomic_write(&manifest_path, b"torn garbage").expect("tear");

    // The garbage must not become the fallback, and the new generation
    // must not restart from 1.
    registry::save_dir(&dir.0, &records_v(3)).expect("publish gen3");
    let prev = manifest(&dir.0, registry::MANIFEST_PREV);
    assert_eq!(prev.number, 1, "the last manifest that parsed stays the fallback");
    let current = manifest(&dir.0, registry::MANIFEST);
    assert_eq!(current.number, 2, "one past the highest generation that parsed");

    // A clean publish after that numbers on from the new manifest.
    registry::save_dir(&dir.0, &records_v(4)).expect("publish gen4");
    assert_eq!(manifest(&dir.0, registry::MANIFEST_PREV), current);
    let load = registry::load_generation(&dir.0).expect("clean");
    assert!(!load.fell_back, "{:?}", load.errors);
    assert_eq!(load.generation, 3);
}

#[test]
fn live_server_keeps_serving_through_a_torn_publish() {
    let dir = TempDir::new("torn-live-torn");
    registry::save_dir(&dir.0, &records_v(1)).expect("publish gen1");
    let load = registry::load_generation(&dir.0).expect("clean");
    let served = ModelBundle::from_generation(load).expect("rebuilds");

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
    assert_eq!(server.health().generation, 1);

    let raw = common::clean_gpx();
    let gen1_report = client.post("/v1/report", &raw).expect("post").text();

    // Publish generation 2 in a staging directory (after a generation 1
    // there, so its number follows the live one), then land it torn:
    // record files first (one truncated), manifests last — the mtime
    // bump is what the reloader sees.
    let staging = TempDir::new("torn-live-torn-staging");
    let entries = two_generations(&staging.0);
    for (i, (file, _)) in entries.iter().enumerate() {
        let mut image = std::fs::read(staging.0.join(file)).expect("image");
        if i == 0 {
            image.truncate(image.len() / 2); // the torn write
        }
        std::fs::write(dir.0.join(file), &image).expect("land");
    }
    let gen1_manifest = std::fs::read(dir.0.join(registry::MANIFEST)).expect("old");
    atomic_write(&dir.0.join(registry::MANIFEST_PREV), &gen1_manifest).expect("prev");
    let gen2_manifest = std::fs::read(staging.0.join(registry::MANIFEST)).expect("staged");
    atomic_write(&dir.0.join(registry::MANIFEST), &gen2_manifest).expect("manifest");

    // The reloader must notice, refuse the torn generation, and keep
    // serving generation 1.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.health().reload_fallbacks < 1 {
        assert!(Instant::now() < deadline, "fallback never counted: {:?}", server.health());
        std::thread::sleep(Duration::from_millis(25));
    }
    let health = server.health();
    assert_eq!(health.generation, 1, "torn publish must not advance the generation: {health:?}");
    assert!(!health.breaker_open, "one bad reload must not open the breaker: {health:?}");
    assert!(client.get("/v1/models").expect("models").text().contains("\"version\": 1"));
    assert_eq!(
        client.post("/v1/report", &raw).expect("post").text(),
        gen1_report,
        "reports must stay byte-identical through the torn publish"
    );

    // Repair the torn file and re-touch the manifest: the reloader
    // must pick up generation 2 cleanly.
    let repaired = std::fs::read(staging.0.join(&entries[0].0)).expect("image");
    std::fs::write(dir.0.join(&entries[0].0), &repaired).expect("repair");
    atomic_write(&dir.0.join(registry::MANIFEST), &gen2_manifest).expect("re-touch");
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.health().generation < 2 {
        assert!(Instant::now() < deadline, "repair never reloaded: {:?}", server.health());
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(client.get("/v1/models").expect("models").text().contains("\"version\": 2"));
    assert_eq!(
        client.post("/v1/report", &raw).expect("post").text(),
        gen1_report,
        "same weights, same report, new generation"
    );
    server.shutdown();
}

#[test]
fn a_publish_stamped_with_the_previous_mtime_still_reloads() {
    let dir = TempDir::new("torn-same-mtime");
    registry::save_dir(&dir.0, &records_v(1)).expect("publish gen1");
    let load = registry::load_generation(&dir.0).expect("clean");
    let served = ModelBundle::from_generation(load).expect("rebuilds");
    let cfg = ServeConfig {
        port: 0,
        workers: 1,
        model_dir: Some(dir.0.clone()),
        reload_poll: Duration::from_millis(50),
        ..ServeConfig::from_env()
    };
    let server = Server::start(served, &cfg).expect("bind");
    assert_eq!(server.health().generation, 1);

    // Land a good generation 2 whose manifest carries generation 1's
    // mtime, as a filesystem clock too coarse to tell two back-to-back
    // publishes apart stamps it. The mtime is set before the rename, so
    // no poll can see any other.
    let manifest_path = dir.0.join(registry::MANIFEST);
    let gen1_mtime = std::fs::metadata(&manifest_path).and_then(|m| m.modified()).expect("mtime");
    let staging = TempDir::new("torn-same-mtime-staging");
    for (file, _) in two_generations(&staging.0) {
        std::fs::copy(staging.0.join(&file), dir.0.join(&file)).expect("land record");
    }
    let staged = dir.0.join(".manifest.txt.staged");
    std::fs::copy(staging.0.join(registry::MANIFEST), &staged).expect("stage manifest");
    std::fs::File::options()
        .write(true)
        .open(&staged)
        .and_then(|f| f.set_modified(gen1_mtime))
        .expect("stamp");
    std::fs::rename(&staged, &manifest_path).expect("publish");
    assert_eq!(std::fs::metadata(&manifest_path).and_then(|m| m.modified()).ok(), Some(gen1_mtime));

    let deadline = Instant::now() + Duration::from_secs(10);
    while server.health().generation < 2 {
        assert!(Instant::now() < deadline, "the publish never reloaded: {:?}", server.health());
        std::thread::sleep(Duration::from_millis(25));
    }
    server.shutdown();
}

#[test]
fn repeated_bad_reloads_open_the_circuit_breaker() {
    let dir = TempDir::new("torn-breaker");
    registry::save_dir(&dir.0, &records_v(1)).expect("publish gen1");
    let load = registry::load_generation(&dir.0).expect("clean");
    let served = ModelBundle::from_generation(load).expect("rebuilds");
    let gen1_manifest = std::fs::read_to_string(dir.0.join(registry::MANIFEST)).expect("manifest");

    let cfg = ServeConfig {
        port: 0,
        workers: 1,
        model_dir: Some(dir.0.clone()),
        reload_poll: Duration::from_millis(50),
        ..ServeConfig::from_env()
    };
    let server = Server::start(served, &cfg).expect("bind");

    // Three consecutive torn publishes (unparseable manifest, prev
    // intact) must open the breaker.
    atomic_write(&dir.0.join(registry::MANIFEST_PREV), gen1_manifest.as_bytes())
        .expect("prev");
    for round in 1..=3u64 {
        atomic_write(
            &dir.0.join(registry::MANIFEST),
            format!("torn garbage, round {round}").as_bytes(),
        )
        .expect("tear");
        let deadline = Instant::now() + Duration::from_secs(20);
        while server.health().reload_fallbacks < round {
            assert!(
                Instant::now() < deadline,
                "round {round} never counted: {:?}",
                server.health()
            );
            std::thread::sleep(Duration::from_millis(25));
        }
    }
    let health = server.health();
    assert!(health.breaker_open, "three bad reloads must open the breaker: {health:?}");
    assert_eq!(health.generation, 1, "bad reloads never advance the generation: {health:?}");

    // A good publish closes it again (the open breaker only slows the
    // poll, it never stops probing).
    atomic_write(&dir.0.join(registry::MANIFEST), gen1_manifest.as_bytes())
        .expect("repair");
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.health().breaker_open {
        assert!(Instant::now() < deadline, "breaker never closed: {:?}", server.health());
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(server.health().reload_successes >= 1);
    server.shutdown();
}

#[test]
fn a_server_started_over_a_torn_publish_reports_the_fallback_generation() {
    let dir = TempDir::new("torn-start-torn");
    let files = two_generations(&dir.0);
    let victim = dir.0.join(&files[0].0);
    let image = std::fs::read(&victim).expect("image");
    std::fs::write(&victim, &image[..image.len() / 2]).expect("tear");

    let load = registry::load_generation(&dir.0).expect("fallback exists");
    assert!(load.fell_back);
    let cfg = ServeConfig { workers: 1, model_dir: Some(dir.0.clone()), ..ServeConfig::from_env() };
    let server = Server::start(ModelBundle::from_generation(load).expect("gen1"), &cfg)
        .expect("bind");
    assert_eq!(server.health().generation, 1, "health must name the generation it serves");
    server.shutdown();
}

#[test]
fn smoke_serves_the_prev_generation_when_only_prev_exists() {
    let dir = TempDir::new("torn-smoke-prev");
    two_generations(&dir.0);
    std::fs::remove_file(dir.0.join(registry::MANIFEST)).expect("rm manifest");
    let upload = TempDir::new("torn-smoke-prev-upload");
    let gpx = upload.0.join("clean.gpx");
    std::fs::write(&gpx, common::clean_gpx()).expect("gpx");

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_elev-serve"))
        .arg("--model-dir")
        .arg(&dir.0)
        .arg("--smoke")
        .arg(&gpx)
        .output()
        .expect("run elev-serve");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "elev-serve failed: {stderr}");
    assert!(stderr.contains("serving last-good generation 1"), "stderr: {stderr}");
    let gen1 = ModelBundle::from_records(records_v(1)).expect("gen1");
    let (status, json) = gen1.report_json(&common::clean_gpx(), &mut InferenceArena::new());
    assert_eq!(String::from_utf8_lossy(&out.stdout), format!("{status}\n{json}\n"));
}
