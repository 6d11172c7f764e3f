//! The torn-write matrix: a publish killed at every interesting
//! boundary — mid-record-file, between record files, mid-manifest —
//! must never take the registry down. `load_generation` falls back to
//! the last-good generation, reports each torn file as its own
//! distinct structured error, and a live server keeps serving the old
//! generation until a clean publish lands.

mod common;

use durable::{atomic_write, Error};
use serve::bundle::ModelBundle;
use serve::client::HttpClient;
use serve::registry::{self, ModelRecord};
use serve::{InferenceArena, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A per-test scratch directory under the system temp dir, removed on
/// drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("elev-torn-{tag}-{}", std::process::id()));
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
/// and returns the v2 file names in manifest order.
fn two_generations(dir: &Path) -> Vec<String> {
    registry::save_dir(dir, &records_v(1)).expect("publish gen1");
    registry::save_dir(dir, &records_v(2)).expect("publish gen2");
    let manifest = std::fs::read_to_string(dir.join(registry::MANIFEST)).expect("manifest");
    registry::parse_manifest(&manifest)
        .expect("parses")
        .entries
        .iter()
        .map(|e| e.file.clone())
        .collect()
}

#[test]
fn byte_level_cut_ladder_falls_back_with_distinct_errors() {
    let dir = TempDir::new("cut-ladder");
    let files = two_generations(&dir.0);
    let victim = dir.0.join(&files[0]);
    let original = std::fs::read(&victim).expect("victim bytes");

    // A write killed at any byte offset leaves a strict prefix: every
    // rung of the ladder must read as Truncated and fall back to
    // generation 1.
    for cut in [0usize, 1, original.len() / 4, original.len() / 2, original.len() - 1] {
        std::fs::write(&victim, &original[..cut]).expect("tear");
        let load = registry::load_generation(&dir.0).expect("fallback exists");
        assert!(load.fell_back, "cut at {cut}: must fall back");
        assert_eq!(load.generation, 1, "cut at {cut}: must serve the last-good generation");
        assert_eq!(load.errors.len(), 1, "cut at {cut}: one torn file");
        assert_eq!(load.errors[0].0, files[0]);
        assert!(
            matches!(load.errors[0].1, Error::Truncated { len, .. } if len == cut),
            "cut at {cut}: expected Truncated, got {:?}",
            load.errors[0].1
        );
        let bundle = ModelBundle::from_records(load.records).expect("gen1 rebuilds");
        let mut arena = InferenceArena::new();
        let (status, _) = bundle.report_json(&common::clean_gpx(), &mut arena);
        assert_eq!(status, 200, "cut at {cut}: the fallback generation must actually serve");
    }

    // Same length, flipped bit: a distinct error class, same fallback.
    let mut flipped = original.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x20;
    std::fs::write(&victim, &flipped).expect("flip");
    let load = registry::load_generation(&dir.0).expect("fallback exists");
    assert!(load.fell_back);
    assert_eq!(load.errors[0].1.name(), "checksum_mismatch", "got {:?}", load.errors[0].1);

    // Deleted outright: a third distinct class.
    std::fs::remove_file(&victim).expect("rm");
    let load = registry::load_generation(&dir.0).expect("fallback exists");
    assert!(load.fell_back);
    assert_eq!(load.errors[0].1.name(), "io", "got {:?}", load.errors[0].1);

    // Restored: generation 2 loads clean again.
    std::fs::write(&victim, &original).expect("restore");
    let load = registry::load_generation(&dir.0).expect("clean");
    assert!(!load.fell_back, "restored publish must load clean: {:?}", load.errors);
    assert_eq!(load.generation, 2);
}

#[test]
fn kill_at_every_record_boundary_serves_the_last_good_generation() {
    let dir = TempDir::new("record-boundary");
    let files = two_generations(&dir.0);
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
    let dir = TempDir::new("torn-manifest");
    two_generations(&dir.0);
    let manifest_path = dir.0.join(registry::MANIFEST);
    let good = std::fs::read_to_string(&manifest_path).expect("manifest");

    // A manifest cut mid-line must read as malformed — never as a
    // shorter valid manifest. Cut right before the last line's
    // checksum field so the line is unambiguously incomplete.
    let cut = good.rfind(" fnv1a64=").expect("manifest has checksums");
    std::fs::write(&manifest_path, &good[..cut]).expect("tear");
    let load = registry::load_generation(&dir.0).expect("fallback exists");
    assert!(load.fell_back);
    assert_eq!(load.generation, 1);
    assert_eq!(load.errors.len(), 1);
    assert_eq!(load.errors[0].0, registry::MANIFEST);
    assert_eq!(load.errors[0].1.name(), "malformed", "got {:?}", load.errors[0].1);

    // A cut INSIDE the hex digits still parses as (wrong) hex — the
    // entry's checksum then disagrees with the file, so the loader
    // falls back anyway: the file verification backstops the text
    // format.
    std::fs::write(&manifest_path, &good[..good.len() - 10]).expect("tear hex");
    let load = registry::load_generation(&dir.0).expect("fallback exists");
    assert!(load.fell_back);
    assert_eq!(load.generation, 1);
    assert_eq!(load.errors[0].1.name(), "checksum_mismatch", "got {:?}", load.errors[0].1);

    // Manifest gone entirely: same fallback, io error class.
    std::fs::remove_file(&manifest_path).expect("rm");
    let load = registry::load_generation(&dir.0).expect("fallback exists");
    assert!(load.fell_back);
    assert_eq!(load.errors[0].1.name(), "io");
}

#[test]
fn first_publish_has_no_fallback_and_surfaces_the_error() {
    let dir = TempDir::new("no-fallback");
    registry::save_dir(&dir.0, &records_v(1)).expect("publish gen1");
    assert!(!dir.0.join(registry::MANIFEST_PREV).exists(), "first publish has no prev");

    let manifest = std::fs::read_to_string(dir.0.join(registry::MANIFEST)).expect("manifest");
    let first = registry::parse_manifest(&manifest).expect("parses").entries[0].file.clone();
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
    let dir = TempDir::new("tmp-leftovers");
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
    let dir = TempDir::new("publish-over-torn");
    two_generations(&dir.0);
    let manifest_path = dir.0.join(registry::MANIFEST);
    atomic_write(&manifest_path, b"torn garbage").expect("tear");

    // The garbage must not become the fallback, and the new generation
    // must not restart from 1.
    registry::save_dir(&dir.0, &records_v(3)).expect("publish gen3");
    let text = |name: &str| std::fs::read_to_string(dir.0.join(name)).expect("manifest");
    let prev = registry::parse_manifest(&text(registry::MANIFEST_PREV)).expect("prev parses");
    assert_eq!(prev.generation, 1, "the last manifest that parsed stays the fallback");
    let current = registry::parse_manifest(&text(registry::MANIFEST)).expect("parses");
    assert_eq!(current.generation, 2, "one past the highest generation that parsed");

    // A clean publish after that numbers on from the new manifest.
    registry::save_dir(&dir.0, &records_v(4)).expect("publish gen4");
    let prev = registry::parse_manifest(&text(registry::MANIFEST_PREV)).expect("prev parses");
    assert_eq!(prev, current);
    let load = registry::load_generation(&dir.0).expect("clean");
    assert!(!load.fell_back, "{:?}", load.errors);
    assert_eq!(load.generation, 3);
}

#[test]
fn live_server_keeps_serving_through_a_torn_publish() {
    let dir = TempDir::new("live-torn");
    registry::save_dir(&dir.0, &records_v(1)).expect("publish gen1");
    let load = registry::load_generation(&dir.0).expect("clean");
    let served = ModelBundle::from_records(load.records).expect("rebuilds");

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

    // Publish generation 2 in a staging directory, then land it torn:
    // record files first (one truncated), manifests last — the mtime
    // bump is what the reloader sees.
    let staging = TempDir::new("live-torn-staging");
    registry::save_dir(&staging.0, &records_v(2)).expect("stage gen2");
    let staged = std::fs::read_to_string(staging.0.join(registry::MANIFEST)).expect("manifest");
    let entries = registry::parse_manifest(&staged).expect("parses").entries;
    for (i, entry) in entries.iter().enumerate() {
        let mut image = std::fs::read(staging.0.join(&entry.file)).expect("image");
        if i == 0 {
            image.truncate(image.len() / 2); // the torn write
        }
        std::fs::write(dir.0.join(&entry.file), &image).expect("land");
    }
    let gen1_manifest = std::fs::read_to_string(dir.0.join(registry::MANIFEST)).expect("old");
    atomic_write(&dir.0.join(registry::MANIFEST_PREV), gen1_manifest.as_bytes())
        .expect("prev");
    let gen2_manifest = staged.replacen("generation 1", "generation 2", 1);
    atomic_write(&dir.0.join(registry::MANIFEST), gen2_manifest.as_bytes())
        .expect("manifest");

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
    let repaired = std::fs::read(staging.0.join(&entries[0].file)).expect("image");
    std::fs::write(dir.0.join(&entries[0].file), &repaired).expect("repair");
    atomic_write(&dir.0.join(registry::MANIFEST), gen2_manifest.as_bytes())
        .expect("re-touch");
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
fn repeated_bad_reloads_open_the_circuit_breaker() {
    let dir = TempDir::new("breaker");
    registry::save_dir(&dir.0, &records_v(1)).expect("publish gen1");
    let load = registry::load_generation(&dir.0).expect("clean");
    let served = ModelBundle::from_records(load.records).expect("rebuilds");
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
