//! Request-level harness: a real server on an ephemeral port, driven
//! by the in-tree client, pinned against golden reports.
//!
//! Everything lives in one test function because it mutates
//! `ELEV_THREADS`: the same three uploads are served under thread
//! budget 1 (training + serving) and again under budget 4 with a
//! freshly trained bundle, and every byte must match — the
//! whole-pipeline determinism claim, asserted at the HTTP boundary.

mod common;

use serve::bundle::ModelBundle;
use serve::client::HttpClient;
use serve::{InferenceArena, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.json"))
}

/// Compares `actual` against the pinned golden, or rewrites the golden
/// when `UPDATE_GOLDENS=1`.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDENS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, format!("{actual}\n")).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden {name} — run with UPDATE_GOLDENS=1"));
    assert_eq!(
        actual,
        expected.trim_end_matches('\n'),
        "served report for {name} diverged from its golden"
    );
}

fn serve_fixtures(server: &Server, fixtures: &[(&str, Vec<u8>)]) -> Vec<(u16, String)> {
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    fixtures
        .iter()
        .map(|(_, raw)| {
            let resp = client.post("/v1/report", raw).expect("post");
            (resp.status, resp.text())
        })
        .collect()
}

#[test]
fn served_reports_match_goldens_and_are_thread_invariant() {
    let fixtures = [
        ("clean", common::clean_gpx()),
        ("repaired", common::faulted_gpx()),
        ("quarantined", common::corrupt_gpx()),
    ];
    let expected_status = [200u16, 200, 422];

    // --- thread budget 1: train, serve (1 worker), collect ---
    std::env::set_var("ELEV_THREADS", "1");
    let offline_bundle = common::tiny_bundle();

    // The server gets the bundle via a registry round trip, so the
    // served weights also cross the ser/de boundary bit-for-bit.
    let served_bundle =
        ModelBundle::from_records(offline_bundle.to_records()).expect("records rebuild");
    let mut cfg = ServeConfig { port: 0, workers: 1, ..ServeConfig::from_env() };
    let server = Server::start(served_bundle, &cfg).expect("bind");
    let under_1 = serve_fixtures(&server, &fixtures);

    // Protocol smoke on the same server: health, model listing,
    // routing errors, and malformed framing.
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let health = client.get("/healthz").expect("healthz");
    assert_eq!((health.status, health.text().as_str()), (200, "{\"status\": \"ok\"}"));
    let models = client.get("/v1/models").expect("models");
    assert_eq!(models.status, 200);
    let listing = models.text();
    for name in ["tm1-svm", "tm1-rfc", "tm1-mlp", "tm3-svm", "tm3-rfc", "tm3-mlp"] {
        assert!(listing.contains(name), "model listing missing {name}: {listing}");
    }
    assert_eq!(client.get("/nope").expect("404").status, 404);
    assert_eq!(client.post("/healthz", b"x").expect("405").status, 405);

    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    raw.write_all(b"GET / HTTP/2.0\r\n\r\n").expect("write");
    let mut resp = String::new();
    let _ = raw.read_to_string(&mut resp);
    assert!(resp.starts_with("HTTP/1.1 400"), "framing error should 400: {resp}");
    assert!(resp.contains("bad_version"), "error body names the parse error: {resp}");

    server.shutdown();

    // --- thread budget 4: fresh training, 4 workers, same bytes ---
    std::env::set_var("ELEV_THREADS", "4");
    let retrained = ModelBundle::train(common::SEED, &serve::BundleConfig::tiny());
    cfg.workers = 4;
    let server = Server::start(retrained, &cfg).expect("bind");
    let under_4 = serve_fixtures(&server, &fixtures);
    server.shutdown();
    std::env::remove_var("ELEV_THREADS");

    assert_eq!(under_1, under_4, "served bytes depend on the thread budget");

    // --- pinned goldens + statuses + served == offline ---
    let mut arena = InferenceArena::new();
    for (i, ((name, raw), (status, body))) in fixtures.iter().zip(&under_1).enumerate() {
        assert_eq!(*status, expected_status[i], "{name}: unexpected status ({body})");
        let (offline_status, offline_json) = offline_bundle.report_json(raw, &mut arena);
        assert_eq!((*status, body.as_str()), (offline_status, offline_json.as_str()), "{name}");
        check_golden(name, body);
    }

    // Sanity on report shape: the repaired fixture actually exercised
    // repairs, the corrupt one actually quarantined.
    assert!(under_1[0].1.contains("\"disposition\": \"clean\""), "{}", under_1[0].1);
    assert!(under_1[1].1.contains("\"disposition\": \"repaired\""), "{}", under_1[1].1);
    assert!(under_1[2].1.contains("\"reason\": \"too_corrupt\""), "{}", under_1[2].1);
}
