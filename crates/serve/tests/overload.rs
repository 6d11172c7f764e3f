//! Overload-safety tests: deadlines, load shedding, per-IP caps,
//! graceful drain, and worker supervision — each against a live
//! server, each asserting both the wire behaviour and the `/v1/health`
//! accounting.

mod common;

use serve::client::HttpClient;
use serve::{ModelBundle, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A raw attacker-side socket: no client protocol, just bytes.
fn raw(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    stream.set_write_timeout(Some(Duration::from_secs(10))).expect("write timeout");
    stream
}

/// Reads until the server closes the connection.
fn read_to_close(stream: &mut TcpStream) -> String {
    let mut out = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => out.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("read: {e}"),
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn served_bundle() -> ModelBundle {
    ModelBundle::from_records(common::tiny_bundle().to_records()).expect("records rebuild")
}

/// Tight deadlines so the timeout paths fire in test time.
fn tight_cfg() -> ServeConfig {
    ServeConfig {
        port: 0,
        workers: 2,
        request_deadline: Duration::from_millis(500),
        header_deadline: Duration::from_millis(250),
        ..ServeConfig::from_env()
    }
}

#[test]
fn slowloris_head_answers_408_header_timeout() {
    let server = Server::start(served_bundle(), &tight_cfg()).expect("bind");
    let mut stream = raw(server.addr());
    // A head that never finishes: the header deadline must cut it off.
    stream.write_all(b"GET /healthz HT").expect("write");
    let response = read_to_close(&mut stream);
    assert!(response.starts_with("HTTP/1.1 408 "), "expected 408, got: {response}");
    assert!(response.contains("{\"error\": \"header_timeout\"}"), "body: {response}");
    let health = server.health();
    assert_eq!(health.header_timeouts, 1, "health must count the header timeout: {health:?}");
    assert_eq!(health.request_timeouts, 0);
    server.shutdown();
}

#[test]
fn stalled_body_answers_408_request_timeout() {
    let server = Server::start(served_bundle(), &tight_cfg()).expect("bind");
    let mut stream = raw(server.addr());
    // Complete head, body that stops short: the total budget cuts it.
    stream
        .write_all(b"POST /v1/report HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\nabc")
        .expect("write");
    let response = read_to_close(&mut stream);
    assert!(response.starts_with("HTTP/1.1 408 "), "expected 408, got: {response}");
    assert!(response.contains("{\"error\": \"request_timeout\"}"), "body: {response}");
    let health = server.health();
    assert_eq!(health.request_timeouts, 1, "health must count the body timeout: {health:?}");
    server.shutdown();
}

#[test]
fn idle_keep_alive_connection_is_closed() {
    let cfg = ServeConfig {
        port: 0,
        workers: 1,
        idle_timeout: Duration::from_millis(300),
        ..ServeConfig::from_env()
    };
    let server = Server::start(served_bundle(), &cfg).expect("bind");
    let mut stream = raw(server.addr());
    // Send nothing: the worker must give the slot back, not wait
    // forever on a silent peer.
    let started = Instant::now();
    assert_eq!(read_to_close(&mut stream), "", "an idle connection gets no response");
    assert!(started.elapsed() < Duration::from_secs(5), "idle close took too long");
    server.shutdown();
}

#[test]
fn full_queue_sheds_503_with_retry_after() {
    // One worker, queue depth one: the third concurrent connection has
    // nowhere to go and must be shed, not queued unboundedly.
    let cfg = ServeConfig { port: 0, workers: 1, queue_depth: 1, ..ServeConfig::from_env() };
    let server = Server::start(served_bundle(), &cfg).expect("bind");

    // Occupy the only worker with a stalled upload...
    let mut stalled = raw(server.addr());
    stalled
        .write_all(b"POST /v1/report HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\n\r\n")
        .expect("write");
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.health().accepted < 1 {
        assert!(Instant::now() < deadline, "stalled conn never admitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(100)); // worker pops it off the queue
    // ...fill the queue's single slot...
    let mut queued = raw(server.addr());
    queued
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .expect("write");
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.health().accepted < 2 {
        assert!(Instant::now() < deadline, "queued conn never admitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    // ...and the next connection must bounce.
    let mut shed = raw(server.addr());
    let response = read_to_close(&mut shed);
    assert!(response.starts_with("HTTP/1.1 503 "), "expected 503, got: {response}");
    assert!(response.contains("\r\nRetry-After: 1\r\n"), "503 must carry Retry-After: {response}");
    assert!(response.contains("{\"error\": \"overloaded\"}"), "body: {response}");

    // Unstall the worker; the queued request still completes — shedding
    // never cancels admitted work.
    stalled.write_all(b"0123456789").expect("finish body");
    let queued_response = read_to_close(&mut queued);
    assert!(queued_response.starts_with("HTTP/1.1 200 "), "queued request: {queued_response}");
    let health = server.health();
    assert_eq!(health.shed_queue, 1, "exactly one shed: {health:?}");
    assert_eq!(health.accepted, 2, "shed connections are never counted accepted: {health:?}");
    server.shutdown();
}

#[test]
fn ip_slot_cap_sheds_the_greedy_source() {
    // Cap concurrent connections per IP slot at 2; everything here
    // comes from 127.0.0.1, so the third concurrent connection is over
    // the cap.
    let cfg = ServeConfig { port: 0, workers: 4, ip_slot_cap: 2, ..ServeConfig::from_env() };
    let server = Server::start(served_bundle(), &cfg).expect("bind");
    let hold_a = raw(server.addr());
    let hold_b = raw(server.addr());
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.health().accepted < 2 {
        assert!(Instant::now() < deadline, "holders never admitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut third = raw(server.addr());
    let response = read_to_close(&mut third);
    assert!(response.starts_with("HTTP/1.1 503 "), "expected 503, got: {response}");
    assert!(response.contains("{\"error\": \"ip_capped\"}"), "body: {response}");
    assert!(response.contains("\r\nRetry-After: 1\r\n"), "503 must carry Retry-After: {response}");
    let health = server.health();
    assert_eq!(health.shed_ip_cap, 1, "{health:?}");

    // Release a slot; the next connection from the same IP is welcome.
    // Until the server has seen `hold_a` close, the slot is still held
    // and a retry is shed with 503, so only a 200 ends the wait.
    drop(hold_a);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut retry = HttpClient::connect(server.addr()).expect("connect");
        if let Ok(resp) = retry.get("/healthz") {
            if resp.status == 200 {
                break;
            }
            assert_eq!(resp.status, 503, "a capped retry is shed, never failed otherwise");
        }
        assert!(Instant::now() < deadline, "slot never released");
        std::thread::sleep(Duration::from_millis(25));
    }
    drop(hold_b);
    server.shutdown();
}

#[test]
fn drain_finishes_in_flight_and_sheds_new() {
    let cfg = ServeConfig { port: 0, workers: 2, ..ServeConfig::from_env() };
    let server = Server::start(served_bundle(), &cfg).expect("bind");

    // An in-flight request: head sent, body held back.
    let body = b"not really gpx";
    let mut in_flight = raw(server.addr());
    in_flight
        .write_all(
            format!("POST /v1/report HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n", body.len())
                .as_bytes(),
        )
        .expect("write head");
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.health().accepted < 1 {
        assert!(Instant::now() < deadline, "in-flight conn never admitted");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(100)); // let a worker pick it up

    server.drain();
    assert!(server.health().draining, "drain must show in health");

    // New connections are shed while draining...
    let mut late = raw(server.addr());
    let response = read_to_close(&mut late);
    assert!(response.starts_with("HTTP/1.1 503 "), "expected 503, got: {response}");
    assert!(response.contains("{\"error\": \"draining\"}"), "body: {response}");

    // ...but the in-flight request completes, with Connection: close.
    in_flight.write_all(body).expect("finish body");
    let finished = read_to_close(&mut in_flight);
    assert!(
        finished.starts_with("HTTP/1.1 422 ") || finished.starts_with("HTTP/1.1 200 "),
        "in-flight request must be answered, got: {finished}"
    );
    assert!(
        finished.contains("\r\nConnection: close\r\n"),
        "drain responses must announce the close: {finished}"
    );
    server.shutdown();
}

#[test]
fn debug_routes_stay_404_unless_enabled() {
    let server = Server::start(served_bundle(), &ServeConfig::from_env()).expect("bind");
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    for target in ["/v1/debug/panic", "/v1/debug/die"] {
        let resp = client.post(target, b"").expect("post");
        assert_eq!(resp.status, 404, "debug routes must not exist by default: {target}");
    }
    assert_eq!(server.health().worker_panics, 0);
    server.shutdown();
}

#[test]
fn handler_panic_is_caught_and_the_worker_keeps_serving() {
    let cfg = ServeConfig { port: 0, workers: 1, debug_routes: true, ..ServeConfig::from_env() };
    let server = Server::start(served_bundle(), &cfg).expect("bind");

    // The panic is injected mid-handler: the connection dies without a
    // response, but the worker must survive it.
    let mut stream = raw(server.addr());
    stream
        .write_all(b"POST /v1/debug/panic HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
        .expect("write");
    assert_eq!(read_to_close(&mut stream), "", "a panicked handler sends nothing");

    let deadline = Instant::now() + Duration::from_secs(5);
    while server.health().worker_panics < 1 {
        assert!(Instant::now() < deadline, "panic never counted: {:?}", server.health());
        std::thread::sleep(Duration::from_millis(10));
    }
    // Same (sole) worker, next request: caught panics do not cost a
    // thread.
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    assert_eq!(client.get("/healthz").expect("get").status, 200);
    let health = server.health();
    assert_eq!(health.worker_panics, 1, "{health:?}");
    assert_eq!(health.workers_restarted, 0, "a caught panic must not burn the thread: {health:?}");
    server.shutdown();
}

#[test]
fn dead_worker_is_respawned_without_dropping_the_listener() {
    let cfg = ServeConfig { port: 0, workers: 1, debug_routes: true, ..ServeConfig::from_env() };
    let server = Server::start(served_bundle(), &cfg).expect("bind");

    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let resp = client.post("/v1/debug/die", b"").expect("post");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.text(), "{\"status\": \"dying\"}");

    // The sole worker just exited; the supervisor must replace it.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.health().workers_restarted < 1 {
        assert!(Instant::now() < deadline, "worker never respawned: {:?}", server.health());
        std::thread::sleep(Duration::from_millis(10));
    }
    let mut fresh = HttpClient::connect(server.addr()).expect("connect");
    assert_eq!(fresh.get("/healthz").expect("get").status, 200, "respawned worker must serve");
    let health = server.health();
    assert_eq!(health.workers_restarted, 1, "{health:?}");
    assert_eq!(health.worker_panics, 0, "die is an exit, not a panic: {health:?}");
    server.shutdown();
}

#[test]
fn health_route_serves_the_same_counters_as_the_api() {
    let server = Server::start(served_bundle(), &ServeConfig::from_env()).expect("bind");
    let mut client = HttpClient::connect(server.addr()).expect("connect");
    let resp = client.get("/v1/health").expect("get");
    assert_eq!(resp.status, 200);
    let body = resp.text();
    for key in
        ["\"shed_queue\"", "\"worker_panics\"", "\"breaker_open\"", "\"generation\"", "\"draining\""]
    {
        assert!(body.contains(key), "health JSON missing {key}: {body}");
    }
    // The wire JSON and the programmatic snapshot agree (counters that
    // this quiet sequence cannot move).
    let health = server.health();
    assert!(body.contains(&format!("\"shed_queue\": {}", health.shed_queue)));
    assert!(body.contains(&format!("\"generation\": {}", health.generation)));
    // GET-only route.
    assert_eq!(client.post("/v1/health", b"").expect("post").status, 405);
    server.shutdown();
}
