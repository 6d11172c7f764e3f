//! Serving-path benchmarks for the deterministic inference server.
//!
//! Written to `BENCH_serve.json` through `bench::harness` (the schema
//! every suite shares):
//!
//! 1. the steady-state classify path (cached BoW → SVM + forest + MLP
//!    for both tasks), with the zero-allocation claim asserted under a
//!    counting allocator before the server ever starts;
//! 2. the offline `report_json` path (ingest → featurize → classify →
//!    render) as the in-process reference point;
//! 3. request latency through the real server at 1, 4 and 16
//!    concurrent keep-alive clients — seeded request streams, p50/p99
//!    latency and aggregate QPS, with every served body asserted equal
//!    to the offline report.
//!
//! Run with `cargo bench -p bench --bench serve`; `BENCH_QUICK=1` for
//! the smoke. Absolute numbers track the host; the note on each entry
//! records the request volume and core count so they stay
//! interpretable across machines.

mod common;

use bench::harness::{single, BenchEntry, BenchReport, Samples};
use elev_core::ingest::{ingest_one, IngestConfig, TrackSource};
use routegen::AthleteSimulator;
use serve::client::HttpClient;
use serve::{BundleConfig, InferenceArena, ModelBundle, ServeConfig, Server};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};
use terrain::{CityId, SyntheticTerrain};

/// Every fixture and request stream in this suite derives from this.
const SEED: u64 = 0x5E1F_BE4C;

/// What one fresh-connection burst request came back as.
enum BurstOutcome {
    /// A full response (status, body).
    Served(u16, String),
    /// A `503` shed; records whether `Retry-After` was present.
    Shed { retry_after: bool },
    /// The connection died before a response arrived (the server shed
    /// and closed before our upload finished — the `503` was lost to
    /// the reset).
    Reset,
}

/// One `POST /v1/report` over a fresh `Connection: close` connection,
/// tolerating the resets a shedding server legitimately produces.
fn burst_request(addr: SocketAddr, body: &[u8]) -> BurstOutcome {
    let Ok(mut stream) = TcpStream::connect(addr) else { return BurstOutcome::Reset };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut request = format!(
        "POST /v1/report HTTP/1.1\r\nHost: x\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    request.extend_from_slice(body);
    // A shed connection may reset mid-upload with the 503 already on
    // the wire; keep reading regardless of the write's fate.
    let _ = stream.write_all(&request);
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&buf);
    let Some(status) = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.split(' ').next())
        .and_then(|s| s.parse::<u16>().ok())
    else {
        return BurstOutcome::Reset;
    };
    if status == 503 {
        return BurstOutcome::Shed { retry_after: text.contains("\r\nRetry-After: 1\r\n") };
    }
    let response_body =
        text.split_once("\r\n\r\n").map(|(_, b)| b.to_owned()).unwrap_or_default();
    BurstOutcome::Served(status, response_body)
}

fn main() {
    let mut report = BenchReport::from_env("serve", 200, 20);
    let (quick, samples) = (report.quick, report.samples);
    let per_client = if quick { 40 } else { 250 };
    let cores = bench::harness::cores();

    // Deterministic clean uploads (same generation path as the serve
    // test harness) and the bundle that classifies them.
    let mut sim = AthleteSimulator::new(SyntheticTerrain::new(SEED), SEED);
    let docs: Vec<Vec<u8>> = sim
        .generate(CityId::WashingtonDc, 4)
        .into_iter()
        .map(|a| a.gpx.to_xml().into_bytes())
        .collect();
    let cfg_bundle = if quick { BundleConfig::tiny() } else { BundleConfig::quick() };
    let t = Instant::now();
    let bundle = ModelBundle::train(SEED, &cfg_bundle);
    println!("  bundle trained in {:.1} s", t.elapsed().as_secs_f64());

    // --- 1. Steady-state classify: timed, and asserted allocation-free
    //        while this is still the only running thread.
    let (_, profile) = ingest_one(&TrackSource::Raw(docs[0].clone()), &IngestConfig::default());
    let profile = profile.expect("clean fixture ingests");
    let mut arena = InferenceArena::new();
    bundle.warm(&mut arena);
    for task in bundle.tasks() {
        let bow = task.bow(&profile);
        black_box(task.classify_bow(&bow, &mut arena));
    }
    let (classify_allocs, _) = common::count_allocs(|| {
        for _ in 0..100 {
            for task in bundle.tasks() {
                let bow = task.bow(&profile);
                black_box(task.classify_bow(&bow, &mut arena));
            }
        }
    });
    assert_eq!(
        classify_allocs, 0,
        "steady-state classify path allocated {classify_allocs} times over 200 classifications"
    );
    report.benches.push(single(
        "classify_both_tasks_warm",
        samples,
        "cached BoW + SVM + forest + MLP for TM-1 and TM-3; \
         0 heap allocations asserted over 200 classifications",
        || {
            for task in bundle.tasks() {
                let bow = task.bow(&profile);
                black_box(task.classify_bow(&bow, &mut arena));
            }
        },
    ));

    // --- 2. The offline report path: what one request costs without
    //        any transport (ingest dominates; the baseline for HTTP).
    let offline = single(
        "offline_report_json",
        samples,
        "full ingest -> featurize -> classify -> render for one clean upload, in-process",
        || bundle.report_json(&docs[0], &mut arena),
    );
    let offline_s = offline.optimized_s;
    report.benches.push(offline);

    // Expected bodies, so the load generator can assert correctness of
    // every served response while it measures.
    let expected: Vec<(u16, String)> =
        docs.iter().map(|d| bundle.report_json(d, &mut arena)).collect();

    // --- 3. Served latency at 1 / 4 / 16 keep-alive clients.
    for &clients in &[1usize, 4, 16] {
        let served = ModelBundle::from_records(bundle.to_records()).expect("records rebuild");
        let cfg = ServeConfig {
            port: 0,
            workers: clients,
            model_dir: None,
            reload_poll: Duration::from_millis(200),
            ..ServeConfig::from_env()
        };
        let server = Server::start(served, &cfg).expect("bind");
        let addr = server.addr();

        let started = Instant::now();
        let lat_sets: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let docs = &docs;
                    let expected = &expected;
                    scope.spawn(move || {
                        let mut client = HttpClient::connect(addr).expect("connect");
                        let mut latencies = Vec::with_capacity(per_client);
                        for i in 0..per_client {
                            let which = (exec::mix_seed(SEED ^ c as u64, i as u64)
                                % docs.len() as u64)
                                as usize;
                            let t = Instant::now();
                            let resp =
                                client.post("/v1/report", &docs[which]).expect("post");
                            latencies.push(t.elapsed().as_secs_f64());
                            assert_eq!(
                                (resp.status, resp.text()),
                                (expected[which].0, expected[which].1.clone()),
                                "served response diverged from the offline report under load"
                            );
                        }
                        latencies
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        });
        let wall = started.elapsed().as_secs_f64();
        server.shutdown();

        let latencies = Samples::new(lat_sets.into_iter().flatten().collect());
        let total = clients * per_client;
        let p50 = latencies.percentile(0.50);
        let p99 = latencies.percentile(0.99);
        let qps = total as f64 / wall;
        println!(
            "  {clients:>2} client(s): p50 {:.2} ms, p99 {:.2} ms, {qps:.0} req/s",
            p50 * 1e3,
            p99 * 1e3
        );
        let note = format!(
            "{total} requests over {clients} keep-alive connection(s), \
             {clients} worker(s), {cores} cores: p99 {:.3} ms, {qps:.0} req/s; \
             every body asserted equal to the offline report; \
             baseline is the in-process report path",
            p99 * 1e3
        );
        report.benches.push(
            BenchEntry::new(format!("served_report_p50_{clients}clients"), note, &latencies)
                .against(offline_s),
        );
    }

    // --- 4. Overload: a 4x burst (fresh connection per request) into
    //        a deliberately starved server (1 worker, queue depth 2).
    //        Accepted requests stay correct and bounded; the excess is
    //        shed as 503 + Retry-After, and the shed accounting in
    //        /v1/health must match what the clients observed exactly.
    {
        let served = ModelBundle::from_records(bundle.to_records()).expect("records rebuild");
        let cfg = ServeConfig {
            port: 0,
            workers: 1,
            queue_depth: 2,
            model_dir: None,
            ..ServeConfig::from_env()
        };
        let server = Server::start(served, &cfg).expect("bind");
        let addr = server.addr();
        let burst_clients = 4usize;

        let started = Instant::now();
        let outcomes: Vec<(Vec<f64>, u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..burst_clients)
                .map(|c| {
                    let docs = &docs;
                    let expected = &expected;
                    scope.spawn(move || {
                        let mut latencies = Vec::new();
                        let (mut shed, mut reset) = (0u64, 0u64);
                        for i in 0..per_client {
                            let which = (exec::mix_seed(SEED ^ 0x0b_u64 ^ c as u64, i as u64)
                                % docs.len() as u64)
                                as usize;
                            let t = Instant::now();
                            match burst_request(addr, &docs[which]) {
                                BurstOutcome::Served(status, body) => {
                                    latencies.push(t.elapsed().as_secs_f64());
                                    assert_eq!(
                                        (status, body),
                                        (expected[which].0, expected[which].1.clone()),
                                        "accepted burst response diverged from offline"
                                    );
                                }
                                BurstOutcome::Shed { retry_after } => {
                                    assert!(retry_after, "503 without Retry-After");
                                    shed += 1;
                                }
                                BurstOutcome::Reset => reset += 1,
                            }
                        }
                        (latencies, shed, reset)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("burst client")).collect()
        });
        let wall = started.elapsed().as_secs_f64();
        let health = server.health();
        server.shutdown();

        let accepted_lat: Vec<f64> =
            outcomes.iter().flat_map(|(l, _, _)| l.iter().copied()).collect();
        let shed_503: u64 = outcomes.iter().map(|(_, s, _)| s).sum();
        let resets: u64 = outcomes.iter().map(|(_, _, r)| r).sum();
        let total = (burst_clients * per_client) as u64;
        let served_ok = accepted_lat.len() as u64;
        assert_eq!(served_ok + shed_503 + resets, total, "every burst request accounted for");
        assert_eq!(
            health.shed(),
            shed_503 + resets,
            "the server's shed accounting must match the clients' ledger: {health:?}"
        );
        assert_eq!(
            health.accepted, served_ok,
            "every admitted connection must have been answered: {health:?}"
        );
        assert!(served_ok > 0, "the burst starved every request");
        assert!(health.shed() > 0, "a 4x burst into queue depth 2 must shed");

        let accepted_lat = Samples::new(accepted_lat);
        let p99 = accepted_lat.percentile(0.99);
        let shed_rate = health.shed() as f64 / total as f64;
        println!(
            "  overload 4x burst: {served_ok}/{total} served, {} shed \
             ({:.0}% | {} as 503, {resets} as resets), accepted p99 {:.2} ms",
            health.shed(),
            shed_rate * 100.0,
            shed_503,
            p99 * 1e3
        );
        let note = format!(
            "p99 latency of the {served_ok} accepted requests while {burst_clients} \
             fresh-connection clients burst {total} uploads into 1 worker with queue \
             depth 2 over {wall:.2} s; accepted bodies byte-equal offline; baseline \
             is the in-process report path"
        );
        report.benches.push(BenchEntry {
            baseline_s: Some(offline_s),
            optimized_s: p99,
            ..BenchEntry::new("served_overload_4x_p99", note, &accepted_lat)
        });
        report.benches.push(BenchEntry {
            name: "served_overload_4x_shed_rate".to_owned(),
            baseline_s: None,
            optimized_s: shed_rate,
            speedup: None,
            note: format!(
                "dimensionless: fraction of {total} burst requests shed ({shed_503} \
                 observed as 503 + Retry-After, {resets} as connection resets); \
                 /v1/health shed counter matched the client ledger exactly"
            ),
            samples: total as usize,
            cores,
            p10_s: None,
            p90_s: None,
        });
    }

    report.write(Path::new(env!("CARGO_TARGET_TMPDIR")));
}
