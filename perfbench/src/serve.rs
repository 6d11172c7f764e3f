//! The served-report workloads: `serve_fresh` and `serve_repeat`.
//!
//! Both drive an in-process [`Server`] (two workers) over two
//! keep-alive connections in a closed loop, so both vCPUs of a small
//! host stay busy and a slow phase of one core moves both halves of the
//! sample alike. Every upload is a pure function of the seed and the
//! request's global index `g` (connection `c` sends `g = c, c + 2, …`),
//! so a run's work does not depend on how fast the other connection
//! went.

use crate::stats::{mean, median, percentile, sorted};
use crate::trace::Tracer;
use crate::{count_allocations, host, Metric, Outcome};
use elev_core::featcache;
use elev_core::ingest::StreamingIngest;
use elev_core::report::{IngestSummary, LeakageReport, ModelVote, TaskReport};
use exec::mix_seed;
use faultsim::{corrupt_track, FaultPlan, Payload};
use gpxfile::stream::PointBuf;
use routegen::AthleteSimulator;
use serve::client::{ClientConfig, HttpClient};
use serve::{http, registry, BundleConfig, InferenceArena, ModelBundle, ServeConfig, Server};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};
use terrain::{CityId, SyntheticTerrain};

/// Distinct base activities behind `serve_fresh`'s uploads.
const POOL: usize = 256;
/// Clean tracks `serve_repeat` cycles through.
const REPEAT_TRACKS: usize = 16;
/// Clean uploads whose TM-3 prediction is scored against the true city.
const EVAL_UPLOADS: usize = 200;
/// Seed of the served model bundle and of the evaluation uploads. Both
/// are fixed so `tm3_accuracy` measures the program rather than one
/// seed's training draw (bundles trained from seeds 1 and 2 scored 0.195
/// and 0.105 on their own uploads); `--seed` drives every timed upload.
const MODEL_SEED: u64 = 0x5E1F_BE4C;
/// Share of `serve_fresh` base activities run through `corrupt_track`.
const FAULT_RATE: f64 = 0.1;
/// Keep-alive client connections, each pinned to one server worker.
const CONNECTIONS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Untimed requests per connection before the timed phase.
const WARM_PER_CONNECTION: u64 = 1024;
/// Requests the traced run replays in-process (and then serves).
const TRACE_REQUESTS: u64 = 2000;
/// Requests whose heap allocations the traced run counts.
const ALLOC_REQUESTS: u64 = 256;
/// Largest accepted gap between the traced stage sum and the untraced
/// in-process report time, as a share of the latter.
const STAGE_SUM_TOLERANCE: f64 = 0.15;

/// Which upload stream a serve workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every upload a never-seen activity; one base in ten corrupted.
    Fresh,
    /// A fixed set of clean tracks, so featurization hits the cache.
    Repeat,
}

/// One generated activity upload.
struct Upload {
    bytes: Vec<u8>,
    city: CityId,
    /// Byte offsets of the last digit of each `<ele>` value.
    ele_digits: Vec<usize>,
}

impl Upload {
    fn new(bytes: Vec<u8>, city: CityId) -> Self {
        let mut ele_digits = Vec::new();
        let mut at = 0;
        while let Some(open) = find(&bytes[at..], b"<ele>") {
            let start = at + open + b"<ele>".len();
            let Some(len) = bytes[start..].iter().position(|&b| b == b'<') else {
                break;
            };
            let last = start + len;
            if len > 0 && bytes[last - 1].is_ascii_digit() {
                ele_digits.push(last - 1);
            }
            at = last;
        }
        Self {
            bytes,
            city,
            ele_digits,
        }
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// A serve workload's inputs, generated from the seed before any
/// timing starts. Memory is fixed: `serve_fresh` derives every upload
/// from a 256-activity pool by changing one elevation digit, so an
/// upload costs nothing until it is sent.
pub struct Inputs {
    mix: Mix,
    pool: Vec<Upload>,
    eval: Vec<Upload>,
}

impl Inputs {
    /// Generates the pool from `seed` (AthleteSimulator over the ten
    /// city-level metros, on the terrain the bundle's TM-3 corpus is
    /// mined from) and the fixed evaluation uploads.
    pub fn generate(seed: u64, mix: Mix) -> Self {
        let activities = |sim_seed: u64, n: usize| {
            let terrain = SyntheticTerrain::new(MODEL_SEED.wrapping_add(1));
            let mut sim = AthleteSimulator::new(terrain, sim_seed);
            (0..n).map(move |i| {
                let city = CityId::CITY_LEVEL[i % CityId::CITY_LEVEL.len()];
                (city, sim.generate_one(city).gpx)
            })
        };
        let plan = FaultPlan::uniform(FAULT_RATE, mix_seed(seed, 0xFA17));
        let pool = match mix {
            Mix::Fresh => activities(mix_seed(seed, 0xB0B), POOL)
                .enumerate()
                .map(|(i, (city, gpx))| {
                    let bytes = match corrupt_track(&plan, i as u64, &gpx).payload {
                        Payload::Parsed(doc) => doc.to_xml().into_bytes(),
                        Payload::Raw(raw) => raw,
                    };
                    Upload::new(bytes, city)
                })
                .collect(),
            Mix::Repeat => activities(mix_seed(seed, 0xB0B), REPEAT_TRACKS)
                .map(|(city, gpx)| Upload::new(gpx.to_xml().into_bytes(), city))
                .collect(),
        };
        let eval = activities(mix_seed(MODEL_SEED, 0xE7A1), EVAL_UPLOADS)
            .map(|(city, gpx)| Upload::new(gpx.to_xml().into_bytes(), city))
            .collect();
        Self { mix, pool, eval }
    }

    /// Writes upload `g` into `buf`. `serve_fresh` round `r = g / 256`
    /// adds `1 + (r - 1) / n` (mod 10) to the last digit of elevation
    /// `(r - 1) mod n` of its base, so uploads stay distinct for
    /// `9 n` rounds (about 9 × 410 × 256 ≈ 940k requests).
    pub fn upload_into(&self, g: u64, buf: &mut Vec<u8>) {
        let n = self.pool.len() as u64;
        let base = &self.pool[(g % n) as usize];
        buf.clear();
        buf.extend_from_slice(&base.bytes);
        let round = g / n;
        if self.mix == Mix::Fresh && round > 0 && !base.ele_digits.is_empty() {
            let k = (round - 1) as usize;
            let at = base.ele_digits[k % base.ele_digits.len()];
            let delta = 1 + (k / base.ele_digits.len()) % 9;
            buf[at] = b'0' + (buf[at] - b'0' + delta as u8) % 10;
        }
    }

    /// Uploads `g` and `h` are byte-identical when their keys match.
    fn key(&self, g: u64) -> u64 {
        match self.mix {
            Mix::Fresh => g,
            Mix::Repeat => g % self.pool.len() as u64,
        }
    }

    /// Mean bytes and points of the base uploads.
    fn shape(&self) -> (f64, f64) {
        let mut points = PointBuf::default();
        let mut total_points = 0usize;
        for u in &self.pool {
            if points.fill_from_bytes(&u.bytes).is_ok() {
                total_points += points.points().len();
            }
        }
        let n = self.pool.len() as f64;
        (
            self.pool.iter().map(|u| u.bytes.len()).sum::<usize>() as f64 / n,
            total_points as f64 / n,
        )
    }
}

/// Status, length and FNV-1a-64 digest of one response body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seen {
    status: u16,
    len: usize,
    digest: u64,
}

impl Seen {
    fn of(status: u16, body: &[u8]) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in body {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Self {
            status,
            len: body.len(),
            digest: h,
        }
    }
}

/// What one connection sent and got back.
#[derive(Default)]
struct ConnLog {
    /// `(g, response)` per completed request.
    seen: Vec<(u64, Seen)>,
    /// Client-timed latencies (µs) of the completed requests.
    latency_us: Vec<f64>,
    /// Requests that ended in an I/O error.
    io_errors: u64,
}

/// Sends uploads `first, first + stride, …` until `count` are done or
/// `deadline` passes (checked after each response).
fn drive(
    client: &mut HttpClient,
    inputs: &Inputs,
    first: u64,
    stride: u64,
    count: u64,
    deadline: Option<Instant>,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut buf = Vec::new();
    for k in 0..count {
        let g = first + k * stride;
        inputs.upload_into(g, &mut buf);
        let t = Instant::now();
        match client.post("/v1/report", &buf) {
            Ok(r) => {
                log.latency_us.push(t.elapsed().as_secs_f64() * 1e6);
                log.seen.push((g, Seen::of(r.status, &r.body)));
            }
            Err(e) => {
                eprintln!("request {g}: {e}");
                log.io_errors += 1;
                break;
            }
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
    }
    log
}

/// Trains the bundle and publishes it as a registry generation.
fn publish_registry(dir: &Path) -> Result<(), String> {
    let bundle = ModelBundle::train(MODEL_SEED, &BundleConfig::quick());
    registry::save_dir(dir, &bundle.to_records()).map_err(|e| format!("registry save: {e}"))
}

/// Loads a bundle from the registry, refusing a fallback generation.
fn load_bundle(dir: &Path) -> Result<ModelBundle, String> {
    let load = registry::load_generation(dir).map_err(|e| format!("registry load: {e}"))?;
    if load.fell_back || !load.errors.is_empty() {
        return Err(format!("registry load fell back: {:?}", load.errors));
    }
    ModelBundle::from_records(load.records)
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        port: 0,
        workers: WORKERS,
        model_dir: None,
        reload_poll: Duration::from_millis(200),
        request_deadline: Duration::from_secs(5),
        header_deadline: Duration::from_secs(2),
        idle_timeout: Duration::from_secs(5),
        queue_depth: 64,
        ip_slot_cap: 0,
        debug_routes: false,
    }
}

fn client_config() -> ClientConfig {
    ClientConfig {
        read_timeout: Duration::from_secs(10),
        write_timeout: Duration::from_secs(10),
    }
}

/// Seconds spent in each step of one set-up.
struct SetupTimes {
    load: f64,
    build: f64,
    start: f64,
}

/// One set-up: registry load → bundle → server → `connections` open
/// with `GET /healthz` answered on each.
fn start_stack(
    registry_dir: &Path,
    connections: usize,
) -> Result<(Server, Vec<HttpClient>, SetupTimes), String> {
    let t0 = Instant::now();
    let load =
        registry::load_generation(registry_dir).map_err(|e| format!("registry load: {e}"))?;
    if load.fell_back || !load.errors.is_empty() {
        return Err(format!("registry load fell back: {:?}", load.errors));
    }
    let t1 = Instant::now();
    let bundle = ModelBundle::from_records(load.records)?;
    let t2 = Instant::now();
    let server =
        Server::start(bundle, &serve_config()).map_err(|e| format!("server start: {e}"))?;
    let mut clients = Vec::with_capacity(connections);
    for _ in 0..connections {
        let mut c = HttpClient::connect_with(server.addr(), &client_config())
            .map_err(|e| format!("connect: {e}"))?;
        let r = c.get("/healthz").map_err(|e| format!("healthz: {e}"))?;
        if r.status != 200 {
            return Err(format!("healthz answered {}", r.status));
        }
        clients.push(c);
    }
    let t3 = Instant::now();
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    Ok((
        server,
        clients,
        SetupTimes {
            load: secs(t0, t1),
            build: secs(t1, t2),
            start: secs(t2, t3),
        },
    ))
}

/// Server-side failures: I/O errors, timeouts and shed connections.
fn server_failures(server: &Server) -> u64 {
    let h = server.health();
    h.io_errors + h.header_timeouts + h.request_timeouts + h.write_timeouts + h.shed()
}

fn bow_hits_misses() -> (u64, u64) {
    let s = featcache::stats();
    (s.bow_hits, s.bow_misses)
}

fn hit_ratio(before: (u64, u64), after: (u64, u64)) -> f64 {
    let hits = after.0 - before.0;
    let lookups = hits + after.1 - before.1;
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// Expected `(status, body)` of every distinct upload in `keys`, from
/// a bundle loaded independently of the server's, on two threads.
fn expected_reports(
    inputs: &Inputs,
    bundle: &ModelBundle,
    keys: &[u64],
) -> HashMap<u64, (Seen, &'static str)> {
    let halves: Vec<&[u64]> = keys.chunks(keys.len().div_ceil(2).max(1)).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = halves
            .into_iter()
            .map(|part| {
                s.spawn(move || {
                    let mut arena = InferenceArena::new();
                    bundle.warm(&mut arena);
                    let mut buf = Vec::new();
                    let mut out = Vec::with_capacity(part.len());
                    for (i, &g) in part.iter().enumerate() {
                        // Cached rows are never read again; dropping
                        // them keeps verification memory flat.
                        if i % 4096 == 4095 {
                            featcache::reset();
                        }
                        inputs.upload_into(g, &mut buf);
                        let (status, body) = bundle.report_json(&buf, &mut arena);
                        out.push((
                            inputs.key(g),
                            (Seen::of(status, body.as_bytes()), disposition(&body)),
                        ));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verification thread"))
            .collect()
    })
}

fn disposition(body: &str) -> &'static str {
    [
        ("clean", "\"disposition\": \"clean\""),
        ("repaired", "\"disposition\": \"repaired\""),
        ("quarantined", "\"disposition\": \"quarantined\""),
    ]
    .into_iter()
    .find(|(_, field)| body.contains(field))
    .map_or("unknown", |(name, _)| name)
}

/// TM-3 hits among the evaluation uploads, and mismatches between the
/// served bodies and the independently computed reports.
fn score_eval(inputs: &Inputs, bundle: &ModelBundle, served: &[Seen]) -> (usize, u64) {
    let mut arena = InferenceArena::new();
    let (mut correct, mut mismatches) = (0usize, 0u64);
    for (u, seen) in inputs.eval.iter().zip(served) {
        let (status, body) = bundle.report_json(&u.bytes, &mut arena);
        if Seen::of(status, body.as_bytes()) != *seen {
            mismatches += 1;
        }
        let report = bundle.leakage_report(&u.bytes, &mut arena);
        if report
            .tasks
            .iter()
            .any(|t| t.task == "tm3" && t.prediction == u.city.name())
        {
            correct += 1;
        }
    }
    mismatches += (inputs.eval.len() - served.len()) as u64;
    (correct, mismatches)
}

/// The untimed-then-timed served run behind the end-to-end metrics.
///
/// # Errors
///
/// Set-up failures (registry, server start, connections).
pub fn run(seed: u64, mix: Mix, seconds: u64, work: &Path) -> Result<Outcome, String> {
    let inputs = Inputs::generate(seed, mix);
    let registry_dir = work.join("registry");
    publish_registry(&registry_dir)?;

    // Set-up, repeated; the last stack serves the timed phase.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let (server, clients, _) = start_stack(&registry_dir, CONNECTIONS)?;
        setup.push(t.elapsed().as_secs_f64());
        if let Some((old, _)) = stack.replace((server, clients)) {
            Server::shutdown(old);
        }
    }
    let (server, mut clients) = stack.expect("at least one set-up");

    let stride = CONNECTIONS as u64;
    let run_phase =
        |clients: &mut [HttpClient], first: u64, count: u64, deadline: Option<Instant>| {
            std::thread::scope(|s| {
                let handles: Vec<_> = clients
                    .iter_mut()
                    .enumerate()
                    .map(|(c, client)| {
                        let inputs = &inputs;
                        s.spawn(move || {
                            drive(client, inputs, first + c as u64, stride, count, deadline)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect::<Vec<_>>()
            })
        };
    let warm = run_phase(&mut clients, 0, WARM_PER_CONNECTION, None);

    let cache_before = bow_hits_misses();
    let start = Instant::now();
    let timed = run_phase(
        &mut clients,
        stride * WARM_PER_CONNECTION,
        u64::MAX,
        Some(start + Duration::from_secs(seconds)),
    );
    let wall = start.elapsed().as_secs_f64();
    let cache_after = bow_hits_misses();
    let peak_rss = host::peak_rss_mib()?;

    let mut eval_seen = Vec::with_capacity(inputs.eval.len());
    for u in &inputs.eval {
        match clients[0].post("/v1/report", &u.bytes) {
            Ok(r) => eval_seen.push(Seen::of(r.status, &r.body)),
            Err(e) => {
                eprintln!("evaluation upload: {e}");
                break;
            }
        }
    }
    let failures_server = server_failures(&server);
    drop(clients);
    server.shutdown();

    // Correctness, outside the timed phase: every served status and
    // body against an independently loaded bundle on a cold cache.
    featcache::reset();
    let reference = load_bundle(&registry_dir)?;
    let all: Vec<(u64, Seen)> = warm
        .iter()
        .chain(&timed)
        .flat_map(|l| l.seen.iter().copied())
        .collect();
    let mut keys: Vec<u64> = all.iter().map(|&(g, _)| inputs.key(g)).collect();
    keys.sort_unstable();
    keys.dedup();
    let expected = expected_reports(&inputs, &reference, &keys);
    let mut mismatches = 0u64;
    let mut mix_counts: HashMap<&'static str, u64> = HashMap::new();
    for (g, seen) in &all {
        let (want, disp) = expected[&inputs.key(*g)];
        if want != *seen {
            mismatches += 1;
        }
        *mix_counts.entry(disp).or_default() += 1;
    }
    let (tm3_hits, eval_mismatches) = score_eval(&inputs, &reference, &eval_seen);
    let io_errors: u64 = warm.iter().chain(&timed).map(|l| l.io_errors).sum();

    let latencies = sorted(
        timed
            .iter()
            .flat_map(|l| l.latency_us.iter().copied())
            .collect(),
    );
    if latencies.len() < 1000 {
        return Err(format!(
            "only {} timed requests; p99 needs 1000",
            latencies.len()
        ));
    }
    let completed = latencies.len() as f64;
    let attempted = all.len() as u64 + io_errors + inputs.eval.len() as u64;
    let failed = mismatches + io_errors + eval_mismatches + failures_server;
    let p50 = percentile(&latencies, 0.5) / 1e3;
    let p99 = percentile(&latencies, 0.99) / 1e3;
    let rps = completed / wall;
    let tm3 = tm3_hits as f64 / inputs.eval.len() as f64;
    let setup_s = median(&setup);

    let (bytes, points) = inputs.shape();
    let count = |d: &str| mix_counts.get(d).copied().unwrap_or(0);
    println!(
        "workload: {} uploads from {} base activities, mean {:.0} bytes / {:.0} points; \
         dispositions clean {} / repaired {} / quarantined {}",
        all.len(),
        inputs.pool.len(),
        bytes,
        points,
        count("clean"),
        count("repaired"),
        count("quarantined"),
    );
    println!(
        "workload: featcache hit ratio over the timed phase {:.4}; {} connections, {} workers",
        hit_ratio(cache_before, cache_after),
        CONNECTIONS,
        WORKERS
    );
    println!("setup_s         {setup_s:.6} s (median of {SETUP_REPS})");
    println!("report_p50_ms   {p50:.6} ms");
    println!(
        "report_p99_ms   {p99:.6} ms (n = {}, {} beyond)",
        latencies.len(),
        latencies.len() - (latencies.len() as f64 * 0.99).ceil() as usize
    );
    println!("report_rps      {rps:.3} 1/s");
    println!(
        "tm3_accuracy    {tm3:.4} ratio ({tm3_hits} of {})",
        inputs.eval.len()
    );
    println!("peak_rss_mb     {peak_rss:.3} MB");
    println!(
        "fail_ratio      {:.6} ratio ({failed} of {attempted}: {mismatches} mismatched, {io_errors} client I/O errors, \
         {eval_mismatches} evaluation mismatches, {failures_server} server failures)",
        failed as f64 / attempted as f64
    );

    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("p50_ms", p50, "ms"),
            Metric::new("ops_per_s", rps, "1/s"),
            Metric::new("accuracy", tm3, "ratio"),
            Metric::new("peak_rss_mb", peak_rss, "MB"),
        ],
    })
}

/// Replays one upload through the layers `report_json` calls, a span
/// around each call, and renders the report exactly as
/// `ModelBundle::leakage_report` + `report_json` do.
fn traced_report(
    tr: &mut Tracer,
    bundle: &ModelBundle,
    ingest: &mut StreamingIngest,
    arena: &mut InferenceArena,
    raw: &[u8],
    g: u64,
) -> (u16, String) {
    let report = tr.open("report", g);
    let (disposition, profile) = tr.span("ingest", g, || ingest.ingest_bytes(raw));
    let mut votes = Vec::new();
    if let Some(signal) = &profile {
        for task in bundle.tasks() {
            let bow = tr.span("featurize", g, || task.bow(signal));
            votes.push((
                task,
                tr.span("classify", g, || task.classify_bow(&bow, arena)),
            ));
        }
    }
    let out = tr.span("render", g, || {
        let tasks = votes
            .iter()
            .map(|(task, v)| {
                let name = |idx: u32| {
                    task.labels
                        .get(idx as usize)
                        .cloned()
                        .unwrap_or_else(|| format!("class-{idx}"))
                };
                TaskReport::from_votes(
                    task.task.clone(),
                    vec![
                        ModelVote {
                            model: "svm",
                            label: name(v.svm),
                        },
                        ModelVote {
                            model: "rfc",
                            label: name(v.rfc),
                        },
                        ModelVote {
                            model: "mlp",
                            label: name(v.mlp),
                        },
                    ],
                )
            })
            .collect();
        let len = profile.as_ref().map_or(0, Vec::len);
        let r = LeakageReport {
            ingest: IngestSummary::of(&disposition, len),
            tasks,
        };
        (if r.status() == "ok" { 200 } else { 422 }, r.to_json())
    });
    tr.close(report);
    out
}

/// The traced per-layer run of a serve workload (one thread for the
/// in-process replay, one connection for the served replay).
///
/// # Errors
///
/// Set-up failures (registry, server start, connections).
pub fn traced(seed: u64, mix: Mix, work: &Path, tr: &mut Tracer) -> Result<Outcome, String> {
    let inputs = Inputs::generate(seed, mix);
    let registry_dir = work.join("registry");
    publish_registry(&registry_dir)?;

    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let (server, clients, t) = start_stack(&registry_dir, 1)?;
        times.push(t);
        drop(clients);
        server.shutdown();
    }
    let setup_ms =
        |f: fn(&SetupTimes) -> f64| median(&times.iter().map(|t| f(t) * 1e3).collect::<Vec<_>>());

    // In-process replay: the traced decomposition and the untraced
    // `report_json` alternate on each upload (order flipped every other
    // upload), on two independently loaded bundles so both see the same
    // featcache state.
    featcache::reset();
    let traced_bundle = load_bundle(&registry_dir)?;
    let plain_bundle = load_bundle(&registry_dir)?;
    let (mut arena_t, mut arena_p) = (InferenceArena::new(), InferenceArena::new());
    traced_bundle.warm(&mut arena_t);
    plain_bundle.warm(&mut arena_p);
    let mut ingest = StreamingIngest::default();
    let mut points = PointBuf::default();
    let mut buf = Vec::new();
    if mix == Mix::Repeat {
        for g in 0..inputs.pool.len() as u64 {
            inputs.upload_into(g, &mut buf);
            plain_bundle.report_json(&buf, &mut arena_p);
            traced_bundle.report_json(&buf, &mut arena_t);
        }
    }
    let cache_before = bow_hits_misses();
    let mut plain_us = Vec::with_capacity(TRACE_REQUESTS as usize);
    let mut plain_seen = Vec::with_capacity(TRACE_REQUESTS as usize);
    let (mut upload_bytes, mut mismatches) = (0u64, 0u64);
    for g in 0..TRACE_REQUESTS {
        inputs.upload_into(g, &mut buf);
        upload_bytes += buf.len() as u64;
        let mut request = format!(
            "POST /v1/report HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
            buf.len()
        )
        .into_bytes();
        request.extend_from_slice(&buf);
        let parsed_ok = tr.span("http.parse", g, || http::parse_request(&request).is_ok());
        let parse_ok = tr.span("ingest.parse", g, || points.fill_from_bytes(&buf).is_ok());
        std::hint::black_box((parsed_ok, parse_ok));

        let mut plain = || {
            let t = Instant::now();
            let out = plain_bundle.report_json(&buf, &mut arena_p);
            (out, t.elapsed().as_secs_f64() * 1e6)
        };
        let (traced_out, (plain_out, us)) = if g % 2 == 0 {
            let t = traced_report(tr, &traced_bundle, &mut ingest, &mut arena_t, &buf, g);
            (t, plain())
        } else {
            let p = plain();
            (
                traced_report(tr, &traced_bundle, &mut ingest, &mut arena_t, &buf, g),
                p,
            )
        };
        if traced_out != plain_out {
            mismatches += 1;
        }
        let rendered = tr.span("http.render", g, || {
            http::render_response(plain_out.0, &plain_out.1)
        });
        std::hint::black_box(rendered);
        plain_us.push(us);
        plain_seen.push(Seen::of(plain_out.0, plain_out.1.as_bytes()));
    }
    let cache_after = bow_hits_misses();

    let (_, allocs) = count_allocations(|| {
        for g in TRACE_REQUESTS..TRACE_REQUESTS + ALLOC_REQUESTS {
            inputs.upload_into(g, &mut buf);
            std::hint::black_box(plain_bundle.report_json(&buf, &mut arena_p));
        }
    });

    // Served replay of the same uploads over one connection: served
    // p50 minus in-process p50 is the transport share.
    featcache::reset();
    let (server, mut clients, _) = start_stack(&registry_dir, 1)?;
    let served = drive(&mut clients[0], &inputs, 0, 1, TRACE_REQUESTS, None);
    let featcache_mib = featcache::stats().sparse_feature_bytes() as f64 / (1u64 << 20) as f64;
    let failures_server = server_failures(&server);
    drop(clients);
    server.shutdown();
    let served_mismatches = served
        .seen
        .iter()
        .filter(|(g, s)| plain_seen.get(*g as usize) != Some(s))
        .count() as u64;
    let served_missing = TRACE_REQUESTS - served.seen.len() as u64;

    let totals = tr.totals();
    let n = TRACE_REQUESTS;
    let per = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e3 / n as f64)
    };
    let inproc = mean(&plain_us);
    // The report span's children are exactly these stages, so their self
    // times add up to the traced report time; the gap to the untraced
    // time is the tracing overhead.
    let stage_sum =
        per("ingest") + per("featurize") + per("classify") + per("render") + per("report");
    let gap = stage_sum / inproc - 1.0;
    let parse_s = totals
        .get("ingest.parse")
        .map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let served_p50 = percentile(&sorted(served.latency_us.clone()), 0.5);
    let inproc_p50 = percentile(&sorted(plain_us.clone()), 0.5);
    let stage_sum_ok = gap.abs() <= STAGE_SUM_TOLERANCE;
    println!(
        "serve trace: {n} uploads; stage self-times sum to {stage_sum:.2} µs vs report.inproc_us {inproc:.2} µs \
         (gap {:+.2}%, tolerance {:.0}%: {})",
        gap * 1e2,
        STAGE_SUM_TOLERANCE * 1e2,
        if stage_sum_ok { "ok" } else { "FAILED" }
    );
    println!(
        "serve trace: served p50 {served_p50:.2} µs over one connection, in-process p50 {inproc_p50:.2} µs"
    );

    let failed = mismatches
        + served_mismatches
        + served_missing
        + failures_server
        + u64::from(!stage_sum_ok);
    let attempted = 2 * n + ALLOC_REQUESTS;
    let metrics = vec![
        Metric::new("http.parse_us", per("http.parse"), "us"),
        Metric::new("http.render_us", per("http.render"), "us"),
        Metric::new("ingest.parse_us", per("ingest.parse"), "us"),
        Metric::new(
            "ingest.mib_per_s",
            upload_bytes as f64 / (1u64 << 20) as f64 / parse_s,
            "MiB/s",
        ),
        Metric::new(
            "ingest.repair_us",
            per("ingest") - per("ingest.parse"),
            "us",
        ),
        Metric::new("featurize.us", per("featurize"), "us"),
        Metric::new(
            "featcache.hit_ratio",
            hit_ratio(cache_before, cache_after),
            "ratio",
        ),
        Metric::new("featcache.mib", featcache_mib, "MiB"),
        Metric::new("classify.us", per("classify"), "us"),
        Metric::new("render.us", per("render"), "us"),
        Metric::new("report.inproc_us", inproc, "us"),
        Metric::new(
            "report.allocs",
            allocs as f64 / ALLOC_REQUESTS as f64,
            "count",
        ),
        Metric::new("transport.us", served_p50 - inproc_p50, "us"),
        Metric::new("server.failures", failures_server as f64, "count"),
        Metric::new("registry.load_ms", setup_ms(|t| t.load), "ms"),
        Metric::new("bundle.build_ms", setup_ms(|t| t.build), "ms"),
        Metric::new("server.start_ms", setup_ms(|t| t.start), "ms"),
        Metric::new("serve.trace_overhead_pct", gap * 1e2, "%"),
    ];
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}
