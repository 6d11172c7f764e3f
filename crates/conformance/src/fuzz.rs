//! The deterministic in-tree fuzz driver.
//!
//! No `cargo-fuzz`, no coverage instrumentation, no nondeterminism:
//! every mutation derives from `(seed, iteration)` through the same
//! SplitMix64 mixing the fault substrate uses, so a failing iteration
//! number is a complete bug report. The coverage proxy is an
//! error-class histogram — the distinct ways the parser and the
//! ingestion pipeline can classify a mutated document. A campaign that
//! stops discovering new classes has stopped making progress, which is
//! the property the driver asserts instead of branch counts.
//!
//! Mutated documents run through [`exec::Executor::try_map`] in
//! batches, so the driver simultaneously proves the panic-isolation
//! contract: no input may panic past `try_map`'s boundary.
//!
//! Four campaigns share the machinery: the GPX campaign drives the
//! parser and the ingestion pipeline; the HTTP campaign
//! ([`run_http_campaign`]) drives the inference server's request
//! parser (`serve::http`) with mutated request framing — same
//! seed-indexed mutation operators, a token set steering toward
//! request-line and header damage, and [`serve::http::HttpError::name`]
//! values as the histogram keys; the stream-parity campaign
//! ([`run_stream_parity_campaign`]) judges DOM vs streaming ingestion
//! on every mutant; and the connection-fault chaos campaign
//! ([`run_connfault_campaign`]) pushes seed-scripted
//! `faultsim::FlakyConn` mutants — truncated heads, mid-body resets,
//! slowloris drip — through a **live** server and checks the observed
//! transport outcome against the script's pure prediction.

use elev_core::ingest::{Disposition, StreamingIngest};
use faultsim::{ConnScript, FlakyConn, NetFaultKind, NetFaultPlan, Payload, SendOutcome, Teardown};
use gpxfile::xml::XmlError;
use gpxfile::{Gpx, GpxError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};

/// Campaign configuration.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Master seed; every iteration's RNG is `mix_seed(seed, iter)`.
    pub seed: u64,
    /// Number of mutated documents to run.
    pub iterations: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self { seed: 0xF022, iterations: 10_000 }
    }
}

impl FuzzConfig {
    /// The pinned configuration of the HTTP framing campaign — its own
    /// seed stream, so the two campaigns never share mutants.
    pub fn http() -> Self {
        Self { seed: 0x477F, iterations: 10_000 }
    }

    /// The pinned configuration of the connection-fault chaos
    /// campaign (again its own seed stream).
    pub fn connfault() -> Self {
        Self { seed: 0xC0FA, iterations: 10_000 }
    }
}

/// Outcome of a campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Iterations executed.
    pub iterations: u64,
    /// Error-class histogram: class name → occurrences. This is the
    /// coverage proxy; more keys = more distinct behaviours exercised.
    pub histogram: BTreeMap<String, u64>,
    /// Iterations whose document escaped `try_map` as a panic —
    /// must always be empty.
    pub panics: Vec<u64>,
}

impl FuzzReport {
    /// Number of distinct error classes observed.
    pub fn class_count(&self) -> usize {
        self.histogram.len()
    }

    /// Renders the histogram for test logs.
    pub fn render(&self) -> String {
        let mut out = format!(
            "fuzz campaign: {} iterations, {} error classes, {} panics\n",
            self.iterations,
            self.class_count(),
            self.panics.len()
        );
        for (class, count) in &self.histogram {
            out.push_str(&format!("  {class:<24} {count}\n"));
        }
        out
    }
}

/// The realistic seed document mutations start from: namespaced GPX
/// with elevations, timestamps, entities, and two segments — enough
/// surface for every parser path, and long enough (30 points) that the
/// unmutated document passes ingestion as `ok.clean`.
pub fn seed_doc() -> Vec<u8> {
    let mut doc = String::from(
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
         <gpx version=\"1.1\" creator=\"conformance-fuzz\" \
         xmlns=\"http://www.topografix.com/GPX/1/1\">\n\
         \u{20}\u{20}<trk>\n\
         \u{20}\u{20}\u{20}\u{20}<name>Morning Run &amp; Loop</name>\n\
         \u{20}\u{20}\u{20}\u{20}<trkseg>\n",
    );
    for i in 0..30u32 {
        let secs = 30 * i;
        doc.push_str(&format!(
            "      <trkpt lat=\"{:.4}\" lon=\"{:.4}\"><ele>{:.1}</ele>\
             <time>2019-07-01T12:{:02}:{:02}Z</time></trkpt>\n",
            38.8895 + f64::from(i) * 0.0005,
            -77.0353 - f64::from(i) * 0.0004,
            18.0 + f64::from(i) * 1.5,
            secs / 60,
            secs % 60,
        ));
    }
    doc.push_str("    </trkseg>\n  </trk>\n</gpx>\n");
    doc.into_bytes()
}

/// Byte fragments the splice/overwrite mutators draw from — tokens
/// that steer mutants toward interesting parser states instead of
/// uniform noise.
const TOKENS: &[&[u8]] = &[
    b"<trkpt", b"</trkpt>", b"<ele>", b"</ele>", b"lat=\"", b"lon=\"", b"&amp;", b"&bogus;",
    b"<![CDATA[", b"]]>", b"<?xml", b"NaN", b"1e308", b"-1e308", b"\"\"", b"<gpx", b"</gpx>",
    b"<trkseg>", b"</trkseg>", b"--", b"\xff\xfe", b"lat=\"91.0\"", b"lon=\"qq\"",
];

/// Deterministically mutates the seed document for one iteration.
///
/// Applies 1–4 stacked mutation operators chosen by the iteration's
/// private RNG; the operator set covers structural damage (truncation,
/// range deletion/duplication), byte-level damage (bit flips,
/// overwrites, invalid UTF-8) and token splicing.
pub fn mutate(seed: u64, iter: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(exec::mix_seed(seed, iter));
    let mut doc = seed_doc();
    apply_ops(&mut doc, &mut rng, TOKENS);
    doc
}

/// The shared operator loop both campaigns run: 1–4 stacked mutations
/// drawn from the iteration's private RNG, splicing from `tokens`.
/// The RNG call sequence is part of the pinned-campaign contract —
/// reordering it invalidates every committed exemplar.
fn apply_ops(doc: &mut Vec<u8>, rng: &mut StdRng, tokens: &[&[u8]]) {
    let ops = rng.gen_range(1..=4usize);
    for _ in 0..ops {
        if doc.is_empty() {
            break;
        }
        match rng.gen_range(0..9u32) {
            // Truncate at a random point.
            0 => {
                let at = rng.gen_range(0..doc.len());
                doc.truncate(at);
            }
            // Flip a random bit.
            1 => {
                let at = rng.gen_range(0..doc.len());
                doc[at] ^= 1 << rng.gen_range(0..8u32);
            }
            // Overwrite one byte with an arbitrary value.
            2 => {
                let at = rng.gen_range(0..doc.len());
                doc[at] = rng.gen_range(0..=255u8);
            }
            // Delete a short range.
            3 => {
                let at = rng.gen_range(0..doc.len());
                let len = rng.gen_range(1..=32usize).min(doc.len() - at);
                doc.drain(at..at + len);
            }
            // Duplicate a short range in place.
            4 => {
                let at = rng.gen_range(0..doc.len());
                let len = rng.gen_range(1..=32usize).min(doc.len() - at);
                let chunk: Vec<u8> = doc[at..at + len].to_vec();
                let insert_at = rng.gen_range(0..=doc.len());
                doc.splice(insert_at..insert_at, chunk);
            }
            // Splice in a steering token.
            5 => {
                let tok = tokens[rng.gen_range(0..tokens.len())];
                let at = rng.gen_range(0..=doc.len());
                doc.splice(at..at, tok.iter().copied());
            }
            // Corrupt a numeric literal: swap a digit.
            6 => {
                let digits: Vec<usize> = doc
                    .iter()
                    .enumerate()
                    .filter(|(_, b)| b.is_ascii_digit())
                    .map(|(i, _)| i)
                    .collect();
                if !digits.is_empty() {
                    let at = digits[rng.gen_range(0..digits.len())];
                    doc[at] = b'0' + rng.gen_range(0..10u8);
                }
            }
            // Inject an invalid UTF-8 continuation byte.
            7 => {
                let at = rng.gen_range(0..=doc.len());
                doc.insert(at, rng.gen_range(0x80..=0xBFu8));
            }
            // Swap two ranges (tag reordering in the cheap).
            _ => {
                let a = rng.gen_range(0..doc.len());
                let b = rng.gen_range(0..doc.len());
                doc.swap(a, b);
            }
        }
    }
}

/// The parse-failure half of the class lattice, shared by the DOM and
/// streaming classifiers so parity is judged on identical names.
fn gpx_error_class(e: &GpxError) -> String {
    match e {
        GpxError::Xml(XmlError::UnexpectedEof { .. }) => "xml.eof".into(),
        GpxError::Xml(XmlError::Malformed { .. }) => "xml.malformed".into(),
        GpxError::Xml(XmlError::UnknownEntity { .. }) => "xml.entity".into(),
        GpxError::Xml(XmlError::MismatchedTag { .. }) => "xml.mismatch".into(),
        GpxError::BadTrackPoint { .. } => "gpx.bad_trkpt".into(),
        GpxError::NotGpx => "gpx.not_gpx".into(),
        GpxError::InvalidUtf8 { .. } => "gpx.bad_utf8".into(),
        // GpxError is #[non_exhaustive]; any future variant gets its
        // own bucket rather than aborting the campaign.
        _ => "gpx.other".into(),
    }
}

/// The survived-to-ingestion half of the class lattice.
fn disposition_class(d: &Disposition) -> String {
    match d {
        Disposition::Clean => "ok.clean".into(),
        Disposition::Repaired(_) => "ok.repaired".into(),
        Disposition::Quarantined(reason) => format!("quarantine.{}", reason.name()),
    }
}

/// Classifies one document by driving it through the DOM builder
/// (`Gpx::parse_bytes`) and, when it parses, ingesting the tree. The
/// class name is the histogram key.
pub fn classify(doc: &[u8]) -> String {
    match Gpx::parse_bytes(doc) {
        Err(e) => gpx_error_class(&e),
        Ok(gpx) => {
            let (disposition, _) = StreamingIngest::default().ingest_source(&Payload::Parsed(gpx));
            disposition_class(&disposition)
        }
    }
}

/// Classifies one document through the zero-copy streaming pipeline
/// ([`StreamingIngest::try_ingest_bytes`]) — no DOM is ever built. For
/// every input this must produce the same class as [`classify`]; the
/// stream-parity campaign asserts exactly that.
pub fn classify_stream(doc: &[u8]) -> String {
    match StreamingIngest::default().try_ingest_bytes(doc) {
        Err(e) => gpx_error_class(&e),
        Ok((disposition, _)) => disposition_class(&disposition),
    }
}

/// Runs the GPX campaign: mutate → classify in parallel batches
/// through `try_map`, recording the error-class histogram and any
/// panic that escapes the isolation boundary.
pub fn run_campaign(cfg: &FuzzConfig, executor: &exec::Executor) -> FuzzReport {
    run_campaign_with(cfg, executor, |i| classify(&mutate(cfg.seed, i)))
}

/// Runs the HTTP framing campaign against the inference server's
/// request parser, with the same batching and panic isolation as the
/// GPX campaign.
pub fn run_http_campaign(cfg: &FuzzConfig, executor: &exec::Executor) -> FuzzReport {
    run_campaign_with(cfg, executor, |i| classify_http(&mutate_http(cfg.seed, i)))
}

/// Runs the stream-parity campaign: every GPX mutant is classified by
/// both the DOM pipeline ([`classify`]) and the streaming pipeline
/// ([`classify_stream`]). Agreement yields the shared class; any
/// disagreement lands in a `diverged.<dom>!=<stream>` bucket — a
/// campaign is only healthy when no such key exists.
pub fn run_stream_parity_campaign(cfg: &FuzzConfig, executor: &exec::Executor) -> FuzzReport {
    run_campaign_with(cfg, executor, |i| {
        let doc = mutate(cfg.seed, i);
        let dom = classify(&doc);
        let stream = classify_stream(&doc);
        if dom == stream {
            dom
        } else {
            format!("diverged.{dom}!={stream}")
        }
    })
}

/// The shared campaign loop: one class per iteration through
/// `try_map`'s panic boundary, batched so the histogram merge stays on
/// the driver thread.
fn run_campaign_with(
    cfg: &FuzzConfig,
    executor: &exec::Executor,
    class_of: impl Fn(u64) -> String + Sync,
) -> FuzzReport {
    const BATCH: u64 = 512;
    let mut histogram: BTreeMap<String, u64> = BTreeMap::new();
    let mut panics = Vec::new();
    let mut iter = 0u64;
    while iter < cfg.iterations {
        let batch: Vec<u64> = (iter..(iter + BATCH).min(cfg.iterations)).collect();
        let results = executor.try_map(&batch, |_, &i| class_of(i));
        for (offset, r) in results.into_iter().enumerate() {
            match r {
                Ok(class) => *histogram.entry(class).or_insert(0) += 1,
                Err(_) => panics.push(batch[offset]),
            }
        }
        iter += BATCH;
    }
    FuzzReport { iterations: cfg.iterations, histogram, panics }
}

/// The realistic seed request the HTTP campaign mutates: a well-formed
/// keep-alive `POST /v1/report` carrying a short GPX body — exactly
/// what the load generator sends, so the unmutated request classifies
/// as `ok.post`.
pub fn http_seed_request() -> Vec<u8> {
    let body = b"<?xml version=\"1.0\"?><gpx creator=\"fuzz\"><trk><trkseg>\
                 <trkpt lat=\"38.0\" lon=\"-77.0\"><ele>12.5</ele></trkpt>\
                 </trkseg></trk></gpx>";
    let mut req = format!(
        "POST /v1/report HTTP/1.1\r\n\
         Host: localhost\r\n\
         User-Agent: conformance-fuzz\r\n\
         Accept: application/json\r\n\
         Connection: keep-alive\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body);
    req
}

/// Steering tokens for the HTTP campaign — request-line fragments,
/// header anatomy, and framing delimiters, so mutants explore the
/// parser's error lattice instead of dying uniformly at the request
/// line.
const HTTP_TOKENS: &[&[u8]] = &[
    b"GET ",
    b"POST ",
    b"get ",
    b" HTTP/1.1",
    b" HTTP/1.0",
    b" HTTP/2.0",
    b"\r\n",
    b"\r\n\r\n",
    b"\n\n",
    b": ",
    b":",
    b"Content-Length: ",
    b"Content-Length: 0\r\n",
    b"Content-Length: 99999999999999999999\r\n",
    b"Connection: close\r\n",
    b"Transfer-Encoding: chunked\r\n",
    b"H@st: x\r\n",
    b"/v1/report",
    b"/heal thz",
    b" ",
    b"\x00",
    b"\xff\xfe",
];

/// Deterministically mutates the seed request for one iteration of the
/// HTTP campaign — the same stacked operators as [`mutate`], splicing
/// from `HTTP_TOKENS`.
pub fn mutate_http(seed: u64, iter: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(exec::mix_seed(seed, iter));
    let mut doc = http_seed_request();
    apply_ops(&mut doc, &mut rng, HTTP_TOKENS);
    doc
}

/// Classifies one byte buffer through the server's request parser.
/// Accepted requests bucket by method (bounded — arbitrary mutated
/// methods collapse into `ok.other` so the class count stays a
/// meaningful coverage proxy); rejections key on the parser's stable
/// error names.
pub fn classify_http(doc: &[u8]) -> String {
    match serve::http::parse_request(doc) {
        Ok((head, _)) => match head.method.as_str() {
            "GET" => "ok.get".into(),
            "POST" => "ok.post".into(),
            _ => "ok.other".into(),
        },
        Err(e) => format!("http.{}", e.name()),
    }
}

// ---- connection-fault chaos campaign -----------------------------------

/// The connection-fault plan the chaos campaign runs: three quarters
/// of connections faulted, every kind enabled, stalls capped far
/// below the server's deadlines so fault outcomes stay deterministic.
pub fn connfault_plan(seed: u64) -> NetFaultPlan {
    NetFaultPlan {
        seed,
        rate: 0.75,
        kinds: NetFaultKind::ALL.to_vec(),
        max_delay_micros: 300,
    }
}

/// The request every chaos connection carries: a well-formed
/// single-shot `POST /v1/report` with the clean 30-point
/// [`seed_doc`] body (so a fully delivered request must yield the
/// offline `200` report byte-for-byte).
pub fn connfault_request() -> Vec<u8> {
    let body = seed_doc();
    let mut req = format!(
        "POST /v1/report HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(&body);
    req
}

/// The pure outcome prediction for one scripted connection — computed
/// from the script alone, before any socket exists. The campaign's
/// health criterion is that the live server's observed behaviour
/// matches this for every mutant.
pub fn connfault_class(script: &ConnScript, head_len: usize) -> &'static str {
    match (script.cut, script.teardown) {
        (None, _) => "ok.delivered",
        (Some(0), Teardown::Fin) => "cut.head.silent",
        (Some(at), Teardown::Fin) if at < head_len => "cut.head.400",
        (Some(_), Teardown::Fin) => "cut.body.400",
        (Some(_), Teardown::Reset) => "reset.body",
    }
}

/// Drives one scripted connection against the live server and names
/// what actually happened on the wire.
fn observe_connfault(
    addr: SocketAddr,
    script: ConnScript,
    request: &[u8],
    head_len: usize,
    expected: &(u16, String),
) -> String {
    let err_class = |what: &str, e: &std::io::Error| format!("{what}.{:?}", e.kind());
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => return err_class("connect_error", &e),
    };
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(std::time::Duration::from_secs(10)));
    let teardown = script.teardown;
    let mut conn = FlakyConn::new(stream, script);
    let outcome = match conn.send(request, head_len) {
        Ok(outcome) => outcome,
        Err(e) => return err_class("send_error", &e),
    };
    match (outcome, teardown) {
        (SendOutcome::Cut { .. }, Teardown::Reset) => {
            // Abortive drop: no half-close, no read. Any byte the
            // server sends afterwards is answered by the dead socket
            // with an RST — the closest stable std gets to
            // `SO_LINGER 0`. The outcome is unobservable from this
            // side, so the class is the script's by construction; the
            // campaign's reset assertions live in the server's health
            // counters (zero panics, zero leaked workers).
            drop(conn);
            "reset.body".into()
        }
        (SendOutcome::Cut { .. }, Teardown::Fin) => {
            // Half-close so the server reads EOF, then collect its
            // verdict (if any).
            let _ = conn.get_ref().shutdown(std::net::Shutdown::Write);
            let bytes = match conn.recv_to_end() {
                Ok(b) => b,
                Err(e) => return err_class("recv_error", &e),
            };
            if bytes.is_empty() {
                "cut.head.silent".into()
            } else if bytes.starts_with(b"HTTP/1.1 400 ") {
                let text = String::from_utf8_lossy(&bytes);
                if text.contains("missing_terminator") {
                    "cut.head.400".into()
                } else if text.contains("bad_content_length") {
                    "cut.body.400".into()
                } else {
                    format!("cut.unexpected_400:{text}")
                }
            } else {
                format!("cut.unexpected:{}", String::from_utf8_lossy(&bytes[..bytes.len().min(32)]))
            }
        }
        (SendOutcome::Delivered, _) => {
            let bytes = match conn.recv_to_end() {
                Ok(b) => b,
                Err(e) => return err_class("recv_error", &e),
            };
            let text = String::from_utf8_lossy(&bytes);
            let status_line = format!("HTTP/1.1 {} ", expected.0);
            if text.starts_with(&status_line) && text.ends_with(expected.1.as_str()) {
                "ok.delivered".into()
            } else {
                format!("ok.unexpected:{}", &text[..text.len().min(48)])
            }
        }
    }
}

/// Runs the connection-fault chaos campaign against a **live** server
/// at `addr`: every iteration scripts one [`FlakyConn`] from the
/// seed-indexed plan, drives a real TCP connection through it, and
/// buckets `predicted == observed` agreement under the predicted
/// class — any disagreement lands in a `diverged.<pred>!=<obs>` key,
/// and a healthy campaign has none.
///
/// `expected` is the offline `(status, body)` for
/// [`connfault_request`]'s GPX payload; `client_threads` shards
/// iterations round-robin (the histogram must not depend on it).
pub fn run_connfault_campaign(
    cfg: &FuzzConfig,
    addr: SocketAddr,
    expected: &(u16, String),
    client_threads: usize,
) -> FuzzReport {
    let plan = connfault_plan(cfg.seed);
    let request = connfault_request();
    let head_len = serve::http::find_head_end(&request).expect("request has a head");
    let threads = client_threads.max(1);
    let mut shards: Vec<(BTreeMap<String, u64>, Vec<u64>)> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let plan = &plan;
                let request = &request;
                scope.spawn(move || {
                    let mut histogram: BTreeMap<String, u64> = BTreeMap::new();
                    let mut panics = Vec::new();
                    let mut i = t as u64;
                    while i < cfg.iterations {
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                let script = plan.script(i, head_len, request.len());
                                let predicted = connfault_class(&script, head_len);
                                let observed =
                                    observe_connfault(addr, script, request, head_len, expected);
                                if observed == predicted {
                                    predicted.to_owned()
                                } else {
                                    format!("diverged.{predicted}!={observed}")
                                }
                            }));
                        match outcome {
                            Ok(class) => *histogram.entry(class).or_insert(0) += 1,
                            Err(_) => panics.push(i),
                        }
                        i += threads as u64;
                    }
                    (histogram, panics)
                })
            })
            .collect();
        for h in handles {
            shards.push(h.join().expect("chaos shard thread"));
        }
    });
    let mut histogram: BTreeMap<String, u64> = BTreeMap::new();
    let mut panics = Vec::new();
    for (shard_hist, shard_panics) in shards {
        for (class, count) in shard_hist {
            *histogram.entry(class).or_insert(0) += count;
        }
        panics.extend(shard_panics);
    }
    panics.sort_unstable();
    FuzzReport { iterations: cfg.iterations, histogram, panics }
}

/// Minimizes a failing document while preserving its error class:
/// greedy chunked deletion (ddmin-lite) at halving granularity down to
/// single bytes. Deterministic — no RNG involved.
pub fn minimize(doc: &[u8], target_class: &str) -> Vec<u8> {
    let mut best = doc.to_vec();
    let mut chunk = (best.len() / 2).max(1);
    loop {
        let mut progressed = false;
        let mut start = 0;
        while start < best.len() {
            let end = (start + chunk).min(best.len());
            let mut candidate = Vec::with_capacity(best.len() - (end - start));
            candidate.extend_from_slice(&best[..start]);
            candidate.extend_from_slice(&best[end..]);
            if !candidate.is_empty() && classify(&candidate) == target_class {
                best = candidate;
                progressed = true;
                // Re-test the same offset: the next chunk slid into it.
            } else {
                start = end;
            }
        }
        if chunk == 1 && !progressed {
            return best;
        }
        if !progressed {
            chunk = (chunk / 2).max(1);
        }
    }
}

/// Finds the first iteration producing each requested error class and
/// returns its minimized document. Used to regenerate the committed
/// corpus fixtures.
pub fn minimized_exemplars(
    cfg: &FuzzConfig,
    classes: &[&str],
) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for iter in 0..cfg.iterations {
        if out.len() == classes.len() {
            break;
        }
        let doc = mutate(cfg.seed, iter);
        let class = classify(&doc);
        if classes.contains(&class.as_str()) && !out.contains_key(&class) {
            let min = minimize(&doc, &class);
            out.insert(class, min);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_doc_is_clean() {
        assert_eq!(classify(&seed_doc()), "ok.clean");
        assert_eq!(classify_stream(&seed_doc()), "ok.clean");
    }

    #[test]
    fn mutation_is_deterministic() {
        for i in [0, 1, 77, 4096] {
            assert_eq!(mutate(9, i), mutate(9, i));
        }
        assert_ne!(mutate(9, 0), mutate(9, 1));
    }

    #[test]
    fn http_seed_request_is_a_clean_post() {
        assert_eq!(classify_http(&http_seed_request()), "ok.post");
    }

    #[test]
    fn http_mutation_is_deterministic() {
        for i in [0, 1, 77, 4096] {
            assert_eq!(mutate_http(9, i), mutate_http(9, i));
        }
        assert_ne!(mutate_http(9, 0), mutate_http(9, 1));
    }

    #[test]
    fn http_classes_are_bounded_for_accepted_requests() {
        assert_eq!(classify_http(b"GET / HTTP/1.1\r\n\r\n"), "ok.get");
        assert_eq!(classify_http(b"DELETE / HTTP/1.1\r\n\r\n"), "ok.other");
        assert_eq!(classify_http(b"GET / HTTP/2.0\r\n\r\n"), "http.bad_version");
        assert_eq!(classify_http(b""), "http.empty");
    }

    #[test]
    fn minimize_preserves_class() {
        // A document with a stray unknown entity somewhere in the middle.
        let doc = String::from_utf8(seed_doc()).unwrap().replace("&amp;", "&bogus;");
        let class = classify(doc.as_bytes());
        assert_eq!(class, "xml.entity");
        let min = minimize(doc.as_bytes(), &class);
        assert_eq!(classify(&min), class);
        assert!(min.len() <= doc.len());
    }
}
