//! The blocking-accept + worker-pool HTTP server.
//!
//! No async runtime: one acceptor thread pushes connections onto a
//! condvar-guarded queue; `ELEV_SERVE_WORKERS` worker threads pop and
//! speak HTTP/1.1 (keep-alive, pipelining via leftover-buffer carry).
//! Each worker owns one [`InferenceArena`], so the steady-state
//! classify path allocates nothing and workers never contend on
//! scratch space.
//!
//! The loaded [`ModelBundle`] sits behind an `RwLock<Arc<_>>`: request
//! handlers clone the `Arc` (cheap, wait-free in the common case) and
//! the optional hot-reload thread swaps a new bundle in when the
//! registry manifest's bytes or mtime change — in-flight requests
//! finish on the bundle they started with.
//!
//! # Overload safety
//!
//! The server assumes clients are adversarial at the transport layer
//! (slowloris drip, half-open stalls, mid-body resets — exactly the
//! faults `faultsim::netfault` injects) and defends in depth:
//!
//! - **Deadlines**: every connection reads in short slices under a
//!   header deadline and a total per-request budget
//!   (`ELEV_SERVE_DEADLINE_MS`); a blown deadline answers `408` with a
//!   distinct error body. Writes carry the remaining budget as a write
//!   timeout, so a non-reading peer surfaces as a typed
//!   [`ConnError::WriteTimeout`] instead of wedging a worker.
//! - **Load shedding**: the admission queue is bounded
//!   (`ELEV_SERVE_QUEUE_DEPTH`); past it the acceptor answers `503` +
//!   `Retry-After: 1` and drops the connection. Optional per-IP-slot
//!   caps (`ELEV_SERVE_IP_CAP`) shed greedy sources the same way.
//!   Every shed is counted and surfaced by `GET /v1/health`.
//! - **Supervision**: a handler panic is caught per connection (the
//!   worker rebuilds its arena and keeps serving); a worker thread
//!   that dies anyway is respawned by a supervisor without dropping
//!   the listener.
//! - **Graceful drain**: [`Server::drain`] stops admitting, lets
//!   in-flight requests finish (responses gain `Connection: close`),
//!   and [`Server::shutdown`] joins everything.
//!
//! Routes:
//!
//! | method + target      | response                                   |
//! |----------------------|--------------------------------------------|
//! | `GET /healthz`       | `200` liveness JSON                        |
//! | `GET /v1/health`     | `200` overload/fault counters JSON         |
//! | `GET /v1/models`     | `200` bundle version + model listing       |
//! | `POST /v1/report`    | `200` leakage report / `422` quarantined   |
//! | anything else        | `404` / `405` / `400` / `408` / `413`      |

use crate::arena::InferenceArena;
use crate::bundle::ModelBundle;
use crate::http::{self, Head, MAX_HEAD_BYTES};
use crate::registry;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest request body the server will accept (a GPX upload).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Read-slice granularity: every blocking read wakes at least this
/// often to check deadlines, drain, and stop flags.
const READ_SLICE: Duration = Duration::from_millis(50);

/// Number of per-IP accounting slots (peer IPs hash into these).
const IP_SLOTS: usize = 64;

/// Consecutive bad reload attempts before the hot-reload circuit
/// breaker opens (polling then slows by [`BREAKER_BACKOFF`]x).
const BREAKER_THRESHOLD: u32 = 3;

/// Poll-interval multiplier while the reload breaker is open.
const BREAKER_BACKOFF: u32 = 8;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Port to bind on 127.0.0.1 (0 = ephemeral, read back via
    /// [`Server::addr`]).
    pub port: u16,
    /// Worker-pool size.
    pub workers: usize,
    /// Registry directory to hot-reload from (manifest polled);
    /// `None` disables reloading.
    pub model_dir: Option<PathBuf>,
    /// Manifest poll interval.
    pub reload_poll: Duration,
    /// Total per-request time budget, first byte to last response
    /// byte (`ELEV_SERVE_DEADLINE_MS`, default 5000).
    pub request_deadline: Duration,
    /// Budget for receiving a complete head (slowloris guard);
    /// derived as `min(2 s, request_deadline)` by [`Self::from_env`].
    pub header_deadline: Duration,
    /// How long a keep-alive connection may sit idle between
    /// requests before the server closes it.
    pub idle_timeout: Duration,
    /// Admission-queue bound: connections beyond it are shed with
    /// `503` + `Retry-After` (`ELEV_SERVE_QUEUE_DEPTH`, default 64).
    pub queue_depth: usize,
    /// Max concurrent connections per IP slot; 0 disables the cap
    /// (`ELEV_SERVE_IP_CAP`, default 0).
    pub ip_slot_cap: usize,
    /// Enables the `POST /v1/debug/{panic,die}` fault-injection
    /// routes — the test-only hook the chaos/supervision suites use.
    /// Never set outside tests.
    pub debug_routes: bool,
}

impl ServeConfig {
    /// Ephemeral port, knobs from the environment
    /// (`ELEV_SERVE_WORKERS`/`ELEV_SERVE_DEADLINE_MS`/
    /// `ELEV_SERVE_QUEUE_DEPTH`/`ELEV_SERVE_IP_CAP`), no hot reload,
    /// no debug routes.
    pub fn from_env() -> Self {
        let deadline =
            Duration::from_millis(exec::env_budget("ELEV_SERVE_DEADLINE_MS", || 5000) as u64);
        Self {
            port: 0,
            workers: exec::env_budget("ELEV_SERVE_WORKERS", || 4),
            model_dir: None,
            reload_poll: Duration::from_millis(200),
            request_deadline: deadline,
            header_deadline: deadline.min(Duration::from_secs(2)),
            idle_timeout: Duration::from_secs(5),
            queue_depth: exec::env_budget("ELEV_SERVE_QUEUE_DEPTH", || 64),
            ip_slot_cap: exec::env_budget("ELEV_SERVE_IP_CAP", || 0),
            debug_routes: false,
        }
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Typed connection-write failure: a stalled reader (the peer's
/// receive window filled and stayed full past the deadline) is a
/// different animal from a vanished peer, and the health counters
/// keep them apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnError {
    /// The write timed out — the peer exists but is not reading.
    WriteTimeout,
    /// Any other I/O failure (reset, broken pipe, ...).
    Io,
}

impl ConnError {
    /// Classifies an I/O error from a deadline-carrying stream.
    pub fn from_io(e: &std::io::Error) -> Self {
        if is_timeout(e) {
            ConnError::WriteTimeout
        } else {
            ConnError::Io
        }
    }

    /// Stable lowercase name (health counters, logs).
    pub fn name(self) -> &'static str {
        match self {
            ConnError::WriteTimeout => "write_timeout",
            ConnError::Io => "io",
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock)
}

/// Monotonic overload/fault counters (all relaxed atomics; exactness
/// under concurrency matters, ordering between counters does not).
#[derive(Default)]
struct Stats {
    accepted: AtomicU64,
    completed: AtomicU64,
    active: AtomicU64,
    shed_queue: AtomicU64,
    shed_ip_cap: AtomicU64,
    header_timeouts: AtomicU64,
    request_timeouts: AtomicU64,
    write_timeouts: AtomicU64,
    io_errors: AtomicU64,
    worker_panics: AtomicU64,
    workers_restarted: AtomicU64,
    reload_successes: AtomicU64,
    reload_failures: AtomicU64,
    reload_fallbacks: AtomicU64,
    breaker_open: AtomicBool,
    generation: AtomicU64,
}

/// A point-in-time copy of the server's health counters — what
/// `GET /v1/health` serializes and tests assert on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Connections admitted past the shed checks.
    pub accepted: u64,
    /// Requests fully responded to (any status).
    pub completed: u64,
    /// Connections currently queued or in a worker.
    pub active: u64,
    /// Connections shed because the admission queue was full (or the
    /// server was draining).
    pub shed_queue: u64,
    /// Connections shed by the per-IP-slot cap.
    pub shed_ip_cap: u64,
    /// Requests answered `408` before a complete head arrived.
    pub header_timeouts: u64,
    /// Requests answered `408` after the total budget elapsed.
    pub request_timeouts: u64,
    /// Response writes abandoned on a stalled reader.
    pub write_timeouts: u64,
    /// Connections dropped on other I/O errors.
    pub io_errors: u64,
    /// Handler panics caught (worker survived).
    pub worker_panics: u64,
    /// Worker threads respawned by the supervisor.
    pub workers_restarted: u64,
    /// Hot reloads that swapped a new bundle in.
    pub reload_successes: u64,
    /// Hot reloads that failed outright (bundle kept).
    pub reload_failures: u64,
    /// Hot reloads that found a torn generation and kept serving the
    /// last-good one.
    pub reload_fallbacks: u64,
    /// Whether the reload circuit breaker is open.
    pub breaker_open: bool,
    /// Registry generation of the served bundle (0 = not loaded from a
    /// registry).
    pub generation: u64,
    /// Whether the server is draining.
    pub draining: bool,
}

impl HealthSnapshot {
    /// Total connections shed, whatever the reason.
    pub fn shed(&self) -> u64 {
        self.shed_queue + self.shed_ip_cap
    }

    /// Deterministic JSON rendering (fixed key order, no floats).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"status\": \"ok\", \"accepted\": {}, \"completed\": {}, \"active\": {}, \
             \"shed_queue\": {}, \"shed_ip_cap\": {}, \"header_timeouts\": {}, \
             \"request_timeouts\": {}, \"write_timeouts\": {}, \"io_errors\": {}, \
             \"worker_panics\": {}, \"workers_restarted\": {}, \"reload_successes\": {}, \
             \"reload_failures\": {}, \"reload_fallbacks\": {}, \"breaker_open\": {}, \
             \"generation\": {}, \"draining\": {}}}",
            self.accepted,
            self.completed,
            self.active,
            self.shed_queue,
            self.shed_ip_cap,
            self.header_timeouts,
            self.request_timeouts,
            self.write_timeouts,
            self.io_errors,
            self.worker_panics,
            self.workers_restarted,
            self.reload_successes,
            self.reload_failures,
            self.reload_fallbacks,
            self.breaker_open,
            self.generation,
            self.draining,
        )
    }
}

/// One admitted connection plus the IP slot it charges.
struct Conn {
    stream: TcpStream,
    slot: usize,
}

/// State shared between the acceptor, the workers, the supervisor,
/// and the reloader.
struct Shared {
    queue: Mutex<VecDeque<Conn>>,
    cv: Condvar,
    stop: AtomicBool,
    draining: AtomicBool,
    bundle: RwLock<Arc<ModelBundle>>,
    stats: Stats,
    ip_slots: [AtomicU32; IP_SLOTS],
    cfg: ServeConfig,
}

impl Shared {
    fn bundle(&self) -> Arc<ModelBundle> {
        Arc::clone(&self.bundle.read().unwrap_or_else(PoisonError::into_inner))
    }

    fn health(&self) -> HealthSnapshot {
        let s = &self.stats;
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        HealthSnapshot {
            accepted: c(&s.accepted),
            completed: c(&s.completed),
            active: c(&s.active),
            shed_queue: c(&s.shed_queue),
            shed_ip_cap: c(&s.shed_ip_cap),
            header_timeouts: c(&s.header_timeouts),
            request_timeouts: c(&s.request_timeouts),
            write_timeouts: c(&s.write_timeouts),
            io_errors: c(&s.io_errors),
            worker_panics: c(&s.worker_panics),
            workers_restarted: c(&s.workers_restarted),
            reload_successes: c(&s.reload_successes),
            reload_failures: c(&s.reload_failures),
            reload_fallbacks: c(&s.reload_fallbacks),
            breaker_open: s.breaker_open.load(Ordering::Relaxed),
            generation: c(&s.generation),
            draining: self.draining.load(Ordering::SeqCst),
        }
    }
}

/// A running server; dropping it shuts the pool down cleanly.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    reloader: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the pool, and returns once the socket is live.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the listener.
    pub fn start(bundle: ModelBundle, cfg: &ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            bundle: RwLock::new(Arc::new(bundle)),
            stats: Stats::default(),
            ip_slots: std::array::from_fn(|_| AtomicU32::new(0)),
            cfg: cfg.clone(),
        });
        shared.stats.generation.store(shared.bundle().generation, Ordering::Relaxed);

        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&listener, &shared))
        };
        let handles: Vec<JoinHandle<()>> =
            (0..cfg.workers.max(1)).map(|_| spawn_worker(&shared)).collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || supervise(&shared, handles))
        };
        let reloader = cfg.model_dir.clone().map(|dir| {
            let shared = Arc::clone(&shared);
            let poll = cfg.reload_poll;
            // Read before `start` returns: a publish made after it must
            // count as a change, however late the thread first runs.
            let last = registry::manifest_stamp(&dir);
            std::thread::spawn(move || reload_loop(&dir, poll, last, &shared))
        });

        Ok(Self { addr, shared, acceptor: Some(acceptor), supervisor: Some(supervisor), reloader })
    }

    /// The bound address (`127.0.0.1:<port>`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the overload/fault counters (the
    /// programmatic twin of `GET /v1/health`).
    pub fn health(&self) -> HealthSnapshot {
        self.shared.health()
    }

    /// Stops admitting new connections and lets in-flight requests
    /// finish; subsequent responses carry `Connection: close`.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
    }

    /// Drains, stops accepting, finishes queued and in-flight
    /// requests, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The acceptor sits in a blocking accept; a throwaway local
        // connection wakes it so it can observe the stop flag.
        let _ = TcpStream::connect(self.addr);
        self.shared.cv.notify_all();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        self.shared.cv.notify_all();
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.reloader.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Hashes a peer IP into its accounting slot.
fn ip_slot(stream: &TcpStream) -> usize {
    let h = match stream.peer_addr().map(|a| a.ip()) {
        Ok(std::net::IpAddr::V4(ip)) => durable::fnv1a64(&ip.octets()),
        Ok(std::net::IpAddr::V6(ip)) => durable::fnv1a64(&ip.octets()),
        Err(_) => durable::FNV1A64_INIT,
    };
    (h % IP_SLOTS as u64) as usize
}

/// Answers `503` + `Retry-After` on a connection being shed and drops
/// it. The body is a handful of bytes (always fits the socket buffer)
/// and the stream carries a short write timeout, so a non-reading
/// peer cannot wedge the acceptor.
fn shed(mut stream: TcpStream, why: &str) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let body = format!("{{\"error\": \"{why}\"}}");
    let _ = stream.write_all(&http::render_response_with(
        503,
        &body,
        &[("Retry-After", "1"), ("Connection", "close")],
    ));
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        if shared.draining.load(Ordering::SeqCst) {
            shared.stats.shed_queue.fetch_add(1, Ordering::Relaxed);
            shed(stream, "draining");
            continue;
        }
        let slot = ip_slot(&stream);
        let cap = shared.cfg.ip_slot_cap;
        if cap > 0 && shared.ip_slots[slot].load(Ordering::SeqCst) as usize >= cap {
            shared.stats.shed_ip_cap.fetch_add(1, Ordering::Relaxed);
            shed(stream, "ip_capped");
            continue;
        }
        // Depth check and push under one lock so the bound is exact.
        let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
        if queue.len() >= shared.cfg.queue_depth {
            drop(queue);
            shared.stats.shed_queue.fetch_add(1, Ordering::Relaxed);
            shed(stream, "overloaded");
            continue;
        }
        shared.ip_slots[slot].fetch_add(1, Ordering::SeqCst);
        shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
        shared.stats.active.fetch_add(1, Ordering::Relaxed);
        queue.push_back(Conn { stream, slot });
        drop(queue);
        shared.cv.notify_one();
    }
}

fn spawn_worker(shared: &Arc<Shared>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || worker_loop(&shared))
}

/// Respawns dead workers (a worker thread only dies via the
/// `/v1/debug/die` hook or a panic that escapes the per-connection
/// `catch_unwind`) without ever dropping the listener; joins the pool
/// at shutdown.
fn supervise(shared: &Arc<Shared>, mut handles: Vec<JoinHandle<()>>) {
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
        for h in handles.iter_mut() {
            if h.is_finished() && !shared.stop.load(Ordering::SeqCst) {
                let dead = std::mem::replace(h, spawn_worker(shared));
                let _ = dead.join();
                shared.stats.workers_restarted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    for h in handles {
        let _ = h.join();
    }
}

/// What a finished connection tells its worker.
enum ConnDone {
    /// Serve the next connection.
    Keep,
    /// Exit the worker thread (debug hook); the supervisor respawns.
    KillWorker,
}

fn worker_loop(shared: &Shared) {
    let mut arena = InferenceArena::new();
    shared.bundle().warm(&mut arena);
    loop {
        let conn = {
            let mut queue = shared.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(conn) = queue.pop_front() {
                    break conn;
                }
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.cv.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let slot = conn.slot;
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(conn.stream, shared, &mut arena)
        }));
        shared.ip_slots[slot].fetch_sub(1, Ordering::SeqCst);
        shared.stats.active.fetch_sub(1, Ordering::Relaxed);
        match verdict {
            Ok(ConnDone::Keep) => {}
            Ok(ConnDone::KillWorker) => return,
            Err(_) => {
                // The handler panicked mid-connection: count it, drop
                // the connection, rebuild the (possibly poisoned)
                // arena, and keep serving.
                shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                arena = InferenceArena::new();
                shared.bundle().warm(&mut arena);
            }
        }
    }
}

fn reload_loop(
    dir: &std::path::Path,
    poll: Duration,
    mut last: Option<(std::time::SystemTime, Vec<u8>)>,
    shared: &Shared,
) {
    let slice = Duration::from_millis(25).min(poll.max(Duration::from_millis(1)));
    let mut elapsed = Duration::ZERO;
    let mut consecutive_bad = 0u32;
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(slice);
        elapsed += slice;
        // An open breaker slows the poll: a corrupt publish gets
        // probed occasionally instead of hammered every interval.
        let effective = if shared.stats.breaker_open.load(Ordering::Relaxed) {
            poll * BREAKER_BACKOFF
        } else {
            poll
        };
        if elapsed < effective {
            continue;
        }
        elapsed = Duration::ZERO;
        let now = registry::manifest_stamp(dir);
        if now == last || now.is_none() {
            continue;
        }
        last = now;
        let mut bad = |counter: &AtomicU64| {
            counter.fetch_add(1, Ordering::Relaxed);
            consecutive_bad += 1;
            if consecutive_bad >= BREAKER_THRESHOLD {
                shared.stats.breaker_open.store(true, Ordering::Relaxed);
            }
        };
        // A half-written registry (or one that fails validation) keeps
        // the previous bundle serving; the swap is all-or-nothing.
        match registry::load_generation(dir) {
            Ok(load) if !load.fell_back => match ModelBundle::from_generation(load) {
                Ok(bundle) => {
                    let generation = bundle.generation;
                    *shared.bundle.write().unwrap_or_else(PoisonError::into_inner) =
                        Arc::new(bundle);
                    shared.stats.generation.store(generation, Ordering::Relaxed);
                    shared.stats.reload_successes.fetch_add(1, Ordering::Relaxed);
                    consecutive_bad = 0;
                    shared.stats.breaker_open.store(false, Ordering::Relaxed);
                }
                Err(_) => bad(&shared.stats.reload_failures),
            },
            // Torn publish: the loader fell back to the generation we
            // are already serving — keep the current bundle, count it.
            Ok(_) => bad(&shared.stats.reload_fallbacks),
            Err(_) => bad(&shared.stats.reload_failures),
        }
    }
}

/// Serves one connection: read a request under its deadlines,
/// respond, repeat while keep-alive holds. Any leftover bytes after a
/// request (pipelining) are carried into the next iteration.
fn handle_connection(
    mut stream: TcpStream,
    shared: &Shared,
    arena: &mut InferenceArena,
) -> ConnDone {
    let cfg = &shared.cfg;
    let stats = &shared.stats;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_SLICE));
    let _ = stream.set_write_timeout(Some(cfg.request_deadline));
    let mut buf: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    loop {
        // Idle phase: wait for the first byte of the next request
        // (pipelined leftovers skip it). Slice reads so stop/drain and
        // the idle timeout are observed promptly.
        let idle_start = Instant::now();
        while buf.is_empty() {
            match stream.read(&mut chunk) {
                Ok(0) => return ConnDone::Keep,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if is_timeout(&e) => {
                    if shared.stop.load(Ordering::SeqCst)
                        || shared.draining.load(Ordering::SeqCst)
                        || idle_start.elapsed() >= cfg.idle_timeout
                    {
                        return ConnDone::Keep;
                    }
                }
                Err(_) => {
                    stats.io_errors.fetch_add(1, Ordering::Relaxed);
                    return ConnDone::Keep;
                }
            }
        }
        // The request clock starts at its first byte.
        let clock = Instant::now();

        // Head phase: accumulate until the terminator, under the
        // header deadline (slowloris guard).
        let head_end = loop {
            if let Some(end) = http::find_head_end(&buf) {
                break end;
            }
            if buf.len() > MAX_HEAD_BYTES {
                respond_close(&mut stream, 400, "{\"error\": \"head_too_large\"}", stats);
                return ConnDone::Keep;
            }
            if clock.elapsed() >= cfg.header_deadline.min(cfg.request_deadline) {
                stats.header_timeouts.fetch_add(1, Ordering::Relaxed);
                respond_close(&mut stream, 408, "{\"error\": \"header_timeout\"}", stats);
                return ConnDone::Keep;
            }
            match stream.read(&mut chunk) {
                Ok(0) => {
                    respond_close(&mut stream, 400, "{\"error\": \"missing_terminator\"}", stats);
                    return ConnDone::Keep;
                }
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if is_timeout(&e) => {}
                Err(_) => {
                    stats.io_errors.fetch_add(1, Ordering::Relaxed);
                    return ConnDone::Keep;
                }
            }
        };

        let head = match http::parse_head(&buf[..head_end]) {
            Ok((head, _)) => head,
            Err(e) => {
                respond_close(&mut stream, 400, &format!("{{\"error\": \"{}\"}}", e.name()), stats);
                return ConnDone::Keep;
            }
        };
        if head.content_length > MAX_BODY_BYTES {
            respond_close(&mut stream, 413, "{\"error\": \"payload_too_large\"}", stats);
            return ConnDone::Keep;
        }

        // Body phase: accumulate the declared body under the total
        // request budget.
        let total = head_end + head.content_length;
        while buf.len() < total {
            if clock.elapsed() >= cfg.request_deadline {
                stats.request_timeouts.fetch_add(1, Ordering::Relaxed);
                respond_close(&mut stream, 408, "{\"error\": \"request_timeout\"}", stats);
                return ConnDone::Keep;
            }
            match stream.read(&mut chunk) {
                Ok(0) => {
                    respond_close(&mut stream, 400, "{\"error\": \"bad_content_length\"}", stats);
                    return ConnDone::Keep;
                }
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if is_timeout(&e) => {}
                Err(_) => {
                    stats.io_errors.fetch_add(1, Ordering::Relaxed);
                    return ConnDone::Keep;
                }
            }
        }

        let outcome = route(&head, &buf[head_end..total], shared, arena);
        let closing =
            shared.draining.load(Ordering::SeqCst) || shared.stop.load(Ordering::SeqCst);
        let response = if closing {
            http::render_response_with(outcome.status, &outcome.body, &[("Connection", "close")])
        } else {
            http::render_response(outcome.status, &outcome.body)
        };
        // The response write gets whatever budget the request has
        // left (floored so a served request always gets a beat).
        let budget = cfg
            .request_deadline
            .saturating_sub(clock.elapsed())
            .max(Duration::from_millis(50));
        let _ = stream.set_write_timeout(Some(budget));
        if let Err(e) = stream.write_all(&response) {
            match ConnError::from_io(&e) {
                ConnError::WriteTimeout => stats.write_timeouts.fetch_add(1, Ordering::Relaxed),
                ConnError::Io => stats.io_errors.fetch_add(1, Ordering::Relaxed),
            };
            return if outcome.die { ConnDone::KillWorker } else { ConnDone::Keep };
        }
        stats.completed.fetch_add(1, Ordering::Relaxed);
        if outcome.die {
            return ConnDone::KillWorker;
        }
        if !head.keep_alive || closing {
            return ConnDone::Keep;
        }
        buf.drain(..total);
    }
}

/// Writes a final error response (best effort, typed accounting) and
/// lets the connection close.
fn respond_close(stream: &mut TcpStream, status: u16, body: &str, stats: &Stats) {
    if let Err(e) = stream.write_all(&http::render_response(status, body)) {
        match ConnError::from_io(&e) {
            ConnError::WriteTimeout => stats.write_timeouts.fetch_add(1, Ordering::Relaxed),
            ConnError::Io => stats.io_errors.fetch_add(1, Ordering::Relaxed),
        };
    } else {
        stats.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// A routed response plus the debug kill-worker flag.
struct RouteOutcome {
    status: u16,
    body: String,
    die: bool,
}

fn route(head: &Head, body: &[u8], shared: &Shared, arena: &mut InferenceArena) -> RouteOutcome {
    let done = |status: u16, body: String| RouteOutcome { status, body, die: false };
    let bundle = shared.bundle();
    match (head.method.as_str(), head.target.as_str()) {
        ("GET", "/healthz") => done(200, "{\"status\": \"ok\"}".to_owned()),
        ("GET", "/v1/health") => done(200, shared.health().to_json()),
        ("GET", "/v1/models") => done(200, bundle.models_json()),
        ("POST", "/v1/report") => {
            let (status, body) = bundle.report_json(body, arena);
            done(status, body)
        }
        ("POST", "/v1/debug/panic") if shared.cfg.debug_routes => {
            panic!("debug route: injected handler panic")
        }
        ("POST", "/v1/debug/die") if shared.cfg.debug_routes => {
            RouteOutcome { status: 200, body: "{\"status\": \"dying\"}".to_owned(), die: true }
        }
        (_, "/healthz" | "/v1/health" | "/v1/models" | "/v1/report") => {
            done(405, "{\"error\": \"method_not_allowed\"}".to_owned())
        }
        _ => done(404, "{\"error\": \"not_found\"}".to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_error_classifies_timeout_kinds() {
        for kind in [std::io::ErrorKind::TimedOut, std::io::ErrorKind::WouldBlock] {
            let e = std::io::Error::new(kind, "stalled");
            assert_eq!(ConnError::from_io(&e), ConnError::WriteTimeout);
            assert_eq!(ConnError::from_io(&e).name(), "write_timeout");
        }
        let e = std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone");
        assert_eq!(ConnError::from_io(&e), ConnError::Io);
    }

    #[test]
    fn health_json_is_deterministic_and_complete() {
        let snap = HealthSnapshot {
            accepted: 3,
            completed: 2,
            active: 1,
            shed_queue: 4,
            shed_ip_cap: 5,
            header_timeouts: 6,
            request_timeouts: 7,
            write_timeouts: 8,
            io_errors: 9,
            worker_panics: 0,
            workers_restarted: 0,
            reload_successes: 1,
            reload_failures: 0,
            reload_fallbacks: 0,
            breaker_open: false,
            generation: 2,
            draining: true,
        };
        let json = snap.to_json();
        assert_eq!(json, snap.to_json());
        assert_eq!(snap.shed(), 9);
        for key in [
            "\"accepted\": 3",
            "\"shed_queue\": 4",
            "\"shed_ip_cap\": 5",
            "\"header_timeouts\": 6",
            "\"breaker_open\": false",
            "\"generation\": 2",
            "\"draining\": true",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn from_env_derives_header_deadline() {
        let cfg = ServeConfig::from_env();
        assert!(cfg.header_deadline <= cfg.request_deadline);
        assert!(cfg.header_deadline <= Duration::from_secs(2));
        assert!(!cfg.debug_routes);
    }
}
