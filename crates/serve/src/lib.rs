//! Attack-as-a-service: the serving layer over the offline pipeline.
//!
//! The paper's threat models are evaluated offline; the ROADMAP north
//! star is a long-running service that accepts GPX uploads and returns
//! a per-track location-leakage report. This crate is that service,
//! built with the workspace's offline-shim discipline — no tokio, no
//! hyper, no external HTTP stack:
//!
//! - [`http`]: a pure, panic-free HTTP/1.1 request parser (also the
//!   conformance fuzz driver's target),
//! - [`registry`]: the versioned `.elevmdl` model registry —
//!   length-prefixed, checksummed binary weight files plus a manifest,
//!   with load-on-start and poll-mtime hot reload,
//! - [`bundle`]: the TM-1/TM-3 model bundle (SVM + random forest +
//!   MLP per task, sharing one fitted text pipeline) and the pure
//!   request → [`elev_core::report::LeakageReport`] function both the
//!   server and the offline path call,
//! - [`arena`]: per-worker inference arenas — the serving counterpart
//!   of `neuralnet::TrainArena` — so the steady-state classify path
//!   performs zero heap allocations,
//! - [`server`]: the blocking-accept + worker-pool server,
//! - [`client`]: the minimal in-tree HTTP client the test harness,
//!   smoke tier, and load generator drive the server with.
//!
//! Every response is a deterministic function of the request bytes and
//! the loaded model bundle: reports are byte-identical across worker
//! counts, `ELEV_THREADS` settings, and the online/offline boundary —
//! pinned by `crates/serve/tests/` and the conformance suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod bundle;
pub mod client;
pub mod http;
pub mod registry;
pub mod server;

pub use arena::InferenceArena;
pub use bundle::{BundleConfig, ModelBundle, TaskModels};
pub use client::{ClientConfig, HttpClient};
pub use registry::{GenerationLoad, ModelKind, ModelRecord};
pub use server::{ConnError, HealthSnapshot, ServeConfig, Server};
