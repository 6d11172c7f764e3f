//! Conformance subsystem: the repo's correctness gate.
//!
//! Three pillars, exercised through `cargo test -p conformance` (which
//! `scripts/verify.sh` and CI call):
//!
//! 1. **Golden-artifact registry** ([`registry`], [`stages`]) — pinned
//!    content digests for every stage of the attack pipeline, from
//!    synthetic track generation to per-model metric tables. A hot-path
//!    rewrite that changes any stage's bits fails with a structured
//!    per-stage diff; intentional changes regenerate the pins with
//!    `UPDATE_GOLDENS=1`.
//! 2. **Metamorphic invariant suite** ([`invariants`]) — relations that
//!    must hold under transformed inputs (rigid motion, elevation
//!    offsets, label permutations, thread counts, sparse-vs-dense
//!    representations), unified behind one [`invariants::Invariant`]
//!    trait.
//! 3. **Deterministic fuzz driver** ([`fuzz`]) — seed-indexed GPX
//!    mutation with an error-class histogram as the coverage proxy and
//!    a ddmin-style minimizer feeding the committed corpus in
//!    `crates/gpxfile/tests/corpus/`.
//!
//! Everything is a pure function of the seed: no wall-clock, no
//! external processes, no network. See EXPERIMENTS.md, "Testing &
//! Conformance".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fuzz;
pub mod invariants;
pub mod registry;
pub mod stages;

pub use durable::Digest;
pub use fuzz::{run_campaign, seed_doc, FuzzConfig, FuzzReport};
pub use invariants::{all_invariants, run_all, Invariant, InvariantCtx};
pub use registry::{check_or_update, goldens_path};
pub use stages::{compute_stages, StageArtifact, STAGE_NAMES};
