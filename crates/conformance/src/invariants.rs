//! The metamorphic invariant suite.
//!
//! Each [`Invariant`] states a relation the attack pipeline must
//! satisfy under a *transformed* input — properties that hold without
//! knowing any expected output value, which is what makes them robust
//! to the hot-path rewrites the golden registry alone cannot certify
//! (a golden only says "something changed", an invariant says "this
//! relation broke"). The suite unifies the thread-count and
//! sparse-vs-dense checks that previously lived as scattered
//! per-crate tests behind one trait, so `scripts/verify.sh` and CI
//! run them all through `cargo test -p conformance`.

use elev_core::experiments::{balanced_top_classes, table4_tm1, Corpora};
use elev_core::ingest::{Disposition, StreamingIngest};
use elev_core::robustness::zero_rate_is_identity;
use elev_core::text::{evaluate_text, TextAttackConfig, TextModel};
use evalkit::ConfusionMatrix;
use faultsim::Payload;
use geoprim::LatLon;
use gpxfile::{Gpx, Track, TrackPoint, TrackSegment};
use routegen::{Activity, AthleteSimulator};
use sparsemat::CsrMatrix;
use terrain::{CityId, SyntheticTerrain};
use textrep::{Discretizer, FeatureSelection, TextPipeline};

use crate::stages::conformance_scale;

/// Shared fixtures the invariants run against, generated once.
pub struct InvariantCtx {
    /// Master seed.
    pub seed: u64,
    /// The tiny experiment corpora (same generation path as the
    /// experiment binaries).
    pub corpora: Corpora,
    /// A handful of synthetic activities with full trajectories.
    pub activities: Vec<Activity>,
}

impl InvariantCtx {
    /// Builds the shared fixtures from `seed`.
    pub fn new(seed: u64) -> Self {
        let corpora = Corpora::generate(seed, &conformance_scale());
        let mut activities = Vec::new();
        for (i, metro) in [CityId::Miami, CityId::ColoradoSprings].into_iter().enumerate() {
            let mut sim = AthleteSimulator::new(
                SyntheticTerrain::new(seed),
                exec::mix_seed(seed, 100 + i as u64),
            );
            activities.extend(sim.generate(metro, 3));
        }
        Self { seed, corpora, activities }
    }
}

/// One metamorphic relation over the pipeline.
pub trait Invariant {
    /// Stable kebab-case name.
    fn name(&self) -> &'static str;
    /// One-line statement of the relation.
    fn description(&self) -> &'static str;
    /// Checks the relation: `Ok(detail)` with what was verified, or
    /// `Err(violation)` describing exactly how it broke.
    fn check(&self, ctx: &InvariantCtx) -> Result<String, String>;
}

/// Outcome of one invariant run.
#[derive(Debug, Clone)]
pub struct InvariantOutcome {
    /// The invariant's name.
    pub name: &'static str,
    /// Whether the relation held.
    pub passed: bool,
    /// Verification detail or violation message.
    pub detail: String,
}

/// The full registered suite.
pub fn all_invariants() -> Vec<Box<dyn Invariant>> {
    vec![
        Box::new(RigidMotion),
        Box::new(OffsetShiftsBins),
        Box::new(LabelPermutation),
        Box::new(ThreadInvariance),
        Box::new(TrainShardInvariance),
        Box::new(SparseDenseAgreement),
        Box::new(IngestCleanIdentity),
        Box::new(DespikeOffsetEquivariance),
        Box::new(ServedEqualsOffline),
        Box::new(ShardRegeneration),
        Box::new(AnnExactAgreement),
    ]
}

/// Runs every invariant against a shared context.
pub fn run_all(ctx: &InvariantCtx) -> Vec<InvariantOutcome> {
    all_invariants()
        .iter()
        .map(|inv| match inv.check(ctx) {
            Ok(detail) => InvariantOutcome { name: inv.name(), passed: true, detail },
            Err(violation) => {
                InvariantOutcome { name: inv.name(), passed: false, detail: violation }
            }
        })
        .collect()
}

/// Renders outcomes for test logs; failures carry the full violation.
pub fn render_outcomes(outcomes: &[InvariantOutcome]) -> String {
    let mut out = String::new();
    for o in outcomes {
        out.push_str(&format!(
            "[{}] {} — {}\n",
            if o.passed { "ok" } else { "VIOLATED" },
            o.name,
            o.detail
        ));
    }
    out
}

// ---------------------------------------------------------------------
// 1. Horizontal rigid motion of a track leaves the adversary's
//    observation — the elevation profile — bit-identical, through both
//    the raw extraction and the full ingest pipeline.
// ---------------------------------------------------------------------

struct RigidMotion;

fn rigid_transform(gpx: &Gpx, angle_rad: f64, dlat: f64, dlon: f64) -> Gpx {
    let traj = gpx.trajectory();
    let n = traj.len().max(1) as f64;
    let (cy, cx) = traj
        .iter()
        .fold((0.0, 0.0), |(y, x), p| (y + p.lat / n, x + p.lon / n));
    let (sin, cos) = angle_rad.sin_cos();
    let mut moved = gpx.clone();
    for t in &mut moved.tracks {
        for s in &mut t.segments {
            for p in &mut s.points {
                let (y, x) = (p.coord.lat - cy, p.coord.lon - cx);
                p.coord = LatLon::new(
                    cy + cos * y - sin * x + dlat,
                    cx + sin * y + cos * x + dlon,
                );
            }
        }
    }
    moved
}

impl Invariant for RigidMotion {
    fn name(&self) -> &'static str {
        "profile-rigid-motion"
    }
    fn description(&self) -> &'static str {
        "translating/rotating a track's coordinates leaves its elevation profile bit-identical"
    }
    fn check(&self, ctx: &InvariantCtx) -> Result<String, String> {
        for (i, a) in ctx.activities.iter().enumerate() {
            let moved = rigid_transform(&a.gpx, 0.7, 0.5, -0.25);
            let p0 = a.gpx.elevation_profile();
            let p1 = moved.elevation_profile();
            if !bits_equal(&p0, &p1) {
                return Err(format!(
                    "activity {i}: raw elevation profile changed under rigid motion"
                ));
            }
            let mut ing = StreamingIngest::default();
            let (_, q0) = ing.ingest_source(&Payload::Parsed(a.gpx.clone()));
            let (_, q1) = ing.ingest_source(&Payload::Parsed(moved));
            match (q0, q1) {
                (Some(q0), Some(q1)) if bits_equal(&q0, &q1) => {}
                _ => {
                    return Err(format!(
                        "activity {i}: ingested profile changed under rigid motion"
                    ))
                }
            }
        }
        Ok(format!(
            "{} activities invariant under rotation 0.7 rad + translation (0.5, -0.25)",
            ctx.activities.len()
        ))
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

// ---------------------------------------------------------------------
// 2. A constant elevation offset shifts discretizer bins predictably:
//    exactly +k for Floor, +k·10³ (±1 bin of multiplication rounding)
//    for the fixed-precision mined discretizer.
// ---------------------------------------------------------------------

struct OffsetShiftsBins;

impl Invariant for OffsetShiftsBins {
    fn name(&self) -> &'static str {
        "offset-shifts-bins"
    }
    fn description(&self) -> &'static str {
        "a constant +k elevation offset shifts Floor bins by exactly k and mined bins by k*10^3 (±1)"
    }
    fn check(&self, ctx: &InvariantCtx) -> Result<String, String> {
        // 8.0 adds exactly in f64 for any elevation magnitude the
        // terrain produces, so the relation is not confounded by
        // addition rounding.
        const K: f64 = 8.0;
        let mut checked = 0usize;
        for a in &ctx.activities {
            for &e in &a.elevation_profile() {
                let floor = Discretizer::Floor;
                if floor.apply_one(e + K) != floor.apply_one(e) + K as i64 {
                    return Err(format!(
                        "Floor bin of {e} shifted by {} != {K} under +{K} offset",
                        floor.apply_one(e + K) - floor.apply_one(e)
                    ));
                }
                let mined = Discretizer::mined();
                let shift = mined.apply_one(e + K) - mined.apply_one(e);
                if (shift - 8000).abs() > 1 {
                    return Err(format!(
                        "mined bin of {e} shifted by {shift} != 8000 (±1) under +{K} offset"
                    ));
                }
                checked += 1;
            }
        }
        Ok(format!("{checked} elevation values shift predictably under +{K} m"))
    }
}

// ---------------------------------------------------------------------
// 3. Permuting class labels permutes the confusion matrix and leaves
//    every aggregate metric unchanged.
// ---------------------------------------------------------------------

struct LabelPermutation;

impl Invariant for LabelPermutation {
    fn name(&self) -> &'static str {
        "label-permutation"
    }
    fn description(&self) -> &'static str {
        "relabelling classes permutes confusion-matrix cells and preserves aggregate metrics"
    }
    fn check(&self, ctx: &InvariantCtx) -> Result<String, String> {
        // A real pooled matrix from the text attack, not a toy one.
        let ds = balanced_top_classes(&ctx.corpora.user, 3, ctx.seed);
        let cfg = TextAttackConfig {
            folds: 3,
            mlp_epochs: 10,
            seed: ctx.seed,
            ..Default::default()
        };
        let pooled = evaluate_text(&ds, Discretizer::Floor, TextModel::Svm, &cfg).pooled;
        let c = pooled.n_classes();
        let sigma: Vec<usize> = (0..c).map(|i| (i + 1) % c).collect();

        // Rebuild the permuted matrix through the public constructor.
        let mut truth = Vec::new();
        let mut pred = Vec::new();
        for t in 0..c {
            for p in 0..c {
                for _ in 0..pooled.count(t, p) {
                    truth.push(sigma[t] as u32);
                    pred.push(sigma[p] as u32);
                }
            }
        }
        let permuted = ConfusionMatrix::from_predictions(&truth, &pred, c);

        for t in 0..c {
            for p in 0..c {
                if permuted.count(sigma[t], sigma[p]) != pooled.count(t, p) {
                    return Err(format!(
                        "cell ({t},{p}) did not move to ({},{}) under permutation",
                        sigma[t], sigma[p]
                    ));
                }
            }
        }
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        if permuted.accuracy() != pooled.accuracy() {
            return Err("multiclass accuracy changed under label permutation".into());
        }
        for (name, a, b) in [
            ("ovr_accuracy", permuted.ovr_accuracy(), pooled.ovr_accuracy()),
            ("macro_precision", permuted.macro_precision(), pooled.macro_precision()),
            ("macro_recall", permuted.macro_recall(), pooled.macro_recall()),
            ("macro_f1", permuted.macro_f1(), pooled.macro_f1()),
            ("macro_specificity", permuted.macro_specificity(), pooled.macro_specificity()),
        ] {
            if !close(a, b) {
                return Err(format!("{name} changed under label permutation: {a} vs {b}"));
            }
        }
        Ok(format!(
            "pooled {c}x{c} SVM confusion matrix permutes cleanly (total {})",
            pooled.total()
        ))
    }
}

// ---------------------------------------------------------------------
// 4. The full Table IV sweep is bit-identical at any thread count.
// ---------------------------------------------------------------------

struct ThreadInvariance;

impl Invariant for ThreadInvariance {
    fn name(&self) -> &'static str {
        "thread-invariance"
    }
    fn description(&self) -> &'static str {
        "the Table IV sweep produces bit-identical rows at 1 and 4 worker threads"
    }
    fn check(&self, ctx: &InvariantCtx) -> Result<String, String> {
        let scale = conformance_scale();
        let run = |threads: &str| {
            std::env::set_var("ELEV_THREADS", threads);
            let rows = table4_tm1(&ctx.corpora.user, &scale, ctx.seed);
            std::env::remove_var("ELEV_THREADS");
            rows
        };
        let one = run("1");
        let four = run("4");
        if one != four {
            let first = one
                .iter()
                .zip(&four)
                .position(|(a, b)| a != b)
                .map_or("row count".to_owned(), |i| format!("row {i}"));
            return Err(format!("table4 diverges between 1 and 4 threads at {first}"));
        }
        Ok(format!("{} rows bit-identical at 1 and 4 threads", one.len()))
    }
}

// ---------------------------------------------------------------------
// 4b. Intra-model data parallelism is invisible: trained weights (CNN
//     via the sharded dense path, MLP via the sparse path) are
//     bit-identical at 1 and 4 gradient lanes.
// ---------------------------------------------------------------------

struct TrainShardInvariance;

/// A digest over every trained parameter's exact bit pattern.
fn weight_digest(net: &mut neuralnet::Sequential) -> u64 {
    use neuralnet::Layer;
    let mut d = durable::Digest::new();
    net.visit_params(&mut |p, _| {
        d.f32s(p.data());
    });
    d.finish()
}

impl Invariant for TrainShardInvariance {
    fn name(&self) -> &'static str {
        "train-shard-invariance"
    }
    fn description(&self) -> &'static str {
        "CNN and sparse-MLP trained-weight digests are bit-identical at 1 and 4 gradient lanes"
    }
    fn check(&self, ctx: &InvariantCtx) -> Result<String, String> {
        use neuralnet::models::{mlp, paper_cnn};
        use neuralnet::{train, train_sparse, TrainConfig};
        use tensorlite::Tensor;

        // Deterministic synthetic fixtures — small enough for the quick
        // tier, big enough for several uneven mini-batches per epoch.
        let n = 12usize;
        let x_img = Tensor::from_vec(
            (0..n * 3 * 32 * 32)
                .map(|i| ((exec::mix_seed(ctx.seed, i as u64) % 255) as f32 - 127.0) / 127.0)
                .collect(),
            &[n, 3, 32, 32],
        );
        let y: Vec<u32> = (0..n).map(|i| (i % 3) as u32).collect();
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|r| {
                (0..24)
                    .map(|c| {
                        // ~2/3 sparse with deterministic nonzeros.
                        let h = exec::mix_seed(ctx.seed ^ 0xA5, (r * 24 + c) as u64);
                        if h.is_multiple_of(3) {
                            ((h % 1000) as f32 - 500.0) / 500.0
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let x_csr = CsrMatrix::from_dense_rows(&rows);

        let run = |lanes: usize| {
            let cfg = TrainConfig {
                epochs: 2,
                batch_size: 5,
                lr: 2e-3,
                seed: ctx.seed,
                shards: Some(lanes),
                ..Default::default()
            };
            let mut cnn = paper_cnn(3, ctx.seed);
            train(&mut cnn, &x_img, &y, &cfg);
            let mut net = mlp(24, 16, 3, ctx.seed);
            train_sparse(&mut net, &x_csr, &y, &cfg);
            (weight_digest(&mut cnn), weight_digest(&mut net))
        };
        let (cnn1, mlp1) = run(1);
        let (cnn4, mlp4) = run(4);
        if cnn1 != cnn4 {
            return Err(format!(
                "CNN weight digest diverges: {cnn1:016x} at 1 lane vs {cnn4:016x} at 4"
            ));
        }
        if mlp1 != mlp4 {
            return Err(format!(
                "sparse-MLP weight digest diverges: {mlp1:016x} at 1 lane vs {mlp4:016x} at 4"
            ));
        }
        Ok(format!(
            "CNN digest {cnn1:016x} and sparse-MLP digest {mlp1:016x} identical at 1 and 4 lanes"
        ))
    }
}

// ---------------------------------------------------------------------
// 5. Sparse and dense feature paths agree: the vectorizer's sparse
//    output densifies to the dense output bit-for-bit, and the SVM
//    trained on either path predicts identically.
// ---------------------------------------------------------------------

struct SparseDenseAgreement;

impl Invariant for SparseDenseAgreement {
    fn name(&self) -> &'static str {
        "sparse-dense-agreement"
    }
    fn description(&self) -> &'static str {
        "sparse BoW features densify bit-identically and train the same SVM as dense features"
    }
    fn check(&self, ctx: &InvariantCtx) -> Result<String, String> {
        let signals: Vec<Vec<f64>> = ctx
            .activities
            .iter()
            .map(|a| a.elevation_profile())
            .collect();
        let labels: Vec<u32> = ctx
            .activities
            .iter()
            .map(|a| u32::from(a.metro != ctx.activities[0].metro))
            .collect();
        let pipeline =
            TextPipeline::fit(Discretizer::Floor, 4, FeatureSelection::standard(), &signals);
        let dense = pipeline.transform_all(&signals);
        let sparse = pipeline.transform_all_sparse(&signals);
        for (i, (d, s)) in dense.iter().zip(&sparse).enumerate() {
            let densified = s.to_dense();
            if d.len() != densified.len()
                || d.iter().zip(&densified).any(|(a, b)| a.to_bits() != b.to_bits())
            {
                return Err(format!("signal {i}: sparse vector densifies differently"));
            }
        }
        let svm_cfg = classicml::SvmConfig::default();
        let from_dense = classicml::SvmClassifier::fit(&dense, &labels, &svm_cfg, ctx.seed);
        let csr = CsrMatrix::from_rows(sparse.iter());
        let from_sparse =
            classicml::SvmClassifier::fit_sparse(&csr, &labels, &svm_cfg, ctx.seed);
        let p_dense = from_dense.predict(&dense);
        let p_sparse = from_sparse.predict_sparse(&csr);
        if p_dense != p_sparse {
            return Err("SVM predictions differ between sparse and dense training".into());
        }
        Ok(format!(
            "{} signals x {} features agree bitwise; SVM predictions identical",
            dense.len(),
            pipeline.n_features()
        ))
    }
}

// ---------------------------------------------------------------------
// 6. A zero-rate fault plan is the identity: the ingestion front door
//    must not perturb clean corpora at all.
// ---------------------------------------------------------------------

struct IngestCleanIdentity;

impl Invariant for IngestCleanIdentity {
    fn name(&self) -> &'static str {
        "ingest-clean-identity"
    }
    fn description(&self) -> &'static str {
        "rate-0 fault injection + ingestion reproduces the clean corpus bit-identically"
    }
    fn check(&self, ctx: &InvariantCtx) -> Result<String, String> {
        for (name, ds) in
            [("user", &ctx.corpora.user), ("city", &ctx.corpora.city)]
        {
            if !zero_rate_is_identity(ds, ctx.seed) {
                return Err(format!("{name} corpus perturbed by the zero-rate path"));
            }
        }
        Ok(format!(
            "user ({}) and city ({}) corpora pass through untouched",
            ctx.corpora.user.len(),
            ctx.corpora.city.len()
        ))
    }
}

// ---------------------------------------------------------------------
// 7. Despiking is offset-equivariant *and* pulls spikes toward the
//    clean neighbourhood — a flipped comparison or sign in the repair
//    breaks one of the two clauses.
// ---------------------------------------------------------------------

struct DespikeOffsetEquivariance;

fn spike_track(offset: f64) -> Gpx {
    let points = (0..40)
        .map(|i| {
            // Quarter-metre terracing with two gross spikes; every value
            // (and value + 512) is exactly representable.
            let e = match i {
                10 => 300.0,
                25 => -50.0,
                _ => 100.0 + (i % 5) as f64 * 0.25,
            };
            TrackPoint::with_elevation(
                LatLon::new(38.0 + i as f64 * 1e-4, -77.0),
                e + offset,
            )
        })
        .collect();
    Gpx {
        creator: "conformance".into(),
        tracks: vec![Track { name: None, segments: vec![TrackSegment { points }] }],
    }
}

impl Invariant for DespikeOffsetEquivariance {
    fn name(&self) -> &'static str {
        "despike-offset-equivariance"
    }
    fn description(&self) -> &'static str {
        "a constant +512 m offset shifts the despiked profile by exactly +512 m, and spikes land in the clean envelope"
    }
    fn check(&self, _ctx: &InvariantCtx) -> Result<String, String> {
        const OFFSET: f64 = 512.0;
        let mut ing = StreamingIngest::default();
        let (d0, p0) = ing.ingest_source(&Payload::Parsed(spike_track(0.0)));
        let (d1, p1) = ing.ingest_source(&Payload::Parsed(spike_track(OFFSET)));
        let (p0, p1) = match (p0, p1) {
            (Some(a), Some(b)) => (a, b),
            _ => return Err("spike track was quarantined instead of repaired".into()),
        };
        let despiked = |d: &Disposition| {
            matches!(d, Disposition::Repaired(rs)
                if rs.iter().any(|r| r.kind == elev_core::ingest::RepairKind::DespikedElevation))
        };
        if !despiked(&d0) || !despiked(&d1) {
            return Err("despike repair did not fire on the spike track".into());
        }
        for (i, (a, b)) in p0.iter().zip(&p1).enumerate() {
            if (a + OFFSET).to_bits() != b.to_bits() {
                return Err(format!(
                    "point {i}: despiked profile not offset-equivariant ({} + {OFFSET} != {})",
                    a, b
                ));
            }
        }
        // The repaired spikes must sit inside the clean envelope
        // [100, 101]; a flipped despike sign would push them further
        // out instead of pulling them in.
        for &i in &[10usize, 25] {
            if !(99.0..=102.0).contains(&p0[i]) {
                return Err(format!(
                    "spike at {i} repaired to {} — outside the clean envelope [99, 102]",
                    p0[i]
                ));
            }
        }
        Ok("despiked profile offset-equivariant at +512 m; spikes pulled into the clean envelope"
            .into())
    }
}

// ---------------------------------------------------------------------
// 8. Serving is a transparent transport: for every upload — clean or
//    quarantine-bound — the HTTP server returns exactly the status and
//    bytes the offline report function produces, through a registry
//    ser/de round trip of the trained weights.
// ---------------------------------------------------------------------

struct ServedEqualsOffline;

impl Invariant for ServedEqualsOffline {
    fn name(&self) -> &'static str {
        "served-equals-offline"
    }
    fn description(&self) -> &'static str {
        "the inference server returns byte-identical leakage reports to the offline path, including quarantines"
    }
    fn check(&self, ctx: &InvariantCtx) -> Result<String, String> {
        use serve::client::HttpClient;
        use serve::{BundleConfig, InferenceArena, ModelBundle, ServeConfig, Server};

        let offline = ModelBundle::train(ctx.seed, &BundleConfig::tiny());
        // The served copy crosses the registry's binary format, so a
        // lossy encode/decode breaks this invariant too.
        let served = ModelBundle::from_records(offline.to_records())
            .map_err(|e| format!("registry round trip failed: {e}"))?;
        let cfg = ServeConfig {
            port: 0,
            workers: 2,
            model_dir: None,
            reload_poll: std::time::Duration::from_millis(200),
            ..ServeConfig::from_env()
        };
        let server =
            Server::start(served, &cfg).map_err(|e| format!("server failed to start: {e}"))?;
        let mut client = HttpClient::connect(server.addr())
            .map_err(|e| format!("client failed to connect: {e}"))?;

        let mut uploads: Vec<(String, Vec<u8>)> = ctx
            .activities
            .iter()
            .enumerate()
            .map(|(i, a)| (format!("activity {i}"), a.gpx.to_xml().into_bytes()))
            .collect();
        // A damaged upload: the quarantine path must serve identically
        // too (the 422 body is still a deterministic report).
        let truncated = uploads[0].1[..uploads[0].1.len() / 3].to_vec();
        uploads.push(("truncated activity 0".into(), truncated));

        let mut arena = InferenceArena::new();
        let mut quarantined = 0usize;
        for (label, raw) in &uploads {
            let (status, body) = offline.report_json(raw, &mut arena);
            if status != 200 {
                quarantined += 1;
            }
            let resp = client
                .post("/v1/report", raw)
                .map_err(|e| format!("{label}: request failed: {e}"))?;
            if resp.status != status || resp.text() != body {
                return Err(format!(
                    "{label}: served ({}, {} bytes) != offline ({status}, {} bytes)",
                    resp.status,
                    resp.body.len(),
                    body.len()
                ));
            }
        }
        server.shutdown();
        if quarantined == 0 {
            return Err("the damaged upload was not quarantined — the 422 path went unchecked".into());
        }
        Ok(format!(
            "{} uploads ({} quarantined) served byte-identically to the offline path",
            uploads.len(),
            quarantined
        ))
    }
}

// ---------------------------------------------------------------------
// 9. Population shards are order-free: regenerating shards {0..3}
//    in order, reversed, or on a 4-thread executor produces identical
//    content fingerprints — the seed tree admits no hidden sequential
//    state.
// ---------------------------------------------------------------------

struct ShardRegeneration;

impl Invariant for ShardRegeneration {
    fn name(&self) -> &'static str {
        "shard-regeneration"
    }
    fn description(&self) -> &'static str {
        "population shards regenerate bit-identically in any order and at any thread count"
    }
    fn check(&self, ctx: &InvariantCtx) -> Result<String, String> {
        let pop = crate::stages::conformance_population(ctx.seed);
        let terrain = pop.terrain();
        let shards: Vec<usize> = (0..pop.n_shards()).collect();
        if shards.len() < 4 {
            return Err(format!(
                "conformance population has only {} shards; the order check needs 4",
                shards.len()
            ));
        }

        let in_order: Vec<u64> =
            shards.iter().map(|&s| pop.generate_shard(&terrain, s).fingerprint()).collect();
        let mut reversed: Vec<(usize, u64)> = shards
            .iter()
            .rev()
            .map(|&s| (s, pop.generate_shard(&terrain, s).fingerprint()))
            .collect();
        reversed.sort_by_key(|&(s, _)| s);
        let reversed: Vec<u64> = reversed.into_iter().map(|(_, f)| f).collect();
        if in_order != reversed {
            let bad = in_order.iter().zip(&reversed).position(|(a, b)| a != b).unwrap_or(0);
            return Err(format!(
                "shard {bad} fingerprints differ between in-order and reverse regeneration"
            ));
        }

        for threads in [1usize, 4] {
            let exec = exec::Executor::new(threads);
            let parallel =
                exec.map(&shards, |_, &s| pop.generate_shard(&terrain, s).fingerprint());
            if parallel != in_order {
                let bad =
                    in_order.iter().zip(&parallel).position(|(a, b)| a != b).unwrap_or(0);
                return Err(format!(
                    "shard {bad} fingerprint differs on a {threads}-thread executor"
                ));
            }
        }
        Ok(format!(
            "{} shards fingerprint-identical in order, reversed, and at 1/4 threads (shard 0 = {:016x})",
            shards.len(),
            in_order[0]
        ))
    }
}

// ---------------------------------------------------------------------
// 10. IVF matching agrees with the exact scan: over one published
//     feature store, the ANN sweep is bit-identical at 1 and 4
//     threads, counts exactly the tracks the exact sweep counts, and
//     the exact path's JSON artifact is untouched by the index living
//     alongside it in the store directory.
// ---------------------------------------------------------------------

struct AnnExactAgreement;

impl Invariant for AnnExactAgreement {
    fn name(&self) -> &'static str {
        "ann-exact-agreement"
    }
    fn description(&self) -> &'static str {
        "the IVF sweep is thread-invariant, track-exact, and leaves the exact-path artifact byte-identical"
    }
    fn check(&self, ctx: &InvariantCtx) -> Result<String, String> {
        use elev_core::scale::{scale_sweep, AnnSettings, ScaleConfig};

        let mut cfg = ScaleConfig::new(24, ctx.seed);
        cfg.population.shard_size = 8;
        cfg.pop_sizes = vec![12, 24];
        cfg.probes_per_city = 2;
        cfg.store_dir = std::env::temp_dir()
            .join(format!("elev-conf-ann-{}-{}", ctx.seed, std::process::id()));
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
        let dir = cfg.store_dir.clone();
        let fail = move |msg: String| {
            let _ = std::fs::remove_dir_all(&dir);
            msg
        };

        let mut exact_cfg = cfg.clone();
        exact_cfg.ann = None;
        let exact = scale_sweep(&exact_cfg, &exec::Executor::new(2))
            .map_err(|e| fail(format!("exact sweep failed: {e}")))?;

        cfg.ann = Some(AnnSettings { centroids: 8, nprobe: 3 });
        let ann1 = scale_sweep(&cfg, &exec::Executor::new(1))
            .map_err(|e| fail(format!("ANN sweep (1 thread) failed: {e}")))?;
        let ann4 = scale_sweep(&cfg, &exec::Executor::new(4))
            .map_err(|e| fail(format!("ANN sweep (4 threads) failed: {e}")))?;
        if ann1 != ann4 {
            return Err(fail("ANN sweep diverges between 1 and 4 threads".into()));
        }
        let info = ann1
            .ann
            .as_ref()
            .ok_or_else(|| fail("ANN sweep reported no ANN accounting".into()))?;
        if info.rows_scanned > info.rows_total {
            return Err(fail(format!(
                "ANN rescored {} of {} pairs — more than the exact scan",
                info.rows_scanned, info.rows_total
            )));
        }
        if info.recall3.iter().any(|r| !(0.0..=1.0).contains(r)) {
            return Err(fail(format!("recall@3 out of [0, 1]: {:?}", info.recall3)));
        }
        let exact_tracks: Vec<u64> = exact.points.iter().map(|p| p.tracks).collect();
        let ann_tracks: Vec<u64> = ann1.points.iter().map(|p| p.tracks).collect();
        if exact_tracks != ann_tracks {
            return Err(fail(format!(
                "ANN track counts {ann_tracks:?} != exact {exact_tracks:?}"
            )));
        }

        // Re-running the exact sweep against the store that now also
        // holds the index must reproduce the first artifact byte for
        // byte — the sidecars are invisible to the exact path.
        let again = scale_sweep(&exact_cfg, &exec::Executor::new(2))
            .map_err(|e| fail(format!("exact re-sweep failed: {e}")))?;
        if again.to_json() != exact.to_json() {
            return Err(fail("exact-path JSON changed after the index was built".into()));
        }

        let _ = std::fs::remove_dir_all(&cfg.store_dir);
        Ok(format!(
            "{} probes: ANN thread-invariant, {}/{} pairs rescored, recall@3 {:?}, exact artifact untouched",
            ann1.probes, info.rows_scanned, info.rows_total, info.recall3
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_registers_at_least_five_invariants() {
        assert!(all_invariants().len() >= 5);
    }

    #[test]
    fn names_are_unique_and_kebab_case() {
        let invs = all_invariants();
        let mut names: Vec<&str> = invs.iter().map(|i| i.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate invariant names");
        for n in names {
            assert!(n.chars().all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }
}
