//! Accuracy-vs-population scale sweeps over the sharded corpus.
//!
//! The paper measures its attacks against paper-scale candidate pools
//! (hundreds of tracks, 10 cities), which leaves open the realism
//! question: how does location leakage degrade as the candidate
//! population grows toward fitness-app scale? This module answers it
//! with the two big-corpus substrates:
//!
//! - [`routegen::PopulationConfig`] streams millions of synthetic
//!   athletes shard-by-shard under a fixed seed tree (prefix-stable,
//!   so every population size is a prefix of the next);
//! - [`featstore`] persists each shard's BoW features once, as
//!   checksummed CSR records, so repeated sweeps stream from disk
//!   instead of re-featurizing.
//!
//! The attack at scale is *re-identification*: the adversary holds the
//! feature rows of every candidate athlete's history and observes one
//! fresh elevation profile (the probe — the athlete's next activity,
//! drawn from the same seed tree). Nearest-neighbour cosine matching
//! over the stored rows then scores two threat models at once:
//!
//! - **TM-1 (athlete)**: does the best match belong to the probe's
//!   athlete? (top-1 / top-3) — the user-level attack, which must
//!   degrade as the candidate pool grows;
//! - **TM-3 (city)**: does the best match come from the probe's home
//!   city? — the city-level attack, which stays comparatively flat
//!   because city relief is population-independent.
//!
//! The scan is shard-parallel on the two-level `exec` budget and
//! bit-identical at any thread count and shard order: per-row scores
//! are pure, per-shard partials are merged in shard order, and ties
//! break on `(score, athlete, city)` under one total order.
//!
//! How a probe is matched is decided here and nowhere else. The
//! public matcher items are the one probe path: [`fit_vocabulary`]
//! (the shard-0 feature space), [`Probe::held_out`] (the probe
//! recipe) or [`Probe::new`] (a probe of the caller's own features),
//! [`Probe::score`] (the cosine and its drops), [`Hit`] with
//! [`push_topk`] (the distinct-athlete ranking), [`OverlapSig`] (the
//! exact scan's prefilter) and [`recall_at3`] (IVF against exact).
//! Both shard scans, the `ann.sweep` conformance stage and the
//! `ann_match` kernel bench call them; a served `POST /v1/identify`
//! calls them too rather than carrying a copy.

use annindex::{l2, AnnIndex};
use exec::Executor;
use featstore::{FeatureStore, RowBuf, ShardEntry, ShardWriter, StoreManifest};
use routegen::PopulationConfig;
use sparsemat::SparseVec;
use std::cell::OnceCell;
use std::path::{Path, PathBuf};
use terrain::SyntheticTerrain;
use textrep::{Discretizer, FeatureSelection, TextPipeline};

/// The fixed featurization every scale corpus uses: the paper's
/// user-dataset setting (plain floor discretization, 4-grams,
/// standard selection), fitted once on shard 0 — a prefix of every
/// population size, so the vocabulary never depends on how large the
/// sweep is.
pub const SCALE_NGRAM: usize = 4;

/// Domain separator mixed into the store fingerprint for the
/// featurization config.
const FEAT_DOMAIN: u64 = 0xFEA7_5702;

/// IVF matching knobs (the sweep runs the exact brute-force scan when
/// these are absent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnnSettings {
    /// Centroids trained on shard-0 rows (`ELEV_ANN_CENTROIDS`).
    pub centroids: usize,
    /// Posting lists scanned per probe (`ELEV_ANN_NPROBE`).
    pub nprobe: usize,
}

impl Default for AnnSettings {
    fn default() -> Self {
        Self { centroids: 64, nprobe: 8 }
    }
}

/// Configuration of a scale sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleConfig {
    /// The population (its `athletes` field is the largest sweep size).
    pub population: PopulationConfig,
    /// Ascending candidate-pool sizes (athlete counts); the sweep
    /// reports one point per size.
    pub pop_sizes: Vec<usize>,
    /// Probe athletes drawn per city, stratified, from ids below the
    /// smallest population size (so every probe is a candidate at
    /// every size).
    pub probes_per_city: usize,
    /// Feature-store directory.
    pub store_dir: PathBuf,
    /// `Some` switches matching to the IVF index (with recall@3
    /// accounting against the exact scan); `None` is the exact path.
    pub ann: Option<AnnSettings>,
}

impl ScaleConfig {
    /// A sweep over `athletes` candidates rooted at `seed`, with the
    /// canonical half-decade size ladder and a `target/featstore`
    /// store (override via [`from_env`](Self::from_env)).
    pub fn new(athletes: usize, seed: u64) -> Self {
        Self {
            population: PopulationConfig::new(athletes, seed),
            pop_sizes: population_ladder(athletes),
            probes_per_city: 8,
            store_dir: PathBuf::from("target/featstore"),
            ann: None,
        }
    }

    /// Reads the scale knobs: `ELEV_POP_SIZE` (total athletes, default
    /// 10 000), `ELEV_SHARD_SIZE` (athletes per shard, default 1024),
    /// `ELEV_STORE_DIR` (store path, default `target/featstore`),
    /// `ELEV_ANN` (`1` switches matching to the IVF index),
    /// `ELEV_ANN_CENTROIDS` / `ELEV_ANN_NPROBE` (index shape,
    /// defaults 64 / 8).
    pub fn from_env(seed: u64) -> Self {
        let athletes = exec::env_budget("ELEV_POP_SIZE", || 10_000);
        let shard_size = exec::env_budget("ELEV_SHARD_SIZE", || 1_024);
        let mut cfg = Self::new(athletes, seed);
        cfg.population.shard_size = shard_size;
        if let Ok(dir) = std::env::var("ELEV_STORE_DIR") {
            if !dir.trim().is_empty() {
                cfg.store_dir = PathBuf::from(dir);
            }
        }
        let ann_on = std::env::var("ELEV_ANN")
            .map(|v| matches!(v.trim(), "1" | "true" | "yes" | "on"))
            .unwrap_or(false);
        if ann_on {
            let defaults = AnnSettings::default();
            cfg.ann = Some(AnnSettings {
                centroids: exec::env_budget("ELEV_ANN_CENTROIDS", || defaults.centroids),
                nprobe: exec::env_budget("ELEV_ANN_NPROBE", || defaults.nprobe),
            });
        }
        cfg
    }

    /// The store fingerprint: population config plus featurization
    /// config, so a store built for a different corpus or vocabulary
    /// is never silently reused. Built on the population's *prefix*
    /// fingerprint — the athlete count is deliberately excluded, so a
    /// grown population appends shards to its store instead of
    /// rebuilding it (the manifest's own `athletes` field guards the
    /// size).
    pub fn store_fingerprint(&self) -> u64 {
        exec::mix_seed(self.population.prefix_fingerprint() ^ FEAT_DOMAIN, SCALE_NGRAM as u64)
    }
}

/// The canonical 1–3 half-decade ladder capped at `max`:
/// `100, 300, 1000, 3000, …, max` (always ends exactly at `max`).
pub fn population_ladder(max: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut d = 100usize;
    loop {
        for s in [d, 3 * d] {
            if s < max {
                sizes.push(s);
            }
        }
        if 10 * d > max {
            break;
        }
        d *= 10;
    }
    if sizes.last() != Some(&max) {
        sizes.push(max);
    }
    sizes
}

/// Fits the scale vocabulary: the [`SCALE_NGRAM`] featurization on the
/// elevation profiles of shard 0 alone, so the feature space is the
/// same at every population size. Shard 0 is regenerated on `exec`,
/// athlete by athlete, keeping only each athlete's elevation profiles
/// (never the shard's tracks) in id order, so the fit is the same at
/// any thread count.
pub fn fit_vocabulary(pop: &PopulationConfig, exec: &Executor) -> TextPipeline {
    TextPipeline::fit(
        Discretizer::Floor,
        SCALE_NGRAM,
        FeatureSelection::standard(),
        &shard0_profiles(pop, exec),
    )
}

/// The elevation profiles of shard 0's history activities, in athlete
/// id then activity order, regenerated on `exec`.
fn shard0_profiles(pop: &PopulationConfig, exec: &Executor) -> Vec<Vec<f64>> {
    let terrain = pop.terrain();
    let ids: Vec<u64> = pop.shard_range(0).collect();
    let per_athlete = exec.map(&ids, |_, &id| {
        let athlete = pop.generate_athlete(&terrain, id);
        athlete.activities.iter().map(|act| act.elevation_profile()).collect::<Vec<_>>()
    });
    per_athlete.into_iter().flatten().collect()
}

/// Outcome of [`build_store`]: shape of the published store and
/// whether an existing build was reused or grown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreBuildReport {
    /// Feature-space width.
    pub n_cols: usize,
    /// Total feature rows (tracks) across all shards.
    pub rows: u64,
    /// Number of shards.
    pub shards: usize,
    /// Total shard-file bytes.
    pub bytes: u64,
    /// `true` when a matching published store was reused as-is.
    pub reused: bool,
    /// Shards appended to an existing store (0 on reuse or rebuild).
    pub appended: usize,
}

/// Featurizes one population shard through `pipeline` into a shard
/// writer, returning its publish metadata. Athletes are generated and
/// featurized one at a time, in id order, so a worker holds one
/// athlete's tracks rather than the whole shard's; the rows are those
/// of [`PopulationConfig::generate_shard`] in the same order.
fn featurize_shard(
    cfg: &ScaleConfig,
    pipeline: &TextPipeline,
    terrain: &terrain::SyntheticTerrain,
    n_cols: usize,
    fingerprint: u64,
    s: usize,
) -> Result<featstore::ShardMeta, durable::Error> {
    let mut w = ShardWriter::create(&cfg.store_dir, s, n_cols as u64, fingerprint)?;
    for id in cfg.population.shard_range(s) {
        let athlete = cfg.population.generate_athlete(terrain, id);
        for (ai, act) in athlete.activities.iter().enumerate() {
            let sv = pipeline.transform_sparse(&act.elevation_profile());
            w.append_row(
                athlete.habits.id,
                athlete.habits.city_index as u32,
                ai as u32,
                sv.indices(),
                sv.values(),
            )?;
        }
    }
    w.finish()
}

fn store_report(m: &StoreManifest, dir: &Path, reused: bool, appended: usize) -> StoreBuildReport {
    StoreBuildReport {
        n_cols: m.n_cols as usize,
        rows: m.shards.iter().map(|s| s.rows).sum(),
        shards: m.shards.len(),
        bytes: m
            .shards
            .iter()
            .filter_map(|s| std::fs::metadata(dir.join(&s.file)).ok())
            .map(|md| md.len())
            .sum(),
        reused,
        appended,
    }
}

/// Featurizes the population shard-parallel into `cfg.store_dir`,
/// computing each shard once: a published store whose manifest matches
/// the config fingerprint is reused as-is when the athlete count
/// matches, and **grown in place** when the population is a larger
/// extension of it — only the new shards are generated and
/// featurized (the vocabulary is fitted on shard 0, which appends
/// never touch), and the manifest generation bumps via the
/// crash-safe append path. A store whose last shard is partial is
/// rebuilt instead, under the directory's next generation number.
///
/// # Errors
///
/// Any [`durable::Error`] from shard writing or manifest publishing.
pub fn build_store(
    cfg: &ScaleConfig,
    exec: &Executor,
) -> Result<StoreBuildReport, durable::Error> {
    build_store_with(cfg, exec, &OnceCell::new())
}

/// [`build_store`] with the vocabulary fitted into `vocabulary` on
/// first need: reusing a store fits nothing, and a caller that needs
/// the vocabulary afterwards fits it once whether the store was built,
/// grown or reused.
fn build_store_with(
    cfg: &ScaleConfig,
    exec: &Executor,
    vocabulary: &OnceCell<TextPipeline>,
) -> Result<StoreBuildReport, durable::Error> {
    let pop = &cfg.population;
    let fingerprint = cfg.store_fingerprint();
    if let Ok(mut store) = FeatureStore::open(&cfg.store_dir) {
        let m = store.manifest().clone();
        let compatible = m.config == fingerprint && m.shard_size == pop.shard_size as u64;
        if compatible && m.athletes == pop.athletes as u64 {
            return Ok(store_report(&m, &cfg.store_dir, true, 0));
        }
        // Grow in place: the published store must be a whole-shard
        // prefix of the target population (a partial last shard would
        // have to be rewritten, which the append path refuses).
        if compatible
            && m.athletes < pop.athletes as u64
            && m.athletes % m.shard_size == 0
            && m.shards.len() * pop.shard_size == m.athletes as usize
        {
            let pipeline = vocabulary.get_or_init(|| fit_vocabulary(pop, exec));
            let n_cols = pipeline.n_features();
            if n_cols as u64 == m.n_cols {
                let terrain = pop.terrain();
                let new_ids: Vec<usize> = (m.shards.len()..pop.n_shards()).collect();
                let metas = exec.map(&new_ids, |_, &s| {
                    featurize_shard(cfg, pipeline, &terrain, n_cols, fingerprint, s)
                });
                let metas: Vec<featstore::ShardMeta> =
                    metas.into_iter().collect::<Result<_, _>>()?;
                store.append_shards(fingerprint, pop.athletes as u64, &metas)?;
                return Ok(store_report(
                    store.manifest(),
                    &cfg.store_dir,
                    false,
                    metas.len(),
                ));
            }
        }
    }
    std::fs::create_dir_all(&cfg.store_dir)?;

    let pipeline = vocabulary.get_or_init(|| fit_vocabulary(pop, exec));
    let n_cols = pipeline.n_features();
    let terrain = pop.terrain();
    let shard_ids: Vec<usize> = (0..pop.n_shards()).collect();
    let metas = exec.map(&shard_ids, |_, &s| {
        featurize_shard(cfg, pipeline, &terrain, n_cols, fingerprint, s)
    });
    let metas: Vec<featstore::ShardMeta> = metas.into_iter().collect::<Result<_, _>>()?;

    let manifest = StoreManifest {
        config: fingerprint,
        n_cols: n_cols as u64,
        shard_size: pop.shard_size as u64,
        athletes: pop.athletes as u64,
        generation: durable::Generation::next(&cfg.store_dir, &featstore::STORE),
        shards: metas
            .iter()
            .enumerate()
            .map(|(i, m)| ShardEntry { index: i, file: m.file.clone(), rows: m.rows })
            .collect(),
    };
    FeatureStore::publish_manifest(&cfg.store_dir, &manifest)?;
    Ok(StoreBuildReport {
        n_cols,
        rows: metas.iter().map(|m| m.rows).sum(),
        shards: metas.len(),
        bytes: metas.iter().map(|m| m.bytes).sum(),
        reused: false,
        appended: 0,
    })
}

/// One probe: a fresh (held-out) activity of a candidate athlete, kept
/// sparse (for index routing and the overlap signature) and dense, one
/// value per vocabulary column (for [`score`](Self::score)). The fields
/// are private, so the two copies cannot drift apart.
#[derive(Debug, Clone)]
pub struct Probe {
    /// Global id of the probe's athlete.
    athlete: u64,
    /// The athlete's home-city label.
    city: u32,
    /// The held-out activity's features in the scale vocabulary.
    features: SparseVec,
    /// L2 norm of `features`.
    norm: f32,
    /// `features` densified to the vocabulary's width.
    dense: Vec<f32>,
}

impl Probe {
    /// Athlete `id`'s *next* activity beyond the stored history (the
    /// seed tree's activity `weekly_cadence`), featurized through
    /// `vocabulary`.
    pub fn held_out(
        pop: &PopulationConfig,
        terrain: &SyntheticTerrain,
        id: u64,
        vocabulary: &TextPipeline,
    ) -> Self {
        let habits = pop.habits(id);
        let mut acts = pop.athlete_activities(terrain, id, habits.weekly_cadence + 1);
        let act = acts.pop().expect("cadence + 1 activities");
        let features = vocabulary.transform_sparse(&act.elevation_profile());
        Self::new(id, habits.city_index as u32, features)
    }

    /// A probe of athlete `athlete` living in city `city`, from
    /// `features` in the scale vocabulary (as wide as it), with its
    /// norm and dense copy.
    pub fn new(athlete: u64, city: u32, features: SparseVec) -> Self {
        let norm = l2(features.values());
        let dense = features.to_dense();
        Self { athlete, city, features, norm, dense }
    }

    /// The probe's features in the scale vocabulary.
    pub fn features(&self) -> &SparseVec {
        &self.features
    }

    /// Scores one stored row of norm `row_norm`: the cosine
    /// `dot / (|p|·|r|)` as a hit for the row's athlete, or `None` when
    /// the row has zero norm or `dot <= 0` (no shared vocabulary).
    ///
    /// The dot sums `dense[j] * v` over the row's nonzeros in ascending
    /// index order, and an index past the vocabulary's width counts as
    /// zero. Feature values are non-negative, so each index the probe
    /// lacks adds +0.0 to a non-negative sum: the result is the sorted
    /// merge-join's (`sparsemat::dot_sorted`) bit for bit, without its
    /// branch per index.
    #[inline]
    pub fn score(&self, row: &RowBuf, row_norm: f32) -> Option<Hit> {
        if row_norm == 0.0 {
            return None;
        }
        let mut dot = 0f32;
        for (&j, &v) in row.indices.iter().zip(&row.values) {
            // Indices ascend, so every later one is past the width too.
            let Some(&p) = self.dense.get(j as usize) else { break };
            dot += p * v;
        }
        (dot > 0.0).then(|| Hit {
            score: dot / (self.norm * row_norm),
            athlete: row.athlete,
            city: row.city,
        })
    }
}

/// One candidate hit during matching.
#[derive(Debug, Clone, Copy)]
pub struct Hit {
    /// Cosine score against the probe.
    pub score: f32,
    /// Global id of the row's athlete.
    pub athlete: u64,
    /// The row's home-city label.
    pub city: u32,
}

/// Total, deterministic hit order: score desc (by `total_cmp`), then
/// athlete asc, then city asc. Every field decides, so two hits tie
/// only when they are equal.
fn hit_order(a: &Hit, b: &Hit) -> std::cmp::Ordering {
    b.score.total_cmp(&a.score).then(a.athlete.cmp(&b.athlete)).then(a.city.cmp(&b.city))
}

/// Inserts `hit` into a top-k list of *distinct athletes* (an
/// athlete's best-scoring track represents them), ordered score desc
/// then athlete asc. The list is the first `k` of every athlete's best
/// hit under one total order, so it does not depend on the order the
/// hits arrive in: scans may visit rows in any order.
pub fn push_topk(top: &mut Vec<Hit>, hit: Hit, k: usize) {
    if let Some(existing) = top.iter_mut().find(|h| h.athlete == hit.athlete) {
        if hit_order(&hit, existing).is_lt() {
            *existing = hit;
        }
    } else {
        top.push(hit);
    }
    top.sort_by(hit_order);
    top.truncate(k);
}

/// Recall@3 of one probe's IVF hit list against its exact one: the
/// share of the exact list's athletes the IVF list kept (1.0 when the
/// exact list is empty).
pub fn recall_at3(exact: &[Hit], ann: &[Hit]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let kept = exact.iter().filter(|h| ann.iter().any(|a| a.athlete == h.athlete)).count();
    kept as f64 / exact.len() as f64
}

/// Width of the vocabulary-overlap bloom signature, in 64-bit words.
const BLOOM_WORDS: usize = 8;

/// A probe's overlap signature: feature-index range plus a 512-bit
/// bloom over its indices. A row whose signature shares no range and
/// no bloom bit with a probe provably has zero vocabulary overlap, so
/// its dot product is exactly zero — which the scan discards anyway.
/// The prefilter therefore only skips work, never changes output.
pub struct OverlapSig {
    first: u32,
    last: u32,
    bloom: [u64; BLOOM_WORDS],
}

impl OverlapSig {
    /// The signature of a sorted feature-index list.
    pub fn new(indices: &[u32]) -> Self {
        let mut bloom = [0u64; BLOOM_WORDS];
        for &i in indices {
            bloom[(i as usize >> 6) % BLOOM_WORDS] |= 1u64 << (i & 63);
        }
        Self {
            first: indices.first().copied().unwrap_or(u32::MAX),
            last: indices.last().copied().unwrap_or(0),
            bloom,
        }
    }

    /// `false` only when the two index lists provably share no index.
    pub fn may_overlap(&self, other: &Self) -> bool {
        if self.first > other.last || other.first > self.last {
            return false;
        }
        self.bloom.iter().zip(&other.bloom).any(|(a, b)| a & b != 0)
    }
}

/// First population-size index that includes `athlete`
/// (`sizes.len()` when none does) — the branchless replacement for
/// the linear `position` probe the scan used to run per row.
fn first_size_index(sizes: &[usize], athlete: u64) -> usize {
    sizes.partition_point(|&s| s as u64 <= athlete)
}

/// Folds per-bucket row counts into cumulative per-size track counts
/// (a row first counted at size `i` is present at every size `>= i`).
fn cumulative_tracks(buckets: &[u64]) -> Vec<u64> {
    buckets
        .iter()
        .scan(0u64, |acc, &b| {
            *acc += b;
            Some(*acc)
        })
        .collect()
}

/// One accuracy point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Candidate-pool size (athletes).
    pub athletes: usize,
    /// History tracks in the pool at this size.
    pub tracks: u64,
    /// TM-1: probe matched to its own athlete, top-1.
    pub tm1_top1: f64,
    /// TM-1: probe's athlete within the top-3 distinct candidates.
    pub tm1_top3: f64,
    /// TM-3: best match shares the probe's home city.
    pub tm3_top1: f64,
}

/// IVF accounting attached to an ANN-mode sweep: how much of the scan
/// was avoided, and what that cost in recall against the exact path.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnInfo {
    /// Centroids requested (`ELEV_ANN_CENTROIDS`).
    pub centroids: usize,
    /// Posting lists scanned per probe (`ELEV_ANN_NPROBE`).
    pub nprobe: usize,
    /// Candidate `(probe, row)` pairs the IVF scan rescored.
    pub rows_scanned: u64,
    /// Pairs the exact scan would have considered
    /// (`probes x candidate rows` at the largest size).
    pub rows_total: u64,
    /// Per-point recall@3 of the ANN hit lists against the exact
    /// scan's, aligned with `points`.
    pub recall3: Vec<f64>,
}

/// The full sweep result (one JSON artifact).
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleReport {
    /// Master seed.
    pub seed: u64,
    /// Athletes per shard.
    pub shard_size: usize,
    /// Feature-space width.
    pub n_cols: usize,
    /// Total feature rows in the store.
    pub store_rows: u64,
    /// Probe count (stratified across cities).
    pub probes: usize,
    /// One point per population size, ascending.
    pub points: Vec<ScalePoint>,
    /// IVF accounting — `None` in exact mode, whose JSON rendering is
    /// byte-identical to builds that predate the index.
    pub ann: Option<AnnInfo>,
}

impl ScaleReport {
    /// Stable machine-readable rendering (consumed by `verify.sh` and
    /// committed as the experiment artifact).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"suite\": \"scale_population\", \"seed\": {}, \"shard_size\": {}, \
             \"n_cols\": {}, \"store_rows\": {}, \"probes\": {}, \"points\": [",
            self.seed, self.shard_size, self.n_cols, self.store_rows, self.probes
        ));
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"athletes\": {}, \"tracks\": {}, \"tm1_top1\": {:.6}, \
                 \"tm1_top3\": {:.6}, \"tm3_top1\": {:.6}}}",
                p.athletes, p.tracks, p.tm1_top1, p.tm1_top3, p.tm3_top1
            ));
        }
        out.push(']');
        if let Some(ann) = &self.ann {
            out.push_str(&format!(
                ", \"ann\": {{\"centroids\": {}, \"nprobe\": {}, \"rows_scanned\": {}, \
                 \"rows_total\": {}, \"recall3\": [",
                ann.centroids, ann.nprobe, ann.rows_scanned, ann.rows_total
            ));
            for (i, r) in ann.recall3.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("{r:.6}"));
            }
            out.push_str("]}");
        }
        out.push('}');
        out
    }
}

/// Builds the stratified probe set: for each city, the first
/// `probes_per_city` athletes (by global id) living there among ids
/// below the smallest population size; each contributes their *next*
/// activity beyond the stored history, generated on `exec`.
fn build_probes(cfg: &ScaleConfig, vocabulary: &TextPipeline, exec: &Executor) -> Vec<Probe> {
    let pop = &cfg.population;
    let terrain = pop.terrain();
    let min_size = *cfg.pop_sizes.first().expect("at least one population size") as u64;
    let mut per_city = vec![0usize; pop.cities.len()];
    let mut picks = Vec::new();
    for id in 0..min_size.min(pop.athletes as u64) {
        let city = pop.habits(id).city_index;
        if per_city[city] < cfg.probes_per_city {
            per_city[city] += 1;
            picks.push(id);
        }
    }
    exec.map(&picks, |_, &id| Probe::held_out(pop, &terrain, id, vocabulary))
}

/// Per-probe, per-population-size top-3 hit lists.
type TopHits = Vec<Vec<Vec<Hit>>>;

/// What a shard scan returns, and what [`merge_partials`] folds them
/// into: per-probe, per-size top-3 hits, per-size cumulative track
/// counts, and the `(probe, row)` pairs the IVF scan rescored (0 on the
/// exact scan).
struct Partial {
    top: TopHits,
    tracks: Vec<u64>,
    rescored: u64,
}

/// Scans one shard exactly: for every probe and every population
/// size, the top-3 distinct-athlete hits among the shard's rows with
/// `athlete < size`, plus the shard's per-size row counts.
///
/// Two pruning steps keep the inner loop cheap without changing a
/// single output bit: the size bucket is a binary search folded into
/// a cumulative counter (instead of a linear probe per row), and the
/// [`OverlapSig`] prefilter skips probes that provably share no
/// vocabulary with the row (their dot is exactly zero, which the
/// `dot <= 0` gate discarded anyway).
fn scan_shard(
    store: &FeatureStore,
    shard: usize,
    probes: &[Probe],
    sigs: &[OverlapSig],
    sizes: &[usize],
    row: &mut RowBuf,
) -> Result<Partial, durable::Error> {
    let mut top: TopHits = vec![vec![Vec::with_capacity(4); sizes.len()]; probes.len()];
    let mut buckets = vec![0u64; sizes.len()];
    let mut reader = store.reader(shard)?;
    while reader.next_row(row)? {
        let first_size = first_size_index(sizes, row.athlete);
        if first_size == sizes.len() {
            continue;
        }
        buckets[first_size] += 1;
        let row_norm = l2(&row.values);
        if row_norm == 0.0 {
            continue;
        }
        let row_sig = OverlapSig::new(&row.indices);
        for (pi, probe) in probes.iter().enumerate() {
            if !sigs[pi].may_overlap(&row_sig) {
                continue;
            }
            if let Some(hit) = probe.score(row, row_norm) {
                for per_size in top[pi].iter_mut().skip(first_size) {
                    push_topk(per_size, hit, 3);
                }
            }
        }
    }
    Ok(Partial { top, tracks: cumulative_tracks(&buckets), rescored: 0 })
}

/// Scans one shard through the IVF index: for every probe, only the
/// rows in the probe's `nprobe` closest posting lists are rescored
/// with the exact dot product. Track counts still come from *all*
/// posting entries (every row lands in exactly one list), so they are
/// identical to the exact scan's. Counts the candidate `(probe, row)`
/// pairs rescored: the share of the exact scan's work the index keeps
/// (a constant fraction at a fixed codebook size, not a sublinear one).
fn scan_shard_ann(
    store: &FeatureStore,
    index: &AnnIndex,
    shard: usize,
    probes: &[Probe],
    probe_lists: &[Vec<u32>],
    sizes: &[usize],
    row: &mut RowBuf,
) -> Result<Partial, durable::Error> {
    let mut top: TopHits = vec![vec![Vec::with_capacity(4); sizes.len()]; probes.len()];
    let mut buckets = vec![0u64; sizes.len()];
    let lists = index.postings(shard)?;

    // Invert probe -> centroid selections so each candidate row is
    // read once and rescored only against interested probes.
    let mut interested: Vec<Vec<u32>> = vec![Vec::new(); lists.len()];
    for (pi, tops) in probe_lists.iter().enumerate() {
        for &c in tops {
            interested[c as usize].push(pi as u32);
        }
    }

    for list in &lists {
        for e in list {
            let first_size = first_size_index(sizes, e.athlete);
            if first_size < sizes.len() {
                buckets[first_size] += 1;
            }
        }
    }

    // Visit the candidate rows in ascending offset order, so that
    // consecutive positioned reads land in the reader's window;
    // `push_topk` makes the hit lists independent of the visit order.
    let mut candidates = Vec::new();
    for (c, list) in lists.iter().enumerate() {
        if interested[c].is_empty() {
            continue;
        }
        for e in list {
            let first_size = first_size_index(sizes, e.athlete);
            if first_size < sizes.len() && e.norm != 0.0 {
                candidates.push((e.offset, c, first_size, e.norm));
            }
        }
    }
    candidates.sort_unstable_by_key(|&(offset, c, ..)| (offset, c));

    let mut reader = store.reader(shard)?;
    let mut scanned = 0u64;
    for (offset, c, first_size, norm) in candidates {
        reader.read_row_at(offset, row)?;
        for &pi in &interested[c] {
            scanned += 1;
            if let Some(hit) = probes[pi as usize].score(row, norm) {
                for per_size in top[pi as usize].iter_mut().skip(first_size) {
                    push_topk(per_size, hit, 3);
                }
            }
        }
    }
    Ok(Partial { top, tracks: cumulative_tracks(&buckets), rescored: scanned })
}

/// Runs the accuracy-vs-population sweep, shard-parallel, streaming
/// features from the published store ([`build_store`] runs first and
/// reuses a matching store).
///
/// # Errors
///
/// Any [`durable::Error`] from the store build or the shard scans;
/// [`durable::Error::Malformed`] when the store's width is not the
/// fitted vocabulary's (a reused store featurized before a
/// featurization change).
///
/// # Panics
///
/// Panics if `cfg.pop_sizes` is empty.
pub fn scale_sweep(cfg: &ScaleConfig, exec: &Executor) -> Result<ScaleReport, durable::Error> {
    assert!(!cfg.pop_sizes.is_empty(), "sweep needs at least one population size");
    let vocabulary = OnceCell::new();
    let build = build_store_with(cfg, exec, &vocabulary)?;
    let vocabulary = vocabulary.get_or_init(|| fit_vocabulary(&cfg.population, exec));
    let width = vocabulary.n_features();
    if build.n_cols != width {
        return Err(durable::Error::Malformed(format!(
            "{} holds a store {} features wide, but the vocabulary fitted now is {width} wide; \
             remove the store to rebuild it",
            cfg.store_dir.display(),
            build.n_cols
        )));
    }
    let store = FeatureStore::open(&cfg.store_dir)?;
    let probes = build_probes(cfg, vocabulary, exec);
    let sizes = &cfg.pop_sizes;

    let sigs: Vec<OverlapSig> =
        probes.iter().map(|p| OverlapSig::new(p.features.indices())).collect();

    let shard_ids: Vec<usize> = (0..store.manifest().shards.len()).collect();
    let partials = exec.map_with(
        &shard_ids,
        RowBuf::default,
        |row, _, &s| scan_shard(&store, s, &probes, &sigs, sizes, row),
    );
    let exact = merge_partials(partials, probes.len(), sizes.len())?;
    let tracks = exact.tracks;

    // ANN mode scans through the IVF index and keeps the exact pass
    // above as the recall reference; exact mode reports it directly.
    let (merged, ann) = match cfg.ann {
        None => (exact.top, None),
        Some(settings) => {
            let (index, _) =
                AnnIndex::ensure(&store, settings.centroids, cfg.population.seed, exec)?;
            let probe_lists: Vec<Vec<u32>> = probes
                .iter()
                .map(|p| {
                    index.codebook().top_centroids(
                        p.features.indices(),
                        p.features.values(),
                        settings.nprobe,
                    )
                })
                .collect();
            let ann_partials = exec.map_with(
                &shard_ids,
                RowBuf::default,
                |row, _, &s| scan_shard_ann(&store, &index, s, &probes, &probe_lists, sizes, row),
            );
            let ivf = merge_partials(ann_partials, probes.len(), sizes.len())?;
            debug_assert_eq!(ivf.tracks, tracks, "posting lists must cover every row");
            let recall3 = (0..sizes.len())
                .map(|si| {
                    let sum: f64 = (0..probes.len())
                        .map(|pi| recall_at3(&exact.top[pi][si], &ivf.top[pi][si]))
                        .sum();
                    sum / probes.len().max(1) as f64
                })
                .collect();
            let info = AnnInfo {
                centroids: settings.centroids,
                nprobe: settings.nprobe,
                rows_scanned: ivf.rescored,
                rows_total: probes.len() as u64 * tracks.last().copied().unwrap_or(0),
                recall3,
            };
            (ivf.top, Some(info))
        }
    };

    let points = sizes
        .iter()
        .enumerate()
        .map(|(si, &size)| {
            let (mut t1, mut t3, mut c1) = (0usize, 0usize, 0usize);
            for (pi, probe) in probes.iter().enumerate() {
                let top = &merged[pi][si];
                if top.first().is_some_and(|h| h.athlete == probe.athlete) {
                    t1 += 1;
                }
                if top.iter().any(|h| h.athlete == probe.athlete) {
                    t3 += 1;
                }
                if top.first().is_some_and(|h| h.city == probe.city) {
                    c1 += 1;
                }
            }
            let n = probes.len().max(1) as f64;
            ScalePoint {
                athletes: size,
                tracks: tracks[si],
                tm1_top1: t1 as f64 / n,
                tm1_top3: t3 as f64 / n,
                tm3_top1: c1 as f64 / n,
            }
        })
        .collect();

    Ok(ScaleReport {
        seed: cfg.population.seed,
        shard_size: cfg.population.shard_size,
        n_cols: build.n_cols,
        store_rows: build.rows,
        probes: probes.len(),
        points,
        ann,
    })
}

/// Merges per-shard scan partials in shard index order, giving the
/// same hit lists, track counts and rescored pairs at any thread count.
fn merge_partials(
    partials: Vec<Result<Partial, durable::Error>>,
    n_probes: usize,
    n_sizes: usize,
) -> Result<Partial, durable::Error> {
    let mut merged = Partial {
        top: vec![vec![Vec::with_capacity(4); n_sizes]; n_probes],
        tracks: vec![0u64; n_sizes],
        rescored: 0,
    };
    for partial in partials {
        let Partial { top, tracks, rescored } = partial?;
        for (si, t) in tracks.iter().enumerate() {
            merged.tracks[si] += t;
        }
        merged.rescored += rescored;
        for (pi, per_probe) in top.into_iter().enumerate() {
            for (si, hits) in per_probe.into_iter().enumerate() {
                for h in hits {
                    push_topk(&mut merged.top[pi][si], h, 3);
                }
            }
        }
    }
    Ok(merged)
}

/// Regenerates every population shard and returns its fingerprint —
/// the digest surface the `scale` verify tier diffs across thread
/// counts and regeneration orders.
pub fn shard_fingerprints(pop: &PopulationConfig, exec: &Executor) -> Vec<u64> {
    let terrain = pop.terrain();
    let shard_ids: Vec<usize> = (0..pop.n_shards()).collect();
    exec.map(&shard_ids, |_, &s| pop.generate_shard(&terrain, s).fingerprint())
}

#[cfg(test)]
mod tests {
    use super::*;
    use annindex::Ensured;
    use proptest::prelude::*;
    use sparsemat::dot_sorted;

    fn tiny_cfg(tag: &str, athletes: usize) -> ScaleConfig {
        let mut cfg = ScaleConfig::new(athletes, 77);
        cfg.population.shard_size = 8;
        cfg.pop_sizes = vec![athletes / 2, athletes];
        cfg.probes_per_city = 2;
        cfg.store_dir = std::env::temp_dir()
            .join(format!("elev-scale-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
        cfg
    }

    #[test]
    fn ladder_is_half_decade_and_capped() {
        assert_eq!(population_ladder(10_000), vec![100, 300, 1_000, 3_000, 10_000]);
        assert_eq!(
            population_ladder(1_000_000),
            vec![100, 300, 1_000, 3_000, 10_000, 30_000, 100_000, 300_000, 1_000_000]
        );
        assert_eq!(population_ladder(2_500), vec![100, 300, 1_000, 2_500]);
        assert_eq!(population_ladder(50), vec![50]);
    }

    #[test]
    fn store_builds_streams_and_reuses() {
        let cfg = tiny_cfg("build", 24);
        let exec = Executor::new(2);
        let build = build_store(&cfg, &exec).expect("build");
        assert!(!build.reused);
        assert_eq!(build.shards, 3);
        assert!(build.rows >= 24, "each athlete contributes >= 1 track");

        // Every row must stream back clean and in ascending athlete order.
        let store = FeatureStore::open(&cfg.store_dir).expect("open");
        let mut row = RowBuf::default();
        let mut seen = 0u64;
        let mut last = None::<u64>;
        for s in 0..build.shards {
            let mut r = store.reader(s).expect("reader");
            while r.next_row(&mut row).expect("row") {
                assert!(last.is_none_or(|l| row.athlete >= l), "rows out of order");
                last = Some(row.athlete);
                seen += 1;
            }
        }
        assert_eq!(seen, build.rows);

        // A second build reuses the published store untouched.
        let again = build_store(&cfg, &exec).expect("rebuild");
        assert!(again.reused);
        assert_eq!((again.rows, again.n_cols), (build.rows, build.n_cols));
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }

    #[test]
    fn sweep_is_thread_and_order_invariant() {
        let cfg = tiny_cfg("sweep", 24);
        let base = scale_sweep(&cfg, &Executor::new(1)).expect("sweep t1");
        let wide = scale_sweep(&cfg, &Executor::new(4)).expect("sweep t4");
        assert_eq!(base, wide, "sweep must be bit-identical at any thread count");
        assert_eq!(base.points.len(), 2);
        // Larger pools can only keep or lose TM-1 accuracy, and the
        // smaller pool's tracks are a strict subset.
        assert!(base.points[0].tracks <= base.points[1].tracks);
        assert!(base.points[0].tm1_top1 >= base.points[1].tm1_top1 - 1e-12);
        let json = base.to_json();
        assert!(json.contains("\"points\": ["));
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }

    #[test]
    fn probes_reidentify_in_small_pools() {
        // With a handful of athletes, favourite-route reuse should let
        // cosine matching re-identify most probes — the attack has to
        // actually work before its degradation curve means anything.
        let cfg = tiny_cfg("reid", 16);
        let report = scale_sweep(&cfg, &Executor::new(2)).expect("sweep");
        let p0 = &report.points[0];
        assert!(
            p0.tm1_top3 >= 0.5,
            "TM-1 top-3 {:.2} at pool {} — matching is broken",
            p0.tm1_top3,
            p0.athletes
        );
        assert!(p0.tm3_top1 >= p0.tm1_top1, "city accuracy cannot trail athlete accuracy");
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }

    #[test]
    fn shard_fingerprints_are_executor_invariant() {
        let pop = {
            let mut p = PopulationConfig::new(20, 5);
            p.shard_size = 4;
            p
        };
        let a = shard_fingerprints(&pop, &Executor::new(1));
        let b = shard_fingerprints(&pop, &Executor::new(4));
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }

    /// The scan as it existed before the prefilters: linear size probe
    /// per row, per-size track increments, no overlap signature. The
    /// optimized scan must reproduce it bit for bit.
    fn naive_scan(
        store: &FeatureStore,
        shard: usize,
        probes: &[Probe],
        sizes: &[usize],
    ) -> (TopHits, Vec<u64>) {
        let mut top: TopHits = vec![vec![Vec::new(); sizes.len()]; probes.len()];
        let mut tracks = vec![0u64; sizes.len()];
        let mut reader = store.reader(shard).expect("reader");
        let mut row = RowBuf::default();
        while reader.next_row(&mut row).expect("row") {
            let Some(first_size) = sizes.iter().position(|&s| row.athlete < s as u64) else {
                continue;
            };
            for t in tracks.iter_mut().skip(first_size) {
                *t += 1;
            }
            let row_norm = l2(&row.values);
            if row_norm == 0.0 {
                continue;
            }
            for (pi, probe) in probes.iter().enumerate() {
                let dot = dot_sorted(
                    probe.features.indices(),
                    probe.features.values(),
                    &row.indices,
                    &row.values,
                );
                if dot <= 0.0 {
                    continue;
                }
                let hit = Hit {
                    score: dot / (probe.norm * row_norm),
                    athlete: row.athlete,
                    city: row.city,
                };
                for per_size in top[pi].iter_mut().skip(first_size) {
                    push_topk(per_size, hit, 3);
                }
            }
        }
        (top, tracks)
    }

    fn flatten(top: &TopHits) -> Vec<(u32, u64, u32)> {
        top.iter().flatten().flatten().map(|h| (h.score.to_bits(), h.athlete, h.city)).collect()
    }

    #[test]
    fn pruned_scan_matches_naive_reference() {
        let cfg = tiny_cfg("naive", 24);
        let exec = Executor::new(2);
        build_store(&cfg, &exec).expect("build");
        let store = FeatureStore::open(&cfg.store_dir).expect("open");
        let vocabulary = fit_vocabulary(&cfg.population, &exec);
        let probes = build_probes(&cfg, &vocabulary, &exec);
        assert!(!probes.is_empty(), "need probes for the comparison to mean anything");
        let sigs: Vec<OverlapSig> =
            probes.iter().map(|p| OverlapSig::new(p.features.indices())).collect();
        let mut row = RowBuf::default();
        for s in 0..store.manifest().shards.len() {
            let Partial { top, tracks, .. } =
                scan_shard(&store, s, &probes, &sigs, &cfg.pop_sizes, &mut row).expect("scan");
            let (naive_top, naive_tracks) = naive_scan(&store, s, &probes, &cfg.pop_sizes);
            assert_eq!(tracks, naive_tracks, "shard {s} track counts diverged");
            assert_eq!(flatten(&top), flatten(&naive_top), "shard {s} hits diverged");
        }
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }

    #[test]
    fn ann_sweep_is_thread_invariant_and_tracks_match_exact() {
        let mut cfg = tiny_cfg("annsweep", 24);
        cfg.ann = Some(AnnSettings { centroids: 8, nprobe: 3 });
        let base = scale_sweep(&cfg, &Executor::new(1)).expect("sweep t1");
        let wide = scale_sweep(&cfg, &Executor::new(4)).expect("sweep t4");
        assert_eq!(base, wide, "ANN sweep must be bit-identical at any thread count");

        let ann = base.ann.as_ref().expect("ANN accounting present");
        assert_eq!((ann.centroids, ann.nprobe), (8, 3));
        assert!(ann.rows_scanned <= ann.rows_total);
        assert_eq!(ann.recall3.len(), base.points.len());
        assert!(ann.recall3.iter().all(|r| (0.0..=1.0).contains(r)));
        assert!(base.to_json().contains("\"ann\": {"));

        // Exact mode over the same store: identical track counts, and
        // a JSON rendering with no ANN section at all (byte-compatible
        // with builds that predate the index).
        let mut exact_cfg = cfg.clone();
        exact_cfg.ann = None;
        let exact = scale_sweep(&exact_cfg, &Executor::new(2)).expect("exact sweep");
        assert!(exact.ann.is_none());
        assert!(!exact.to_json().contains("\"ann\""));
        let ann_tracks: Vec<u64> = base.points.iter().map(|p| p.tracks).collect();
        let exact_tracks: Vec<u64> = exact.points.iter().map(|p| p.tracks).collect();
        assert_eq!(ann_tracks, exact_tracks, "posting lists must cover every row");

        // Probing every posting list rescores every row with the exact
        // scan's scoring, so the IVF sweep must reproduce it.
        let mut every_list = cfg.clone();
        every_list.ann = Some(AnnSettings { centroids: 8, nprobe: 8 });
        let full = scale_sweep(&every_list, &Executor::new(2)).expect("every-list sweep");
        assert_eq!(full.points, exact.points, "probing every list must match the exact scan");
        let full_ann = full.ann.as_ref().expect("ANN accounting present");
        assert!(full_ann.recall3.iter().all(|&r| r == 1.0), "recall@3 {:?}", full_ann.recall3);
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }

    #[test]
    fn ann_recall_meets_floor_at_thousand_athletes() {
        let mut cfg = ScaleConfig::new(1000, 99);
        cfg.population.shard_size = 128;
        cfg.pop_sizes = vec![300, 1000];
        cfg.probes_per_city = 2;
        cfg.store_dir =
            std::env::temp_dir().join(format!("elev-scale-recall-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
        cfg.ann = Some(AnnSettings::default());

        let report = scale_sweep(&cfg, &Executor::new(4)).expect("sweep");
        let ann = report.ann.expect("ANN accounting present");
        for (p, r) in report.points.iter().zip(&ann.recall3) {
            assert!(*r >= 0.95, "recall@3 {:.3} at pool {} below floor", r, p.athletes);
        }
        assert!(
            ann.rows_scanned * 2 < ann.rows_total,
            "IVF scan rescored {}/{} pairs — not under half the exact scan's work",
            ann.rows_scanned,
            ann.rows_total
        );
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }

    #[test]
    fn grown_store_matches_fresh_build_bit_for_bit() {
        // Doubling a population of whole shards appends shards in place
        // (generation bump) instead of refitting and rewriting everything.
        let (build, generation, path) = grow_and_match_fresh_build("grow", 16, 32);
        assert_eq!((build.reused, build.appended, build.shards, generation), (false, 2, 4, 2));
        assert_eq!(path, Ensured::Extended, "whole appended shards extend the index");
    }

    #[test]
    fn grown_partial_store_rebuilds_store_and_index() {
        // 12 athletes in shards of 8 end in a partial shard, so growing
        // to 24 rewrites every shard and publishes the next generation
        // (2: a rebuild never reuses a number); the index must rebuild
        // rather than extend past a stale sidecar.
        let (build, generation, path) = grow_and_match_fresh_build("grow-partial", 12, 24);
        assert_eq!((build.reused, build.appended, build.shards, generation), (false, 0, 3, 2));
        assert_eq!(path, Ensured::Built, "a rewritten shard rebuilds the index");
    }

    /// Sweeps `from` athletes with the IVF index on, grows the population
    /// to `to`, and requires the grown store and index to match a
    /// from-scratch build at `to`. Returns the grow's build report, the
    /// grown store's generation and the path the index took.
    fn grow_and_match_fresh_build(tag: &str, from: usize, to: usize) -> (StoreBuildReport, u64, Ensured) {
        let exec = Executor::new(2);
        let mut small = tiny_cfg(tag, from);
        small.ann = Some(AnnSettings { centroids: 8, nprobe: 3 });
        scale_sweep(&small, &exec).expect("small sweep");

        let mut grown = small.clone();
        grown.population.athletes = to;
        grown.pop_sizes = vec![from, to];
        let build = build_store(&grown, &exec).expect("grow");
        let store = FeatureStore::open(&grown.store_dir).expect("open grown");
        let (index, path) = AnnIndex::ensure(&store, 8, grown.population.seed, &exec).expect("index");
        let entries: Vec<u64> = index.manifest().shards.iter().map(|s| s.entries).collect();
        let rows: Vec<u64> = store.manifest().shards.iter().map(|s| s.rows).collect();
        assert_eq!(entries, rows, "every sidecar must index its shard as stored");
        let grown_report = scale_sweep(&grown, &exec).expect("grown sweep");

        // A from-scratch build of the same population must agree.
        let mut fresh = grown.clone();
        fresh.store_dir =
            std::env::temp_dir().join(format!("elev-scale-{tag}-fresh-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&fresh.store_dir);
        let fresh_report = scale_sweep(&fresh, &exec).expect("fresh sweep");
        assert_eq!(grown_report, fresh_report, "grown and fresh sweeps diverged");

        // Beyond report equality: every shard payload and every ANN
        // sidecar (codebook included) is byte-identical; only the two
        // manifests may differ, by generation.
        let fresh_store = FeatureStore::open(&fresh.store_dir).expect("open fresh");
        assert_eq!(fresh_store.manifest().generation, 1);
        let shards = &store.manifest().shards;
        let mut files: Vec<String> = shards.iter().map(|s| s.file.clone()).collect();
        files.extend((0..shards.len()).map(annindex::ann_shard_file_name));
        files.push(annindex::CODEBOOK_FILE.to_string());
        for name in files {
            let a = std::fs::read(grown.store_dir.join(&name)).expect("grown file");
            let b = std::fs::read(fresh.store_dir.join(&name)).expect("fresh file");
            assert_eq!(a, b, "{name} diverged between grown and fresh builds");
        }

        // Re-running against the grown store is a pure reuse.
        let again = build_store(&grown, &exec).expect("reuse");
        assert!(again.reused);
        assert_eq!(again.appended, 0);
        let _ = std::fs::remove_dir_all(&grown.store_dir);
        let _ = std::fs::remove_dir_all(&fresh.store_dir);
        (build, store.manifest().generation, path)
    }

    #[test]
    fn a_reused_store_of_another_width_is_refused() {
        let cfg = tiny_cfg("width", 16);
        let exec = Executor::new(2);
        let build = build_store(&cfg, &exec).expect("build");
        // Republish every shard and the manifest one column wider, so
        // headers and manifest agree, as a store featurized before a
        // vocabulary change would.
        let store = FeatureStore::open(&cfg.store_dir).expect("open");
        let mut m = store.manifest().clone();
        m.n_cols += 1;
        for s in 0..m.shards.len() {
            let mut reader = store.reader(s).expect("reader");
            let (mut row, mut rows) = (RowBuf::default(), Vec::new());
            while reader.next_row(&mut row).expect("row") {
                rows.push(row.clone());
            }
            let mut w = ShardWriter::create(&cfg.store_dir, s, m.n_cols, m.config).expect("create");
            for r in &rows {
                w.append_row(r.athlete, r.city, r.activity, &r.indices, &r.values).expect("append");
            }
            w.finish().expect("finish");
        }
        m.generation = durable::Generation::next(&cfg.store_dir, &featstore::STORE);
        FeatureStore::publish_manifest(&cfg.store_dir, &m).expect("republish");

        let err = scale_sweep(&cfg, &exec).expect_err("a store of another width is refused");
        assert_eq!(err.name(), "malformed");
        let msg = err.to_string();
        let (stored, fitted) = (build.n_cols + 1, build.n_cols);
        assert!(
            msg.contains(&format!("{stored} features wide"))
                && msg.contains(&format!("fitted now is {fitted} wide")),
            "error must name both widths: {msg}"
        );
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }

    #[test]
    fn vocabulary_and_probes_are_thread_invariant() {
        let cfg = tiny_cfg("vocab-threads", 24);
        let (one, four) = (Executor::new(1), Executor::new(4));
        let profiles = shard0_profiles(&cfg.population, &four);
        let shard0 = cfg.population.generate_shard(&cfg.population.terrain(), 0);
        let expected: Vec<Vec<f64>> = shard0
            .athletes
            .iter()
            .flat_map(|a| &a.activities)
            .map(|a| a.elevation_profile())
            .collect();
        assert_eq!(shard0_profiles(&cfg.population, &one), expected);
        assert_eq!(profiles, expected, "shard-0 profiles must keep id order on any executor");

        let a = fit_vocabulary(&cfg.population, &one);
        let b = fit_vocabulary(&cfg.population, &four);
        assert_eq!(a.n_features(), b.n_features());
        assert_eq!(a.features(), b.features());
        assert_eq!(a.codebook(), b.codebook());

        let key = |p: &Probe| {
            let dense: Vec<u32> = p.dense.iter().map(|v| v.to_bits()).collect();
            (p.athlete, p.city, p.features.clone(), p.norm.to_bits(), dense)
        };
        let probes_one: Vec<_> = build_probes(&cfg, &a, &one).iter().map(key).collect();
        let probes_four: Vec<_> = build_probes(&cfg, &b, &four).iter().map(key).collect();
        assert!(!probes_one.is_empty());
        assert_eq!(probes_one, probes_four);
    }

    /// A sorted sparse vector over `0..bound`: non-negative values, some
    /// exactly zero, possibly empty.
    fn sparse(bound: u32, max_nnz: usize) -> impl Strategy<Value = (Vec<u32>, Vec<f32>)> {
        let value = prop_oneof![Just(0.0f32), 0.0f32..1.0];
        prop::collection::vec((0..bound, value), 0..max_nnz).prop_map(|mut pairs| {
            pairs.sort_by_key(|&(i, _)| i);
            pairs.dedup_by_key(|&mut (i, _)| i);
            pairs.into_iter().unzip()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn dense_score_is_the_merge_join_bit_for_bit(
            (width, (p_idx, p_val), (r_idx, r_val)) in (1u32..48)
                .prop_flat_map(|w| (Just(w), sparse(w, 24), sparse(w + 16, 32))),
        ) {
            let probe = Probe::new(7, 3, SparseVec::new(width as usize, p_idx, p_val));
            let row = RowBuf { athlete: 11, city: 2, activity: 0, indices: r_idx, values: r_val };
            let row_norm = l2(&row.values);
            // The scan's formula before dense probes.
            let p = &probe.features;
            let dot = dot_sorted(p.indices(), p.values(), &row.indices, &row.values);
            let expected = (row_norm != 0.0 && dot > 0.0)
                .then(|| ((dot / (probe.norm * row_norm)).to_bits(), row.athlete, row.city));
            let got = probe.score(&row, row_norm).map(|h| (h.score.to_bits(), h.athlete, h.city));
            prop_assert_eq!(got, expected);
            // A row scored with a zero norm is dropped whatever its dot.
            prop_assert!(probe.score(&row, 0.0).is_none());
        }

        #[test]
        fn push_topk_is_independent_of_visit_order(
            hits in prop::collection::vec((0u8..6, 0u64..12, 0u32..3), 0..40),
            order in prop::collection::vec(0u64..u64::MAX, 40),
            k in 1usize..6,
        ) {
            // Few distinct scores and athletes, so ties and repeat
            // athletes are common; draw 0 scores +0.0 and draw 5 -0.0,
            // which `total_cmp` orders apart.
            let hits: Vec<Hit> = hits
                .into_iter()
                .map(|(s, athlete, city)| {
                    let score = if s == 5 { -0.0 } else { f32::from(s) * 0.25 };
                    Hit { score, athlete, city }
                })
                .collect();
            let mut shuffled: Vec<(u64, Hit)> = order.iter().copied().zip(hits.clone()).collect();
            shuffled.sort_by_key(|&(key, _)| key);
            let key = |top: &[Hit]| -> Vec<(u32, u64, u32)> {
                top.iter().map(|h| (h.score.to_bits(), h.athlete, h.city)).collect()
            };

            let (mut visited, mut reshuffled) = (Vec::new(), Vec::new());
            for &h in &hits {
                push_topk(&mut visited, h, k);
            }
            for &(_, h) in &shuffled {
                push_topk(&mut reshuffled, h, k);
            }
            prop_assert_eq!(key(&visited), key(&reshuffled));

            // Both are the first k of every athlete's best hit.
            let mut best: Vec<Hit> = Vec::new();
            for h in &hits {
                match best.iter_mut().find(|b| b.athlete == h.athlete) {
                    Some(b) if hit_order(h, b).is_lt() => *b = *h,
                    Some(_) => {}
                    None => best.push(*h),
                }
            }
            best.sort_by(hit_order);
            best.truncate(k);
            prop_assert_eq!(key(&visited), key(&best));
        }
    }
}
