//! Canonical pipeline-stage artifacts for the golden registry.
//!
//! Each stage regenerates one link of the attack chain from a fixed
//! seed — synthetic tracks → GPX bytes → ingested elevation profiles →
//! text-side BoW vectors → image-side rasters → per-model metrics —
//! and reduces it to a content digest plus a human-readable summary.
//! The summaries exist so a digest mismatch reads as "the BoW stage
//! now emits 1021 features instead of 1024", not as a raw hex diff.
//!
//! Everything here must be a pure function of `seed`: no wall-clock,
//! no thread-count dependence (the executor layers are order-free by
//! construction), no environment reads.

use durable::Digest;
use elev_core::experiments::{table4_tm1, Corpora, ExperimentScale};
use elev_core::ingest::{ingest_batch, IngestConfig, TrackSource};
use elev_core::robustness::robustness_sweep;
use elev_core::scale::{fit_vocabulary, push_topk, recall_at3, Probe};
use faultsim::{corrupt_track, FaultPlan, Payload};
use imgrep::{render, ImageConfig};
use neuralnet::finetune::{fine_tune, make_rounds, FineTuneConfig};
use neuralnet::loss::inverse_frequency_weights;
use neuralnet::models::paper_cnn;
use neuralnet::{train, Sequential, TrainConfig, TrainReport};
use routegen::{Activity, AthleteSimulator};
use tensorlite::Tensor;
use terrain::{CityId, SyntheticTerrain};
use textrep::{Discretizer, FeatureSelection, TextPipeline};

/// One pinned pipeline stage: its digest and a summary for diffs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageArtifact {
    /// Stable stage name (`layer.artifact`).
    pub name: &'static str,
    /// Content digest of the stage output.
    pub digest: u64,
    /// Deterministic human-readable description of the output's shape
    /// (counts, lengths, feature dims) — the structured half of a diff.
    pub summary: String,
}

/// Every registered stage name, in pipeline order.
pub const STAGE_NAMES: [&str; 13] = [
    "routegen.tracks",
    "gpx.bytes",
    "ingest.clean",
    "ingest.faulted",
    "textrep.bow",
    "imgrep.raster",
    "metrics.table4",
    "metrics.robustness",
    "serve.report",
    "ingest.stream",
    "corpus.shard",
    "ann.sweep",
    "cnn.train",
];

/// The scale every conformance artifact is computed at: small enough
/// that the whole registry regenerates in seconds, large enough that
/// all three classifiers, the folds machinery, and the quarantine
/// pipeline actually execute.
pub fn conformance_scale() -> ExperimentScale {
    ExperimentScale {
        dataset_fraction: 0.04,
        folds: 3,
        cnn_epochs: 2,
        mlp_epochs: 10,
        min_per_class: 9,
    }
}

/// Generates the small fixed track set shared by the front-of-pipeline
/// stages (two metros with distinct relief, four activities each).
fn track_set(seed: u64) -> Vec<Activity> {
    let mut activities = Vec::new();
    for (i, metro) in [CityId::WashingtonDc, CityId::ColoradoSprings].into_iter().enumerate() {
        let mut sim =
            AthleteSimulator::new(SyntheticTerrain::new(seed), exec::mix_seed(seed, i as u64));
        activities.extend(sim.generate(metro, 4));
    }
    activities
}

/// Computes every registered stage artifact from `seed`, in
/// [`STAGE_NAMES`] order.
pub fn compute_stages(seed: u64) -> Vec<StageArtifact> {
    let scale = conformance_scale();
    let mut out = Vec::with_capacity(STAGE_NAMES.len());

    // Stage 1: routegen tracks (trajectory + per-point elevation).
    let activities = track_set(seed);
    {
        let mut d = Digest::new();
        let mut points = 0usize;
        d.usize(activities.len());
        for a in &activities {
            d.str(a.metro.abbrev());
            let traj = a.trajectory();
            points += traj.len();
            d.usize(traj.len());
            for p in &traj {
                d.f64(p.lat).f64(p.lon);
            }
            d.f64s(&a.elevation_profile());
        }
        out.push(StageArtifact {
            name: "routegen.tracks",
            digest: d.finish(),
            summary: format!("{} activities, {} points", activities.len(), points),
        });
    }

    // Stage 2: serialized GPX bytes.
    let gpx_bytes: Vec<Vec<u8>> =
        activities.iter().map(|a| a.gpx.to_xml().into_bytes()).collect();
    {
        let mut d = Digest::new();
        d.usize(gpx_bytes.len());
        for b in &gpx_bytes {
            d.bytes(b);
        }
        out.push(StageArtifact {
            name: "gpx.bytes",
            digest: d.finish(),
            summary: format!(
                "{} documents, {} bytes total",
                gpx_bytes.len(),
                gpx_bytes.iter().map(Vec::len).sum::<usize>()
            ),
        });
    }

    // Stage 3: clean ingestion (parse + validate; everything must pass
    // through untouched).
    let sources: Vec<TrackSource> =
        gpx_bytes.iter().map(|b| TrackSource::Raw(b.clone())).collect();
    let (profiles, report) =
        ingest_batch(&sources, &IngestConfig::default(), &exec::Executor::from_env());
    let clean_profiles: Vec<Vec<f64>> = profiles.into_iter().flatten().collect();
    {
        let mut d = Digest::new();
        d.usize(clean_profiles.len());
        for p in &clean_profiles {
            d.f64s(p);
        }
        d.str(&report.to_json());
        out.push(StageArtifact {
            name: "ingest.clean",
            digest: d.finish(),
            summary: format!(
                "{} profiles ({} clean / {} repaired / {} quarantined), {} values",
                clean_profiles.len(),
                report.clean(),
                report.repaired(),
                report.quarantined(),
                clean_profiles.iter().map(Vec::len).sum::<usize>()
            ),
        });
    }

    // Stage 4: faulted ingestion — the same tracks through a 35%
    // corruption plan and the repair/quarantine pipeline.
    {
        let plan = FaultPlan::uniform(0.35, exec::mix_seed(seed, 0xFA17));
        let corrupted: Vec<TrackSource> = activities
            .iter()
            .enumerate()
            .map(|(i, a)| match corrupt_track(&plan, i as u64, &a.gpx).payload {
                Payload::Parsed(g) => TrackSource::Parsed(g),
                Payload::Raw(b) => TrackSource::Raw(b),
            })
            .collect();
        let (profiles, report) =
            ingest_batch(&corrupted, &IngestConfig::default(), &exec::Executor::from_env());
        let mut d = Digest::new();
        d.usize(profiles.len());
        for p in profiles.iter() {
            match p {
                Some(p) => d.f64s(p),
                None => d.str("quarantined"),
            };
        }
        d.str(&report.to_json());
        out.push(StageArtifact {
            name: "ingest.faulted",
            digest: d.finish(),
            summary: format!(
                "{} tracks at 35% corruption: {} clean / {} repaired / {} quarantined",
                report.tracks.len(),
                report.clean(),
                report.repaired(),
                report.quarantined()
            ),
        });
    }

    // Stage 5: text-side BoW features over the clean profiles.
    {
        let pipeline = TextPipeline::fit(
            Discretizer::Floor,
            4,
            FeatureSelection::standard(),
            &clean_profiles,
        );
        let features = pipeline.transform_all(&clean_profiles);
        let mut d = Digest::new();
        d.usize(pipeline.n_features()).usize(features.len());
        for f in &features {
            d.f32s(f);
        }
        out.push(StageArtifact {
            name: "textrep.bow",
            digest: d.finish(),
            summary: format!(
                "{} vectors x {} features",
                features.len(),
                pipeline.n_features()
            ),
        });
    }

    // Stage 6: image-side rasters over the clean profiles.
    let raster_cfg = ImageConfig::default();
    let rasters: Vec<Vec<f32>> =
        clean_profiles.iter().map(|p| render(p, &raster_cfg).pixels).collect();
    {
        let mut d = Digest::new();
        d.usize(clean_profiles.len());
        let mut lit = 0usize;
        for pixels in &rasters {
            lit += pixels.iter().filter(|&&v| v > 0.0).count();
            d.f32s(pixels);
        }
        out.push(StageArtifact {
            name: "imgrep.raster",
            digest: d.finish(),
            summary: format!(
                "{} rasters {}x{}, {} lit channel values",
                clean_profiles.len(),
                raster_cfg.width,
                raster_cfg.height,
                lit
            ),
        });
    }

    // Stages 7–8 run on the shared tiny corpora (the same generation
    // path every experiment binary uses).
    let corpora = Corpora::generate(seed, &scale);

    // Stage 7: Table IV metrics (SVM/RFC/MLP × folds × class sweeps).
    {
        let rows = table4_tm1(&corpora.user, &scale, seed);
        let mut d = Digest::new();
        d.usize(rows.len());
        for r in &rows {
            d.usize(r.classes)
                .usize(r.per_class)
                .str(&r.model.to_string())
                .usize(r.folds);
            digest_outcome(&mut d, &r.outcome);
        }
        let best = rows.iter().map(|r| r.outcome.accuracy).fold(0.0f64, f64::max);
        out.push(StageArtifact {
            name: "metrics.table4",
            digest: d.finish(),
            summary: format!("{} rows, best accuracy {:.4}", rows.len(), best),
        });
    }

    // Stage 8: the robustness sweep at one corruption rate (ties the
    // fault substrate, quarantine ingestion, and attack metrics into
    // one pinned artifact).
    {
        let points = robustness_sweep(
            &corpora,
            &scale,
            seed,
            exec::mix_seed(seed, 0x60_1D),
            &[0.2],
        );
        let mut d = Digest::new();
        d.usize(points.len());
        for p in &points {
            d.str(&p.setting).f64(p.rate).usize(p.folds);
            digest_outcome(&mut d, &p.outcome);
            d.str(&p.report.to_json());
            d.usize(p.accounting.len());
            for a in &p.accounting {
                d.str(a.kind.name())
                    .usize(a.injected)
                    .usize(a.repaired)
                    .usize(a.quarantined)
                    .usize(a.undetected);
            }
        }
        let quarantined: usize = points.iter().map(|p| p.report.quarantined()).sum();
        out.push(StageArtifact {
            name: "metrics.robustness",
            digest: d.finish(),
            summary: format!(
                "{} points at rate 0.20, {} tracks quarantined",
                points.len(),
                quarantined
            ),
        });
    }

    // Stage 9: the served leakage reports — status + exact body bytes
    // the inference server returns for every stage-2 GPX document,
    // plus two deterministic damaged variants that must quarantine.
    // `report_json` is the single pure function the HTTP layer calls,
    // so pinning it here pins the entire attack-as-a-service surface
    // (ingestion → featurization → three classifiers → JSON) behind
    // one digest.
    {
        let bundle =
            serve::ModelBundle::train(seed, &serve::BundleConfig::tiny());
        let mut docs = gpx_bytes.clone();
        // Truncation mid-document: fails the parser → `parse_failed`.
        docs.push(gpx_bytes[0][..gpx_bytes[0].len() / 2].to_vec());
        // Every second point duplicated: parses, but repairs touch more
        // than the corruption budget → `too_corrupt`.
        docs.push(duplicate_every_other_point(&gpx_bytes[0]));

        let mut arena = serve::InferenceArena::new();
        let mut d = Digest::new();
        let (mut ok, mut quarantined) = (0usize, 0usize);
        d.usize(docs.len());
        for doc in &docs {
            let (status, body) = bundle.report_json(doc, &mut arena);
            if status == 200 {
                ok += 1;
            } else {
                quarantined += 1;
            }
            d.usize(status as usize).str(&body);
        }
        out.push(StageArtifact {
            name: "serve.report",
            digest: d.finish(),
            summary: format!(
                "{} uploads: {} reported / {} quarantined",
                docs.len(),
                ok,
                quarantined
            ),
        });
    }

    // Stage 10: streaming ingestion — the zero-copy DOM-free path over
    // the same clean and faulted corpora, digested with the exact
    // stage-3 and stage-4 procedures. The stage digest is the pair of
    // component digests, so `ingest.stream` is pinned equal to
    // `ingest.clean`/`ingest.faulted` (checked by a unit test below):
    // if the streaming path ever drifts from the DOM path by one bit,
    // this pin breaks even though the DOM stages still pass.
    {
        let mut ing = elev_core::ingest::StreamingIngest::default();

        let (profiles, report) = ing.ingest_batch(&sources);
        let stream_clean: Vec<Vec<f64>> = profiles.into_iter().flatten().collect();
        let mut dc = Digest::new();
        dc.usize(stream_clean.len());
        for p in &stream_clean {
            dc.f64s(p);
        }
        dc.str(&report.to_json());
        let clean_digest = dc.finish();

        let plan = FaultPlan::uniform(0.35, exec::mix_seed(seed, 0xFA17));
        let corrupted: Vec<TrackSource> = activities
            .iter()
            .enumerate()
            .map(|(i, a)| match corrupt_track(&plan, i as u64, &a.gpx).payload {
                Payload::Parsed(g) => TrackSource::Parsed(g),
                Payload::Raw(b) => TrackSource::Raw(b),
            })
            .collect();
        let (profiles, report) = ing.ingest_batch(&corrupted);
        let mut df = Digest::new();
        df.usize(profiles.len());
        for p in profiles.iter() {
            match p {
                Some(p) => df.f64s(p),
                None => df.str("quarantined"),
            };
        }
        df.str(&report.to_json());
        let faulted_digest = df.finish();

        out.push(StageArtifact {
            name: "ingest.stream",
            digest: Digest::new().u64(clean_digest).u64(faulted_digest).finish(),
            summary: format!(
                "streaming replay of clean + faulted corpora: component digests {clean_digest:016x} / {faulted_digest:016x}"
            ),
        });
    }

    // Stage 11: the quick-scale population corpus — shard 0 of the
    // streaming generator, digested content-first (habit models,
    // trajectories, elevation profiles by bit pattern) plus the
    // canonical shard fingerprint. This pins the entire seed tree:
    // a change to the city/cadence domains, the per-(city, athlete)
    // seeding, or the habit-model defaults breaks this golden.
    {
        let pop = conformance_population(seed);
        let terrain = pop.terrain();
        let shard = pop.generate_shard(&terrain, 0);
        let mut d = Digest::new();
        d.u64(pop.fingerprint()).usize(shard.athletes.len());
        for a in &shard.athletes {
            d.u64(a.habits.id).str(a.habits.city.abbrev()).usize(a.habits.weekly_cadence);
            d.usize(a.activities.len());
            for act in &a.activities {
                d.f64s(&act.elevation_profile());
            }
        }
        d.u64(shard.fingerprint());
        out.push(StageArtifact {
            name: "corpus.shard",
            digest: d.finish(),
            summary: format!(
                "shard 0/{}: {} athletes, {} tracks, {} points, fingerprint {:016x}",
                pop.n_shards(),
                shard.athletes.len(),
                shard.tracks(),
                shard.points(),
                shard.fingerprint()
            ),
        });
    }

    // Stage 12: IVF probe matching over the quick-scale corpus, all in
    // memory — codebook training, posting-list assignment, probe
    // routing, and exact rescoring, digested next to the brute-force
    // reference hits. The on-disk sidecar bytes are pinned by
    // `tests/formats.rs` and their framing by the `durable` ladder;
    // this digest pins the *math*: any drift in centroid seeding,
    // assignment tie-breaks, or the rescoring order breaks this golden.
    // Vocabulary, probes, scoring, top-3 ranking and recall are the
    // shipped matcher's own (`elev_core::scale`), so this digest pins
    // the code the scale sweep runs.
    {
        let pop = conformance_population(seed);
        let terrain = pop.terrain();
        let exec = exec::Executor::from_env();
        let pipeline = fit_vocabulary(&pop, &exec);

        let mut rows: Vec<featstore::RowBuf> = Vec::new();
        let mut shard0_rows = 0usize;
        for s in 0..pop.n_shards() {
            let shard = pop.generate_shard(&terrain, s);
            for a in &shard.athletes {
                for (ai, act) in a.activities.iter().enumerate() {
                    let f = pipeline.transform_sparse(&act.elevation_profile());
                    rows.push(featstore::RowBuf {
                        athlete: a.habits.id,
                        city: a.habits.city_index as u32,
                        activity: ai as u32,
                        indices: f.indices().to_vec(),
                        values: f.values().to_vec(),
                    });
                }
            }
            if s == 0 {
                shard0_rows = rows.len();
            }
        }

        let (k, nprobe) = (16usize, 4usize);
        let codebook = annindex::Codebook::train(
            &rows[..shard0_rows],
            pipeline.n_features(),
            k,
            seed,
            &exec,
        );
        let mut lists: Vec<Vec<usize>> = vec![Vec::new(); codebook.k()];
        let norms: Vec<f32> = rows.iter().map(|r| annindex::l2(&r.values)).collect();
        for (ri, r) in rows.iter().enumerate() {
            lists[codebook.assign(&r.indices, &r.values) as usize].push(ri);
        }

        let mut d = Digest::new();
        d.usize(rows.len()).usize(codebook.k()).usize(nprobe).usize(pipeline.n_features());
        for list in &lists {
            d.usize(list.len());
        }

        let n_probes = 8u64;
        let (mut recall_sum, mut rescored) = (0.0f64, 0usize);
        for id in 0..n_probes {
            let probe = Probe::held_out(&pop, &terrain, id, &pipeline);
            let f = probe.features();
            let selected = codebook.top_centroids(f.indices(), f.values(), nprobe);
            let mut ann_top = Vec::new();
            for &c in &selected {
                for &ri in &lists[c as usize] {
                    rescored += 1;
                    if let Some(hit) = probe.score(&rows[ri], norms[ri]) {
                        push_topk(&mut ann_top, hit, 3);
                    }
                }
            }
            let mut exact_top = Vec::new();
            for (r, &rn) in rows.iter().zip(&norms) {
                if let Some(hit) = probe.score(r, rn) {
                    push_topk(&mut exact_top, hit, 3);
                }
            }
            recall_sum += recall_at3(&exact_top, &ann_top);

            d.u64(id);
            for &c in &selected {
                d.usize(c as usize);
            }
            for top in [&ann_top, &exact_top] {
                d.usize(top.len());
                for h in top {
                    d.f32s(&[h.score]).u64(h.athlete);
                }
            }
        }
        let recall = recall_sum / n_probes as f64;
        d.f64(recall);
        out.push(StageArtifact {
            name: "ann.sweep",
            digest: d.finish(),
            summary: format!(
                "{n_probes} probes x k={k}/nprobe={nprobe} over {} rows: recall@3 {recall:.4}, {rescored} of {} pairs rescored",
                rows.len(),
                rows.len() * n_probes as usize
            ),
        });
    }

    // Stage 13: the Fig. 7 CNN trained on the stage-6 rasters, once
    // with the weighted loss through `train` on two gradient lanes and
    // once through two fine-tuning rounds, digested by the bit pattern
    // of every trained weight plus the epoch losses. The labels are
    // synthetic: three classes in render order (3/3/2 of 8 rasters), so
    // the class weights differ and one of the two rounds drops a class.
    {
        let n = rasters.len();
        let (h, w) = (raster_cfg.height, raster_cfg.width);
        let x = Tensor::from_vec(rasters.concat(), &[n, 3, h, w]);
        let y: Vec<u32> = (0..n).map(|i| (i * 3 / n) as u32).collect();
        let mut d = Digest::new();
        d.usize(n);

        let mut weighted = paper_cnn(3, seed);
        let report = train(
            &mut weighted,
            &x,
            &y,
            &TrainConfig {
                epochs: 2,
                batch_size: 3,
                lr: 2e-3,
                seed,
                class_weights: Some(inverse_frequency_weights(&y, 3)),
                shards: Some(2),
            },
        );
        let n_params = digest_training(&mut d, &mut weighted, std::slice::from_ref(&report));

        let rounds = make_rounds(&y, 3, &[1], seed);
        let mut tuned = paper_cnn(3, seed);
        let reports = fine_tune(
            &mut tuned,
            &x,
            &y,
            &rounds,
            &FineTuneConfig {
                epochs_per_round: 2,
                batch_size: 3,
                lr: 2e-3,
                final_lr: 1e-3,
                seed,
                shards: Some(1),
            },
        );
        digest_training(&mut d, &mut tuned, &reports);
        out.push(StageArtifact {
            name: "cnn.train",
            digest: d.finish(),
            summary: format!(
                "paper CNN ({n_params} params) on {n} rasters: weighted loss at 2 lanes, final loss {:.4}; {} fine-tuning rounds, final loss {:.4}",
                report.final_loss(),
                reports.len(),
                reports.last().map_or(f32::NAN, |r| r.final_loss())
            ),
        });
    }

    debug_assert_eq!(out.len(), STAGE_NAMES.len());
    out
}

/// The quick-scale population the `corpus.shard` stage and the
/// shard-regeneration invariant share: 4 small shards, big enough to
/// hit several metros and cadences, small enough to regenerate in
/// milliseconds.
pub fn conformance_population(seed: u64) -> routegen::PopulationConfig {
    let mut pop = routegen::PopulationConfig::new(48, seed);
    pop.shard_size = 12;
    pop
}

/// Duplicates every second `<trkpt` line of a serialized GPX document
/// — consecutive identical points the ingest layer must deduplicate,
/// in volume past its corruption budget.
fn duplicate_every_other_point(doc: &[u8]) -> Vec<u8> {
    let xml = std::str::from_utf8(doc).expect("stage-2 GPX is UTF-8");
    let mut out = String::with_capacity(xml.len() * 2);
    let mut point_idx = 0usize;
    for line in xml.lines() {
        out.push_str(line);
        out.push('\n');
        if line.trim_start().starts_with("<trkpt") {
            if point_idx.is_multiple_of(2) {
                out.push_str(line);
                out.push('\n');
            }
            point_idx += 1;
        }
    }
    out.into_bytes()
}

/// Digests a trained network's epoch losses and the bit pattern of
/// every parameter; returns the parameter count.
fn digest_training(d: &mut Digest, net: &mut Sequential, reports: &[TrainReport]) -> usize {
    d.usize(reports.len());
    for r in reports {
        d.f32s(&r.epoch_losses);
    }
    let mut params = Vec::new();
    net.export_params(&mut params);
    d.f32s(&params);
    params.len()
}

fn digest_outcome(d: &mut Digest, o: &evalkit::FoldOutcome) {
    d.f64(o.accuracy)
        .f64(o.ovr_accuracy)
        .f64(o.precision)
        .f64(o.recall)
        .f64(o.f1)
        .f64(o.specificity);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_match_artifacts() {
        let stages = compute_stages(1);
        let names: Vec<&str> = stages.iter().map(|s| s.name).collect();
        assert_eq!(names, STAGE_NAMES);

        // The streaming stage's digest is the pair of its component
        // digests; recombining the DOM stages' digests must reproduce
        // it exactly — that equality IS the streaming-equals-DOM pin.
        let find = |n: &str| stages.iter().find(|s| s.name == n).expect("stage exists");
        let expected = Digest::new()
            .u64(find("ingest.clean").digest)
            .u64(find("ingest.faulted").digest)
            .finish();
        assert_eq!(
            find("ingest.stream").digest,
            expected,
            "streaming ingestion drifted from the DOM ingestion stages"
        );
    }
}
