//! The robustness experiment: attack accuracy vs corruption rate.
//!
//! The paper's evaluation assumes clean recordings. This module asks
//! how the attack degrades when the corpus is damaged the way real
//! fitness exports are: each track is run through the `faultsim`
//! corruption plan, then through the [`crate::ingest`] repair/
//! quarantine pipeline, and the text attack is re-evaluated on the
//! surviving corpus. The sweep reports, per corruption rate:
//!
//! - attack accuracy for TM-1 (user-specific) and TM-3 (city-level),
//! - the full ingestion disposition (clean / repaired / quarantined),
//! - a ground-truth accounting of every injected fault kind, and
//! - substrate stats for the DEM-void and flaky-service fault models.
//!
//! Everything derives from `(plan seed, stable track index)`, so a
//! sweep is bit-identical across thread counts and re-runs.

use crate::experiments::{balanced_top_classes, Corpora, ExperimentScale};
use crate::ingest::{ingest_batch, Disposition, IngestReport};
use crate::text::{evaluate_text, TextAttackConfig, TextModel};
use datasets::{Dataset, Sample};
use evalkit::FoldOutcome;
use faultsim::dem::{fill_voids, punch_voids};
use faultsim::{corrupt_track, FaultKind, FaultPlan, FlakyElevationService, FlakyStats, Payload};
use geoprim::LatLon;
use gpxfile::{Gpx, Track, TrackPoint, TrackSegment};
use terrain::{CityId, ElevationModel, RasterDem, SyntheticTerrain};
use textrep::Discretizer;

/// The corruption rates the stock sweep visits (0 is the invariance
/// anchor: it must reproduce the clean corpus exactly).
pub const DEFAULT_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];

/// Ground-truth accounting for one injected fault kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindAccount {
    /// The fault kind.
    pub kind: FaultKind,
    /// Tracks this kind was injected into.
    pub injected: usize,
    /// …of which were accepted after repair.
    pub repaired: usize,
    /// …of which were quarantined.
    pub quarantined: usize,
    /// …of which slipped through undetected (accepted as clean).
    pub undetected: usize,
}

/// One `(rate, threat model)` cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessPoint {
    /// Threat-model label ("TM-1" / "TM-3").
    pub setting: String,
    /// Track corruption rate of the plan.
    pub rate: f64,
    /// Attack metrics on the surviving corpus.
    pub outcome: FoldOutcome,
    /// Folds actually used (shrunk when quarantine thins a class).
    pub folds: usize,
    /// The full ingestion report.
    pub report: IngestReport,
    /// Per-kind ground-truth accounting (every injected fault lands in
    /// exactly one of repaired / quarantined / undetected).
    pub accounting: Vec<KindAccount>,
}

/// Degradation stats for the non-track fault models at one rate.
#[derive(Debug, Clone, PartialEq)]
pub struct SubstrateStats {
    /// The plan's track corruption rate (void/service rates are ¼ of
    /// it, see [`FaultPlan::uniform`]).
    pub rate: f64,
    /// Cells in the probe DEM.
    pub dem_cells: usize,
    /// NODATA voids punched into it.
    pub dem_voids: usize,
    /// Voids repaired by neighbour-mean filling.
    pub dem_filled: usize,
    /// Worst repair error across probe points, metres.
    pub dem_worst_err_m: f64,
    /// Flaky elevation-service accounting over the probe workload.
    pub service: FlakyStats,
    /// Probe requests that exhausted the retry budget.
    pub service_errors: u64,
}

/// Reconstructs a GPX document from a dataset sample so `faultsim` can
/// corrupt it like a real upload. When the sample kept its trajectory
/// the points are zipped with the profile; stripped samples get a
/// synthetic straight-line path (the attack never reads coordinates).
pub fn sample_to_gpx(sample: &Sample) -> Gpx {
    let n = sample.elevation.len();
    let coord_at = |i: usize| -> LatLon {
        match &sample.path {
            Some(path) if path.len() == n => path[i],
            _ => LatLon::new(38.0 + i as f64 * 1e-5, -77.0),
        }
    };
    let points = sample
        .elevation
        .iter()
        .enumerate()
        .map(|(i, &e)| TrackPoint::with_elevation(coord_at(i), e))
        .collect();
    Gpx {
        creator: "robustness".into(),
        tracks: vec![Track { name: None, segments: vec![TrackSegment { points }] }],
    }
}

/// Corrupts a dataset with `plan`, ingests it, and rebuilds the
/// surviving corpus. Returns the survivors (quarantined samples
/// dropped, repaired profiles substituted), the ingestion report, and
/// the ground-truth fault accounting.
pub fn ingest_dataset(
    ds: &Dataset,
    plan: &FaultPlan,
) -> (Dataset, IngestReport, Vec<KindAccount>) {
    let (sources, injected): (Vec<Payload>, Vec<Vec<FaultKind>>) = ds
        .samples()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let out = corrupt_track(plan, i as u64, &sample_to_gpx(s));
            (out.payload, out.injected)
        })
        .unzip();
    let (profiles, report) = ingest_batch(&sources, &exec::Executor::from_env());

    let mut survivors = Dataset::new(ds.label_names().to_vec());
    for (i, profile) in profiles.into_iter().enumerate() {
        if let Some(elevation) = profile {
            let s = &ds.samples()[i];
            survivors
                .push(Sample { elevation, label: s.label, path: s.path.clone() })
                .expect("label came from the same dataset");
        }
    }

    let accounting = FaultKind::ALL
        .into_iter()
        .map(|kind| {
            let mut acc = KindAccount {
                kind,
                injected: 0,
                repaired: 0,
                quarantined: 0,
                undetected: 0,
            };
            for (track, injected) in report.tracks.iter().zip(&injected) {
                if !injected.contains(&kind) {
                    continue;
                }
                acc.injected += 1;
                match &track.disposition {
                    Disposition::Clean => acc.undetected += 1,
                    Disposition::Repaired(_) => acc.repaired += 1,
                    Disposition::Quarantined(_) => acc.quarantined += 1,
                }
            }
            acc
        })
        .collect();
    (survivors, report, accounting)
}

/// Runs the accuracy-vs-corruption sweep for TM-1 and TM-3 at every
/// rate in `rates`, evaluating the MLP text attack on each surviving
/// corpus. `plan_seed` drives the corruption, `seed` the evaluation.
pub fn robustness_sweep(
    corpora: &Corpora,
    scale: &ExperimentScale,
    seed: u64,
    plan_seed: u64,
    rates: &[f64],
) -> Vec<RobustnessPoint> {
    let tm3_classes = 5.min(corpora.city.n_classes());
    let settings: Vec<(&str, Dataset, Discretizer)> = vec![
        ("TM-1", corpora.user.clone(), Discretizer::Floor),
        (
            "TM-3",
            balanced_top_classes(&corpora.city, tm3_classes, seed),
            Discretizer::mined(),
        ),
    ];
    let mut points = Vec::new();
    for &rate in rates {
        let plan = FaultPlan::uniform(rate, plan_seed);
        for (name, ds, disc) in &settings {
            let (survivors, report, accounting) = ingest_dataset(ds, &plan);
            // Quarantine thins classes; shrink folds so every fold keeps
            // at least one sample of each class.
            let min_class = survivors
                .class_counts()
                .into_iter()
                .filter(|&c| c > 0)
                .min()
                .unwrap_or(0);
            let folds = scale.folds.min(min_class).max(2);
            let cfg = TextAttackConfig {
                folds,
                mlp_epochs: scale.mlp_epochs,
                seed,
                ..Default::default()
            };
            let outcome = evaluate_text(&survivors, *disc, TextModel::Mlp, &cfg).outcome();
            points.push(RobustnessPoint {
                setting: (*name).to_owned(),
                rate,
                outcome,
                folds,
                report,
                accounting,
            });
        }
    }
    points
}

/// Exercises the DEM-void and flaky-service fault models at each rate
/// with a fixed probe workload (a 48×48 Miami raster and 160 path
/// lookups), reporting repair quality and retry accounting.
pub fn substrate_sweep(rates: &[f64], plan_seed: u64) -> Vec<SubstrateStats> {
    let terrain = SyntheticTerrain::new(plan_seed);
    let bbox = terrain.catalog().city(CityId::Miami).bbox;
    let dem = RasterDem::sample_from(&terrain, bbox, 48, 48);
    let probes: Vec<LatLon> = (1..31)
        .map(|i| {
            LatLon::new(
                bbox.south_west().lat + bbox.lat_span() * i as f64 / 31.0,
                bbox.south_west().lon + bbox.lon_span() * i as f64 / 31.0,
            )
        })
        .collect();
    let path = vec![probes[0], probes[14], probes[29]];

    rates
        .iter()
        .map(|&rate| {
            let plan = FaultPlan::uniform(rate, plan_seed);
            let (voided, punched) = punch_voids(&dem, plan.dem_void_rate, plan.seed);
            let (filled, repaired) = fill_voids(&voided);
            let worst = probes
                .iter()
                .map(|&p| (filled.elevation_at(p) - dem.elevation_at(p)).abs())
                .fold(0.0f64, f64::max);

            let svc = FlakyElevationService::new(
                SyntheticTerrain::new(plan_seed),
                plan.service_failure_rate,
                plan.seed,
            );
            let mut errors = 0u64;
            for _ in 0..160 {
                if svc.sample_path(&path, 32).is_err() {
                    errors += 1;
                }
            }
            SubstrateStats {
                rate,
                dem_cells: {
                    let (r, c) = dem.dims();
                    r * c
                },
                dem_voids: punched,
                dem_filled: repaired,
                dem_worst_err_m: worst,
                service: svc.stats(),
                service_errors: errors,
            }
        })
        .collect()
}

/// Sanity invariant used by tests and `scripts/verify.sh`: at rate 0
/// the surviving corpus must be the input corpus, exactly.
pub fn zero_rate_is_identity(ds: &Dataset, plan_seed: u64) -> bool {
    let (survivors, report, _) = ingest_dataset(ds, &FaultPlan::uniform(0.0, plan_seed));
    report.clean() == ds.len()
        && report.repaired() == 0
        && report.quarantined() == 0
        && survivors.len() == ds.len()
        && survivors
            .samples()
            .iter()
            .zip(ds.samples())
            .all(|(a, b)| {
                a.label == b.label
                    && a.elevation.len() == b.elevation.len()
                    && a.elevation
                        .iter()
                        .zip(&b.elevation)
                        .all(|(x, y)| x.to_bits() == y.to_bits())
            })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentScale;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            dataset_fraction: 0.04,
            folds: 3,
            cnn_epochs: 2,
            mlp_epochs: 10,
            min_per_class: 9,
        }
    }

    #[test]
    fn zero_rate_reproduces_the_clean_corpus() {
        let corpora = Corpora::generate(11, &tiny_scale());
        assert!(zero_rate_is_identity(&corpora.user, FaultPlan::DEFAULT_SEED));
        assert!(zero_rate_is_identity(&corpora.city, 777));
    }

    #[test]
    fn sweep_accounts_for_every_injected_fault() {
        let corpora = Corpora::generate(12, &tiny_scale());
        let points =
            robustness_sweep(&corpora, &tiny_scale(), 1, 5, &[0.0, 0.2]);
        assert_eq!(points.len(), 4);
        for p in &points {
            assert_eq!(
                p.report.clean() + p.report.repaired() + p.report.quarantined(),
                p.report.tracks.len()
            );
            for acc in &p.accounting {
                assert_eq!(
                    acc.injected,
                    acc.repaired + acc.quarantined + acc.undetected,
                    "{} unaccounted at rate {}",
                    acc.kind,
                    p.rate
                );
            }
            if p.rate == 0.0 {
                assert_eq!(p.report.clean(), p.report.tracks.len());
                assert!(p.accounting.iter().all(|a| a.injected == 0));
            } else {
                assert!(p.accounting.iter().any(|a| a.injected > 0));
            }
            assert!(p.outcome.accuracy >= 0.0 && p.outcome.accuracy <= 1.0);
        }
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let corpora = Corpora::generate(13, &tiny_scale());
        let run = |threads: &str| {
            std::env::set_var("ELEV_THREADS", threads);
            let out = robustness_sweep(&corpora, &tiny_scale(), 2, 9, &[0.25]);
            std::env::remove_var("ELEV_THREADS");
            out
        };
        assert_eq!(run("1"), run("4"));
    }

    #[test]
    fn substrate_sweep_scales_with_rate() {
        let stats = substrate_sweep(&[0.0, 0.4], 3);
        assert_eq!(stats[0].dem_voids, 0);
        assert_eq!(stats[0].service.transient_failures, 0);
        assert_eq!(stats[0].service_errors, 0);
        assert!(stats[1].dem_voids > 0);
        assert_eq!(stats[1].dem_filled, stats[1].dem_voids);
        assert!(stats[1].service.transient_failures > 0);
        assert!(stats[1].dem_worst_err_m < 20.0);
    }

    #[test]
    fn stripped_samples_still_corrupt_and_ingest() {
        let corpora = Corpora::generate(14, &tiny_scale());
        let stripped = corpora.user.stripped();
        let (survivors, report, _) = ingest_dataset(&stripped, &FaultPlan::uniform(0.5, 6));
        assert_eq!(report.tracks.len(), stripped.len());
        assert!(!survivors.is_empty());
    }
}
