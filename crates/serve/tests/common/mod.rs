//! Shared fixtures for the serve integration tests: deterministic GPX
//! documents in three ingestion regimes, plus one lazily trained tiny
//! bundle (training is the expensive part; every test file shares it).
//!
//! Each integration-test binary uses a different subset of these.
#![allow(dead_code)]

use gpxfile::Gpx;
use routegen::{AthleteConfig, AthleteSimulator};
use serve::bundle::{BundleConfig, ModelBundle};
use std::sync::OnceLock;
use terrain::{CityId, SyntheticTerrain};

/// Every fixture and bundle in the harness derives from this seed.
pub const SEED: u64 = 0xE1EF_57A7;

/// A pristine synthetic activity (parses clean, zero repairs).
pub fn clean_gpx() -> Vec<u8> {
    let mut sim = AthleteSimulator::new(SyntheticTerrain::new(SEED), SEED);
    let activity = sim.generate(CityId::WashingtonDc, 1).remove(0);
    activity.gpx.to_xml().into_bytes()
}

/// The first `points` trackpoints of one long synthetic activity (a
/// 60 km route in Washington DC, about 5 000 points), which ingests
/// clean. Its relief is the terrain's, so both tasks' vocabularies
/// match its features even at 40 points.
pub fn clean_track(points: usize) -> Gpx {
    let config = AthleteConfig { length_m_range: (60_000.0, 60_000.0), ..AthleteConfig::default() };
    let mut sim = AthleteSimulator::with_config(SyntheticTerrain::new(SEED), SEED, config);
    let mut gpx = sim.generate(CityId::WashingtonDc, 1).remove(0).gpx;
    let route = &mut gpx.tracks[0].segments[0].points;
    assert!(route.len() >= points, "the route has only {} points", route.len());
    route.truncate(points);
    gpx
}

/// Duplicates every `stride`-th track-point line `copies` times —
/// consecutive identical points, which ingestion deduplicates (each
/// removed point counts toward the repaired fraction).
fn duplicate_points(xml: &str, stride: usize, copies: usize) -> String {
    let mut out = String::with_capacity(xml.len() * 2);
    let mut point_idx = 0usize;
    for line in xml.lines() {
        out.push_str(line);
        out.push('\n');
        if line.trim_start().starts_with("<trkpt") {
            if point_idx.is_multiple_of(stride) {
                for _ in 0..copies {
                    out.push_str(line);
                    out.push('\n');
                }
            }
            point_idx += 1;
        }
    }
    out
}

/// A recoverable upload: ~10% duplicated points plus two elevation
/// spikes — ingestion repairs it (`dedup` + `despike`) and the report
/// still carries predictions.
pub fn faulted_gpx() -> Vec<u8> {
    let xml = String::from_utf8(clean_gpx()).expect("gpx is utf-8");
    let mut out = duplicate_points(&xml, 10, 1);
    // Spike two well-separated mid-track elevations far past the 40 m
    // despike threshold.
    for (nth, spiked) in [(20, "<ele>9000.0000</ele>"), (40, "<ele>9500.0000</ele>")] {
        let mut seen = 0usize;
        let mut replaced = String::with_capacity(out.len());
        for line in out.lines() {
            if line.trim_start().starts_with("<trkpt") {
                seen += 1;
                if seen == nth {
                    let start = line.find("<ele>").expect("point has an elevation");
                    let end = line.find("</ele>").expect("point has an elevation") + "</ele>".len();
                    replaced.push_str(&line[..start]);
                    replaced.push_str(spiked);
                    replaced.push_str(&line[end..]);
                    replaced.push('\n');
                    continue;
                }
            }
            replaced.push_str(line);
            replaced.push('\n');
        }
        out = replaced;
    }
    out.into_bytes()
}

/// An untrustworthy upload: ~50% duplicated points, so repairs touch
/// more than `MAX_REPAIRED_FRACTION` (0.35) of the track and ingestion
/// quarantines it as too corrupt.
pub fn corrupt_gpx() -> Vec<u8> {
    let xml = String::from_utf8(clean_gpx()).expect("gpx is utf-8");
    duplicate_points(&xml, 2, 1).into_bytes()
}

/// The shared tiny bundle (trained once per test binary).
pub fn tiny_bundle() -> &'static ModelBundle {
    static BUNDLE: OnceLock<ModelBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| ModelBundle::train(SEED, &BundleConfig::tiny()))
}
