//! Per-track corruption of parsed GPX documents and their bytes.

use crate::plan::{FaultKind, FaultPlan};
use gpxfile::{Gpx, TrackPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What the downstream ingestion layer receives for one track.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A parsed document (possibly carrying model-level corruption:
    /// gaps, spikes, NaN elevations, duplicates, shuffled timestamps).
    Parsed(Gpx),
    /// Raw serialized bytes (byte-level corruption may have made them
    /// unparsable or even invalid UTF-8).
    Raw(Vec<u8>),
}

/// The result of [`corrupt_track`]: the payload plus ground truth about
/// which faults were injected, so robustness reports can account for
/// every one.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptedTrack {
    /// The (possibly corrupted) track data.
    pub payload: Payload,
    /// Fault kinds actually applied, in canonical order. Empty for a
    /// clean track.
    pub injected: Vec<FaultKind>,
}

/// Minimum segment length eligible for structural corruption; shorter
/// segments pass through untouched (there is nothing to hide a gap or
/// a shuffle in).
const MIN_CORRUPTIBLE_POINTS: usize = 8;

/// Corrupts one track under a plan, deterministically in
/// `(plan.seed, index)`.
///
/// A track escaping corruption (rate 0, losing the coin flip, or all
/// segments shorter than `MIN_CORRUPTIBLE_POINTS`) is returned as a
/// byte-identical [`Payload::Parsed`] clone with no injected faults.
pub fn corrupt_track(plan: &FaultPlan, index: u64, gpx: &Gpx) -> CorruptedTrack {
    let mut rng = StdRng::seed_from_u64(exec::mix_seed(plan.seed, index));
    let eligible = gpx
        .tracks
        .iter()
        .flat_map(|t| &t.segments)
        .any(|s| s.points.len() >= MIN_CORRUPTIBLE_POINTS);
    if plan.kinds.is_empty()
        || plan.track_rate <= 0.0
        || !eligible
        || !rng.gen_bool(plan.track_rate)
    {
        return CorruptedTrack { payload: Payload::Parsed(gpx.clone()), injected: Vec::new() };
    }

    // Choose one or two distinct kinds from the enabled set.
    let mut chosen: Vec<FaultKind> = Vec::new();
    let first = plan.kinds[rng.gen_range(0..plan.kinds.len())];
    chosen.push(first);
    if plan.kinds.len() > 1 && rng.gen_bool(0.35) {
        loop {
            let second = plan.kinds[rng.gen_range(0..plan.kinds.len())];
            if second != first {
                chosen.push(second);
                break;
            }
        }
    }
    chosen.sort();

    let mut doc = gpx.clone();
    let mut applied: Vec<FaultKind> = Vec::new();

    // Time-sensitive faults need timestamps to be detectable; stamp the
    // whole document so ingestion sees a consistent recording.
    if chosen.iter().any(|k| {
        matches!(
            k,
            FaultKind::GpsGap | FaultKind::DuplicatePoints | FaultKind::OutOfOrderTime
        )
    }) {
        stamp_timestamps(&mut doc);
    }

    for &kind in &chosen {
        let did = match kind {
            FaultKind::GpsGap => inject_gap(&mut doc, &mut rng),
            FaultKind::ElevationSpike => inject_spikes(&mut doc, &mut rng),
            FaultKind::ElevationNan => inject_nans(&mut doc, &mut rng),
            FaultKind::DuplicatePoints => inject_duplicates(&mut doc, &mut rng),
            FaultKind::OutOfOrderTime => inject_shuffle(&mut doc, &mut rng),
            // Byte-level kinds run after serialization, below.
            FaultKind::TruncateBytes | FaultKind::MangleBytes => continue,
        };
        if did {
            applied.push(kind);
        }
    }

    let byte_kinds: Vec<FaultKind> = chosen
        .iter()
        .copied()
        .filter(|k| matches!(k, FaultKind::TruncateBytes | FaultKind::MangleBytes))
        .collect();
    if byte_kinds.is_empty() {
        return CorruptedTrack { payload: Payload::Parsed(doc), injected: applied };
    }
    let mut bytes = doc.to_xml().into_bytes();
    for kind in byte_kinds {
        match kind {
            FaultKind::TruncateBytes => {
                let keep = rng.gen_range(0.3..0.9);
                bytes.truncate(((bytes.len() as f64) * keep) as usize);
                applied.push(FaultKind::TruncateBytes);
            }
            FaultKind::MangleBytes => {
                let hits = rng.gen_range(4..=16usize);
                for _ in 0..hits {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] = (rng.gen_range(0..=255u32)) as u8;
                }
                applied.push(FaultKind::MangleBytes);
            }
            _ => unreachable!("filtered to byte kinds"),
        }
    }
    applied.sort();
    CorruptedTrack { payload: Payload::Raw(bytes), injected: applied }
}

/// Synthesizes the ISO-8601 timestamp of point `i` (one point per
/// second from a fixed base instant — the value only needs to be
/// ordered and evenly spaced, not historically meaningful).
pub fn synth_timestamp(i: usize) -> String {
    let total = 8 * 3600 + i; // 08:00:00Z onward
    let (h, m, s) = (total / 3600 % 24, total / 60 % 60, total % 60);
    format!("2020-01-11T{h:02}:{m:02}:{s:02}Z")
}

fn stamp_timestamps(doc: &mut Gpx) {
    let mut i = 0usize;
    for track in &mut doc.tracks {
        for seg in &mut track.segments {
            for p in &mut seg.points {
                p.time = Some(synth_timestamp(i));
                i += 1;
            }
        }
    }
}

/// Runs `f` on every eligible segment's point vector; reports whether
/// any segment changed.
fn for_each_segment<F>(doc: &mut Gpx, mut f: F) -> bool
where
    F: FnMut(&mut Vec<TrackPoint>) -> bool,
{
    let mut did = false;
    for track in &mut doc.tracks {
        for seg in &mut track.segments {
            if seg.points.len() >= MIN_CORRUPTIBLE_POINTS {
                did |= f(&mut seg.points);
            }
        }
    }
    did
}

/// Drops a contiguous interior run of 5–20% of the segment's points.
fn inject_gap(doc: &mut Gpx, rng: &mut StdRng) -> bool {
    for_each_segment(doc, |points| {
        let n = points.len();
        let gap = ((n as f64) * rng.gen_range(0.05..0.20)).round().max(2.0) as usize;
        let start = rng.gen_range(n / 5..(4 * n / 5).saturating_sub(gap).max(n / 5 + 1));
        points.drain(start..(start + gap).min(n - 1));
        true
    })
}

/// Adds ±80–400 m to 1–4 isolated elevations.
fn inject_spikes(doc: &mut Gpx, rng: &mut StdRng) -> bool {
    for_each_segment(doc, |points| {
        let k = rng.gen_range(1..=4usize);
        let mut did = false;
        for _ in 0..k {
            let at = rng.gen_range(0..points.len());
            if let Some(e) = points[at].elevation_m.as_mut() {
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                *e += sign * rng.gen_range(80.0..400.0);
                did = true;
            }
        }
        did
    })
}

/// Replaces 2–10% of elevations with NaN.
fn inject_nans(doc: &mut Gpx, rng: &mut StdRng) -> bool {
    for_each_segment(doc, |points| {
        let frac = rng.gen_range(0.02..0.10);
        let k = (((points.len() as f64) * frac).round() as usize).max(1);
        let mut did = false;
        for _ in 0..k {
            let at = rng.gen_range(0..points.len());
            if points[at].elevation_m.is_some() {
                points[at].elevation_m = Some(f64::NAN);
                did = true;
            }
        }
        did
    })
}

/// Re-inserts a copy of a short run right after itself (same
/// coordinates, elevations, and timestamps).
fn inject_duplicates(doc: &mut Gpx, rng: &mut StdRng) -> bool {
    for_each_segment(doc, |points| {
        let run = rng.gen_range(1..=6usize).min(points.len() / 2);
        let at = rng.gen_range(0..points.len() - run);
        let copies: Vec<TrackPoint> = points[at..at + run].to_vec();
        for (off, p) in copies.into_iter().enumerate() {
            points.insert(at + run + off, p);
        }
        true
    })
}

/// Reverses a 4–10 point window (points travel with their timestamps,
/// so sorting by time restores the original order exactly).
fn inject_shuffle(doc: &mut Gpx, rng: &mut StdRng) -> bool {
    for_each_segment(doc, |points| {
        let w = rng.gen_range(4..=10usize).min(points.len() - 1);
        let at = rng.gen_range(0..points.len() - w);
        points[at..at + w].reverse();
        true
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoprim::LatLon;
    use gpxfile::{Track, TrackSegment};

    fn sample_gpx(n: usize) -> Gpx {
        let points = (0..n)
            .map(|i| {
                TrackPoint::with_elevation(
                    LatLon::new(38.0 + i as f64 * 1e-4, -77.0),
                    20.0 + (i as f64 * 0.37).sin() * 3.0,
                )
            })
            .collect();
        Gpx {
            creator: "faultsim test".into(),
            tracks: vec![Track { name: None, segments: vec![TrackSegment { points }] }],
        }
    }

    #[test]
    fn none_plan_is_identity() {
        let gpx = sample_gpx(120);
        for i in 0..20 {
            let out = corrupt_track(&FaultPlan::none(), i, &gpx);
            assert!(out.injected.is_empty());
            assert_eq!(out.payload, Payload::Parsed(gpx.clone()));
        }
    }

    #[test]
    fn corruption_is_deterministic() {
        // NaN faults defeat PartialEq (NaN != NaN), so compare the
        // serialized bytes, which is also the stronger property.
        let as_bytes = |t: CorruptedTrack| match t.payload {
            Payload::Parsed(g) => (g.to_xml().into_bytes(), t.injected),
            Payload::Raw(b) => (b, t.injected),
        };
        let gpx = sample_gpx(150);
        let plan = FaultPlan::uniform(1.0, 7);
        for i in 0..30 {
            assert_eq!(
                as_bytes(corrupt_track(&plan, i, &gpx)),
                as_bytes(corrupt_track(&plan, i, &gpx))
            );
        }
    }

    #[test]
    fn rate_one_always_injects() {
        let gpx = sample_gpx(150);
        let plan = FaultPlan::uniform(1.0, 3);
        for i in 0..50 {
            let out = corrupt_track(&plan, i, &gpx);
            assert!(!out.injected.is_empty(), "track {i} escaped a rate-1.0 plan");
        }
    }

    #[test]
    fn rate_matches_fraction_of_tracks() {
        let gpx = sample_gpx(100);
        let plan = FaultPlan::uniform(0.2, 11);
        let hit = (0..500)
            .filter(|&i| !corrupt_track(&plan, i, &gpx).injected.is_empty())
            .count();
        assert!((60..=140).contains(&hit), "hit {hit}/500 at rate 0.2");
    }

    #[test]
    fn single_kind_plans_apply_that_kind() {
        let gpx = sample_gpx(120);
        for kind in FaultKind::ALL {
            let plan = FaultPlan {
                kinds: vec![kind],
                ..FaultPlan::uniform(1.0, 13)
            };
            let out = corrupt_track(&plan, 1, &gpx);
            assert_eq!(out.injected, vec![kind]);
            match kind {
                FaultKind::TruncateBytes | FaultKind::MangleBytes => {
                    assert!(matches!(out.payload, Payload::Raw(_)));
                }
                _ => assert!(matches!(out.payload, Payload::Parsed(_))),
            }
        }
    }

    #[test]
    fn gap_shortens_and_nan_poisons() {
        let gpx = sample_gpx(200);
        let gap_plan =
            FaultPlan { kinds: vec![FaultKind::GpsGap], ..FaultPlan::uniform(1.0, 17) };
        let Payload::Parsed(g) = corrupt_track(&gap_plan, 0, &gpx).payload else {
            panic!("gap stays parsed")
        };
        assert!(g.point_count() < 200);

        let nan_plan =
            FaultPlan { kinds: vec![FaultKind::ElevationNan], ..FaultPlan::uniform(1.0, 17) };
        let Payload::Parsed(g) = corrupt_track(&nan_plan, 0, &gpx).payload else {
            panic!("nan stays parsed")
        };
        assert!(g.elevation_profile().iter().any(|e| e.is_nan()));
    }

    #[test]
    fn shuffle_is_restored_by_time_sort() {
        let gpx = sample_gpx(100);
        let plan =
            FaultPlan { kinds: vec![FaultKind::OutOfOrderTime], ..FaultPlan::uniform(1.0, 23) };
        let Payload::Parsed(g) = corrupt_track(&plan, 0, &gpx).payload else {
            panic!("shuffle stays parsed")
        };
        let mut points = g.tracks[0].segments[0].points.clone();
        let shuffled = points.clone();
        points.sort_by(|a, b| a.time.cmp(&b.time));
        assert_ne!(points, shuffled, "injection must actually shuffle");
        let elevations: Vec<f64> = points.iter().filter_map(|p| p.elevation_m).collect();
        assert_eq!(elevations, gpx.elevation_profile());
    }

    #[test]
    fn short_tracks_pass_through() {
        let gpx = sample_gpx(4);
        let out = corrupt_track(&FaultPlan::uniform(1.0, 5), 0, &gpx);
        assert!(out.injected.is_empty());
    }

    #[test]
    fn timestamps_are_ordered_and_distinct() {
        let a = synth_timestamp(0);
        let b = synth_timestamp(1);
        let z = synth_timestamp(3600);
        assert!(a < b && b < z);
        assert_eq!(a, "2020-01-11T08:00:00Z");
    }
}
