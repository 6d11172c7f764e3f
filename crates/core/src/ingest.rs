//! Resilient track ingestion: validate → repair → accept or quarantine.
//!
//! The clean experiment path assumes perfect recordings; real fitness
//! exports arrive with GPS dropouts, barometric spikes, NaN elevations,
//! duplicated points, shuffled timestamps, and truncated files. This
//! module is the production-style front door: every incoming track is
//! validated, repaired where the damage is recoverable, and otherwise
//! **quarantined** into a structured per-run [`IngestReport`] — one
//! corrupt track can never abort a batch run.
//!
//! Repairs are conservative and deterministic:
//!
//! - out-of-order timestamps → stable sort by time (only when every
//!   point carries a timestamp);
//! - exact duplicate runs → consecutive dedup;
//! - timestamp gaps (GPS dropout) → linear gap interpolation at the
//!   track's median sampling interval;
//! - NaN elevations → linear interpolation from the nearest finite
//!   neighbours;
//! - elevation spikes → rolling-median despike.
//!
//! A track that is untouched by all five passes is reported as
//! [`Disposition::Clean`] and its profile is returned **byte-identical**
//! to [`gpxfile::Gpx::elevation_profile`] — the zero-fault invariance
//! the experiment suite depends on.
//!
//! Every track takes one path, [`StreamingIngest`]: raw GPX bytes go
//! through the borrowing event reader straight into a flat point buffer
//! ([`gpxfile::stream::PointBuf`]), no DOM is built, and the repair
//! passes run against scratch the ingester keeps from call to call; an
//! already-parsed [`Payload::Parsed`] document is flattened into the
//! same buffer. The server keeps one ingester per worker, the CLI one
//! per command, and [`ingest_batch`] runs a fresh one per track on the
//! workspace executor via [`exec::Executor::try_map`], so a panic inside
//! a repair quarantines that track ([`QuarantineReason::RepairPanicked`])
//! while every other track completes.
//!
//! The DOM builder ([`gpxfile::Gpx::parse_bytes`]) is the reference the
//! point walk is pinned to: parsing a document and ingesting the tree
//! gives the disposition and profile bits that ingesting its bytes does.

use exec::Executor;
use faultsim::Payload;
use gpxfile::stream::{FlatPoint, PointBuf};

// Ingestion thresholds, tuned so that the clean synthetic corpora pass
// through 100% untouched (no false repairs) while every fault
// `faultsim` injects is either repaired or quarantined.

/// Quarantine profiles shorter than this after repair.
const MIN_PROFILE_LEN: usize = 24;
/// Rolling-median window for despiking (odd, ≥ 3).
const SPIKE_WINDOW: usize = 5;
/// A point deviating from its window median by more than this many
/// metres is a spike.
const SPIKE_THRESHOLD_M: f64 = 40.0;
/// A timestamp delta larger than `factor × median Δt` is a gap.
const MAX_TIME_GAP_FACTOR: f64 = 4.0;
/// Never synthesize more than this many points for one gap.
const MAX_GAP_FILL_POINTS: usize = 64;
/// Quarantine when repairs touched more than this fraction of the
/// track's points (the signal is no longer trustworthy).
const MAX_REPAIRED_FRACTION: f64 = 0.35;

/// One category of applied repair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RepairKind {
    /// Points re-sorted into timestamp order.
    SortedByTime,
    /// Exact consecutive duplicates removed.
    DedupedPoints,
    /// Synthetic points interpolated across a timestamp gap.
    FilledGap,
    /// NaN elevations interpolated from finite neighbours.
    InterpolatedNan,
    /// Spikes replaced by the rolling median.
    DespikedElevation,
}

impl RepairKind {
    /// All repair kinds, in pipeline order.
    pub const ALL: [RepairKind; 5] = [
        RepairKind::SortedByTime,
        RepairKind::DedupedPoints,
        RepairKind::FilledGap,
        RepairKind::InterpolatedNan,
        RepairKind::DespikedElevation,
    ];

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            RepairKind::SortedByTime => "sort_time",
            RepairKind::DedupedPoints => "dedup",
            RepairKind::FilledGap => "fill_gap",
            RepairKind::InterpolatedNan => "interp_nan",
            RepairKind::DespikedElevation => "despike",
        }
    }
}

/// One applied repair: what, and how many points it touched.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Repair {
    /// The repair category.
    pub kind: RepairKind,
    /// Number of points sorted, removed, synthesized, or rewritten.
    pub points: usize,
}

/// Why a track was quarantined instead of accepted.
#[derive(Debug, Clone, PartialEq)]
pub enum QuarantineReason {
    /// The bytes did not parse as GPX (the message is the
    /// [`gpxfile::GpxError`] display).
    ParseFailed(String),
    /// No usable elevation values at all.
    EmptyProfile,
    /// Fewer than 24 points after repair.
    TooShort {
        /// Final profile length.
        points: usize,
    },
    /// Repairs touched more than 35% of the track's points.
    TooCorrupt {
        /// Fraction of points touched by repairs. A track its gap fill
        /// alone condemns stops before NaN interpolation and despiking,
        /// so its fraction leaves their counts out; no report renders it.
        repaired_fraction: f64,
    },
    /// The repair pipeline itself panicked (isolated by
    /// [`exec::Executor::try_map`]).
    RepairPanicked(String),
}

impl QuarantineReason {
    /// Stable lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            QuarantineReason::ParseFailed(_) => "parse_failed",
            QuarantineReason::EmptyProfile => "empty_profile",
            QuarantineReason::TooShort { .. } => "too_short",
            QuarantineReason::TooCorrupt { .. } => "too_corrupt",
            QuarantineReason::RepairPanicked(_) => "repair_panicked",
        }
    }

    /// Every reason name, in canonical report order.
    pub const NAMES: [&'static str; 5] =
        ["parse_failed", "empty_profile", "too_short", "too_corrupt", "repair_panicked"];
}

/// The per-track outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// Accepted untouched; the profile is byte-identical to the clean
    /// extraction path.
    Clean,
    /// Accepted after the listed repairs.
    Repaired(Vec<Repair>),
    /// Rejected; no profile is produced.
    Quarantined(QuarantineReason),
}

/// One track's entry in the run report.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackReport {
    /// Input index of the track.
    pub index: usize,
    /// What happened to it.
    pub disposition: Disposition,
    /// Profile length delivered downstream (0 when quarantined).
    pub profile_len: usize,
}

/// The structured per-run ingestion report: every input track is
/// accounted for, in input order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IngestReport {
    /// Per-track outcomes, sorted by input index.
    pub tracks: Vec<TrackReport>,
}

impl IngestReport {
    /// Number of tracks accepted untouched.
    pub fn clean(&self) -> usize {
        self.tracks.iter().filter(|t| matches!(t.disposition, Disposition::Clean)).count()
    }

    /// Number of tracks accepted after repair.
    pub fn repaired(&self) -> usize {
        self.tracks
            .iter()
            .filter(|t| matches!(t.disposition, Disposition::Repaired(_)))
            .count()
    }

    /// Number of tracks quarantined.
    pub fn quarantined(&self) -> usize {
        self.tracks
            .iter()
            .filter(|t| matches!(t.disposition, Disposition::Quarantined(_)))
            .count()
    }

    /// Total points touched per repair kind, in [`RepairKind::ALL`]
    /// order.
    pub fn repair_counts(&self) -> Vec<(RepairKind, usize)> {
        RepairKind::ALL
            .into_iter()
            .map(|kind| {
                let points = self
                    .tracks
                    .iter()
                    .filter_map(|t| match &t.disposition {
                        Disposition::Repaired(rs) => Some(rs),
                        _ => None,
                    })
                    .flatten()
                    .filter(|r| r.kind == kind)
                    .map(|r| r.points)
                    .sum();
                (kind, points)
            })
            .collect()
    }

    /// Quarantined-track counts per reason, in
    /// [`QuarantineReason::NAMES`] order.
    pub fn quarantine_counts(&self) -> Vec<(&'static str, usize)> {
        QuarantineReason::NAMES
            .into_iter()
            .map(|name| {
                let n = self
                    .tracks
                    .iter()
                    .filter(|t| {
                        matches!(&t.disposition,
                            Disposition::Quarantined(r) if r.name() == name)
                    })
                    .count();
                (name, n)
            })
            .collect()
    }

    /// Checks the report's internal bookkeeping invariants: the three
    /// dispositions partition the tracks, indices are the input order,
    /// every repair entry touched at least one point, and the per-kind
    /// and per-reason breakdowns re-sum to the headline counts.
    ///
    /// Returns the first violated invariant, for conformance tests and
    /// fault-injection sweeps that must fail with a named invariant
    /// instead of a mismatched digest.
    pub fn validate(&self) -> Result<(), String> {
        if self.clean() + self.repaired() + self.quarantined() != self.tracks.len() {
            return Err(format!(
                "dispositions do not partition the report: {} + {} + {} != {}",
                self.clean(),
                self.repaired(),
                self.quarantined(),
                self.tracks.len()
            ));
        }
        for (pos, t) in self.tracks.iter().enumerate() {
            if t.index != pos {
                return Err(format!("track at position {pos} carries index {}", t.index));
            }
            if let Disposition::Repaired(rs) = &t.disposition {
                if rs.is_empty() {
                    return Err(format!("track {pos} is Repaired with no repairs"));
                }
                if let Some(r) = rs.iter().find(|r| r.points == 0) {
                    return Err(format!(
                        "track {pos} records a {} repair touching zero points",
                        r.kind.name()
                    ));
                }
            }
        }
        let per_reason: usize = self.quarantine_counts().iter().map(|(_, n)| n).sum();
        if per_reason != self.quarantined() {
            return Err(format!(
                "per-reason quarantine counts sum to {per_reason}, headline says {}",
                self.quarantined()
            ));
        }
        Ok(())
    }

    /// Renders the report as a JSON object (hand-formatted: flat,
    /// deterministic key order, safe for `jq`/`python -c` smoke
    /// checks).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"tracks\": {}, \"clean\": {}, \"repaired\": {}, \"quarantined\": {}",
            self.tracks.len(),
            self.clean(),
            self.repaired(),
            self.quarantined()
        ));
        out.push_str(", \"repairs\": {");
        let repairs: Vec<String> = self
            .repair_counts()
            .into_iter()
            .map(|(k, n)| format!("\"{}\": {n}", k.name()))
            .collect();
        out.push_str(&repairs.join(", "));
        out.push_str("}, \"quarantine_reasons\": {");
        let reasons: Vec<String> = self
            .quarantine_counts()
            .into_iter()
            .map(|(name, n)| format!("\"{name}\": {n}"))
            .collect();
        out.push_str(&reasons.join(", "));
        out.push_str("}}");
        out
    }

    /// Renders a compact human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "ingest: {} tracks — {} clean, {} repaired, {} quarantined\n",
            self.tracks.len(),
            self.clean(),
            self.repaired(),
            self.quarantined()
        );
        let repairs: Vec<String> = self
            .repair_counts()
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .map(|(k, n)| format!("{} {n}", k.name()))
            .collect();
        if !repairs.is_empty() {
            out.push_str(&format!("  repairs (points): {}\n", repairs.join(", ")));
        }
        let reasons: Vec<String> = self
            .quarantine_counts()
            .into_iter()
            .filter(|&(_, n)| n > 0)
            .map(|(name, n)| format!("{name} {n}"))
            .collect();
        if !reasons.is_empty() {
            out.push_str(&format!("  quarantine: {}\n", reasons.join(", ")));
        }
        out
    }
}

/// Ingests a batch of tracks on the given executor.
///
/// Returns one slot per input (in input order): `Some(profile)` for
/// accepted tracks, `None` for quarantined ones, plus the full
/// [`IngestReport`]. Each track runs through a fresh [`StreamingIngest`]
/// and is panic-isolated, so the output is bit-identical at any thread
/// count and a poisoned track can never take down the batch.
pub fn ingest_batch(
    sources: &[Payload],
    executor: &Executor,
) -> (Vec<Option<Vec<f64>>>, IngestReport) {
    let outcomes =
        executor.try_map(sources, |_, src| StreamingIngest::default().ingest_source(src));
    let mut profiles = Vec::with_capacity(sources.len());
    let mut tracks = Vec::with_capacity(sources.len());
    for (index, slot) in outcomes.into_iter().enumerate() {
        let (disposition, profile) = match slot {
            Ok((d, p)) => (d, p),
            Err(panic) => (
                Disposition::Quarantined(QuarantineReason::RepairPanicked(panic.message)),
                None,
            ),
        };
        tracks.push(TrackReport {
            index,
            disposition,
            profile_len: profile.as_ref().map_or(0, Vec::len),
        });
        profiles.push(profile);
    }
    (profiles, IngestReport { tracks })
}

/// Reusable working memory for the repair passes: once grown to corpus
/// size, a repair run performs no allocation beyond the returned
/// profile.
#[derive(Debug, Default)]
struct IngestScratch {
    /// Parsed timestamp seconds, one per point.
    secs: Vec<i64>,
    /// Sorted inter-point deltas (median Δt extraction).
    dts: Vec<i64>,
    /// Gap-fill output staging, swapped into the point buffer.
    out: Vec<FlatPoint>,
    /// Pre-despike copy of the profile (detection never cascades).
    original: Vec<f64>,
    /// Rolling-median sort window.
    window: Vec<f64>,
}

/// Streaming ingestion: the one front door from GPX bytes to an
/// elevation profile.
///
/// Raw GPX bytes flow through the borrowing event reader
/// ([`gpxfile::stream::StreamReader`]) directly into a flat point
/// buffer — no DOM is materialized — and the five repair passes run
/// against reusable scratch. Dispositions, repair lists, and profiles
/// are bit-identical to parsing the same bytes with
/// [`gpxfile::Gpx::parse_bytes`] and ingesting the tree through
/// [`ingest_source`](Self::ingest_source); only the allocation profile
/// and throughput differ.
///
/// The struct owns the per-point working memory, so a long-lived
/// instance (one per server arena, one per CLI command) allocates
/// nothing per point once warm: the parse walk's per-document stacks
/// cost a constant few allocations per upload, and the returned
/// profile, sized to the point count before it is filled, one more.
///
/// # Examples
///
/// ```
/// use elev_core::ingest::{Disposition, StreamingIngest};
///
/// let mut ing = StreamingIngest::default();
/// let (d, profile) = ing.ingest_bytes(b"not gpx at all");
/// assert!(matches!(d, Disposition::Quarantined(_)));
/// assert!(profile.is_none());
/// ```
#[derive(Debug, Default)]
pub struct StreamingIngest {
    buf: PointBuf,
    scratch: IngestScratch,
}

impl StreamingIngest {
    /// Ingests one track from raw bytes, DOM-free.
    ///
    /// Parse failures are folded into the disposition
    /// ([`QuarantineReason::ParseFailed`], carrying the
    /// [`gpxfile::GpxError`] display).
    pub fn ingest_bytes(&mut self, raw: &[u8]) -> (Disposition, Option<Vec<f64>>) {
        match self.try_ingest_bytes(raw) {
            Ok(out) => out,
            Err(e) => {
                (Disposition::Quarantined(QuarantineReason::ParseFailed(e.to_string())), None)
            }
        }
    }

    /// Ingests one track from raw bytes, surfacing the parse error
    /// itself (for callers that classify error variants, e.g. the
    /// conformance fuzz campaigns).
    ///
    /// # Errors
    ///
    /// Exactly the [`gpxfile::GpxError`] that
    /// [`gpxfile::Gpx::parse_bytes`] would produce for the same input.
    pub fn try_ingest_bytes(
        &mut self,
        raw: &[u8],
    ) -> Result<(Disposition, Option<Vec<f64>>), gpxfile::GpxError> {
        self.buf.fill_from_bytes(raw)?;
        Ok(repair_flat(&mut self.buf, &mut self.scratch))
    }

    /// Ingests one [`Payload`]: raw bytes take the streaming path,
    /// already-parsed documents are flattened directly.
    pub fn ingest_source(&mut self, src: &Payload) -> (Disposition, Option<Vec<f64>>) {
        match src {
            Payload::Parsed(g) => {
                self.buf.fill_from_gpx(g);
                repair_flat(&mut self.buf, &mut self.scratch)
            }
            Payload::Raw(bytes) => self.ingest_bytes(bytes),
        }
    }
}

/// The timestamp text a point's arena range refers to.
fn time_of<'a>(arena: &'a str, p: &FlatPoint) -> Option<&'a str> {
    p.time.map(|(a, b)| &arena[a as usize..b as usize])
}

/// Runs the five repair passes and acceptance checks over the flattened
/// points in `buf`. The shared body of both ingestion paths.
fn repair_flat(buf: &mut PointBuf, scratch: &mut IngestScratch) -> (Disposition, Option<Vec<f64>>) {
    let (points, arena) = buf.parts_mut();
    let mut repairs: Vec<Repair> = Vec::new();

    // 1. Out-of-order timestamps (only when the recording is fully
    //    timestamped; a stable sort keeps untimed tracks untouched).
    if !points.is_empty() && points.iter().all(|p| p.time.is_some()) {
        let moved = count_out_of_order(points, arena);
        if moved > 0 {
            points.sort_by(|a, b| time_of(arena, a).cmp(&time_of(arena, b)));
            repairs.push(Repair { kind: RepairKind::SortedByTime, points: moved });
        }
    }

    // 2. Exact consecutive duplicates (logger stutter).
    let before = points.len();
    dedup_consecutive(points, arena);
    if points.len() < before {
        repairs.push(Repair { kind: RepairKind::DedupedPoints, points: before - points.len() });
    }

    // 3. Timestamp gaps → synthetic interpolated points, unless the
    //    fill alone already dooms the track.
    let so_far: usize = repairs.iter().map(|r| r.points).sum();
    match fill_time_gaps(points, arena, scratch, so_far) {
        Ok(0) => {}
        Ok(filled) => repairs.push(Repair { kind: RepairKind::FilledGap, points: filled }),
        Err(repaired_fraction) => {
            return (
                Disposition::Quarantined(QuarantineReason::TooCorrupt { repaired_fraction }),
                None,
            )
        }
    }

    // The elevation series downstream of structural repair, sized once
    // (`filter_map` gives `collect` no lower bound to reserve).
    let mut profile: Vec<f64> = Vec::with_capacity(points.len());
    profile.extend(points.iter().filter_map(|p| p.elevation_m));
    if profile.is_empty() {
        return (Disposition::Quarantined(QuarantineReason::EmptyProfile), None);
    }

    // 4. NaN elevations → linear interpolation.
    let interpolated = interpolate_nans(&mut profile);
    if interpolated > 0 {
        repairs.push(Repair { kind: RepairKind::InterpolatedNan, points: interpolated });
    }
    if profile.iter().any(|e| !e.is_finite()) {
        // Nothing finite to anchor the interpolation.
        return (Disposition::Quarantined(QuarantineReason::EmptyProfile), None);
    }

    // 5. Spikes → rolling median.
    let despiked = despike(&mut profile, scratch);
    if despiked > 0 {
        repairs.push(Repair { kind: RepairKind::DespikedElevation, points: despiked });
    }

    // Acceptance checks.
    if profile.len() < MIN_PROFILE_LEN {
        return (
            Disposition::Quarantined(QuarantineReason::TooShort { points: profile.len() }),
            None,
        );
    }
    let touched: usize = repairs.iter().map(|r| r.points).sum();
    let fraction = touched as f64 / profile.len() as f64;
    if fraction > MAX_REPAIRED_FRACTION {
        return (
            Disposition::Quarantined(QuarantineReason::TooCorrupt {
                repaired_fraction: fraction,
            }),
            None,
        );
    }

    if repairs.is_empty() {
        // Untouched: the extraction above IS the clean-path profile,
        // bit-identical to `Gpx::elevation_profile`.
        (Disposition::Clean, Some(profile))
    } else {
        (Disposition::Repaired(repairs), Some(profile))
    }
}

/// Number of points whose timestamp is smaller than a predecessor's —
/// the count reported for a [`RepairKind::SortedByTime`] repair.
fn count_out_of_order(points: &[FlatPoint], arena: &str) -> usize {
    points
        .windows(2)
        .filter(|w| time_of(arena, &w[1]) < time_of(arena, &w[0]))
        .count()
}

/// Removes points identical to their predecessor (coordinates,
/// elevation bits, and timestamp all equal — NaN elevations compare by
/// bit pattern so duplicated NaN points still collapse).
fn dedup_consecutive(points: &mut Vec<FlatPoint>, arena: &str) {
    points.dedup_by(|b, a| {
        a.coord == b.coord
            && time_of(arena, a) == time_of(arena, b)
            && match (a.elevation_m, b.elevation_m) {
                (Some(x), Some(y)) => x.to_bits() == y.to_bits(),
                (None, None) => true,
                _ => false,
            }
    });
}

/// Parses `YYYY-MM-DDTHH:MM:SSZ` into seconds since an arbitrary epoch
/// (only differences matter). Returns `None` for any other shape.
fn time_seconds(t: &str) -> Option<i64> {
    let b = t.as_bytes();
    if b.len() < 19 || b[4] != b'-' || b[7] != b'-' || b[10] != b'T' || b[13] != b':' || b[16] != b':'
    {
        return None;
    }
    let num = |range: std::ops::Range<usize>| -> Option<i64> {
        let s = t.get(range)?;
        // All-digit fast path (every real timestamp field); anything
        // else — signs, unicode digits, overflow — keeps `str::parse`'s
        // exact acceptance so behavior is unchanged.
        if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) {
            return Some(s.bytes().fold(0i64, |acc, b| acc * 10 + i64::from(b - b'0')));
        }
        s.parse::<i64>().ok()
    };
    let (y, mo, d) = (num(0..4)?, num(5..7)?, num(8..10)?);
    let (h, mi, s) = (num(11..13)?, num(14..16)?, num(17..19)?);
    // Days-from-civil (Howard Hinnant's algorithm), good enough for
    // ordering and differences across month/year boundaries.
    let y_adj = if mo <= 2 { y - 1 } else { y };
    let era = y_adj.div_euclid(400);
    let yoe = y_adj - era * 400;
    let mp = (mo + 9) % 12;
    let doy = (153 * mp + 2) / 5 + d - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    let days = era * 146_097 + doe - 719_468;
    Some(days * 86_400 + h * 3_600 + mi * 60 + s)
}

/// Detects sampling gaps (Δt > `factor ×` median Δt) and inserts
/// linearly interpolated points. Returns the number of synthesized
/// points.
///
/// The cap is per gap, so before synthesizing anything the fill counts
/// what it would add: `F` gap points, `S` of them with an elevation
/// (both ends finite), next to the `E` points that already carry one.
/// When some elevation is finite and the profile would reach
/// [`MIN_PROFILE_LEN`], the track ends [`QuarantineReason::TooCorrupt`]
/// once the `touched` points of earlier repairs plus `F` exceed
/// [`MAX_REPAIRED_FRACTION`] of `E + S`, since later repairs only add
/// to the count; the fill then returns that fraction as the error
/// without synthesizing a point.
fn fill_time_gaps(
    points: &mut Vec<FlatPoint>,
    arena: &str,
    scratch: &mut IngestScratch,
    touched: usize,
) -> Result<usize, f64> {
    if points.len() < 3 || points.iter().any(|p| p.time.is_none()) {
        return Ok(0);
    }
    scratch.secs.clear();
    for p in points.iter() {
        match time_of(arena, p).and_then(time_seconds) {
            Some(s) => scratch.secs.push(s),
            None => return Ok(0), // unparsable timestamps: leave the track alone
        }
    }
    let secs = &scratch.secs;
    scratch.dts.clear();
    scratch.dts.extend(secs.windows(2).map(|w| (w[1] - w[0]).max(0)));
    scratch.dts.sort_unstable();
    let median_dt = scratch.dts[scratch.dts.len() / 2].max(1);
    let threshold = (median_dt as f64 * MAX_TIME_GAP_FACTOR).ceil() as i64;
    // Points to synthesize before point `i`.
    let missing = |i: usize| -> usize {
        let dt = secs[i] - secs[i - 1];
        if dt > threshold {
            (((dt as f64) / (median_dt as f64)).round() as usize - 1).min(MAX_GAP_FILL_POINTS)
        } else {
            0
        }
    };
    let finite = |p: &FlatPoint| p.elevation_m.is_some_and(f64::is_finite);

    let (mut fill, mut fill_with_ele) = (0usize, 0usize);
    for i in 1..points.len() {
        let m = missing(i);
        fill += m;
        if finite(&points[i - 1]) && finite(&points[i]) {
            fill_with_ele += m;
        }
    }
    if fill == 0 {
        return Ok(0);
    }
    let profile_len = points.iter().filter(|p| p.elevation_m.is_some()).count() + fill_with_ele;
    if profile_len >= MIN_PROFILE_LEN && points.iter().any(finite) {
        let fraction = (touched + fill) as f64 / profile_len as f64;
        if fraction > MAX_REPAIRED_FRACTION {
            return Err(fraction);
        }
    }

    scratch.out.clear();
    scratch.out.reserve(points.len() + fill);
    for i in 0..points.len() {
        let m = if i > 0 { missing(i) } else { 0 };
        if m > 0 {
            let a = points[i - 1];
            let b = points[i];
            for k in 1..=m {
                let t = k as f64 / (m + 1) as f64;
                let ele = match (a.elevation_m, b.elevation_m) {
                    (Some(x), Some(y)) if x.is_finite() && y.is_finite() => Some(x + (y - x) * t),
                    _ => None,
                };
                let coord = geoprim::LatLon::new(
                    a.coord.lat + (b.coord.lat - a.coord.lat) * t,
                    a.coord.lon + (b.coord.lon - a.coord.lon) * t,
                );
                scratch.out.push(FlatPoint { coord, elevation_m: ele, time: None });
            }
        }
        scratch.out.push(points[i]);
    }
    std::mem::swap(points, &mut scratch.out);
    Ok(fill)
}

/// Replaces non-finite elevations by linear interpolation between the
/// nearest finite neighbours (edge runs copy the nearest finite value).
/// Returns the number of values rewritten; leaves the series untouched
/// when nothing is finite.
fn interpolate_nans(profile: &mut [f64]) -> usize {
    let n = profile.len();
    if !profile.iter().any(|e| !e.is_finite()) {
        return 0;
    }
    if !profile.iter().any(|e| e.is_finite()) {
        return 0; // nothing to anchor on; caller quarantines
    }
    let mut fixed = 0usize;
    let mut i = 0usize;
    while i < n {
        if profile[i].is_finite() {
            i += 1;
            continue;
        }
        let start = i; // first bad index
        let mut end = i;
        while end < n && !profile[end].is_finite() {
            end += 1;
        }
        let left = start.checked_sub(1).map(|j| profile[j]);
        let right = if end < n { Some(profile[end]) } else { None };
        for (off, slot) in profile[start..end].iter_mut().enumerate() {
            *slot = match (left, right) {
                (Some(l), Some(r)) => {
                    let t = (off + 1) as f64 / (end - start + 1) as f64;
                    l + (r - l) * t
                }
                (Some(l), None) => l,
                (None, Some(r)) => r,
                (None, None) => unreachable!("a finite anchor exists"),
            };
            fixed += 1;
        }
        i = end;
    }
    fixed
}

/// Rolling-median despike: a value deviating from the median of its
/// window by more than the threshold is replaced by that median.
/// Detection runs on the original series (replacements do not cascade),
/// which keeps the pass order-independent and idempotent on clean data.
fn despike(profile: &mut [f64], scratch: &mut IngestScratch) -> usize {
    let n = profile.len();
    if n < SPIKE_WINDOW {
        return 0;
    }
    scratch.original.clear();
    scratch.original.extend_from_slice(profile);
    let half = SPIKE_WINDOW / 2;
    let mut fixed = 0usize;
    for (i, slot) in profile.iter_mut().enumerate() {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        scratch.window.clear();
        scratch.window.extend_from_slice(&scratch.original[lo..hi]);
        scratch.window.sort_by(f64::total_cmp);
        let med = scratch.window[scratch.window.len() / 2];
        if (scratch.original[i] - med).abs() > SPIKE_THRESHOLD_M {
            *slot = med;
            fixed += 1;
        }
    }
    fixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultsim::{corrupt_track, FaultKind, FaultPlan};
    use geoprim::LatLon;
    use gpxfile::{Gpx, Track, TrackPoint, TrackSegment};
    use proptest::prelude::*;

    /// One track through a fresh ingester, as each [`ingest_batch`]
    /// task runs it.
    fn ingest(src: &Payload) -> (Disposition, Option<Vec<f64>>) {
        StreamingIngest::default().ingest_source(src)
    }

    /// The DOM reference: raw bytes are parsed into a whole [`Gpx`]
    /// tree, and the tree is ingested.
    fn ingest_dom(src: &Payload) -> (Disposition, Option<Vec<f64>>) {
        match src {
            Payload::Raw(bytes) => match Gpx::parse_bytes(bytes) {
                Ok(g) => ingest(&Payload::Parsed(g)),
                Err(e) => {
                    (Disposition::Quarantined(QuarantineReason::ParseFailed(e.to_string())), None)
                }
            },
            parsed => ingest(parsed),
        }
    }

    fn sample_gpx(n: usize) -> Gpx {
        let points = (0..n)
            .map(|i| {
                TrackPoint::with_elevation(
                    LatLon::new(38.0 + i as f64 * 1e-4, -77.0 + i as f64 * 5e-5),
                    120.0 + (i as f64 * 0.23).sin() * 6.0 + i as f64 * 0.05,
                )
            })
            .collect();
        Gpx {
            creator: "ingest test".into(),
            tracks: vec![Track { name: None, segments: vec![TrackSegment { points }] }],
        }
    }

    #[test]
    fn clean_track_passes_through_byte_identical() {
        let gpx = sample_gpx(120);
        let (d, profile) = ingest(&Payload::Parsed(gpx.clone()));
        assert_eq!(d, Disposition::Clean);
        let clean = gpx.elevation_profile();
        let got = profile.unwrap();
        assert_eq!(got.len(), clean.len());
        assert!(got.iter().zip(&clean).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn streaming_clean_bytes_pass_through_byte_identical() {
        let bytes = sample_gpx(120).to_xml().into_bytes();
        let reparsed = Gpx::parse_bytes(&bytes).unwrap();
        let mut ing = StreamingIngest::default();
        let (d, profile) = ing.ingest_bytes(&bytes);
        assert_eq!(d, Disposition::Clean);
        let clean = reparsed.elevation_profile();
        let got = profile.unwrap();
        assert_eq!(got.len(), clean.len());
        assert!(got.iter().zip(&clean).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn every_model_fault_kind_is_repaired_or_quarantined() {
        let gpx = sample_gpx(200);
        for kind in [
            FaultKind::GpsGap,
            FaultKind::ElevationSpike,
            FaultKind::ElevationNan,
            FaultKind::DuplicatePoints,
            FaultKind::OutOfOrderTime,
        ] {
            for seed in 0..8 {
                let plan = FaultPlan { kinds: vec![kind], ..FaultPlan::uniform(1.0, seed) };
                let out = corrupt_track(&plan, 0, &gpx);
                assert_eq!(out.injected, vec![kind]);
                let (d, _) = ingest(&out.payload);
                assert!(
                    !matches!(d, Disposition::Clean),
                    "{kind} (seed {seed}) slipped through as clean"
                );
            }
        }
    }

    #[test]
    fn spike_repair_restores_profile_closely() {
        let gpx = sample_gpx(150);
        let clean = gpx.elevation_profile();
        let plan =
            FaultPlan { kinds: vec![FaultKind::ElevationSpike], ..FaultPlan::uniform(1.0, 3) };
        let out = corrupt_track(&plan, 0, &gpx);
        let (d, profile) = ingest(&out.payload);
        assert!(matches!(d, Disposition::Repaired(_)));
        let got = profile.unwrap();
        assert_eq!(got.len(), clean.len());
        let worst = got
            .iter()
            .zip(&clean)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(worst < 15.0, "despiked profile deviates by {worst} m");
    }

    #[test]
    fn shuffle_repair_restores_profile_exactly() {
        let gpx = sample_gpx(150);
        let plan =
            FaultPlan { kinds: vec![FaultKind::OutOfOrderTime], ..FaultPlan::uniform(1.0, 5) };
        let out = corrupt_track(&plan, 0, &gpx);
        let (d, profile) = ingest(&out.payload);
        assert!(matches!(d, Disposition::Repaired(_)), "got {d:?}");
        assert_eq!(profile.unwrap(), gpx.elevation_profile());
    }

    #[test]
    fn duplicate_repair_restores_profile_exactly() {
        let gpx = sample_gpx(150);
        let plan =
            FaultPlan { kinds: vec![FaultKind::DuplicatePoints], ..FaultPlan::uniform(1.0, 7) };
        let out = corrupt_track(&plan, 0, &gpx);
        let (d, profile) = ingest(&out.payload);
        assert!(matches!(d, Disposition::Repaired(_)), "got {d:?}");
        assert_eq!(profile.unwrap(), gpx.elevation_profile());
    }

    #[test]
    fn truncated_bytes_are_quarantined_not_fatal() {
        let gpx = sample_gpx(100);
        let plan =
            FaultPlan { kinds: vec![FaultKind::TruncateBytes], ..FaultPlan::uniform(1.0, 9) };
        let out = corrupt_track(&plan, 0, &gpx);
        let (d, profile) = ingest(&out.payload);
        assert!(
            matches!(d, Disposition::Quarantined(QuarantineReason::ParseFailed(_))),
            "got {d:?}"
        );
        assert!(profile.is_none());
    }

    #[test]
    fn too_short_tracks_are_quarantined() {
        let gpx = sample_gpx(10);
        let (d, _) = ingest(&Payload::Parsed(gpx));
        assert!(matches!(d, Disposition::Quarantined(QuarantineReason::TooShort { .. })));
    }

    /// A one-segment track with one point per elevation, optionally
    /// stamped at the given second offsets.
    fn built_track(elevations: &[f64], secs: Option<&[i64]>) -> Payload {
        let points = elevations
            .iter()
            .enumerate()
            .map(|(i, &e)| TrackPoint {
                coord: LatLon::new(38.0 + i as f64 * 1e-4, -77.0),
                elevation_m: Some(e),
                time: secs.map(|s| format!("2020-01-11T08:{:02}:{:02}Z", s[i] / 60, s[i] % 60)),
            })
            .collect();
        Payload::Parsed(Gpx {
            creator: "ingest boundary test".into(),
            tracks: vec![Track { name: None, segments: vec![TrackSegment { points }] }],
        })
    }

    fn flat(n: usize) -> Vec<f64> {
        vec![100.0; n]
    }

    /// Second offsets sampled every second, except that the step into
    /// point `at` lasts `jump` seconds.
    fn one_hz_with_jump(n: usize, at: usize, jump: i64) -> Vec<i64> {
        (0..n as i64).map(|i| if i < at as i64 { i } else { i + jump - 1 }).collect()
    }

    fn repaired(kind: RepairKind, points: usize) -> Disposition {
        Disposition::Repaired(vec![Repair { kind, points }])
    }

    #[test]
    fn profile_length_boundary_is_24_points() {
        let (d, profile) = ingest(&built_track(&flat(24), None));
        assert_eq!(d, Disposition::Clean);
        assert_eq!(profile.map(|p| p.len()), Some(24));
        assert_eq!(
            ingest(&built_track(&flat(23), None)).0,
            Disposition::Quarantined(QuarantineReason::TooShort { points: 23 })
        );
    }

    #[test]
    fn spike_threshold_is_40_m() {
        let mut ele = flat(60);
        ele[30] += 40.0;
        assert_eq!(ingest(&built_track(&ele, None)).0, Disposition::Clean);
        ele[30] += 0.5;
        let (d, profile) = ingest(&built_track(&ele, None));
        assert_eq!(d, repaired(RepairKind::DespikedElevation, 1));
        assert_eq!(profile, Some(flat(60)));
    }

    #[test]
    fn spike_window_is_5_points() {
        // A 5-point window's median outvotes a 2-point plateau but not
        // a 3-point one.
        let mut ele = flat(60);
        ele[30..32].fill(150.0);
        let (d, _) = ingest(&built_track(&ele, None));
        assert_eq!(d, repaired(RepairKind::DespikedElevation, 2));
        ele[32] = 150.0;
        assert_eq!(ingest(&built_track(&ele, None)).0, Disposition::Clean);
    }

    #[test]
    fn gap_factor_is_4_median_intervals() {
        let secs = one_hz_with_jump(60, 30, 4);
        assert_eq!(ingest(&built_track(&flat(60), Some(&secs))).0, Disposition::Clean);
        let secs = one_hz_with_jump(60, 30, 5);
        let (d, profile) = ingest(&built_track(&flat(60), Some(&secs)));
        assert_eq!(d, repaired(RepairKind::FilledGap, 4));
        assert_eq!(profile.map(|p| p.len()), Some(64));
    }

    #[test]
    fn gap_fill_is_capped_at_64_points() {
        let secs = one_hz_with_jump(200, 100, 1000);
        let (d, profile) = ingest(&built_track(&flat(200), Some(&secs)));
        assert_eq!(d, repaired(RepairKind::FilledGap, 64));
        assert_eq!(profile.map(|p| p.len()), Some(264));
    }

    #[test]
    fn gap_fill_stops_at_the_repaired_fraction() {
        // 53 synthesized points of 153 stay within 35%: the fill runs.
        let secs = one_hz_with_jump(100, 50, 54);
        let (d, profile) = ingest(&built_track(&flat(100), Some(&secs)));
        assert_eq!(d, repaired(RepairKind::FilledGap, 53));
        assert_eq!(profile, Some(flat(153)));
        // 54 of 154 do not: the track is quarantined unfilled.
        let secs = one_hz_with_jump(100, 50, 55);
        assert_eq!(
            ingest(&built_track(&flat(100), Some(&secs))).0,
            Disposition::Quarantined(QuarantineReason::TooCorrupt {
                repaired_fraction: 54.0 / 154.0
            })
        );
    }

    #[test]
    fn repaired_fraction_boundary_is_35_percent() {
        let mut ele = flat(100);
        ele[10..45].fill(f64::NAN);
        let (d, profile) = ingest(&built_track(&ele, None));
        assert_eq!(d, repaired(RepairKind::InterpolatedNan, 35));
        assert_eq!(profile, Some(flat(100)));
        ele[45] = f64::NAN;
        assert_eq!(
            ingest(&built_track(&ele, None)).0,
            Disposition::Quarantined(QuarantineReason::TooCorrupt { repaired_fraction: 0.36 })
        );
    }

    #[test]
    fn all_nan_profile_is_quarantined() {
        let mut gpx = sample_gpx(60);
        for p in &mut gpx.tracks[0].segments[0].points {
            p.elevation_m = Some(f64::NAN);
        }
        let (d, _) = ingest(&Payload::Parsed(gpx));
        assert!(matches!(d, Disposition::Quarantined(QuarantineReason::EmptyProfile)));
    }

    #[test]
    fn batch_is_deterministic_across_thread_counts() {
        let gpx = sample_gpx(160);
        let plan = FaultPlan::uniform(0.5, 21);
        let sources: Vec<Payload> =
            (0..24).map(|i| corrupt_track(&plan, i, &gpx).payload).collect();
        let base = ingest_batch(&sources, &Executor::new(1));
        for threads in [2, 4, 8] {
            let got = ingest_batch(&sources, &Executor::new(threads));
            assert_eq!(got.1, base.1, "report differs at {threads} threads");
            assert_eq!(got.0.len(), base.0.len());
            for (a, b) in got.0.iter().zip(&base.0) {
                match (a, b) {
                    (Some(x), Some(y)) => {
                        assert!(x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits()));
                    }
                    (None, None) => {}
                    _ => panic!("disposition flip at {threads} threads"),
                }
            }
        }
    }

    #[test]
    fn streaming_matches_dom_path_on_faulted_corpus() {
        // The central parity invariant: a reused StreamingIngest and the
        // DOM reference agree on disposition AND profile bits for every
        // faulted source, raw or parsed.
        let gpx = sample_gpx(160);
        let mut ing = StreamingIngest::default();
        for seed in [0u64, 21, 33, 77] {
            let plan = FaultPlan::uniform(0.6, seed);
            for i in 0..16 {
                let src = corrupt_track(&plan, i, &gpx).payload;
                let (dom_d, dom_p) = ingest_dom(&src);
                let (str_d, str_p) = ing.ingest_source(&src);
                assert_eq!(dom_d, str_d, "disposition diverged (seed {seed}, track {i})");
                match (dom_p, str_p) {
                    (Some(x), Some(y)) => {
                        assert_eq!(x.len(), y.len());
                        assert!(
                            x.iter().zip(&y).all(|(p, q)| p.to_bits() == q.to_bits()),
                            "profile bits diverged (seed {seed}, track {i})"
                        );
                    }
                    (None, None) => {}
                    (x, y) => panic!("profile presence diverged: {x:?} vs {y:?}"),
                }
            }
        }
    }

    #[test]
    fn report_accounts_for_every_track() {
        let gpx = sample_gpx(160);
        let plan = FaultPlan::uniform(0.6, 33);
        let sources: Vec<Payload> =
            (0..40).map(|i| corrupt_track(&plan, i, &gpx).payload).collect();
        let (profiles, report) = ingest_batch(&sources, &Executor::new(4));
        assert_eq!(report.tracks.len(), 40);
        assert_eq!(report.clean() + report.repaired() + report.quarantined(), 40);
        for (i, t) in report.tracks.iter().enumerate() {
            assert_eq!(t.index, i);
            match &t.disposition {
                Disposition::Quarantined(_) => assert!(profiles[i].is_none()),
                _ => assert_eq!(profiles[i].as_ref().unwrap().len(), t.profile_len),
            }
        }
        let json = report.to_json();
        assert!(json.contains("\"tracks\": 40"));
        assert!(json.contains("\"quarantine_reasons\""));
    }

    #[test]
    fn garbage_bytes_quarantine_only_that_track() {
        let good = Payload::Parsed(sample_gpx(100));
        let bad = Payload::Raw(vec![0xFF, 0xFE, 0x00, 0x01]);
        let (profiles, report) = ingest_batch(&[good.clone(), bad, good], &Executor::new(2));
        assert!(profiles[0].is_some() && profiles[2].is_some());
        assert!(profiles[1].is_none());
        assert_eq!(report.quarantined(), 1);
        assert_eq!(report.quarantine_counts()[0], ("parse_failed", 1));
    }

    #[test]
    fn batch_reports_validate() {
        let good = Payload::Parsed(sample_gpx(100));
        let bad = Payload::Raw(vec![0xFF, 0xFE, 0x00, 0x01]);
        let (_, report) = ingest_batch(&[good.clone(), bad, good], &Executor::new(2));
        report.validate().expect("batch report invariants");
        assert!(IngestReport::default().validate().is_ok());

        // Each bookkeeping violation is named.
        let mut broken = report.clone();
        broken.tracks[1].index = 7;
        assert!(broken.validate().unwrap_err().contains("position 1"));
        let mut broken = report.clone();
        broken.tracks[0].disposition = Disposition::Repaired(vec![]);
        assert!(broken.validate().unwrap_err().contains("no repairs"));
    }

    #[test]
    fn time_seconds_parses_and_orders() {
        let a = time_seconds("2020-01-11T08:00:00Z").unwrap();
        let b = time_seconds("2020-01-11T08:00:01Z").unwrap();
        let c = time_seconds("2020-01-12T08:00:00Z").unwrap();
        assert_eq!(b - a, 1);
        assert_eq!(c - a, 86_400);
        assert_eq!(time_seconds("not a time"), None);
        assert_eq!(time_seconds(""), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ingest_is_total_on_arbitrary_bytes(
            bytes in prop::collection::vec(0u32..=255, 0..256),
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            let (d, p) = ingest(&Payload::Raw(bytes));
            prop_assert_eq!(p.is_none(), matches!(d, Disposition::Quarantined(_)));
        }

        #[test]
        fn streaming_agrees_with_dom_on_arbitrary_bytes(
            bytes in prop::collection::vec(0u32..=255, 0..256),
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            let dom = ingest_dom(&Payload::Raw(bytes.clone()));
            let stream = StreamingIngest::default().ingest_bytes(&bytes);
            prop_assert_eq!(dom.0, stream.0);
            prop_assert_eq!(dom.1.is_some(), stream.1.is_some());
        }

        #[test]
        fn interpolate_nans_leaves_no_nans_when_anchored(
            mut profile in prop::collection::vec(-100.0f64..4000.0, 2..128),
            holes in prop::collection::vec(0usize..128, 0..32),
        ) {
            for &h in &holes {
                let len = profile.len();
                profile[h % len] = f64::NAN;
            }
            let any_finite = profile.iter().any(|e| e.is_finite());
            interpolate_nans(&mut profile);
            if any_finite {
                prop_assert!(profile.iter().all(|e| e.is_finite()));
            }
        }
    }
}
