//! Zero-copy streaming GPX reading.
//!
//! [`StreamReader`] is the crate's one XML tokenizer, over the GPX
//! subset [`crate::xml`] describes: every event borrows tag names,
//! attribute slices, and character data straight from the input buffer
//! — no `String` is allocated on the happy path. Entity references are
//! *validated* in place as the tag is scanned (so the error lattice —
//! variants, reasons, byte offsets, and ordering — is the same for the
//! DOM builder and the point walk below, whichever values each decodes)
//! and only decoded, via [`crate::xml::decode_entities`]'s
//! copy-on-write path, when a caller actually consumes the value.
//!
//! On top of the reader sit the pieces the streaming ingestion pipeline
//! consumes directly:
//!
//! - [`parse_f64`], a fast float parser bit-identical to
//!   `str::parse::<f64>` (exact fast path, `str::parse` fallback);
//! - [`FlatPoint`]/[`PointBuf`], the flattened trackpoint sequence with
//!   timestamps interned into a reusable arena, filled either from the
//!   event stream ([`PointBuf::fill_from_bytes`], DOM-free) or from an
//!   already-parsed document ([`PointBuf::fill_from_gpx`]).
//!
//! The point walk replicates `Gpx::parse`'s state machine decision for
//! decision (dropped segments, swallowed `<ele>` errors, unconditional
//! `take()`s), so the flattened sequence is identical to flattening the
//! DOM — the property the conformance parity campaign pins.

use crate::model::Gpx;
use crate::xml::{check_entities, decode_entities, XmlError};
use crate::GpxError;
use geoprim::LatLon;
use std::borrow::Cow;

/// One borrowed parsing event.
///
/// `'a` is the input buffer; `'r` is the reader borrow carrying the
/// attribute scratch slice (valid until the next [`StreamReader::next_event`]
/// call). Attribute values and text are **raw**: entity references have
/// been validated but not decoded — pass them through
/// [`crate::xml::decode_entities`] to materialize (copy-free when no
/// `&` is present).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamEvent<'r, 'a> {
    /// `<name attr="v" ...>` — for self-closing tags, a matching
    /// [`StreamEvent::End`] is synthesized immediately after.
    Start {
        /// The element name (namespace prefixes kept verbatim).
        name: &'a str,
        /// Attributes in document order, values raw (undecoded).
        attrs: &'r [(&'a str, &'a str)],
    },
    /// `</name>`.
    End {
        /// The element name.
        name: &'a str,
    },
    /// Character data between tags, raw (entity-validated, undecoded).
    /// Whitespace-only text is *not* suppressed; callers decide.
    Text(&'a str),
}

/// A pull parser yielding borrowed [`StreamEvent`]s over a `&str`.
///
/// # Examples
///
/// ```
/// use gpxfile::stream::{StreamEvent, StreamReader};
///
/// let mut r = StreamReader::new("<a x=\"1\"><b/>hi &amp; bye</a>");
/// let mut names = Vec::new();
/// while let Some(event) = r.next_event()? {
///     if let StreamEvent::Start { name, .. } = event {
///         names.push(name);
///     }
/// }
/// assert_eq!(names, ["a", "b"]);
/// # Ok::<(), gpxfile::xml::XmlError>(())
/// ```
#[derive(Debug)]
pub struct StreamReader<'a> {
    /// The document. Slicing this (rather than re-running
    /// `str::from_utf8` on byte ranges) is what keeps the scan a single
    /// pass: every delimiter the scanner stops at is ASCII, so every
    /// cut is a char boundary of the already-validated input.
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    /// Stack of open element names (for well-formedness checking).
    stack: Vec<&'a str>,
    /// Attribute scratch for the most recent start tag.
    attrs: Vec<(&'a str, &'a str)>,
    /// Synthesized `End` event pending after a self-closing tag.
    pending_end: Option<&'a str>,
}

impl<'a> StreamReader<'a> {
    /// Creates a reader over an XML document.
    pub fn new(src: &'a str) -> Self {
        Self {
            text: src,
            src: src.as_bytes(),
            pos: 0,
            stack: Vec::new(),
            attrs: Vec::new(),
            pending_end: None,
        }
    }

    /// Current byte offset (for diagnostics).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Returns the next event, or `None` at end of a well-formed document.
    ///
    /// # Errors
    ///
    /// Any [`XmlError`]; after an error, the reader state is unspecified.
    pub fn next_event(&mut self) -> Result<Option<StreamEvent<'_, 'a>>, XmlError> {
        if let Some(name) = self.pending_end.take() {
            self.stack.pop();
            return Ok(Some(StreamEvent::End { name }));
        }
        loop {
            if self.pos >= self.src.len() {
                if self.stack.pop().is_some() {
                    return Err(XmlError::UnexpectedEof { context: "unclosed element" });
                }
                return Ok(None);
            }
            if self.src[self.pos] == b'<' {
                // One byte decides the construct — cheaper than probing
                // each prefix in turn on the hot tag path.
                match self.src.get(self.pos + 1) {
                    Some(b'?') => {
                        self.skip_until("?>")?;
                        continue;
                    }
                    Some(b'!') => {
                        if self.starts_with("<!--") {
                            self.skip_until("-->")?;
                        } else {
                            // DOCTYPE etc. — skip to the matching '>'.
                            self.skip_until(">")?;
                        }
                        continue;
                    }
                    Some(b'/') => return self.parse_end_tag().map(Some),
                    _ => return self.parse_start_tag().map(Some),
                }
            }
            // Text node: one SWAR sweep finds the next '<' and whether
            // any '&' precedes it, so entity-free runs (the usual case)
            // skip the `check_entities` pass entirely.
            let start = self.pos;
            let (len, has_amp) = scan_text_run(&self.src[start..]);
            self.pos = start + len;
            let raw = &self.text[start..self.pos];
            if self.stack.is_empty() && raw.trim().is_empty() {
                continue; // whitespace between prolog and root
            }
            if has_amp {
                check_entities(raw)?;
            }
            return Ok(Some(StreamEvent::Text(raw)));
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_until(&mut self, end: &str) -> Result<(), XmlError> {
        let hay = &self.src[self.pos..];
        match find_sub(hay, end.as_bytes()) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(XmlError::UnexpectedEof { context: "markup" }),
        }
    }

    fn parse_end_tag(&mut self) -> Result<StreamEvent<'_, 'a>, XmlError> {
        self.pos += 2; // consume "</"
        let name = self.read_name()?;
        self.skip_ws();
        if self.pos >= self.src.len() || self.src[self.pos] != b'>' {
            return Err(XmlError::Malformed { offset: self.pos, reason: "expected '>'" });
        }
        self.pos += 1;
        match self.stack.pop() {
            Some(open) if open == name => Ok(StreamEvent::End { name }),
            Some(open) => Err(XmlError::MismatchedTag {
                expected: open.to_owned(),
                found: name.to_owned(),
            }),
            None => Err(XmlError::Malformed {
                offset: self.pos,
                reason: "closing tag with no open element",
            }),
        }
    }

    fn parse_start_tag(&mut self) -> Result<StreamEvent<'_, 'a>, XmlError> {
        self.pos += 1; // consume '<'
        let name = self.read_name()?;
        self.attrs.clear();
        loop {
            self.skip_ws();
            let Some(&b) = self.src.get(self.pos) else {
                return Err(XmlError::UnexpectedEof { context: "start tag" });
            };
            match b {
                b'>' => {
                    self.pos += 1;
                    self.stack.push(name);
                    return Ok(StreamEvent::Start { name, attrs: &self.attrs });
                }
                b'/' => {
                    if !self.starts_with("/>") {
                        return Err(XmlError::Malformed {
                            offset: self.pos,
                            reason: "expected '/>'",
                        });
                    }
                    self.pos += 2;
                    self.stack.push(name);
                    self.pending_end = Some(name);
                    return Ok(StreamEvent::Start { name, attrs: &self.attrs });
                }
                _ => {
                    let key = self.read_name()?;
                    self.skip_ws();
                    if self.src.get(self.pos) != Some(&b'=') {
                        return Err(XmlError::Malformed {
                            offset: self.pos,
                            reason: "expected '=' in attribute",
                        });
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = match self.src.get(self.pos) {
                        Some(&q @ (b'"' | b'\'')) => q,
                        None => {
                            return Err(XmlError::UnexpectedEof { context: "attribute value" })
                        }
                        _ => {
                            return Err(XmlError::Malformed {
                                offset: self.pos,
                                reason: "expected quoted attribute value",
                            })
                        }
                    };
                    self.pos += 1;
                    let start = self.pos;
                    let Some(end) = find_byte(&self.src[start..], quote) else {
                        self.pos = self.src.len();
                        return Err(XmlError::UnexpectedEof { context: "attribute value" });
                    };
                    self.pos = start + end;
                    let raw = &self.text[start..self.pos];
                    self.pos += 1; // closing quote
                    // Validate entities now — the DOM reader decodes (and
                    // so can fail) mid-tag, and error ordering is pinned.
                    if find_byte(raw.as_bytes(), b'&').is_some() {
                        check_entities(raw)?;
                    }
                    self.attrs.push((key, raw));
                }
            }
        }
    }

    fn read_name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while self.pos < self.src.len() && is_name_byte(self.src[self.pos]) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(XmlError::Malformed { offset: start, reason: "expected a name" });
        }
        Ok(&self.text[start..self.pos])
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }
}

/// Name-byte membership as a table lookup — `read_name` runs once per
/// tag and attribute, so the branchy character-class test shows up.
static NAME_BYTE: [bool; 256] = {
    let mut t = [false; 256];
    let mut b = 0usize;
    while b < 256 {
        let c = b as u8;
        t[b] = c.is_ascii_alphanumeric()
            || matches!(c, b':' | b'_' | b'-' | b'.');
        b += 1;
    }
    t
};

fn is_name_byte(b: u8) -> bool {
    NAME_BYTE[b as usize]
}

fn find_sub(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

const SWAR_LO: u64 = 0x0101_0101_0101_0101;
const SWAR_HI: u64 = 0x8080_8080_8080_8080;

/// A word whose bytes have their high bit set exactly where the
/// corresponding byte of `w` is zero (the classic `haszero` trick).
#[inline]
fn zero_bytes(w: u64) -> u64 {
    w.wrapping_sub(SWAR_LO) & !w & SWAR_HI
}

/// `memchr` without the dependency: SWAR over 8-byte words, safe code
/// only. The scanner's inner loops all funnel through here, which is
/// what moves the tokenizer from byte-at-a-time to word-at-a-time.
#[inline]
pub(crate) fn find_byte(hay: &[u8], needle: u8) -> Option<usize> {
    let pat = SWAR_LO * u64::from(needle);
    let mut chunks = hay.chunks_exact(8);
    let mut base = 0usize;
    for c in &mut chunks {
        let hit = zero_bytes(u64::from_le_bytes(c.try_into().expect("8-byte chunk")) ^ pat);
        if hit != 0 {
            return Some(base + (hit.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    chunks.remainder().iter().position(|&b| b == needle).map(|i| base + i)
}

/// Scans a text run: returns the length up to (not including) the next
/// `'<'` (or end of input) and whether any `'&'` occurs within the run
/// — both from the same pass over the bytes.
#[inline]
fn scan_text_run(hay: &[u8]) -> (usize, bool) {
    let lt = SWAR_LO * u64::from(b'<');
    let amp = SWAR_LO * u64::from(b'&');
    let mut chunks = hay.chunks_exact(8);
    let mut base = 0usize;
    let mut seen_amp = 0u64;
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        let lt_hit = zero_bytes(w ^ lt);
        let amp_hit = zero_bytes(w ^ amp);
        if lt_hit != 0 {
            let end = lt_hit.trailing_zeros();
            // Only '&'s strictly before the '<' belong to this run.
            let mask = (1u64 << end) - 1;
            return (base + (end / 8) as usize, (seen_amp | (amp_hit & mask)) != 0);
        }
        seen_amp |= amp_hit;
        base += 8;
    }
    let mut has_amp = seen_amp != 0;
    for (i, &b) in chunks.remainder().iter().enumerate() {
        if b == b'<' {
            return (base + i, has_amp);
        }
        has_amp |= b == b'&';
    }
    (hay.len(), has_amp)
}

/// Exactly representable powers of ten: `10^0 ..= 10^22`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Parses an `f64`, bit-identical to `str::parse::<f64>`.
///
/// The fast path applies when the literal has at most 15 significant
/// digits and an effective decimal exponent in `[-22, 22]`: the
/// mantissa then fits a `u64` below `2^53` and the power of ten is
/// exactly representable, so one IEEE multiply (or divide) yields the
/// correctly rounded result — the same value `str::parse` computes.
/// Everything else (subnormals, `1e308`, 16+ digit mantissas, `inf`,
/// `NaN`, syntax errors) falls through to `str::parse` itself, making
/// bit-identity hold by construction on every input.
///
/// # Errors
///
/// Exactly when `str::parse::<f64>` errors (the fallback produces the
/// error).
///
/// # Examples
///
/// ```
/// assert_eq!(gpxfile::stream::parse_f64("38.8895").unwrap(), 38.8895);
/// assert_eq!(
///     gpxfile::stream::parse_f64("-77.0353").unwrap().to_bits(),
///     "-77.0353".parse::<f64>().unwrap().to_bits()
/// );
/// assert!(gpxfile::stream::parse_f64("tall").is_err());
/// ```
pub fn parse_f64(s: &str) -> Result<f64, std::num::ParseFloatError> {
    let b = s.as_bytes();
    let mut i = 0usize;
    let mut neg = false;
    match b.first() {
        Some(b'+') => i = 1,
        Some(b'-') => {
            neg = true;
            i = 1;
        }
        _ => {}
    }
    let mut mant: u64 = 0;
    let mut sig = 0u32; // significant digits accumulated into `mant`
    let mut any_digits = false;
    let mut too_long = false;
    while let Some(&c) = b.get(i) {
        if !c.is_ascii_digit() {
            break;
        }
        any_digits = true;
        if mant == 0 && c == b'0' {
            // Leading integer zeros contribute nothing.
        } else if sig < 15 {
            mant = mant * 10 + u64::from(c - b'0');
            sig += 1;
        } else {
            too_long = true;
        }
        i += 1;
    }
    let mut exp10: i32 = 0;
    if b.get(i) == Some(&b'.') {
        i += 1;
        while let Some(&c) = b.get(i) {
            if !c.is_ascii_digit() {
                break;
            }
            any_digits = true;
            if mant == 0 && c == b'0' {
                exp10 -= 1; // leading fractional zero: pure scaling
            } else if sig < 15 {
                mant = mant * 10 + u64::from(c - b'0');
                sig += 1;
                exp10 -= 1;
            } else {
                too_long = true;
            }
            i += 1;
        }
    }
    if matches!(b.get(i), Some(b'e' | b'E')) {
        i += 1;
        let mut eneg = false;
        match b.get(i) {
            Some(b'+') => i += 1,
            Some(b'-') => {
                eneg = true;
                i += 1;
            }
            _ => {}
        }
        let mut any_exp = false;
        let mut e: i32 = 0;
        while let Some(&c) = b.get(i) {
            if !c.is_ascii_digit() {
                break;
            }
            any_exp = true;
            if e < 10_000 {
                e = e * 10 + i32::from(c - b'0');
            }
            i += 1;
        }
        if !any_exp {
            return s.parse(); // "1e" and friends: syntax handled there
        }
        exp10 += if eneg { -e } else { e };
    }
    if i != b.len() || !any_digits || too_long || !(-22..=22).contains(&exp10) {
        return s.parse();
    }
    let v = mant as f64;
    let v = if exp10 >= 0 { v * POW10[exp10 as usize] } else { v / POW10[(-exp10) as usize] };
    Ok(if neg { -v } else { v })
}

/// One flattened track point: the plain-data mirror of
/// [`crate::TrackPoint`] with the timestamp interned into the owning
/// [`PointBuf`]'s arena — `Copy`, allocation-free, reusable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlatPoint {
    /// The WGS-84 coordinate.
    pub coord: LatLon,
    /// Elevation in metres (`<ele>`), if recorded.
    pub elevation_m: Option<f64>,
    /// Timestamp as a `(start, end)` byte range into the arena, kept
    /// verbatim as the (decoded, trimmed) ISO-8601 text.
    pub time: Option<(u32, u32)>,
}

/// The flattened trackpoint sequence of one document, with all
/// timestamp text interned into a single reusable arena.
///
/// This is the streaming pipeline's working set. Once `points` and
/// `arena` have grown to corpus size, a fill allocates nothing per
/// point: it makes a constant few allocations per document (the walk's
/// element path and the reader's tag stack and attribute scratch start
/// empty for every document), however many points the document holds.
#[derive(Debug, Clone, Default)]
pub struct PointBuf {
    points: Vec<FlatPoint>,
    arena: String,
    /// Staging for the current `<trkseg>` during a walk.
    seg: Vec<FlatPoint>,
    /// Staging for the current `<trk>` during a walk.
    trk: Vec<FlatPoint>,
    /// Accumulated character data of the current element.
    text: String,
}

impl PointBuf {
    /// The flattened points, in document order.
    pub fn points(&self) -> &[FlatPoint] {
        &self.points
    }

    /// The timestamp text a point's arena range refers to.
    pub fn time_str(&self, p: &FlatPoint) -> Option<&str> {
        p.time.map(|(a, b)| &self.arena[a as usize..b as usize])
    }

    /// Mutable points together with the (read-only) arena they index
    /// into — the split borrow repair passes need to sort/dedup by
    /// timestamp in place.
    pub fn parts_mut(&mut self) -> (&mut Vec<FlatPoint>, &str) {
        (&mut self.points, &self.arena)
    }

    fn reset(&mut self) {
        self.points.clear();
        self.arena.clear();
        self.seg.clear();
        self.trk.clear();
        self.text.clear();
    }

    fn intern(arena: &mut String, s: &str) -> (u32, u32) {
        let start = arena.len() as u32;
        arena.push_str(s);
        (start, arena.len() as u32)
    }

    /// Flattens an already-parsed document (the DOM path).
    pub fn fill_from_gpx(&mut self, gpx: &Gpx) {
        self.reset();
        for track in &gpx.tracks {
            for seg in &track.segments {
                for p in &seg.points {
                    let time =
                        p.time.as_deref().map(|t| Self::intern(&mut self.arena, t));
                    self.points.push(FlatPoint {
                        coord: p.coord,
                        elevation_m: p.elevation_m,
                        time,
                    });
                }
            }
        }
    }

    /// Streams a GPX document's track points out of raw bytes with no
    /// intermediate DOM, validating UTF-8 first (same precedence as
    /// [`Gpx::parse_bytes`]).
    ///
    /// # Errors
    ///
    /// Exactly the errors (variant, message, offset) that
    /// [`Gpx::parse_bytes`] would produce for the same input.
    pub fn fill_from_bytes(&mut self, src: &[u8]) -> Result<(), GpxError> {
        let text = std::str::from_utf8(src)
            .map_err(|e| GpxError::InvalidUtf8 { offset: e.valid_up_to() })?;
        self.fill_from_slice(text)
    }

    /// Streams a GPX document's track points out of a `&str` with no
    /// intermediate DOM.
    ///
    /// The walk mirrors [`Gpx::parse`]'s state machine exactly —
    /// including which malformed constructs error, which are silently
    /// skipped, and which segments/points get dropped — so the
    /// flattened sequence equals flattening the parsed document.
    ///
    /// # Errors
    ///
    /// Exactly the errors that [`Gpx::parse`] would produce.
    pub fn fill_from_slice(&mut self, src: &str) -> Result<(), GpxError> {
        self.reset();
        let mut reader = StreamReader::new(src);
        let mut saw_root = false;
        let mut path: Vec<&str> = Vec::new();
        // The three Option slots of the DOM builder; the point data
        // lives in the staging buffers instead of owned Track values.
        let mut in_track = false;
        let mut in_segment = false;
        let mut cur_point: Option<FlatPoint> = None;
        // Character data of the current element. The common shape — one
        // entity-free text run per element — stays a borrow of `src`;
        // only decoded entities or split runs (comment in the middle)
        // spill into the `self.text` accumulator.
        enum Txt<'s> {
            Empty,
            One(&'s str),
            Buf,
        }
        let mut txt = Txt::Empty;

        while let Some(event) = reader.next_event()? {
            match event {
                StreamEvent::Start { name, attrs } => {
                    if path.is_empty() {
                        if name != "gpx" {
                            return Err(GpxError::NotGpx);
                        }
                        saw_root = true;
                    } else {
                        match (path_tail(&path), name) {
                            ("gpx", "trk") => {
                                in_track = true;
                                self.trk.clear();
                            }
                            ("trk", "trkseg") => {
                                in_segment = true;
                                self.seg.clear();
                            }
                            ("trkseg", "trkpt") => {
                                let coord = parse_trkpt_coord(attrs)?;
                                cur_point =
                                    Some(FlatPoint { coord, elevation_m: None, time: None });
                            }
                            _ => {}
                        }
                    }
                    path.push(name);
                    txt = Txt::Empty;
                }
                StreamEvent::Text(t) => {
                    let decoded = decode_entities(t)?;
                    txt = match (txt, decoded) {
                        (Txt::Empty, Cow::Borrowed(s)) => Txt::One(s),
                        (Txt::Empty, Cow::Owned(s)) => {
                            self.text.clear();
                            self.text.push_str(&s);
                            Txt::Buf
                        }
                        (Txt::One(prev), d) => {
                            self.text.clear();
                            self.text.push_str(prev);
                            self.text.push_str(&d);
                            Txt::Buf
                        }
                        (Txt::Buf, d) => {
                            self.text.push_str(&d);
                            Txt::Buf
                        }
                    };
                }
                StreamEvent::End { name } => {
                    let cur: &str = match txt {
                        Txt::Empty => "",
                        Txt::One(s) => s,
                        Txt::Buf => &self.text,
                    };
                    match name {
                        "ele" if path_parent(&path) == "trkpt" => {
                            if let Some(p) = cur_point.as_mut() {
                                p.elevation_m = Some(parse_ele(cur)?);
                            }
                        }
                        "time" if path_parent(&path) == "trkpt" => {
                            if let Some(p) = cur_point.as_mut() {
                                p.time = Some(Self::intern(&mut self.arena, cur.trim()));
                            }
                        }
                        "trkpt" => {
                            if let Some(p) = cur_point.take() {
                                if in_segment {
                                    self.seg.push(p);
                                }
                            }
                        }
                        "trkseg" if in_segment => {
                            in_segment = false;
                            if in_track {
                                self.trk.append(&mut self.seg);
                            } else {
                                self.seg.clear();
                            }
                        }
                        "trk" if in_track => {
                            in_track = false;
                            self.points.append(&mut self.trk);
                        }
                        _ => {}
                    }
                    path.pop();
                    txt = Txt::Empty;
                }
            }
        }
        if saw_root {
            Ok(())
        } else {
            Err(GpxError::NotGpx)
        }
    }
}

/// The name of the innermost open element (`""` before the root).
pub(crate) fn path_tail<'p>(path: &[&'p str]) -> &'p str {
    path.last().copied().unwrap_or("")
}

/// The name of the element *containing* the element currently being
/// closed (the path still includes the closing element itself).
pub(crate) fn path_parent<'p>(path: &[&'p str]) -> &'p str {
    if path.len() >= 2 {
        path[path.len() - 2]
    } else {
        ""
    }
}

/// A `<trkpt>`'s coordinate from its raw `lat`/`lon` attributes.
pub(crate) fn parse_trkpt_coord(attrs: &[(&str, &str)]) -> Result<LatLon, GpxError> {
    let get = |key: &str| {
        attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
            .ok_or_else(|| GpxError::BadTrackPoint { reason: format!("missing {key}") })
    };
    let lat: f64 = parse_f64(&decode_entities(get("lat")?)?)
        .map_err(|_| GpxError::BadTrackPoint { reason: "unparsable lat".into() })?;
    let lon: f64 = parse_f64(&decode_entities(get("lon")?)?)
        .map_err(|_| GpxError::BadTrackPoint { reason: "unparsable lon".into() })?;
    LatLon::validated(lat, lon).map_err(|e| GpxError::BadTrackPoint { reason: e.to_string() })
}

/// A `<trkpt>`'s elevation from its `<ele>` character data, which must
/// be a finite number.
pub(crate) fn parse_ele(text: &str) -> Result<f64, GpxError> {
    let text = text.trim();
    let v = parse_f64(text)
        .map_err(|_| GpxError::BadTrackPoint { reason: format!("unparsable <ele>: {text:?}") })?;
    if v.is_finite() {
        Ok(v)
    } else {
        Err(GpxError::BadTrackPoint { reason: format!("non-finite <ele>: {v}") })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(src: &str) -> Result<Vec<String>, XmlError> {
        let mut r = StreamReader::new(src);
        let mut out = Vec::new();
        while let Some(e) = r.next_event()? {
            out.push(match e {
                StreamEvent::Start { name, attrs } => {
                    format!("<{name} {attrs:?}>")
                }
                StreamEvent::End { name } => format!("</{name}>"),
                StreamEvent::Text(t) => format!("#{t}"),
            });
        }
        Ok(out)
    }

    #[test]
    fn borrows_without_decoding() {
        let ev = collect(r#"<a t="x &amp; y">1 &lt; 2</a>"#).unwrap();
        // Raw (undecoded) values are surfaced; decode is the caller's.
        assert_eq!(ev, ["<a [(\"t\", \"x &amp; y\")]>", "#1 &lt; 2", "</a>"]);
    }

    #[test]
    fn validates_entities_during_scan() {
        assert!(matches!(
            collect(r#"<a t="&bogus;"><b"#),
            Err(XmlError::UnknownEntity { .. })
        ));
        assert!(matches!(collect("<a>&nope;</a>"), Err(XmlError::UnknownEntity { .. })));
    }

    #[test]
    fn self_closing_synthesizes_end() {
        let ev = collect("<a><b/></a>").unwrap();
        assert_eq!(ev, ["<a []>", "<b []>", "</b>", "</a>"]);
    }

    #[test]
    fn fast_float_agrees_on_common_literals() {
        for s in [
            "0", "-0", "0.0", "-0.0", "+0.0", "1", "-1", "38.8895", "-77.0353", "123.4",
            "1e3", "1E3", "1e-3", "1e+3", "0.005", "1.", ".5", "+.5", "-.5", "9999999999999999",
            "1e308", "1e-308", "5e-324", "1.7976931348623157e308", "2.2250738585072014e-308",
            "1e400", "-1e400", "inf", "-inf", "NaN", "0.000000000000000000001",
            "38.123456789012345678", "00012.5", "12.5000000",
        ] {
            let want = s.parse::<f64>();
            let got = parse_f64(s);
            match (want, got) {
                (Ok(w), Ok(g)) => {
                    assert_eq!(w.to_bits(), g.to_bits(), "mismatch on {s:?}")
                }
                (Err(_), Err(_)) => {}
                (w, g) => panic!("disagreement on {s:?}: {w:?} vs {g:?}"),
            }
        }
    }

    #[test]
    fn fast_float_rejects_what_std_rejects() {
        for s in ["", "+", "-", ".", "1.5x", "e5", "1e", "1e+", "--1", "1..2", "1.2.3"] {
            assert_eq!(s.parse::<f64>().is_err(), parse_f64(s).is_err(), "on {s:?}");
        }
    }

    #[test]
    fn point_walk_matches_dom_flatten() {
        let src = r#"<?xml version="1.0"?>
<gpx version="1.1" creator="stream-test">
  <trk><name>t</name><trkseg>
    <trkpt lat="38.89" lon="-77.05"><ele>21.5</ele><time> 2020-01-11T08:00:00Z </time></trkpt>
    <trkpt lat="38.90" lon="-77.04"><ele>23.0</ele></trkpt>
    <trkpt lat="38.91" lon="-77.03"/>
  </trkseg></trk>
</gpx>"#;
        let gpx = Gpx::parse(src).unwrap();
        let mut buf = PointBuf::default();
        buf.fill_from_slice(src).unwrap();
        let dom: Vec<_> = gpx
            .tracks
            .iter()
            .flat_map(|t| &t.segments)
            .flat_map(|s| &s.points)
            .collect();
        assert_eq!(buf.points().len(), dom.len());
        for (f, p) in buf.points().iter().zip(&dom) {
            assert_eq!(f.coord, p.coord);
            assert_eq!(
                f.elevation_m.map(f64::to_bits),
                p.elevation_m.map(f64::to_bits)
            );
            assert_eq!(buf.time_str(f), p.time.as_deref());
        }
    }

    #[test]
    fn dropped_segments_drop_their_points() {
        // trkseg directly under gpx: points parse but are dropped, in
        // both the DOM builder and the streaming walk.
        let src = r#"<gpx creator="x"><trkseg><trkpt lat="1" lon="2"><ele>5</ele></trkpt></trkseg>
            <trk><trkseg><trkpt lat="3" lon="4"><ele>7</ele></trkpt></trkseg></trk></gpx>"#;
        let gpx = Gpx::parse(src).unwrap();
        let mut buf = PointBuf::default();
        buf.fill_from_slice(src).unwrap();
        assert_eq!(gpx.elevation_profile(), vec![7.0]);
        let profile: Vec<f64> =
            buf.points().iter().filter_map(|p| p.elevation_m).collect();
        assert_eq!(profile, vec![7.0]);
    }

    #[test]
    fn walk_errors_match_dom_errors() {
        for src in [
            "<kml></kml>",
            "",
            "<gpx><trk>",
            r#"<gpx creator="x"><trk><trkseg><trkpt lon="1"/></trkseg></trk></gpx>"#,
            r#"<gpx creator="x"><trk><trkseg><trkpt lat="99" lon="1"/></trkseg></trk></gpx>"#,
            r#"<gpx creator="x"><trk><trkseg><trkpt lat="1" lon="1"><ele>tall</ele></trkpt></trkseg></trk></gpx>"#,
            "<gpx>&bad;</gpx>",
            "<gpx></bad>",
        ] {
            let dom = Gpx::parse(src).err();
            let mut buf = PointBuf::default();
            let stream = buf.fill_from_slice(src).err();
            assert_eq!(dom, stream, "error divergence on {src:?}");
        }
    }

    #[test]
    fn buffer_reuse_is_clean() {
        let mut buf = PointBuf::default();
        buf.fill_from_slice(
            r#"<gpx creator="x"><trk><trkseg><trkpt lat="1" lon="2"><ele>5</ele><time>2020-01-01T00:00:00Z</time></trkpt></trkseg></trk></gpx>"#,
        )
        .unwrap();
        assert_eq!(buf.points().len(), 1);
        buf.fill_from_slice(r#"<gpx creator="y"></gpx>"#).unwrap();
        assert!(buf.points().is_empty());
        assert!(buf.arena.is_empty());
    }
}
