//! Durable containers: the one checksummed-file discipline under the
//! model registry (`serve::registry`), the feature store (`featstore`)
//! and the IVF index (`annindex`).
//!
//! - [`fnv1a64`] / [`fnv1a64_continue`] — the integrity checksum
//!   (corruption detection, not tampering);
//! - [`Digest`] — the same hash over length-prefixed
//!   fields, for content fingerprints (the conformance goldens,
//!   population shards and their configurations);
//! - [`Enc`] / [`Dec`] — little-endian field encoding;
//! - [`FramedWriter`] / [`FramedReader`] — the framed file format below,
//!   read through a page-sized window ([`READ_WINDOW`]);
//! - [`atomic_write`] — the crash-safe write under every publish;
//! - [`Generation`] — a published generation: the one manifest format,
//!   numbering rule, publish order and fallback load of the model
//!   registry's `manifest.txt`, the store's `store.txt` and the
//!   index's `ann.txt`;
//! - [`Error`] — one error type with stable [`Error::name`]s;
//! - [`ladder`] — the torn-write ladders every framed reader's and
//!   manifest reader's tests run.
//!
//! # Framed files
//!
//! ```text
//! header   magic(8) | version u32 | three u64 fields
//!          | fnv u64 over the preceding 36 bytes
//! record*  len u32 | payload | fnv u64 over payload
//! footer   len u32 | payload | fnv u64 over payload
//!          payload = tag u32 (FOOTER_TAG) | records u64
//!                  | fnv u64 over every preceding file byte
//! ```
//!
//! Record payloads belong to the container; each starts with the
//! container's own `u32` tag, which is never [`FOOTER_TAG`]. The footer
//! makes a cut exactly at a record boundary detectable (the file would
//! otherwise just look shorter), and its whole-file checksum catches
//! corruption in bytes a lazy reader skipped.
//!
//! Every strict prefix of a framed file reads as [`Error::Truncated`],
//! and a flipped byte in the header fields, a payload, a record
//! checksum or the footer reads as [`Error::ChecksumMismatch`]. One
//! limit: a flipped length prefix that points past EOF reads as
//! [`Error::Truncated`], because only the footer's whole-file checksum
//! covers the prefixes and the reader stops before it. The ladder's
//! flips therefore stay off the prefixes.
//!
//! [`FramedReader`] reads through one window of [`READ_WINDOW`] bytes
//! (a page), reserved at open and grown only for a record frame larger
//! than a page: a reader holds at most the larger of a page and its
//! largest frame. Streaming costs about one `pread` per page, not two
//! per record, and one pass over each payload computes both its record
//! checksum and the running whole-file checksum. A positioned read
//! usually costs one `pread`, or none when the record lies in the
//! window, so callers that read many records by offset read them in
//! ascending order.
//!
//! # Publishing
//!
//! A framed file and every [`atomic_write`] land under the hidden temp
//! sibling `.<name>.tmp`, are fsynced, and are renamed into place, so a
//! crash leaves either the old file or the new one. Loaders open files
//! by the names their manifests list, so a leftover temp file is never
//! read.
//!
//! # Published generations
//!
//! A container publishes its member files first and a text manifest
//! naming them last ([`Generation::publish`]):
//!
//! ```text
//! elevfst v2                  header: container and manifest version
//! generation 3                publish number
//! config 00000000c0ffee00     the container's `name value` fields
//! files 1                     then one `index file count` line per member
//! 0 shard-00000.fst 128
//! fnv1a64 5f0e8a4f9d1c2b37    FNV-1a-64 over every byte above
//! ```
//!
//! A cut manifest reads as [`Error::Malformed`] (it no longer ends in
//! its checksum line) and a flipped byte above that line as
//! [`Error::ChecksumMismatch`]. A publish must exceed every generation
//! the manifest and its `.prev` copy hold; the outgoing manifest becomes
//! that copy only when it parses, and [`Generation::load`] falls back
//! to it when the current manifest or a member fails.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ladder;

mod digest;

pub use digest::Digest;

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};

/// FNV-1a-64 of the empty input: the state every checksum starts from.
pub const FNV1A64_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a-64 over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_continue(FNV1A64_INIT, bytes)
}

/// The FNV-1a-64 multiplier.
const FNV1A64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Continues an FNV-1a-64 stream from state `h`.
pub fn fnv1a64_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV1A64_PRIME);
    }
    h
}

/// Everything that can go wrong reading or writing a container.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Filesystem error (message carries the OS detail).
    Io(String),
    /// The file does not start with the container's magic.
    BadMagic,
    /// The container format version is not the one this build reads.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
    },
    /// The bytes end before a field, record or footer they promised.
    Truncated {
        /// Byte offset where the reader stopped.
        offset: usize,
        /// Bytes the next field needed.
        needed: usize,
        /// Actual length.
        len: usize,
    },
    /// A stored checksum does not match the content.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the content.
        computed: u64,
    },
    /// The bytes passed their checksums but their content is invalid
    /// (unknown tag, index out of range, count drift, trailing
    /// bytes...).
    Malformed(String),
}

impl Error {
    /// Stable lowercase class name for tests and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Error::Io(_) => "io",
            Error::BadMagic => "bad_magic",
            Error::UnsupportedVersion { .. } => "unsupported_version",
            Error::Truncated { .. } => "truncated",
            Error::ChecksumMismatch { .. } => "checksum_mismatch",
            Error::Malformed(_) => "malformed",
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(m) => write!(f, "io error: {m}"),
            Error::BadMagic => f.write_str("bad magic: not a file of this container format"),
            Error::UnsupportedVersion { found } => {
                write!(f, "unsupported container version {found}")
            }
            Error::Truncated { offset, needed, len } => {
                write!(f, "truncated at offset {offset}: needed {needed} more bytes of {len}")
            }
            Error::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}")
            }
            Error::Malformed(m) => write!(f, "malformed: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e.to_string())
    }
}

// ---- field codecs -------------------------------------------------------

/// Little-endian field encoder over a growable buffer.
#[derive(Debug, Clone, Default)]
pub struct Enc(pub Vec<u8>);

impl Enc {
    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        self.0.extend_from_slice(b);
        self
    }
    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
    /// Appends an `f32` by bit pattern.
    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
    /// Appends a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u32(s.len() as u32).bytes(s.as_bytes())
    }
    /// Appends a `u64`-length-prefixed byte section.
    pub fn section(&mut self, b: &[u8]) -> &mut Self {
        self.u64(b.len() as u64).bytes(b)
    }
}

/// Little-endian field decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    framed: bool,
}

impl<'a> Dec<'a> {
    /// A decoder over a whole file image: running out of bytes is
    /// [`Error::Truncated`].
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0, framed: false }
    }

    /// A decoder over a framed record's payload, whose length the
    /// framing already verified: running out of bytes is
    /// [`Error::Malformed`].
    pub fn payload(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0, framed: true }
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`] or, for payloads, [`Error::Malformed`] when
    /// fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let left = self.buf.len() - self.pos;
        if left < n {
            return Err(if self.framed {
                Error::Malformed(format!("payload ends at {left} of a {n}-byte field"))
            } else {
                Error::Truncated { offset: self.pos, needed: n - left, len: self.buf.len() }
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    /// Reads a `u32`.
    ///
    /// # Errors
    ///
    /// As [`take`](Self::take).
    pub fn u32(&mut self) -> Result<u32, Error> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    /// Reads a `u64`.
    ///
    /// # Errors
    ///
    /// As [`take`](Self::take).
    pub fn u64(&mut self) -> Result<u64, Error> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    /// Reads an `f32` by bit pattern.
    ///
    /// # Errors
    ///
    /// As [`take`](Self::take).
    pub fn f32(&mut self) -> Result<f32, Error> {
        Ok(f32::from_bits(self.u32()?))
    }
    /// Reads a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// As [`take`](Self::take); [`Error::Malformed`] on invalid UTF-8.
    pub fn str(&mut self) -> Result<String, Error> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| Error::Malformed("non-UTF-8 string field".into()))
    }
    /// Reads a `u64`-length-prefixed byte section.
    ///
    /// # Errors
    ///
    /// As [`take`](Self::take).
    pub fn section(&mut self) -> Result<&'a [u8], Error> {
        let n = self.u64()?;
        self.take(usize::try_from(n).unwrap_or(usize::MAX))
    }
    /// Requires every byte to have been consumed.
    ///
    /// # Errors
    ///
    /// [`Error::Malformed`] on trailing bytes.
    pub fn end(&self) -> Result<(), Error> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(Error::Malformed(format!("{n} trailing bytes"))),
        }
    }
}

// ---- publishing ---------------------------------------------------------

/// The hidden temp sibling `.<name>.tmp` a publish of `path` writes.
fn temp_path(path: &Path) -> Result<PathBuf, Error> {
    let name = path
        .file_name()
        .ok_or_else(|| Error::Io(format!("{} has no file name", path.display())))?;
    Ok(path.with_file_name(format!(".{}.tmp", name.to_string_lossy())))
}

/// Renames a synced temp file over `path`, then fsyncs the directory
/// (best effort) so the rename itself is durable.
fn publish(tmp: &Path, path: &Path) -> Result<(), Error> {
    std::fs::rename(tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Writes `bytes` to `path` atomically: hidden temp sibling
/// `.<name>.tmp`, fsync, rename into place, directory fsync. A crash at
/// any point leaves the old content or the new content at `path`,
/// never a torn prefix.
///
/// # Errors
///
/// [`Error::Io`] on any filesystem failure.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), Error> {
    let tmp = temp_path(path)?;
    let mut f = File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    publish(&tmp, path)
}

// ---- framed files -------------------------------------------------------

/// Byte length of a framed file's header (magic + version + three
/// `u64` fields + header checksum).
pub const HEADER_LEN: usize = 8 + 4 + 3 * 8 + 8;

/// Tag of the footer record; container record tags must differ.
pub const FOOTER_TAG: u32 = 2;

/// Append-only writer for one framed file. Nothing is visible at the
/// final path until [`finish`](Self::finish) writes the footer,
/// fsyncs, and renames the temp file into place.
#[derive(Debug)]
pub struct FramedWriter {
    file: std::io::BufWriter<File>,
    tmp: PathBuf,
    path: PathBuf,
    offset: u64,
    content_fnv: u64,
    records: u64,
}

impl FramedWriter {
    /// Creates the framed file `path` (under its temp name until
    /// [`finish`](Self::finish)) and writes the header.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure.
    pub fn create(
        path: &Path,
        magic: &[u8; 8],
        version: u32,
        fields: [u64; 3],
    ) -> Result<Self, Error> {
        let tmp = temp_path(path)?;
        let file = std::io::BufWriter::new(File::create(&tmp)?);
        let mut header = Enc(Vec::with_capacity(HEADER_LEN));
        header.bytes(magic).u32(version);
        for f in fields {
            header.u64(f);
        }
        let fnv = fnv1a64(&header.0);
        header.u64(fnv);
        let mut w = Self {
            file,
            tmp,
            path: path.to_path_buf(),
            offset: 0,
            content_fnv: FNV1A64_INIT,
            records: 0,
        };
        w.write_raw(&header.0)?;
        Ok(w)
    }

    fn write_raw(&mut self, bytes: &[u8]) -> Result<(), Error> {
        self.file.write_all(bytes)?;
        self.content_fnv = fnv1a64_continue(self.content_fnv, bytes);
        self.offset += bytes.len() as u64;
        Ok(())
    }

    fn frame(&mut self, payload: &[u8]) -> Result<u64, Error> {
        let len = u32::try_from(payload.len())
            .map_err(|_| Error::Malformed(format!("{}-byte record payload", payload.len())))?;
        self.write_raw(&len.to_le_bytes())?;
        self.write_raw(payload)?;
        self.write_raw(&fnv1a64(payload).to_le_bytes())?;
        Ok(self.offset)
    }

    /// Appends one record; returns the byte offset just past it.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on write failure; [`Error::Malformed`] for a
    /// payload over `u32::MAX` bytes.
    pub fn write_record(&mut self, payload: &[u8]) -> Result<u64, Error> {
        let end = self.frame(payload)?;
        self.records += 1;
        Ok(end)
    }

    /// Records appended so far (the footer not included).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Writes the footer, fsyncs, and publishes the file; returns its
    /// total byte length.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on write, sync, or rename failure.
    pub fn finish(mut self) -> Result<u64, Error> {
        let mut footer = Enc(Vec::with_capacity(20));
        footer.u32(FOOTER_TAG).u64(self.records).u64(self.content_fnv);
        self.frame(&footer.0)?;
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        publish(&self.tmp, &self.path)?;
        Ok(self.offset)
    }
}

/// Bytes a [`FramedReader`] reads per refill of its window: one page.
///
/// A page, not more: a positioned read that lands outside the window
/// pays for every byte its refill pulls (a query through the IVF index
/// reads about one stored row in eight, by position), while streaming
/// reads gain little past one page per `pread`.
pub const READ_WINDOW: usize = 4096;

/// Reader over one framed file through one page-sized window of
/// positioned (`pread`-style) reads.
///
/// The window holds [`READ_WINDOW`] bytes, reserved at open; it grows
/// only to hold a record frame larger than that, so memory stays
/// bounded by the larger of a page and the largest frame read, and a
/// warm reader allocates nothing. Reading refills the window from the
/// requested record whenever the record's frame is not wholly inside
/// it, so streaming costs about one `pread` per page rather than two
/// per record (the header and the first records come with the open's
/// own read), and a positioned read usually one `pread`. No seek state
/// is shared between readers of the same file.
#[derive(Debug)]
pub struct FramedReader {
    file: File,
    len: u64,
    offset: u64,
    fields: [u64; 3],
    records_seen: u64,
    done: bool,
    content_fnv: u64,
    /// File bytes `[window_start, window_start + window_len)` are
    /// `buf[..window_len]`.
    buf: Vec<u8>,
    window_start: u64,
    window_len: usize,
}

impl FramedReader {
    /// Opens a framed file and validates its header: magic first, then
    /// size, version, and header checksum.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] / [`Error::BadMagic`] / [`Error::Truncated`] /
    /// [`Error::UnsupportedVersion`] / [`Error::ChecksumMismatch`].
    pub fn open(path: &Path, magic: &[u8; 8], version: u32) -> Result<Self, Error> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut r = Self {
            file,
            len,
            offset: HEADER_LEN as u64,
            fields: [0; 3],
            records_seen: 0,
            done: false,
            content_fnv: FNV1A64_INIT,
            buf: vec![0; READ_WINDOW],
            window_start: 0,
            window_len: 0,
        };
        let have = usize::try_from(len).map_or(HEADER_LEN, |l| l.min(HEADER_LEN));
        r.window(0, have)?;
        let header = &r.buf[..have];
        if have >= 8 && &header[..8] != magic {
            return Err(Error::BadMagic);
        }
        if have < HEADER_LEN {
            return Err(Error::Truncated { offset: 0, needed: HEADER_LEN - have, len: have });
        }
        let mut d = Dec::new(&header[8..]);
        let found = d.u32()?;
        if found != version {
            return Err(Error::UnsupportedVersion { found });
        }
        r.fields = [d.u64()?, d.u64()?, d.u64()?];
        let stored = d.u64()?;
        let computed = fnv1a64(&header[..HEADER_LEN - 8]);
        if stored != computed {
            return Err(Error::ChecksumMismatch { stored, computed });
        }
        r.content_fnv = fnv1a64(header);
        Ok(r)
    }

    /// The three `u64` header fields.
    pub fn fields(&self) -> [u64; 3] {
        self.fields
    }

    /// Byte offset of the record the next
    /// [`next_record`](Self::next_record) call decodes — the handle
    /// [`read_record_at`](Self::read_record_at) takes.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Makes file bytes `[at, at + n)`, which the file holds, resident
    /// in the window — refilling it from `at` with at least a page when
    /// they are not — and returns where they start in `buf`.
    fn window(&mut self, at: u64, n: usize) -> Result<usize, Error> {
        let end = self.window_start + self.window_len as u64;
        if at >= self.window_start && at + n as u64 <= end {
            return Ok((at - self.window_start) as usize);
        }
        let left = usize::try_from(self.len - at).unwrap_or(usize::MAX);
        let fill = n.max(READ_WINDOW).min(left);
        if self.buf.len() < fill {
            self.buf.resize(fill, 0);
        }
        // An unfinished refill leaves an empty window, never a stale one.
        self.window_len = 0;
        read_exact_at(&self.file, &mut self.buf[..fill], at)?;
        (self.window_start, self.window_len) = (at, fill);
        Ok(0)
    }

    /// Brings the record frame at `offset` into the window; returns
    /// where its payload starts in `buf` and the payload length. Checks
    /// only that the file holds the whole frame.
    fn frame(&mut self, offset: u64) -> Result<(usize, usize), Error> {
        let len = self.len as usize;
        let truncated = |needed: usize| Error::Truncated { offset: offset as usize, needed, len };
        let remaining = usize::try_from(self.len.saturating_sub(offset)).unwrap_or(usize::MAX);
        if remaining < 4 {
            // Includes a clean EOF where the footer should be: a
            // publish killed exactly at a record boundary.
            return Err(truncated(4 - remaining));
        }
        let at = self.window(offset, 4)?;
        let len4 = self.buf[at..at + 4].try_into().expect("4 bytes");
        let payload_len = u32::from_le_bytes(len4) as usize;
        let frame_len = 4 + payload_len + 8;
        if remaining < frame_len {
            return Err(truncated(frame_len - remaining));
        }
        let at = self.window(offset, frame_len)?;
        Ok((at + 4, payload_len))
    }

    /// The checksum stored after the payload at `buf[at..at + n]`.
    fn stored_fnv(&self, at: usize, n: usize) -> u64 {
        u64::from_le_bytes(self.buf[at + n..at + n + 8].try_into().expect("8 bytes"))
    }

    /// The next record's payload, or `None` once the footer has been
    /// reached and verified. One pass over the payload computes both
    /// its record checksum, verified before the payload is returned,
    /// and the running whole-file checksum the footer is checked
    /// against.
    ///
    /// # Errors
    ///
    /// A cut anywhere — mid-record or exactly at a record boundary —
    /// reads as [`Error::Truncated`]; flipped bytes as
    /// [`Error::ChecksumMismatch`]; a footer whose record count or
    /// trailing length disagrees as [`Error::Malformed`].
    pub fn next_record(&mut self) -> Result<Option<&[u8]>, Error> {
        if self.done {
            return Ok(None);
        }
        let (at, payload_len) = self.frame(self.offset)?;
        let payload = &self.buf[at..at + payload_len];
        let with_len = fnv1a64_continue(self.content_fnv, &self.buf[at - 4..at]);
        let (computed, content) = fnv1a64_both(FNV1A64_INIT, with_len, payload);
        let stored = self.stored_fnv(at, payload_len);
        if stored != computed {
            return Err(Error::ChecksumMismatch { stored, computed });
        }
        let pre_record_fnv = self.content_fnv;
        self.content_fnv = fnv1a64_continue(content, &stored.to_le_bytes());
        self.offset += 4 + payload_len as u64 + 8;
        let payload = &self.buf[at..at + payload_len];
        if payload.get(..4) != Some(&FOOTER_TAG.to_le_bytes()[..]) {
            self.records_seen += 1;
            return Ok(Some(payload));
        }
        let mut d = Dec::payload(&payload[4..]);
        let records = d.u64()?;
        let whole = d.u64()?;
        d.end()?;
        if records != self.records_seen {
            return Err(Error::Malformed(format!(
                "footer promises {records} records, file contains {}",
                self.records_seen
            )));
        }
        if whole != pre_record_fnv {
            return Err(Error::ChecksumMismatch { stored: whole, computed: pre_record_fnv });
        }
        if self.offset != self.len {
            return Err(Error::Malformed(format!(
                "{} trailing bytes after footer",
                self.len - self.offset
            )));
        }
        self.done = true;
        Ok(None)
    }

    /// The payload of the record at `offset` — a value
    /// [`offset`](Self::offset) reported — plus the offset just past
    /// it, without disturbing the streaming cursor. The record checksum
    /// is verified exactly as in streaming reads; the footer is
    /// returned like any record, so callers check their tag. Reads in
    /// ascending offset order mostly land in the window.
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`] / [`Error::ChecksumMismatch`] on torn or
    /// corrupt records.
    pub fn read_record_at(&mut self, offset: u64) -> Result<(&[u8], u64), Error> {
        let (at, payload_len) = self.frame(offset)?;
        let computed = fnv1a64(&self.buf[at..at + payload_len]);
        let stored = self.stored_fnv(at, payload_len);
        if stored != computed {
            return Err(Error::ChecksumMismatch { stored, computed });
        }
        Ok((&self.buf[at..at + payload_len], offset + 4 + payload_len as u64 + 8))
    }
}

/// Continues two FNV-1a-64 streams, from `a` and from `b`, over the
/// same bytes in one pass: the two multiply chains are independent, so
/// they overlap instead of running one after the other.
fn fnv1a64_both(mut a: u64, mut b: u64, bytes: &[u8]) -> (u64, u64) {
    for &x in bytes {
        a = (a ^ u64::from(x)).wrapping_mul(FNV1A64_PRIME);
        b = (b ^ u64::from(x)).wrapping_mul(FNV1A64_PRIME);
    }
    (a, b)
}

/// Positioned read: `pread` on unix, seek+read elsewhere.
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> Result<(), Error> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::FileExt;
        Ok(file.read_exact_at(buf, offset)?)
    }
    #[cfg(not(unix))]
    {
        use std::io::{Read, Seek, SeekFrom};
        let mut f = file;
        f.seek(SeekFrom::Start(offset))?;
        Ok(f.read_exact(buf)?)
    }
}

// ---- published generations ---------------------------------------------

/// Where a container keeps its manifest: file name, the `.prev` copy
/// kept for fallback loads, and the header line (container + version).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Manifest file name under the container directory.
    pub file: &'static str,
    /// The previous generation's manifest.
    pub prev: &'static str,
    /// The manifest's first line.
    pub header: &'static str,
}

/// One published generation: its number (1 on a directory's first
/// publish, strictly rising after), the container's `name value`
/// fields and its member files, each with the container's count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Generation {
    /// Publish number.
    pub number: u64,
    /// Fields in render order.
    pub fields: Vec<(String, String)>,
    /// Member files in index order, with their counts.
    pub files: Vec<(String, u64)>,
}

/// What [`Generation::load`] loaded.
#[derive(Debug)]
pub struct Loaded<T> {
    /// What the member reader returned per file, in manifest order.
    pub records: Vec<T>,
    /// Number of the generation the records came from.
    pub generation: u64,
    /// True when the current generation failed and `.prev` was loaded.
    pub fell_back: bool,
    /// The current generation's errors (per failed file, or the
    /// manifest's own) when it fell back; empty on a clean load.
    pub errors: Vec<(String, Error)>,
}

impl Generation {
    /// The manifest text, checksum line included.
    pub fn render(&self, m: &Manifest) -> String {
        let mut out = format!("{}\ngeneration {}\n", m.header, self.number);
        for (name, value) in &self.fields {
            out.push_str(&format!("{name} {value}\n"));
        }
        out.push_str(&format!("files {}\n", self.files.len()));
        for (i, (file, count)) in self.files.iter().enumerate() {
            out.push_str(&format!("{i} {file} {count}\n"));
        }
        let fnv = fnv1a64(out.as_bytes());
        out.push_str(&format!("fnv1a64 {fnv:016x}\n"));
        out
    }

    /// Parses manifest text.
    ///
    /// # Errors
    ///
    /// [`Error::ChecksumMismatch`] when the checksum line disagrees with
    /// the text above it; [`Error::Malformed`] when there is no checksum
    /// line (a cut) or the layout is broken.
    pub fn parse(text: &str, m: &Manifest) -> Result<Self, Error> {
        let bad = |msg: String| Error::Malformed(format!("{}: {msg}", m.file));
        let body_len = text.strip_suffix('\n').map_or(0, |t| t.rfind('\n').map_or(0, |i| i + 1));
        let (body, last) = text.split_at(body_len);
        let stored = (last.strip_prefix("fnv1a64 ").and_then(|h| h.strip_suffix('\n')))
            .filter(|h| h.len() == 16)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| bad("does not end in its checksum line (cut short?)".into()))?;
        let computed = fnv1a64(body.as_bytes());
        if stored != computed {
            return Err(Error::ChecksumMismatch { stored, computed });
        }

        let mut lines = body.lines();
        if lines.next() != Some(m.header) {
            return Err(bad("missing or unsupported header line".into()));
        }
        let number = (lines.next().and_then(|l| l.strip_prefix("generation ")))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| bad("missing generation line".into()))?;
        let mut fields = Vec::new();
        let n_files: usize = loop {
            let line = lines.next().ok_or_else(|| bad("missing files line".into()))?;
            let (name, value) = line.split_once(' ').ok_or_else(|| bad(format!("bad line `{line}`")))?;
            if name == "files" {
                break value.parse().map_err(|_| bad(format!("bad files count `{value}`")))?;
            }
            fields.push((name.to_owned(), value.to_owned()));
        };
        let mut files = Vec::new();
        for (i, line) in lines.enumerate() {
            match line.split(' ').collect::<Vec<_>>()[..] {
                [index, file, count] if i < n_files && index.parse() == Ok(i) => {
                    let count = count.parse().map_err(|_| bad(format!("bad count in `{line}`")))?;
                    files.push((file.to_owned(), count));
                }
                _ => return Err(bad(format!("bad, out-of-order or extra files line `{line}`"))),
            }
        }
        if files.len() != n_files {
            return Err(bad("ends mid files list".into()));
        }
        Ok(Self { number, fields, files })
    }

    /// The value of field `name`.
    ///
    /// # Errors
    ///
    /// [`Error::Malformed`] when it is missing or does not parse.
    pub fn field<T: std::str::FromStr>(&self, name: &str) -> Result<T, Error> {
        self.parsed(name, str::parse)
    }

    /// [`field`](Self::field) for a hexadecimal `u64`.
    ///
    /// # Errors
    ///
    /// As [`field`](Self::field).
    pub fn hex_field(&self, name: &str) -> Result<u64, Error> {
        self.parsed(name, |v| u64::from_str_radix(v, 16))
    }

    fn parsed<T, E>(&self, name: &str, parse: impl Fn(&str) -> Result<T, E>) -> Result<T, Error> {
        let (_, value) = (self.fields.iter().find(|(n, _)| n == name))
            .ok_or_else(|| Error::Malformed(format!("missing {name}")))?;
        parse(value).map_err(|_| Error::Malformed(format!("bad {name} `{value}`")))
    }

    fn read_file(dir: &Path, file: &str, m: &Manifest) -> Result<(String, Self), Error> {
        let text = std::fs::read_to_string(dir.join(file))?;
        let generation = Self::parse(&text, m)?;
        Ok((text, generation))
    }

    /// The current generation under `dir` (what derived containers,
    /// which rebuild rather than fall back, read).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when the manifest is unreadable; as
    /// [`parse`](Self::parse).
    pub fn read(dir: &Path, m: &Manifest) -> Result<Self, Error> {
        Self::read_file(dir, m.file, m).map(|(_, g)| g)
    }

    /// The highest number the current and `.prev` manifests hold among
    /// those that parse (0 if none), and the current text if it parses.
    fn published(dir: &Path, m: &Manifest) -> (u64, Option<String>) {
        let current = Self::read_file(dir, m.file, m).ok();
        let prev = Self::read_file(dir, m.prev, m).map_or(0, |(_, g)| g.number);
        let highest = current.as_ref().map_or(0, |(_, g)| g.number).max(prev);
        (highest, current.map(|(text, _)| text))
    }

    /// The number the next publish under `dir` takes.
    pub fn next(dir: &Path, m: &Manifest) -> u64 {
        Self::published(dir, m).0 + 1
    }

    /// Publishes this generation under `dir`, its members already
    /// durable: the outgoing manifest is copied to `m.prev` when it
    /// parses, then this one replaces it via [`atomic_write`].
    ///
    /// # Errors
    ///
    /// [`Error::Malformed`] when `number` does not exceed a published
    /// generation; [`Error::Io`] on filesystem failure.
    pub fn publish(&self, dir: &Path, m: &Manifest) -> Result<(), Error> {
        let (highest, current) = Self::published(dir, m);
        if self.number <= highest {
            return Err(Error::Malformed(format!(
                "{}: generation {} does not exceed published generation {highest}",
                m.file, self.number
            )));
        }
        if let Some(text) = current {
            atomic_write(&dir.join(m.prev), text.as_bytes())?;
        }
        atomic_write(&dir.join(m.file), self.render(m).as_bytes())
    }

    /// Loads the current generation under `dir`, reading each member
    /// through `read(path, count)`, or the `.prev` one when the current
    /// manifest or any member fails.
    ///
    /// # Errors
    ///
    /// The current generation's first error when `.prev` fails too.
    pub fn load<T>(
        dir: &Path,
        m: &Manifest,
        read: impl Fn(&Path, u64) -> Result<T, Error>,
    ) -> Result<Loaded<T>, Error> {
        let members = |file: &str| -> Result<Loaded<T>, Vec<(String, Error)>> {
            let (_, g) = Self::read_file(dir, file, m).map_err(|e| vec![(file.to_owned(), e)])?;
            let (mut records, mut errors) = (Vec::new(), Vec::new());
            for (name, count) in &g.files {
                match read(&dir.join(name), *count) {
                    Ok(record) => records.push(record),
                    Err(e) => errors.push((name.clone(), e)),
                }
            }
            if errors.is_empty() {
                Ok(Loaded { records, generation: g.number, fell_back: false, errors })
            } else {
                Err(errors)
            }
        };
        let errors = match members(m.file) {
            Ok(loaded) => return Ok(loaded),
            Err(errors) => errors,
        };
        match members(m.prev) {
            Ok(loaded) => Ok(Loaded { fell_back: true, errors, ..loaded }),
            Err(_) => Err(errors.into_iter().next().expect("a failed load has an error").1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vectors() {
        assert_eq!(fnv1a64(b""), FNV1A64_INIT);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(fnv1a64_continue(fnv1a64(b"foo"), b"bar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn codecs_roundtrip_and_classify_short_reads() {
        let mut e = Enc::default();
        e.u32(7).u64(1 << 40).f32(-2.5).str("héllo").section(b"xyz");
        let mut d = Dec::new(&e.0);
        assert_eq!(d.u32(), Ok(7));
        assert_eq!(d.u64(), Ok(1 << 40));
        assert_eq!(d.f32(), Ok(-2.5));
        assert_eq!(d.str().as_deref(), Ok("héllo"));
        assert_eq!(d.section(), Ok(&b"xyz"[..]));
        assert_eq!(d.end(), Ok(()));
        assert_eq!(d.u32().unwrap_err().name(), "truncated");
        assert_eq!(Dec::payload(&e.0[..2]).u32().unwrap_err().name(), "malformed");
        assert_eq!(Dec::new(&e.0).end().unwrap_err().name(), "malformed");
        assert_eq!(Dec::new(&[1, 0, 0, 0, 0xFF]).str().unwrap_err().name(), "malformed");
    }

    #[test]
    fn atomic_write_publishes_under_a_hidden_temp_name() {
        let tmp = ladder::TempDir::new("durable-aw");
        let dir = &tmp.0;
        let path = dir.join("m.txt");
        assert_eq!(temp_path(&path), Ok(dir.join(".m.txt.tmp")));
        atomic_write(&path, b"one").expect("write");
        atomic_write(&path, b"two").expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"two");
        let names: Vec<_> =
            std::fs::read_dir(dir).expect("ls").map(|e| e.expect("entry").file_name()).collect();
        assert_eq!(names, ["m.txt"], "no temp file survives a publish");
    }

    const DEMO: Manifest = Manifest { file: "demo.txt", prev: "demo.prev.txt", header: "demo v1" };

    fn demo(number: u64) -> Generation {
        Generation {
            number,
            fields: vec![("config".into(), "00ff".into()), ("size".into(), "3".into())],
            files: vec![("a.bin".into(), 5), ("b.bin".into(), 6)],
        }
    }

    #[test]
    fn manifest_lines_parse_fields_and_dense_entries() {
        let g = demo(4);
        let text = g.render(&DEMO);
        assert!(text.starts_with("demo v1\ngeneration 4\nconfig 00ff\nsize 3\nfiles 2\n0 a.bin"));
        let parsed = Generation::parse(&text, &DEMO).expect("parses");
        assert_eq!(parsed, g);
        assert_eq!(parsed.hex_field("config"), Ok(0xff));
        assert_eq!(parsed.field::<u64>("size"), Ok(3));
        assert_eq!(parsed.field::<u64>("absent").unwrap_err().name(), "malformed");

        // Well-checksummed texts that break the layout are malformed.
        let sealed = |body: &str| format!("{body}fnv1a64 {:016x}\n", fnv1a64(body.as_bytes()));
        for body in [
            "",
            "demo v2\ngeneration 1\nfiles 0\n",
            "demo v1\nfiles 0\n",
            "demo v1\ngeneration 1\n",
            "demo v1\ngeneration 1\nfiles 2\n0 a.bin 5\n",
            "demo v1\ngeneration 1\nfiles 1\n1 a.bin 5\n",
            "demo v1\ngeneration 1\nfiles 1\n0 a.bin 5\nextra\n",
        ] {
            let err = Generation::parse(&sealed(body), &DEMO).unwrap_err();
            assert_eq!(err.name(), "malformed", "{body:?}");
        }
        assert!(Generation::parse(&sealed("demo v1\ngeneration 1\nfiles 0\n"), &DEMO).is_ok());
    }

    #[test]
    fn numbers_never_repeat_and_every_cut_or_flip_reads_as_an_error() {
        let tmp = ladder::TempDir::new("durable-gen");
        let dir = &tmp.0;
        assert_eq!(Generation::next(dir, &DEMO), 1);
        demo(1).publish(dir, &DEMO).expect("gen 1");
        assert!(!dir.join(DEMO.prev).exists(), "a first publish has no prev");
        ladder::manifest(&dir.join(DEMO.file), |_| Generation::read(dir, &DEMO));
        assert_eq!(demo(1).publish(dir, &DEMO).unwrap_err().name(), "malformed");
        demo(2).publish(dir, &DEMO).expect("gen 2");

        // Over a torn manifest, numbering continues past `.prev`, which
        // keeps the last manifest that parsed.
        atomic_write(&dir.join(DEMO.file), b"torn").expect("tear");
        assert_eq!(Generation::next(dir, &DEMO), 2);
        demo(2).publish(dir, &DEMO).expect("publish over torn");
        let prev = std::fs::read_to_string(dir.join(DEMO.prev)).expect("prev");
        assert_eq!(Generation::parse(&prev, &DEMO).map(|g| g.number), Ok(1));
        assert_eq!(Generation::next(dir, &DEMO), 3);
    }
}
