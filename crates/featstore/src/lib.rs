//! On-disk columnar feature store: append-only CSR shards.
//!
//! The scale experiments featurize millions of tracks; featurization
//! is by far the most expensive stage, so it is computed **once** and
//! every sweep streams the result from disk. Shards are `durable`
//! framed files (little-endian, length-prefixed, FNV-1a-64 checksummed
//! records under a whole-file checksum footer, published by fsync +
//! rename), so every corruption mode maps onto a distinct
//! [`durable::Error`] class. This crate is the row codec on top.
//!
//! # Shard layout
//!
//! One shard file (`shard-NNNNN.fst`) holds the sparse feature rows of
//! one population shard, in ascending athlete order:
//!
//! ```text
//! header   MAGIC | version | shard_index u64 | n_cols u64 | config u64
//! record*  payload = tag u32 (ROW) | athlete u64 | city u32
//!                  | activity u32 | nnz u32 | indices nnz×u32
//!                  | values nnz×f32
//! footer   the durable footer: row count + whole-file checksum
//! ```
//!
//! # Reading
//!
//! [`ShardReader`] streams records through the `durable` reader's
//! page-sized window of positioned (`pread`-style) reads and decodes
//! them into caller-owned scratch ([`RowBuf`]) — bounded memory, zero
//! steady-state allocations, no interior seek state shared between
//! readers of the same file. Checksums are verified **before** any
//! length field beyond the fixed header is trusted, and a row's
//! indices must ascend strictly below the shard's width: the writer
//! refuses any other row and the reader reads one as
//! [`Error::Malformed`].
//!
//! # The store manifest
//!
//! `store.txt` is a [`durable::Generation`] (header `elevfst v2`, one
//! `index file rows` line per shard) published last; an append or a
//! rebuild in place takes the next generation number. Opening a store
//! reads only the current manifest, no shard.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use durable::{Dec, Enc, Error, FramedReader, FramedWriter, Generation, Manifest};
use std::path::{Path, PathBuf};

/// Shard files start with these bytes.
pub const MAGIC: &[u8; 8] = b"ELEVFST\x01";

/// Container format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Store manifest file name, written last on publish.
pub const MANIFEST: &str = "store.txt";

/// The store's published-generation manifest.
pub const STORE: Manifest = Manifest { file: MANIFEST, prev: "store.prev.txt", header: "elevfst v2" };

const TAG_ROW: u32 = 1;

/// Canonical file name of shard `index`.
pub fn shard_file_name(index: usize) -> String {
    format!("shard-{index:05}.fst")
}

// ---- writing -----------------------------------------------------------

/// Append-only writer for one shard file.
///
/// Rows are encoded into one reused buffer and framed in order; nothing
/// is visible to readers until [`finish`](Self::finish) writes the
/// footer, fsyncs, and atomically renames the temp file into place.
#[derive(Debug)]
pub struct ShardWriter {
    framed: FramedWriter,
    file: String,
    n_cols: u64,
    enc: Enc,
}

impl ShardWriter {
    /// Creates the shard file `shard_file_name(index)` under `dir`
    /// (via a hidden temp name until [`finish`](Self::finish)).
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure.
    pub fn create(dir: &Path, index: usize, n_cols: u64, config: u64) -> Result<Self, Error> {
        let file = shard_file_name(index);
        let fields = [index as u64, n_cols, config];
        let framed = FramedWriter::create(&dir.join(&file), MAGIC, FORMAT_VERSION, fields)?;
        Ok(Self { framed, file, n_cols, enc: Enc::default() })
    }

    /// Appends one sparse feature row.
    ///
    /// Returns the byte offset just past the appended record (the
    /// record boundaries, which the torn-write tests cut at).
    ///
    /// # Errors
    ///
    /// [`Error::Malformed`] if `indices`/`values` disagree in length,
    /// an index is out of column range, or the indices do not ascend
    /// strictly; [`Error::Io`] on write failure.
    pub fn append_row(
        &mut self,
        athlete: u64,
        city: u32,
        activity: u32,
        indices: &[u32],
        values: &[f32],
    ) -> Result<u64, Error> {
        if indices.len() != values.len() {
            return Err(Error::Malformed(format!(
                "row has {} indices but {} values",
                indices.len(),
                values.len()
            )));
        }
        check_indices(indices, self.n_cols)?;
        let e = &mut self.enc;
        e.0.clear();
        e.u32(TAG_ROW).u64(athlete).u32(city).u32(activity).u32(indices.len() as u32);
        for &i in indices {
            e.u32(i);
        }
        for &v in values {
            e.f32(v);
        }
        self.framed.write_record(&self.enc.0)
    }

    /// Rows appended so far.
    pub fn rows(&self) -> u64 {
        self.framed.records()
    }

    /// Writes the footer, fsyncs, and atomically publishes the file.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on write, sync, or rename failure.
    pub fn finish(self) -> Result<ShardMeta, Error> {
        let rows = self.framed.records();
        let bytes = self.framed.finish()?;
        Ok(ShardMeta { file: self.file, rows, bytes })
    }
}

/// Summary of a published shard file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMeta {
    /// File name under the store directory.
    pub file: String,
    /// Feature rows in the shard.
    pub rows: u64,
    /// Total file bytes (including the footer).
    pub bytes: u64,
}

// ---- reading -----------------------------------------------------------

/// One decoded feature row; reused across [`ShardReader::next_row`]
/// calls so steady-state reading allocates nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowBuf {
    /// Global athlete id the row belongs to.
    pub athlete: u64,
    /// Home-city label (index into the population's city list).
    pub city: u32,
    /// Activity index within the athlete's stream.
    pub activity: u32,
    /// Feature indices, strictly ascending.
    pub indices: Vec<u32>,
    /// Feature values, parallel to `indices`.
    pub values: Vec<f32>,
}

/// Streaming reader over one shard file using positioned reads.
#[derive(Debug)]
pub struct ShardReader {
    framed: FramedReader,
    /// Header fields.
    shard_index: u64,
    n_cols: u64,
    config: u64,
}

impl ShardReader {
    /// Opens a shard file and validates its header.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] / [`Error::BadMagic`] / [`Error::UnsupportedVersion`]
    /// / [`Error::Truncated`] / [`Error::ChecksumMismatch`].
    pub fn open(path: &Path) -> Result<Self, Error> {
        let framed = FramedReader::open(path, MAGIC, FORMAT_VERSION)?;
        let [shard_index, n_cols, config] = framed.fields();
        Ok(Self { framed, shard_index, n_cols, config })
    }

    /// Shard index recorded in the header.
    pub fn shard_index(&self) -> u64 {
        self.shard_index
    }

    /// Feature-space width recorded in the header.
    pub fn n_cols(&self) -> u64 {
        self.n_cols
    }

    /// Population-config fingerprint recorded in the header.
    pub fn config(&self) -> u64 {
        self.config
    }

    /// Decodes the next row into `row`, returning `false` once the
    /// footer has been reached and verified.
    ///
    /// # Errors
    ///
    /// Every corruption mode maps onto a distinct [`Error`]: a cut
    /// anywhere — mid-record or exactly at a record boundary (missing
    /// footer) — reads as [`Error::Truncated`]; flipped bytes as
    /// [`Error::ChecksumMismatch`]; structural nonsense as
    /// [`Error::Malformed`].
    pub fn next_row(&mut self, row: &mut RowBuf) -> Result<bool, Error> {
        match self.framed.next_record()? {
            Some(payload) => {
                let mut d = Dec::payload(payload);
                match d.u32()? {
                    TAG_ROW => decode_row_fields(&mut d, self.n_cols, row).map(|()| true),
                    tag => Err(Error::Malformed(format!("unknown record tag {tag}"))),
                }
            }
            None => Ok(false),
        }
    }

    /// Byte offset of the next record the streaming cursor will
    /// decode — captured *before* a [`next_row`](Self::next_row) call,
    /// it addresses that row for later [`read_row_at`](Self::read_row_at)
    /// access (the handle the IVF posting lists store).
    pub fn stream_offset(&self) -> u64 {
        self.framed.offset()
    }

    /// Decodes the single row record starting at `offset` — a value a
    /// prior [`stream_offset`](Self::stream_offset) reported — without
    /// disturbing the streaming cursor. The record checksum is
    /// verified before any interior field is trusted, exactly as in
    /// streaming reads. Returns the offset just past the record.
    ///
    /// # Errors
    ///
    /// [`Error::Truncated`] / [`Error::ChecksumMismatch`] on torn or
    /// corrupt records; [`Error::Malformed`] when the record at
    /// `offset` is not a row.
    pub fn read_row_at(&mut self, offset: u64, row: &mut RowBuf) -> Result<u64, Error> {
        let (payload, next) = self.framed.read_record_at(offset)?;
        let mut d = Dec::payload(payload);
        let tag = d.u32()?;
        if tag != TAG_ROW {
            return Err(Error::Malformed(format!(
                "record at offset {offset} has tag {tag}, not a row"
            )));
        }
        decode_row_fields(&mut d, self.n_cols, row)?;
        Ok(next)
    }

    /// Reads (and integrity-checks) the whole shard, returning the row
    /// count — the cheap full-file validation pass.
    ///
    /// # Errors
    ///
    /// Propagates any [`Error`] from [`next_row`](Self::next_row).
    pub fn validate(mut self) -> Result<u64, Error> {
        let mut row = RowBuf::default();
        let mut rows = 0;
        while self.next_row(&mut row)? {
            rows += 1;
        }
        Ok(rows)
    }
}

/// Decodes the row fields following a `TAG_ROW` tag into `row`: one
/// length check covers both arrays, then each index is checked against
/// the width and its predecessor.
fn decode_row_fields(d: &mut Dec<'_>, n_cols: u64, row: &mut RowBuf) -> Result<(), Error> {
    row.athlete = d.u64()?;
    row.city = d.u32()?;
    row.activity = d.u32()?;
    let nnz = d.u32()? as usize;
    let bytes = nnz.checked_mul(8).ok_or_else(|| Error::Malformed(format!("absurd nnz {nnz}")))?;
    let arrays = d.take(bytes)?;
    d.end()?;
    let (indices, values) = arrays.split_at(nnz * 4);
    let le = |c: &[u8]| u32::from_le_bytes(c.try_into().expect("4 bytes"));
    row.indices.clear();
    row.indices.extend(indices.chunks_exact(4).map(le));
    check_indices(&row.indices, n_cols)?;
    row.values.clear();
    row.values.extend(values.chunks_exact(4).map(|c| f32::from_bits(le(c))));
    Ok(())
}

/// Requires a row's indices to ascend strictly and stay below
/// `n_cols`: matching reads a row's first and last index as its range
/// (`OverlapSig`) and scores its nonzeros in index order, so a
/// descending or repeated index would be silently mis-scored.
fn check_indices(indices: &[u32], n_cols: u64) -> Result<(), Error> {
    if let Some(&bad) = indices.iter().find(|&&i| u64::from(i) >= n_cols) {
        return Err(Error::Malformed(format!("index {bad} out of range for {n_cols} columns")));
    }
    if let Some(w) = indices.windows(2).find(|w| w[0] >= w[1]) {
        return Err(Error::Malformed(format!(
            "index {} follows index {}: row indices must ascend strictly",
            w[1], w[0]
        )));
    }
    Ok(())
}

// ---- the store directory ----------------------------------------------

/// One shard entry in the store manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Shard index.
    pub index: usize,
    /// File name under the store directory.
    pub file: String,
    /// Feature rows in the shard.
    pub rows: u64,
}

/// The parsed store manifest (`store.txt`), written last on publish so
/// a complete manifest implies complete shard files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreManifest {
    /// Population-config fingerprint the store was built from.
    pub config: u64,
    /// Feature-space width shared by every shard.
    pub n_cols: u64,
    /// Athletes per shard.
    pub shard_size: u64,
    /// Total athletes featurized.
    pub athletes: u64,
    /// Publish generation, never reused in a directory — derived
    /// sidecars (e.g. the IVF index) record which one they cover.
    pub generation: u64,
    /// Shard entries in ascending index order.
    pub shards: Vec<ShardEntry>,
}

impl StoreManifest {
    fn to_generation(&self) -> Generation {
        Generation {
            number: self.generation,
            fields: vec![
                ("config".into(), format!("{:016x}", self.config)),
                ("n_cols".into(), self.n_cols.to_string()),
                ("shard_size".into(), self.shard_size.to_string()),
                ("athletes".into(), self.athletes.to_string()),
            ],
            files: self.shards.iter().map(|s| (s.file.clone(), s.rows)).collect(),
        }
    }

    fn from_generation(g: Generation) -> Result<Self, Error> {
        Ok(Self {
            config: g.hex_field("config")?,
            n_cols: g.field("n_cols")?,
            shard_size: g.field("shard_size")?,
            athletes: g.field("athletes")?,
            generation: g.number,
            shards: (g.files.into_iter().enumerate())
                .map(|(index, (file, rows))| ShardEntry { index, file, rows })
                .collect(),
        })
    }
}

/// An opened feature store: a directory of shard files plus the parsed
/// manifest.
#[derive(Debug, Clone)]
pub struct FeatureStore {
    dir: PathBuf,
    manifest: StoreManifest,
}

impl FeatureStore {
    /// Opens a published store (reads the manifest, no shard).
    ///
    /// # Errors
    ///
    /// As [`Generation::read`], or [`Error::Malformed`] on a missing
    /// field.
    pub fn open(dir: &Path) -> Result<Self, Error> {
        let manifest = StoreManifest::from_generation(Generation::read(dir, &STORE)?)?;
        Ok(Self { dir: dir.to_path_buf(), manifest })
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &StoreManifest {
        &self.manifest
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total feature rows across all shards.
    pub fn rows(&self) -> u64 {
        self.manifest.shards.iter().map(|s| s.rows).sum()
    }

    /// Opens a streaming reader over shard `index` and cross-checks
    /// its header against the manifest.
    ///
    /// # Errors
    ///
    /// Any [`Error`] from [`ShardReader::open`], plus
    /// [`Error::Malformed`] when the header disagrees with the
    /// manifest.
    pub fn reader(&self, index: usize) -> Result<ShardReader, Error> {
        let entry = self
            .manifest
            .shards
            .get(index)
            .ok_or_else(|| Error::Malformed(format!("no shard {index} in manifest")))?;
        self.open_checked(index, &entry.file)
    }

    /// Opens shard file `file` as shard `index`, requiring its header
    /// to agree with the manifest.
    fn open_checked(&self, index: usize, file: &str) -> Result<ShardReader, Error> {
        let r = ShardReader::open(&self.dir.join(file))?;
        if r.shard_index() != index as u64
            || r.n_cols() != self.manifest.n_cols
            || r.config() != self.manifest.config
        {
            return Err(Error::Malformed(format!(
                "shard {index} header disagrees with manifest (index {}, n_cols {}, config {:016x})",
                r.shard_index(),
                r.n_cols(),
                r.config()
            )));
        }
        Ok(r)
    }

    /// Publishes `manifest` under `dir` as a [`Generation`]; its shard
    /// files must already be durable.
    ///
    /// # Errors
    ///
    /// [`Error::Malformed`] when `manifest.generation` does not exceed
    /// a published one; [`Error::Io`] on filesystem failure.
    pub fn publish_manifest(dir: &Path, manifest: &StoreManifest) -> Result<(), Error> {
        manifest.to_generation().publish(dir, &STORE)
    }

    /// Extends a published store with freshly written shards — the
    /// incremental-growth path. The vocabulary (and hence `n_cols`) is
    /// frozen, so appends only add rows: `config` must match the
    /// manifest fingerprint, every new shard must continue the dense
    /// ascending index sequence and carry a matching header, and the
    /// updated manifest (next generation, `athletes` raised) is
    /// published last.
    ///
    /// # Errors
    ///
    /// [`Error::Malformed`] on a config mismatch, a shrinking
    /// athlete count, or a shard whose name/header breaks the
    /// sequence; any [`Error`] from reading a new shard's header
    /// or publishing the manifest.
    pub fn append_shards(
        &mut self,
        config: u64,
        athletes: u64,
        metas: &[ShardMeta],
    ) -> Result<(), Error> {
        if config != self.manifest.config {
            return Err(Error::Malformed(format!(
                "append config {config:016x} does not match store config {:016x}",
                self.manifest.config
            )));
        }
        if athletes < self.manifest.athletes {
            return Err(Error::Malformed(format!(
                "append would shrink the store: {} -> {athletes} athletes",
                self.manifest.athletes
            )));
        }
        let mut shards = self.manifest.shards.clone();
        for m in metas {
            let index = shards.len();
            if m.file != shard_file_name(index) {
                return Err(Error::Malformed(format!(
                    "appended shard `{}` does not continue the sequence at index {index}",
                    m.file
                )));
            }
            self.open_checked(index, &m.file)?;
            shards.push(ShardEntry { index, file: m.file.clone(), rows: m.rows });
        }
        let manifest = StoreManifest {
            athletes,
            generation: Generation::next(&self.dir, &STORE),
            shards,
            ..self.manifest.clone()
        };
        Self::publish_manifest(&self.dir, &manifest)?;
        self.manifest = manifest;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use durable::ladder::TempDir;

    #[test]
    fn write_read_roundtrip() {
        let tmp = TempDir::new("fst-rt");
        let dir = tmp.0.as_path();
        let mut w = ShardWriter::create(dir, 0, 100, 0xABCD).expect("create");
        w.append_row(7, 3, 0, &[1, 5, 99], &[1.0, 2.5, -3.0]).expect("row");
        w.append_row(8, 4, 1, &[], &[]).expect("empty row");
        let meta = w.finish().expect("finish");
        assert_eq!(meta.rows, 2);

        let mut r = ShardReader::open(&dir.join(&meta.file)).expect("open");
        assert_eq!((r.shard_index(), r.n_cols(), r.config()), (0, 100, 0xABCD));
        let mut row = RowBuf::default();
        assert!(r.next_row(&mut row).expect("row 0"));
        assert_eq!((row.athlete, row.city, row.activity), (7, 3, 0));
        assert_eq!(row.indices, vec![1, 5, 99]);
        assert_eq!(row.values, vec![1.0, 2.5, -3.0]);
        assert!(r.next_row(&mut row).expect("row 1"));
        assert_eq!(row.indices, Vec::<u32>::new());
        assert!(!r.next_row(&mut row).expect("footer"));
        assert!(!r.next_row(&mut row).expect("idempotent EOF"));
    }

    #[test]
    fn writer_rejects_bad_rows() {
        let tmp = TempDir::new("fst-bad");
        let dir = tmp.0.as_path();
        let mut w = ShardWriter::create(dir, 0, 10, 0).expect("create");
        assert_eq!(w.append_row(0, 0, 0, &[1], &[]).unwrap_err().name(), "malformed");
        assert_eq!(w.append_row(0, 0, 0, &[10], &[1.0]).unwrap_err().name(), "malformed");
        assert_eq!(w.append_row(0, 0, 0, &[5, 1], &[1.0, 1.0]).unwrap_err().name(), "malformed");
        assert_eq!(w.append_row(0, 0, 0, &[3, 3], &[1.0, 1.0]).unwrap_err().name(), "malformed");
        assert_eq!(w.rows(), 0, "a refused row is not written");
    }

    #[test]
    fn reader_rejects_rows_whose_indices_do_not_ascend() {
        let tmp = TempDir::new("fst-order");
        let path = tmp.0.join(shard_file_name(0));
        // A checksummed record the writer would refuse: indices [5, 1].
        let mut w = FramedWriter::create(&path, MAGIC, FORMAT_VERSION, [0, 10, 0]).expect("create");
        let mut e = Enc::default();
        e.u32(TAG_ROW).u64(1).u32(0).u32(0).u32(2).u32(5).u32(1).f32(1.0).f32(2.0);
        w.write_record(&e.0).expect("record");
        w.finish().expect("finish");

        let mut row = RowBuf::default();
        let mut r = ShardReader::open(&path).expect("open");
        let at = r.stream_offset();
        assert_eq!(r.next_row(&mut row).unwrap_err().name(), "malformed");
        let mut r = ShardReader::open(&path).expect("open");
        assert_eq!(r.read_row_at(at, &mut row).unwrap_err().name(), "malformed");
    }

    #[test]
    fn manifest_roundtrip_and_rejects() {
        let m = StoreManifest {
            config: 0xDEAD_BEEF,
            n_cols: 512,
            shard_size: 64,
            athletes: 100,
            generation: 3,
            shards: vec![
                ShardEntry { index: 0, file: shard_file_name(0), rows: 128 },
                ShardEntry { index: 1, file: shard_file_name(1), rows: 70 },
            ],
        };
        let text = m.to_generation().render(&STORE);
        assert!(text.starts_with("elevfst v2\ngeneration 3\nconfig 00000000deadbeef\n"));
        let parsed = Generation::parse(&text, &STORE).and_then(StoreManifest::from_generation);
        assert_eq!(parsed, Ok(m));

        // A well-formed generation without the store's fields is not a
        // store manifest.
        let bare = Generation { number: 1, fields: Vec::new(), files: Vec::new() };
        assert_eq!(StoreManifest::from_generation(bare).unwrap_err().name(), "malformed");
    }

    #[test]
    fn positioned_row_reads_match_streaming() {
        let tmp = TempDir::new("fst-pread");
        let dir = tmp.0.as_path();
        let mut w = ShardWriter::create(dir, 0, 100, 0xABCD).expect("create");
        w.append_row(7, 3, 0, &[1, 5, 99], &[1.0, 2.5, -3.0]).expect("row");
        w.append_row(8, 4, 1, &[2], &[0.5]).expect("row");
        let meta = w.finish().expect("finish");

        let mut r = ShardReader::open(&dir.join(&meta.file)).expect("open");
        let mut offsets = Vec::new();
        let mut streamed = Vec::new();
        let mut row = RowBuf::default();
        loop {
            let at = r.stream_offset();
            if !r.next_row(&mut row).expect("row") {
                break;
            }
            offsets.push(at);
            streamed.push(row.clone());
        }
        for (at, want) in offsets.iter().zip(&streamed) {
            let next = r.read_row_at(*at, &mut row).expect("pread row");
            assert_eq!(&row, want);
            assert!(next > *at);
        }
        // Streaming state survives interleaved positioned reads: a
        // fresh reader mixing both still verifies the footer.
        let mut r = ShardReader::open(&dir.join(&meta.file)).expect("open");
        assert!(r.next_row(&mut row).expect("row 0"));
        r.read_row_at(offsets[1], &mut row).expect("pread mid-stream");
        assert!(r.next_row(&mut row).expect("row 1"));
        assert!(!r.next_row(&mut row).expect("footer verifies"));

        // A positioned read aimed at the footer refuses to decode it
        // as a row; one aimed past the end classifies as truncation.
        let eof = r.stream_offset();
        let mut r = ShardReader::open(&dir.join(&meta.file)).expect("open");
        let footer_at = r.read_row_at(offsets[1], &mut row).expect("last row");
        assert_eq!(r.read_row_at(footer_at, &mut row).unwrap_err().name(), "malformed");
        assert_eq!(r.read_row_at(eof + 1_000, &mut row).unwrap_err().name(), "truncated");
    }

    #[test]
    fn append_shards_extends_and_guards() {
        let tmp = TempDir::new("fst-append");
        let dir = tmp.0.as_path();
        let mut w = ShardWriter::create(dir, 0, 10, 0xC0FFEE).expect("create");
        w.append_row(0, 0, 0, &[1], &[1.0]).expect("row");
        let m0 = w.finish().expect("finish");
        let manifest = StoreManifest {
            config: 0xC0FFEE,
            n_cols: 10,
            shard_size: 1,
            athletes: 1,
            generation: 1,
            shards: vec![ShardEntry { index: 0, file: m0.file.clone(), rows: m0.rows }],
        };
        FeatureStore::publish_manifest(dir, &manifest).expect("publish");
        let mut store = FeatureStore::open(dir).expect("open");

        let mut w = ShardWriter::create(dir, 1, 10, 0xC0FFEE).expect("create");
        w.append_row(1, 1, 0, &[2], &[2.0]).expect("row");
        let m1 = w.finish().expect("finish");

        // Wrong config: rejected before anything is touched.
        assert_eq!(
            store.append_shards(0xBAD, 2, std::slice::from_ref(&m1)).unwrap_err().name(),
            "malformed"
        );
        // Shrinking athlete count: rejected.
        assert_eq!(
            store.append_shards(0xC0FFEE, 0, std::slice::from_ref(&m1)).unwrap_err().name(),
            "malformed"
        );
        store.append_shards(0xC0FFEE, 2, std::slice::from_ref(&m1)).expect("append");
        assert_eq!(store.manifest().generation, 2);
        assert_eq!(store.manifest().athletes, 2);
        assert_eq!(store.manifest().shards.len(), 2);

        // The published manifest agrees with the in-memory one.
        let reopened = FeatureStore::open(dir).expect("reopen");
        assert_eq!(reopened.manifest(), store.manifest());
        assert_eq!(reopened.reader(1).expect("reader").validate().expect("valid"), 1);

        // Re-appending the same shard breaks the dense sequence.
        assert_eq!(
            store.append_shards(0xC0FFEE, 3, std::slice::from_ref(&m1)).unwrap_err().name(),
            "malformed"
        );
    }
}
