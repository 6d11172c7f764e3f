//! The versioned on-disk model registry.
//!
//! One trained model per `.elevmdl` file, named `<name>@<version>`:
//! a fixed magic, a format version, a typed header (kind, task, label
//! names), a length-prefixed metadata section (the fitted
//! [`TextPipeline`] for text-side models), a length-prefixed weight
//! payload, and a trailing FNV-1a-64 checksum over everything before
//! it. Sections are length-prefixed so a reader can locate the payload
//! without parsing it (mmap-friendly: the weight image of MLP/CNN
//! records is a raw little-endian `f32` slab at a known offset).
//!
//! The checksum, field codecs, atomic publish and error type are the
//! `durable` crate's, shared with the feature store and the IVF index;
//! every corruption mode maps onto a distinct [`durable::Error`] class.
//!
//! Weight fidelity is exact: SVM and forest payloads go through the
//! workspace's bit-exact JSON float round-trip, MLP/CNN payloads are
//! the raw `f32` bit patterns. Save→load equality `to_bits`-level is
//! pinned by `crates/serve/tests/registry_roundtrip.rs`.
//!
//! A directory of records carries a `manifest.txt` (a `generation N`
//! header plus one line per record, written last), which doubles as
//! the hot-reload signal: the server polls its mtime and swaps the
//! bundle when it changes.
//!
//! Publishes are crash-safe: every file lands via
//! [`durable::atomic_write`], the previous manifest (when it parses) is
//! preserved as [`MANIFEST_PREV`] before the new one replaces it, and
//! [`load_generation`] verifies every record's length and FNV against
//! its manifest line before decoding — on any mismatch it falls back
//! to the last-good generation and reports the torn files' errors.

use classicml::{RandomForest, SvmClassifier};
use durable::{atomic_write, fnv1a64, Dec, Enc, Error};
use neuralnet::{ArchSpec, FlatMlp};
use std::fs;
use std::path::Path;
use textrep::TextPipeline;

/// File magic: `ELEVMDL` + format generation byte.
pub const MAGIC: &[u8; 8] = b"ELEVMDL\x01";

/// Current container format version.
pub const FORMAT_VERSION: u32 = 1;

/// The model families the registry stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Linear one-vs-rest SVM (`classicml::SvmClassifier`).
    Svm,
    /// Random forest (`classicml::RandomForest`).
    Forest,
    /// Flat-weight MLP (`neuralnet::FlatMlp`).
    Mlp,
    /// The paper's CNN as an arch spec + flat weight image.
    Cnn,
}

impl ModelKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Svm => "svm",
            ModelKind::Forest => "rfc",
            ModelKind::Mlp => "mlp",
            ModelKind::Cnn => "cnn",
        }
    }

    fn tag(self) -> u32 {
        match self {
            ModelKind::Svm => 1,
            ModelKind::Forest => 2,
            ModelKind::Mlp => 3,
            ModelKind::Cnn => 4,
        }
    }

    fn from_tag(tag: u32) -> Option<Self> {
        match tag {
            1 => Some(ModelKind::Svm),
            2 => Some(ModelKind::Forest),
            3 => Some(ModelKind::Mlp),
            4 => Some(ModelKind::Cnn),
            _ => None,
        }
    }
}

/// A model's weights in their registry form.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelPayload {
    /// SVM hyperplanes (JSON payload; floats round-trip bit-exactly).
    Svm(SvmClassifier),
    /// Forest trees (JSON payload; floats round-trip bit-exactly).
    Forest(RandomForest),
    /// MLP dims + raw `f32` weight image.
    Mlp(FlatMlp),
    /// CNN class count + raw `f32` weight image (visit order).
    Cnn {
        /// Output classes.
        n_classes: usize,
        /// Flat parameter image in `visit_params` order.
        params: Vec<f32>,
    },
}

impl ModelPayload {
    /// The payload's [`ModelKind`].
    pub fn kind(&self) -> ModelKind {
        match self {
            ModelPayload::Svm(_) => ModelKind::Svm,
            ModelPayload::Forest(_) => ModelKind::Forest,
            ModelPayload::Mlp(_) => ModelKind::Mlp,
            ModelPayload::Cnn { .. } => ModelKind::Cnn,
        }
    }
}

/// One registry record: a named, versioned, labelled model plus the
/// featurization pipeline it expects (text-side kinds only).
#[derive(Debug, Clone)]
pub struct ModelRecord {
    /// Registry name (e.g. `tm1-svm`).
    pub name: String,
    /// Monotonic model version; part of the file name.
    pub version: u32,
    /// Task the model answers (`tm1`, `tm3`).
    pub task: String,
    /// Class-index → label-name mapping.
    pub labels: Vec<String>,
    /// The fitted featurization pipeline (text-side models).
    pub pipeline: Option<TextPipeline>,
    /// The weights.
    pub payload: ModelPayload,
}

// ---- encoding ----------------------------------------------------------

/// Serializes a record to its `.elevmdl` byte image (checksum
/// included).
pub fn encode_record(record: &ModelRecord) -> Vec<u8> {
    let mut e = Enc::default();
    e.bytes(MAGIC).u32(FORMAT_VERSION).u32(record.payload.kind().tag()).u32(record.version);
    e.str(&record.name).str(&record.task).u32(record.labels.len() as u32);
    for label in &record.labels {
        e.str(label);
    }
    let meta = match &record.pipeline {
        Some(p) => serde_json::to_string(p).expect("pipelines always serialize"),
        None => String::new(),
    };
    e.section(meta.as_bytes());
    let payload = match &record.payload {
        ModelPayload::Svm(m) => {
            serde_json::to_string(m).expect("svm serializes").into_bytes()
        }
        ModelPayload::Forest(m) => {
            serde_json::to_string(m).expect("forest serializes").into_bytes()
        }
        ModelPayload::Mlp(m) => {
            let mut p = Enc::default();
            p.u64(m.input_dim() as u64).u64(m.hidden() as u64).u64(m.n_classes() as u64);
            p.u64(m.params().len() as u64);
            for &w in m.params() {
                p.f32(w);
            }
            p.0
        }
        ModelPayload::Cnn { n_classes, params } => {
            let mut p = Enc::default();
            p.u64(*n_classes as u64).u64(params.len() as u64);
            for &w in params {
                p.f32(w);
            }
            p.0
        }
    };
    e.section(&payload);
    let checksum = fnv1a64(&e.0);
    e.u64(checksum);
    e.0
}

// ---- decoding ----------------------------------------------------------

/// Decodes one `.elevmdl` byte image.
///
/// # Errors
///
/// Every corruption mode maps onto a distinct [`Error`]: truncation →
/// [`Error::Truncated`], flipped content bytes →
/// [`Error::ChecksumMismatch`], a future container version →
/// [`Error::UnsupportedVersion`].
pub fn decode_record(buf: &[u8]) -> Result<ModelRecord, Error> {
    let mut d = Dec::new(buf);
    if d.take(MAGIC.len())? != MAGIC {
        return Err(Error::BadMagic);
    }
    let version = d.u32()?;
    if version != FORMAT_VERSION {
        return Err(Error::UnsupportedVersion { found: version });
    }

    // Verify the trailing checksum before trusting any length field
    // beyond the fixed header (a flipped length byte would otherwise
    // read as truncation instead of corruption).
    if buf.len() < 8 {
        return Err(Error::Truncated { offset: 0, needed: 8 - buf.len(), len: buf.len() });
    }
    let content = &buf[..buf.len() - 8];
    let stored = u64::from_le_bytes(buf[buf.len() - 8..].try_into().expect("8 bytes"));
    let computed = fnv1a64(content);
    if stored != computed {
        return Err(Error::ChecksumMismatch { stored, computed });
    }
    let mut d = Dec::new(content);
    d.take(MAGIC.len() + 4)?;

    let kind_tag = d.u32()?;
    let kind = ModelKind::from_tag(kind_tag)
        .ok_or_else(|| Error::Malformed(format!("unknown model kind tag {kind_tag}")))?;
    let model_version = d.u32()?;
    let name = d.str()?;
    let task = d.str()?;
    let n_labels = d.u32()? as usize;
    if n_labels > 1 << 20 {
        return Err(Error::Malformed(format!("absurd label count {n_labels}")));
    }
    let mut labels = Vec::with_capacity(n_labels);
    for _ in 0..n_labels {
        labels.push(d.str()?);
    }
    let meta = d.section()?;
    let payload_bytes = d.section()?;
    d.end()?;

    let pipeline = if meta.is_empty() {
        None
    } else {
        let json = std::str::from_utf8(meta)
            .map_err(|_| Error::Malformed("non-UTF-8 pipeline metadata".into()))?;
        Some(
            serde_json::from_str::<TextPipeline>(json)
                .map_err(|e| Error::Malformed(format!("pipeline metadata: {e}")))?,
        )
    };

    let payload_json = |what: &str| -> Result<&str, Error> {
        std::str::from_utf8(payload_bytes)
            .map_err(|_| Error::Malformed(format!("non-UTF-8 {what} payload")))
    };
    let payload = match kind {
        ModelKind::Svm => ModelPayload::Svm(
            serde_json::from_str(payload_json("svm")?)
                .map_err(|e| Error::Malformed(format!("svm payload: {e}")))?,
        ),
        ModelKind::Forest => ModelPayload::Forest(
            serde_json::from_str(payload_json("forest")?)
                .map_err(|e| Error::Malformed(format!("forest payload: {e}")))?,
        ),
        ModelKind::Mlp => {
            let mut p = Dec::new(payload_bytes);
            let input_dim = p.u64()? as usize;
            let hidden = p.u64()? as usize;
            let n_classes = p.u64()? as usize;
            let n_params = p.u64()? as usize;
            let params = read_f32s(&mut p, n_params)?;
            ModelPayload::Mlp(
                FlatMlp::from_params(input_dim, hidden, n_classes, params)
                    .map_err(Error::Malformed)?,
            )
        }
        ModelKind::Cnn => {
            let mut p = Dec::new(payload_bytes);
            let n_classes = p.u64()? as usize;
            let n_params = p.u64()? as usize;
            let params = read_f32s(&mut p, n_params)?;
            ModelPayload::Cnn { n_classes, params }
        }
    };

    Ok(ModelRecord { name, version: model_version, task, labels, pipeline, payload })
}

fn read_f32s(p: &mut Dec<'_>, n: usize) -> Result<Vec<f32>, Error> {
    let bytes = p.take(
        n.checked_mul(4).ok_or_else(|| Error::Malformed(format!("absurd parameter count {n}")))?,
    )?;
    Ok(bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

// ---- files and directories ---------------------------------------------

/// The file name a record saves under: `<name>@<version>.elevmdl`.
pub fn file_name(record: &ModelRecord) -> String {
    format!("{}@{}.elevmdl", record.name, record.version)
}

/// The manifest file name a registry directory carries.
pub const MANIFEST: &str = "manifest.txt";

/// The previous generation's manifest, preserved by [`save_dir`] so a
/// torn publish can fall back to the last-good file set.
pub const MANIFEST_PREV: &str = "manifest.prev.txt";

/// Writes `records` into `dir` (created if missing) plus a
/// `manifest.txt`, written last so its mtime bump is the hot-reload
/// signal. Every file lands via [`durable::atomic_write`]. The outgoing
/// manifest is preserved as [`MANIFEST_PREV`] first — only when it
/// parses, so a torn manifest never destroys the last-good fallback —
/// and the new `generation` is one past the highest generation among
/// the current and previous manifests that parse.
///
/// # Errors
///
/// Propagates filesystem errors as [`Error::Io`].
pub fn save_dir(dir: &Path, records: &[ModelRecord]) -> Result<(), Error> {
    fs::create_dir_all(dir)?;
    let parsed = |name: &str| {
        let text = fs::read_to_string(dir.join(name)).ok()?;
        let generation = parse_manifest(&text).ok()?.generation;
        Some((text, generation))
    };
    let current = parsed(MANIFEST);
    let previous = parsed(MANIFEST_PREV);
    let generation = current.iter().chain(&previous).map(|(_, g)| g + 1).max().unwrap_or(1);
    if let Some((text, _)) = &current {
        atomic_write(&dir.join(MANIFEST_PREV), text.as_bytes())?;
    }
    let mut lines = Vec::with_capacity(records.len());
    for record in records {
        let bytes = encode_record(record);
        atomic_write(&dir.join(file_name(record)), &bytes)?;
        lines.push(format!(
            "{}@{} kind={} task={} labels={} bytes={} fnv1a64={:#018x}",
            record.name,
            record.version,
            record.payload.kind().name(),
            record.task,
            record.labels.len(),
            bytes.len(),
            fnv1a64(&bytes),
        ));
    }
    lines.sort();
    let mut text = format!("generation {generation}\n");
    for line in &lines {
        text.push_str(line);
        text.push('\n');
    }
    atomic_write(&dir.join(MANIFEST), text.as_bytes())
}

/// One manifest entry: the file it names and the integrity facts the
/// loader verifies before decoding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ManifestEntry {
    /// Record file name (`<name>@<version>.elevmdl`).
    pub file: String,
    /// Expected file length in bytes.
    pub bytes: usize,
    /// Expected FNV-1a-64 of the whole file.
    pub fnv: u64,
}

/// A parsed `manifest.txt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Publish generation (monotonic; pre-header manifests read as 0).
    pub generation: u64,
    /// Entries sorted by file name.
    pub entries: Vec<ManifestEntry>,
}

/// Parses manifest text (header optional for pre-generation files).
///
/// # Errors
///
/// [`Error::Malformed`] naming the first unparseable line — a
/// torn manifest write must read as an error, never as a shorter
/// valid manifest.
pub fn parse_manifest(text: &str) -> Result<Manifest, Error> {
    let bad = |line: &str, what: &str| {
        Error::Malformed(format!("manifest line {line:?}: {what}"))
    };
    let mut generation = 0u64;
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if i == 0 {
            if let Some(g) = line.strip_prefix("generation ") {
                generation =
                    g.parse().map_err(|_| bad(line, "generation is not an integer"))?;
                continue;
            }
        }
        let mut fields = line.split(' ');
        let id = fields.next().filter(|s| !s.is_empty()).ok_or_else(|| bad(line, "empty"))?;
        if !id.contains('@') {
            return Err(bad(line, "missing name@version"));
        }
        let mut bytes = None;
        let mut fnv = None;
        for field in fields {
            if let Some(v) = field.strip_prefix("bytes=") {
                bytes = Some(v.parse().map_err(|_| bad(line, "bad bytes="))?);
            } else if let Some(v) = field.strip_prefix("fnv1a64=") {
                let hex = v.strip_prefix("0x").ok_or_else(|| bad(line, "bad fnv1a64="))?;
                fnv = Some(
                    u64::from_str_radix(hex, 16).map_err(|_| bad(line, "bad fnv1a64="))?,
                );
            }
        }
        entries.push(ManifestEntry {
            file: format!("{id}.elevmdl"),
            bytes: bytes.ok_or_else(|| bad(line, "missing bytes="))?,
            fnv: fnv.ok_or_else(|| bad(line, "missing fnv1a64="))?,
        });
    }
    entries.sort();
    Ok(Manifest { generation, entries })
}

/// What [`load_generation`] actually loaded.
#[derive(Debug)]
pub struct GenerationLoad {
    /// Records of the served generation, in manifest order.
    pub records: Vec<ModelRecord>,
    /// Generation number of the manifest the records came from.
    pub generation: u64,
    /// True when the current manifest's file set was torn and the
    /// previous generation was served instead.
    pub fell_back: bool,
    /// Per-file errors from the torn generation (empty on a clean
    /// load) — each torn file keeps its distinct error class.
    pub errors: Vec<(String, Error)>,
}

fn load_manifest_records(
    dir: &Path,
    manifest: &Manifest,
) -> Result<Vec<ModelRecord>, Vec<(String, Error)>> {
    let mut records = Vec::with_capacity(manifest.entries.len());
    let mut errors = Vec::new();
    for entry in &manifest.entries {
        let path = dir.join(&entry.file);
        let loaded = fs::read(&path).map_err(Error::from).and_then(
            |bytes| {
                if bytes.len() < entry.bytes {
                    return Err(Error::Truncated {
                        offset: bytes.len(),
                        needed: entry.bytes - bytes.len(),
                        len: bytes.len(),
                    });
                }
                let computed = fnv1a64(&bytes);
                if bytes.len() != entry.bytes || computed != entry.fnv {
                    return Err(Error::ChecksumMismatch {
                        stored: entry.fnv,
                        computed,
                    });
                }
                decode_record(&bytes)
            },
        );
        match loaded {
            Ok(record) => records.push(record),
            Err(e) => errors.push((entry.file.clone(), e)),
        }
    }
    if errors.is_empty() {
        Ok(records)
    } else {
        Err(errors)
    }
}

/// Loads the registry the crash-safe way: parse `manifest.txt`,
/// verify every listed file's length and FNV against its manifest
/// line, and decode. If anything about the current generation is torn
/// — unparseable manifest, missing file, short file, flipped bytes —
/// fall back to [`MANIFEST_PREV`] and serve the last-good generation,
/// reporting the torn files' distinct errors in
/// [`GenerationLoad::errors`].
///
/// # Errors
///
/// The current generation's first error when no previous generation
/// exists or the fallback is itself unloadable.
pub fn load_generation(dir: &Path) -> Result<GenerationLoad, Error> {
    let manifest_text = fs::read_to_string(dir.join(MANIFEST)).map_err(Error::from);
    let current = manifest_text.and_then(|text| {
        let manifest = parse_manifest(&text)?;
        Ok((manifest.generation, load_manifest_records(dir, &manifest)))
    });
    let errors = match current {
        Ok((generation, Ok(records))) => {
            return Ok(GenerationLoad { records, generation, fell_back: false, errors: Vec::new() })
        }
        Ok((_, Err(errors))) => errors,
        Err(e) => vec![(MANIFEST.to_owned(), e)],
    };
    let fallback = fs::read_to_string(dir.join(MANIFEST_PREV))
        .map_err(Error::from)
        .and_then(|text| {
            let manifest = parse_manifest(&text)?;
            load_manifest_records(dir, &manifest)
                .map(|records| (manifest.generation, records))
                .map_err(|mut errs| errs.swap_remove(0).1)
        });
    match fallback {
        Ok((generation, records)) => {
            Ok(GenerationLoad { records, generation, fell_back: true, errors })
        }
        // No last-good generation: surface the torn generation's first
        // error (the fallback miss is secondary).
        Err(_) => Err(errors.into_iter().next().expect("at least one error").1),
    }
}

/// The manifest's mtime, the hot-reload poll signal. `None` when the
/// manifest does not exist (nothing to reload yet).
pub fn manifest_mtime(dir: &Path) -> Option<std::time::SystemTime> {
    fs::metadata(dir.join(MANIFEST)).and_then(|m| m.modified()).ok()
}

/// Captures a CNN's registry payload from a trained network.
pub fn cnn_payload(net: &mut neuralnet::Sequential, n_classes: usize) -> ModelPayload {
    let mut params = Vec::new();
    net.export_params(&mut params);
    ModelPayload::Cnn { n_classes, params }
}

/// Restores a CNN record's network (arch rebuilt, weights imported).
///
/// # Errors
///
/// Rejects payloads whose parameter count does not match the
/// architecture.
pub fn restore_cnn(n_classes: usize, params: &[f32]) -> Result<neuralnet::Sequential, String> {
    let mut net = ArchSpec::PaperCnn { n_classes }.build(0);
    if net.n_params() != params.len() {
        return Err(format!(
            "cnn parameter count {} != architecture's {}",
            params.len(),
            net.n_params()
        ));
    }
    net.import_params(params);
    Ok(net)
}
