//! The versioned on-disk model registry.
//!
//! One trained model per `.elevmdl` file, named `<name>@<version>`: a
//! `durable` framed file whose header fields are the model kind tag,
//! the model version and the FNV-1a-64 of its one record's payload (the
//! file's stamp), and whose record holds the name, task, label names,
//! a length-prefixed metadata section (the fitted [`TextPipeline`] for
//! text-side models) and a length-prefixed weight section (for MLP/CNN
//! records a raw little-endian `f32` slab). The framing is the one the
//! feature store's shards and the IVF index's sidecars use, so every
//! corruption mode maps onto the same distinct [`durable::Error`]
//! classes.
//!
//! Weight fidelity is exact: SVM and forest payloads go through the
//! workspace's bit-exact JSON float round-trip, MLP/CNN payloads are
//! the raw `f32` bit patterns. Save→load equality `to_bits`-level is
//! pinned by `crates/serve/tests/registry_roundtrip.rs`.
//!
//! A directory of records is published as a [`durable::Generation`]:
//! [`save_dir`] writes the record files, then `manifest.txt` (header
//! `elevmdl v2`) listing each with its stamp, last. Its mtime is the
//! hot-reload signal: the server polls it and swaps the bundle when it
//! changes. Publishes are crash-safe: generation numbers never repeat,
//! the outgoing manifest is kept as [`MANIFEST_PREV`] when it parses,
//! and [`load_generation`] requires each record's header stamp to
//! equal its manifest entry — so a file another publish wrote under
//! the same name with other content never loads as part of this
//! generation — falling back to the previous generation, with the
//! failed files' errors, when anything about the current one fails.

use classicml::{RandomForest, SvmClassifier};
use durable::{fnv1a64, Dec, Enc, Error, FramedReader, FramedWriter, Generation, Manifest};
use neuralnet::FlatMlp;
use std::fs;
use std::path::Path;
use textrep::TextPipeline;

/// File magic: `ELEVMDL` + format generation byte.
pub const MAGIC: &[u8; 8] = b"ELEVMDL\x01";

/// Current container format version (2: records are `durable` framed
/// files).
pub const FORMAT_VERSION: u32 = 2;

/// Tag of the one record an `.elevmdl` file holds.
const TAG_MODEL: u32 = 1;

/// The model families the registry stores; the discriminant is the
/// kind tag a record file's header carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum ModelKind {
    /// Linear one-vs-rest SVM (`classicml::SvmClassifier`).
    Svm = 1,
    /// Random forest (`classicml::RandomForest`).
    Forest = 2,
    /// Flat-weight MLP (`neuralnet::FlatMlp`).
    Mlp = 3,
    /// The paper's CNN as an arch spec + flat weight image.
    Cnn = 4,
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

    fn from_tag(tag: u64) -> Option<Self> {
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

// ---- record files ------------------------------------------------------

/// Writes `record` as a framed `.elevmdl` file at `path`; returns its
/// stamp, the FNV-1a-64 of the record payload, which the header
/// carries and the manifest entry lists.
///
/// # Errors
///
/// [`Error::Io`] on filesystem failure.
pub fn write_record(path: &Path, record: &ModelRecord) -> Result<u64, Error> {
    let mut e = Enc::default();
    e.u32(TAG_MODEL).str(&record.name).str(&record.task).u32(record.labels.len() as u32);
    for label in &record.labels {
        e.str(label);
    }
    let meta = match &record.pipeline {
        Some(p) => serde_json::to_string(p).expect("pipelines always serialize"),
        None => String::new(),
    };
    e.section(meta.as_bytes());
    let weights = match &record.payload {
        ModelPayload::Svm(m) => serde_json::to_string(m).expect("svm serializes").into_bytes(),
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
    e.section(&weights);
    let stamp = fnv1a64(&e.0);
    let fields = [record.payload.kind() as u64, u64::from(record.version), stamp];
    let mut w = FramedWriter::create(path, MAGIC, FORMAT_VERSION, fields)?;
    w.write_record(&e.0)?;
    w.finish()?;
    Ok(stamp)
}

/// Reads the `.elevmdl` file at `path`, requiring its header stamp to
/// be `stamp` (its manifest entry) before decoding anything.
///
/// # Errors
///
/// The framing's distinct classes for torn or corrupt files;
/// [`Error::Malformed`] for a stamp that disagrees (another publish
/// wrote the file) or an undecodable record.
pub fn read_record(path: &Path, stamp: u64) -> Result<ModelRecord, Error> {
    let mut r = FramedReader::open(path, MAGIC, FORMAT_VERSION)?;
    let [kind_tag, version, found] = r.fields();
    if found != stamp {
        return Err(Error::Malformed(format!(
            "{} carries stamp {found:016x}, its manifest entry {stamp:016x}: another publish wrote it",
            path.display()
        )));
    }
    let kind = ModelKind::from_tag(kind_tag)
        .ok_or_else(|| Error::Malformed(format!("unknown model kind tag {kind_tag}")))?;
    let version = u32::try_from(version)
        .map_err(|_| Error::Malformed(format!("model version {version} out of range")))?;
    let payload = r.next_record()?.ok_or_else(|| Error::Malformed("no model record".into()))?;
    let record = decode_payload(kind, version, payload)?;
    match r.next_record()? {
        None => Ok(record),
        Some(_) => Err(Error::Malformed("more than one model record".into())),
    }
}

/// Decodes a model record payload whose kind and version the header
/// carries.
fn decode_payload(kind: ModelKind, version: u32, payload: &[u8]) -> Result<ModelRecord, Error> {
    let mut d = Dec::payload(payload);
    let tag = d.u32()?;
    if tag != TAG_MODEL {
        return Err(Error::Malformed(format!("unknown record tag {tag}")));
    }
    let name = d.str()?;
    let task = d.str()?;
    let n_labels = d.u32()?;
    let labels = (0..n_labels).map(|_| d.str()).collect::<Result<_, _>>()?;
    let meta = d.section()?;
    let weights = d.section()?;
    d.end()?;

    let pipeline = if meta.is_empty() { None } else { Some(json(meta, "pipeline metadata")?) };
    let payload = match kind {
        ModelKind::Svm => ModelPayload::Svm(json(weights, "svm payload")?),
        ModelKind::Forest => ModelPayload::Forest(json(weights, "forest payload")?),
        ModelKind::Mlp => {
            let mut p = Dec::payload(weights);
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
            let mut p = Dec::payload(weights);
            let n_classes = p.u64()? as usize;
            let n_params = p.u64()? as usize;
            let params = read_f32s(&mut p, n_params)?;
            ModelPayload::Cnn { n_classes, params }
        }
    };

    Ok(ModelRecord { name, version, task, labels, pipeline, payload })
}

/// Decodes the JSON section `bytes` (`what` names it in errors).
fn json<T: serde::Deserialize>(bytes: &[u8], what: &str) -> Result<T, Error> {
    let text = std::str::from_utf8(bytes).map_err(|_| Error::Malformed(format!("non-UTF-8 {what}")))?;
    serde_json::from_str(text).map_err(|e| Error::Malformed(format!("{what}: {e}")))
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

// ---- registry directories ----------------------------------------------

/// The file name a record saves under: `<name>@<version>.elevmdl`.
pub fn file_name(record: &ModelRecord) -> String {
    format!("{}@{}.elevmdl", record.name, record.version)
}

/// The manifest file name a registry directory carries.
pub const MANIFEST: &str = "manifest.txt";

/// The previous generation's manifest, preserved by [`save_dir`] so a
/// torn publish can fall back to the last-good file set.
pub const MANIFEST_PREV: &str = "manifest.prev.txt";

/// The registry's published-generation manifest.
pub const REGISTRY: Manifest = Manifest { file: MANIFEST, prev: MANIFEST_PREV, header: "elevmdl v2" };

/// Writes `records` into `dir` (created if missing), then publishes
/// them as the directory's next [`Generation`]: `manifest.txt`, written
/// last so its mtime bump is the hot-reload signal, lists the record
/// files by name with their stamps.
///
/// # Errors
///
/// Propagates filesystem errors as [`Error::Io`].
pub fn save_dir(dir: &Path, records: &[ModelRecord]) -> Result<(), Error> {
    fs::create_dir_all(dir)?;
    let mut files = Vec::with_capacity(records.len());
    for record in records {
        let file = file_name(record);
        let stamp = write_record(&dir.join(&file), record)?;
        files.push((file, stamp));
    }
    files.sort();
    let number = Generation::next(dir, &REGISTRY);
    Generation { number, fields: Vec::new(), files }.publish(dir, &REGISTRY)
}

/// What [`load_generation`] loaded: the records of the served
/// generation in manifest order, its number, whether it is the
/// fallback, and the current generation's per-file errors when it is.
pub type GenerationLoad = durable::Loaded<ModelRecord>;

/// Loads the registry the crash-safe way: parse `manifest.txt`, read
/// every listed record through [`read_record`] against its stamp. If
/// anything about the current generation fails — manifest torn or
/// missing, a record missing, short, flipped or written by another
/// publish — fall back to [`MANIFEST_PREV`] and serve the last-good
/// generation, reporting each failed file's distinct error in
/// [`GenerationLoad::errors`](durable::Loaded::errors).
///
/// # Errors
///
/// The current generation's first error when no previous generation
/// exists or the fallback is itself unloadable.
pub fn load_generation(dir: &Path) -> Result<GenerationLoad, Error> {
    Generation::load(dir, &REGISTRY, read_record)
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
