//! Deterministic inverted-file (IVF) index over the feature store.
//!
//! The scale sweeps match one probe profile against every stored row —
//! a brute-force cosine scan whose cost is linear in the candidate
//! population. This crate cuts that work by a constant factor, not to
//! a sublinear share (64 centroids and `nprobe` 8 rescore ~12.4% of
//! pairs at 10⁴, 10⁵ and 10⁶ athletes alike): a seeded spherical
//! k-means **codebook** quantizes every row to its nearest centroid,
//! per-shard **posting lists** record which rows landed in each cell,
//! and a query scores the centroids, scans only the `nprobe` closest
//! lists, and rescores candidates with the exact sparse dot product.
//! The brute-force scan stays as the exact reference path; recall
//! against it is measured, not assumed.
//!
//! Everything is deterministic by construction:
//!
//! - **training** is pure in `(shard-0 rows, k, seed)`: seeded draws
//!   come from `exec::mix_seed`, assignments run through the
//!   order-preserving [`exec::Executor`] map, and centroid updates
//!   accumulate serially in batch order — bit-identical at any
//!   `ELEV_THREADS`, and prefix-stable because shard 0 is a prefix of
//!   every population size;
//! - **files** are `durable` framed files (magic / version header,
//!   `len u32 | payload | FNV-1a-64` records, footer with record count
//!   and whole-file checksum), so torn writes classify as the same
//!   structured [`durable::Error`] classes the feature store pins; the
//!   `ann.txt` manifest, published last, is a [`durable::Generation`]
//!   numbered on its own, with the store generation it covers as a
//!   field (only the current one is read; a failed one rebuilds);
//! - **queries** iterate centroids, entries, and probes in fixed
//!   ascending order, so merged results are invariant to thread count
//!   and shard order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use durable::{Dec, Enc, Error, FramedReader, FramedWriter, Generation, Manifest};
use exec::Executor;
use featstore::{FeatureStore, RowBuf};
use std::path::{Path, PathBuf};

/// IVF sidecar files start with these bytes.
pub const MAGIC: &[u8; 8] = b"ELEVANN\x01";

/// Container format version this build reads and writes.
pub const FORMAT_VERSION: u32 = 1;

/// Index manifest file name, written last on publish.
pub const ANN_MANIFEST: &str = "ann.txt";

/// The index's published-generation manifest.
pub const INDEX: Manifest = Manifest { file: ANN_MANIFEST, prev: "ann.prev.txt", header: "elevann v2" };

/// Codebook file name under the store directory.
pub const CODEBOOK_FILE: &str = "codebook.ann";

const TAG_CENTROID: u32 = 1;
const TAG_LIST: u32 = 1;

/// Canonical posting-list sidecar file name of shard `index`.
pub fn ann_shard_file_name(index: usize) -> String {
    format!("shard-{index:05}.ivf")
}

/// A little-endian `f32` from its 4 bytes.
fn f32_le(bytes: &[u8]) -> f32 {
    f32::from_le_bytes(bytes.try_into().expect("4 bytes"))
}

/// L2 norm of a value slice.
pub fn l2(values: &[f32]) -> f32 {
    values.iter().map(|v| v * v).sum::<f32>().sqrt()
}

// ---- the codebook ------------------------------------------------------

const INIT_DOMAIN: u64 = 0xA55C_01DE;
const BATCH_DOMAIN: u64 = 0xBA7C_4B17;

/// Mini-batch refinement passes over the seeded initialization.
const TRAIN_ITERS: usize = 6;

/// Rows drawn per refinement pass (capped at the training-set size).
const TRAIN_BATCH: usize = 2048;

/// A spherical k-means codebook: `k` unit-norm dense centroids over
/// the feature space. Training is a pure function of
/// `(rows, n_cols, k, seed)` — see the crate docs for why that holds
/// at any thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct Codebook {
    k: usize,
    n_cols: usize,
    centroids: Vec<f32>,
}

impl Codebook {
    /// Trains `k` centroids on `rows` (normally the shard-0 rows of a
    /// feature store). `k` is clamped to the number of usable
    /// (nonzero-norm) rows; with no usable rows the codebook degrades
    /// to a single zero centroid.
    pub fn train(rows: &[RowBuf], n_cols: usize, k: usize, seed: u64, exec: &Executor) -> Self {
        let usable: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| l2(&r.values) > 0.0)
            .map(|(i, _)| i)
            .collect();
        let k = k.clamp(1, usable.len().max(1));
        let mut centroids = vec![0f32; k * n_cols];
        if usable.is_empty() {
            return Self { k, n_cols, centroids };
        }

        // Seeded init: the first k distinct usable rows drawn from the
        // mix_seed stream, L2-normalised onto the sphere.
        let mut picked = std::collections::BTreeSet::new();
        let (mut placed, mut draw) = (0usize, 0u64);
        while placed < k {
            let j = usable[(exec::mix_seed(seed ^ INIT_DOMAIN, draw) % usable.len() as u64) as usize];
            draw += 1;
            if !picked.insert(j) {
                continue;
            }
            let row = &rows[j];
            let inv = 1.0 / l2(&row.values);
            let base = placed * n_cols;
            for (i, &idx) in row.indices.iter().enumerate() {
                centroids[base + idx as usize] = row.values[i] * inv;
            }
            placed += 1;
        }

        // Mini-batch refinement: assignment fans out through the
        // order-preserving executor map; the centroid update
        // accumulates serially in batch order, so the result is
        // bit-identical at any thread count.
        let batch = usable.len().min(TRAIN_BATCH);
        for t in 0..TRAIN_ITERS {
            let cb = Self { k, n_cols, centroids: centroids.clone() };
            let batch_rows: Vec<usize> = (0..batch)
                .map(|j| {
                    let r = exec::mix_seed(seed ^ BATCH_DOMAIN ^ (t as u64 + 1), j as u64);
                    usable[(r % usable.len() as u64) as usize]
                })
                .collect();
            let assigned = exec.map(&batch_rows, |_, &j| cb.assign(&rows[j].indices, &rows[j].values));
            let mut sums = vec![0f32; k * n_cols];
            let mut counts = vec![0u64; k];
            for (&j, &c) in batch_rows.iter().zip(&assigned) {
                let row = &rows[j];
                let inv = 1.0 / l2(&row.values);
                let base = c as usize * n_cols;
                for (i, &idx) in row.indices.iter().enumerate() {
                    sums[base + idx as usize] += row.values[i] * inv;
                }
                counts[c as usize] += 1;
            }
            for c in 0..k {
                if counts[c] == 0 {
                    continue;
                }
                let slice = &mut sums[c * n_cols..(c + 1) * n_cols];
                let norm = l2(slice);
                if norm > 0.0 {
                    for v in slice.iter_mut() {
                        *v /= norm;
                    }
                    centroids[c * n_cols..(c + 1) * n_cols].copy_from_slice(slice);
                }
            }
        }
        Self { k, n_cols, centroids }
    }

    /// Number of centroids.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Feature-space width.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    fn centroid_dot(&self, c: usize, indices: &[u32], values: &[f32]) -> f32 {
        let base = c * self.n_cols;
        indices
            .iter()
            .zip(values)
            .map(|(&i, &v)| self.centroids[base + i as usize] * v)
            .sum()
    }

    /// The cell a row quantizes to: highest centroid dot, ties to the
    /// lowest centroid index.
    pub fn assign(&self, indices: &[u32], values: &[f32]) -> u32 {
        let (mut best, mut best_score) = (0u32, f32::NEG_INFINITY);
        for c in 0..self.k {
            let s = self.centroid_dot(c, indices, values);
            if s > best_score {
                best_score = s;
                best = c as u32;
            }
        }
        best
    }

    /// The `nprobe` centroids closest to a probe, score-descending
    /// with ties broken on the lower centroid index.
    pub fn top_centroids(&self, indices: &[u32], values: &[f32], nprobe: usize) -> Vec<u32> {
        let mut scored: Vec<(f32, u32)> = (0..self.k)
            .map(|c| (self.centroid_dot(c, indices, values), c as u32))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.truncate(nprobe.clamp(1, self.k));
        scored.into_iter().map(|(_, c)| c).collect()
    }

    /// Writes the codebook to `path` in the framed sidecar format,
    /// stamped with the store config fingerprint.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on filesystem failure.
    pub fn save(&self, path: &Path, config: u64) -> Result<(), Error> {
        let fields = [self.k as u64, self.n_cols as u64, config];
        let mut w = FramedWriter::create(path, MAGIC, FORMAT_VERSION, fields)?;
        let mut e = Enc::default();
        for c in 0..self.k {
            e.0.clear();
            e.u32(TAG_CENTROID).u32(c as u32);
            for &v in &self.centroids[c * self.n_cols..(c + 1) * self.n_cols] {
                e.f32(v);
            }
            w.write_record(&e.0)?;
        }
        w.finish()?;
        Ok(())
    }

    /// Loads a codebook from `path`, rejecting one built for a
    /// different store config.
    ///
    /// # Errors
    ///
    /// The full [`Error`] corruption ladder, plus [`Error::Malformed`]
    /// on a config mismatch.
    pub fn load(path: &Path, config: u64) -> Result<Self, Error> {
        let mut r = FramedReader::open(path, MAGIC, FORMAT_VERSION)?;
        let [k, n_cols, found] = r.fields();
        if found != config {
            return Err(Error::Malformed(format!(
                "codebook built for config {found:016x}, store has {config:016x}"
            )));
        }
        let (k, n_cols) = (k as usize, n_cols as usize);
        // The header's counts are not trusted to size anything: each
        // centroid grows the table only by the bytes its record holds.
        let centroid_bytes = n_cols
            .checked_mul(4)
            .ok_or_else(|| Error::Malformed(format!("absurd codebook width {n_cols}")))?;
        let mut centroids = Vec::new();
        let mut next = 0usize;
        while let Some(payload) = r.next_record()? {
            let mut d = Dec::payload(payload);
            let tag = d.u32()?;
            if tag != TAG_CENTROID {
                return Err(Error::Malformed(format!("unknown codebook tag {tag}")));
            }
            let c = d.u32()? as usize;
            if c != next || c >= k {
                return Err(Error::Malformed(format!(
                    "centroid {c} out of sequence (expected {next} of {k})"
                )));
            }
            centroids.extend(d.take(centroid_bytes)?.chunks_exact(4).map(f32_le));
            d.end()?;
            next += 1;
        }
        if next != k {
            return Err(Error::Malformed(format!(
                "codebook holds {next} centroids, header promises {k}"
            )));
        }
        Ok(Self { k, n_cols, centroids })
    }
}

// ---- posting lists -----------------------------------------------------

/// One row's entry in a posting list: where the full record lives
/// (for exact rescoring) plus the fields matching needs without a
/// read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PostingEntry {
    /// Byte offset of the row record in its shard file.
    pub offset: u64,
    /// Global athlete id.
    pub athlete: u64,
    /// Home-city label.
    pub city: u32,
    /// L2 norm of the row's values (for cosine denominators).
    pub norm: f32,
}

/// Encoded bytes of one [`PostingEntry`]: offset, athlete, city, norm.
const POSTING_BYTES: usize = 8 + 8 + 4 + 4;

/// Quantizes every row of store shard `shard` with `codebook`,
/// returning one posting list per centroid (entries in row order).
///
/// # Errors
///
/// Any [`Error`] from streaming the shard.
pub fn build_shard_postings(
    store: &FeatureStore,
    shard: usize,
    codebook: &Codebook,
) -> Result<Vec<Vec<PostingEntry>>, Error> {
    let mut lists = vec![Vec::new(); codebook.k()];
    let mut reader = store.reader(shard)?;
    let mut row = RowBuf::default();
    loop {
        let offset = reader.stream_offset();
        if !reader.next_row(&mut row)? {
            break;
        }
        let c = codebook.assign(&row.indices, &row.values) as usize;
        lists[c].push(PostingEntry {
            offset,
            athlete: row.athlete,
            city: row.city,
            norm: l2(&row.values),
        });
    }
    Ok(lists)
}

/// Writes one shard's posting lists as a framed `.ivf` sidecar;
/// returns the file's byte length.
///
/// # Errors
///
/// [`Error::Io`] on filesystem failure.
pub fn write_postings(
    path: &Path,
    shard_index: usize,
    config: u64,
    lists: &[Vec<PostingEntry>],
) -> Result<u64, Error> {
    let fields = [shard_index as u64, lists.len() as u64, config];
    let mut w = FramedWriter::create(path, MAGIC, FORMAT_VERSION, fields)?;
    let mut e = Enc::default();
    for (c, list) in lists.iter().enumerate() {
        e.0.clear();
        e.u32(TAG_LIST).u32(c as u32).u32(list.len() as u32);
        for p in list {
            e.u64(p.offset).u64(p.athlete).u32(p.city).f32(p.norm);
        }
        w.write_record(&e.0)?;
    }
    w.finish()
}

/// Reads one shard's posting lists back, cross-checking the header
/// against the expected shard index, centroid count, and config.
///
/// # Errors
///
/// The full [`Error`] corruption ladder, plus [`Error::Malformed`] when
/// the header disagrees with the expectation.
pub fn read_postings(
    path: &Path,
    shard_index: usize,
    k: usize,
    config: u64,
) -> Result<Vec<Vec<PostingEntry>>, Error> {
    let mut r = FramedReader::open(path, MAGIC, FORMAT_VERSION)?;
    let [s, found_k, found_config] = r.fields();
    if [s, found_k, found_config] != [shard_index as u64, k as u64, config] {
        return Err(Error::Malformed(format!(
            "posting sidecar header (shard {s}, k {found_k}, config {found_config:016x}) \
             disagrees with expectation (shard {shard_index}, k {k}, config {config:016x})"
        )));
    }
    let mut lists = vec![Vec::new(); k];
    let mut next = 0usize;
    while let Some(payload) = r.next_record()? {
        let mut d = Dec::payload(payload);
        let tag = d.u32()?;
        if tag != TAG_LIST {
            return Err(Error::Malformed(format!("unknown posting tag {tag}")));
        }
        let c = d.u32()? as usize;
        if c != next || c >= k {
            return Err(Error::Malformed(format!(
                "posting list {c} out of sequence (expected {next} of {k})"
            )));
        }
        let count = d.u32()? as usize;
        let bytes = count
            .checked_mul(POSTING_BYTES)
            .ok_or_else(|| Error::Malformed(format!("absurd posting count {count}")))?;
        let mut entries = Dec::payload(d.take(bytes)?);
        d.end()?;
        let list = &mut lists[c];
        list.reserve(count);
        for _ in 0..count {
            list.push(PostingEntry {
                offset: entries.u64()?,
                athlete: entries.u64()?,
                city: entries.u32()?,
                norm: entries.f32()?,
            });
        }
        next += 1;
    }
    if next != k {
        return Err(Error::Malformed(format!(
            "sidecar holds {next} posting lists, header promises {k}"
        )));
    }
    Ok(lists)
}

// ---- the index manifest ------------------------------------------------

/// One shard's sidecar entry in the index manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnShardEntry {
    /// Shard index.
    pub index: usize,
    /// Sidecar file name under the store directory.
    pub file: String,
    /// Posting entries across all of the sidecar's lists.
    pub entries: u64,
}

/// The parsed index manifest (`ann.txt`), written last on publish so
/// a complete manifest implies complete sidecars.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnManifest {
    /// Store config fingerprint the index was built over.
    pub config: u64,
    /// The index's own publish generation.
    pub generation: u64,
    /// Store manifest generation the index covers.
    pub store_generation: u64,
    /// Centroids requested at build time (the codebook may clamp
    /// lower when shard 0 has fewer usable rows).
    pub k: u64,
    /// Training seed.
    pub seed: u64,
    /// Feature-space width.
    pub n_cols: u64,
    /// Sidecar entries in ascending shard order.
    pub shards: Vec<AnnShardEntry>,
}

impl AnnManifest {
    fn to_generation(&self) -> Generation {
        Generation {
            number: self.generation,
            fields: vec![
                ("config".into(), format!("{:016x}", self.config)),
                ("store_generation".into(), self.store_generation.to_string()),
                ("k".into(), self.k.to_string()),
                ("seed".into(), self.seed.to_string()),
                ("n_cols".into(), self.n_cols.to_string()),
            ],
            files: self.shards.iter().map(|s| (s.file.clone(), s.entries)).collect(),
        }
    }

    fn from_generation(g: Generation) -> Result<Self, Error> {
        Ok(Self {
            config: g.hex_field("config")?,
            generation: g.number,
            store_generation: g.field("store_generation")?,
            k: g.field("k")?,
            seed: g.field("seed")?,
            n_cols: g.field("n_cols")?,
            shards: (g.files.into_iter().enumerate())
                .map(|(index, (file, entries))| AnnShardEntry { index, file, entries })
                .collect(),
        })
    }

    /// Publishes this manifest, the codebook and sidecars being durable.
    fn publish(&self, dir: &Path) -> Result<(), Error> {
        self.to_generation().publish(dir, &INDEX)
    }
}

/// The path [`AnnIndex::ensure`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ensured {
    /// The published index matched the store and was opened as-is.
    Reused,
    /// Sidecars were added for shards appended since the index was
    /// built, under its frozen codebook.
    Extended,
    /// The index was built from scratch.
    Built,
}

// ---- the index ---------------------------------------------------------

/// An opened IVF index: the manifest plus the loaded codebook,
/// rooted in the feature-store directory it indexes.
#[derive(Debug, Clone)]
pub struct AnnIndex {
    dir: PathBuf,
    manifest: AnnManifest,
    codebook: Codebook,
}

impl AnnIndex {
    /// Opens a published index under `dir` and loads its codebook.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] when no manifest exists; any corruption
    /// class from the manifest or codebook; [`Error::Malformed`]
    /// when codebook and manifest disagree.
    pub fn open(dir: &Path) -> Result<Self, Error> {
        let manifest = AnnManifest::from_generation(Generation::read(dir, &INDEX)?)?;
        let codebook = Codebook::load(&dir.join(CODEBOOK_FILE), manifest.config)?;
        if codebook.n_cols() as u64 != manifest.n_cols {
            return Err(Error::Malformed(format!(
                "codebook spans {} columns, manifest promises {}",
                codebook.n_cols(),
                manifest.n_cols
            )));
        }
        Ok(Self { dir: dir.to_path_buf(), manifest, codebook })
    }

    /// The parsed manifest.
    pub fn manifest(&self) -> &AnnManifest {
        &self.manifest
    }

    /// The loaded codebook.
    pub fn codebook(&self) -> &Codebook {
        &self.codebook
    }

    /// Loads shard `shard`'s posting lists.
    ///
    /// # Errors
    ///
    /// [`Error::Malformed`] for an unknown shard; any corruption
    /// class from the sidecar.
    pub fn postings(&self, shard: usize) -> Result<Vec<Vec<PostingEntry>>, Error> {
        let entry = self
            .manifest
            .shards
            .get(shard)
            .ok_or_else(|| Error::Malformed(format!("no sidecar for shard {shard}")))?;
        read_postings(&self.dir.join(&entry.file), shard, self.codebook.k(), self.manifest.config)
    }

    /// Ensures an index matching `store` at `(k, seed)` exists in the
    /// store directory, building or incrementally extending as
    /// needed; returns the index plus the path it took.
    ///
    /// A published index is reused when config, `k`, `seed`, and the
    /// store generation it covers all match. When only new shards were
    /// appended (the config still matches and the sidecar list is a
    /// prefix of the store's shard list), sidecars for the new shards
    /// are built from the frozen codebook — the incremental path. Both
    /// require every existing sidecar to hold as many entries as its
    /// shard holds rows: a store rebuilt in place (grown from a partial
    /// last shard) rewrites its shards under a new generation, and a
    /// rewritten shard changes its row count. Anything else rebuilds
    /// from scratch.
    ///
    /// # Errors
    ///
    /// Any [`Error`] from reading the store or writing the index.
    pub fn ensure(
        store: &FeatureStore,
        k: usize,
        seed: u64,
        exec: &Executor,
    ) -> Result<(Self, Ensured), Error> {
        let m = store.manifest();
        if let Ok(idx) = Self::open(store.dir()) {
            let compatible = idx.manifest.config == m.config
                && idx.manifest.k == k as u64
                && idx.manifest.seed == seed
                && idx.manifest.n_cols == m.n_cols
                && idx.manifest.shards.len() <= m.shards.len()
                && idx.manifest.shards.iter().zip(&m.shards).all(|(a, s)| a.entries == s.rows);
            if compatible {
                if idx.manifest.store_generation == m.generation
                    && idx.manifest.shards.len() == m.shards.len()
                {
                    return Ok((idx, Ensured::Reused));
                }
                if idx.manifest.shards.len() < m.shards.len() {
                    return idx.extend(store, exec).map(|i| (i, Ensured::Extended));
                }
            }
        }
        Self::build(store, k, seed, exec).map(|i| (i, Ensured::Built))
    }

    /// Builds the index from scratch: trains the codebook on shard-0
    /// rows, writes every sidecar shard-parallel, publishes the
    /// manifest last.
    ///
    /// # Errors
    ///
    /// Any [`Error`] from reading the store or writing files.
    pub fn build(
        store: &FeatureStore,
        k: usize,
        seed: u64,
        exec: &Executor,
    ) -> Result<Self, Error> {
        let m = store.manifest();
        let rows = read_shard_rows(store, 0)?;
        let codebook = Codebook::train(&rows, m.n_cols as usize, k, seed, exec);
        codebook.save(&store.dir().join(CODEBOOK_FILE), m.config)?;

        let manifest = AnnManifest {
            config: m.config,
            generation: Generation::next(store.dir(), &INDEX),
            store_generation: m.generation,
            k: k as u64,
            seed,
            n_cols: m.n_cols,
            shards: write_sidecars(store, &codebook, 0, exec)?,
        };
        manifest.publish(store.dir())?;
        Ok(Self { dir: store.dir().to_path_buf(), manifest, codebook })
    }

    /// Extends the index over shards appended to the store since it
    /// was built, quantizing them with the frozen codebook.
    fn extend(mut self, store: &FeatureStore, exec: &Executor) -> Result<Self, Error> {
        let new = write_sidecars(store, &self.codebook, self.manifest.shards.len(), exec)?;
        self.manifest.shards.extend(new);
        self.manifest.generation = Generation::next(&self.dir, &INDEX);
        self.manifest.store_generation = store.manifest().generation;
        self.manifest.publish(&self.dir)?;
        Ok(self)
    }
}

/// Quantizes store shards `from..` with `codebook` and writes their
/// sidecars shard-parallel; returns their manifest entries in shard
/// order.
fn write_sidecars(
    store: &FeatureStore,
    codebook: &Codebook,
    from: usize,
    exec: &Executor,
) -> Result<Vec<AnnShardEntry>, Error> {
    let config = store.manifest().config;
    let ids: Vec<usize> = (from..store.manifest().shards.len()).collect();
    let written = exec.map(&ids, |_, &index| {
        let lists = build_shard_postings(store, index, codebook)?;
        let file = ann_shard_file_name(index);
        write_postings(&store.dir().join(&file), index, config, &lists)?;
        Ok(AnnShardEntry { index, file, entries: lists.iter().map(|l| l.len() as u64).sum() })
    });
    written.into_iter().collect()
}

/// Streams every row of store shard `shard` into memory (the
/// codebook's training set).
///
/// # Errors
///
/// Any [`Error`] from the shard reader.
pub fn read_shard_rows(store: &FeatureStore, shard: usize) -> Result<Vec<RowBuf>, Error> {
    let mut reader = store.reader(shard)?;
    let mut rows = Vec::new();
    let mut row = RowBuf::default();
    while reader.next_row(&mut row)? {
        rows.push(row.clone());
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic synthetic training rows: sparse, clustered by
    /// construction (row i leans on index block `i % 4`).
    fn synth_rows(n: usize, n_cols: usize, seed: u64) -> Vec<RowBuf> {
        (0..n)
            .map(|i| {
                let block = (i % 4) * (n_cols / 4);
                let mix = |j: u64| exec::mix_seed(seed, i as u64 * 100 + j);
                let nnz = 2 + (mix(0) % 3) as usize;
                let mut indices: Vec<u32> =
                    (0..nnz).map(|j| (block + (mix(j as u64 + 1) as usize % (n_cols / 4))) as u32).collect();
                indices.sort_unstable();
                indices.dedup();
                let values =
                    (0..indices.len()).map(|j| 1.0 + (mix(50 + j as u64) % 8) as f32).collect();
                RowBuf { athlete: i as u64, city: (i % 3) as u32, activity: 0, indices, values }
            })
            .collect()
    }

    #[test]
    fn training_is_thread_invariant_and_pure() {
        let rows = synth_rows(64, 32, 9);
        let a = Codebook::train(&rows, 32, 8, 42, &Executor::new(1));
        let b = Codebook::train(&rows, 32, 8, 42, &Executor::new(4));
        assert_eq!(a, b, "codebook must be bit-identical at any thread count");
        let c = Codebook::train(&rows, 32, 8, 43, &Executor::new(1));
        assert_ne!(a, c, "the seed must matter");
    }

    #[test]
    fn training_clamps_k_and_survives_degenerate_input() {
        let rows = synth_rows(3, 16, 1);
        let cb = Codebook::train(&rows, 16, 8, 7, &Executor::new(2));
        assert_eq!(cb.k(), 3, "k clamps to the usable row count");
        let empty =
            vec![RowBuf { athlete: 0, city: 0, activity: 0, indices: vec![], values: vec![] }];
        let cb = Codebook::train(&empty, 16, 4, 7, &Executor::new(1));
        assert_eq!(cb.k(), 1);
        assert_eq!(cb.assign(&[], &[]), 0);
    }

    #[test]
    fn top_centroids_order_is_total() {
        let rows = synth_rows(40, 32, 3);
        let cb = Codebook::train(&rows, 32, 6, 11, &Executor::new(2));
        let probe = &rows[5];
        let top = cb.top_centroids(&probe.indices, &probe.values, 4);
        assert_eq!(top.len(), 4);
        assert_eq!(top[0], cb.assign(&probe.indices, &probe.values));
        let again = cb.top_centroids(&probe.indices, &probe.values, 4);
        assert_eq!(top, again);
        assert!(cb.top_centroids(&probe.indices, &probe.values, 100).len() == cb.k());
    }

    #[test]
    fn ann_manifest_roundtrip_and_rejects() {
        let m = AnnManifest {
            config: 0xFEED,
            generation: 3,
            store_generation: 2,
            k: 64,
            seed: 7,
            n_cols: 512,
            shards: vec![
                AnnShardEntry { index: 0, file: ann_shard_file_name(0), entries: 9 },
                AnnShardEntry { index: 1, file: ann_shard_file_name(1), entries: 4 },
            ],
        };
        let text = m.to_generation().render(&INDEX);
        assert!(text.starts_with("elevann v2\ngeneration 3\nconfig 000000000000feed\n"));
        assert!(text.contains("\nstore_generation 2\n"));
        let parsed = Generation::parse(&text, &INDEX).and_then(AnnManifest::from_generation);
        assert_eq!(parsed, Ok(m));
        let bare = Generation { number: 1, fields: Vec::new(), files: Vec::new() };
        assert_eq!(AnnManifest::from_generation(bare).unwrap_err().name(), "malformed");
    }
}
