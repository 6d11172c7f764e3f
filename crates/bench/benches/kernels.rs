//! Kernel-level benchmarks for the hot paths underneath the attack
//! pipeline: GPX ingestion, BoW featurization, the SVM epoch, the
//! blocked matmul at the paper-CNN's im2col shapes, conv
//! forward/backward, corpus generation, feature-store reads and probe
//! matching, plus the learner and substrate costs below them.
//!
//! Most entries are *before/after pairs*: the baseline runs the old
//! dense/naive code (`Tensor::matmul_reference`, dense Pegasos, dense
//! BoW rows, the reconstructed DOM reader, the exact scan) against the
//! shipped code on identical inputs, and the entry reports the speedup.
//! Unpaired entries pin the absolute cost of code with no older version
//! to time. The results are written to `BENCH_kernels.json` at the
//! repository root so the perf trajectory is tracked in-tree.
//!
//! Run with `cargo bench -p bench --bench kernels`; set `BENCH_QUICK=1`
//! for a fast smoke (fewer samples, same shapes, written under the
//! target directory) as `scripts/verify.sh` does.

use bench::harness::{deterministic_tensor, pair, single, BenchEntry, BenchReport};
use classicml::{ForestConfig, RandomForest, SvmClassifier, SvmConfig};
use elev_core::ingest::{ingest_one, IngestConfig, StreamingIngest, TrackSource};
use elev_core::scale::{fit_vocabulary, push_topk, recall_at3, OverlapSig, Probe};
use geoprim::{polyline, BoundingBox, LatLon};
use imgrep::{render, ImageConfig};
use neuralnet::{models, train, train_in_arena, Adam, Layer, TrainArena, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use routegen::{generate_route, AthleteSimulator, RouteKind, RouteParams};
use sparsemat::{CsrMatrix, SparseVec};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use tensorlite::Tensor;
use terrain::{CityId, ElevationService, SyntheticTerrain};
use textrep::{Discretizer, FeatureSelection, TextPipeline};

/// Synthetic elevation profiles with enough texture for an 8-gram vocab.
fn corpus(n: usize, len: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            (0..len)
                .map(|t| {
                    let t = t as f64;
                    40.0 + (i % 7) as f64 * 13.0
                        + (t * 0.21 + i as f64 * 0.7).sin() * 9.0
                        + (t * 0.047).cos() * 23.0
                })
                .collect()
        })
        .collect()
}

/// Deterministic serialized GPX documents: `n` docs of `len` timed,
/// elevated trackpoints each (1 Hz sampling, so the gap filler stays
/// idle and both pipelines exercise the clean happy path).
fn gpx_corpus(n: usize, len: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            let mut doc = String::with_capacity(len * 96 + 128);
            doc.push_str("<?xml version=\"1.0\"?>\n<gpx version=\"1.1\"><trk><trkseg>\n");
            for t in 0..len {
                let lat = 47.30 + (i as f64) * 1e-3 + (t as f64) * 1.1e-5;
                let lon = 8.50 + (t as f64) * 1.7e-5;
                let ele = 420.0
                    + (i % 5) as f64 * 17.0
                    + ((t as f64) * 0.11 + i as f64).sin() * 12.0;
                let (h, m, s) = (8 + t / 3600, (t / 60) % 60, t % 60);
                let _ = writeln!(
                    doc,
                    "<trkpt lat=\"{lat:.6}\" lon=\"{lon:.6}\"><ele>{ele:.2}</ele>\
                     <time>2024-05-01T{h:02}:{m:02}:{s:02}Z</time></trkpt>"
                );
            }
            doc.push_str("</trkseg></trk></gpx>\n");
            doc.into_bytes()
        })
        .collect()
}

/// BoW-like sparse rows: `nnz` nonzeros per row, L1-normalized.
fn sparse_rows(n: usize, dim: usize, nnz: usize) -> (Vec<SparseVec>, Vec<u32>) {
    let mut rows = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let mut idx: Vec<u32> = (0..nnz)
            .map(|t| ((i * 2654435761 + t * 40503) % dim) as u32)
            .collect();
        idx.sort_unstable();
        idx.dedup();
        let w = 1.0 / idx.len() as f32;
        let vals = vec![w; idx.len()];
        rows.push(SparseVec::new(dim, idx, vals));
        labels.push((i % 4) as u32);
    }
    (rows, labels)
}

/// Dense rows with values in (-1, 1) and 4 balanced labels.
fn dense_rows(n: usize, d: usize) -> (Vec<Vec<f32>>, Vec<u32>) {
    let x: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|j| {
                    (((i * 31 + j * 17) % 97) as f32 / 97.0) * if i % 2 == 0 { 1.0 } else { -1.0 }
                })
                .collect()
        })
        .collect();
    let y: Vec<u32> = (0..n).map(|i| (i % 4) as u32).collect();
    (x, y)
}

/// A seeded wander route of about `n` points (20 m steps) through
/// Washington, DC.
fn sample_path(n: usize) -> Vec<LatLon> {
    let mut rng = StdRng::seed_from_u64(1);
    let bounds = BoundingBox::new(LatLon::new(38.8, -77.12), LatLon::new(39.0, -76.9));
    let params = RouteParams::segment((n as f64) * 20.0, RouteKind::Wander);
    generate_route(&mut rng, LatLon::new(38.9, -77.0), &bounds, &params)
}

fn matmul_pair(name: &str, m: usize, k: usize, n: usize, samples: usize, note: &str) -> BenchEntry {
    let a = deterministic_tensor(&[m, k], 11);
    let b = deterministic_tensor(&[k, n], 29);
    pair(name, samples, note, || a.matmul_reference(&b), || a.matmul(&b))
}

fn main() {
    let mut report = BenchReport::from_env("kernels", 9, 3);
    let (quick, samples) = (report.quick, report.samples);

    // --- GPX ingestion: the pre-streaming DOM front-end (byte-at-a-time
    // tokenizer, one owned `String` per name/attribute/text run, full
    // `Gpx` tree) vs the shipped streaming path (one reused
    // `StreamingIngest`: borrowed events straight into the flat point
    // buffer, zero steady-state allocations). Both sides feed the same
    // repair pipeline, whose outputs are pinned bit-identical by the
    // parity fuzz campaign and the `ingest.stream` golden; the pair
    // measures the parse/flatten layer this change replaced. The old
    // reader no longer ships, so — like `matmul_reference` — the bench
    // carries a faithful reconstruction (`dom_baseline` below).
    for (name, docs) in [
        ("ingest_throughput_corpus_48x400", gpx_corpus(48, 400)),
        ("ingest_throughput_long_track_4000pts", gpx_corpus(1, 4000)),
    ] {
        let bytes: usize = docs.iter().map(Vec::len).sum();
        let cfg = IngestConfig::default();
        let mut ing = StreamingIngest::default();
        let mut b = pair(
            name,
            samples,
            "",
            || {
                for doc in &docs {
                    let gpx = dom_baseline::parse_bytes(doc).expect("corpus is well-formed");
                    black_box(ingest_one(&TrackSource::Parsed(gpx), &cfg));
                }
            },
            || {
                for doc in &docs {
                    black_box(ing.ingest_bytes(doc));
                }
            },
        );
        let mib = bytes as f64 / (1024.0 * 1024.0);
        let tracks = docs.len() as f64;
        let dom_s = b.baseline_s.expect("ingest pair always has a baseline");
        b.note = format!(
            "{} timed GPX doc(s), {:.2} MiB per pass; pre-streaming DOM reader \
             (reconstructed) {:.1} MiB/s / {:.0} tracks/s, streaming {:.1} MiB/s / \
             {:.0} tracks/s; identical dispositions and bit-identical profiles on \
             both paths",
            docs.len(),
            mib,
            mib / dom_s,
            tracks / dom_s,
            mib / b.optimized_s,
            tracks / b.optimized_s,
        );
        report.benches.push(b);
    }

    // --- BoW featurization: dense materialization vs staying sparse.
    let signals = corpus(64, 600);
    let pipeline = TextPipeline::fit(Discretizer::Floor, 8, FeatureSelection::keep_all(), &signals);
    report.benches.push(pair(
        "bow_featurize_64x600_8gram",
        samples,
        "transform_all materializes dense rows over the full vocabulary; \
         transform_all_csr emits the same rows as CSR without densifying",
        || pipeline.transform_all(&signals),
        || pipeline.transform_all_csr(&signals),
    ));

    // --- SVM epochs: dense Pegasos dots vs sparse dots, same RNG stream.
    let (rows, labels) = sparse_rows(300, 4096, 10);
    let csr = CsrMatrix::from_rows(&rows);
    let dense: Vec<Vec<f32>> = rows.iter().map(SparseVec::to_dense).collect();
    let cfg = SvmConfig { epochs: 5, ..Default::default() };
    report.benches.push(pair(
        "svm_epoch_300x4096_nnz10",
        samples,
        "5 Pegasos epochs, 4 classes; the sparse fit touches only the \
         ~10 nonzeros per row and produces the bit-identical hyperplane",
        || SvmClassifier::fit(&dense, &labels, &cfg, 1),
        || SvmClassifier::fit_sparse(&csr, &labels, &cfg, 1),
    ));

    // --- Blocked matmul at the paper-CNN im2col shapes and the MLP head.
    report.benches.push(matmul_pair(
        "matmul_conv1_8x75x1024",
        8,
        75,
        1024,
        samples,
        "conv1 im2col: [8,75]x[75,1024] per 32x32 image; with only 8 \
         output rows each packed B panel feeds two register tiles, so \
         packing amortizes poorly and the shape stays bandwidth-bound \
         (~1.3-1.5x measured)",
    ));
    report.benches.push(matmul_pair(
        "matmul_conv2_16x200x256",
        16,
        200,
        256,
        samples,
        "conv2 im2col: [16,200]x[200,256] per 16x16 map",
    ));
    report.benches.push(matmul_pair(
        "matmul_mlp_64x2048x100",
        64,
        2048,
        100,
        samples,
        "text-MLP input layer: batch 64 over a 2048-feature vocabulary",
    ));

    // --- Conv forward / forward+backward at the Fig. 7 architecture.
    // Baselines emulate the pre-arena path: `reset_scratch` drops the
    // persistent im2col columns / weight-matrix views / argmax buffers
    // so every call reallocates them, exactly as the old code did. Both
    // sides run the same kernels on the same inputs; only the scratch
    // lifetime differs. `shards: Some(1)` keeps the step serial so the
    // pair isolates allocation behavior, not data parallelism.
    let batch = 16;
    let x = deterministic_tensor(&[batch, 3, 32, 32], 7);
    let y: Vec<u32> = (0..batch).map(|i| (i % 4) as u32).collect();
    let mut fwd_base = models::paper_cnn(4, 1);
    let mut fwd_net = models::paper_cnn(4, 1);
    report.benches.push(pair(
        "conv_forward_16imgs",
        samples,
        "paper CNN forward on 16 images (blocked im2col matmuls); \
         baseline reallocates im2col/weight-view scratch per call, \
         optimized reuses the layer arenas",
        || {
            fwd_base.reset_scratch();
            fwd_base.forward(&x, false)
        },
        || fwd_net.forward(&x, false),
    ));
    let train_cfg = TrainConfig {
        epochs: 1,
        batch_size: batch,
        shards: Some(1),
        ..Default::default()
    };
    let mut bwd_base = models::paper_cnn(4, 1);
    let mut bwd_net = models::paper_cnn(4, 1);
    let mut bwd_adam = Adam::new(train_cfg.lr);
    let mut bwd_arena = TrainArena::new();
    report.benches.push(pair(
        "conv_fwd_bwd_16imgs",
        samples,
        "one training step on 16 images; backward uses the fused \
         matmul_at/matmul_bt kernels instead of allocating transposes; \
         baseline drops layer scratch and the training arena every \
         step, optimized keeps both warm",
        || {
            bwd_base.reset_scratch();
            train(&mut bwd_base, &x, &y, &train_cfg)
        },
        || train_in_arena(&mut bwd_net, &x, &y, &train_cfg, &mut bwd_adam, &mut bwd_arena),
    ));

    // --- Population corpus generation: one 64-athlete shard of the
    // streaming generator (habit models + trajectories + elevation
    // profiles from the seed tree). No baseline: there was no prior
    // bulk generator — the entry pins absolute corpus throughput.
    let pop = {
        let mut p = routegen::PopulationConfig::new(64, 42);
        p.shard_size = 64;
        p
    };
    let terrain = pop.terrain();
    let shard = pop.generate_shard(&terrain, 0);
    let (gen_tracks, gen_points) = (shard.tracks(), shard.points());
    // lat + lon + elevation as f64 per point.
    let gen_mb = (gen_points * 24) as f64 / 1e6;
    let mut b = single("corpus_gen_shard64", samples, "", || pop.generate_shard(&terrain, 0));
    b.note = format!(
        "one {}-athlete population shard ({} tracks, {} points, ~{:.2} MB of \
         track data): {:.0} tracks/s, {:.1} MB/s; regeneration is bit-identical \
         at any shard order and thread count (corpus.shard golden)",
        pop.shard_size,
        gen_tracks,
        gen_points,
        gen_mb,
        gen_tracks as f64 / b.optimized_s,
        gen_mb / b.optimized_s,
    );
    report.benches.push(b);

    // --- Feature-store streaming: re-featurizing the shard's profiles
    // every sweep (the pre-featstore path) vs streaming the same CSR
    // rows back from the checksummed shard file via pread.
    {
        let profiles: Vec<Vec<f64>> = shard
            .athletes
            .iter()
            .flat_map(|a| &a.activities)
            .map(|act| act.elevation_profile())
            .collect();
        let vocabulary = fit_vocabulary(&pop, &exec::Executor::from_env());
        let store_pipeline = vocabulary.pipeline();
        let dir = std::env::temp_dir().join(format!("elev-bench-fst-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let mut w =
            featstore::ShardWriter::create(&dir, 0, store_pipeline.n_features() as u64, 42)
                .expect("create shard");
        for athlete in &shard.athletes {
            for (ai, act) in athlete.activities.iter().enumerate() {
                let sv = store_pipeline.transform_sparse(&act.elevation_profile());
                w.append_row(
                    athlete.habits.id,
                    athlete.habits.city_index as u32,
                    ai as u32,
                    sv.indices(),
                    sv.values(),
                )
                .expect("append row");
            }
        }
        let meta = w.finish().expect("finish shard");
        let path = dir.join(&meta.file);
        let file_mb = meta.bytes as f64 / 1e6;
        let mut b = pair(
            "featstore_read_shard64",
            samples,
            "",
            || {
                for p in &profiles {
                    black_box(store_pipeline.transform_sparse(p));
                }
            },
            || {
                let mut r = featstore::ShardReader::open(&path).expect("open shard");
                let mut row = featstore::RowBuf::default();
                while r.next_row(&mut row).expect("next row") {
                    black_box(&row);
                }
            },
        );
        b.note = format!(
            "{} CSR rows, {:.2} MB shard file: streaming reads {:.1} MB/s \
             (checksum-verified, zero-copy into a reused RowBuf); baseline \
             re-featurizes the same {} profiles through transform_sparse",
            meta.rows,
            file_mb,
            file_mb / b.optimized_s,
            profiles.len(),
        );
        report.benches.push(b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // --- Probe matching at population scale: the shipped exact scan
    // (streaming every row, overlap-prefiltered dots) vs the
    // deterministic IVF index (centroid routing + posting-list
    // rescoring with the same exact dot). Both paths run over one
    // published feature store built from the real population corpus
    // and match through the shipped matcher (`elev_core::scale`
    // probes, overlap signature, scoring and top-3 ranking); the pair
    // measures the constant factor `ELEV_ANN` saves over the exact
    // scan (the share of rows it rescores stays flat with population
    // size at a fixed codebook, so the IVF path is not sublinear).
    {
        let n_athletes = if quick { 2_000 } else { 10_000 };
        let tag = if quick { "2k" } else { "10k" };
        let mut cfg = elev_core::scale::ScaleConfig::new(n_athletes, 42);
        cfg.population.shard_size = 500;
        cfg.store_dir =
            std::env::temp_dir().join(format!("elev-bench-ann-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
        let exec = exec::Executor::from_env();
        let build = elev_core::scale::build_store(&cfg, &exec).expect("build store");
        let store = featstore::FeatureStore::open(&cfg.store_dir).expect("open store");

        // Probe features live in the store's feature space: the same
        // shard-0-fitted vocabulary `build_store` used.
        let terrain = cfg.population.terrain();
        let vocabulary = fit_vocabulary(&cfg.population, &exec);
        assert_eq!(vocabulary.pipeline().n_features(), build.n_cols, "probe space != store space");

        let n_probes = 32u64;
        let probes: Vec<Probe> = (0..n_probes)
            .map(|id| Probe::held_out(&cfg.population, &terrain, id, vocabulary.pipeline()))
            .collect();
        let probe_sigs: Vec<OverlapSig> =
            probes.iter().map(|p| OverlapSig::new(p.features().indices())).collect();

        // Each pass answers every query independently — the serving
        // shape (one uploaded profile, one top-3 answer), which is
        // where the index's cut pays: the exact path must stream the
        // whole store per query, the IVF path only its probed lists.
        let n_shards = store.manifest().shards.len();
        let exact_query = |pi: usize, row: &mut featstore::RowBuf| {
            let mut top = Vec::new();
            for s in 0..n_shards {
                let mut r = store.reader(s).expect("reader");
                while r.next_row(row).expect("next row") {
                    let rn = annindex::l2(&row.values);
                    if rn == 0.0 || !probe_sigs[pi].may_overlap(&OverlapSig::new(&row.indices)) {
                        continue;
                    }
                    if let Some(hit) = probes[pi].score(row, rn) {
                        push_topk(&mut top, hit, 3);
                    }
                }
            }
            top
        };

        let (index, _) =
            annindex::AnnIndex::ensure(&store, 64, cfg.population.seed, &exec).expect("index");
        let probe_lists: Vec<Vec<u32>> = probes
            .iter()
            .map(|p| index.codebook().top_centroids(p.features().indices(), p.features().values(), 8))
            .collect();
        let ann_query = |pi: usize, row: &mut featstore::RowBuf| {
            let mut top = Vec::new();
            let mut rescored = 0u64;
            for s in 0..n_shards {
                let lists = index.postings(s).expect("postings");
                let mut r = store.reader(s).expect("reader");
                for &c in &probe_lists[pi] {
                    for e in &lists[c as usize] {
                        if e.norm == 0.0 {
                            continue;
                        }
                        r.read_row_at(e.offset, row).expect("positioned row");
                        rescored += 1;
                        if let Some(hit) = probes[pi].score(row, e.norm) {
                            push_topk(&mut top, hit, 3);
                        }
                    }
                }
            }
            (top, rescored)
        };

        // Recall accounting outside the timed region.
        let mut row = featstore::RowBuf::default();
        let mut rescored = 0u64;
        let recall: f64 = (0..probes.len())
            .map(|pi| {
                let exact = exact_query(pi, &mut row);
                let (ann, pairs) = ann_query(pi, &mut row);
                rescored += pairs;
                recall_at3(&exact, &ann)
            })
            .sum::<f64>()
            / probes.len() as f64;
        assert!(recall >= 0.95, "IVF recall@3 {recall:.4} below the 0.95 floor");
        let rows_total = build.rows * n_probes;

        let mut b = pair(
            &format!("ann_match_{tag}"),
            samples,
            "",
            || {
                let mut row = featstore::RowBuf::default();
                for pi in 0..probes.len() {
                    black_box(exact_query(pi, &mut row));
                }
            },
            || {
                let mut row = featstore::RowBuf::default();
                for pi in 0..probes.len() {
                    black_box(ann_query(pi, &mut row));
                }
            },
        );
        let mib = build.bytes as f64 / (1024.0 * 1024.0);
        let exact_s = b.baseline_s.expect("ann pair always has a baseline");
        b.note = format!(
            "{n_probes} independent queries against {} rows ({n_athletes} athletes, \
             {:.1} MiB store): the exact scan streams every row per query \
             ({:.1} MiB/s/query); IVF (64 centroids, 8 probed lists/query) rescores \
             {rescored} of {rows_total} candidate pairs ({:.1}%) via positioned reads, \
             recall@3 {recall:.4}; both paths are bit-identical at any thread count \
             and shard order",
            build.rows,
            mib,
            mib * n_probes as f64 / exact_s,
            rescored as f64 * 100.0 / rows_total as f64,
        );
        report.benches.push(b);
        let _ = std::fs::remove_dir_all(&cfg.store_dir);
    }

    // --- Learner and substrate costs with no older version to pair
    // against, so these entries pin absolute cost. What else the
    // learners and substrates cost is already a side of a pair above
    // (dense SVM fit, CNN forward, BoW transform), `corpus_gen_shard64`
    // (route generation, terrain sampling) or the `train` suite (CNN
    // epochs).
    {
        let (x, y) = dense_rows(200, 512);
        let forest = ForestConfig { n_trees: 20, ..Default::default() };
        report.benches.push(single(
            "forest20_fit_200x512",
            samples,
            "20-tree random forest fit on 200 dense 512-feature rows, 4 classes",
            || RandomForest::fit(&x, &y, &forest, 1),
        ));
        let svm = SvmClassifier::fit(&x, &y, &SvmConfig::default(), 1);
        report.benches.push(single(
            "svm_predict_200",
            samples,
            "linear SVM predicting the 200 dense 512-feature rows it was fit on",
            || svm.predict(&x),
        ));

        let (rows, y) = dense_rows(256, 1024);
        let x = Tensor::from_rows(&rows);
        let mut mlp = models::mlp(1024, 100, 4, 1);
        let mlp_cfg = TrainConfig { epochs: 1, ..Default::default() };
        report.benches.push(single(
            "mlp_epoch_256x1024",
            samples,
            "one epoch of the 100-unit MLP on 256 dense 1024-feature rows, 4 classes",
            || train(&mut mlp, &x, &y, &mlp_cfg),
        ));

        let path = sample_path(100);
        let encoded = polyline::encode(&path);
        report.benches.push(single(
            "polyline_encode_100pts",
            samples,
            "Google-polyline encoding of a 100-point route",
            || polyline::encode(black_box(&path)),
        ));
        report.benches.push(single(
            "polyline_decode_100pts",
            samples,
            "Google-polyline decoding of the same 100-point route",
            || polyline::decode(black_box(&encoded)).expect("encoded route decodes"),
        ));
        let service = ElevationService::new(SyntheticTerrain::new(7));
        report.benches.push(single(
            "service_sample_path_200",
            samples,
            "ElevationService: 200 equally spaced elevations along the 100-point \
             route; corpus generation calls the terrain model directly, so only \
             this entry times the service",
            || service.sample_path(black_box(&path), 200),
        ));

        let mut sim = AthleteSimulator::new(SyntheticTerrain::new(3), 5);
        let xml = sim.generate_one(CityId::WashingtonDc).gpx.to_xml();
        let mut b = single("gpx_parse_activity", samples, "", || {
            gpxfile::Gpx::parse(black_box(&xml)).expect("simulated activity parses")
        });
        b.note = format!(
            "the shipped DOM reader (Gpx::parse) on one simulated activity \
             ({} bytes): {:.1} MiB/s; ingest_throughput_* times the \
             reconstructed pre-streaming reader and the streaming path instead",
            xml.len(),
            xml.len() as f64 / (1024.0 * 1024.0) / b.optimized_s,
        );
        report.benches.push(b);

        let signals: Vec<Vec<f64>> = (0..100)
            .map(|i| (0..80).map(|t| 50.0 + ((t as f64) * 0.2 + i as f64).sin() * 20.0).collect())
            .collect();
        report.benches.push(single(
            "text_pipeline_fit_100x80",
            samples,
            "text pipeline fit (mined discretizer, 8-grams, standard feature \
             selection) on 100 profiles of 80 points",
            || {
                TextPipeline::fit(
                    Discretizer::mined(),
                    8,
                    FeatureSelection::standard(),
                    black_box(&signals),
                )
            },
        ));
        report.benches.push(single(
            "image_render_one",
            samples,
            "one 80-point profile rasterized to the 32x32 line graph",
            || render(black_box(&signals[0]), &ImageConfig::default()),
        ));
    }

    report.write(Path::new(env!("CARGO_TARGET_TMPDIR")));
}

/// The GPX front-end as it existed before the zero-copy streaming
/// reader: a byte-at-a-time tokenizer materializing one owned `String`
/// per element name, attribute, and text run (entity decode copied even
/// when there was nothing to decode), building the full `Gpx` tree.
/// Reconstructed here verbatim-modulo-error-detail so the
/// `ingest_throughput_*` baselines time the code this change replaced;
/// error *construction* is coarsened to `()` because the bench corpus
/// is well-formed and never exercises those paths.
mod dom_baseline {
    use geoprim::LatLon;
    use gpxfile::{Gpx, Track, TrackPoint, TrackSegment};

    enum XmlEvent {
        Start { name: String, attributes: Vec<(String, String)> },
        End { name: String },
        Text(String),
    }

    struct XmlReader<'a> {
        src: &'a [u8],
        pos: usize,
        stack: Vec<String>,
        pending_end: Option<String>,
    }

    impl<'a> XmlReader<'a> {
        fn new(src: &'a str) -> Self {
            Self { src: src.as_bytes(), pos: 0, stack: Vec::new(), pending_end: None }
        }

        fn next_event(&mut self) -> Result<Option<XmlEvent>, ()> {
            if let Some(name) = self.pending_end.take() {
                self.stack.pop();
                return Ok(Some(XmlEvent::End { name }));
            }
            loop {
                if self.pos >= self.src.len() {
                    if self.stack.pop().is_some() {
                        return Err(());
                    }
                    return Ok(None);
                }
                if self.src[self.pos] == b'<' {
                    if self.starts_with("<?") {
                        self.skip_until("?>")?;
                        continue;
                    }
                    if self.starts_with("<!--") {
                        self.skip_until("-->")?;
                        continue;
                    }
                    if self.starts_with("<!") {
                        self.skip_until(">")?;
                        continue;
                    }
                    if self.starts_with("</") {
                        return self.parse_end_tag().map(Some);
                    }
                    return self.parse_start_tag().map(Some);
                }
                let start = self.pos;
                while self.pos < self.src.len() && self.src[self.pos] != b'<' {
                    self.pos += 1;
                }
                let raw = std::str::from_utf8(&self.src[start..self.pos]).map_err(|_| ())?;
                if self.stack.is_empty() && raw.trim().is_empty() {
                    continue;
                }
                return Ok(Some(XmlEvent::Text(decode_entities(raw)?)));
            }
        }

        fn starts_with(&self, s: &str) -> bool {
            self.src[self.pos..].starts_with(s.as_bytes())
        }

        fn skip_until(&mut self, end: &str) -> Result<(), ()> {
            let hay = &self.src[self.pos..];
            match hay.windows(end.len()).position(|w| w == end.as_bytes()) {
                Some(i) => {
                    self.pos += i + end.len();
                    Ok(())
                }
                None => Err(()),
            }
        }

        fn parse_end_tag(&mut self) -> Result<XmlEvent, ()> {
            self.pos += 2;
            let name = self.read_name()?;
            self.skip_ws();
            if self.pos >= self.src.len() || self.src[self.pos] != b'>' {
                return Err(());
            }
            self.pos += 1;
            match self.stack.pop() {
                Some(open) if open == name => Ok(XmlEvent::End { name }),
                _ => Err(()),
            }
        }

        fn parse_start_tag(&mut self) -> Result<XmlEvent, ()> {
            self.pos += 1;
            let name = self.read_name()?;
            let mut attributes = Vec::new();
            loop {
                self.skip_ws();
                let Some(&b) = self.src.get(self.pos) else {
                    return Err(());
                };
                match b {
                    b'>' => {
                        self.pos += 1;
                        self.stack.push(name.clone());
                        return Ok(XmlEvent::Start { name, attributes });
                    }
                    b'/' => {
                        if !self.starts_with("/>") {
                            return Err(());
                        }
                        self.pos += 2;
                        self.stack.push(name.clone());
                        self.pending_end = Some(name.clone());
                        return Ok(XmlEvent::Start { name, attributes });
                    }
                    _ => {
                        let key = self.read_name()?;
                        self.skip_ws();
                        if self.src.get(self.pos) != Some(&b'=') {
                            return Err(());
                        }
                        self.pos += 1;
                        self.skip_ws();
                        let quote = match self.src.get(self.pos) {
                            Some(&q @ (b'"' | b'\'')) => q,
                            _ => return Err(()),
                        };
                        self.pos += 1;
                        let start = self.pos;
                        while self.pos < self.src.len() && self.src[self.pos] != quote {
                            self.pos += 1;
                        }
                        if self.pos >= self.src.len() {
                            return Err(());
                        }
                        let raw =
                            std::str::from_utf8(&self.src[start..self.pos]).map_err(|_| ())?;
                        self.pos += 1;
                        attributes.push((key, decode_entities(raw)?));
                    }
                }
            }
        }

        fn read_name(&mut self) -> Result<String, ()> {
            let start = self.pos;
            while self.pos < self.src.len() && is_name_byte(self.src[self.pos]) {
                self.pos += 1;
            }
            if self.pos == start {
                return Err(());
            }
            Ok(std::str::from_utf8(&self.src[start..self.pos]).map_err(|_| ())?.to_owned())
        }

        fn skip_ws(&mut self) {
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
        }
    }

    fn is_name_byte(b: u8) -> bool {
        b.is_ascii_alphanumeric() || matches!(b, b':' | b'_' | b'-' | b'.')
    }

    fn decode_entities(s: &str) -> Result<String, ()> {
        if !s.contains('&') {
            return Ok(s.to_owned());
        }
        let mut out = String::with_capacity(s.len());
        let mut rest = s;
        while let Some(i) = rest.find('&') {
            out.push_str(&rest[..i]);
            rest = &rest[i + 1..];
            let j = rest.find(';').ok_or(())?;
            match &rest[..j] {
                "amp" => out.push('&'),
                "lt" => out.push('<'),
                "gt" => out.push('>'),
                "quot" => out.push('"'),
                "apos" => out.push('\''),
                _ => return Err(()),
            }
            rest = &rest[j + 1..];
        }
        out.push_str(rest);
        Ok(out)
    }

    pub fn parse_bytes(src: &[u8]) -> Result<Gpx, ()> {
        let text = std::str::from_utf8(src).map_err(|_| ())?;
        parse(text)
    }

    fn parse(src: &str) -> Result<Gpx, ()> {
        let mut reader = XmlReader::new(src);
        let mut gpx: Option<Gpx> = None;
        let mut path: Vec<String> = Vec::new();
        let mut cur_track: Option<Track> = None;
        let mut cur_segment: Option<TrackSegment> = None;
        let mut cur_point: Option<TrackPoint> = None;
        let mut text = String::new();

        while let Some(event) = reader.next_event()? {
            match event {
                XmlEvent::Start { name, attributes } => {
                    if path.is_empty() {
                        if name != "gpx" {
                            return Err(());
                        }
                        let creator = attributes
                            .iter()
                            .find(|(k, _)| k == "creator")
                            .map(|(_, v)| v.clone())
                            .unwrap_or_default();
                        gpx = Some(Gpx::new(creator));
                    } else {
                        match (path.last().map(String::as_str).unwrap_or(""), name.as_str()) {
                            ("gpx", "trk") => cur_track = Some(Track::default()),
                            ("trk", "trkseg") => cur_segment = Some(TrackSegment::default()),
                            ("trkseg", "trkpt") => {
                                cur_point = Some(parse_trkpt(&attributes)?);
                            }
                            _ => {}
                        }
                    }
                    path.push(name);
                    text.clear();
                }
                XmlEvent::Text(t) => text.push_str(&t),
                XmlEvent::End { name } => {
                    let parent =
                        if path.len() >= 2 { path[path.len() - 2].as_str() } else { "" };
                    match name.as_str() {
                        "ele" if parent == "trkpt" => {
                            if let Some(p) = cur_point.as_mut() {
                                let v: f64 = text.trim().parse().map_err(|_| ())?;
                                if !v.is_finite() {
                                    return Err(());
                                }
                                p.elevation_m = Some(v);
                            }
                        }
                        "time" if parent == "trkpt" => {
                            if let Some(p) = cur_point.as_mut() {
                                p.time = Some(text.trim().to_owned());
                            }
                        }
                        "name" if parent == "trk" => {
                            if let Some(t) = cur_track.as_mut() {
                                t.name = Some(text.trim().to_owned());
                            }
                        }
                        "trkpt" => {
                            if let (Some(seg), Some(p)) = (cur_segment.as_mut(), cur_point.take())
                            {
                                seg.points.push(p);
                            }
                        }
                        "trkseg" => {
                            if let (Some(trk), Some(seg)) =
                                (cur_track.as_mut(), cur_segment.take())
                            {
                                trk.segments.push(seg);
                            }
                        }
                        "trk" => {
                            if let (Some(g), Some(trk)) = (gpx.as_mut(), cur_track.take()) {
                                g.tracks.push(trk);
                            }
                        }
                        _ => {}
                    }
                    path.pop();
                    text.clear();
                }
            }
        }
        gpx.ok_or(())
    }

    fn parse_trkpt(attributes: &[(String, String)]) -> Result<TrackPoint, ()> {
        let get = |key: &str| {
            attributes.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str()).ok_or(())
        };
        let lat: f64 = get("lat")?.parse().map_err(|_| ())?;
        let lon: f64 = get("lon")?.parse().map_err(|_| ())?;
        let coord = LatLon::validated(lat, lon).map_err(|_| ())?;
        Ok(TrackPoint::new(coord))
    }
}
