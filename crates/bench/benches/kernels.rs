//! Kernel-level benchmarks for the hot paths underneath the attack
//! pipeline: GPX ingestion, BoW featurization, the SVM epoch, the
//! blocked matmul at the paper-CNN's im2col shapes, conv
//! forward/backward, corpus generation, feature-store reads and probe
//! matching, plus the learner and substrate costs below them.
//!
//! Most entries are *before/after pairs*: the baseline runs the
//! dense/naive or reference code (`Tensor::matmul_reference`, dense
//! Pegasos, dense BoW rows, the DOM ingestion front door, a never-run
//! network, the exact scan) against the faster path on identical
//! inputs, and the entry reports the speedup. Both sides of every pair
//! are code the workspace ships. Unpaired entries pin the absolute cost
//! of code with no second version to time. The results are written to
//! `BENCH_kernels.json` at the repository root so the perf trajectory
//! is tracked in-tree.
//!
//! Run with `cargo bench -p bench --bench kernels`; set `BENCH_QUICK=1`
//! for a fast smoke (fewer samples, same shapes, written under the
//! target directory) as `scripts/verify.sh` does.

use bench::harness::{deterministic_tensor, pair, single, BenchEntry, BenchReport};
use classicml::{ForestConfig, RandomForest, SvmClassifier, SvmConfig};
use elev_core::ingest::StreamingIngest;
use elev_core::scale::{fit_vocabulary, push_topk, recall_at3, OverlapSig, Probe};
use faultsim::Payload;
use geoprim::{polyline, BoundingBox, LatLon};
use imgrep::{render, ImageConfig};
use neuralnet::{models, train, Layer, TrainConfig};
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

    // --- GPX ingestion: the DOM reference (`Gpx::parse_bytes` builds
    // the whole tree, then a fresh `StreamingIngest` flattens and
    // repairs it) vs the one front door every caller runs (one reused
    // `StreamingIngest`: borrowed events straight into the flat point
    // buffer, no allocation per point). Both sides ship, share one
    // tokenizer and feed the same repair passes, whose outputs the
    // stream-parity tests and fuzz campaign pin bit-identical; the pair
    // measures what building the DOM costs over the flat walk.
    for (name, docs) in [
        ("ingest_throughput_corpus_48x400", gpx_corpus(48, 400)),
        ("ingest_throughput_long_track_4000pts", gpx_corpus(1, 4000)),
    ] {
        let bytes: usize = docs.iter().map(Vec::len).sum();
        let mut ing = StreamingIngest::default();
        let mut b = pair(
            name,
            samples,
            "",
            || {
                for doc in &docs {
                    let gpx = gpxfile::Gpx::parse_bytes(doc).expect("corpus is well-formed");
                    black_box(StreamingIngest::default().ingest_source(&Payload::Parsed(gpx)));
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
            "{} timed GPX doc(s), {:.2} MiB per pass; DOM reference \
             (Gpx::parse_bytes + ingest of the tree) {:.1} MiB/s / {:.0} tracks/s, streaming \
             (StreamingIngest::ingest_bytes) {:.1} MiB/s / {:.0} tracks/s; both sides \
             ship, with identical dispositions and bit-identical profiles",
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
    // The cold side runs a never-run copy of the network per call, built
    // before timing (one per harness call: a warm-up plus `samples`), so
    // every call allocates the im2col columns, weight-matrix views and
    // argmax buffers afresh; the warm side reuses one network's layer
    // scratch. Both sides run the same kernels on the same inputs; only
    // the layer scratch's lifetime differs (training keeps no other
    // state between calls). `shards: Some(1)` keeps the step serial so
    // the pair isolates allocation behavior, not data parallelism.
    let batch = 16;
    let x = deterministic_tensor(&[batch, 3, 32, 32], 7);
    let y: Vec<u32> = (0..batch).map(|i| (i % 4) as u32).collect();
    let mut fwd_cold = vec![models::paper_cnn(4, 1); samples + 1];
    let mut fwd_net = models::paper_cnn(4, 1);
    report.benches.push(pair(
        "conv_forward_16imgs",
        samples,
        "paper CNN forward on 16 images (blocked im2col matmuls); \
         baseline runs a never-run copy of the network per call, so it \
         allocates im2col/weight-view scratch every call, optimized \
         reuses the layer arenas",
        || fwd_cold.pop().expect("one cold network per call").forward(&x, false),
        || fwd_net.forward(&x, false),
    ));
    let train_cfg = TrainConfig {
        epochs: 1,
        batch_size: batch,
        shards: Some(1),
        ..Default::default()
    };
    let mut bwd_cold = vec![models::paper_cnn(4, 1); samples + 1];
    let mut bwd_net = models::paper_cnn(4, 1);
    report.benches.push(pair(
        "conv_fwd_bwd_16imgs",
        samples,
        "one training step on 16 images; backward uses the fused \
         matmul_at/matmul_bt kernels instead of allocating transposes; \
         baseline trains a never-run copy of the network every step, \
         optimized trains one kept network, so the pair times layer \
         scratch reuse only",
        || train(&mut bwd_cold.pop().expect("one cold network per call"), &x, &y, &train_cfg),
        || train(&mut bwd_net, &x, &y, &train_cfg),
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
        let store_pipeline = fit_vocabulary(&pop, &exec::Executor::from_env());
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
        assert_eq!(vocabulary.n_features(), build.n_cols, "probe space != store space");

        let n_probes = 32u64;
        let probes: Vec<Probe> = (0..n_probes)
            .map(|id| Probe::held_out(&cfg.population, &terrain, id, &vocabulary))
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
            "the DOM reader (Gpx::parse) on one simulated activity ({} bytes): \
             {:.1} MiB/s; ingest_throughput_* times the DOM and streaming front \
             doors on timed documents, repair included",
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
