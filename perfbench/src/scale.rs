//! The scale workloads: `scale_sweep` (IVF matching) and `scale_exact`
//! (the exact scan alone).
//!
//! Set-up builds a 10⁴-athlete feature store, and for `scale_sweep` its
//! IVF index (the writes); each timed operation is one
//! accuracy-vs-population sweep on a cold featcache (the reads), as a
//! `scale_sweep` invocation over an existing store pays. In IVF mode the
//! sweep also runs the exact scan as its recall reference, so an index
//! change shows on `scale_sweep` and reads flat on `scale_exact`.

use crate::stats::{median, percentile, sorted};
use crate::trace::Tracer;
use crate::{host, Metric, Outcome};
use annindex::{AnnIndex, CODEBOOK_FILE};
use elev_core::featcache;
use elev_core::scale::{
    build_store, scale_sweep, AnnSettings, ScaleConfig, ScaleReport, SCALE_NGRAM,
};
use exec::Executor;
use featstore::{FeatureStore, RowBuf, ShardEntry, ShardWriter, StoreManifest};
use std::path::Path;
use std::time::{Duration, Instant};
use textrep::{Discretizer, FeatureSelection};

/// Athletes in the population (its largest sweep size).
const ATHLETES: usize = 10_000;
/// Executor threads: one per vCPU of the reference host.
const THREADS: usize = 2;
/// Store + index builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// One-thread sweeps the traced run decomposes; medians are reported.
const TRACE_SWEEPS: usize = 3;
/// Store + index replica builds per traced run with span recording on,
/// and as many with it off (even, for the ABBA order).
const BUILDS: u64 = 4;
/// The `scripts/verify.sh` recall@3 floor.
const RECALL_FLOOR: f64 = 0.95;

fn config(seed: u64, dir: &Path, ivf: bool) -> ScaleConfig {
    let mut cfg = ScaleConfig::new(ATHLETES, seed);
    cfg.store_dir = dir.to_path_buf();
    cfg.ann = ivf.then(AnnSettings::default);
    cfg
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The set-up a user pays once: `build_store` (+ `AnnIndex::ensure` in
/// IVF mode) into an empty directory, on a cold featcache. Returns
/// store rows and bytes.
fn build(cfg: &ScaleConfig, exec: &Executor) -> Result<(u64, u64), String> {
    featcache::reset();
    let report = build_store(cfg, exec).map_err(err)?;
    if report.reused || report.appended > 0 {
        return Err(format!("{} already held a store", cfg.store_dir.display()));
    }
    if let Some(settings) = cfg.ann {
        let store = FeatureStore::open(&cfg.store_dir).map_err(err)?;
        AnnIndex::ensure(&store, settings.centroids, cfg.population.seed, exec).map_err(err)?;
    }
    Ok((report.rows, report.bytes))
}

/// One timed operation: a sweep started on a cold featcache.
fn sweep(cfg: &ScaleConfig, exec: &Executor) -> Result<(ScaleReport, f64), String> {
    featcache::reset();
    let t = Instant::now();
    let report = scale_sweep(cfg, exec).map_err(err)?;
    Ok((report, t.elapsed().as_secs_f64() * 1e3))
}

fn min_recall(report: &ScaleReport) -> f64 {
    report.ann.as_ref().map_or(0.0, |a| {
        a.recall3.iter().copied().fold(f64::INFINITY, f64::min)
    })
}

/// TM-3 top-1 (city) accuracy averaged over the population ladder.
fn mean_tm3(report: &ScaleReport) -> f64 {
    report.points.iter().map(|p| p.tm3_top1).sum::<f64>() / report.points.len().max(1) as f64
}

/// The end-to-end run behind the untraced metrics; `ivf` selects
/// `scale_sweep` over `scale_exact`.
///
/// # Errors
///
/// Store, index or sweep I/O failures.
pub fn run(seed: u64, seconds: u64, work: &Path, ivf: bool) -> Result<Outcome, String> {
    let exec = Executor::new(THREADS);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for rep in 0..SETUP_REPS {
        let cfg = config(seed, &work.join(format!("store-{rep}")), ivf);
        let t = Instant::now();
        let shape = build(&cfg, &exec)?;
        setup.push(t.elapsed().as_secs_f64());
        if let Some((old, _)) = built.replace((cfg, shape)) {
            std::fs::remove_dir_all(&old.store_dir).map_err(err)?;
        }
    }
    let (cfg, (rows, bytes)) = built.expect("at least one set-up");

    let (first, _) = sweep(&cfg, &exec)?;
    let first_json = first.to_json();
    let mut times = Vec::new();
    let (mut mismatches, mut vocab_hits, mut vocab_lookups) = (0u64, 0u64, 0u64);
    let start = Instant::now();
    while times.is_empty() || start.elapsed() < Duration::from_secs(seconds) {
        let (report, ms) = sweep(&cfg, &exec)?;
        times.push(ms);
        // Each sweep starts from `featcache::reset`, which zeroes the
        // counters, so they hold exactly this sweep's lookups.
        let cache = featcache::stats();
        vocab_hits += cache.pipeline_hits;
        vocab_lookups += cache.pipeline_hits + cache.pipeline_misses;
        if report.to_json() != first_json {
            mismatches += 1;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let peak_rss = host::peak_rss_mib()?;

    // Outside the timed phase: the sweep is thread-count invariant, so
    // a one-thread sweep must reproduce the timed sweeps byte for byte.
    let (reference, _) = sweep(&cfg, &Executor::new(1))?;
    if reference.to_json() != first_json {
        mismatches += 1;
    }
    // IVF mode is scored by its recall against the exact scan, the
    // exact scan by the city accuracy it delivers.
    let (accuracy, low_recall) = if ivf {
        let recall = min_recall(&first);
        (recall, u64::from(recall.is_nan() || recall < RECALL_FLOOR))
    } else {
        (mean_tm3(&first), 0)
    };

    let attempted = times.len() as u64 + 2;
    let failed = mismatches + low_recall;
    let p50 = median(&times);
    let matching = first.ann.as_ref().map_or("exact scan".to_owned(), |a| {
        format!(
            "IVF {} centroids / nprobe {}, {:.4} of pairs rescored",
            a.centroids,
            a.nprobe,
            a.rows_scanned as f64 / a.rows_total.max(1) as f64
        )
    });
    println!(
        "workload: {ATHLETES} athletes, store {rows} rows / {:.2} MiB, {} probes, ladder {:?}; \
         {matching}; {THREADS} executor threads; featcache vocabulary hits {vocab_hits} of {vocab_lookups} lookups",
        bytes as f64 / (1u64 << 20) as f64,
        first.probes,
        cfg.pop_sizes,
    );
    println!(
        "setup_s         {:.6} s (median of {SETUP_REPS})",
        median(&setup)
    );
    println!(
        "sweep_p50_ms    {p50:.6} ms (n = {}, min {:.3}, max {:.3})",
        times.len(),
        percentile(&sorted(times.clone()), 0.0),
        percentile(&sorted(times.clone()), 1.0)
    );
    println!("sweeps_per_s    {:.6} 1/s", times.len() as f64 / wall);
    if ivf {
        println!("recall_at3      {accuracy:.6} ratio (floor {RECALL_FLOOR})");
    } else {
        println!("tm3_top1        {accuracy:.6} ratio (mean over the ladder)");
    }
    println!("peak_rss_mb     {peak_rss:.3} MB");
    println!(
        "fail_ratio      {:.6} ratio ({failed} of {attempted}: {mismatches} sweep reports differ, \
         {low_recall} below the recall floor)",
        failed as f64 / attempted as f64
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", median(&setup), "s"),
            Metric::new("p50_ms", p50, "ms"),
            Metric::new("ops_per_s", times.len() as f64 / wall, "1/s"),
            Metric::new("accuracy", accuracy, "ratio"),
            Metric::new("peak_rss_mb", peak_rss, "MB"),
        ],
    })
}

/// The replica of `build_store` + `AnnIndex::build` through the same
/// public calls, one span per call: generate, fit, featurize, write,
/// publish, index. Builds the index `cfg.ann` names, or the default one
/// in exact mode.
fn traced_build(cfg: &ScaleConfig, tr: &mut Tracer, exec: &Executor) -> Result<(u64, u64), String> {
    featcache::reset();
    let pop = &cfg.population;
    let fingerprint = cfg.store_fingerprint();
    let root = tr.open("scale.build", 0);
    std::fs::create_dir_all(&cfg.store_dir).map_err(err)?;
    let terrain = pop.terrain();
    let shard0 = tr.span("generate", 0, || pop.generate_shard(&terrain, 0));
    let profiles: Vec<Vec<f64>> = shard0
        .athletes
        .iter()
        .flat_map(|a| &a.activities)
        .map(|a| a.elevation_profile())
        .collect();
    let pipeline = tr.span("vocab.fit", 0, || {
        featcache::pipeline_for(
            &profiles,
            Discretizer::Floor,
            SCALE_NGRAM,
            FeatureSelection::standard(),
        )
    });
    let n_cols = pipeline.pipeline().n_features();
    let (mut tracks, mut entries) = (shard0.tracks() as u64, Vec::new());
    for s in 0..pop.n_shards() {
        let shard = tr.span("generate", s as u64, || pop.generate_shard(&terrain, s));
        tracks += shard.tracks() as u64;
        let rows: Vec<_> = tr.span("featurize", s as u64, || {
            shard
                .athletes
                .iter()
                .flat_map(|a| {
                    a.activities
                        .iter()
                        .enumerate()
                        .map(move |(ai, act)| (a, ai, act))
                })
                .map(|(a, ai, act)| {
                    (
                        a.habits.id,
                        a.habits.city_index as u32,
                        ai as u32,
                        pipeline
                            .pipeline()
                            .transform_sparse(&act.elevation_profile()),
                    )
                })
                .collect()
        });
        let meta = tr.span("store.write", s as u64, || -> Result<_, String> {
            let mut w =
                ShardWriter::create(&cfg.store_dir, s, n_cols as u64, fingerprint).map_err(err)?;
            for (athlete, city, ai, sv) in &rows {
                w.append_row(*athlete, *city, *ai, sv.indices(), sv.values())
                    .map_err(err)?;
            }
            w.finish().map_err(err)
        })?;
        entries.push(ShardEntry {
            index: s,
            file: meta.file.clone(),
            rows: meta.rows,
        });
    }
    let manifest = StoreManifest {
        config: fingerprint,
        n_cols: n_cols as u64,
        shard_size: pop.shard_size as u64,
        athletes: pop.athletes as u64,
        generation: 1,
        shards: entries,
    };
    tr.span("store.write", 0, || {
        FeatureStore::publish_manifest(&cfg.store_dir, &manifest)
    })
    .map_err(err)?;
    tr.span("index.build", 0, || -> Result<_, String> {
        let store = FeatureStore::open(&cfg.store_dir).map_err(err)?;
        AnnIndex::build(
            &store,
            cfg.ann.unwrap_or_default().centroids,
            pop.seed,
            exec,
        )
        .map_err(err)
    })?;
    tr.close(root);
    Ok((tracks, manifest.shards.iter().map(|s| s.rows).sum()))
}

/// Bytes of the files directly under `dir` whose names satisfy `keep`.
fn dir_bytes(dir: &Path, keep: impl Fn(&str) -> bool) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(err)? {
        let entry = entry.map_err(err)?;
        if keep(&entry.file_name().to_string_lossy()) {
            total += entry.metadata().map_err(err)?.len();
        }
    }
    Ok(total)
}

/// Whether two store directories hold byte-identical stores and indexes.
fn same_files(a: &Path, b: &Path) -> Result<bool, String> {
    let mut names: Vec<String> = std::fs::read_dir(a)
        .map_err(err)?
        .map(|e| {
            e.map(|e| e.file_name().to_string_lossy().into_owned())
                .map_err(err)
        })
        .collect::<Result<_, _>>()?;
    names.sort();
    for name in &names {
        if std::fs::read(a.join(name)).map_err(err)?
            != std::fs::read(b.join(name)).unwrap_or_default()
        {
            return Ok(false);
        }
    }
    Ok(!names.is_empty())
}

/// Rows the sweep rescores and (probe, row) pairs in all: the sums that
/// `ScaleReport.ann` reports as `rows_scanned` and `rows_total`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Rescored {
    scanned: u64,
    total: u64,
}

impl Rescored {
    fn ratio(self) -> f64 {
        self.scanned as f64 / self.total.max(1) as f64
    }
}

/// The sub-steps `scale_sweep` takes through public calls, one span
/// each; what the sweep spends beyond them is its private scans plus
/// the merge. Then the index steps: each probe's closest centroids and
/// every shard's posting lists, from which the pairs an IVF sweep
/// rescores are counted. They belong to the sweep in IVF mode only; in
/// exact mode the sweep never reads the index, so they are timed on
/// their own, after the sub-steps. Returns the probe count, the time
/// the sweep's sub-steps took (ms) and the rescored pairs.
fn traced_sweep_steps(
    cfg: &ScaleConfig,
    tr: &mut Tracer,
    rep: u64,
    exec: &Executor,
) -> Result<(usize, f64, Rescored), String> {
    featcache::reset();
    let t = Instant::now();
    let pop = &cfg.population;
    let store = tr.span("sweep.open", rep, || -> Result<_, String> {
        build_store(cfg, exec).map_err(err)?;
        FeatureStore::open(&cfg.store_dir).map_err(err)
    })?;
    let pipeline = tr.span("sweep.regen", rep, || {
        let terrain = pop.terrain();
        let shard0 = pop.generate_shard(&terrain, 0);
        let profiles: Vec<Vec<f64>> = shard0
            .athletes
            .iter()
            .flat_map(|a| &a.activities)
            .map(|a| a.elevation_profile())
            .collect();
        featcache::pipeline_for(
            &profiles,
            Discretizer::Floor,
            SCALE_NGRAM,
            FeatureSelection::standard(),
        )
    });
    let probes = tr.span("probe.build", rep, || {
        let terrain = pop.terrain();
        let min_size = cfg.pop_sizes[0] as u64;
        let mut per_city = vec![0usize; pop.cities.len()];
        let mut probes = Vec::new();
        for id in 0..min_size.min(pop.athletes as u64) {
            let habits = pop.habits(id);
            if per_city[habits.city_index] < cfg.probes_per_city {
                per_city[habits.city_index] += 1;
                let mut acts =
                    pop.athlete_activities(&terrain, habits.id, habits.weekly_cadence + 1);
                let act = acts.pop().expect("cadence + 1 activities");
                probes.push(
                    pipeline
                        .pipeline()
                        .transform_sparse(&act.elevation_profile()),
                );
            }
        }
        probes
    });
    let mut steps_ms = t.elapsed().as_secs_f64() * 1e3;

    let settings = cfg.ann.unwrap_or_default();
    let index = tr
        .span("index.open", rep, || {
            AnnIndex::ensure(&store, settings.centroids, pop.seed, exec)
        })
        .map_err(err)?
        .0;
    let rescored = tr.span("index.probe", rep, || -> Result<Rescored, String> {
        // Rows per posting list over every shard; a sweep skips rows
        // with a zero norm.
        let mut rows = vec![0u64; index.codebook().k()];
        let mut all = 0u64;
        for s in 0..store.manifest().shards.len() {
            for (c, list) in index.postings(s).map_err(err)?.iter().enumerate() {
                rows[c] += list.iter().filter(|e| e.norm != 0.0).count() as u64;
                all += list.len() as u64;
            }
        }
        let mut scanned = 0u64;
        for p in &probes {
            let lists = index
                .codebook()
                .top_centroids(p.indices(), p.values(), settings.nprobe);
            scanned += lists.iter().map(|&c| rows[c as usize]).sum::<u64>();
        }
        Ok(Rescored {
            scanned,
            total: probes.len() as u64 * all,
        })
    })?;
    if cfg.ann.is_some() {
        steps_ms = t.elapsed().as_secs_f64() * 1e3;
    }
    Ok((probes.len(), steps_ms, rescored))
}

/// One full pass over every stored row, as the exact scan reads them.
fn read_store(cfg: &ScaleConfig) -> Result<u64, String> {
    let store = FeatureStore::open(&cfg.store_dir).map_err(err)?;
    let mut row = RowBuf::default();
    let mut rows = 0u64;
    for s in 0..store.manifest().shards.len() {
        let mut reader = store.reader(s).map_err(err)?;
        while reader.next_row(&mut row).map_err(err)? {
            rows += 1;
        }
    }
    Ok(rows)
}

/// The traced per-layer run of the scale path, on one thread; `ivf`
/// selects `scale_sweep`'s sweeps over `scale_exact`'s.
///
/// # Errors
///
/// Store, index or sweep I/O failures.
pub fn traced(seed: u64, work: &Path, tr: &mut Tracer, ivf: bool) -> Result<Outcome, String> {
    let one = Executor::new(1);
    // Store and index as `scale_sweep`'s set-up builds them, on either
    // workload, so the index layer is measured on `scale_exact` too.
    let reference = config(seed, &work.join("trace-reference"), true);
    let built = config(seed, &work.join("trace-store"), true);
    build(&reference, &one)?;
    // The same replica with span recording on and off, in ABBA order,
    // each into an empty directory, so a slow phase of the host lands
    // on both alike; the gap between their medians is the cost of the
    // spans.
    let mut off = Tracer::off();
    let (mut on_ms, mut off_ms, mut tracks, mut rows) = (Vec::new(), Vec::new(), 0u64, 0u64);
    for i in 0..2 * BUILDS {
        let recording = matches!(i % 4, 0 | 3);
        if built.store_dir.exists() {
            std::fs::remove_dir_all(&built.store_dir).map_err(err)?;
        }
        let t = Instant::now();
        let (built_tracks, built_rows) =
            traced_build(&built, if recording { &mut *tr } else { &mut off }, &one)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        rows = built_rows;
        if recording {
            tracks += built_tracks;
            on_ms.push(ms);
        } else {
            off_ms.push(ms);
        }
    }
    let replica_differs = u64::from(!same_files(&reference.store_dir, &built.store_dir)?);
    std::fs::remove_dir_all(&reference.store_dir).map_err(err)?;

    // This workload's sweeps over the traced store.
    let cfg = config(seed, &built.store_dir, ivf);
    // Parallel sweeps: CPU use of the two-thread executor.
    let two = Executor::new(THREADS);
    let (parallel, _) = sweep(&cfg, &two)?;
    let expected = parallel.to_json();
    let (cpu0, t0) = (host::process_cpu_s()?, Instant::now());
    let mut mismatches = 0u64;
    for _ in 0..TRACE_SWEEPS {
        mismatches += u64::from(sweep(&cfg, &two)?.0.to_json() != expected);
    }
    let cpu_util = (host::process_cpu_s()? - cpu0) / (t0.elapsed().as_secs_f64() * THREADS as f64);

    // One-thread sweeps and their replicated public sub-steps.
    let (mut sweep_ms, mut scan_ms, mut read_s, mut probes) =
        (Vec::new(), Vec::new(), Vec::new(), 0);
    let mut rescored = Rescored::default();
    for rep in 0..TRACE_SWEEPS as u64 {
        let (report, ms) = sweep(&cfg, &one)?;
        mismatches += u64::from(report.to_json() != expected);
        let steps_ms;
        (probes, steps_ms, rescored) = traced_sweep_steps(&cfg, tr, rep, &one)?;
        sweep_ms.push(ms);
        scan_ms.push(ms - steps_ms);
        let t = Instant::now();
        let n = tr.span("store.read", rep, || read_store(&cfg))?;
        read_s.push(t.elapsed().as_secs_f64());
        if n != rows {
            mismatches += 1;
        }
    }
    // In IVF mode the pairs counted from the index must be the ones the
    // sweep reports rescoring.
    let rescored_differs = parallel.ann.as_ref().map_or(0, |a| {
        u64::from((a.rows_scanned, a.rows_total) != (rescored.scanned, rescored.total))
    });

    let totals = tr.totals();
    let ms = |name: &str, per: u64| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e6 / per as f64)
    };
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let reps = TRACE_SWEEPS as u64;
    let store_bytes = dir_bytes(&cfg.store_dir, |n| n.ends_with(".fst"))?;
    let index_bytes = dir_bytes(&cfg.store_dir, |n| {
        n.ends_with(".ivf") || n == CODEBOOK_FILE
    })?;
    let mib = |b: u64| b as f64 / (1u64 << 20) as f64;
    let scan = median(&scan_ms);
    let negative_scan = u64::from(scan < 0.0);
    println!(
        "scale trace: {rows} rows, {probes} probes, {}; one-thread sweep {:.2} ms = replicated sub-steps {:.2} ms + scan.ms {scan:.2} ({})",
        if ivf { "IVF sweeps" } else { "exact sweeps, index probed on its own" },
        median(&sweep_ms),
        median(&sweep_ms) - scan,
        if negative_scan == 0 { "non-negative: ok" } else { "NEGATIVE: FAILED" }
    );
    println!(
        "scale trace: store+index build replica {:.1} ms with spans vs {:.1} ms without (medians of {BUILDS}); {} pairs rescored of {}{}; replica {}",
        median(&on_ms),
        median(&off_ms),
        rescored.scanned,
        rescored.total,
        match (ivf, rescored_differs) {
            (false, _) => "",
            (true, 0) => ", as the sweep reports",
            (true, _) => ", NOT as the sweep reports",
        },
        if replica_differs == 0 { "byte-identical to build_store + AnnIndex::ensure" } else { "DIFFERS" }
    );

    let metrics = vec![
        Metric::new(
            "generate.tracks_per_s",
            tracks as f64 / secs("generate"),
            "tracks/s",
        ),
        Metric::new("sweep.regen_ms", ms("sweep.regen", reps), "ms"),
        Metric::new("vocab.fit_ms", ms("vocab.fit", BUILDS), "ms"),
        Metric::new(
            "featurize.tracks_per_s",
            (BUILDS * rows) as f64 / secs("featurize"),
            "tracks/s",
        ),
        Metric::new("probe.build_ms", ms("probe.build", reps), "ms"),
        Metric::new(
            "store.write_mib_per_s",
            BUILDS as f64 * mib(store_bytes) / secs("store.write"),
            "MiB/s",
        ),
        Metric::new("store.mib", mib(store_bytes), "MiB"),
        Metric::new(
            "store.read_mib_per_s",
            mib(store_bytes) / median(&read_s),
            "MiB/s",
        ),
        Metric::new("index.build_ms", ms("index.build", BUILDS), "ms"),
        Metric::new("index.mib", mib(index_bytes), "MiB"),
        Metric::new("index.probe_ms", ms("index.probe", reps), "ms"),
        Metric::new("index.rescored_ratio", rescored.ratio(), "ratio"),
        Metric::new("scan.ms", scan, "ms"),
        Metric::new("exec.cpu_util", cpu_util, "ratio"),
        Metric::new(
            "scale.trace_overhead_pct",
            (median(&on_ms) / median(&off_ms) - 1.0) * 1e2,
            "%",
        ),
    ];
    // Sweep and store-read checks, the replica, rescored-pairs and scan
    // checks.
    let attempted = 3 * reps + 3;
    Ok(Outcome {
        attempted,
        failed: mismatches + replica_differs + rescored_differs + negative_scan,
        metrics,
    })
}
