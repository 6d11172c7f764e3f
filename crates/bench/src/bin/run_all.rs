//! Runs every experiment in sequence, printing a compact summary —
//! including the paper's headline accuracy range (§I: 59.59%–95.83%).

use bench::harness::{committed_path, BenchReport};
use bench::{pct, start, TextTable};
use elev_core::experiments::*;
use elev_core::text::TextModel;
use std::time::Instant;

fn main() {
    let (seed, scale) = start("run_all", "all tables and figures (summary)");
    let t0 = Instant::now();
    let corpora = Corpora::generate(seed, &scale);
    println!(
        "corpora: user {} / city {} / boroughs {} samples ({:?})",
        corpora.user.len(),
        corpora.city.len(),
        corpora.boroughs.values().map(|d| d.len()).sum::<usize>(),
        t0.elapsed()
    );
    println!("user-specific overlap ratio: {:.2} (paper 0.35)", corpora.user.mean_overlap_ratio());
    println!();

    let mut lows: Vec<f64> = Vec::new();
    let mut highs: Vec<f64> = Vec::new();

    // TM-1 (Table IV).
    let t = Instant::now();
    let tm1 = table4_tm1(&corpora.user, &scale, seed);
    let tm1_best = tm1.iter().map(|r| r.outcome.accuracy).fold(0.0f64, f64::max);
    let tm1_worst = tm1.iter().map(|r| r.outcome.accuracy).fold(1.0f64, f64::min);
    println!("TM-1 text accuracy: {}–{} (paper 86.8–98.5) [{:?}]", pct(tm1_worst), pct(tm1_best), t.elapsed());
    lows.push(tm1_worst);
    highs.push(tm1_best);

    // TM-2 (Fig. 8).
    let t = Instant::now();
    let tm2 = fig8_tm2(&corpora.boroughs, &scale, seed);
    let mut tm2_table = TextTable::new(&["city", "best model", "A"]);
    for &city in corpora.boroughs.keys() {
        let best = tm2
            .iter()
            .filter(|(c, _, _)| *c == city)
            .max_by(|a, b| a.2.ovr_accuracy.total_cmp(&b.2.ovr_accuracy))
            .expect("three models per city");
        tm2_table.row(vec![
            city.abbrev().to_owned(),
            best.1.to_string(),
            pct(best.2.ovr_accuracy),
        ]);
        lows.push(best.2.ovr_accuracy);
        highs.push(best.2.ovr_accuracy);
    }
    println!("TM-2 per-city best (paper: all above 55%) [{:?}]:", t.elapsed());
    tm2_table.print();

    // TM-3 (Table V).
    let t = Instant::now();
    let tm3 = table5_tm3(&corpora.city, &scale, seed);
    let best10 = tm3
        .iter()
        .filter(|r| r.classes == 10)
        .map(|r| r.outcome.ovr_accuracy)
        .fold(0.0f64, f64::max);
    let mlp3 = tm3
        .iter()
        .find(|r| r.classes == 3 && r.model == TextModel::Mlp)
        .map(|r| r.outcome.ovr_accuracy)
        .unwrap_or(0.0);
    println!(
        "TM-3: best A at C=10 {} (paper 93.9); MLP A at C=3 {} (paper 80.9) [{:?}]",
        pct(best10),
        pct(mlp3),
        t.elapsed()
    );
    lows.push(mlp3);
    highs.push(best10);

    // Overlap simulations (Fig. 9 / Table VI).
    let t = Instant::now();
    let injected = table6_tm3_overlap(&corpora.city, &scale, seed);
    let gains = injected
        .iter()
        .filter(|r| {
            tm3.iter()
                .find(|o| o.classes == r.classes && o.model == r.model)
                .is_some_and(|o| r.outcome.ovr_accuracy >= o.outcome.ovr_accuracy - 0.005)
        })
        .count();
    println!(
        "Table VI: overlap injection holds or improves {}/{} settings (paper: all) [{:?}]",
        gains,
        injected.len(),
        t.elapsed()
    );

    // Robustness: accuracy under fault injection + quarantine ingestion.
    let t = Instant::now();
    let fault_plan = faultsim::FaultPlan::from_env();
    let rob = elev_core::robustness::robustness_sweep(
        &corpora,
        &scale,
        seed,
        fault_plan.seed,
        &elev_core::robustness::DEFAULT_RATES,
    );
    let mut rob_table = TextTable::new(&["rate", "TM-1 A", "TM-3 A", "repaired", "quar"]);
    for &rate in &elev_core::robustness::DEFAULT_RATES {
        let at = |setting: &str| rob.iter().find(|p| p.rate == rate && p.setting == setting);
        let (tm1, tm3) = (at("TM-1").expect("TM-1 point"), at("TM-3").expect("TM-3 point"));
        rob_table.row(vec![
            format!("{rate:.2}"),
            pct(tm1.outcome.ovr_accuracy),
            pct(tm3.outcome.ovr_accuracy),
            (tm1.report.repaired() + tm3.report.repaired()).to_string(),
            (tm1.report.quarantined() + tm3.report.quarantined()).to_string(),
        ]);
    }
    println!();
    println!("robustness: accuracy vs corruption rate (quarantine ingestion) [{:?}]:", t.elapsed());
    rob_table.print();

    // Scaling: re-identification accuracy vs candidate-population size
    // over the sharded feature store (quick slice; scale_sweep runs the
    // full ladder, and its reference run writes
    // results/scale_population.json).
    let t = Instant::now();
    let pop_size = if scale == ExperimentScale::full() { 10_000 } else { 600 };
    let mut scale_cfg = elev_core::scale::ScaleConfig::new(pop_size, seed);
    scale_cfg.store_dir = std::path::PathBuf::from(format!("target/featstore_runall_{pop_size}"));
    let exec = exec::Executor::from_env();
    let scaling = elev_core::scale::scale_sweep(&scale_cfg, &exec).expect("scale sweep");
    let mut scale_table = TextTable::new(&["athletes", "TM-1 top-1", "TM-1 top-3", "TM-3 top-1"]);
    for p in &scaling.points {
        scale_table.row(vec![
            p.athletes.to_string(),
            pct(p.tm1_top1),
            pct(p.tm1_top3),
            pct(p.tm3_top1),
        ]);
    }
    println!();
    println!(
        "scaling: re-identification vs candidate-pool size ({} probes, {} stored rows) [{:?}]:",
        scaling.probes,
        scaling.store_rows,
        t.elapsed()
    );
    scale_table.print();

    let lo = lows.iter().copied().fold(1.0f64, f64::min);
    let hi = highs.iter().copied().fold(0.0f64, f64::max);
    println!();
    let phases = elev_core::timing::snapshot();
    println!(
        "phase time (summed across workers): featurize {:?}, fit {:?} (cnn-train {:?}), predict {:?}",
        phases.featurize, phases.fit, phases.cnn_train, phases.predict
    );
    let cache = elev_core::featcache::stats();
    println!(
        "featurization cache: pipeline {}/{} hits, bow {}/{} hits, raster {}/{} hits",
        cache.pipeline_hits,
        cache.pipeline_hits + cache.pipeline_misses,
        cache.bow_hits,
        cache.bow_hits + cache.bow_misses,
        cache.raster_hits,
        cache.raster_hits + cache.raster_misses
    );
    if cache.dense_feature_bytes() > 0 {
        println!(
            "feature matrix: {:.2}% nonzero; {} sparse vs {} dense ({:.0}x smaller)",
            cache.bow_density() * 100.0,
            fmt_bytes(cache.sparse_feature_bytes()),
            fmt_bytes(cache.dense_feature_bytes()),
            cache.dense_feature_bytes() as f64 / cache.sparse_feature_bytes().max(1) as f64
        );
    }
    if let Some(line) = kernel_speedups() {
        println!("kernel speedups vs dense/naive (BENCH_kernels.json): {line}");
    }
    println!();
    println!(
        "headline: prediction success ranges {}%–{}% across threat models \
         (paper: 59.59%–95.83%)",
        pct(lo).trim_end_matches(".0"),
        pct(hi).trim_end_matches(".0")
    );
    println!("total wall time {:?}", t0.elapsed());
    println!();
    println!("run the per-table binaries (table4_tm1_text, table7_image_methods, …) for");
    println!("the full layouts, and set ELEV_SCALE=full for paper-scale sweeps.");
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1} MiB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1} KiB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b} B")
    }
}

/// Per-kernel speedups from the committed bench trajectory, if
/// `BENCH_kernels.json` sits at the repository root (run
/// `cargo bench -p bench --bench kernels` to refresh it).
fn kernel_speedups() -> Option<String> {
    let text = std::fs::read_to_string(committed_path("kernels")).ok()?;
    let report: BenchReport = match serde_json::from_str(&text) {
        Ok(report) => report,
        Err(e) => return Some(format!("unreadable ({e})")),
    };
    let lines: Vec<String> = report
        .benches
        .iter()
        .filter_map(|b| b.speedup.map(|s| format!("{} {s:.2}x", b.name)))
        .collect();
    if lines.is_empty() {
        None
    } else {
        Some(lines.join(", "))
    }
}
