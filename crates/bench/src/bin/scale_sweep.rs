//! Scale sweep: re-identification accuracy vs candidate-population
//! size over the sharded feature store (not a paper artifact — this
//! probes how the paper's attacks degrade toward fitness-app scale).
//!
//! Environment knobs on top of the usual `ELEV_*` set:
//!
//! - `ELEV_POP_SIZE` — total athletes (default 10 000);
//! - `ELEV_SHARD_SIZE` — athletes per shard (default 1024);
//! - `ELEV_STORE_DIR` — feature-store directory (default
//!   `target/featstore`; reused when the config fingerprint matches;
//!   when only the athlete count increased, grown in place if the old
//!   population fills whole shards, otherwise rebuilt, IVF index
//!   included; every publish takes the directory's next generation
//!   number);
//! - `ELEV_ANN` — set to `1` to match probes through the deterministic
//!   IVF index (candidate scan of the probed posting lists + exact
//!   rescoring: a constant-factor cut of the exact scan's work, ~12.4%
//!   of pairs at the defaults, not a sublinear one) instead of the
//!   exact brute-force scan, with recall@3 accounting;
//! - `ELEV_ANN_CENTROIDS` / `ELEV_ANN_NPROBE` — IVF codebook size
//!   (default 64) and posting lists scanned per probe (default 8).
//!
//! The report goes to `results/scale_population.json`, the committed
//! artifact, only from the reference run: 10 000 athletes in shards of
//! 1024, seed 42, IVF matching at the defaults. Every other run writes
//! it to `target/scale_population.json`.
//!
//! Flags:
//!
//! - `--digests` — regenerate every population shard, print one
//!   `shard <index> <fingerprint>` line per shard (always sorted by
//!   index, regardless of compute order), and exit. `scripts/verify.sh`
//!   diffs this output across thread counts and regeneration orders.
//! - `--reverse` — with `--digests`, regenerate the shards in reverse
//!   order (the printed lines must not change).

use bench::{pct, start, TextTable};
use elev_core::scale::{scale_sweep, shard_fingerprints, AnnSettings, ScaleConfig};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let digests = args.iter().any(|a| a == "--digests");
    let reverse = args.iter().any(|a| a == "--reverse");
    let exec = exec::Executor::from_env();

    if digests {
        // No banner: the output is diffed byte-for-byte by verify.sh.
        let seed = bench::seed_from_env();
        let cfg = ScaleConfig::from_env(seed);
        let pop = &cfg.population;
        let fps: Vec<u64> = if reverse {
            let terrain = pop.terrain();
            let mut pairs: Vec<(usize, u64)> = (0..pop.n_shards())
                .rev()
                .map(|s| (s, pop.generate_shard(&terrain, s).fingerprint()))
                .collect();
            pairs.sort_by_key(|&(s, _)| s);
            pairs.into_iter().map(|(_, f)| f).collect()
        } else {
            shard_fingerprints(pop, &exec)
        };
        for (s, f) in fps.iter().enumerate() {
            println!("shard {s:05} {f:016x}");
        }
        return;
    }

    let (seed, _) = start("scale_sweep", "accuracy vs candidate-population size (scaling)");
    let cfg = ScaleConfig::from_env(seed);
    println!(
        "population {} athletes over {} shards of {} (seed tree root {seed}), store {}",
        cfg.population.athletes,
        cfg.population.n_shards(),
        cfg.population.shard_size,
        cfg.store_dir.display()
    );
    let t0 = Instant::now();
    let report = scale_sweep(&cfg, &exec).expect("scale sweep");
    println!(
        "store: {} rows x {} features; {} stratified probes",
        report.store_rows, report.n_cols, report.probes
    );
    println!();

    let mut table =
        TextTable::new(&["athletes", "tracks", "TM-1 top-1", "TM-1 top-3", "TM-3 top-1"]);
    for p in &report.points {
        table.row(vec![
            p.athletes.to_string(),
            p.tracks.to_string(),
            pct(p.tm1_top1),
            pct(p.tm1_top3),
            pct(p.tm3_top1),
        ]);
    }
    println!("re-identification accuracy vs candidate-pool size:");
    table.print();
    println!();

    if let Some(ann) = &report.ann {
        println!(
            "IVF matching: {} centroids, {} probed lists/query; rescored {} of {} \
             candidate pairs ({})",
            ann.centroids,
            ann.nprobe,
            ann.rows_scanned,
            ann.rows_total,
            pct(ann.rows_scanned as f64 / ann.rows_total.max(1) as f64)
        );
        let recall: Vec<String> = report
            .points
            .iter()
            .zip(&ann.recall3)
            .map(|(p, r)| format!("{}: {}", p.athletes, pct(*r)))
            .collect();
        println!("recall@3 vs exact scan by pool size: {}", recall.join(", "));
        println!();
    }

    let json = report.to_json();
    println!("scale-report-json:");
    println!("{json}");
    // Only the reference run rewrites the committed artifact.
    let mut reference = ScaleConfig::new(10_000, 42);
    reference.store_dir.clone_from(&cfg.store_dir);
    reference.ann = Some(AnnSettings::default());
    let path = if cfg == reference {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/scale_population.json")
    } else {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/scale_population.json")
    };
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).expect("create the report directory");
    }
    std::fs::write(path, format!("{json}\n")).expect("write scale_population.json");
    println!();
    println!("wrote {path}");
    eprintln!("total wall time {:?}", t0.elapsed());
}
