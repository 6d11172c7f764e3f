//! Training-path benchmarks for the deterministic data-parallel CNN
//! step and the zero-alloc training arenas.
//!
//! Three before/after pairs, written to `BENCH_train.json` through
//! `bench::harness` (the schema every suite shares):
//!
//! 1. the single mini-batch step, serial vs 4-lane staged — trained
//!    weights are bit-identical either way (asserted here), so the
//!    pair measures pure scheduling;
//! 2. the same step cold vs warm — the cold side drops layer scratch
//!    and the training arena every call (the pre-arena behavior), and
//!    a counting allocator reports allocations per step for both;
//! 3. end-to-end Table VII (TM-1, weighted loss) at quick scale,
//!    serial vs budget-sized lanes, with identical confusions asserted.
//!
//! Lane speedup tracks the host's available parallelism: on one core
//! the lanes serialize onto one worker and the pair reads ~1.0x; each
//! entry records the core count it ran on so the numbers stay
//! interpretable across machines. Run with
//! `cargo bench -p bench --bench train`; `BENCH_QUICK=1` for the smoke.

mod common;

use bench::harness::{deterministic_tensor, pair, BenchReport};
use elev_core::experiments::{Corpora, ExperimentScale};
use elev_core::image::{evaluate_image, ImageAttackConfig, ImageMethod};
use neuralnet::{models, train, train_in_arena, Adam, Layer, TrainArena, TrainConfig};
use std::hint::black_box;
use std::path::Path;

/// `to_bits` of every trained parameter, for bit-identity assertions.
fn weight_bits(net: &mut neuralnet::Sequential) -> Vec<u32> {
    let mut bits = Vec::new();
    net.visit_params(&mut |p, _| bits.extend(p.data().iter().map(|v| v.to_bits())));
    bits
}

fn main() {
    let mut report = BenchReport::from_env("train", 9, 3);
    let (quick, samples) = (report.quick, report.samples);
    let cores = bench::harness::cores();

    // The staged path reads the two-level budget from the environment;
    // pin it so the measurement does not depend on the caller's shell.
    std::env::set_var("ELEV_INNER_THREADS", "4");

    // --- One CNN mini-batch epoch: serial vs 4-lane staged gradients.
    let batch = 32;
    let x = deterministic_tensor(&[batch * 2, 3, 32, 32], 7);
    let y: Vec<u32> = (0..batch * 2).map(|i| (i % 4) as u32).collect();
    let serial_cfg = TrainConfig {
        epochs: 1,
        batch_size: batch,
        shards: Some(1),
        ..Default::default()
    };
    let lane_cfg = TrainConfig { shards: Some(4), ..serial_cfg.clone() };

    // Bit-identity first: the bench's premise is that the two sides
    // compute the same weights, so assert it before timing them.
    let mut check_serial = models::paper_cnn(4, 1);
    let mut check_lanes = models::paper_cnn(4, 1);
    train(&mut check_serial, &x, &y, &serial_cfg);
    train(&mut check_lanes, &x, &y, &lane_cfg);
    assert_eq!(
        weight_bits(&mut check_serial),
        weight_bits(&mut check_lanes),
        "serial and 4-lane training must produce bit-identical weights"
    );

    let mut serial_net = models::paper_cnn(4, 1);
    let mut serial_adam = Adam::new(serial_cfg.lr);
    let mut serial_arena = TrainArena::new();
    let mut lane_net = models::paper_cnn(4, 1);
    let mut lane_adam = Adam::new(lane_cfg.lr);
    let mut lane_arena = TrainArena::new();
    report.benches.push(pair(
        "cnn_epoch_64imgs_serial_vs_4lane",
        samples,
        format!(
            "two batch-32 steps on the paper CNN; 4 gradient lanes vs \
             one, bit-identical weights asserted; lane speedup tracks \
             core count ({cores} available here)"
        ),
        || {
            black_box(train_in_arena(
                &mut serial_net,
                &x,
                &y,
                &serial_cfg,
                &mut serial_adam,
                &mut serial_arena,
            ));
        },
        || {
            black_box(train_in_arena(
                &mut lane_net,
                &x,
                &y,
                &lane_cfg,
                &mut lane_adam,
                &mut lane_arena,
            ));
        },
    ));

    // --- The same serial epoch, cold vs warm arenas, with alloc counts.
    let mut cold_net = models::paper_cnn(4, 1);
    let mut warm_net = models::paper_cnn(4, 1);
    let mut warm_adam = Adam::new(serial_cfg.lr);
    let mut warm_arena = TrainArena::new();
    // Warm both paths, then count one representative call each.
    cold_net.reset_scratch();
    train(&mut cold_net, &x, &y, &serial_cfg);
    train_in_arena(&mut warm_net, &x, &y, &serial_cfg, &mut warm_adam, &mut warm_arena);
    let (cold_allocs, cold_bytes) = common::count_allocs(|| {
        cold_net.reset_scratch();
        black_box(train(&mut cold_net, &x, &y, &serial_cfg));
    });
    let (warm_allocs, warm_bytes) = common::count_allocs(|| {
        black_box(train_in_arena(
            &mut warm_net,
            &x,
            &y,
            &serial_cfg,
            &mut warm_adam,
            &mut warm_arena,
        ));
    });
    report.benches.push(pair(
        "cnn_epoch_64imgs_cold_vs_warm_arena",
        samples,
        format!(
            "cold drops layer scratch + arena every call (pre-arena \
             behavior): {cold_allocs} allocations / {:.2} MiB per \
             epoch vs {warm_allocs} / {:.2} MiB with persistent arenas",
            cold_bytes as f64 / (1 << 20) as f64,
            warm_bytes as f64 / (1 << 20) as f64
        ),
        || {
            cold_net.reset_scratch();
            black_box(train(&mut cold_net, &x, &y, &serial_cfg));
        },
        || {
            black_box(train_in_arena(
                &mut warm_net,
                &x,
                &y,
                &serial_cfg,
                &mut warm_adam,
                &mut warm_arena,
            ));
        },
    ));

    // --- End-to-end Table VII delta: TM-1 weighted-loss CNN at quick
    // scale, serial vs budget-sized lanes. Rasters are memoized
    // process-wide, so after the warm-up both sides time train+predict.
    let scale = ExperimentScale::quick();
    let corpora = Corpora::generate(7, &scale);
    let serial_img = ImageAttackConfig {
        epochs: scale.cnn_epochs,
        seed: 7,
        shards: Some(1),
        ..Default::default()
    };
    let lanes_img = ImageAttackConfig { shards: None, ..serial_img.clone() };
    let out_serial = evaluate_image(&corpora.user, ImageMethod::WeightedLoss, &serial_img);
    let out_lanes = evaluate_image(&corpora.user, ImageMethod::WeightedLoss, &lanes_img);
    assert_eq!(
        out_serial, out_lanes,
        "table7 outcome must not depend on the lane count"
    );
    let e2e_samples = if quick { 1 } else { 3 };
    report.benches.push(pair(
        "table7_tm1_wl_quick_serial_vs_lanes",
        e2e_samples,
        format!(
            "end-to-end TM-1 weighted-loss evaluation at quick scale \
             ({} samples); identical confusion matrices asserted; \
             {cores} cores available",
            corpora.user.len()
        ),
        || {
            black_box(evaluate_image(&corpora.user, ImageMethod::WeightedLoss, &serial_img));
        },
        || {
            black_box(evaluate_image(&corpora.user, ImageMethod::WeightedLoss, &lanes_img));
        },
    ));

    std::env::remove_var("ELEV_INNER_THREADS");

    report.write(Path::new(env!("CARGO_TARGET_TMPDIR")));
}
