//! Training-path benchmarks for the deterministic data-parallel CNN
//! step and the layer scratch it reuses.
//!
//! Three before/after pairs, written to `BENCH_train.json` through
//! `bench::harness` (the schema every suite shares):
//!
//! 1. the single mini-batch step, serial vs 4-lane staged — trained
//!    weights are bit-identical either way (asserted here), so the
//!    pair measures pure scheduling; each call builds its lanes afresh,
//!    as every `train` call does;
//! 2. the same step cold vs warm — the cold side trains a never-run
//!    copy of the network every call, the warm side trains one kept
//!    network; training keeps no state between calls, so the pair
//!    measures the layer scratch (im2col columns, argmax and ReLU
//!    masks) only, and a counting allocator reports allocations per
//!    step for both;
//! 3. end-to-end Table VII (TM-1, weighted loss) at quick scale,
//!    serial vs 4 lanes, with identical confusions asserted.
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
use neuralnet::{models, train, Layer, TrainConfig};
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
    let mut lane_net = models::paper_cnn(4, 1);
    report.benches.push(pair(
        "cnn_epoch_64imgs_serial_vs_4lane",
        samples,
        format!(
            "two batch-32 steps on the paper CNN; 4 gradient lanes vs \
             one, bit-identical weights asserted; lane speedup tracks \
             core count ({cores} available here)"
        ),
        || {
            black_box(train(&mut serial_net, &x, &y, &serial_cfg));
        },
        || {
            black_box(train(&mut lane_net, &x, &y, &lane_cfg));
        },
    ));

    // --- The same serial epoch, cold vs warm layer scratch, with alloc
    // counts. Every cold call trains its own never-run copy of the
    // network, so its layer scratch starts empty; the copies are built
    // before timing, one for the count and one per harness call (a
    // warm-up plus `samples`).
    let mut cold_nets = vec![models::paper_cnn(4, 1); samples + 2];
    let mut cold = || {
        let mut net = cold_nets.pop().expect("one cold network per call");
        black_box(train(&mut net, &x, &y, &serial_cfg));
    };
    let mut warm_net = models::paper_cnn(4, 1);
    // Warm the kept network, then count one call per side.
    train(&mut warm_net, &x, &y, &serial_cfg);
    let (cold_allocs, cold_bytes) = common::count_allocs(&mut cold);
    let (warm_allocs, warm_bytes) = common::count_allocs(|| {
        black_box(train(&mut warm_net, &x, &y, &serial_cfg));
    });
    report.benches.push(pair(
        "cnn_epoch_64imgs_cold_vs_warm_arena",
        samples,
        format!(
            "cold trains a never-run network every call: {cold_allocs} \
             allocations / {:.2} MiB per epoch vs {warm_allocs} / {:.2} MiB \
             for one kept network, whose layer scratch is the only state \
             that outlives a call",
            cold_bytes as f64 / (1 << 20) as f64,
            warm_bytes as f64 / (1 << 20) as f64
        ),
        cold,
        || {
            black_box(train(&mut warm_net, &x, &y, &serial_cfg));
        },
    ));

    // --- End-to-end Table VII delta: TM-1 weighted-loss CNN at quick
    // scale, serial vs 4 lanes. Rasters are memoized
    // process-wide, so after the warm-up both sides time train+predict.
    let scale = ExperimentScale::quick();
    let corpora = Corpora::generate(7, &scale);
    let serial_img = ImageAttackConfig {
        epochs: scale.cnn_epochs,
        seed: 7,
        shards: Some(1),
        ..Default::default()
    };
    let lanes_img = ImageAttackConfig { shards: Some(4), ..serial_img.clone() };
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

    report.write(Path::new(env!("CARGO_TARGET_TMPDIR")));
}
