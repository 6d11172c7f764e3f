//! Robustness sweep: attack accuracy vs corruption rate, with full
//! quarantine accounting (not a paper artifact — this probes how the
//! reproduction degrades on damaged real-world corpora).
//!
//! Environment knobs on top of the usual `ELEV_*` set:
//!
//! - `ELEV_FAULT_RATE` — sweep only this corruption rate (default:
//!   the stock 0 / 0.05 / 0.1 / 0.2 / 0.4 ladder);
//! - `ELEV_FAULT_SEED` — corruption seed (default `0xFA17`);
//! - `ELEV_FAULT_KINDS` — restrict the injected fault kinds.

use bench::{pct, start, TextTable};
use elev_core::experiments::Corpora;
use elev_core::robustness::{
    robustness_sweep, substrate_sweep, zero_rate_is_identity, DEFAULT_RATES,
};
use faultsim::FaultPlan;
use std::time::Instant;

fn main() {
    let (seed, scale) = start("robustness_sweep", "accuracy under fault injection (robustness)");
    let t0 = Instant::now();
    let env_plan = FaultPlan::from_env();
    let rates: Vec<f64> = if env_plan.track_rate > 0.0 {
        vec![env_plan.track_rate]
    } else {
        DEFAULT_RATES.to_vec()
    };
    let corpora = Corpora::generate(seed, &scale);

    // The anchor invariant: a zero-rate plan must reproduce the clean
    // corpus bit-for-bit (no false repairs, nothing quarantined).
    assert!(
        zero_rate_is_identity(&corpora.user, env_plan.seed),
        "zero-rate ingestion altered the clean corpus"
    );
    println!("zero-rate invariance: OK (clean corpus reproduced exactly)");
    println!();

    let points = robustness_sweep(&corpora, &scale, seed, env_plan.seed, &rates);

    let mut table =
        TextTable::new(&["rate", "setting", "tracks", "clean", "repaired", "quar", "folds", "A"]);
    for p in &points {
        table.row(vec![
            format!("{:.2}", p.rate),
            p.setting.clone(),
            p.report.tracks.len().to_string(),
            p.report.clean().to_string(),
            p.report.repaired().to_string(),
            p.report.quarantined().to_string(),
            p.folds.to_string(),
            pct(p.outcome.ovr_accuracy),
        ]);
    }
    println!("accuracy vs corruption rate (MLP text attack on survivors):");
    table.print();
    println!();

    let mut acct = TextTable::new(&["rate", "kind", "injected", "repaired", "quar", "undetected"]);
    for &rate in &rates {
        if rate == 0.0 {
            continue;
        }
        for kind in faultsim::FaultKind::ALL {
            let (mut inj, mut rep, mut quar, mut und) = (0usize, 0usize, 0usize, 0usize);
            for p in points.iter().filter(|p| p.rate == rate) {
                if let Some(a) = p.accounting.iter().find(|a| a.kind == kind) {
                    inj += a.injected;
                    rep += a.repaired;
                    quar += a.quarantined;
                    und += a.undetected;
                }
            }
            acct.row(vec![
                format!("{rate:.2}"),
                kind.name().to_owned(),
                inj.to_string(),
                rep.to_string(),
                quar.to_string(),
                und.to_string(),
            ]);
        }
    }
    println!("ground-truth fault accounting (TM-1 + TM-3 combined):");
    acct.print();
    println!();

    let mut sub = TextTable::new(&[
        "rate", "DEM voids", "filled", "worst err m", "svc requests", "retried", "exhausted",
        "backoff",
    ]);
    for s in substrate_sweep(&rates, env_plan.seed) {
        sub.row(vec![
            format!("{:.2}", s.rate),
            format!("{}/{}", s.dem_voids, s.dem_cells),
            s.dem_filled.to_string(),
            format!("{:.2}", s.dem_worst_err_m),
            s.service.requests.to_string(),
            s.service.transient_failures.to_string(),
            s.service.exhausted.to_string(),
            s.service.backoff_units.to_string(),
        ]);
    }
    println!("substrate fault models (DEM voids at rate/4, flaky service at rate/4):");
    sub.print();
    println!();

    // Machine-readable per-rate quarantine reports (consumed by
    // scripts/verify.sh; each marker line is followed by one JSON
    // object).
    for p in &points {
        println!("quarantine-report-json ({} @ rate {:.2}):", p.setting, p.rate);
        println!("{}", p.report.to_json());
    }
    // On stderr, so two runs of one build print the same stdout.
    eprintln!("total wall time {:?}", t0.elapsed());
}
