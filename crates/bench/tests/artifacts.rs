//! The committed `BENCH_<suite>.json` files parse as the harness report
//! type and carry every per-entry key, so `run_all`'s speedup line and
//! the `scripts/verify.sh` assertions read what the suites write.

use bench::harness::{committed_path, BenchReport};

const ENTRY_KEYS: [&str; 9] =
    ["name", "baseline_s", "optimized_s", "speedup", "note", "samples", "cores", "p10_s", "p90_s"];

#[test]
fn committed_reports_parse_as_the_harness_report_type() {
    for suite in ["kernels", "train", "serve"] {
        let path = committed_path(suite);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let report: BenchReport = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        assert_eq!(report.suite, suite, "{} names another suite", path.display());
        assert!(!report.quick, "{} holds a BENCH_QUICK smoke run", path.display());
        assert!(!report.benches.is_empty(), "{} has no entries", path.display());
        for entry in &report.benches {
            assert!(entry.samples >= 1 && entry.cores >= 1, "{suite}/{}", entry.name);
            if let (Some(p10), Some(p90)) = (entry.p10_s, entry.p90_s) {
                assert!(p10 <= p90, "{suite}/{}: p10 above p90", entry.name);
            }
        }

        // Missing `Option` keys would parse as `None`, so check the
        // keys themselves.
        let raw: serde_json::Value = serde_json::from_str(&text).expect("parsed above");
        let Some(serde_json::Value::Array(entries)) = raw.get("benches") else {
            panic!("{}: benches is not an array", path.display());
        };
        for entry in entries {
            for key in ENTRY_KEYS {
                assert!(entry.get(key).is_some(), "{suite}: an entry lacks `{key}`: {entry:?}");
            }
        }
    }
}
