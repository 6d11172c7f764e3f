//! The one timing harness behind the `kernels`, `train` and `serve`
//! bench suites (`benches/*.rs`).
//!
//! A suite times closures with [`single`] or [`pair`] (or builds a
//! [`BenchEntry`] from latencies it measured itself), collects the
//! entries in a [`BenchReport`] and calls [`BenchReport::write`]. A full
//! run replaces the committed `BENCH_<suite>.json` at the repository
//! root; a `BENCH_QUICK=1` smoke writes under the target directory
//! instead, so it can never clobber the committed numbers.

use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use tensorlite::Tensor;

/// One row of a `BENCH_<suite>.json` report.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Stable entry name; tooling and `scripts/verify.sh` select on it.
    pub name: String,
    /// Median seconds of the old or reference code, if there is one.
    pub baseline_s: Option<f64>,
    /// Median seconds of the shipped code, unless the note names
    /// another statistic (a p99, or a dimensionless rate).
    pub optimized_s: f64,
    /// `baseline_s / optimized_s`, when the pair reads as a speedup.
    pub speedup: Option<f64>,
    /// Shapes, throughputs and the invariants asserted while timing.
    pub note: String,
    /// Size of the sample set behind `optimized_s`, `p10_s` and `p90_s`.
    pub samples: usize,
    /// Cores available to the process that measured the entry.
    pub cores: usize,
    /// Nearest-rank p10 of the optimized side (`None` if not a time).
    pub p10_s: Option<f64>,
    /// Nearest-rank p90 of the optimized side (`None` if not a time).
    pub p90_s: Option<f64>,
}

/// A whole `BENCH_<suite>.json` file.
#[derive(Debug, Serialize, Deserialize)]
pub struct BenchReport {
    /// `kernels`, `train` or `serve`; also names the file.
    pub suite: String,
    /// Whether this is a `BENCH_QUICK=1` smoke run.
    pub quick: bool,
    /// The suite's default samples per timed side.
    pub samples: usize,
    /// The entries, in the order the suite ran them.
    pub benches: Vec<BenchEntry>,
}

/// An ascending, non-empty set of measurements.
#[derive(Debug)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sorts `values` ascending; panics if there are none.
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "a sample set needs at least one value");
        values.sort_unstable_by(f64::total_cmp);
        Self(values)
    }

    /// Nearest-rank percentile, `p` in [0, 1]: the smallest sample with
    /// at least a `p` share of the set at or below it.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.0.len();
        let rank = ((n as f64 * p).ceil() as usize).clamp(1, n);
        self.0[rank - 1]
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Cores available to this process, as recorded in every entry.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn time_once<O>(f: &mut impl FnMut() -> O) -> f64 {
    let t = Instant::now();
    black_box(f());
    t.elapsed().as_secs_f64()
}

/// Wall-clock seconds of `samples` runs of `f`, after one warm-up run.
fn time_runs<O>(samples: usize, mut f: impl FnMut() -> O) -> Samples {
    black_box(f());
    Samples::new((0..samples).map(|_| time_once(&mut f)).collect())
}

/// [`time_runs`] for two sides: one warm-up of each, then `samples`
/// rounds of baseline then optimized (ABAB), so slow host drift lands
/// on both sides alike.
fn time_pair<A, B>(
    samples: usize,
    mut baseline: impl FnMut() -> A,
    mut optimized: impl FnMut() -> B,
) -> (Samples, Samples) {
    black_box(baseline());
    black_box(optimized());
    let (base, opt) =
        (0..samples).map(|_| (time_once(&mut baseline), time_once(&mut optimized))).unzip();
    (Samples::new(base), Samples::new(opt))
}

impl BenchEntry {
    /// An entry whose optimized side is the median of `times`, with its
    /// p10/p90 spread and no baseline.
    pub fn new(name: impl Into<String>, note: impl Into<String>, times: &Samples) -> Self {
        Self {
            name: name.into(),
            baseline_s: None,
            optimized_s: times.percentile(0.5),
            speedup: None,
            note: note.into(),
            samples: times.len(),
            cores: cores(),
            p10_s: Some(times.percentile(0.1)),
            p90_s: Some(times.percentile(0.9)),
        }
    }

    /// Sets the baseline and `speedup = baseline_s / optimized_s`.
    pub fn against(self, baseline_s: f64) -> Self {
        Self { baseline_s: Some(baseline_s), speedup: Some(baseline_s / self.optimized_s), ..self }
    }
}

/// Times `f` alone: an entry with no baseline.
pub fn single<O>(
    name: &str,
    samples: usize,
    note: impl Into<String>,
    f: impl FnMut() -> O,
) -> BenchEntry {
    let entry = BenchEntry::new(name, note, &time_runs(samples, f));
    println!("  {name}: {:.3} ms", entry.optimized_s * 1e3);
    entry
}

/// Times `baseline` against `optimized`, alternating their samples.
pub fn pair<A, B>(
    name: &str,
    samples: usize,
    note: impl Into<String>,
    baseline: impl FnMut() -> A,
    optimized: impl FnMut() -> B,
) -> BenchEntry {
    let (base, opt) = time_pair(samples, baseline, optimized);
    let base_s = base.percentile(0.5);
    let entry = BenchEntry::new(name, note, &opt).against(base_s);
    println!(
        "  {name}: baseline {:.3} ms, optimized {:.3} ms ({:.2}x)",
        base_s * 1e3,
        entry.optimized_s * 1e3,
        base_s / entry.optimized_s
    );
    entry
}

/// The committed full-mode report of `suite`, at the repository root.
pub fn committed_path(suite: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{suite}.json"))
}

impl BenchReport {
    /// An empty report; quick mode when `BENCH_QUICK` is set to
    /// anything but `0`, with `quick_samples` instead of `full_samples`.
    pub fn from_env(suite: &str, full_samples: usize, quick_samples: usize) -> Self {
        let quick = std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0");
        let samples = if quick { quick_samples } else { full_samples };
        println!("{suite} suite (quick={quick}, {samples} samples per bench, {} cores)", cores());
        Self { suite: suite.to_owned(), quick, samples, benches: Vec::new() }
    }

    /// [`committed_path`] for a full run, `quick_dir` for a smoke.
    fn path(&self, quick_dir: &Path) -> PathBuf {
        if self.quick {
            quick_dir.join(format!("BENCH_{}.json", self.suite))
        } else {
            committed_path(&self.suite)
        }
    }

    /// Serializes, checks the JSON parses back to the same entries, and
    /// writes it to [`committed_path`] for a full run or into
    /// `quick_dir` for a smoke.
    pub fn write(&self, quick_dir: &Path) {
        let json = serde_json::to_string(self).expect("report serializes");
        let parsed: BenchReport = serde_json::from_str(&json).expect("report parses back");
        assert_eq!(parsed.benches, self.benches, "report does not round-trip");
        let path = self.path(quick_dir);
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
}

/// A reproducible `shape` tensor with values in [-0.5, 0.5), varied by `salt`.
pub fn deterministic_tensor(shape: &[usize], salt: u64) -> Tensor {
    let len: usize = shape.iter().product();
    let data: Vec<f32> = (0..len)
        .map(|i| {
            let h = (i as u64 ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(data, shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn nearest_rank_percentiles_at_odd_and_even_counts() {
        let odd = Samples::new(vec![9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0]);
        assert_eq!(odd.percentile(0.5), 5.0);
        // At 9 samples p10 and p90 are the extremes.
        assert_eq!((odd.percentile(0.1), odd.percentile(0.9)), (1.0, 9.0));
        let even = Samples::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.percentile(0.5), 2.0);
        assert_eq!(even.percentile(0.75), 3.0);
        assert_eq!((even.percentile(0.0), even.percentile(1.0)), (1.0, 4.0));
        let hundred = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(hundred.percentile(0.99), 99.0);
        assert_eq!(hundred.percentile(0.1), 10.0);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn empty_sample_sets_are_rejected() {
        Samples::new(Vec::new());
    }

    #[test]
    fn entries_carry_spread_and_speedup() {
        let times = Samples::new(vec![0.3, 0.1, 0.2, 0.5, 0.4]);
        let e = BenchEntry::new("x", "n", &times).against(0.9);
        assert!(e.p10_s.unwrap() <= e.optimized_s && e.optimized_s <= e.p90_s.unwrap());
        assert_eq!((e.p10_s, e.optimized_s, e.p90_s), (Some(0.1), 0.3, Some(0.5)));
        assert_eq!(e.speedup, Some(0.9 / 0.3));
        assert_eq!((e.baseline_s, e.samples, e.cores), (Some(0.9), 5, cores()));

        let timed = pair("y", 7, "", || black_box(1), || black_box(2));
        assert_eq!(timed.speedup, Some(timed.baseline_s.unwrap() / timed.optimized_s));
        assert!(timed.p10_s.unwrap() <= timed.optimized_s);
        assert!(timed.optimized_s <= timed.p90_s.unwrap());
        assert_eq!(timed.samples, 7);
    }

    #[test]
    fn pairs_alternate_after_one_warm_up_of_each_side() {
        let order = RefCell::new(String::new());
        let (base, opt) =
            time_pair(3, || order.borrow_mut().push('A'), || order.borrow_mut().push('B'));
        assert_eq!(order.into_inner(), "ABABABAB");
        assert_eq!((base.len(), opt.len()), (3, 3));

        let runs = RefCell::new(0);
        assert_eq!(time_runs(4, || *runs.borrow_mut() += 1).len(), 4);
        assert_eq!(runs.into_inner(), 5, "one warm-up plus four timed runs");
    }

    #[test]
    fn quick_reports_never_target_the_committed_file() {
        let tmp = Path::new("target-tmp");
        let mut report =
            BenchReport { suite: "kernels".into(), quick: true, samples: 3, benches: Vec::new() };
        assert_eq!(report.path(tmp), tmp.join("BENCH_kernels.json"));
        report.quick = false;
        assert_eq!(report.path(tmp), committed_path("kernels"));
        assert!(committed_path("kernels").ends_with("crates/bench/../../BENCH_kernels.json"));
    }

    #[test]
    fn deterministic_tensors_repeat_and_vary_by_salt() {
        let a = deterministic_tensor(&[2, 3], 7);
        assert_eq!(a.shape(), &[2, 3]);
        assert_eq!(a.data(), deterministic_tensor(&[2, 3], 7).data());
        assert_ne!(a.data(), deterministic_tensor(&[2, 3], 8).data());
        assert!(a.data().iter().all(|v| (-0.5..0.5).contains(v)));
    }
}
