//! End-to-end and per-layer benchmark of the served leakage report and
//! the scale sweep, reaching the program only through its public
//! functions.
//!
//! ```text
//! perfbench --workload <scale_sweep|scale_exact|serve_fresh|serve_repeat> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing;
//! `--trace 1` replays the workload's inputs in-process on one thread
//! with a span around every call into a layer's public entry point and
//! prints the per-layer metrics. Every run checks the program's outputs
//! and prints, as its last line, one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! A run with any failure exits with code 1. See `README.md`.

mod host;
mod scale;
mod serve;
mod stats;
mod trace;

use std::alloc::{GlobalAlloc, Layout, System};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `System`, plus an allocation counter that only counts while
/// [`count_allocations`] runs (a relaxed load otherwise).
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

fn note_allocation() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over; the
// counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from `System`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the heap allocations made
/// meanwhile (by any thread, so run it while nothing else works).
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A named value with its unit.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// What one run did: operations attempted, how many failed a check,
/// and the metrics it measured.
pub struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeFresh,
    ServeRepeat,
    ScaleSweep,
    ScaleExact,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "serve_fresh" => Some(Self::ServeFresh),
            "serve_repeat" => Some(Self::ServeRepeat),
            "scale_sweep" => Some(Self::ScaleSweep),
            "scale_exact" => Some(Self::ScaleExact),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Self::ServeFresh => "serve_fresh",
            Self::ServeRepeat => "serve_repeat",
            Self::ScaleSweep => "scale_sweep",
            Self::ScaleExact => "scale_exact",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Scratch space under the checkout, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        if let Err(e) = std::fs::remove_dir_all(&self.0) {
            eprintln!("could not remove {}: {e}", self.0.display());
        }
    }
}

/// Where runs keep scratch files and traces (relative to the checkout).
const WORK_ROOT: &str = ".perfbench_work";

fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    if !args.trace {
        return match args.workload {
            Workload::ServeFresh => serve::run(args.seed, serve::Mix::Fresh, args.seconds, work),
            Workload::ServeRepeat => serve::run(args.seed, serve::Mix::Repeat, args.seconds, work),
            Workload::ScaleSweep => scale::run(args.seed, args.seconds, work, true),
            Workload::ScaleExact => scale::run(args.seed, args.seconds, work, false),
        };
    }
    // A traced run profiles both paths so it reports every per-layer
    // metric; the serve half replays this workload's uploads (the scale
    // workloads replay `serve_fresh`'s) and the scale half sweeps in
    // this workload's matching mode (exact on `scale_exact`, IVF on the
    // others).
    let mut tracer = trace::Tracer::default();
    let mix = if args.workload == Workload::ServeRepeat {
        serve::Mix::Repeat
    } else {
        serve::Mix::Fresh
    };
    let served = serve::traced(args.seed, mix, work, &mut tracer)?;
    let scaled = scale::traced(
        args.seed,
        work,
        &mut tracer,
        args.workload != Workload::ScaleExact,
    )?;
    let traces = Path::new(WORK_ROOT).join("traces");
    std::fs::create_dir_all(&traces).map_err(|e| e.to_string())?;
    let file = traces.join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
    tracer
        .write_tsv(&file)
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("trace: spans written to {}", file.display());
    let mut metrics = served.metrics;
    metrics.extend(scaled.metrics);
    for m in &metrics {
        println!("{:<26} {:>14.4} {}", m.name, m.value, m.unit);
    }
    Ok(Outcome {
        attempted: served.attempted + scaled.attempted,
        failed: served.failed + scaled.failed,
        metrics,
    })
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host::describe());
    let dir = Path::new(WORK_ROOT).join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: {}: {e}", dir.display());
        std::process::exit(2);
    }
    let work = WorkDir(dir);
    let outcome = run(&args, &work.0);
    drop(work);
    match outcome {
        Ok(outcome) if outcome.metrics.iter().all(|m| m.value.is_finite()) => {
            println!("{}", result_line(&outcome));
            if outcome.failed > 0 {
                eprintln!(
                    "perfbench: {} of {} operations failed their checks",
                    outcome.failed, outcome.attempted
                );
                std::process::exit(1);
            }
        }
        Ok(outcome) => {
            for m in outcome.metrics.iter().filter(|m| !m.value.is_finite()) {
                eprintln!("perfbench: metric {} is not finite", m.name);
            }
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
