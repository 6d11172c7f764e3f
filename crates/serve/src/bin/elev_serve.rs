//! `elev-serve` — the attack-as-a-service daemon.
//!
//! ```text
//! elev-serve --bootstrap --model-dir models/   # train + write registry
//! elev-serve --model-dir models/ --port 8787   # serve (hot-reloads registry)
//! elev-serve --model-dir models/ --smoke a.gpx # offline report, no server
//! ```
//!
//! Flags: `--port P` (default 0 = ephemeral), `--workers N` (default
//! `ELEV_SERVE_WORKERS` or 4), `--model-dir DIR`, `--seed S` (default
//! 0xE1EF, bootstrap only), `--port-file F` (write the bound port for
//! scripts), `--bootstrap`, `--smoke FILE`, `--deadline-ms MS`
//! (per-request budget, default `ELEV_SERVE_DEADLINE_MS` or 5000),
//! `--queue-depth N` (admission bound, default
//! `ELEV_SERVE_QUEUE_DEPTH` or 64).

use serve::bundle::{BundleConfig, ModelBundle};
use serve::registry;
use serve::{InferenceArena, ServeConfig, Server};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    port: u16,
    workers: Option<usize>,
    model_dir: Option<PathBuf>,
    seed: u64,
    port_file: Option<PathBuf>,
    bootstrap: bool,
    smoke: Option<PathBuf>,
    deadline_ms: Option<u64>,
    queue_depth: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 0,
        workers: None,
        model_dir: None,
        seed: 0xE1EF,
        port_file: None,
        bootstrap: false,
        smoke: None,
        deadline_ms: None,
        queue_depth: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--port" => args.port = value("--port")?.parse().map_err(|e| format!("--port: {e}"))?,
            "--workers" => {
                args.workers =
                    Some(value("--workers")?.parse().map_err(|e| format!("--workers: {e}"))?);
            }
            "--model-dir" => args.model_dir = Some(PathBuf::from(value("--model-dir")?)),
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--port-file" => args.port_file = Some(PathBuf::from(value("--port-file")?)),
            "--bootstrap" => args.bootstrap = true,
            "--smoke" => args.smoke = Some(PathBuf::from(value("--smoke")?)),
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    value("--deadline-ms")?.parse().map_err(|e| format!("--deadline-ms: {e}"))?,
                );
            }
            "--queue-depth" => {
                args.queue_depth = Some(
                    value("--queue-depth")?.parse().map_err(|e| format!("--queue-depth: {e}"))?,
                );
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn load_or_train(args: &Args) -> Result<ModelBundle, String> {
    if let Some(dir) = &args.model_dir {
        if [registry::MANIFEST, registry::MANIFEST_PREV].iter().any(|m| dir.join(m).exists()) {
            // The crash-safe loader: falls back to the last-good
            // generation when the current one is torn or missing; the
            // bundle keeps the generation `/v1/health` reports.
            let load = registry::load_generation(dir).map_err(|e| format!("registry: {e}"))?;
            if load.fell_back {
                eprintln!(
                    "registry generation torn; serving last-good generation {}",
                    load.generation
                );
                for (file, err) in &load.errors {
                    eprintln!("  {file}: {err}");
                }
            }
            return ModelBundle::from_generation(load).map_err(|e| format!("bundle: {e}"));
        }
    }
    eprintln!("no registry found; training a quick bundle (seed {:#x})", args.seed);
    Ok(ModelBundle::train(args.seed, &BundleConfig::quick()))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    if args.bootstrap {
        let dir = args.model_dir.as_ref().ok_or("--bootstrap needs --model-dir")?;
        let bundle = ModelBundle::train(args.seed, &BundleConfig::quick());
        let records = bundle.to_records();
        registry::save_dir(dir, &records).map_err(|e| format!("save: {e}"))?;
        println!("wrote {} records to {}", records.len(), dir.display());
        return Ok(());
    }

    if let Some(path) = &args.smoke {
        let bundle = load_or_train(&args)?;
        let raw = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut arena = InferenceArena::new();
        let (status, json) = bundle.report_json(&raw, &mut arena);
        println!("{status}");
        println!("{json}");
        return Ok(());
    }

    let bundle = load_or_train(&args)?;
    let mut cfg = ServeConfig::from_env();
    cfg.port = args.port;
    if let Some(w) = args.workers {
        cfg.workers = w;
    }
    cfg.model_dir = args.model_dir.clone();
    if let Some(ms) = args.deadline_ms {
        cfg.request_deadline = std::time::Duration::from_millis(ms);
        cfg.header_deadline = cfg.request_deadline.min(std::time::Duration::from_secs(2));
    }
    if let Some(depth) = args.queue_depth {
        cfg.queue_depth = depth;
    }
    let server = Server::start(bundle, &cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    if let Some(path) = &args.port_file {
        std::fs::write(path, format!("{}\n", addr.port()))
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("listening on {addr} ({} workers)", cfg.workers);

    // Serve until killed; the Server's threads do all the work.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("elev-serve: {e}");
            ExitCode::FAILURE
        }
    }
}
