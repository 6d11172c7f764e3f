//! `elevation-privacy` — the attack as a command-line tool.
//!
//! ```text
//! elevation-privacy generate --metro ORL --count 20 --out-dir data/orlando
//! elevation-privacy attack --train data --target mystery.gpx --model mlp
//! elevation-privacy survey --n 60 --seed 42
//! elevation-privacy demo
//! ```
//!
//! `attack` trains on a directory of labelled GPX files
//! (`<train>/<label>/*.gpx`) and predicts the label of target GPX
//! files from their **elevation profiles only** — exactly the paper's
//! adversary. Every file goes through the ingestion pipeline
//! (`elev_core::ingest`): damaged tracks are repaired, and a training
//! file ingestion quarantines is skipped with a warning. `generate`
//! produces synthetic labelled GPX corpora for trying the tool end to
//! end without real data.

use datasets::{Dataset, Sample};
use elev_core::attacker::TextAttacker;
use elev_core::ingest::{Disposition, QuarantineReason, StreamingIngest};
use elev_core::text::{TextAttackConfig, TextModel};
use routegen::AthleteSimulator;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use terrain::{CityId, SyntheticTerrain};
use textrep::Discretizer;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("attack") => cmd_attack(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        Some("survey") => cmd_survey(&args[1..]),
        Some("demo") => cmd_demo(),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}; see `elevation-privacy help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
elevation-privacy — elevation-profile location inference (ICDCS 2020 reproduction)

USAGE:
  elevation-privacy attack --train <dir> --target <gpx>... [--model svm|rfc|mlp]
                           [--ngram <n>] [--seed <u64>] [--save <file>]
  elevation-privacy attack --load <file> --target <gpx>...
      Train on <dir>/<label>/*.gpx (or reload a model saved with --save)
      and predict each target's label from its elevation profile alone
      (the route map is never read).

  elevation-privacy generate --metro <abbrev> --count <n> --out-dir <dir>
                             [--seed <u64>]
      Generate synthetic labelled GPX activities (metros: NYC WDC SF COS
      MSP LA NJ DLH MIA TPA ORL SD).

  elevation-privacy survey [--n <participants>] [--seed <u64>]
      Regenerate the paper's Fig. 1 survey statistics.

  elevation-privacy demo
      End-to-end demonstration on synthetic data.
";

/// Parsed `--key value` flags.
type Flags = Vec<(String, String)>;

/// Tiny flag parser: `--key value` pairs plus positionals.
fn parse_flags(args: &[String]) -> Result<(Flags, Vec<String>), String> {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(key) = a.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} expects a value"))?;
            flags.push((key.to_owned(), value.clone()));
        } else {
            positional.push(a.clone());
        }
    }
    Ok((flags, positional))
}

fn flag<'a>(flags: &'a Flags, key: &str) -> Option<&'a str> {
    flags.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

fn parse_seed(flags: &Flags) -> Result<u64, String> {
    match flag(flags, "seed") {
        Some(s) => s.parse().map_err(|_| format!("bad --seed {s:?}")),
        None => Ok(42),
    }
}

fn metro_by_abbrev(s: &str) -> Result<CityId, String> {
    CityId::ALL
        .into_iter()
        .find(|c| c.abbrev().eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            format!(
                "unknown metro {s:?}; choose from {}",
                CityId::ALL.map(|c| c.abbrev()).join(" ")
            )
        })
}

fn cmd_attack(args: &[String]) -> Result<(), String> {
    let (flags, positional) = parse_flags(args)?;
    let mut targets: Vec<String> = positional;
    if let Some(t) = flag(&flags, "target") {
        targets.insert(0, t.to_owned());
    }
    if targets.is_empty() {
        return Err("at least one --target <gpx> is required".into());
    }

    let mut ing = StreamingIngest::default();
    let mut attacker = if let Some(model_file) = flag(&flags, "load") {
        let json = std::fs::read_to_string(model_file)
            .map_err(|e| format!("cannot read {model_file}: {e}"))?;
        let attacker = TextAttacker::from_json(&json)?;
        eprintln!("loaded model with labels: {}", attacker.label_names().join(", "));
        attacker
    } else {
        let train_dir =
            flag(&flags, "train").ok_or("--train <dir> or --load <file> is required")?;
        let model = match flag(&flags, "model").unwrap_or("mlp") {
            "svm" => TextModel::Svm,
            "rfc" => TextModel::Rfc,
            "mlp" => TextModel::Mlp,
            other => return Err(format!("unknown model {other:?} (svm|rfc|mlp)")),
        };
        let ngram: usize = flag(&flags, "ngram")
            .map(|s| s.parse().map_err(|_| format!("bad --ngram {s:?}")))
            .transpose()?
            .unwrap_or(8);
        let seed = parse_seed(&flags)?;
        let ds = load_gpx_tree(Path::new(train_dir), &mut ing)?;
        eprintln!(
            "trained corpus: {} activities, {} labels: {}",
            ds.len(),
            ds.n_classes(),
            ds.label_names().join(", ")
        );
        let cfg = TextAttackConfig { ngram, seed, ..Default::default() };
        TextAttacker::fit(&ds, Discretizer::Floor, model, &cfg)
    };
    if let Some(save) = flag(&flags, "save") {
        std::fs::write(save, attacker.to_json()).map_err(|e| e.to_string())?;
        eprintln!("model saved to {save}");
    }

    for target in &targets {
        let bytes = std::fs::read(target).map_err(|e| format!("cannot read {target}: {e}"))?;
        let profile = ingest_gpx(&mut ing, &bytes)
            .map_err(|reason| format!("{target}: quarantined ({reason})"))?;
        let label = attacker.predict_name(&profile).to_owned();
        println!("{target}: {label}");
    }
    Ok(())
}

/// Ingests one GPX file's bytes: its elevation profile, or why
/// ingestion quarantined it.
fn ingest_gpx(ing: &mut StreamingIngest, bytes: &[u8]) -> Result<Vec<f64>, String> {
    match ing.ingest_bytes(bytes) {
        (_, Some(profile)) => Ok(profile),
        (Disposition::Quarantined(reason), None) => Err(match &reason {
            QuarantineReason::ParseFailed(e) | QuarantineReason::RepairPanicked(e) => {
                format!("{}: {e}", reason.name())
            }
            QuarantineReason::TooShort { points } => format!("too_short: {points} points"),
            _ => reason.name().to_owned(),
        }),
        (_, None) => unreachable!("ingestion accepts a track only with its profile"),
    }
}

/// Loads `<root>/<label>/*.gpx` into a labelled dataset, skipping the
/// files ingestion quarantines.
fn load_gpx_tree(root: &Path, ing: &mut StreamingIngest) -> Result<Dataset, String> {
    let mut labels: Vec<(String, Vec<PathBuf>)> = Vec::new();
    let entries =
        std::fs::read_dir(root).map_err(|e| format!("cannot read {}: {e}", root.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if !path.is_dir() {
            continue;
        }
        let label = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or("non-utf8 directory name")?
            .to_owned();
        let mut files: Vec<PathBuf> = std::fs::read_dir(&path)
            .map_err(|e| e.to_string())?
            .filter_map(|f| f.ok().map(|f| f.path()))
            .filter(|p| p.extension().is_some_and(|e| e.eq_ignore_ascii_case("gpx")))
            .collect();
        files.sort();
        if !files.is_empty() {
            labels.push((label, files));
        }
    }
    labels.sort();
    if labels.len() < 2 {
        return Err(format!(
            "{} must contain at least two label subdirectories with .gpx files",
            root.display()
        ));
    }
    let mut ds = Dataset::new(labels.iter().map(|(l, _)| l.clone()).collect());
    for (i, (label, files)) in labels.iter().enumerate() {
        for file in files {
            let bytes = std::fs::read(file)
                .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
            let elevation = match ingest_gpx(ing, &bytes) {
                Ok(profile) => profile,
                Err(reason) => {
                    eprintln!("warning: {} quarantined ({reason}), skipped", file.display());
                    continue;
                }
            };
            ds.push(Sample { elevation, label: i as u32, path: None })
                .map_err(|e| format!("{label}: {e}"))?;
        }
    }
    Ok(ds)
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args)?;
    let metro = metro_by_abbrev(flag(&flags, "metro").ok_or("--metro <abbrev> is required")?)?;
    let count: usize = flag(&flags, "count")
        .map(|s| s.parse().map_err(|_| format!("bad --count {s:?}")))
        .transpose()?
        .unwrap_or(10);
    let out_dir = PathBuf::from(flag(&flags, "out-dir").ok_or("--out-dir <dir> is required")?);
    let seed = parse_seed(&flags)?;

    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    let mut sim = AthleteSimulator::new(SyntheticTerrain::new(seed), seed ^ 0xCAFE);
    for i in 0..count {
        let act = sim.generate_one(metro);
        let path = out_dir.join(format!("{}-{i:03}.gpx", metro.abbrev().to_lowercase()));
        std::fs::write(&path, act.gpx.to_xml()).map_err(|e| e.to_string())?;
    }
    println!("wrote {count} activities for {} to {}", metro.name(), out_dir.display());
    Ok(())
}

fn cmd_survey(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args)?;
    let n: usize = flag(&flags, "n")
        .map(|s| s.parse().map_err(|_| format!("bad --n {s:?}")))
        .transpose()?
        .unwrap_or(surveysim::PAPER_N);
    let seed = parse_seed(&flags)?;
    let survey = surveysim::Survey::sample(n, seed);
    let start = survey.start_point_percentages();
    let end = survey.end_point_percentages();
    let privacy = survey.privacy_belief_percentages();
    println!("survey of {n} participants (seed {seed}):");
    println!("  start: home {:.1}% school {:.1}% work {:.1}% other {:.1}%", start[0], start[1], start[2], start[3]);
    println!("  end:   home {:.1}% school {:.1}% work {:.1}% other {:.1}%", end[0], end[1], end[2], end[3]);
    println!("  'no location = privacy': yes {:.1}% / uncertain {:.1}% / no {:.1}%", privacy[0], privacy[1], privacy[2]);
    println!("  chi-square vs paper marginals: {:.2} (99% critical: {:.2})",
        survey.start_point_chi_square(), surveysim::Survey::CHI2_3DF_99);
    Ok(())
}

fn cmd_demo() -> Result<(), String> {
    let dir = std::env::temp_dir().join(format!("elevation-privacy-demo-{}", std::process::id()));
    let make = |metro: &str, n: usize| -> Result<(), String> {
        cmd_generate(&[
            "--metro".into(),
            metro.into(),
            "--count".into(),
            n.to_string(),
            "--out-dir".into(),
            dir.join("train").join(metro).display().to_string(),
        ])
    };
    eprintln!("generating a synthetic labelled corpus under {}...", dir.display());
    make("WDC", 25)?;
    make("ORL", 20)?;
    make("COS", 15)?;
    // One unlabeled target per metro.
    let mut sim = AthleteSimulator::new(SyntheticTerrain::new(42), 0xDEE5);
    let mut targets = Vec::new();
    for metro in [CityId::WashingtonDc, CityId::Orlando, CityId::ColoradoSprings] {
        let act = sim.generate_one(metro);
        let path = dir.join(format!("mystery-{}.gpx", metro.abbrev().to_lowercase()));
        std::fs::write(&path, act.gpx.to_xml()).map_err(|e| e.to_string())?;
        targets.push(path.display().to_string());
    }
    let mut args: Vec<String> =
        vec!["--train".into(), dir.join("train").display().to_string()];
    args.extend(targets);
    cmd_attack(&args)?;
    eprintln!("(demo files left in {})", dir.display());
    Ok(())
}
