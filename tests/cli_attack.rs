//! Drives the `elevation-privacy` binary end to end: `generate` writes
//! a labelled GPX tree, `attack` trains on it through the ingestion
//! pipeline, saves and reloads the model, and names each target's
//! metro. A training file ingestion quarantines is skipped with a
//! warning; a quarantined target is an error that names the reason.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_elevation-privacy"))
        .args(args)
        .output()
        .expect("the binary runs")
}

fn path(p: &Path) -> &str {
    p.to_str().expect("temp paths are UTF-8")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn attack_trains_past_a_garbage_file_and_names_each_metro() {
    let root: PathBuf =
        std::env::temp_dir().join(format!("elev-privacy-cli-{}", std::process::id()));
    let train = root.join("train");
    for metro in ["WDC", "MIA"] {
        let out = cli(&[
            "generate",
            "--metro",
            metro,
            "--count",
            "8",
            "--out-dir",
            path(&train.join(metro)),
        ]);
        assert!(out.status.success(), "generate {metro}: {}", stderr(&out));
    }
    std::fs::write(train.join("WDC").join("zz-garbage.gpx"), b"\xff\xfenot <gpx at all").unwrap();
    let (wdc, mia) = (train.join("WDC").join("wdc-000.gpx"), train.join("MIA").join("mia-000.gpx"));
    let expected = format!("{}: WDC\n{}: MIA\n", path(&wdc), path(&mia));

    let model = root.join("m.json");
    let out = cli(&[
        "attack",
        "--train",
        path(&train),
        "--model",
        "svm",
        "--target",
        path(&wdc),
        path(&mia),
        "--save",
        path(&model),
    ]);
    assert!(out.status.success(), "attack --train: {}", stderr(&out));
    assert_eq!(stdout(&out), expected);
    assert!(
        stderr(&out).contains("zz-garbage.gpx quarantined (parse_failed"),
        "no warning names the skipped file: {}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("16 activities"), "{}", stderr(&out));

    let out = cli(&["attack", "--load", path(&model), "--target", path(&wdc), path(&mia)]);
    assert!(out.status.success(), "attack --load: {}", stderr(&out));
    assert_eq!(stdout(&out), expected);

    let bytes = std::fs::read(&wdc).unwrap();
    let truncated = root.join("truncated.gpx");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
    let out = cli(&["attack", "--load", path(&model), "--target", path(&truncated)]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("parse_failed"), "{}", stderr(&out));
    assert_eq!(stdout(&out), "");

    std::fs::remove_dir_all(&root).ok();
}
