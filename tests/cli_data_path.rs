//! Exercises the CLI's data path as a library: labelled GPX trees on
//! disk → ingestion → dataset → attack, matching what
//! `elevation-privacy attack` does end to end.

use datasets::{Dataset, Sample};
use elevation_privacy::attack::attacker::TextAttacker;
use elevation_privacy::attack::ingest::StreamingIngest;
use elevation_privacy::attack::text::{TextAttackConfig, TextModel};
use routegen::AthleteSimulator;
use terrain::{CityId, SyntheticTerrain};
use textrep::Discretizer;

fn write_corpus(root: &std::path::Path) {
    // Several athletes per metro: each athlete's routes hug their home
    // neighbourhood's elevation band, so a single athlete can't cover
    // the metro-wide signature the attack classifies on.
    for (metro, n_per_athlete) in [(CityId::WashingtonDc, 3), (CityId::Miami, 3)] {
        let dir = root.join(metro.abbrev());
        std::fs::create_dir_all(&dir).unwrap();
        let mut i = 0;
        for athlete in [99u64, 100, 101, 102, 103] {
            let mut sim = AthleteSimulator::new(SyntheticTerrain::new(7), athlete);
            for _ in 0..n_per_athlete {
                let act = sim.generate_one(metro);
                std::fs::write(dir.join(format!("{i}.gpx")), act.gpx.to_xml()).unwrap();
                i += 1;
            }
        }
    }
}

fn load_tree(root: &std::path::Path) -> Dataset {
    let mut dirs: Vec<_> = std::fs::read_dir(root)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    let names: Vec<String> = dirs
        .iter()
        .map(|d| d.file_name().unwrap().to_str().unwrap().to_owned())
        .collect();
    let mut ds = Dataset::new(names);
    let mut ing = StreamingIngest::default();
    for (label, dir) in dirs.iter().enumerate() {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        files.sort();
        for f in files {
            let (_, profile) = ing.ingest_bytes(&std::fs::read(&f).unwrap());
            let elevation = profile.expect("generated tracks are accepted");
            ds.push(Sample { elevation, label: label as u32, path: None }).unwrap();
        }
    }
    ds
}

#[test]
fn gpx_tree_on_disk_trains_a_working_attacker() {
    let root =
        std::env::temp_dir().join(format!("elev-privacy-test-{}", std::process::id()));
    write_corpus(&root);
    let ds = load_tree(&root);
    assert_eq!(ds.n_classes(), 2);
    assert_eq!(ds.len(), 30);

    let cfg = TextAttackConfig { mlp_epochs: 30, ..Default::default() };
    let mut attacker = TextAttacker::fit(&ds, Discretizer::Floor, TextModel::Mlp, &cfg);

    // Fresh activities from a *different* athlete in the same metros:
    // classification must come from the metro elevation signature.
    let mut other = AthleteSimulator::new(SyntheticTerrain::new(7), 12345);
    let mut correct = 0;
    for i in 0..8 {
        let metro = [CityId::WashingtonDc, CityId::Miami][i % 2];
        let act = other.generate_one(metro);
        if attacker.predict_name(&act.elevation_profile()) == metro.abbrev() {
            correct += 1;
        }
    }
    assert!(correct >= 6, "located {correct}/8 foreign activities");
    std::fs::remove_dir_all(&root).ok();
}
