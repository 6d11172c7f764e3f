//! Pins the JSON of a fitted `TextPipeline`, the text-side metadata
//! every `.elevmdl` record carries: pipelines fitted on fixed corpora
//! must serialize to the same bytes (checked by length and FNV-1a-64),
//! and a pipeline written by an earlier build must still load,
//! featurize bit for bit as it did then, and serialize back unchanged.
//! Together they keep existing registries loading.

use textrep::{Discretizer, FeatureSelection, TextPipeline};

/// Deterministic random-walk elevation signals (an LCG, so the corpus
/// depends on nothing outside this file).
fn corpus(signals: usize, len: usize, step: f64, seed: u64) -> Vec<Vec<f64>> {
    let mut state = seed;
    (0..signals)
        .map(|_| {
            let mut e = 120.0;
            (0..len)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    e += ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * step;
                    e
                })
                .collect()
        })
        .collect()
}

/// FNV-1a-64 of every stored index and value bit of each probe's
/// sparse row.
fn transform_digest(p: &TextPipeline, probes: &[Vec<f64>]) -> u64 {
    let mut bytes = Vec::new();
    for probe in probes {
        let row = p.transform_sparse(probe);
        bytes.extend((row.dim() as u64).to_le_bytes());
        for (&i, &v) in row.indices().iter().zip(row.values()) {
            bytes.extend(i.to_le_bytes());
            bytes.extend(v.to_bits().to_le_bytes());
        }
    }
    durable::fnv1a64(&bytes)
}

fn json(p: &TextPipeline) -> String {
    serde_json::to_string(p).expect("pipelines serialize")
}

#[test]
fn fitted_pipeline_json_is_pinned() {
    let settings = [
        // The scale and serve setting, with two-letter words.
        (
            "floor-n4-standard",
            Discretizer::Floor,
            4,
            FeatureSelection::standard(),
            corpus(40, 120, 6.0, 1),
        ),
        // Three-letter words (more than 676 values), every gram kept.
        (
            "mined-n8-keep-all",
            Discretizer::mined(),
            8,
            FeatureSelection::keep_all(),
            corpus(12, 80, 4.0, 2),
        ),
        // A cap that cuts through a run of equal term frequencies.
        (
            "floor-n3-cap",
            Discretizer::Floor,
            3,
            FeatureSelection { tf_threshold: 1, max_features: Some(7) },
            corpus(3, 30, 9.0, 3),
        ),
        // One-letter words and a threshold above most counts.
        (
            "floor-n2-tf3",
            Discretizer::Floor,
            2,
            FeatureSelection { tf_threshold: 3, max_features: None },
            corpus(6, 50, 2.0, 4),
        ),
    ];
    // (setting, word size, JSON length, JSON FNV-1a-64, probe rows' FNV-1a-64)
    let want: [(&str, usize, usize, u64, u64); 4] = [
        ("floor-n4-standard", 2, 18607, 0x141011853d39a401, 0xe69dff3e04cb791f),
        ("mined-n8-keep-all", 3, 91996, 0x437609a2348a8ffe, 0xbbca0582a57f15a5),
        ("floor-n3-cap", 2, 517, 0x28a3d65a6f22651e, 0x430b537298a8341c),
        ("floor-n2-tf3", 1, 798, 0xbd6f0bcbb277c1e5, 0xb34ef4a2244aa73c),
    ];
    let probes = corpus(4, 200, 12.0, 99);
    let got: Vec<(&str, usize, usize, u64, u64)> = settings
        .iter()
        .map(|(name, d, n, sel, signals)| {
            let p = TextPipeline::fit(*d, *n, *sel, signals);
            let text = json(&p);
            let fnv = durable::fnv1a64(text.as_bytes());
            (*name, p.codebook().word_size(), text.len(), fnv, transform_digest(&p, &probes))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(n, w, len, fnv, t)| format!("(\"{n}\", {w}, {len}, {fnv:#018x}, {t:#018x}),\n"))
        .collect();
    assert_eq!(got, want, "pipeline JSON or features moved; observed:\n{table}");
}

/// A pipeline as an earlier build wrote it: `Floor`, n = 2, every gram
/// kept, fitted on `[[10, 12, 15, 12, 10, 15], [15, 18, 18, 15]]`.
const WRITTEN: &str = concat!(
    r#"{"codebook":{"word_size":1,"words":[[10,"a"],[12,"b"],[15,"c"],[18,"d"]]},"#,
    r#""discretizer":"Floor","vectorizer":{"features":["a","ab","ac","b","c","cb","cd","d","dc"],"#,
    r#""index":[["a",0],["ab",1],["ac",2],["b",3],["c",4],["cb",5],["cd",6],["d",7],["dc",8]],"#,
    r#""max_n":2,"word_size":1}}"#,
);

/// FNV-1a-64 of that build's sparse rows for the probes below.
const WRITTEN_TRANSFORM: u64 = 0x85eb211386f82fb3;

fn written_probes() -> Vec<Vec<f64>> {
    vec![
        // Fitted values only.
        vec![10.0, 12.0, 15.0, 12.0, 10.9, 15.5],
        // Below, above and between the fitted values, with
        // equal-distance ties (11 and 16.5 between 15 and 18 are not;
        // 11 between 10 and 12 is, and the lower value wins).
        vec![3.0, 40.0, 11.0, 16.5, 17.2, 13.9, 11.0, 11.4, 18.0, 2.0],
        // Empty and one-point signals.
        vec![],
        vec![13.7],
    ]
}

#[test]
fn pipeline_written_by_an_earlier_build_loads_and_round_trips() {
    let signals = vec![vec![10.0, 12.0, 15.0, 12.0, 10.0, 15.0], vec![15.0, 18.0, 18.0, 15.0]];
    let fresh = TextPipeline::fit(Discretizer::Floor, 2, FeatureSelection::keep_all(), &signals);
    let loaded: TextPipeline = serde_json::from_str(WRITTEN).expect("earlier JSON loads");
    assert_eq!(json(&loaded), WRITTEN, "the loaded pipeline serializes differently");
    assert_eq!(json(&fresh), WRITTEN, "a fresh fit serializes differently");
    assert_eq!(transform_digest(&loaded, &written_probes()), WRITTEN_TRANSFORM);
    for probe in written_probes() {
        let (a, b) = (loaded.transform_sparse(&probe), fresh.transform_sparse(&probe));
        assert_eq!(a.indices(), b.indices());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.values()), bits(b.values()));
    }
}
