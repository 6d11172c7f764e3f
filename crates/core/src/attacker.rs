//! Train-once / predict-many attacker facades.
//!
//! [`TextAttacker`] and [`ImageAttacker`] are what a downstream user of
//! this library touches: fit on a labelled dataset, then aim at
//! arbitrary elevation profiles.

use crate::image::{train_cnn, ImageAttackConfig, ImageMethod};
use crate::text::{FittedTextModel, TextAttackConfig, TextModel};
use datasets::Dataset;
use imgrep::render;
use neuralnet::Sequential;
use sparsemat::CsrMatrix;
use tensorlite::Tensor;
use textrep::{Discretizer, TextPipeline};

/// A fitted text-side attacker (BoW features + SVM/RFC/MLP).
///
/// # Examples
///
/// ```no_run
/// use elev_core::attacker::TextAttacker;
/// use elev_core::text::{TextAttackConfig, TextModel};
/// use textrep::Discretizer;
///
/// let history = datasets::user_specific::build(1);
/// let mut attacker = TextAttacker::fit(
///     &history, Discretizer::Floor, TextModel::Svm, &TextAttackConfig::default());
/// let region = attacker.predict_name(&[20.0, 21.5, 22.0, 21.0]);
/// println!("the target trained in {region}");
/// ```
pub struct TextAttacker {
    pipeline: TextPipeline,
    model: FittedTextModel,
    label_names: Vec<String>,
}

impl std::fmt::Debug for TextAttacker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TextAttacker({} classes)", self.label_names.len())
    }
}

impl TextAttacker {
    /// Fits preprocessing and classifier on the whole dataset.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or single-class.
    pub fn fit(
        ds: &Dataset,
        discretizer: Discretizer,
        model: TextModel,
        cfg: &TextAttackConfig,
    ) -> Self {
        assert!(ds.n_classes() >= 2, "need at least two classes");
        assert!(!ds.is_empty(), "cannot fit on an empty dataset");
        let signals: Vec<Vec<f64>> =
            ds.samples().iter().map(|s| s.elevation.clone()).collect();
        let pipeline = TextPipeline::fit(discretizer, cfg.ngram, cfg.selection, &signals);
        let features = pipeline.transform_all_csr(&signals);
        let labels = ds.labels();
        let fitted = FittedTextModel::fit(model, &features, &labels, cfg, cfg.seed);
        Self { pipeline, model: fitted, label_names: ds.label_names().to_vec() }
    }

    /// Class names, indexed by predicted label.
    pub fn label_names(&self) -> &[String] {
        &self.label_names
    }

    /// Predicts the class index of one elevation profile.
    pub fn predict(&mut self, profile: &[f64]) -> u32 {
        let row = self.pipeline.transform_sparse(profile);
        self.model.predict(&CsrMatrix::from_rows([&row]))[0]
    }

    /// Predicts the class *name* of one elevation profile.
    pub fn predict_name(&mut self, profile: &[f64]) -> &str {
        let label = self.predict(profile);
        &self.label_names[label as usize]
    }

    /// Serializes the whole attacker (preprocessing + trained model) to
    /// JSON, so an adversary trains once and reuses the model.
    pub fn to_json(&mut self) -> String {
        let model = match &mut self.model {
            FittedTextModel::Svm(m) => SavedModel::Svm(m.clone()),
            FittedTextModel::Rfc(m) => SavedModel::Rfc(m.clone()),
            FittedTextModel::Mlp(net) => {
                let input_dim = self.pipeline.n_features();
                let arch = neuralnet::ArchSpec::Mlp {
                    input_dim,
                    hidden: 100,
                    n_classes: self.label_names.len().max(2),
                };
                SavedModel::Mlp(neuralnet::NetSnapshot::capture(arch, net))
            }
        };
        let saved = SavedAttacker {
            pipeline: self.pipeline.clone(),
            model,
            label_names: self.label_names.clone(),
        };
        serde_json::to_string(&saved).expect("attackers always serialize")
    }

    /// Restores an attacker from [`TextAttacker::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns the serde error message for malformed input, which
    /// includes a model that contradicts itself (see each model's
    /// `Deserialize`), and rejects an MLP whose tensors do not fit its
    /// architecture, a model whose feature width is not the pipeline's,
    /// or one that predicts more classes than there are label names.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let saved: SavedAttacker = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let (width, n_classes) = match &saved.model {
            SavedModel::Svm(m) => (m.dim(), m.n_classes()),
            SavedModel::Rfc(m) => (m.dim(), m.n_classes()),
            SavedModel::Mlp(snap) => match snap.arch {
                neuralnet::ArchSpec::Mlp { input_dim, n_classes, .. } => (input_dim, n_classes),
                arch => return Err(format!("a text attacker cannot run {arch:?}")),
            },
        };
        let n_features = saved.pipeline.n_features();
        if width != n_features {
            return Err(format!(
                "the model takes {width} features, its pipeline makes {n_features}"
            ));
        }
        if n_classes > saved.label_names.len() {
            return Err(format!(
                "the model predicts {n_classes} classes, {} are named",
                saved.label_names.len()
            ));
        }
        let model = match saved.model {
            SavedModel::Svm(m) => FittedTextModel::Svm(m),
            SavedModel::Rfc(m) => FittedTextModel::Rfc(m),
            SavedModel::Mlp(snap) => FittedTextModel::Mlp(snap.restore()?),
        };
        Ok(Self { pipeline: saved.pipeline, model, label_names: saved.label_names })
    }
}

/// Serialized form of a [`TextAttacker`].
#[derive(serde::Serialize, serde::Deserialize)]
struct SavedAttacker {
    pipeline: TextPipeline,
    model: SavedModel,
    label_names: Vec<String>,
}

#[derive(serde::Serialize, serde::Deserialize)]
enum SavedModel {
    Svm(classicml::SvmClassifier),
    Rfc(classicml::RandomForest),
    Mlp(neuralnet::NetSnapshot),
}

/// A fitted image-side attacker (line-graph rendering + the Fig. 7 CNN).
pub struct ImageAttacker {
    net: Sequential,
    cfg: ImageAttackConfig,
    label_names: Vec<String>,
}

impl std::fmt::Debug for ImageAttacker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ImageAttacker({} classes)", self.label_names.len())
    }
}

impl ImageAttacker {
    /// Fits the CNN on the whole dataset with the given imbalance
    /// remedy.
    ///
    /// # Panics
    ///
    /// Panics if the dataset is empty or single-class.
    pub fn fit(ds: &Dataset, method: ImageMethod, cfg: &ImageAttackConfig) -> Self {
        assert!(ds.n_classes() >= 2, "need at least two classes");
        assert!(!ds.is_empty(), "cannot fit on an empty dataset");
        let x = crate::image::render_dataset(ds, &cfg.image);
        let labels = ds.labels();
        let net = train_cnn(&x, &labels, ds.n_classes(), method, cfg);
        Self { net, cfg: cfg.clone(), label_names: ds.label_names().to_vec() }
    }

    /// Class names, indexed by predicted label.
    pub fn label_names(&self) -> &[String] {
        &self.label_names
    }

    /// Predicts the class index of one elevation profile.
    pub fn predict(&mut self, profile: &[f64]) -> u32 {
        let img = render(profile, &self.cfg.image);
        let x = Tensor::from_vec(
            img.pixels,
            &[1, 3, self.cfg.image.height, self.cfg.image.width],
        );
        self.net.predict(&x)[0]
    }

    /// Predicts the class *name* of one elevation profile.
    pub fn predict_name(&mut self, profile: &[f64]) -> &str {
        let label = self.predict(profile);
        &self.label_names[label as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::Sample;

    fn toy_dataset() -> Dataset {
        let mut ds = Dataset::new(vec!["low".into(), "high".into()]);
        for i in 0..25 {
            let phase = i as f64 * 0.41;
            let low: Vec<f64> =
                (0..80).map(|t| 4.0 + ((t as f64) * 0.2 + phase).sin() * 1.5).collect();
            let high: Vec<f64> =
                (0..80).map(|t| 900.0 + ((t as f64) * 0.3 + phase).cos() * 60.0).collect();
            ds.push(Sample { elevation: low, label: 0, path: None }).unwrap();
            ds.push(Sample { elevation: high, label: 1, path: None }).unwrap();
        }
        ds
    }

    #[test]
    fn text_attacker_end_to_end() {
        let ds = toy_dataset();
        let cfg = TextAttackConfig { ngram: 4, svm_epochs: 10, ..Default::default() };
        let mut attacker = TextAttacker::fit(&ds, Discretizer::Floor, TextModel::Svm, &cfg);
        let low_probe: Vec<f64> = (0..80).map(|t| 4.5 + ((t as f64) * 0.2).sin()).collect();
        let high_probe: Vec<f64> = (0..80).map(|t| 920.0 + ((t as f64) * 0.3).cos() * 50.0).collect();
        assert_eq!(attacker.predict_name(&low_probe), "low");
        assert_eq!(attacker.predict_name(&high_probe), "high");
    }

    #[test]
    fn image_attacker_end_to_end() {
        let ds = toy_dataset();
        let cfg = ImageAttackConfig { epochs: 4, ..Default::default() };
        let mut attacker = ImageAttacker::fit(&ds, ImageMethod::WeightedLoss, &cfg);
        let low_probe: Vec<f64> = (0..200).map(|t| 4.5 + ((t as f64) * 0.1).sin()).collect();
        let high_probe: Vec<f64> =
            (0..200).map(|t| 920.0 + ((t as f64) * 0.2).cos() * 55.0).collect();
        assert_eq!(attacker.predict_name(&low_probe), "low");
        assert_eq!(attacker.predict_name(&high_probe), "high");
    }

    #[test]
    fn text_attacker_json_roundtrip() {
        let ds = toy_dataset();
        for model in [TextModel::Svm, TextModel::Rfc, TextModel::Mlp] {
            let cfg = TextAttackConfig {
                ngram: 4,
                svm_epochs: 10,
                rfc_trees: 10,
                mlp_epochs: 20,
                ..Default::default()
            };
            let mut attacker = TextAttacker::fit(&ds, Discretizer::Floor, model, &cfg);
            let json = attacker.to_json();
            let mut restored = TextAttacker::from_json(&json).unwrap();
            for probe in [
                (0..80).map(|t| 4.2 + ((t as f64) * 0.2).sin()).collect::<Vec<f64>>(),
                (0..80).map(|t| 930.0 + ((t as f64) * 0.3).cos() * 40.0).collect(),
            ] {
                assert_eq!(attacker.predict(&probe), restored.predict(&probe));
            }
        }
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(TextAttacker::from_json("{oops").is_err());
    }

    /// The member `key` of a JSON object.
    fn member<'v>(v: &'v mut serde::Value, key: &str) -> &'v mut serde::Value {
        match v {
            serde::Value::Object(m) => m.get_mut(key).expect("member present"),
            other => panic!("{other:?} is not an object"),
        }
    }

    /// The elements of a JSON array.
    fn elements(v: &mut serde::Value) -> &mut Vec<serde::Value> {
        match v {
            serde::Value::Array(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    /// Adds `by` to a JSON integer.
    fn bump(v: &mut serde::Value, by: i64) {
        match v {
            serde::Value::Int(n) => *n += by,
            other => panic!("{other:?} is not an integer"),
        }
    }

    #[test]
    fn from_json_rejects_models_that_contradict_themselves_or_their_pipeline() {
        let cfg = TextAttackConfig {
            ngram: 4,
            svm_epochs: 2,
            rfc_trees: 3,
            mlp_epochs: 2,
            ..Default::default()
        };
        let saved: Vec<serde::Value> = [TextModel::Svm, TextModel::Rfc, TextModel::Mlp]
            .into_iter()
            .map(|model| {
                let json =
                    TextAttacker::fit(&toy_dataset(), Discretizer::Floor, model, &cfg).to_json();
                serde_json::from_str(&json).unwrap()
            })
            .collect();
        // Loads saved attacker `which` with `edit` applied to its model.
        let rejects = |which: usize, what: &str, edit: &dyn Fn(&mut serde::Value)| {
            let mut v = saved[which].clone();
            // `{"Svm": [model]}`: a one-field tuple variant.
            let serde::Value::Object(variant) = member(&mut v, "model") else {
                panic!("the model is an enum")
            };
            edit(&mut elements(variant.values_mut().next().expect("one variant"))[0]);
            match TextAttacker::from_json(&serde_json::to_string(&v).unwrap()) {
                Ok(_) => panic!("loaded a model that should fail with {what:?}"),
                Err(e) => assert!(e.contains(what), "{e}"),
            }
        };
        // An SVM plane one weight short.
        rejects(0, "weights wide", &|m| {
            elements(member(&mut elements(member(m, "planes"))[1], "w")).pop();
        });
        // An SVM one feature narrower than its pipeline.
        rejects(0, "its pipeline makes", &|m| {
            bump(member(m, "dim"), -1);
            for plane in elements(member(m, "planes")) {
                elements(member(plane, "w")).pop();
            }
        });
        // A forest split on a feature past the tree's width.
        rejects(1, "feature 999999", &|m| {
            let root = member(&mut elements(member(m, "trees"))[0], "root");
            *member(member(root, "Split"), "feature") = serde::Value::Int(999_999);
        });
        // A forest leaf past the class count.
        rejects(1, "leaf of class 1", &|m| bump(member(m, "n_classes"), -1));
        // A forest one feature wider than its pipeline.
        rejects(1, "its pipeline makes", &|m| {
            for tree in elements(member(m, "trees")) {
                bump(member(tree, "dim"), 1);
            }
        });
        // An MLP declared one hidden unit wider than its tensors.
        rejects(2, "do not fit", &|m| bump(member(member(member(m, "arch"), "Mlp"), "hidden"), 1));
        // An MLP tensor one value short of its shape.
        rejects(2, "values for shape", &|m| {
            let bias = elements(member(m, "params")).last_mut().unwrap();
            elements(member(bias, "data")).pop();
        });
        // Fewer label names than the model has classes.
        for mut v in saved {
            elements(member(&mut v, "label_names")).pop();
            let err = TextAttacker::from_json(&serde_json::to_string(&v).unwrap()).unwrap_err();
            assert!(err.contains("2 classes, 1 are named"), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "two classes")]
    fn text_attacker_rejects_single_class() {
        let mut ds = Dataset::new(vec!["only".into()]);
        ds.push(Sample { elevation: vec![1.0], label: 0, path: None }).unwrap();
        TextAttacker::fit(&ds, Discretizer::Floor, TextModel::Svm, &Default::default());
    }
}
