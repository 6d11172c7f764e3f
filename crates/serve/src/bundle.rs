//! The served model bundle: TM-1 and TM-3 task models plus the pure
//! request → report function.
//!
//! A bundle holds, per task, the fitted text pipeline and the paper's
//! three text-side classifiers (SVM, random forest, MLP). The same
//! [`ModelBundle::report_json`] runs on the server's hot path and in
//! the offline pipeline — "served report == offline report" is an
//! identity of code, then pinned byte-for-byte by the conformance
//! suite rather than trusted.
//!
//! Classification after featurization is allocation-free: model scores
//! land in a per-worker [`InferenceArena`] (see [`crate::arena`]).
//! Each request featurizes its profile through the task's own
//! [`TextPipeline`], with no cache and no process-global state, so a
//! long-running server's heap does not grow with the uploads it sees.

use crate::arena::InferenceArena;
use crate::registry::{GenerationLoad, ModelPayload, ModelRecord};
use classicml::{ForestConfig, RandomForest, SvmClassifier, SvmConfig};
use datasets::Dataset;
use elev_core::experiments::{Corpora, ExperimentScale};
use elev_core::report::{IngestSummary, LeakageReport, ModelVote, TaskReport};
use exec::mix_seed;
use neuralnet::{models, train_sparse, FlatMlp, TrainConfig};
use sparsemat::SparseVec;
use std::collections::BTreeMap;
use textrep::{Discretizer, FeatureSelection, TextPipeline};

/// Model version stamped on every record.
const BUNDLE_VERSION: u32 = 1;
/// Character n-gram order of the BoW featurizer.
const BUNDLE_NGRAM: usize = 4;
/// MLP learning rate.
const BUNDLE_MLP_LR: f32 = 3e-3;

/// Per-model training sizes for a bundle. Everything else about the
/// recipe is fixed: the corpus scale (`bundle_scale`), the record
/// version, the n-gram order, the SVM's regularization
/// ([`SvmConfig`]'s default) and the MLP's learning rate.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleConfig {
    /// SVM Pegasos epochs.
    pub svm_epochs: usize,
    /// Forest size.
    pub rfc_trees: usize,
    /// MLP hidden width.
    pub mlp_hidden: usize,
    /// MLP epochs.
    pub mlp_epochs: usize,
}

impl BundleConfig {
    /// The bootstrap recipe: conformance-sized corpora, models large
    /// enough to separate the regimes, training in seconds.
    pub fn quick() -> Self {
        Self { svm_epochs: 20, rfc_trees: 25, mlp_hidden: 32, mlp_epochs: 10 }
    }

    /// The test-harness recipe: same corpora, minimal models — the
    /// fastest bundle that still exercises every classify code path.
    pub fn tiny() -> Self {
        Self { svm_epochs: 8, rfc_trees: 10, mlp_hidden: 16, mlp_epochs: 4 }
    }
}

/// The corpus scale bundles train at — the conformance registry's
/// scale (small enough for seconds-long bootstrap, large enough that
/// every class keeps multiple samples).
fn bundle_scale() -> ExperimentScale {
    ExperimentScale {
        dataset_fraction: 0.04,
        folds: 3,
        cnn_epochs: 2,
        mlp_epochs: 10,
        min_per_class: 9,
    }
}

/// The three classifiers' predicted class indices for one profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskVotes {
    /// SVM argmax.
    pub svm: u32,
    /// Forest majority vote.
    pub rfc: u32,
    /// MLP argmax.
    pub mlp: u32,
}

/// One task's fitted pipeline + classifiers.
pub struct TaskModels {
    /// Task name (`tm1`, `tm3`).
    pub task: String,
    /// Class-index → label-name mapping.
    pub labels: Vec<String>,
    pipeline: TextPipeline,
    svm: SvmClassifier,
    rfc: RandomForest,
    mlp: FlatMlp,
}

/// First strictly-greater maximum — the argmax rule every classifier
/// in the workspace uses (ties go to the lower class index).
fn argmax_first<T: PartialOrd>(scores: &[T]) -> u32 {
    let mut best = 0usize;
    for i in 1..scores.len() {
        if scores[i] > scores[best] {
            best = i;
        }
    }
    best as u32
}

impl TaskModels {
    fn fit(task: &str, ds: &Dataset, discretizer: Discretizer, cfg: &BundleConfig, seed: u64) -> Self {
        let signals: Vec<Vec<f64>> =
            ds.samples().iter().map(|s| s.elevation.clone()).collect();
        let pipeline =
            TextPipeline::fit(discretizer, BUNDLE_NGRAM, FeatureSelection::standard(), &signals);
        let x = pipeline.transform_all_csr(&signals);
        let y = ds.labels();
        let n_classes = ds.n_classes().max(2);

        let svm = SvmClassifier::fit_sparse(
            &x,
            &y,
            &SvmConfig { epochs: cfg.svm_epochs, ..SvmConfig::default() },
            mix_seed(seed, 1),
        );
        let rfc = RandomForest::fit(
            &x.to_dense_rows(),
            &y,
            &ForestConfig { n_trees: cfg.rfc_trees, ..Default::default() },
            mix_seed(seed, 2),
        );
        let mut net =
            models::mlp(x.n_cols(), cfg.mlp_hidden, n_classes, mix_seed(seed, 3));
        train_sparse(
            &mut net,
            &x,
            &y,
            &TrainConfig {
                epochs: cfg.mlp_epochs,
                lr: BUNDLE_MLP_LR,
                seed: mix_seed(seed, 3),
                ..Default::default()
            },
        );
        let mlp = FlatMlp::capture(&mut net, x.n_cols(), cfg.mlp_hidden, n_classes);

        Self {
            task: task.to_owned(),
            labels: ds.label_names().to_vec(),
            pipeline,
            svm,
            rfc,
            mlp,
        }
    }

    /// Feature width of the task's pipeline.
    pub fn n_features(&self) -> usize {
        self.pipeline.n_features()
    }

    /// The sparse BoW row for a profile, featurized through the task's
    /// pipeline.
    pub fn bow(&self, signal: &[f64]) -> SparseVec {
        self.pipeline.transform_sparse(signal)
    }

    /// Classifies one featurized profile — **the zero-alloc hot path**:
    /// every model scores into the arena's reused buffers and no heap
    /// allocation occurs once the arena is warm.
    pub fn classify_bow(&self, bow: &SparseVec, arena: &mut InferenceArena) -> TaskVotes {
        self.svm.decision_function_sparse_into(bow, &mut arena.scores);
        let svm = argmax_first(&arena.scores);

        let nf = self.n_features();
        arena.ensure_dense(nf);
        for (i, v) in bow.iter() {
            arena.dense[i] = v;
        }
        self.rfc.votes_into(&arena.dense[..nf], &mut arena.votes);
        for (i, _) in bow.iter() {
            arena.dense[i] = 0.0;
        }
        let rfc = argmax_first(&arena.votes);

        let mlp = self.mlp.predict_sparse(bow, &mut arena.scratch);
        TaskVotes { svm, rfc, mlp }
    }

    /// Full task report for a profile (featurize → classify → name the
    /// labels). Label naming allocates; the classify step does not.
    pub fn report(&self, signal: &[f64], arena: &mut InferenceArena) -> TaskReport {
        let bow = self.bow(signal);
        let votes = self.classify_bow(&bow, arena);
        let name = |idx: u32| -> String {
            self.labels
                .get(idx as usize)
                .cloned()
                .unwrap_or_else(|| format!("class-{idx}"))
        };
        TaskReport::from_votes(
            self.task.clone(),
            vec![
                ModelVote { model: "svm", label: name(votes.svm) },
                ModelVote { model: "rfc", label: name(votes.rfc) },
                ModelVote { model: "mlp", label: name(votes.mlp) },
            ],
        )
    }

    fn to_records(&self, version: u32) -> Vec<ModelRecord> {
        let record = |suffix: &str, payload: ModelPayload| ModelRecord {
            name: format!("{}-{suffix}", self.task),
            version,
            task: self.task.clone(),
            labels: self.labels.clone(),
            pipeline: Some(self.pipeline.clone()),
            payload,
        };
        vec![
            record("svm", ModelPayload::Svm(self.svm.clone())),
            record("rfc", ModelPayload::Forest(self.rfc.clone())),
            record("mlp", ModelPayload::Mlp(self.mlp.clone())),
        ]
    }
}

/// The full served bundle: every task's models, in task order.
pub struct ModelBundle {
    /// Bundle version (max record version when loaded from disk).
    pub version: u32,
    /// Registry generation the bundle was loaded from (0 when trained
    /// or rebuilt from loose records).
    pub generation: u64,
    tasks: Vec<TaskModels>,
}

impl ModelBundle {
    /// Trains a fresh bundle from `seed`: TM-1 on the user corpus with
    /// the floor discretizer, TM-3 on the city corpus with the mined
    /// codebook — the paper's table-4/table-5 settings at bootstrap
    /// scale. Pure in `(seed, cfg)`.
    pub fn train(seed: u64, cfg: &BundleConfig) -> Self {
        let corpora = Corpora::generate(seed, &bundle_scale());
        let tasks = vec![
            TaskModels::fit("tm1", &corpora.user, Discretizer::Floor, cfg, mix_seed(seed, 11)),
            TaskModels::fit("tm3", &corpora.city, Discretizer::mined(), cfg, mix_seed(seed, 12)),
        ];
        Self { version: BUNDLE_VERSION, generation: 0, tasks }
    }

    /// The bundle's tasks, in report order.
    pub fn tasks(&self) -> &[TaskModels] {
        &self.tasks
    }

    /// Looks a task up by name.
    pub fn task(&self, name: &str) -> Option<&TaskModels> {
        self.tasks.iter().find(|t| t.task == name)
    }

    /// Serializes every model into registry records.
    pub fn to_records(&self) -> Vec<ModelRecord> {
        self.tasks.iter().flat_map(|t| t.to_records(self.version)).collect()
    }

    /// Rebuilds a bundle from registry records (CNN records are stored
    /// and validated by the registry but not served; they are skipped
    /// here).
    ///
    /// # Errors
    ///
    /// Rejects record sets with a missing classifier, a missing
    /// pipeline, inconsistent label sets within a task, or a classifier
    /// whose feature width is not its task pipeline's.
    pub fn from_records(records: Vec<ModelRecord>) -> Result<Self, String> {
        struct Partial {
            labels: Vec<String>,
            pipeline: Option<TextPipeline>,
            svm: Option<SvmClassifier>,
            rfc: Option<RandomForest>,
            mlp: Option<FlatMlp>,
        }
        let mut by_task: BTreeMap<String, Partial> = BTreeMap::new();
        let mut version = 0u32;
        for record in records {
            version = version.max(record.version);
            if matches!(record.payload, ModelPayload::Cnn { .. }) {
                continue;
            }
            let entry = by_task.entry(record.task.clone()).or_insert(Partial {
                labels: record.labels.clone(),
                pipeline: None,
                svm: None,
                rfc: None,
                mlp: None,
            });
            if entry.labels != record.labels {
                return Err(format!("task {}: records disagree on labels", record.task));
            }
            if entry.pipeline.is_none() {
                entry.pipeline = record.pipeline;
            }
            match record.payload {
                ModelPayload::Svm(m) => entry.svm = Some(m),
                ModelPayload::Forest(m) => entry.rfc = Some(m),
                ModelPayload::Mlp(m) => entry.mlp = Some(m),
                ModelPayload::Cnn { .. } => unreachable!("filtered above"),
            }
        }
        if by_task.is_empty() {
            return Err("no servable records".to_owned());
        }
        let mut tasks = Vec::with_capacity(by_task.len());
        for (task, partial) in by_task {
            let pipeline = partial
                .pipeline
                .ok_or_else(|| format!("task {task}: no record carries the pipeline"))?;
            let svm = partial.svm.ok_or_else(|| format!("task {task}: missing svm"))?;
            let rfc = partial.rfc.ok_or_else(|| format!("task {task}: missing rfc"))?;
            let mlp = partial.mlp.ok_or_else(|| format!("task {task}: missing mlp"))?;
            let n_features = pipeline.n_features();
            let widths = [("svm", svm.dim()), ("rfc", rfc.dim()), ("mlp", mlp.input_dim())];
            for (kind, width) in widths {
                if width != n_features {
                    return Err(format!(
                        "task {task}: the {kind} takes {width} features, the pipeline makes {n_features}"
                    ));
                }
            }
            tasks.push(TaskModels { task, labels: partial.labels, pipeline, svm, rfc, mlp });
        }
        Ok(Self { version, generation: 0, tasks })
    }

    /// [`from_records`](Self::from_records) over a registry load,
    /// keeping the number of the generation it came from.
    pub fn from_generation(load: GenerationLoad) -> Result<Self, String> {
        Ok(Self { generation: load.generation, ..Self::from_records(load.records)? })
    }

    /// Pre-grows an arena so even the first request on a worker stays
    /// allocation-free in the classify path.
    pub fn warm(&self, arena: &mut InferenceArena) {
        for t in &self.tasks {
            let classes = t.labels.len().max(2);
            if arena.scores.capacity() < classes {
                arena.scores.reserve(classes - arena.scores.len());
            }
            if arena.votes.capacity() < classes {
                arena.votes.reserve(classes - arena.votes.len());
            }
            arena.ensure_dense(t.n_features());
            arena.scratch.warm(&t.mlp);
        }
    }

    /// The full leakage report for raw uploaded bytes: quarantine
    /// ingestion → featurization → every task's classification.
    ///
    /// Ingestion runs through the arena's
    /// [`elev_core::ingest::StreamingIngest`], which reads the bytes
    /// DOM-free with reused buffers, as every ingestion caller does
    /// (pinned by the conformance suite's golden served reports and
    /// stream-parity fuzz campaign).
    pub fn leakage_report(&self, raw: &[u8], arena: &mut InferenceArena) -> LeakageReport {
        let (disposition, profile) = arena.ingest.ingest_bytes(raw);
        match profile {
            None => LeakageReport {
                ingest: IngestSummary::of(&disposition, 0),
                tasks: Vec::new(),
            },
            Some(signal) => LeakageReport {
                ingest: IngestSummary::of(&disposition, signal.len()),
                tasks: self.tasks.iter().map(|t| t.report(&signal, arena)).collect(),
            },
        }
    }

    /// The serving contract: `(HTTP status, report JSON)` for raw
    /// uploaded bytes. 200 when a profile reached the classifiers,
    /// 422 when ingestion quarantined the track. This exact function
    /// backs both `POST /v1/report` and the offline pipeline.
    pub fn report_json(&self, raw: &[u8], arena: &mut InferenceArena) -> (u16, String) {
        let report = self.leakage_report(raw, arena);
        let status = if report.status() == "ok" { 200 } else { 422 };
        (status, report.to_json())
    }

    /// Deterministic JSON for `GET /v1/models`.
    pub fn models_json(&self) -> String {
        let mut out = format!("{{\"version\": {}, \"models\": [", self.version);
        let entries: Vec<String> = self
            .tasks
            .iter()
            .flat_map(|t| {
                ["svm", "rfc", "mlp"].into_iter().map(move |kind| {
                    format!(
                        "{{\"name\": \"{}-{kind}\", \"task\": \"{}\", \"kind\": \"{kind}\", \"classes\": {}}}",
                        t.task,
                        t.task,
                        t.labels.len()
                    )
                })
            })
            .collect();
        out.push_str(&entries.join(", "));
        out.push_str("]}");
        out
    }
}
