//! Standard workload preparation shared by the experiment binaries.
//!
//! Every figure needs the same ingredients: a trained MicroResNet, a
//! held-out test set, and (per crossbar design point) a trained GENIEx
//! surrogate. Budgets here are the "full experiment" settings; tests
//! use smaller ones inline.
//!
//! All expensive intermediates route through the content-addressed
//! artifact store (`results/store/`, see `crates/store` and DESIGN.md
//! §10): truth datasets, trained surrogates, trained vision models,
//! and solver sweep blobs are keyed by their full producing config, so
//! a warm rerun of any binary skips the circuit solves and training
//! epochs entirely. `GENIEX_STORE=off|read|readwrite` controls the
//! behavior; every path is deterministic, so a cached artifact is
//! bit-identical to a recomputed one.

use funcsim::{harvest_stimuli, ArchConfig};
use geniex::dataset::{generate, label_stimuli, merge, DatasetConfig, SurrogateDataset};
use geniex::{Geniex, TrainConfig};
use nn::Tensor;
use std::sync::OnceLock;
use std::time::Instant;
use store::{Key, KeyBuilder, Store};
use vision::{train_model, MicroResNet, NetworkSpec, SynthSpec, SynthVision, TrainOptions};
use xbar::nf::NfSummary;
use xbar::sweep::{current_pairs, nf_distribution, CurrentPairs, SweepPoint};
use xbar::{CrossbarParams, XbarError};

/// Training images per class for the standard workloads.
pub const TRAIN_PER_CLASS: usize = 80;
/// Held-out test images per class (128 images for synth-s: accuracy
/// resolution of ±0.8%).
pub const TEST_PER_CLASS: usize = 16;
/// Seed for the training split.
pub const TRAIN_SEED: u64 = 1;
/// Seed for the held-out split (disjoint stream from training).
pub const TEST_SEED: u64 = 999;
/// Weight-init seed of the standard vision model.
pub const MODEL_SEED: u64 = 2;
/// Weight-init seed of the standard surrogates.
pub const SURROGATE_INIT_SEED: u64 = 3;
/// RNG seed of the random stratified surrogate training sets.
pub const SURROGATE_DATA_SEED: u64 = 7;

/// The process-wide artifact store, rooted at `results/store/` with
/// the mode taken from `GENIEX_STORE` at first use.
pub fn store() -> &'static Store {
    static STORE: OnceLock<Store> = OnceLock::new();
    STORE.get_or_init(|| Store::open(results_dir().join("store")))
}

/// A ready-to-measure workload: trained model + test set.
pub struct Workload {
    /// The trained FP32 reference model.
    pub model: MicroResNet,
    /// Held-out evaluation set.
    pub test: SynthVision,
    /// FP32 test accuracy of the trained model.
    pub fp32_accuracy: f64,
}

/// Trains the standard MicroResNet workload for a dataset variant.
/// Deterministic: every binary that calls this gets the same model
/// (whether freshly trained or loaded from the artifact store).
///
/// # Panics
///
/// Panics if dataset generation or training fails (experiment setup
/// is infallible by construction; a failure is a bug).
pub fn standard_workload(spec: SynthSpec) -> Workload {
    let start = Instant::now();
    let train =
        SynthVision::generate(spec, TRAIN_PER_CLASS, TRAIN_SEED).expect("training set generation");
    let test = SynthVision::generate(spec, TEST_PER_CLASS, TEST_SEED).expect("test set generation");

    let options = TrainOptions {
        epochs: match spec {
            SynthSpec::SynthS => 25,
            SynthSpec::SynthL => 30,
        },
        batch_size: 32,
        learning_rate: 2e-3,
        seed: 5,
    };
    let mut key = KeyBuilder::new(store::KIND_VISION_MODEL);
    key.nested("spec", &spec)
        .usize("train_per_class", TRAIN_PER_CLASS)
        .u64("train_seed", TRAIN_SEED)
        .u64("model_seed", MODEL_SEED)
        .nested("options", &options);
    let key = key.finish();

    let cached = store()
        .load(&key)
        .and_then(|bytes| MicroResNet::load(&mut std::io::Cursor::new(bytes)).ok());
    let mut model = match cached {
        Some(model) => {
            eprintln!("[setup] loaded cached {} model ({key})", spec.name());
            model
        }
        None => {
            let mut model = MicroResNet::new(spec, MODEL_SEED);
            train_model(&mut model, &train, &options).expect("model training");
            let mut bytes = Vec::new();
            model.save(&mut bytes).expect("model serializes");
            let _ = store().save(&key, &bytes);
            eprintln!(
                "[setup] {} model trained in {:.1?} (stored as {key})",
                spec.name(),
                start.elapsed()
            );
            model
        }
    };
    let fp32_accuracy = vision::evaluate(&mut model, &test, 64).expect("evaluation");
    eprintln!(
        "[setup] {} fp32 test accuracy {:.2}%",
        spec.name(),
        100.0 * fp32_accuracy
    );
    Workload {
        model,
        test,
        fp32_accuracy,
    }
}

/// Loads a truth dataset from the artifact store, or generates it on
/// the circuit simulator and caches it. Keyed by the design point and
/// the full generation config, so any parameter or seed change misses.
///
/// # Panics
///
/// Panics if generation fails (deterministic setup).
pub fn cached_dataset(params: &CrossbarParams, config: &DatasetConfig) -> SurrogateDataset {
    let mut kb = KeyBuilder::new(store::KIND_DATASET);
    kb.str("producer", "generate")
        .nested("params", params)
        .nested("config", config);
    let key = kb.finish();
    if let Some(data) = load_dataset(&key, params) {
        eprintln!("[setup] loaded cached truth dataset ({key})");
        return data;
    }
    let data = generate(params, config).expect("truth dataset generation");
    save_dataset(&key, &data);
    data
}

/// Labels harvested `(V, G)` stimuli on the circuit simulator, or
/// loads the previously labelled set. Keyed by the design point plus
/// the stimulus content, so a different workload, slicing config, or
/// harvest seed produces a different key.
///
/// # Panics
///
/// Panics if labelling fails (deterministic setup).
pub fn cached_labelled_stimuli(
    params: &CrossbarParams,
    stimuli: &[(&[f32], &[f32])],
) -> SurrogateDataset {
    let mut kb = KeyBuilder::new(store::KIND_DATASET);
    kb.str("producer", "label_stimuli").nested("params", params);
    kb.usize("n", stimuli.len());
    for (v, g) in stimuli {
        kb.f32_slice("v", v).f32_slice("g", g);
    }
    let key = kb.finish();
    if let Some(data) = load_dataset(&key, params) {
        eprintln!("[setup] loaded cached labelled stimuli ({key})");
        return data;
    }
    let data = label_stimuli(params, stimuli.iter().copied()).expect("stimulus labelling");
    save_dataset(&key, &data);
    data
}

fn load_dataset(key: &Key, params: &CrossbarParams) -> Option<SurrogateDataset> {
    let bytes = store().load(key)?;
    SurrogateDataset::load(&mut bytes.as_slice(), params).ok()
}

fn save_dataset(key: &Key, data: &SurrogateDataset) {
    let mut bytes = Vec::new();
    if data.save(&mut bytes).is_ok() {
        let _ = store().save(key, &bytes);
    }
}

fn load_surrogate(key: &Key, params: &CrossbarParams) -> Option<Geniex> {
    let bytes = store().load(key)?;
    Geniex::load(&mut std::io::Cursor::new(bytes), params).ok()
}

fn save_surrogate(key: &Key, surrogate: &Geniex) {
    let mut bytes = Vec::new();
    if surrogate.save(&mut bytes).is_ok() {
        let _ = store().save(key, &bytes);
    }
}

/// Budget for surrogate training at one design point.
#[derive(Debug, Clone, Copy)]
pub struct SurrogateBudget {
    /// Circuit-simulated (V, G) samples.
    pub samples: usize,
    /// Hidden-layer width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
}

impl Default for SurrogateBudget {
    fn default() -> Self {
        SurrogateBudget {
            samples: 4000,
            hidden: 256,
            epochs: 150,
        }
    }
}

fn random_dataset_config(samples: usize) -> DatasetConfig {
    DatasetConfig {
        samples,
        seed: SURROGATE_DATA_SEED,
        ..DatasetConfig::default()
    }
}

fn surrogate_train_config(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 32,
        learning_rate: 1e-3,
        seed: 4,
        ..TrainConfig::default()
    }
}

/// Generates a dataset on the circuit simulator and trains a GENIEx
/// surrogate for one crossbar design point. The surrogate is keyed by
/// its complete producing config (design point, dataset config,
/// width, seeds, training hyperparams), so a warm run loads it without
/// touching the dataset at all.
///
/// # Panics
///
/// Panics if generation or training fails (deterministic setup).
pub fn train_surrogate(params: &CrossbarParams, budget: &SurrogateBudget) -> Geniex {
    let data_config = random_dataset_config(budget.samples);
    let train_config = surrogate_train_config(budget.epochs);
    let mut kb = KeyBuilder::new(store::KIND_SURROGATE);
    kb.str("flavor", "rand")
        .nested("params", params)
        .nested("dataset", &data_config)
        .usize("hidden", budget.hidden)
        .u64("init_seed", SURROGATE_INIT_SEED)
        .nested("train", &train_config);
    let key = kb.finish();
    if let Some(surrogate) = load_surrogate(&key, params) {
        eprintln!("[setup] loaded cached surrogate ({key})");
        return surrogate;
    }

    let start = Instant::now();
    let data = cached_dataset(params, &data_config);
    let mut surrogate =
        Geniex::new(params, budget.hidden, SURROGATE_INIT_SEED).expect("surrogate construction");
    let report = surrogate
        .train(&data, &train_config)
        .expect("surrogate training");
    eprintln!(
        "[setup] surrogate for {}x{} Ron={}k V={} trained in {:.1?} (loss {:.5})",
        params.rows,
        params.cols,
        params.r_on / 1e3,
        params.v_supply,
        start.elapsed(),
        report.final_loss
    );
    save_surrogate(&key, &surrogate);
    surrogate
}

/// Trains a surrogate the way the paper does (Section 6): the training
/// vectors are collected from the *workload itself* — the functional
/// simulator's bit-sliced tile patterns for this design point — mixed
/// with random stratified samples for broader coverage, all labelled
/// on the circuit simulator.
///
/// Stimulus harvesting is a cheap funcsim forward pass and always
/// runs; the surrogate key hashes the harvested stimulus *content*, so
/// it captures the workload's weights, the slicing config, and the
/// harvest seed without naming them. On a key hit the labelling solves
/// and training epochs are skipped entirely.
///
/// # Panics
///
/// Panics if any stage fails (deterministic setup).
pub fn train_surrogate_for_workload(
    params: &CrossbarParams,
    budget: &SurrogateBudget,
    spec: &NetworkSpec,
    arch: &ArchConfig,
    sample_images: &Tensor,
) -> Geniex {
    let harvested = harvest_stimuli(spec.clone(), arch, sample_images, budget.samples / 2, 11)
        .expect("stimulus harvesting");
    let random_config = random_dataset_config(budget.samples - budget.samples / 2);
    let train_config = surrogate_train_config(budget.epochs);

    let mut kb = KeyBuilder::new(store::KIND_SURROGATE);
    kb.str("flavor", "workload").nested("params", params);
    kb.usize("n_stimuli", harvested.len());
    for s in &harvested {
        kb.f32_slice("v", &s.v_levels).f32_slice("g", &s.g_levels);
    }
    kb.nested("random", &random_config)
        .usize("hidden", budget.hidden)
        .u64("init_seed", SURROGATE_INIT_SEED)
        .nested("train", &train_config);
    let key = kb.finish();
    if let Some(surrogate) = load_surrogate(&key, params) {
        eprintln!("[setup] loaded cached workload surrogate ({key})");
        return surrogate;
    }

    let start = Instant::now();
    let pairs: Vec<(&[f32], &[f32])> = harvested
        .iter()
        .map(|s| (s.v_levels.as_slice(), s.g_levels.as_slice()))
        .collect();
    let workload_set = cached_labelled_stimuli(params, &pairs);
    let random_set = cached_dataset(params, &random_config);
    let data = merge(vec![workload_set, random_set]).expect("same design point");

    let mut surrogate =
        Geniex::new(params, budget.hidden, SURROGATE_INIT_SEED).expect("surrogate construction");
    let report = surrogate
        .train(&data, &train_config)
        .expect("surrogate training");
    eprintln!(
        "[setup] workload surrogate for {}x{} Ron={}k V={} trained in {:.1?} (loss {:.5})",
        params.rows,
        params.cols,
        params.r_on / 1e3,
        params.v_supply,
        start.elapsed(),
        report.final_loss
    );
    save_surrogate(&key, &surrogate);
    surrogate
}

/// Trains (or loads) a surrogate on an explicit, already materialized
/// dataset — the ablation binaries sweep hyperparameters over one
/// dataset. Keyed by the dataset *content* plus the hyperparameters,
/// so every swept variant caches independently.
///
/// # Panics
///
/// Panics if training fails (deterministic setup).
pub fn cached_surrogate(
    data: &SurrogateDataset,
    hidden: usize,
    init_seed: u64,
    train_config: &TrainConfig,
) -> Geniex {
    let mut kb = KeyBuilder::new(store::KIND_SURROGATE);
    kb.str("flavor", "explicit")
        .nested("dataset", data)
        .usize("hidden", hidden)
        .u64("init_seed", init_seed)
        .nested("train", train_config);
    let key = kb.finish();
    if let Some(surrogate) = load_surrogate(&key, &data.params) {
        eprintln!("[setup] loaded cached surrogate ({key})");
        return surrogate;
    }
    let mut surrogate =
        Geniex::new(&data.params, hidden, init_seed).expect("surrogate construction");
    surrogate
        .train(data, train_config)
        .expect("surrogate training");
    save_surrogate(&key, &surrogate);
    surrogate
}

/// Loads a cached `f64` blob or computes and caches it. The generic
/// escape hatch for solver-derived buffers that aren't full datasets
/// (sweep samples, paired currents, label vectors). The caller owns
/// the key; payloads are raw little-endian `f64`s, bit-exact across
/// runs.
///
/// # Errors
///
/// Propagates `compute` failures.
pub fn cached_f64_blob<E>(
    key: &Key,
    compute: impl FnOnce() -> Result<Vec<f64>, E>,
) -> Result<Vec<f64>, E> {
    if let Some(values) = load_f64_blob(key) {
        eprintln!("[setup] loaded cached blob ({key})");
        return Ok(values);
    }
    let values = compute()?;
    save_f64_blob(key, &values);
    Ok(values)
}

fn load_f64_blob(key: &Key) -> Option<Vec<f64>> {
    let bytes = store().load(key)?;
    if bytes.len() % 8 != 0 {
        return None;
    }
    Some(
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect(),
    )
}

fn save_f64_blob(key: &Key, values: &[f64]) {
    let mut bytes = Vec::with_capacity(values.len() * 8);
    for v in values {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    let _ = store().save(key, &bytes);
}

/// Store-backed [`nf_distribution`]: the NF sample stream is cached;
/// the summary is recomputed from it (deterministic).
///
/// # Errors
///
/// Propagates solver failures.
pub fn cached_nf_distribution(
    params: &CrossbarParams,
    n_stimuli: usize,
    seed: u64,
    label: &str,
) -> Result<SweepPoint, XbarError> {
    let mut kb = KeyBuilder::new(store::KIND_SWEEP);
    kb.str("op", "nf_distribution")
        .nested("params", params)
        .usize("n_stimuli", n_stimuli)
        .u64("seed", seed);
    let key = kb.finish();
    if let Some(samples) = load_f64_blob(&key) {
        if let Some(summary) = NfSummary::from_samples(&samples) {
            eprintln!("[setup] loaded cached NF sweep ({key})");
            return Ok(SweepPoint {
                label: label.to_string(),
                summary,
                samples,
            });
        }
    }
    let point = nf_distribution(params, n_stimuli, seed, label)?;
    save_f64_blob(&key, &point.samples);
    Ok(point)
}

/// Store-backed [`current_pairs`]: ideal and non-ideal currents cached
/// as one blob (equal halves).
///
/// # Errors
///
/// Propagates solver failures.
pub fn cached_current_pairs(
    params: &CrossbarParams,
    n_stimuli: usize,
    seed: u64,
) -> Result<CurrentPairs, XbarError> {
    let mut kb = KeyBuilder::new(store::KIND_SWEEP);
    kb.str("op", "current_pairs")
        .nested("params", params)
        .usize("n_stimuli", n_stimuli)
        .u64("seed", seed);
    let key = kb.finish();
    if let Some(flat) = load_f64_blob(&key) {
        if flat.len() % 2 == 0 {
            let (ideal, non_ideal) = flat.split_at(flat.len() / 2);
            eprintln!("[setup] loaded cached current pairs ({key})");
            return Ok(CurrentPairs {
                ideal: ideal.to_vec(),
                non_ideal: non_ideal.to_vec(),
            });
        }
    }
    let pairs = current_pairs(params, n_stimuli, seed)?;
    let mut flat = pairs.ideal.clone();
    flat.extend_from_slice(&pairs.non_ideal);
    save_f64_blob(&key, &flat);
    Ok(pairs)
}

/// The standard crossbar design points used across the figures. The
/// paper sweeps {16, 32, 64}; this reproduction scales to {8, 16, 32}
/// so every experiment (including ground-truth circuit validation)
/// stays in laptop territory — the *trends* across the sweep are the
/// reproduction target (DESIGN.md §1).
pub const SIZES: [usize; 3] = [8, 16, 32];
/// Default crossbar size for single-design-point figures (paper: 64).
pub const DEFAULT_SIZE: usize = 16;
/// ON-resistance sweep (ohms), as in the paper.
pub const RONS: [f64; 3] = [50e3, 100e3, 300e3];
/// ON/OFF conductance ratio sweep, as in the paper.
pub const ON_OFFS: [f64; 3] = [2.0, 6.0, 10.0];

/// Builds the paper-default design point at a given crossbar size
/// (Ron 100 kΩ, ON/OFF 6, Rsource 500 Ω, Rsink 100 Ω).
///
/// # Panics
///
/// Panics on invalid parameters (fixed constants here).
pub fn design_point(size: usize) -> CrossbarParams {
    CrossbarParams::builder(size, size)
        .build()
        .expect("valid design point")
}

/// The nominal design point for the accuracy experiments (Figs. 7–9):
/// Ron 50 kΩ, ON/OFF 2, and the harsher of the paper's listed
/// source/sink values (Rsource 1000 Ω, Rsink 500 Ω).
///
/// At our scaled-down crossbar sizes the paper-default point is too
/// benign to show accuracy movement (the paper's own 16×16 bar shows
/// ≤1%); this point reproduces paper-scale degradation (~20-25% at
/// 16×16) so the model comparisons have signal to resolve.
///
/// # Panics
///
/// Panics on invalid parameters (fixed constants here).
pub fn accuracy_design_point(size: usize) -> CrossbarParams {
    CrossbarParams::builder(size, size)
        .r_on(50e3)
        .on_off_ratio(2.0)
        .r_source(1000.0)
        .r_sink(500.0)
        .build()
        .expect("valid design point")
}

/// Results directory used by all experiment binaries.
pub fn results_dir() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_point_matches_defaults() {
        let p = design_point(16);
        assert_eq!(p.rows, 16);
        assert_eq!(p.r_on, 100e3);
    }

    #[test]
    fn results_dir_is_under_repo_root() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }

    #[test]
    fn budgets_are_sane() {
        let b = SurrogateBudget::default();
        assert!(b.samples >= 1000);
        assert!(b.hidden >= 50);
    }

    #[test]
    fn store_roots_under_results() {
        assert!(store().root().ends_with("results/store"));
    }

    #[test]
    fn f64_blob_round_trips_through_temp_store() {
        // Use a private store so the test never touches results/store.
        let root = std::env::temp_dir().join(format!("bench-blob-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let s = Store::with_mode(&root, store::Mode::ReadWrite);
        let mut kb = KeyBuilder::new(store::KIND_SWEEP);
        kb.str("op", "test").u64("seed", 1);
        let key = kb.finish();
        assert!(s.load(&key).is_none());
        let values = [1.5f64, -2.25, 0.0, f64::MIN_POSITIVE];
        let mut bytes = Vec::new();
        for v in &values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        s.save(&key, &bytes).unwrap();
        let back = s.load(&key).unwrap();
        let decoded: Vec<f64> = back
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(decoded, values);
        std::fs::remove_dir_all(&root).ok();
    }
}
