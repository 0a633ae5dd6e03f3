//! An in-process copy of the served workload, programmed through the
//! timing wrapper so the traced run can attribute engine time to tiles
//! and DNN layers.
//!
//! `serve::workload::build` keeps its seeds and training budgets
//! private, so this module repeats them. The traced run replays the
//! served requests through the copy and fails when any answer is not
//! bit-identical to the shipped binary's, so a drift between the two
//! surfaces as an error instead of a wrong attribution.

use std::sync::Arc;
use std::time::Instant;

use funcsim::{
    ArchConfig, CrossbarNetwork, FxpFormat, GeniexEngine, IdealEngine, ProgrammedMatrix,
};
use geniex::dataset::{generate, DatasetConfig};
use geniex::{Geniex, TrainConfig};
use nn::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{EngineKind, ModelKind, ServeConfig};
use vision::{train_model, MicroResNet, NetworkSpec, SpecOp, SynthSpec, SynthVision, TrainOptions};
use xbar::CrossbarParams;

use crate::trace::{Recorder, TimedEngine};

// The values `serve::workload` uses.
const SURROGATE_INIT_SEED: u64 = 3;
const SURROGATE_DATA_SEED: u64 = 7;
const MODEL_SEED: u64 = 2;
const TRAIN_SEED: u64 = 1;

/// Set-up stage times of one build, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub dataset_s: f64,
    pub surrogate_train_s: f64,
    pub vision_train_s: f64,
    pub program_s: f64,
}

/// The copied workload.
pub struct Replica {
    pub matrix: ProgrammedMatrix,
    pub network: Option<CrossbarNetwork>,
    pub surrogate: Geniex,
    /// `(layer label, tiles)` in programming order.
    pub layers: Vec<(String, u32)>,
    pub times: SetupTimes,
}

/// Builds the copy. Matrix tiles report to `matrix_rec`, network tiles
/// to `network_rec`.
pub fn build(
    cfg: &ServeConfig,
    matrix_rec: Arc<Recorder>,
    network_rec: Arc<Recorder>,
) -> Result<Replica, String> {
    if cfg.engine != EngineKind::Geniex || cfg.drift_active() {
        return Err("the traced copy covers the default GENIEx engine without drift".into());
    }
    let params = CrossbarParams::builder(cfg.xbar, cfg.xbar)
        .build()
        .map_err(|e| e.to_string())?;
    let arch = ArchConfig::default().with_xbar(params.clone());
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let data_config = DatasetConfig {
        samples: cfg.surrogate_samples,
        seed: SURROGATE_DATA_SEED,
        ..DatasetConfig::default()
    };
    let data = generate(&params, &data_config).map_err(|e| format!("dataset: {e}"))?;
    times.dataset_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut surrogate = Geniex::new(&params, cfg.surrogate_hidden, SURROGATE_INIT_SEED)
        .map_err(|e| e.to_string())?;
    surrogate
        .train(
            &data,
            &TrainConfig {
                epochs: cfg.surrogate_epochs,
                batch_size: 32,
                learning_rate: 1e-3,
                seed: 4,
                ..TrainConfig::default()
            },
        )
        .map_err(|e| format!("surrogate training: {e}"))?;
    times.surrogate_train_s = t.elapsed().as_secs_f64();

    let model = match cfg.model {
        ModelKind::None => None,
        ModelKind::SynthS => {
            let t = Instant::now();
            let train = SynthVision::generate(SynthSpec::SynthS, cfg.train_per_class, TRAIN_SEED)
                .map_err(|e| e.to_string())?;
            let mut model = MicroResNet::new(SynthSpec::SynthS, MODEL_SEED);
            train_model(
                &mut model,
                &train,
                &TrainOptions {
                    epochs: cfg.train_epochs,
                    batch_size: 32,
                    learning_rate: 2e-3,
                    seed: 5,
                },
            )
            .map_err(|e| format!("model training: {e}"))?;
            times.vision_train_s = t.elapsed().as_secs_f64();
            Some(model)
        }
    };

    let t = Instant::now();
    let (weight, bias) = service_matrix(cfg);
    let matrix_engine = TimedEngine::new(GeniexEngine::new(surrogate.clone()), matrix_rec);
    let matrix =
        ProgrammedMatrix::program_labeled(&matrix_engine, &arch, &weight, &bias, Some("serve_mvm"))
            .map_err(|e| format!("service matrix: {e}"))?;
    let (network, layers) = match model {
        None => (None, Vec::new()),
        Some(model) => {
            let spec = model.to_spec();
            let layers = layer_tiles(&spec, &arch)?;
            let engine = TimedEngine::new(GeniexEngine::new(surrogate.clone()), network_rec);
            let net = CrossbarNetwork::build(spec, &arch, &engine)
                .map_err(|e| format!("network: {e}"))?;
            let programmed: u32 = layers.iter().map(|(_, t)| t).sum();
            if programmed != engine.tiles() {
                return Err(format!(
                    "layer tiles {programmed} != programmed tiles {}",
                    engine.tiles()
                ));
            }
            (Some(net), layers)
        }
    };
    times.program_s = t.elapsed().as_secs_f64();

    Ok(Replica {
        matrix,
        network,
        surrogate,
        layers,
        times,
    })
}

/// The `[m, k]` service matrix and `[m]` bias `serve::workload`
/// derives from `cfg.seed`.
fn service_matrix(cfg: &ServeConfig) -> (Tensor, Tensor) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let weight: Vec<f32> = (0..cfg.m * cfg.k)
        .map(|_| rng.gen_range(-0.9..0.9) as f32)
        .collect();
    let bias: Vec<f32> = (0..cfg.m)
        .map(|_| rng.gen_range(-0.25..0.25) as f32)
        .collect();
    (
        Tensor::from_vec(weight, &[cfg.m, cfg.k]).expect("weight shape"),
        Tensor::from_vec(bias, &[cfg.m]).expect("bias shape"),
    )
}

/// Label and tile count of every crossbar layer of `spec`, in the
/// order `CrossbarNetwork::build` programs them. Labels match the
/// crates' `funcsim.layer.<label>.mvms` counters.
pub fn layer_tiles(spec: &NetworkSpec, arch: &ArchConfig) -> Result<Vec<(String, u32)>, String> {
    let mut out = Vec::new();
    for (i, op) in spec.ops.iter().enumerate() {
        let (label, weight, bias) = match op {
            SpecOp::Conv2d { weight, bias, .. } => {
                let s = weight.shape();
                let w = weight
                    .reshape(&[s[0], s[1] * s[2] * s[3]])
                    .map_err(|e| e.to_string())?;
                (format!("conv{i}"), w, bias)
            }
            SpecOp::Linear { weight, bias } => (format!("linear{i}"), weight.clone(), bias),
            _ => continue,
        };
        let pm = ProgrammedMatrix::program(&IdealEngine, arch, &weight, bias)
            .map_err(|e| e.to_string())?;
        out.push((label, pm.tile_count() as u32));
    }
    Ok(out)
}

/// The input format `Mvm` codes use on the served architecture.
pub fn input_format() -> FxpFormat {
    ArchConfig::default().input_format
}
