//! Determinism smoke test: exercises every parallelized hot path and
//! prints compact bit-level digests of the results to stdout.
//!
//! CI runs this binary under `GENIEX_THREADS=1`, `2`, and `8` and
//! diffs the stdout: the digests hash the exact IEEE-754 bit patterns
//! of the outputs, so any thread-count-dependent reordering of
//! floating-point reductions shows up as a failed diff. Progress and
//! configuration noise goes to stderr.

use funcsim::{
    harvest_stimuli, AnalyticalEngine, ArchConfig, CrossbarEngine, CrossbarNetwork, GeniexEngine,
    IdealEngine,
};
use geniex::dataset::{generate, DatasetConfig};
use geniex::{Geniex, TrainConfig};
use geniex_bench::setup::accuracy_design_point;
use vision::{rescale_for_fxp, train_model, MicroResNet, SynthSpec, SynthVision, TrainOptions};
use xbar::sweep::{current_pairs, nf_distribution};

/// FNV-1a over a stream of u64 words: stable, dependency-free digest.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
    fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn push_f64s(&mut self, xs: &[f64]) {
        for &x in xs {
            self.push(x.to_bits());
        }
    }
    fn push_f32s(&mut self, xs: &[f32]) {
        for &x in xs {
            self.push(u64::from(x.to_bits()));
        }
    }
    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn main() {
    eprintln!(
        "[smoke] GENIEX_THREADS={:?} -> {} worker(s)",
        std::env::var("GENIEX_THREADS").ok(),
        parallel::default_threads()
    );
    let run = geniex_bench::manifest::start("determinism_smoke", &[]);
    let params = accuracy_design_point(8);

    // 1. Circuit sweep: NF distribution (xbar::sweep parallel solves).
    let nf = nf_distribution(&params, 24, 2, "smoke").expect("nf distribution");
    let mut d = Digest::new();
    d.push_f64s(&nf.samples);
    println!("nf_distribution n={} digest={}", nf.samples.len(), d.hex());

    // 2. Circuit sweep: paired currents.
    let pairs = current_pairs(&params, 16, 3).expect("current pairs");
    let mut d = Digest::new();
    d.push_f64s(&pairs.ideal);
    d.push_f64s(&pairs.non_ideal);
    println!("current_pairs n={} digest={}", pairs.ideal.len(), d.hex());

    // 3. Surrogate dataset generation (core::dataset parallel solves).
    let data = generate(
        &params,
        &DatasetConfig {
            samples: 48,
            seed: 7,
            ..DatasetConfig::default()
        },
    )
    .expect("dataset generation");
    let mut d = Digest::new();
    for s in &data.samples {
        d.push_f32s(&s.v_levels);
        d.push_f32s(&s.g_levels);
        d.push_f32s(&s.f_r);
    }
    println!("dataset n={} digest={}", data.samples.len(), d.hex());

    // 4. Surrogate training (nn parallel matmul + batched backprop).
    let mut surrogate = Geniex::new(&params, 24, 3).expect("surrogate construction");
    let report = surrogate
        .train(
            &data,
            &TrainConfig {
                epochs: 4,
                batch_size: 8,
                learning_rate: 1e-3,
                seed: 4,
                ..TrainConfig::default()
            },
        )
        .expect("surrogate training");
    let first = &data.samples[0];
    let pred = surrogate
        .predict_f_r(&first.v_levels, &first.g_levels)
        .expect("surrogate prediction");
    let mut d = Digest::new();
    d.push((report.final_loss as f64).to_bits());
    d.push_f32s(&pred);
    println!(
        "surrogate loss_bits={:016x} digest={}",
        (report.final_loss as f64).to_bits(),
        d.hex()
    );

    // 5. CNN training (Conv2d per-sample parallel forward/backward).
    let train = SynthVision::generate(SynthSpec::SynthS, 2, 1).expect("train set");
    let mut model = MicroResNet::new(SynthSpec::SynthS, 2);
    train_model(
        &mut model,
        &train,
        &TrainOptions {
            epochs: 1,
            batch_size: 4,
            learning_rate: 2e-3,
            seed: 5,
        },
    )
    .expect("cnn training");
    let acc = vision::evaluate(&mut model, &train, 4).expect("cnn evaluation");
    println!("cnn train_acc_bits={:016x}", acc.to_bits());

    // 6. Functional simulation (tile fan-out + bit-slice accumulation).
    //    The logits' bits are hashed, not just the accuracies: a barely
    //    trained CNN scores chance on every engine, so an accuracy alone
    //    cannot show a logit change.
    let calib = SynthVision::generate(SynthSpec::SynthS, 1, 1).expect("calib set");
    let (calib_x, _) = calib.full_batch().expect("calib batch");
    let spec = rescale_for_fxp(&model.to_spec(), &calib_x, 3.5).expect("fxp rescale");
    let arch = ArchConfig::default().with_xbar(params.clone());
    let subset = SynthVision::generate(SynthSpec::SynthS, 1, 999).expect("eval subset");
    let (images, labels) = subset.full_batch().expect("eval batch");
    let geniex_engine = GeniexEngine::new(surrogate);
    let engines: [(&str, &dyn CrossbarEngine); 3] = [
        ("ideal_accuracy", &IdealEngine),
        ("analytical_accuracy", &AnalyticalEngine),
        ("geniex_accuracy", &geniex_engine),
    ];
    let mut accuracies = Vec::new();
    for (key, engine) in engines {
        let net = CrossbarNetwork::build(spec.clone(), &arch, engine).expect("network programming");
        let logits = net.forward(&images).expect("crossbar inference");
        let acc = nn::loss::accuracy(&logits, &labels).expect("accuracy");
        let mut d = Digest::new();
        d.push_f32s(logits.data());
        println!(
            "funcsim {} acc_bits={:016x} logits={}",
            engine.name(),
            acc.to_bits(),
            d.hex()
        );
        accuracies.push((key, telemetry::Json::from(acc)));
    }

    // 7. Stimulus harvest (a sample over tiles the pool interleaves).
    let stimuli = harvest_stimuli(spec, &arch, &images, 64, 11).expect("stimulus harvest");
    let mut d = Digest::new();
    for s in &stimuli {
        d.push_f32s(&s.v_levels);
        d.push_f32s(&s.g_levels);
    }
    println!("harvest n={} digest={}", stimuli.len(), d.hex());

    geniex_bench::manifest::finish(run, &accuracies);
}
