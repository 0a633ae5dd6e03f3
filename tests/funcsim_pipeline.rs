//! Integration tests of the functional simulator spanning crates:
//! mapping-scheme equivalence, cost-model cross-validation against
//! observed operation counts, and non-ideality-zoo behaviour.

use funcsim::cost::{estimate_cost, CostModel};
use funcsim::{
    evaluate_spec, ArchConfig, CrossbarNetwork, IdealEngine, RecordingEngine, StimulusLog,
    WeightMapping, ZooEngine,
};
use vision::{rescale_for_fxp, MicroResNet, SynthSpec, SynthVision};
use xbar::zoo::{NonIdealityStack, StuckAtFaults};
use xbar::CrossbarParams;

fn arch(size: usize) -> ArchConfig {
    ArchConfig {
        adc_bits: 20,
        xbar: CrossbarParams::builder(size, size).build().unwrap(),
        ..ArchConfig::default()
    }
}

fn calibrated_spec() -> (vision::NetworkSpec, nn::Tensor, SynthVision) {
    let model = MicroResNet::new(SynthSpec::SynthS, 3);
    let data = SynthVision::generate(SynthSpec::SynthS, 2, 5).unwrap();
    let (images, _) = data.batch(&[0, 1, 2, 3]).unwrap();
    let spec = rescale_for_fxp(&model.to_spec(), &images, 3.5).unwrap();
    (spec, images, data)
}

#[test]
fn offset_and_differential_mappings_agree_on_ideal_backend() {
    // With ideal arithmetic both weight mappings compute the same
    // fixed-point MVMs, so whole-network logits must agree to within
    // ADC rounding.
    let (spec, images, _) = calibrated_spec();
    let differential = CrossbarNetwork::build(spec.clone(), &arch(16), &IdealEngine).unwrap();
    let offset_arch = ArchConfig {
        weight_mapping: WeightMapping::Offset,
        ..arch(16)
    };
    let offset = CrossbarNetwork::build(spec, &offset_arch, &IdealEngine).unwrap();
    let a = differential.forward(&images).unwrap();
    let b = offset.forward(&images).unwrap();
    let scale = a.max_abs().max(1e-3);
    for (x, y) in a.data().iter().zip(b.data()) {
        assert!(
            (x - y).abs() < 0.02 * scale + 0.01,
            "mappings diverged: {x} vs {y}"
        );
    }
}

#[test]
fn cost_model_bounds_observed_crossbar_reads() {
    // The cost model's read count is an upper bound on the operations
    // the simulator actually performs (the runtime skips all-zero
    // streams); the observed count must land inside a sane fraction of
    // the estimate.
    let (spec, images, _) = calibrated_spec();
    let a = arch(16);
    let estimate = estimate_cost(&spec, &a, &CostModel::default()).unwrap();
    let per_image_estimate = estimate.total_xbar_reads();

    let log = StimulusLog::new(1, 0);
    let engine = RecordingEngine::new(IdealEngine, log.clone());
    let net = CrossbarNetwork::build(spec, &a, &engine).unwrap();
    net.forward(&images).unwrap();
    let batch = images.shape()[0] as u64;
    let observed = log.observed() as u64;

    assert!(
        observed <= per_image_estimate * batch,
        "observed {observed} exceeds estimate {}",
        per_image_estimate * batch
    );
    assert!(
        observed * 5 >= per_image_estimate * batch,
        "observed {observed} implausibly below estimate {}",
        per_image_estimate * batch
    );
}

#[test]
fn variations_degrade_accuracy_monotonically_in_fault_rate() {
    let (spec, _, _) = calibrated_spec();
    // Use a trained-ish workload? Accuracy of an untrained net is
    // meaningless; instead check logit perturbation magnitude grows.
    let test = SynthVision::generate(SynthSpec::SynthS, 1, 7).unwrap();
    let (images, _) = test.batch(&[0, 1]).unwrap();
    let a = arch(16);
    let clean = CrossbarNetwork::build(spec.clone(), &a, &IdealEngine)
        .unwrap()
        .forward(&images)
        .unwrap();
    let mut previous = 0.0f64;
    for stuck in [0.01, 0.05, 0.2] {
        let stack = NonIdealityStack::new(11)
            .with_model(Box::new(StuckAtFaults {
                stuck_off_rate: stuck,
                stuck_on_rate: 0.0,
            }))
            .unwrap();
        let engine = ZooEngine::new(IdealEngine, stack);
        let noisy = CrossbarNetwork::build(spec.clone(), &a, &engine)
            .unwrap()
            .forward(&images)
            .unwrap();
        let rms: f64 = clean
            .data()
            .iter()
            .zip(noisy.data())
            .map(|(&c, &n)| ((c - n) as f64).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(
            rms >= previous * 0.5,
            "fault damage should generally grow: {rms} after {previous}"
        );
        assert!(rms > 0.0, "stuck rate {stuck} changed nothing");
        previous = rms;
    }
}

#[test]
fn evaluate_spec_consistent_with_manual_argmax() {
    let (spec, _, data) = calibrated_spec();
    let a = arch(16);
    let accuracy = evaluate_spec(spec.clone(), &a, &IdealEngine, &data, 8).unwrap();

    let net = CrossbarNetwork::build(spec, &a, &IdealEngine).unwrap();
    let (images, labels) = data.full_batch().unwrap();
    let logits = net.forward(&images).unwrap();
    let classes = net.classes();
    let mut correct = 0usize;
    for (b, &label) in labels.iter().enumerate() {
        let row = &logits.data()[b * classes..(b + 1) * classes];
        let pred = row
            .iter()
            .enumerate()
            .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        if pred == label {
            correct += 1;
        }
    }
    assert!((accuracy - correct as f64 / labels.len() as f64).abs() < 1e-12);
}
