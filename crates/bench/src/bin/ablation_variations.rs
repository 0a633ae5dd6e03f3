//! Ablation: device variations and stuck-at faults on top of the
//! analytical backend.
//!
//! The paper motivates GENIEx partly by noting that non-ideality
//! effects are "exacerbated further due to the device variations"
//! (Section 1). This sweep quantifies that: classification accuracy
//! versus programming spread (lognormal sigma) and stuck-at fault
//! rates.
//!
//! ```text
//! cargo run --release -p geniex-bench --bin ablation_variations
//! ```

use funcsim::{evaluate_spec, AnalyticalEngine, ArchConfig, IdealEngine, ZooEngine};
use geniex_bench::setup::{accuracy_design_point, results_dir, standard_workload, DEFAULT_SIZE};
use geniex_bench::table::{fix, pct, Table};
use vision::{rescale_for_fxp, SynthSpec, SynthVision};
use xbar::zoo::{LognormalSpread, NonIdealityStack, StuckAtFaults};
use xbar::XbarError;

const SEED: u64 = 1234;

/// Lognormal spread `sigma`, then stuck-at faults split evenly
/// between the two rails at total rate `stuck`. Programming-stage
/// models apply in push order, so a stuck cell stays at its rail.
fn variation_stack(sigma: f64, stuck: f64) -> Result<NonIdealityStack, XbarError> {
    NonIdealityStack::new(SEED)
        .with_model(Box::new(LognormalSpread { sigma }))?
        .with_model(Box::new(StuckAtFaults {
            stuck_off_rate: stuck / 2.0,
            stuck_on_rate: stuck / 2.0,
        }))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let run = geniex_bench::manifest::start(
        "ablation_variations",
        &[
            ("size", telemetry::Json::from(DEFAULT_SIZE)),
            ("seed", telemetry::Json::from(SEED)),
        ],
    );
    let workload = standard_workload(SynthSpec::SynthS);
    let calib_data = SynthVision::generate(SynthSpec::SynthS, 8, 1)?;
    let (calib, _) = calib_data.full_batch()?;
    let spec = rescale_for_fxp(&workload.model.to_spec(), &calib, 3.5)?;
    let arch = ArchConfig::default().with_xbar(accuracy_design_point(DEFAULT_SIZE));

    println!("FP32 reference accuracy: {}%", pct(workload.fp32_accuracy));
    let mut table = Table::new(&["sigma", "stuck_rate", "ideal_pct", "analytical_pct"]);

    for (sigma, stuck) in [
        (0.0, 0.0),
        (0.1, 0.0),
        (0.2, 0.0),
        (0.4, 0.0),
        (0.0, 0.01),
        (0.0, 0.05),
        (0.2, 0.01),
    ] {
        let ideal = evaluate_spec(
            spec.clone(),
            &arch,
            &ZooEngine::new(IdealEngine, variation_stack(sigma, stuck)?),
            &workload.test,
            16,
        )?;
        let analytical = evaluate_spec(
            spec.clone(),
            &arch,
            &ZooEngine::new(AnalyticalEngine, variation_stack(sigma, stuck)?),
            &workload.test,
            16,
        )?;
        println!(
            "sigma {sigma:.1} stuck {stuck:.2}: ideal-arith {}%, analytical {}%",
            pct(ideal),
            pct(analytical)
        );
        table.row(&[fix(sigma, 2), fix(stuck, 3), pct(ideal), pct(analytical)]);
    }

    println!("\n{}", table.render());
    table.write_csv(results_dir().join("ablation_variations.csv"))?;
    println!("expected: accuracy degrades with spread and fault rate; IR drop compounds it");
    geniex_bench::manifest::finish(
        run,
        &[(
            "fp32_accuracy",
            telemetry::Json::from(workload.fp32_accuracy),
        )],
    );
    Ok(())
}
