//! Perf-regression gate over every leg in `geniex_bench::gate::LEGS`:
//! the kernel microbenchmarks, the serve load harness and the
//! amortized-solve benchmark.
//!
//! Each leg compares the `gate` object of its current summary
//! (`results/BENCH_<leg>.json`) against its committed baseline
//! (`results/BENCH_<leg>_baseline.json`). Every metric is a
//! machine-relative ratio (e.g. `matmul/64`, `batched_speedup`,
//! `amortized_speedup`), and the tolerance comes from
//! `GENIEX_GATE_TOLERANCE` (default 0.10).
//!
//! Usage:
//!
//! ```text
//! bench_gate [--inject-regression <leg>:<metric>[:factor]]
//! ```
//!
//! A plain run gates every leg and needs every leg's current summary.
//! `--inject-regression` divides one metric of the named leg's current
//! summary by `factor` (default 2) and gates only that leg: the
//! self-test CI uses to prove the gate trips
//! (`--inject-regression solve:amortized_speedup:3.0`).
//!
//! Exit codes: 0 when every gated leg passes, 1 when a metric
//! regressed beyond tolerance, 2 on a usage error, an unknown leg or
//! metric, or a summary that cannot be read or parsed.

use std::process::ExitCode;

use geniex_bench::gate::{self, Leg, LEGS};

const USAGE: &str = "usage: bench_gate [--inject-regression <leg>:<metric>[:factor]]";

fn fail(msg: &str) -> ExitCode {
    eprintln!("bench_gate: {msg}");
    ExitCode::from(2)
}

/// A parsed `--inject-regression` spec.
struct Injection {
    leg: &'static Leg,
    metric: String,
    factor: f64,
}

fn parse_injection(spec: &str) -> Result<Injection, String> {
    let malformed = || format!("malformed injection '{spec}'\n{USAGE}");
    let mut parts = spec.split(':');
    let (Some(leg), Some(metric)) = (parts.next(), parts.next()) else {
        return Err(malformed());
    };
    let factor = match parts.next() {
        Some(f) => f.parse::<f64>().map_err(|_| malformed())?,
        None => 2.0,
    };
    if metric.is_empty() || parts.next().is_some() {
        return Err(malformed());
    }
    let leg = gate::leg(leg).ok_or_else(|| {
        let names: Vec<&str> = LEGS.iter().map(|l| l.name).collect();
        format!("unknown leg '{leg}' (legs: {})", names.join(", "))
    })?;
    Ok(Injection {
        leg,
        metric: metric.to_string(),
        factor,
    })
}

fn parse_args() -> Result<Option<Injection>, String> {
    let mut argv = std::env::args().skip(1);
    let mut inject = None;
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--inject-regression" => {
                let spec = argv
                    .next()
                    .ok_or_else(|| format!("--inject-regression needs a spec\n{USAGE}"))?;
                inject = Some(parse_injection(&spec)?);
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(inject)
}

/// Gates one leg. Returns `Ok(passed)`; read, parse and injection
/// errors are `Err`.
fn run_leg(leg: &Leg, inject: Option<&Injection>, tolerance: f64) -> Result<bool, String> {
    let baseline = gate::read_gate(&leg.baseline_path())?;
    let mut current = gate::read_gate(&leg.current_path())?;
    if let Some(inj) = inject {
        gate::inject_regression(&mut current, &inj.metric, inj.factor)
            .map_err(|e| format!("{} leg: {e}", leg.name))?;
        eprintln!(
            "bench_gate: injected {}x loss into {} '{}' (self-test)",
            inj.factor, leg.name, inj.metric
        );
    }
    let report = gate::compare(&baseline, &current, tolerance);
    print!("{}", gate::render(leg, &report, tolerance));
    Ok(report.passed())
}

fn main() -> ExitCode {
    let inject = match parse_args() {
        Ok(inject) => inject,
        Err(e) => return fail(&e),
    };
    let tolerance = gate::gate_tolerance();
    let legs = inject
        .as_ref()
        .map_or(&LEGS[..], |inj| std::slice::from_ref(inj.leg));
    let mut passed = true;
    for leg in legs {
        match run_leg(leg, inject.as_ref(), tolerance) {
            Ok(ok) => passed &= ok,
            Err(e) => return fail(&e),
        }
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
