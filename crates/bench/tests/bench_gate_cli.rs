//! `bench_gate`'s exit-code contract, which CI's must-trip self-tests
//! rely on: an injected regression exits 1, and an injection the gate
//! cannot apply exits 2, so a renamed metric or a broken spec can never
//! pass for a tripped gate.

use std::process::Command;

use geniex_bench::gate::{read_gate, LEGS};

/// Runs the built `bench_gate` with `args`; returns its exit code and
/// its output for failure messages.
fn bench_gate(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_gate"))
        .args(args)
        .env("GENIEX_GATE_TOLERANCE", "0.35")
        .output()
        .expect("bench_gate runs");
    let text = String::from_utf8_lossy(&out.stdout) + String::from_utf8_lossy(&out.stderr);
    (out.status.code(), text.into_owned())
}

#[test]
fn injected_regression_exits_1_on_every_leg() {
    for leg in &LEGS {
        let baseline = read_gate(&leg.baseline_path()).expect("committed baseline");
        let current = read_gate(&leg.current_path()).expect("committed summary");
        let metric = current
            .keys()
            .find(|m| baseline.contains_key(*m))
            .expect("a metric gated on both sides");
        let spec = format!("{}:{metric}:1000", leg.name);
        let (code, text) = bench_gate(&["--inject-regression", &spec]);
        assert_eq!(code, Some(1), "{spec}:\n{text}");
    }
}

#[test]
fn unusable_injection_or_argument_exits_2() {
    for spec in [
        "kernels:matmul/65:3.0",
        "serve:batched_speedupX:3.0",
        "nope:matmul/64:3.0",
        "kernels",
        "kernels:",
        "kernels:matmul/64:fast",
        "kernels:matmul/64:0",
        "kernels:matmul/64:3.0:1",
    ] {
        let (code, text) = bench_gate(&["--inject-regression", spec]);
        assert_eq!(code, Some(2), "{spec}:\n{text}");
    }
    for args in [&["--inject-regression"][..], &["--serve"], &["results"]] {
        let (code, text) = bench_gate(args);
        assert_eq!(code, Some(2), "{args:?}:\n{text}");
    }
}
