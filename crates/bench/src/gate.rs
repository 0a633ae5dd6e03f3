//! Perf-regression gate. Every gated leg is a
//! `results/BENCH_<leg>.json` summary whose `gate` object maps metric
//! name → higher-is-better ratio, compared against the committed
//! `results/BENCH_<leg>_baseline.json`.
//!
//! The legs ([`LEGS`]) are `kernels` (naive/blocked time per kernel
//! shape, from `kernel_bench_summary`), `serve` (batched/single
//! throughput, from `loadgen --compare`) and `solve` (cold/amortized
//! time per solve, from `solve_bench`). Each metric is a **ratio** of
//! two timings taken on one host, so it is machine-relative: a
//! baseline committed from one machine stays meaningful on another,
//! where raw timings would not. A metric regresses when it falls more
//! than the tolerance fraction below its baseline:
//!
//! ```text
//! current < baseline * (1 - tolerance)   →   regression
//! ```
//!
//! The tolerance comes from `GENIEX_GATE_TOLERANCE` (fraction, default
//! 0.10). The gate reads only the `gate` object, so re-baselining a
//! leg is copying its fresh summary over its baseline file. See the
//! `bench_gate` binary for the CLI.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use telemetry::json::{parse, Json};

use crate::setup::results_dir;

/// One gated leg; both of its files are named after it.
pub struct Leg {
    /// The `<leg>` in `results/BENCH_<leg>.json`.
    pub name: &'static str,
    /// Command that regenerates the current summary and re-runs the
    /// gate, printed when the leg fails.
    pub repro: &'static str,
}

impl Leg {
    /// The current summary, written by the leg's benchmark.
    pub fn current_path(&self) -> PathBuf {
        results_dir().join(format!("BENCH_{}.json", self.name))
    }

    /// The committed baseline the current summary is gated against.
    pub fn baseline_path(&self) -> PathBuf {
        results_dir().join(format!("BENCH_{}_baseline.json", self.name))
    }
}

/// Every gated leg, in the order `bench_gate` runs them.
pub static LEGS: [Leg; 3] = [
    Leg {
        name: "kernels",
        repro: "GENIEX_THREADS=1 GENIEX_BENCH_OUT=/tmp/bench_kernels.csv \
                cargo bench -p geniex-bench --bench kernels && \
                GENIEX_THREADS=1 cargo run --release -p geniex-bench --bin kernel_bench_summary \
                /tmp/bench_kernels.csv && \
                cargo run --release -p geniex-bench --bin bench_gate",
    },
    Leg {
        name: "serve",
        repro: "GENIEX_THREADS=1 cargo run --release -p geniex-serve & wait for READY, then \
                GENIEX_THREADS=1 cargo run --release -p geniex-bench --bin loadgen -- \
                --compare --reps 3 --requests 600 --concurrency 96 --batch 64 --linger-us 1000 && \
                cargo run --release -p geniex-bench --bin bench_gate",
    },
    Leg {
        name: "solve",
        repro: "GENIEX_THREADS=1 cargo run --release -p geniex-bench --bin solve_bench && \
                cargo run --release -p geniex-bench --bin bench_gate",
    },
];

/// The gated leg called `name`, if any.
pub fn leg(name: &str) -> Option<&'static Leg> {
    LEGS.iter().find(|leg| leg.name == name)
}

/// A summary's gated metrics: name → higher-is-better ratio.
pub type Metrics = BTreeMap<String, f64>;

/// Parses the `gate` object of a summary or baseline.
///
/// # Errors
///
/// Returns a description of the first malformed construct: invalid
/// JSON, a missing or empty `gate` object, or a metric that is not a
/// finite positive number.
fn parse_gate(text: &str) -> Result<Metrics, String> {
    let root = parse(text)?;
    let Some(Json::Obj(pairs)) = root.get("gate") else {
        return Err("summary has no 'gate' object".to_string());
    };
    let mut metrics = Metrics::new();
    for (name, value) in pairs {
        let v = value
            .as_f64()
            .filter(|v| v.is_finite() && *v > 0.0)
            .ok_or_else(|| format!("metric '{name}': missing or non-positive value"))?;
        metrics.insert(name.clone(), v);
    }
    if metrics.is_empty() {
        return Err("summary 'gate' object is empty".to_string());
    }
    Ok(metrics)
}

/// Reads and parses the `gate` object of the file at `path`.
///
/// # Errors
///
/// Returns a message naming `path` if it cannot be read or parsed.
pub fn read_gate(path: &Path) -> Result<Metrics, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_gate(&text).map_err(|e| format!("bad {}: {e}", path.display()))
}

/// One metric that moved beyond the tolerated band.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    pub metric: String,
    pub baseline: f64,
    pub current: f64,
    /// `current / baseline` — e.g. 0.85 means 15% of the baseline
    /// ratio was lost.
    pub ratio: f64,
}

/// Outcome of comparing a current summary against its baseline.
#[derive(Debug, Clone, Default)]
pub struct GateReport {
    /// Metrics that regressed beyond tolerance (the gate fails when
    /// non-empty).
    pub regressions: Vec<Regression>,
    /// Metrics that *improved* beyond tolerance — candidates for a
    /// re-baseline so the ratchet tightens.
    pub improvements: Vec<Regression>,
    /// Baseline metrics absent from the current summary (warned, not
    /// failed: quick modes may run subsets).
    pub missing: Vec<String>,
    /// Current metrics the baseline doesn't know yet.
    pub new_metrics: Vec<String>,
}

impl GateReport {
    /// Whether the gate passes (no regression beyond tolerance).
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares `current` against `baseline` with a fractional
/// `tolerance` (0.10 = a metric may lose up to 10% of its baseline
/// value before the gate trips). Negative tolerances are treated as 0.
pub fn compare(baseline: &Metrics, current: &Metrics, tolerance: f64) -> GateReport {
    let tolerance = tolerance.max(0.0);
    let mut report = GateReport::default();
    for (name, &base) in baseline {
        let Some(&cur) = current.get(name) else {
            report.missing.push(name.clone());
            continue;
        };
        let entry = Regression {
            metric: name.clone(),
            baseline: base,
            current: cur,
            ratio: cur / base,
        };
        if cur < base * (1.0 - tolerance) {
            report.regressions.push(entry);
        } else if cur > base * (1.0 + tolerance) {
            report.improvements.push(entry);
        }
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            report.new_metrics.push(name.clone());
        }
    }
    // Worst loss first, so the headline line names the biggest
    // offender.
    report
        .regressions
        .sort_by(|a, b| a.ratio.total_cmp(&b.ratio));
    report
        .improvements
        .sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
    report
}

/// The gate tolerance: `GENIEX_GATE_TOLERANCE` as a fraction, default
/// 0.10. Invalid values fall back to the default.
pub fn gate_tolerance() -> f64 {
    std::env::var("GENIEX_GATE_TOLERANCE")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .filter(|t| t.is_finite() && *t >= 0.0)
        .unwrap_or(0.10)
}

/// Divides the named metric by `factor` — the `bench_gate
/// --inject-regression` self-test hook that lets CI verify the gate
/// actually trips.
///
/// # Errors
///
/// Returns an error naming the metric if it is absent or `factor` is
/// not a finite positive number.
pub fn inject_regression(metrics: &mut Metrics, metric: &str, factor: f64) -> Result<(), String> {
    if !factor.is_finite() || factor <= 0.0 {
        return Err(format!("injection factor {factor} must be positive"));
    }
    let value = metrics
        .get_mut(metric)
        .ok_or_else(|| format!("metric '{metric}' not in summary"))?;
    *value /= factor;
    Ok(())
}

/// Renders one leg's gate outcome as a human-readable table plus, on
/// failure, the leg's one-line repro command.
pub fn render(leg: &Leg, report: &GateReport, tolerance: f64) -> String {
    let name = leg.name;
    let mut out = format!(
        "{name} gate: tolerance {:.1}% on higher-is-better ratios\n",
        tolerance * 100.0
    );
    let row = |r: &Regression| {
        format!(
            "  {:<28} baseline {:>8.3}x  current {:>8.3}x  ({:+.1}%)\n",
            r.metric,
            r.baseline,
            r.current,
            (r.ratio - 1.0) * 100.0
        )
    };
    if !report.regressions.is_empty() {
        out.push_str("REGRESSED beyond tolerance:\n");
        for r in &report.regressions {
            out.push_str(&row(r));
        }
    }
    if !report.improvements.is_empty() {
        out.push_str(&format!(
            "improved beyond tolerance (to ratchet, copy results/BENCH_{name}.json \
             over results/BENCH_{name}_baseline.json):\n"
        ));
        for r in &report.improvements {
            out.push_str(&row(r));
        }
    }
    for metric in &report.missing {
        out.push_str(&format!(
            "  warning: baseline metric '{metric}' not in current summary\n"
        ));
    }
    for metric in &report.new_metrics {
        out.push_str(&format!(
            "  note: new metric '{metric}' (not in baseline)\n"
        ));
    }
    if report.passed() {
        out.push_str(&format!("{name} gate: PASS\n"));
    } else {
        out.push_str(&format!("{name} gate: FAIL\nrepro: {}\n", leg.repro));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{"csv":"/tmp/x.csv","threads":1,"kernels":[],
        "gate":{"matmul/64":1.5,"batched_speedup":0.81,"dot_f32/64":5.0}}"#;

    #[test]
    fn parses_gate_object() {
        let m = parse_gate(SAMPLE).expect("parse");
        assert_eq!(m.len(), 3);
        assert_eq!(m["matmul/64"], 1.5);
        assert_eq!(m["batched_speedup"], 0.81);
    }

    #[test]
    fn rejects_malformed() {
        for text in [
            "not json",
            "{}",
            r#"{"gate":{}}"#,
            r#"{"gate":[2.0]}"#,
            r#"{"gate":{"x":0}}"#,
            r#"{"gate":{"x":-1.5}}"#,
            r#"{"gate":{"x":"fast"}}"#,
        ] {
            assert!(parse_gate(text).is_err(), "accepted {text}");
        }
    }

    #[test]
    fn identical_summaries_pass() {
        let m = parse_gate(SAMPLE).unwrap();
        let report = compare(&m, &m, 0.10);
        assert!(report.passed());
        assert!(report.improvements.is_empty());
        assert!(report.missing.is_empty());
        assert!(report.new_metrics.is_empty());
    }

    #[test]
    fn loss_beyond_tolerance_trips_and_a_wider_band_absorbs_it() {
        let baseline = parse_gate(SAMPLE).unwrap();
        let mut current = baseline.clone();
        // A 15% slower blocked time drops the ratio by ~13%.
        inject_regression(&mut current, "matmul/64", 1.15).unwrap();
        let report = compare(&baseline, &current, 0.10);
        assert!(!report.passed());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "matmul/64");
        assert!(compare(&baseline, &current, 0.20).passed());
        // A factor-2 loss is beyond any sane tolerance…
        let mut halved = baseline.clone();
        inject_regression(&mut halved, "batched_speedup", 2.0).unwrap();
        assert!(!compare(&baseline, &halved, 0.45).passed());
        // …but a mild dip sits inside the band.
        let mut mild = baseline.clone();
        inject_regression(&mut mild, "batched_speedup", 1.05).unwrap();
        assert!(compare(&baseline, &mild, 0.10).passed());
    }

    #[test]
    fn worst_regression_sorts_first() {
        let baseline = parse_gate(SAMPLE).unwrap();
        let mut current = baseline.clone();
        inject_regression(&mut current, "matmul/64", 1.2).unwrap();
        inject_regression(&mut current, "dot_f32/64", 2.0).unwrap();
        let report = compare(&baseline, &current, 0.10);
        assert_eq!(report.regressions[0].metric, "dot_f32/64");
    }

    #[test]
    fn missing_and_new_metrics_reported_not_failed() {
        let baseline = parse_gate(SAMPLE).unwrap();
        let mut current = baseline.clone();
        let v = current.remove("dot_f32/64").unwrap();
        current.insert("dot_f32/128".to_string(), v);
        let report = compare(&baseline, &current, 0.10);
        assert!(report.passed());
        assert_eq!(report.missing, vec!["dot_f32/64".to_string()]);
        assert_eq!(report.new_metrics, vec!["dot_f32/128".to_string()]);
    }

    #[test]
    fn improvements_flagged_for_ratchet() {
        let baseline = parse_gate(SAMPLE).unwrap();
        let mut current = baseline.clone();
        current.insert("matmul/64".to_string(), 2.5);
        let report = compare(&baseline, &current, 0.10);
        assert!(report.passed());
        assert_eq!(report.improvements.len(), 1);
        let rendered = render(leg("kernels").unwrap(), &report, 0.10);
        assert!(rendered
            .contains("copy results/BENCH_kernels.json over results/BENCH_kernels_baseline.json"));
    }

    #[test]
    fn inject_rejects_bad_inputs() {
        let mut m = parse_gate(SAMPLE).unwrap();
        assert!(inject_regression(&mut m, "nope", 2.0).is_err());
        assert!(inject_regression(&mut m, "matmul/64", 0.0).is_err());
        assert!(inject_regression(&mut m, "matmul/64", f64::NAN).is_err());
    }

    #[test]
    fn a_failing_leg_renders_its_own_repro() {
        let baseline = parse_gate(SAMPLE).unwrap();
        let mut current = baseline.clone();
        inject_regression(&mut current, "matmul/64", 3.0).unwrap();
        let failed = compare(&baseline, &current, 0.10);
        let passed = compare(&baseline, &baseline, 0.10);
        for (leg, producer) in LEGS
            .iter()
            .zip(["kernel_bench_summary", "loadgen", "solve_bench"])
        {
            let rendered = render(leg, &failed, 0.10);
            assert!(rendered.contains(&format!("{} gate: FAIL", leg.name)));
            assert!(rendered.contains(&format!("repro: {}\n", leg.repro)));
            assert!(leg.repro.contains(producer), "{}", leg.name);
            let rendered = render(leg, &passed, 0.10);
            assert!(rendered.contains(&format!("{} gate: PASS", leg.name)));
            assert!(!rendered.contains("repro:"));
        }
    }

    #[test]
    fn committed_summaries_parse_and_baselines_pass_against_themselves() {
        // Guards the checked-in files themselves: each must stay
        // parseable, and each baseline self-consistent.
        for leg in &LEGS {
            let baseline = read_gate(&leg.baseline_path()).expect("committed baseline");
            assert!(compare(&baseline, &baseline, 0.0).passed(), "{}", leg.name);
            read_gate(&leg.current_path()).expect("committed current summary");
        }
    }

    #[test]
    fn committed_baselines_witness_the_gated_wins() {
        let baseline = |name: &str| read_gate(&leg(name).unwrap().baseline_path()).unwrap();
        assert!(baseline("kernels").contains_key("matmul/64"));
        let batched = baseline("serve")["batched_speedup"];
        assert!(
            batched >= 2.0,
            "committed baseline must witness the >=2x batching win, got {batched}"
        );
        let amortized = baseline("solve")["amortized_speedup"];
        assert!(
            amortized >= 2.0,
            "committed baseline must witness the >=2x amortized-solve win, got {amortized}"
        );
    }
}
