//! Amortized-solve benchmark: cold per-sample circuit solving versus
//! the [`xbar::SolverCache`] batched path, emitting
//! `results/BENCH_solve.json`, the current summary of `bench_gate`'s
//! `solve` leg.
//!
//! Both paths run the same Newton driver over the same panel of random
//! stimuli against the same programmed tile:
//!
//! * **cold** — one `CrossbarCircuit::solve` per sample: every solve
//!   starts from the cold guess (word lines at their driven voltage,
//!   bit lines grounded) with no carried state.
//! * **amortized** — `SolverCache::for_circuit` once, then one
//!   `solve_batch` over the whole panel: every sample after the first
//!   warm-starts from its predecessor's operating point, with the
//!   previous residual transferred to the new inputs in O(rows) and
//!   each 1T1R cell's inner solve seeded from its previous internal
//!   voltage (DESIGN.md §15).
//!
//! Two shapes run: the original 64×64 leg and an RxNN-scale 256×256
//! leg. The gated metrics are the **ratios** of per-sample times
//! (`amortized_speedup` and `amortized_speedup_256 = cold_ns /
//! amortized_ns`), which are machine-relative: a committed baseline
//! (`results/BENCH_solve_baseline.json`) transfers across hosts the
//! same way the kernel-gate speedups do.
//!
//! Usage: `solve_bench`. The panel sizes and repetition counts are
//! fixed: the first sample of every panel is cold, so a smaller panel
//! lowers the amortized ratio, and a run at other sizes would not
//! compare with the committed baseline.

use std::time::Instant;

use geniex_bench::setup::results_dir;
use telemetry::Json;
use xbar::{ConductanceMatrix, CrossbarCircuit, CrossbarParams, SolverCache};

/// Samples per panel and timed repetitions of the 64×64 leg.
const SAMPLES: usize = 24;
const REPS: usize = 3;
/// The same for the 256×256 leg.
const SAMPLES_256: usize = 8;
const REPS_256: usize = 2;

/// Deterministic xorshift64* stream in [0, 1).
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct LegResult {
    size: usize,
    samples: usize,
    reps: usize,
    cold_ns: f64,
    amortized_ns: f64,
    cold_iters: usize,
    amortized_iters: usize,
    speedup: f64,
}

impl LegResult {
    fn fields(&self) -> Vec<(String, Json)> {
        vec![
            ("rows".to_string(), Json::from(self.size)),
            ("cols".to_string(), Json::from(self.size)),
            ("samples".to_string(), Json::from(self.samples)),
            ("reps".to_string(), Json::from(self.reps)),
            ("cold_ns_per_solve".to_string(), Json::from(self.cold_ns)),
            (
                "amortized_ns_per_solve".to_string(),
                Json::from(self.amortized_ns),
            ),
            ("cold_newton_iters".to_string(), Json::from(self.cold_iters)),
            (
                "amortized_newton_iters".to_string(),
                Json::from(self.amortized_iters),
            ),
        ]
    }
}

/// Runs the cold-vs-amortized comparison for one crossbar edge length.
fn run_leg(size: usize, samples: usize, reps: usize) -> LegResult {
    let params = CrossbarParams::builder(size, size)
        .build()
        .expect("default design point");
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ size as u64);
    let mut g = ConductanceMatrix::uniform(size, size, params.g_off());
    let span = params.g_on() - params.g_off();
    for i in 0..size {
        for j in 0..size {
            g.set(i, j, params.g_off() + span * rng.next_f64());
        }
    }
    let circuit = CrossbarCircuit::new(&params, &g).expect("circuit builds");

    // Correlated stimulus stream, like consecutive MVMs of a real
    // workload: each sample perturbs the previous one, which is the
    // regime warm-starting is designed for (a fully random stream
    // still warm-starts, just with more iterations).
    let mut volts = vec![0.0f64; samples * size];
    for i in 0..size {
        volts[i] = params.v_supply * rng.next_f64();
    }
    for s in 1..samples {
        for i in 0..size {
            let prev = volts[(s - 1) * size + i];
            let jitter = 0.2 * params.v_supply * (rng.next_f64() - 0.5);
            volts[s * size + i] = (prev + jitter).clamp(0.0, params.v_supply);
        }
    }

    // Warm-up: fault in code paths so neither rep 0 nor the cold loop
    // pays one-time costs.
    let first = &volts[..size];
    circuit.solve(first).expect("warm-up cold solve");
    let mut cache = SolverCache::for_circuit(&circuit);
    circuit
        .solve_amortized(first, &mut cache)
        .expect("warm-up amortized solve");

    let mut cold_best = f64::INFINITY;
    let mut cold_iters = 0usize;
    for _ in 0..reps {
        let start = Instant::now();
        let mut iters = 0usize;
        for v in volts.chunks_exact(size) {
            let report = circuit.solve(v).expect("cold solve");
            iters += report.newton_iterations;
        }
        cold_best = cold_best.min(start.elapsed().as_secs_f64());
        cold_iters = iters;
    }

    let mut amortized_best = f64::INFINITY;
    let mut amortized_iters = 0usize;
    for _ in 0..reps {
        let start = Instant::now();
        // Fresh cache per rep: the timed region includes content
        // keying and the cold first sample, exactly what a newly
        // programmed tile pays.
        let mut cache = SolverCache::for_circuit(&circuit);
        let reports = circuit
            .solve_batch(&volts, samples, &mut cache)
            .expect("amortized batch solve");
        amortized_best = amortized_best.min(start.elapsed().as_secs_f64());
        amortized_iters = reports.iter().map(|r| r.newton_iterations).sum();
    }

    let cold_ns = cold_best * 1e9 / samples as f64;
    let amortized_ns = amortized_best * 1e9 / samples as f64;
    let speedup = cold_ns / amortized_ns;

    println!(
        "solve_bench: {size}x{size}, {samples} samples, best of {reps} reps\n\
         {:<12} {:>14.1} ns/solve  {:>5} Newton iterations\n\
         {:<12} {:>14.1} ns/solve  {:>5} Newton iterations\n\
         {:<12} {:>14.2}x",
        "cold", cold_ns, cold_iters, "amortized", amortized_ns, amortized_iters, "speedup", speedup
    );

    LegResult {
        size,
        samples,
        reps,
        cold_ns,
        amortized_ns,
        cold_iters,
        amortized_iters,
        speedup,
    }
}

fn main() {
    let out_path = results_dir().join("BENCH_solve.json");
    let leg64 = run_leg(64, SAMPLES, REPS);
    let leg256 = run_leg(256, SAMPLES_256, REPS_256);

    // The 64×64 leg keeps its historical top-level keys so older
    // tooling reading this file stays compatible; the 256×256 leg
    // nests under "leg_256".
    let mut fields = leg64.fields();
    fields.push(("leg_256".to_string(), Json::Obj(leg256.fields())));
    fields.push((
        "gate".to_string(),
        Json::Obj(vec![
            ("amortized_speedup".to_string(), Json::from(leg64.speedup)),
            (
                "amortized_speedup_256".to_string(),
                Json::from(leg256.speedup),
            ),
        ]),
    ));

    let json = Json::Obj(fields);
    std::fs::write(&out_path, json.to_string() + "\n").unwrap_or_else(|e| {
        eprintln!("solve_bench: cannot write {}: {e}", out_path.display());
        std::process::exit(2);
    });
    println!("wrote {}", out_path.display());
}
