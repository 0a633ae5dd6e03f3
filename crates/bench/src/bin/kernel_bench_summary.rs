//! Summarizes the kernel microbenchmarks into `results/BENCH_kernels.json`,
//! the current summary of `bench_gate`'s `kernels` leg.
//!
//! Reads the CSV written by the `kernels` bench when run with
//! `GENIEX_BENCH_OUT` (rows `kernels/<group>/<variant>/<shape>,ns`),
//! pairs every `naive` row with its `blocked` counterpart, and records
//! each pair as a `kernels` row plus its speedup (`naive_ns /
//! blocked_ns`) under the `gate` object, which is all `bench_gate`
//! reads. Exits non-zero if the blocked GEMM is slower than the naive
//! ikj loop at the 64×64 crossbar shape — the guardrail CI enforces
//! against kernel regressions.
//!
//! Usage: `kernel_bench_summary [csv-path]` (default
//! `results/bench_kernels.csv`, or `$GENIEX_BENCH_OUT` if set).

use std::collections::BTreeMap;
use telemetry::Json;

struct Pair {
    naive_ns: f64,
    blocked_ns: f64,
}

fn parse_csv(text: &str) -> BTreeMap<String, Pair> {
    let mut naive = BTreeMap::new();
    let mut blocked = BTreeMap::new();
    for line in text.lines().skip(1) {
        let Some((label, ns)) = line.rsplit_once(',') else {
            continue;
        };
        let Ok(ns) = ns.trim().parse::<f64>() else {
            continue;
        };
        // kernels/<group>/<variant>/<shape> — keep the last write per
        // label so a re-run appended to an old file stays current.
        let parts: Vec<&str> = label.split('/').collect();
        if parts.len() != 4 || parts[0] != "kernels" {
            continue;
        }
        let key = format!("{}/{}", parts[1], parts[3]);
        match parts[2] {
            "naive" => {
                naive.insert(key, ns);
            }
            "blocked" => {
                blocked.insert(key, ns);
            }
            _ => {}
        }
    }
    let mut pairs = BTreeMap::new();
    for (key, naive_ns) in naive {
        if let Some(&blocked_ns) = blocked.get(&key) {
            pairs.insert(
                key,
                Pair {
                    naive_ns,
                    blocked_ns,
                },
            );
        }
    }
    pairs
}

fn main() {
    let csv_path = std::env::args().nth(1).unwrap_or_else(|| {
        std::env::var("GENIEX_BENCH_OUT").unwrap_or_else(|_| "results/bench_kernels.csv".into())
    });
    let text = std::fs::read_to_string(&csv_path).unwrap_or_else(|e| {
        eprintln!("kernel_bench_summary: cannot read {csv_path}: {e}");
        eprintln!("run `GENIEX_BENCH_OUT={csv_path} cargo bench --bench kernels` first");
        std::process::exit(2);
    });
    let pairs = parse_csv(&text);
    if pairs.is_empty() {
        eprintln!("kernel_bench_summary: no naive/blocked pairs in {csv_path}");
        std::process::exit(2);
    }

    let mut entries = Vec::new();
    let mut gate = Vec::new();
    println!(
        "{:<34} {:>12} {:>12} {:>9}",
        "kernel", "naive", "blocked", "speedup"
    );
    for (key, p) in &pairs {
        let speedup = p.naive_ns / p.blocked_ns;
        println!(
            "{key:<34} {naive:>9.1} ns {blocked:>9.1} ns {speedup:>8.2}x",
            naive = p.naive_ns,
            blocked = p.blocked_ns,
        );
        entries.push(Json::Obj(vec![
            ("kernel".into(), Json::from(key.as_str())),
            ("naive_ns".into(), Json::from(p.naive_ns)),
            ("blocked_ns".into(), Json::from(p.blocked_ns)),
            ("speedup".into(), Json::from(speedup)),
        ]));
        gate.push((key.clone(), Json::from(speedup)));
    }

    let json = Json::Obj(vec![
        ("csv".into(), Json::from(csv_path.as_str())),
        (
            "threads".into(),
            Json::from(parallel::global().threads() as u64),
        ),
        ("kernels".into(), Json::Arr(entries)),
        ("gate".into(), Json::Obj(gate)),
    ]);
    let out_path = geniex_bench::setup::results_dir().join("BENCH_kernels.json");
    std::fs::create_dir_all(out_path.parent().unwrap()).expect("results dir");
    std::fs::write(&out_path, format!("{json}\n")).expect("write BENCH_kernels.json");
    eprintln!("[kernels] wrote {}", out_path.display());

    // Guardrail: the register-blocked GEMM must never lose to the naive
    // ikj loop at the canonical crossbar shape.
    if let Some(p) = pairs.get("matmul/64") {
        let s = p.naive_ns / p.blocked_ns;
        if s < 1.0 {
            eprintln!(
                "kernel_bench_summary: blocked matmul is {s:.2}x at 64x64 (slower than naive)"
            );
            std::process::exit(1);
        }
    }
}
