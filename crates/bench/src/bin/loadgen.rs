//! Load harness for `geniex-serve`: drives a running server with
//! concurrent clients, spot-checks answers bit-for-bit against a
//! locally built funcsim oracle, and writes
//! `results/BENCH_serve.json` with throughput, latency percentiles,
//! and the batch-occupancy histogram.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--requests N] [--duration-s S]
//!         [--concurrency C] [--rate R] [--kind mvm|infer]
//!         [--check-every K] [--no-oracle] [--compare] [--reps R]
//!         [--batch N] [--linger-us N] [--warmup N] [--seed S]
//!         [--out PATH] [--ping]
//! ```
//!
//! Closed-loop by default (each worker fires its next request as soon
//! as the previous answer lands); `--rate R` switches to an open loop
//! with Poisson-ish exponential inter-arrivals at R requests/s total.
//! `--compare` runs two phases against the same server — `single`
//! (`Configure(1, 0)`, no batching) then `batched` (`Configure(batch,
//! linger)`) — and records `batched_speedup` under the summary's
//! `gate` object for `bench_gate --serve`. `--reps R` repeats the
//! phase pair R times back to back (single, batched, single, …) and
//! the gate ratio is the best per-rep pair — each rep's phases share
//! one machine window, so drift on a shared host cancels out of the
//! ratio instead of biasing whichever phase ran last. `--ping` just
//! checks the server answers (CI readiness polling) and exits.
//!
//! The oracle rebuilds the server's workload locally from the same
//! `GENIEX_SERVE_*` environment, so run loadgen with the environment
//! the server was started with.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{Client, ServeConfig, ServeWorkload};
use telemetry::json::{parse, Json};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Mvm,
    Infer,
}

#[derive(Clone)]
struct LoadCfg {
    addr: String,
    requests: u64,
    duration_s: f64,
    concurrency: usize,
    rate: f64,
    kind: Kind,
    check_every: u64,
    oracle: bool,
    compare: bool,
    reps: u64,
    batch: u32,
    linger_us: u64,
    warmup: u64,
    seed: u64,
    out: PathBuf,
}

impl Default for LoadCfg {
    fn default() -> LoadCfg {
        LoadCfg {
            addr: std::env::var("GENIEX_SERVE_ADDR")
                .unwrap_or_else(|_| "127.0.0.1:4917".to_string()),
            requests: 400,
            duration_s: 0.0,
            concurrency: 8,
            rate: 0.0,
            kind: Kind::Mvm,
            check_every: 16,
            oracle: true,
            compare: false,
            reps: 1,
            batch: 16,
            linger_us: 200,
            warmup: 64,
            seed: 42,
            out: geniex_bench::setup::results_dir().join("BENCH_serve.json"),
        }
    }
}

struct PhaseStats {
    name: &'static str,
    max_batch: u32,
    linger_us: u64,
    requests: u64,
    errors: u64,
    oracle_checks: u64,
    mismatches: u64,
    elapsed_s: f64,
    rps: f64,
    latency_us: Percentiles,
    occupancy_bounds: Vec<f64>,
    occupancy_counts: Vec<u64>,
    occupancy_mean: f64,
}

struct Percentiles {
    mean: f64,
    p50: f64,
    p95: f64,
    p99: f64,
    max: f64,
}

fn percentiles(latencies_us: &mut [f64]) -> Percentiles {
    if latencies_us.is_empty() {
        return Percentiles {
            mean: 0.0,
            p50: 0.0,
            p95: 0.0,
            p99: 0.0,
            max: 0.0,
        };
    }
    latencies_us.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let idx = ((latencies_us.len() - 1) as f64 * q).round() as usize;
        latencies_us[idx]
    };
    Percentiles {
        mean: latencies_us.iter().sum::<f64>() / latencies_us.len() as f64,
        p50: at(0.50),
        p95: at(0.95),
        p99: at(0.99),
        max: *latencies_us.last().expect("non-empty"),
    }
}

/// Pulls `batch_occupancy` `bounds`/`buckets` out of a `/stats`
/// document.
fn occupancy(stats_json: &str) -> Result<(Vec<f64>, Vec<u64>), String> {
    let root = parse(stats_json)?;
    let hist = root
        .get("batch_occupancy")
        .ok_or("stats without batch_occupancy")?;
    let nums = |key: &str| -> Result<Vec<f64>, String> {
        hist.get(key)
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_f64).collect())
            .ok_or_else(|| format!("batch_occupancy without '{key}'"))
    };
    let bounds = nums("bounds")?;
    let counts = nums("buckets")?.into_iter().map(|c| c as u64).collect();
    Ok((bounds, counts))
}

/// Everything a worker needs to generate and verify requests.
#[derive(Clone, Copy)]
struct FireCtx<'a> {
    oracle: Option<&'a ServeWorkload>,
    shape: [usize; 3],
    kind: Kind,
    scfg: &'a ServeConfig,
}

/// One request by index: generates deterministic content, sends it,
/// and optionally re-derives the expected answer locally.
fn fire(
    client: &mut Client,
    ctx: FireCtx<'_>,
    salt: u64,
    index: u64,
    check: bool,
) -> Result<(f64, bool, bool), String> {
    let FireCtx {
        oracle,
        shape,
        kind,
        scfg,
    } = ctx;
    let start = Instant::now();
    match kind {
        Kind::Mvm => {
            let codes = serve::workload::request_codes(
                oracle.map_or(funcsim::FxpFormat::paper_default(), |o| o.input_format),
                scfg.k,
                scfg.seed,
                salt ^ index,
            );
            let answer = client
                .mvm(codes.clone())
                .map_err(|e| format!("mvm #{index}: {e}"))?;
            let us = start.elapsed().as_secs_f64() * 1e6;
            if let (true, Some(oracle)) = (check, oracle) {
                let expected = oracle
                    .matrix
                    .mvm_codes(&codes, 1)
                    .map_err(|e| format!("oracle mvm #{index}: {e}"))?;
                if answer != expected {
                    eprintln!(
                        "loadgen: ORACLE MISMATCH on mvm #{index}: served {answer:?} != expected {expected:?}"
                    );
                    return Ok((us, true, true));
                }
                return Ok((us, true, false));
            }
            Ok((us, false, false))
        }
        Kind::Infer => {
            let pixels = serve::workload::request_image(shape, scfg.seed, salt ^ index);
            let logits = client
                .infer(
                    [shape[0] as u32, shape[1] as u32, shape[2] as u32],
                    pixels.clone(),
                )
                .map_err(|e| format!("infer #{index}: {e}"))?;
            let us = start.elapsed().as_secs_f64() * 1e6;
            if let (true, Some(oracle)) = (check, oracle) {
                let network = oracle.network.as_ref().ok_or("oracle has no network")?;
                let images = nn::Tensor::from_vec(pixels, &[1, shape[0], shape[1], shape[2]])
                    .map_err(|e| format!("oracle tensor #{index}: {e}"))?;
                let expected = network
                    .forward(&images)
                    .map_err(|e| format!("oracle forward #{index}: {e}"))?;
                if logits != expected.data() {
                    eprintln!("loadgen: ORACLE MISMATCH on infer #{index}");
                    return Ok((us, true, true));
                }
                return Ok((us, true, false));
            }
            Ok((us, false, false))
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_phase(
    name: &'static str,
    addr: SocketAddr,
    cfg: &LoadCfg,
    scfg: &ServeConfig,
    oracle: Option<&ServeWorkload>,
    max_batch: u32,
    linger_us: u64,
    salt: u64,
) -> Result<PhaseStats, String> {
    let mut control = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    control
        .configure(max_batch, linger_us)
        .map_err(|e| format!("configure: {e}"))?;

    let ctx = FireCtx {
        oracle,
        shape: scfg.model.input_shape(),
        kind: cfg.kind,
        scfg,
    };

    // Warm up untimed so one-time costs (page faults, socket setup on
    // the server, branch warmup) don't pollute the measured window.
    {
        let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        for i in 0..cfg.warmup {
            fire(&mut client, ctx, salt ^ 0xFFFF_0000, i, false)?;
        }
    }

    let stats_before = control.stats().map_err(|e| format!("stats: {e}"))?;
    let (bounds, counts_before) = occupancy(&stats_before)?;

    // Open-loop mode: one global Poisson-ish arrival schedule, workers
    // take every C-th slot. A worker that falls behind sends
    // immediately — the defining open-loop property.
    let schedule: Arc<Vec<f64>> = Arc::new(if cfg.rate > 0.0 {
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ salt);
        let mut t = 0.0f64;
        (0..cfg.requests)
            .map(|_| {
                let u: f64 = rng.gen_range(0.0..1.0);
                t += -(1.0 - u).ln() / cfg.rate;
                t
            })
            .collect()
    } else {
        Vec::new()
    });

    let next = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let checks = Arc::new(AtomicU64::new(0));
    let mismatches = Arc::new(AtomicU64::new(0));
    let failures: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
    let started = Instant::now();
    let deadline = if cfg.duration_s > 0.0 {
        Some(started + Duration::from_secs_f64(cfg.duration_s))
    } else {
        None
    };

    let latencies: Vec<f64> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.concurrency)
            .map(|_| {
                let next = Arc::clone(&next);
                let errors = Arc::clone(&errors);
                let checks = Arc::clone(&checks);
                let mismatches = Arc::clone(&mismatches);
                let failures = Arc::clone(&failures);
                let schedule = Arc::clone(&schedule);
                scope.spawn(move || {
                    let mut client = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            failures
                                .lock()
                                .expect("failures")
                                .push(format!("connect: {e}"));
                            return Vec::new();
                        }
                    };
                    let mut lat = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= cfg.requests {
                            break;
                        }
                        if let Some(d) = deadline {
                            if Instant::now() > d {
                                break;
                            }
                        }
                        if let Some(at) = schedule.get(i as usize) {
                            let due = started + Duration::from_secs_f64(*at);
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                        }
                        let check =
                            cfg.oracle && cfg.check_every > 0 && i.is_multiple_of(cfg.check_every);
                        match fire(&mut client, ctx, salt, i, check) {
                            Ok((us, checked, mismatched)) => {
                                lat.push(us);
                                if checked {
                                    checks.fetch_add(1, Ordering::Relaxed);
                                }
                                if mismatched {
                                    mismatches.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            Err(e) => {
                                errors.fetch_add(1, Ordering::Relaxed);
                                failures.lock().expect("failures").push(e);
                                break;
                            }
                        }
                    }
                    lat
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker thread"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();

    for failure in failures.lock().expect("failures").iter().take(5) {
        eprintln!("loadgen: {failure}");
    }

    let stats_after = control.stats().map_err(|e| format!("stats: {e}"))?;
    let (_, counts_after) = occupancy(&stats_after)?;
    let occupancy_counts: Vec<u64> = counts_after
        .iter()
        .zip(&counts_before)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    let occ_total: u64 = occupancy_counts.iter().sum();
    let occupancy_mean = if occ_total > 0 {
        occupancy_counts
            .iter()
            .zip(&bounds)
            .map(|(&c, &b)| c as f64 * b)
            .sum::<f64>()
            / occ_total as f64
    } else {
        0.0
    };

    let mut lat = latencies;
    let requests = lat.len() as u64;
    let latency_us = percentiles(&mut lat);
    Ok(PhaseStats {
        name,
        max_batch,
        linger_us,
        requests,
        errors: errors.load(Ordering::Relaxed),
        oracle_checks: checks.load(Ordering::Relaxed),
        mismatches: mismatches.load(Ordering::Relaxed),
        elapsed_s,
        rps: if elapsed_s > 0.0 {
            requests as f64 / elapsed_s
        } else {
            0.0
        },
        latency_us,
        occupancy_bounds: bounds,
        occupancy_counts,
        occupancy_mean,
    })
}

fn phase_json(p: &PhaseStats) -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::from(p.name)),
        ("max_batch".to_string(), Json::from(u64::from(p.max_batch))),
        ("linger_us".to_string(), Json::from(p.linger_us)),
        ("requests".to_string(), Json::from(p.requests)),
        ("errors".to_string(), Json::from(p.errors)),
        ("oracle_checks".to_string(), Json::from(p.oracle_checks)),
        ("mismatches".to_string(), Json::from(p.mismatches)),
        ("elapsed_s".to_string(), Json::from(p.elapsed_s)),
        ("rps".to_string(), Json::from(p.rps)),
        (
            "latency_us".to_string(),
            Json::Obj(vec![
                ("mean".to_string(), Json::from(p.latency_us.mean)),
                ("p50".to_string(), Json::from(p.latency_us.p50)),
                ("p95".to_string(), Json::from(p.latency_us.p95)),
                ("p99".to_string(), Json::from(p.latency_us.p99)),
                ("max".to_string(), Json::from(p.latency_us.max)),
            ]),
        ),
        (
            "batch_occupancy".to_string(),
            Json::Obj(vec![
                (
                    "bounds".to_string(),
                    Json::Arr(p.occupancy_bounds.iter().map(|&b| Json::from(b)).collect()),
                ),
                (
                    "counts".to_string(),
                    Json::Arr(p.occupancy_counts.iter().map(|&c| Json::from(c)).collect()),
                ),
                ("mean".to_string(), Json::from(p.occupancy_mean)),
            ]),
        ),
    ])
}

fn parse_args(cfg: &mut LoadCfg, mut argv: impl Iterator<Item = String>) -> Result<bool, String> {
    let mut ping = false;
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let num = |name: &str, v: String| -> Result<u64, String> {
            v.parse::<u64>()
                .map_err(|_| format!("{name} expects an integer, got '{v}'"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--requests" => cfg.requests = num("--requests", value("--requests")?)?.max(1),
            "--duration-s" => {
                cfg.duration_s = value("--duration-s")?
                    .parse::<f64>()
                    .map_err(|_| "--duration-s expects seconds".to_string())?
            }
            "--concurrency" => {
                cfg.concurrency = num("--concurrency", value("--concurrency")?)?.max(1) as usize
            }
            "--rate" => {
                cfg.rate = value("--rate")?
                    .parse::<f64>()
                    .map_err(|_| "--rate expects requests/s".to_string())?
            }
            "--kind" => {
                cfg.kind = match value("--kind")?.as_str() {
                    "mvm" => Kind::Mvm,
                    "infer" => Kind::Infer,
                    other => return Err(format!("unknown kind '{other}'")),
                }
            }
            "--check-every" => cfg.check_every = num("--check-every", value("--check-every")?)?,
            "--no-oracle" => cfg.oracle = false,
            "--compare" => cfg.compare = true,
            "--reps" => cfg.reps = num("--reps", value("--reps")?)?.max(1),
            "--batch" => cfg.batch = num("--batch", value("--batch")?)?.max(1) as u32,
            "--linger-us" => cfg.linger_us = num("--linger-us", value("--linger-us")?)?,
            "--warmup" => cfg.warmup = num("--warmup", value("--warmup")?)?,
            "--seed" => cfg.seed = num("--seed", value("--seed")?)?,
            "--out" => cfg.out = PathBuf::from(value("--out")?),
            "--ping" => ping = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(ping)
}

fn main() -> ExitCode {
    let mut cfg = LoadCfg::default();
    let ping = match parse_args(&mut cfg, std::env::args().skip(1)) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::from(2);
        }
    };

    let addr: SocketAddr = match cfg.addr.parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: bad --addr '{}': {e}", cfg.addr);
            return ExitCode::from(2);
        }
    };

    if ping {
        return match Client::connect(addr).map(|mut c| c.ping()) {
            Ok(Ok(())) => ExitCode::SUCCESS,
            Ok(Err(e)) => {
                eprintln!("loadgen: ping failed: {e}");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("loadgen: cannot reach {addr}: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let scfg = ServeConfig::from_env();
    let manifest = geniex_bench::manifest::start(
        "loadgen",
        &[
            ("addr", Json::from(cfg.addr.as_str())),
            ("requests", Json::from(cfg.requests)),
            ("duration_s", Json::from(cfg.duration_s)),
            ("concurrency", Json::from(cfg.concurrency)),
            ("rate", Json::from(cfg.rate)),
            (
                "kind",
                Json::from(match cfg.kind {
                    Kind::Mvm => "mvm",
                    Kind::Infer => "infer",
                }),
            ),
            ("check_every", Json::from(cfg.check_every)),
            ("oracle", Json::Bool(cfg.oracle)),
            ("compare", Json::Bool(cfg.compare)),
            ("reps", Json::from(cfg.reps)),
            ("batch", Json::from(u64::from(cfg.batch))),
            ("linger_us", Json::from(cfg.linger_us)),
            ("warmup", Json::from(cfg.warmup)),
            ("seed", Json::from(cfg.seed)),
        ],
    );

    // The oracle mirrors the server's workload from the same env, so
    // spot-checks recompute the exact same fixed-point pipeline.
    let oracle = if cfg.oracle {
        eprintln!("loadgen: building local oracle workload (GENIEX_SERVE_* env)");
        match serve::workload::build(&scfg) {
            Ok(w) => Some(w),
            Err(e) => {
                eprintln!("loadgen: oracle build failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };

    // Reps interleave the phase list so machine drift lands on both
    // phases instead of biasing whichever ran later.
    let round: Vec<(&'static str, u32, u64, u64)> = if cfg.compare {
        vec![
            ("single", 1, 0, 0x5157_0000),
            ("batched", cfg.batch, cfg.linger_us, 0xBA7C_0000),
        ]
    } else {
        vec![("load", cfg.batch, cfg.linger_us, 0x10AD_0000)]
    };
    let phases: Vec<(&'static str, u32, u64, u64)> = (0..cfg.reps)
        .flat_map(|r| {
            round
                .iter()
                .map(move |&(name, batch, linger, salt)| (name, batch, linger, salt ^ r))
        })
        .collect();

    let mut results = Vec::new();
    for (name, batch, linger, salt) in phases {
        eprintln!(
            "loadgen: phase '{name}' (batch={batch}, linger={linger}us, \
             {} requests, concurrency {})",
            cfg.requests, cfg.concurrency
        );
        match run_phase(
            name,
            addr,
            &cfg,
            &scfg,
            oracle.as_ref(),
            batch,
            linger,
            salt,
        ) {
            Ok(p) => {
                eprintln!(
                    "loadgen: phase '{name}': {:.0} req/s, p50 {:.0}us p95 {:.0}us p99 {:.0}us, \
                     mean occupancy {:.2}, {} oracle checks, {} mismatches",
                    p.rps,
                    p.latency_us.p50,
                    p.latency_us.p95,
                    p.latency_us.p99,
                    p.occupancy_mean,
                    p.oracle_checks,
                    p.mismatches
                );
                results.push(p);
            }
            Err(e) => {
                eprintln!("loadgen: phase '{name}' failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut top = vec![
        ("addr".to_string(), Json::from(cfg.addr.as_str())),
        (
            "kind".to_string(),
            Json::from(match cfg.kind {
                Kind::Mvm => "mvm",
                Kind::Infer => "infer",
            }),
        ),
        ("concurrency".to_string(), Json::from(cfg.concurrency)),
        ("requests".to_string(), Json::from(cfg.requests)),
        ("rate".to_string(), Json::from(cfg.rate)),
        ("reps".to_string(), Json::from(cfg.reps)),
        (
            "phases".to_string(),
            Json::Arr(results.iter().map(phase_json).collect()),
        ),
    ];
    // Each rep's single and batched phases run back to back, so their
    // ratio sees the same machine conditions; the best rep is the
    // least-interference estimate of the batching speedup. Comparing
    // phases across different reps would let a lucky window on one
    // side distort the ratio.
    let mut gate_speedup = None;
    if cfg.compare {
        let speedup = results
            .chunks(2)
            .filter(|pair| {
                pair.len() == 2
                    && pair[0].name == "single"
                    && pair[1].name == "batched"
                    && pair[0].rps > 0.0
            })
            .map(|pair| pair[1].rps / pair[0].rps)
            .fold(0.0, f64::max);
        if speedup > 0.0 {
            gate_speedup = Some(speedup);
            top.push((
                "gate".to_string(),
                Json::Obj(vec![("batched_speedup".to_string(), Json::from(speedup))]),
            ));
        }
    }

    let total_errors: u64 = results.iter().map(|p| p.errors).sum();
    let total_mismatches: u64 = results.iter().map(|p| p.mismatches).sum();
    let total_checks: u64 = results.iter().map(|p| p.oracle_checks).sum();

    let out_text = Json::Obj(top).to_string();
    if let Some(dir) = cfg.out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&cfg.out, out_text + "\n") {
        eprintln!("loadgen: cannot write {}: {e}", cfg.out.display());
        return ExitCode::FAILURE;
    }
    eprintln!("loadgen: wrote {}", cfg.out.display());
    if let Some(speedup) = gate_speedup {
        eprintln!("loadgen: batched_speedup = {speedup:.2}x");
    }

    geniex_bench::manifest::finish(
        manifest,
        &[
            ("errors", Json::from(total_errors)),
            ("oracle_checks", Json::from(total_checks)),
            ("mismatches", Json::from(total_mismatches)),
            (
                "batched_speedup",
                gate_speedup.map_or(Json::Null, Json::from),
            ),
        ],
    );

    if total_errors > 0 || total_mismatches > 0 {
        eprintln!(
            "loadgen: FAIL ({total_errors} request errors, {total_mismatches} oracle mismatches)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
