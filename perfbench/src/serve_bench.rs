//! `serve-mvm` and `serve-infer`: load against the shipped
//! `geniex-serve` binary, output checks against an in-process oracle,
//! and (traced) the per-layer ledger.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use funcsim::CrossbarNetwork;
use nn::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serve::{EngineKind, ModelKind, ServeConfig, ServeWorkload};
use telemetry::Json;
use vision::SynthSpec;

use crate::replay;
use crate::report::Report;
use crate::server::{self, Class, Server, Tally};
use crate::stats::{self, Hist, LadderStep, Ledger};
use crate::trace::{self, Call, Counters, Recorder};

/// Open-loop rate the latency percentiles are measured at, req/s:
/// about a third of what the default server sustains at two threads.
pub const NOMINAL_RPS: f64 = 120.0;
/// Rates above nominal that `max_rps` climbs, req/s. They close in on
/// the knee, where p99 rises steeply, so the interpolated crossing is
/// set by queueing rather than by scheduling noise.
pub const LADDER_RPS: [f64; 6] = [200.0, 240.0, 280.0, 320.0, 360.0, 400.0];
/// p99 limit a ladder step must meet, ms.
pub const P99_LIMIT_MS: f64 = 100.0;
/// Generator lag beyond which a run is rejected because the load no
/// longer arrived on its schedule: a median lag above 1 ms means the
/// generator ran behind; a p99 above 50 ms exceeds the wake-up noise of
/// a busy two-vCPU host (several ms) by an order of magnitude.
pub const MAX_GEN_LAG_P50_MS: f64 = 1.0;
pub const MAX_GEN_LAG_P99_MS: f64 = 50.0;
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Server spawns per untraced run; `setup_s` is the fastest spawn →
/// READY time (the first spawn also serves the load). As in
/// `truth-eval`, the server's training phase runs at one of two speeds
/// on a shared two-vCPU VM, and only the fastest repeats run to run.
const SETUP_SPAWNS: usize = 5;
/// `Infer` answers checked against the oracle per run.
const INFER_CHECKS: usize = 32;
/// Fixed probe images sent after the timed `serve-infer` load; their
/// answers are checked like the others and give `logit_err`, which
/// then depends on the program only, not on the seed's images.
const INFER_PROBES: u64 = 32;
/// Seed of the probe images.
const PROBE_SEED: u64 = 0x0070_726f_6265;
/// Percentile `tail_ms` reports for `serve-infer`. A run leaves
/// hundreds of answers beyond it, so it is the same percentile on a
/// fast host and a slow one; the highest percentile with
/// [`stats::TAIL_BEYOND`] beyond would switch from p95 to p99 as the
/// answer count crosses 1000.
const INFER_TAIL_Q: f64 = 0.90;
/// Windows the measured `Infer` requests are split into for the median
/// latency and rate (each holds at least 100 requests).
const INFER_WINDOWS: usize = 4;
/// Share of a `serve-infer` run spent on unmeasured warm-up. On a
/// shared two-vCPU VM the server often computes an image about twice
/// as fast for the first seconds of sustained load (up to about 12 s)
/// as it does afterwards, and the later steady state is what repeats.
const INFER_WARMUP_FRAC: f64 = 0.25;

fn serve_config() -> ServeConfig {
    ServeConfig::default()
}

/// Spawn → READY times of `n` more cold servers, each drained on
/// SIGTERM right away. They run after the load, so every set-up a run
/// times starts from the same state of a host that has been busy.
fn more_setups(bin: &Path, n: usize, report: &mut Report) -> Vec<f64> {
    let mut setups = Vec::new();
    for _ in 0..n {
        match Server::spawn(bin) {
            Ok(server) => {
                setups.push(server.setup_s);
                if let Err(e) = server.stop() {
                    report.fail(format!("drain after set-up spawn: {e}"));
                }
            }
            Err(e) => report.fail(e),
        }
    }
    setups
}

fn spawn_first(bin: &Path, report: &mut Report) -> Option<Server> {
    match Server::spawn(bin) {
        Ok(s) => Some(s),
        Err(e) => {
            report.fail(e);
            None
        }
    }
}

/// Poisson arrival offsets at `rate` for `seconds`, ns from the phase
/// start.
fn poisson_offsets(rng: &mut StdRng, rate: f64, seconds: f64) -> Vec<u64> {
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

struct Phase {
    rate: f64,
    sent: Vec<server::Sent>,
    codes: Vec<Vec<i64>>,
}

impl Phase {
    /// Latencies with failed requests at +∞ (they miss any limit).
    fn latencies(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .sent
            .iter()
            .map(|s| {
                if s.class == Class::Ok {
                    s.latency_ms()
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn step(&self) -> LadderStep {
        let lat = self.latencies();
        let last_due = self.sent.iter().map(|s| s.due).max().unwrap_or(0);
        let last_done = self.sent.iter().map(|s| s.done).max().unwrap_or(0);
        LadderStep {
            rate: self.rate,
            p99_ms: stats::percentile(&lat, 0.99),
            failed: self.sent.iter().filter(|s| s.class != Class::Ok).count() as u64,
            drain_ms: last_done.saturating_sub(last_due) as f64 * 1e-6,
        }
    }
}

fn run_phase(
    addr: std::net::SocketAddr,
    rng: &mut StdRng,
    seed: u64,
    rate: f64,
    seconds: f64,
    first: u64,
) -> Phase {
    let offsets = poisson_offsets(rng, rate, seconds);
    let format = crate::replica::input_format();
    let codes: Vec<Vec<i64>> = (0..offsets.len() as u64)
        .map(|i| serve::workload::request_codes(format, serve_config().k, seed, first + i))
        .collect();
    let sent = server::open_loop_mvm(addr, &offsets, &codes, REQUEST_TIMEOUT);
    Phase { rate, sent, codes }
}

/// Marks every answered request whose answer differs from `expected`.
fn check_mvm(phases: &mut [Phase], oracle: &ServeWorkload) -> Result<(), String> {
    const CHUNK: usize = 16;
    for phase in phases.iter_mut() {
        for (sent, codes) in phase.sent.chunks_mut(CHUNK).zip(phase.codes.chunks(CHUNK)) {
            let flat: Vec<i64> = codes.concat();
            let out = oracle
                .matrix
                .mvm_codes(&flat, codes.len())
                .map_err(|e| format!("oracle mvm: {e}"))?;
            for (j, s) in sent.iter_mut().enumerate() {
                if s.class == Class::Ok && s.answer != out[j * oracle.m..(j + 1) * oracle.m] {
                    s.class = Class::Mismatch;
                }
            }
        }
    }
    Ok(())
}

fn tally_phases(phases: &[Phase]) -> Tally {
    let mut t = Tally::default();
    for p in phases {
        for s in &p.sent {
            t.add(s.class);
        }
    }
    t
}

/// Generator lag p50 and p99, ms.
fn lag_ms(phase: &Phase) -> (f64, f64) {
    let mut lags: Vec<f64> = phase.sent.iter().map(|s| s.lag_ms()).collect();
    lags.sort_by(f64::total_cmp);
    (
        stats::percentile(&lags, 0.5),
        stats::percentile(&lags, 0.99),
    )
}

/// Mean |served − ideal-crossbar| output over the answers, in
/// activation units (codes scaled by the format's LSB).
fn mvm_output_err(phase: &Phase, ideal: &ServeWorkload) -> Result<(f64, u64), String> {
    let lsb = 1.0 / (1u64 << ideal.input_format.frac_bits()) as f64;
    let mut sum = 0.0f64;
    let mut count = 0u64;
    for (sent, codes) in phase.sent.chunks(16).zip(phase.codes.chunks(16)) {
        let out = ideal
            .matrix
            .mvm_codes(&codes.concat(), codes.len())
            .map_err(|e| format!("ideal mvm: {e}"))?;
        for (j, s) in sent.iter().enumerate() {
            if s.class != Class::Ok {
                continue;
            }
            for (a, b) in s.answer.iter().zip(&out[j * ideal.m..(j + 1) * ideal.m]) {
                sum += (a - b).abs() as f64 * lsb;
                count += 1;
            }
        }
    }
    Ok((sum / count.max(1) as f64, count))
}

fn stats_hist(stats: &Json, path: &[&str]) -> Result<Hist, String> {
    let mut node = stats;
    for key in path {
        node = node
            .get(key)
            .ok_or_else(|| format!("/stats without '{}'", path.join(".")))?;
    }
    Hist::from_stats(node)
}

fn stats_num(stats: &Json, path: &[&str]) -> f64 {
    let mut node = Some(stats);
    for key in path {
        node = node.and_then(|n| n.get(key));
    }
    node.and_then(Json::as_f64).unwrap_or(0.0)
}

/// `/stats` deltas over a traced window.
struct ServeDelta {
    occupancy: Hist,
    queue_wait_us: Hist,
    latency_us: Hist,
    flush_full: f64,
    flush_linger: f64,
    rejected_full: f64,
    errors: f64,
}

impl ServeDelta {
    fn between(before: &Json, after: &Json) -> Result<ServeDelta, String> {
        let delta = |path: &[&str]| -> Result<Hist, String> {
            Ok(stats_hist(after, path)?.since(&stats_hist(before, path)?))
        };
        let num = |path: &[&str]| stats_num(after, path) - stats_num(before, path);
        Ok(ServeDelta {
            occupancy: delta(&["batch_occupancy"])?,
            queue_wait_us: delta(&["queue", "wait_us"])?,
            latency_us: delta(&["latency_us"])?,
            flush_full: num(&["queue", "flush_full"]),
            flush_linger: num(&["queue", "flush_linger"]),
            rejected_full: num(&["queue", "rejected_full"]),
            errors: num(&["errors"]),
        })
    }

    /// Batch sizes the server formed, one entry per batch.
    fn batch_sizes(&self) -> Vec<usize> {
        let mut sizes = Vec::new();
        for (&c, &b) in self.occupancy.counts.iter().zip(&self.occupancy.bounds) {
            sizes.extend(std::iter::repeat_n(b as usize, c as usize));
        }
        sizes
    }

    fn put(&self, report: &mut Report, client_latency_ms: &[f64]) {
        let batches = self.flush_full + self.flush_linger;
        report.metric(
            "serve.batch_occupancy_mean",
            self.occupancy.integer_mean(),
            "requests",
            self.occupancy.counts.iter().sum(),
            "requests per computed batch",
        );
        report.metric(
            "serve.flush_linger_frac",
            if batches > 0.0 {
                self.flush_linger / batches
            } else {
                0.0
            },
            "frac",
            batches as u64,
            "batches cut by the linger timer",
        );
        report.metric(
            "serve.queue_wait_p50_us",
            self.queue_wait_us.quantile(0.5),
            "us",
            self.queue_wait_us.count,
            "admission queue wait",
        );
        report.metric(
            "serve.queue_wait_p99_us",
            self.queue_wait_us.quantile(0.99),
            "us",
            self.queue_wait_us.count,
            "admission queue wait",
        );
        let server_p50 = self.latency_us.quantile(0.5);
        report.metric(
            "serve.server_latency_p50_us",
            server_p50,
            "us",
            self.latency_us.count,
            "decode done to response ready",
        );
        // Means, not medians: the server's histogram has factor-2
        // buckets, while its sum is exact.
        let client_sum_us = client_latency_ms.iter().sum::<f64>() * 1e3;
        let n = client_latency_ms.len().max(1) as f64;
        report.metric(
            "serve.outside_us_mean",
            (client_sum_us - self.latency_us.sum) / n,
            "us",
            client_latency_ms.len() as u64,
            "client minus server latency: socket, codec, wake-ups",
        );
        report.metric(
            "serve.errors",
            self.errors,
            "count",
            1,
            "error responses in the window",
        );
        report.metric(
            "serve.rejected_full",
            self.rejected_full,
            "count",
            1,
            "refused: queue full",
        );
    }
}

/// Zero-valued metrics of the layers a workload does not exercise, so
/// every traced run reports the full per-layer set.
pub fn absent(report: &mut Report, names: &[(&str, &'static str)], why: &str) {
    for (name, unit) in names {
        report.metric(name, 0.0, unit, 0, why);
    }
}

/// Solver metrics from counter deltas: the timed window's solves and
/// the set-up's cold solves.
pub fn put_xbar(report: &mut Report, window: &Counters, setup: &Counters) {
    let solves = window.counter("xbar.solves");
    let iters = window.hist("xbar.newton_iterations");
    let (iters_n, iters_sum) = (iters.count, iters.sum);
    let (_, solve_s) = window.timer("xbar.solve_seconds");
    let amortized = window.counter("xbar.amortized.solves");
    let frac = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    report.metric(
        "xbar.solves",
        solves as f64,
        "count",
        solves,
        "circuit solves in the timed phase",
    );
    report.metric(
        "xbar.newton_iters_per_solve",
        if iters_n > 0 {
            iters_sum / iters_n as f64
        } else {
            0.0
        },
        "iters",
        iters_n,
        "Newton iterations per solve",
    );
    report.metric(
        "xbar.us_per_solve",
        if solves > 0 {
            solve_s / solves as f64 * 1e6
        } else {
            0.0
        },
        "us",
        solves,
        "solver time per solve",
    );
    report.metric(
        "xbar.warm_start_frac",
        frac(window.counter("xbar.warm_starts"), solves),
        "frac",
        solves,
        "solves warm-started",
    );
    let hits = setup.counter("xbar.cache.hits");
    let lookups = hits + setup.counter("xbar.cache.misses");
    report.metric(
        "xbar.cache_hit_frac",
        frac(hits, lookups),
        "frac",
        lookups,
        "factorization cache hits per tile programmed",
    );
    report.metric(
        "xbar.fallback_frac",
        frac(window.counter("xbar.amortized.fallbacks"), amortized),
        "frac",
        amortized,
        "amortized solves that fell back to cold",
    );
    let cold = setup.counter("xbar.solves");
    let (_, cold_s) = setup.timer("xbar.solve_seconds");
    report.metric(
        "xbar.cold_us_per_solve",
        if cold > 0 {
            cold_s / cold as f64 * 1e6
        } else {
            0.0
        },
        "us",
        cold,
        "set-up dataset solves (cold)",
    );
}

/// Pool metrics over a window of `wall_s` seconds serving `requests`.
pub fn put_parallel(report: &mut Report, window: &Counters, requests: u64, wall_s: f64) {
    let tasks = window.counter("parallel.global.tasks");
    let task_hist = window.hist("parallel.global.task_seconds");
    let idle = window.counter_sum("parallel.global.worker", ".idle_waits");
    let per = |v: u64| v as f64 / requests.max(1) as f64;
    report.metric(
        "parallel.tasks_per_request",
        per(tasks),
        "tasks",
        tasks,
        "pool tasks per request",
    );
    report.metric(
        "parallel.task_us_p50",
        task_hist.quantile(0.5) * 1e6,
        "us",
        task_hist.count,
        "pool task duration (bucketed)",
    );
    report.metric(
        "parallel.idle_waits_per_request",
        per(idle),
        "waits",
        idle,
        "worker sleeps per request",
    );
    let threads = parallel::global().threads() as f64;
    report.metric(
        "parallel.busy_frac",
        if wall_s > 0.0 {
            task_hist.sum / (threads * wall_s)
        } else {
            0.0
        },
        "frac",
        tasks,
        "task time over workers x wall",
    );
}

/// Engine-layer split and the kernels/geniex metrics.
fn put_engine_split(
    report: &mut Report,
    costs: &replay::EngineCosts,
    calls: &[Call],
    requests: u64,
) {
    let vectors: u64 = calls.iter().map(|c| c.n as u64).sum();
    let flop = vectors as f64 * costs.flop_per_call() / costs.n as f64;
    report.metric(
        "geniex.f_r_us_per_vector",
        costs.f_r_s / costs.n as f64 * 1e6,
        "us",
        costs.n as u64,
        &format!("replayed GeniexTile::f_r_batch at n={}", costs.n),
    );
    report.metric(
        "kernels.gflop_per_request",
        flop / requests.max(1) as f64 * 1e-9,
        "GFLOP",
        calls.len() as u64,
        "surrogate GEMMs + level GEMV, from shapes",
    );
    report.metric(
        "kernels.gemv_gflops",
        costs.gemv_gflops(),
        "GFLOP/s",
        1,
        &format!("replayed level GEMV at n={}", costs.n),
    );
    report.metric(
        "kernels.gemm_nt_gflops",
        costs.gemm_gflops(),
        "GFLOP/s",
        1,
        &format!("replayed surrogate GEMMs at n={}", costs.n),
    );
}

fn put_setup_stages(report: &mut Report, times: &crate::replica::SetupTimes) {
    report.metric(
        "geniex.dataset_s",
        times.dataset_s,
        "s",
        1,
        "circuit-labelled dataset (copy)",
    );
    report.metric(
        "geniex.train_s",
        times.surrogate_train_s,
        "s",
        1,
        "surrogate fit (copy)",
    );
    report.metric(
        "vision.train_s",
        times.vision_train_s,
        "s",
        1,
        "CNN training (copy)",
    );
    report.metric(
        "funcsim.program_s",
        times.program_s,
        "s",
        1,
        "tile programming (copy)",
    );
}

/// The layers' self times inside replayed compute calls, scaled to the
/// served batches. `spans` are the replayed calls' `(start, end)`;
/// `weights` how many served requests waited on each.
struct ComputeShares {
    funcsim: f64,
    geniex: f64,
    kernels: f64,
    parallel: f64,
    /// Unweighted funcsim self time over unweighted call time.
    funcsim_frac: f64,
}

fn compute_shares(
    spans: &[(u64, u64)],
    weights: &[f64],
    calls: &[Call],
    costs_by_n: &BTreeMap<usize, replay::EngineCosts>,
    tasks_per_span: &[u64],
    task_overhead_s: f64,
) -> ComputeShares {
    let mut s = ComputeShares {
        funcsim: 0.0,
        geniex: 0.0,
        kernels: 0.0,
        parallel: 0.0,
        funcsim_frac: 0.0,
    };
    let (mut self_total, mut span_total) = (0.0f64, 0.0f64);
    let mut ci = 0usize;
    for (k, &(start, end)) in spans.iter().enumerate() {
        let w = weights[k];
        while ci < calls.len() && calls[ci].start < start {
            ci += 1;
        }
        let mut inside = Vec::new();
        while ci < calls.len() && calls[ci].start < end {
            inside.push(calls[ci]);
            ci += 1;
        }
        let span_s = (end - start) as f64 * 1e-9;
        let engine_s = trace::wall_s(&inside).min(span_s);
        let kshare = inside
            .first()
            .and_then(|c| nearest(costs_by_n, c.n as usize))
            .map_or(0.0, |c| c.kernels_share());
        let parallel_s = (tasks_per_span[k] as f64 * task_overhead_s).min(span_s - engine_s);
        s.kernels += w * engine_s * kshare;
        s.geniex += w * engine_s * (1.0 - kshare);
        s.parallel += w * parallel_s;
        s.funcsim += w * (span_s - engine_s - parallel_s);
        self_total += span_s - engine_s - parallel_s;
        span_total += span_s;
    }
    s.funcsim_frac = if span_total > 0.0 {
        self_total / span_total
    } else {
        0.0
    };
    s
}

fn nearest(costs: &BTreeMap<usize, replay::EngineCosts>, n: usize) -> Option<&replay::EngineCosts> {
    costs
        .iter()
        .min_by_key(|(k, _)| (**k as i64 - n as i64).abs())
        .map(|(_, c)| c)
}

pub fn put_ledger(report: &mut Report, ledger: &Ledger) {
    for layer in ["serve", "funcsim", "geniex", "kernels", "xbar", "parallel"] {
        report.metric(
            &format!("ledger.{layer}.self_frac"),
            if ledger.e2e_s > 0.0 {
                ledger.self_s(layer) / ledger.e2e_s
            } else {
                0.0
            },
            "frac",
            1,
            "layer self time over end-to-end time",
        );
    }
    report.metric(
        "trace.unattributed_frac",
        ledger.unattributed_frac(),
        "frac",
        1,
        "end-to-end time no layer explains",
    );
}

pub fn put_overhead(report: &mut Report, untraced: f64, traced: f64, samples: u64) {
    report.metric(
        "trace.overhead_frac",
        if untraced > 0.0 {
            traced / untraced - 1.0
        } else {
            0.0
        },
        "frac",
        samples,
        "traced e2e over untraced e2e, minus 1",
    );
}

/// `serve-mvm`.
pub fn run_mvm(bin: &Path, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let cfg = serve_config();
    let Some(server) = spawn_first(bin, &mut report) else {
        return report;
    };
    let mut setups = vec![server.setup_s];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d76_6d00);
    let mut next = 0u64;
    let mut phases: Vec<Phase> = Vec::new();
    // Unmeasured warm-up, as in `serve-infer`: the steady state under
    // sustained load is what repeats from run to run.
    let warm = run_phase(
        server.addr,
        &mut rng,
        seed,
        NOMINAL_RPS,
        seconds / 3.0,
        next,
    );
    next += warm.sent.len() as u64;
    phases.push(warm);

    let nominal_s = if traced {
        seconds * 0.5
    } else {
        seconds * 0.45
    };
    let nominal = run_phase(server.addr, &mut rng, seed, NOMINAL_RPS, nominal_s, next);
    next += nominal.sent.len() as u64;
    let nominal_idx = phases.len();
    phases.push(nominal);

    let mut traced_window = None;
    if traced {
        let before = server.stats();
        let window = run_phase(server.addr, &mut rng, seed, NOMINAL_RPS, nominal_s, next);
        let after = server.stats();
        match (before, after) {
            (Ok(b), Ok(a)) => traced_window = Some((phases.len(), b, a)),
            (Err(e), _) | (_, Err(e)) => report.fail(e),
        }
        phases.push(window);
    } else {
        let step_s = seconds * 0.1;
        for &rate in &LADDER_RPS {
            let phase = run_phase(server.addr, &mut rng, seed, rate, step_s, next);
            next += phase.sent.len() as u64;
            let passed = phase.step().passes(P99_LIMIT_MS);
            phases.push(phase);
            if !passed {
                break;
            }
        }
    }
    let rss = server.peak_rss_mb();
    if let Err(e) = server.stop() {
        report.fail(e);
    }

    // Output checks run after the server is gone, so they never take
    // CPU from the measured process.
    if traced {
        let (idx, before, after) = match traced_window {
            Some(w) => w,
            None => return report,
        };
        traced_mvm(
            &mut report,
            &cfg,
            &mut phases,
            nominal_idx,
            idx,
            &before,
            &after,
        );
        report.tally = tally_phases(&phases);
        return report;
    }
    setups.extend(more_setups(bin, SETUP_SPAWNS - 1, &mut report));
    match serve::workload::build(&ServeConfig {
        model: ModelKind::None,
        ..cfg.clone()
    }) {
        Ok(oracle) => {
            if let Err(e) = check_mvm(&mut phases, &oracle) {
                report.fail(e);
            }
        }
        Err(e) => report.fail(format!("oracle build: {e}")),
    }
    report.tally = tally_phases(&phases);

    let lat = phases[nominal_idx].latencies();
    let tail_q = stats::tail_quantile(lat.len()).unwrap_or(0.99);
    let (lag50, lag) = lag_ms(&phases[nominal_idx]);
    if lag50 > MAX_GEN_LAG_P50_MS || lag > MAX_GEN_LAG_P99_MS {
        report.fail(format!(
            "generator fell behind: lag p50 {lag50:.3} ms, p99 {lag:.3} ms \
             (limits {MAX_GEN_LAG_P50_MS} / {MAX_GEN_LAG_P99_MS} ms)"
        ));
    }
    let steps: Vec<LadderStep> = phases[nominal_idx..].iter().map(Phase::step).collect();
    for s in &steps {
        eprintln!(
            "perfbench: step {:.0} req/s: p99 {:.3} ms, failed {}, drain {:.3} ms, pass {}",
            s.rate,
            s.p99_ms,
            s.failed,
            s.drain_ms,
            s.passes(P99_LIMIT_MS)
        );
    }
    let max_rps = stats::max_rps(&steps, P99_LIMIT_MS);
    let ideal = serve::workload::build(&ServeConfig {
        engine: EngineKind::Ideal,
        model: ModelKind::None,
        ..cfg
    });
    let output_err = ideal
        .map_err(|e| format!("ideal oracle: {e}"))
        .and_then(|ideal| mvm_output_err(&phases[nominal_idx], &ideal));

    eprintln!("perfbench: set-ups (s): {setups:.3?}");
    report.metric(
        "setup_s",
        stats::fastest(&setups),
        "s",
        setups.len() as u64,
        "spawn to READY, cold store (fastest of the run's spawns)",
    );
    match rss {
        Ok(mb) => report.metric("peak_rss_mb", mb, "MiB", 1, "server VmHWM"),
        Err(e) => report.fail(e),
    }
    let n = lat.len() as u64;
    report.metric(
        "p50_ms",
        stats::percentile(&lat, 0.5),
        "ms",
        n,
        &format!("Mvm latency from due time at {NOMINAL_RPS} req/s"),
    );
    report.metric(
        &format!("p{}_ms", tail_q * 100.0),
        stats::percentile(&lat, tail_q),
        "ms",
        n,
        &format!(
            "{} beyond, at {NOMINAL_RPS} req/s",
            stats::beyond(lat.len(), tail_q)
        ),
    );
    match max_rps {
        Some(r) => report.metric(
            "max_rps",
            r,
            "req/s",
            steps.len() as u64,
            &format!("ladder rate with p99 <= {P99_LIMIT_MS} ms"),
        ),
        None => report.fail("no ladder rate met the p99 limit"),
    }
    match output_err {
        Ok((err, count)) => report.metric(
            "output_err",
            err,
            "abs",
            count,
            "mean |served - ideal-crossbar| activation",
        ),
        Err(e) => report.fail(e),
    }
    report.metric(
        "gen_lag_p99_ms",
        lag,
        "ms",
        n,
        "generator lag behind schedule (not gated)",
    );
    report
}

#[allow(clippy::too_many_arguments)]
fn traced_mvm(
    report: &mut Report,
    cfg: &ServeConfig,
    phases: &mut [Phase],
    untraced_idx: usize,
    window_idx: usize,
    before: &Json,
    after: &Json,
) {
    let delta = match ServeDelta::between(before, after) {
        Ok(d) => d,
        Err(e) => return report.fail(e),
    };
    let untraced_e2e: f64 = phases[untraced_idx].latencies().iter().sum::<f64>()
        / phases[untraced_idx].sent.len().max(1) as f64;
    let window = &phases[window_idx];
    let lat = window.latencies();
    let requests = window.sent.len() as u64;
    let e2e_s: f64 = lat.iter().sum::<f64>() * 1e-3;

    telemetry::set_enabled(true);
    let rec = Recorder::new();
    let setup_before = Counters::take();
    let replica = match crate::replica::build(cfg, Arc::clone(&rec), Recorder::new()) {
        Ok(r) => r,
        Err(e) => return report.fail(e),
    };
    let setup = Counters::take().since(&setup_before);

    // Replay the window's requests in batches of the sizes the server
    // formed; every answer must match the shipped binary's.
    let sizes = delta.batch_sizes();
    let mut spans = Vec::new();
    let mut weights = Vec::new();
    let mut tasks = Vec::new();
    let mut mismatched: Vec<usize> = Vec::new();
    rec.set_on(true);
    let replay_before = Counters::take();
    let replay_start = trace::now_ns();
    let mut at = 0usize;
    for &size in sizes.iter().chain(std::iter::repeat(&1)) {
        if at >= window.sent.len() {
            break;
        }
        let end = (at + size.max(1)).min(window.sent.len());
        let codes: Vec<i64> = window.codes[at..end].concat();
        let t0 = Counters::take().counter("parallel.global.tasks");
        let start = trace::now_ns();
        let out = replica.matrix.mvm_codes(&codes, end - at);
        let stop = trace::now_ns();
        tasks.push(Counters::take().counter("parallel.global.tasks") - t0);
        match out {
            Ok(out) => {
                for (j, s) in window.sent[at..end].iter().enumerate() {
                    if s.class == Class::Ok && s.answer != out[j * cfg.m..(j + 1) * cfg.m] {
                        mismatched.push(at + j);
                    }
                }
            }
            Err(e) => return report.fail(format!("replay mvm: {e}")),
        }
        spans.push((start, stop));
        weights.push((end - at) as f64);
        at = end;
    }
    let replay_wall = (trace::now_ns() - replay_start) as f64 * 1e-9;
    rec.set_on(false);
    let replay = Counters::take().since(&replay_before);
    let calls = rec.drain();
    telemetry::set_enabled(false);
    let gen_lag = lag_ms(window).1;
    if !mismatched.is_empty() {
        report.fail(format!(
            "{} traced-copy answers differ from the shipped binary",
            mismatched.len()
        ));
    }

    let mut costs = BTreeMap::new();
    for n in [1usize, 2, 4, 8, 16] {
        match replay::engine_costs(&replica.surrogate, n) {
            Ok(c) => {
                costs.insert(n, c);
            }
            Err(e) => return report.fail(e),
        }
    }
    let overhead = replay::pool_overhead_per_task(24);
    let shares = compute_shares(&spans, &weights, &calls, &costs, &tasks, overhead);

    let server_sum_s = delta.latency_us.sum * 1e-6;
    let queue_sum_s = delta.queue_wait_us.sum * 1e-6;
    let mut ledger = Ledger::new(e2e_s);
    ledger.add("serve", (e2e_s - server_sum_s) + queue_sum_s);
    ledger.add("funcsim", shares.funcsim);
    ledger.add("geniex", shares.geniex);
    ledger.add("kernels", shares.kernels);
    ledger.add("parallel", shares.parallel);
    ledger.add("xbar", 0.0);

    let vectors: f64 = weights.iter().sum();
    let mvm_s: f64 = spans.iter().map(|(a, b)| (b - a) as f64 * 1e-9).sum();
    delta.put(report, &lat);
    let vector_calls: u64 = calls.iter().map(|c| c.n as u64).sum();
    report.metric(
        "funcsim.tile_ops_per_request",
        vector_calls as f64 / vectors.max(1.0),
        "calls",
        calls.len() as u64,
        "engine calls each request's vector rides in",
    );
    report.metric(
        "funcsim.mvm_us_per_vector",
        mvm_s / vectors.max(1.0) * 1e6,
        "us",
        vectors as u64,
        "replayed mvm_codes wall per vector",
    );
    report.metric(
        "funcsim.self_frac",
        shares.funcsim_frac,
        "frac",
        spans.len() as u64,
        "mvm wall outside engine calls and pool overhead",
    );
    let mean_n = (vectors / spans.len().max(1) as f64).round().max(1.0) as usize;
    if let Some(c) = nearest(&costs, mean_n) {
        put_engine_split(report, c, &calls, requests.max(1));
    }
    put_setup_stages(report, &replica.times);
    put_xbar(report, &Counters::default(), &setup);
    put_parallel(report, &replay, vectors as u64, replay_wall);
    put_ledger(report, &ledger);
    put_overhead(
        report,
        untraced_e2e,
        e2e_s * 1e3 / requests.max(1) as f64,
        requests,
    );
    report.metric(
        "gen_lag_p99_ms",
        gen_lag,
        "ms",
        requests,
        "generator lag behind schedule",
    );
    for i in mismatched {
        phases[window_idx].sent[i].class = Class::Mismatch;
    }
}

/// The image shape of the model the server is configured with.
fn served_image_shape(cfg: &ServeConfig) -> Option<[usize; 3]> {
    match cfg.model {
        ModelKind::SynthS => {
            let (c, h, w) = SynthSpec::SynthS.image_shape();
            Some([c, h, w])
        }
        ModelKind::None => None,
    }
}

/// `serve-infer`.
pub fn run_infer(bin: &Path, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    let cfg = serve_config();
    let Some(shape) = served_image_shape(&cfg) else {
        report.fail("the served configuration has no model");
        return report;
    };
    let Some(server) = spawn_first(bin, &mut report) else {
        return report;
    };
    let mut setups = vec![server.setup_s];
    let image = move |i: u64| serve::workload::request_image(shape, seed, i);
    let warm_seed = seed ^ 0x5741_524d;
    let warm_image = move |i: u64| serve::workload::request_image(shape, warm_seed, i);
    // Unmeasured warm-up (see `INFER_WARMUP_FRAC`).
    let warm = server::closed_loop_infer(
        server.addr,
        shape,
        &warm_image,
        warm_seed,
        Duration::from_secs_f64(seconds * INFER_WARMUP_FRAC),
    );
    let measured = Duration::from_secs_f64(seconds * (1.0 - INFER_WARMUP_FRAC));

    let (untraced_calls, traced_window) = if traced {
        let untraced = server::closed_loop_infer(server.addr, shape, &image, seed, measured / 2);
        let before = server.stats();
        let offset = untraced.len() as u64 + 2;
        let shifted = move |i: u64| serve::workload::request_image(shape, seed, i + offset);
        let window =
            server::closed_loop_infer(server.addr, shape, &shifted, seed ^ offset, measured / 2);
        let after = server.stats();
        (untraced, Some((window, before, after, offset)))
    } else {
        (
            server::closed_loop_infer(server.addr, shape, &image, seed, measured),
            None,
        )
    };
    // Before the probes, whose connection would add a server thread.
    let rss = server.peak_rss_mb();
    let (probe_images, mut probes) = if traced {
        (Vec::new(), Vec::new())
    } else {
        let images: Vec<Vec<f32>> = (0..INFER_PROBES)
            .map(|i| serve::workload::request_image(shape, PROBE_SEED, i))
            .collect();
        let answers = server::infer_each(server.addr, shape, &images);
        (images, answers)
    };
    if let Err(e) = server.stop() {
        report.fail(e);
    }
    let mut tally = Tally::default();
    for c in warm.iter().chain(&untraced_calls).chain(&probes) {
        tally.add(c.class);
    }

    if let Some((window, before, after, offset)) = traced_window {
        for c in &window {
            tally.add(c.class);
        }
        let (before, after) = match (before, after) {
            (Ok(b), Ok(a)) => (b, a),
            (Err(e), _) | (_, Err(e)) => {
                report.fail(e);
                report.tally = tally;
                return report;
            }
        };
        traced_infer(
            &mut report,
            &cfg,
            seed,
            shape,
            &untraced_calls,
            &window,
            offset,
            &before,
            &after,
            &mut tally,
        );
        report.tally = tally;
        return report;
    }

    setups.extend(more_setups(bin, SETUP_SPAWNS - 1, &mut report));

    // Check a seeded sample of answers and every probe bit for bit.
    let mut calls = untraced_calls;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6368_6b00);
    let mut sample: Vec<usize> = Vec::new();
    let ok: Vec<usize> = (0..calls.len())
        .filter(|&i| calls[i].class == Class::Ok)
        .collect();
    while sample.len() < INFER_CHECKS.min(ok.len()) {
        let pick = ok[rng.gen_range(0..ok.len())];
        if !sample.contains(&pick) {
            sample.push(pick);
        }
    }
    sample.sort_unstable();
    let mut output_err = Err("no answers to compare".to_string());
    match serve::workload::build(&cfg) {
        Ok(oracle) => {
            let net = oracle.network.as_ref().expect("oracle has the model");
            for &i in &sample {
                let pixels = image(calls[i].index);
                if let Err(e) = check_answer(net, shape, &mut calls[i], &pixels, &mut tally) {
                    report.fail(e);
                }
            }
            for (p, pixels) in probes.iter_mut().zip(&probe_images) {
                if let Err(e) = check_answer(net, shape, p, pixels, &mut tally) {
                    report.fail(e);
                }
            }
            for c in calls.iter().chain(&probes) {
                if c.class == Class::Ok && c.logits.iter().any(|v| !v.is_finite()) {
                    report.fail(format!("non-finite logit in answer #{}", c.index));
                }
            }
            drop(oracle);
            output_err = serve::workload::build(&ServeConfig {
                engine: EngineKind::Ideal,
                ..cfg.clone()
            })
            .map_err(|e| format!("ideal oracle: {e}"))
            .and_then(|ideal| {
                let net = ideal.network.as_ref().expect("ideal oracle has the model");
                let mut sum = 0.0f64;
                let mut count = 0u64;
                for (p, pixels) in probes.iter().zip(&probe_images) {
                    if p.class != Class::Ok {
                        continue;
                    }
                    let ideal_logits = forward_one(net, shape, pixels)?;
                    for (a, b) in p.logits.iter().zip(&ideal_logits) {
                        sum += (a - b).abs() as f64;
                        count += 1;
                    }
                }
                if count == 0 {
                    return Err("no probe answered".to_string());
                }
                Ok((sum / count as f64, count))
            });
        }
        Err(e) => report.fail(format!("oracle build: {e}")),
    }
    report.tally = tally;

    // Latency and rate per window of the run, reported as medians over
    // the windows.
    let mut done_lat: Vec<(u64, f64)> = calls
        .iter()
        .map(|c| {
            let lat = if c.class == Class::Ok {
                c.latency_ms()
            } else {
                f64::INFINITY
            };
            (c.done, lat)
        })
        .collect();
    done_lat.sort_by_key(|&(done, _)| done);
    let start = calls.iter().map(|c| c.start).min().unwrap_or(0);
    let windows = stats::windows(&done_lat, start, INFER_WINDOWS, 100);
    let of =
        |f: fn(&stats::Window) -> f64| stats::median(&windows.iter().map(f).collect::<Vec<_>>());
    let n = done_lat.len() as u64;
    let mut lat: Vec<f64> = done_lat.iter().map(|&(_, l)| l).collect();
    lat.sort_by(f64::total_cmp);
    eprintln!(
        "perfbench: Infer latency ms p50 {:.1} p75 {:.1} p85 {:.1} p90 {:.1} p95 {:.1} p99 {:.1} (n={})",
        stats::percentile(&lat, 0.5),
        stats::percentile(&lat, 0.75),
        stats::percentile(&lat, 0.85),
        stats::percentile(&lat, 0.9),
        stats::percentile(&lat, 0.95),
        stats::percentile(&lat, 0.99),
        lat.len()
    );
    eprintln!("perfbench: set-ups (s): {setups:.3?}");
    report.metric(
        "setup_s",
        stats::fastest(&setups),
        "s",
        setups.len() as u64,
        "spawn to READY, cold store (fastest of the run's spawns)",
    );
    match rss {
        Ok(mb) => report.metric("peak_rss_mb", mb, "MiB", 1, "server VmHWM"),
        Err(e) => report.fail(e),
    }
    report.metric(
        "p50_ms",
        of(|w| w.p50_ms),
        "ms",
        n,
        &format!(
            "Infer latency, 2 closed-loop callers (median of {} windows)",
            windows.len()
        ),
    );
    let beyond = stats::beyond(lat.len(), INFER_TAIL_Q);
    if beyond >= stats::TAIL_BEYOND {
        report.metric(
            "tail_ms",
            stats::percentile(&lat, INFER_TAIL_Q),
            "ms",
            n,
            &format!("p{} ({beyond} beyond)", INFER_TAIL_Q * 100.0),
        );
    } else {
        report.fail(format!(
            "{n} Infer samples leave {beyond} beyond p{}",
            INFER_TAIL_Q * 100.0
        ));
    }
    report.metric(
        "images_per_s",
        of(|w| w.per_s),
        "images/s",
        n,
        &format!(
            "completed Infer responses per second (median of {} windows)",
            windows.len()
        ),
    );
    match output_err {
        Ok((err, count)) => report.metric(
            "logit_err",
            err,
            "logit",
            count,
            "mean |served - ideal-crossbar| logit over the fixed probes",
        ),
        Err(e) => report.fail(e),
    }
    report
}

/// Checks an answered call bit for bit against `net`, marking it a
/// mismatch when it differs.
fn check_answer(
    net: &CrossbarNetwork,
    shape: [usize; 3],
    call: &mut server::Call,
    pixels: &[f32],
    tally: &mut Tally,
) -> Result<(), String> {
    if call.class == Class::Ok && forward_one(net, shape, pixels)? != call.logits {
        tally.mismatch += 1;
        tally.ok -= 1;
        call.class = Class::Mismatch;
    }
    Ok(())
}

fn forward_one(
    net: &CrossbarNetwork,
    shape: [usize; 3],
    pixels: &[f32],
) -> Result<Vec<f32>, String> {
    let images = Tensor::from_vec(pixels.to_vec(), &[1, shape[0], shape[1], shape[2]])
        .map_err(|e| e.to_string())?;
    net.forward(&images)
        .map(|t| t.data().to_vec())
        .map_err(|e| format!("oracle forward: {e}"))
}

#[allow(clippy::too_many_arguments)]
fn traced_infer(
    report: &mut Report,
    cfg: &ServeConfig,
    seed: u64,
    shape: [usize; 3],
    untraced: &[server::Call],
    window: &[server::Call],
    offset: u64,
    before: &Json,
    after: &Json,
    tally: &mut Tally,
) {
    let delta = match ServeDelta::between(before, after) {
        Ok(d) => d,
        Err(e) => return report.fail(e),
    };
    let mean_ms = |calls: &[server::Call]| {
        calls.iter().map(|c| c.latency_ms()).sum::<f64>() / calls.len().max(1) as f64
    };
    let mut lat: Vec<f64> = window.iter().map(|c| c.latency_ms()).collect();
    lat.sort_by(f64::total_cmp);
    let e2e_s = lat.iter().sum::<f64>() * 1e-3;

    telemetry::set_enabled(true);
    let net_rec = Recorder::new();
    let setup_before = Counters::take();
    let replica = match crate::replica::build(cfg, Recorder::new(), Arc::clone(&net_rec)) {
        Ok(r) => r,
        Err(e) => return report.fail(e),
    };
    let setup = Counters::take().since(&setup_before);
    let net = replica.network.as_ref().expect("copy has the model");

    // Replay a seeded sample of the window's images in batches of the
    // sizes the server formed.
    let sizes = delta.batch_sizes();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7472_6300);
    let ok: Vec<&server::Call> = window.iter().filter(|c| c.class == Class::Ok).collect();
    let want = INFER_CHECKS.min(ok.len());
    let first = if ok.len() > want {
        rng.gen_range(0..=ok.len() - want)
    } else {
        0
    };
    let sample = &ok[first..first + want];
    let mut spans = Vec::new();
    let mut weights = Vec::new();
    let mut tasks = Vec::new();
    net_rec.set_on(true);
    let replay_before = Counters::take();
    let replay_start = trace::now_ns();
    let mut at = 0usize;
    let mut size_iter = sizes
        .iter()
        .copied()
        .filter(|&s| s > 0)
        .chain(std::iter::repeat(1));
    while at < sample.len() {
        let size = size_iter.next().unwrap_or(1);
        let end = (at + size).min(sample.len());
        let mut pixels = Vec::new();
        for c in &sample[at..end] {
            pixels.extend(serve::workload::request_image(
                shape,
                seed,
                c.index + offset,
            ));
        }
        let images = match Tensor::from_vec(pixels, &[end - at, shape[0], shape[1], shape[2]]) {
            Ok(t) => t,
            Err(e) => return report.fail(e.to_string()),
        };
        let t0 = Counters::take().counter("parallel.global.tasks");
        let start = trace::now_ns();
        let out = net.forward(&images);
        let stop = trace::now_ns();
        tasks.push(Counters::take().counter("parallel.global.tasks") - t0);
        match out {
            Ok(logits) => {
                let classes = logits.shape()[1];
                for (j, c) in sample[at..end].iter().enumerate() {
                    if logits.data()[j * classes..(j + 1) * classes] != c.logits[..] {
                        tally.mismatch += 1;
                        tally.ok -= 1;
                        report.fail(format!("traced-copy logits differ for answer #{}", c.index));
                    }
                }
            }
            Err(e) => return report.fail(format!("replay forward: {e}")),
        }
        spans.push((start, stop));
        weights.push((end - at) as f64);
        at = end;
    }
    let replay_wall = (trace::now_ns() - replay_start) as f64 * 1e-9;
    net_rec.set_on(false);
    let replay = Counters::take().since(&replay_before);
    let calls = net_rec.drain();
    telemetry::set_enabled(false);

    let mut costs = BTreeMap::new();
    for n in [36usize, 144] {
        match replay::engine_costs(&replica.surrogate, n) {
            Ok(c) => {
                costs.insert(n, c);
            }
            Err(e) => return report.fail(e),
        }
    }
    let overhead = replay::pool_overhead_per_task(8);

    // Served compute per request, scaled to the replayed sample.
    let images: f64 = weights.iter().sum();
    let served = ok.len() as f64;
    let scale = if images > 0.0 { served / images } else { 0.0 };
    let shares = compute_shares(&spans, &weights, &calls, &costs, &tasks, overhead);
    let server_sum_s = delta.latency_us.sum * 1e-6;
    let queue_sum_s = delta.queue_wait_us.sum * 1e-6;
    let mut ledger = Ledger::new(e2e_s);
    ledger.add("serve", (e2e_s - server_sum_s) + queue_sum_s);
    ledger.add("funcsim", shares.funcsim * scale);
    ledger.add("geniex", shares.geniex * scale);
    ledger.add("kernels", shares.kernels * scale);
    ledger.add("parallel", shares.parallel * scale);
    ledger.add("xbar", 0.0);

    let forward_s: f64 = spans.iter().map(|(a, b)| (b - a) as f64 * 1e-9).sum();
    delta.put(report, &lat);
    report.metric(
        "funcsim.tile_ops_per_request",
        calls.len() as f64 / images.max(1.0),
        "calls",
        calls.len() as u64,
        "engine calls per image (replayed)",
    );
    report.metric(
        "funcsim.forward_ms_per_image",
        forward_s / images.max(1.0) * 1e3,
        "ms",
        images as u64,
        "replayed CrossbarNetwork::forward wall per image",
    );
    report.metric(
        "funcsim.self_frac",
        shares.funcsim_frac,
        "frac",
        spans.len() as u64,
        "forward wall outside engine calls and pool overhead",
    );
    put_layer_engine(report, &replica.layers, &calls, images);
    let vectors: u64 = calls.iter().map(|c| c.n as u64).sum();
    let mean_n = (vectors as f64 / calls.len().max(1) as f64).round() as usize;
    if let Some(c) = nearest(&costs, mean_n) {
        put_engine_split(report, c, &calls, images as u64);
    }
    put_setup_stages(report, &replica.times);
    put_xbar(report, &Counters::default(), &setup);
    put_parallel(report, &replay, images as u64, replay_wall);
    put_ledger(report, &ledger);
    put_overhead(
        report,
        mean_ms(untraced),
        mean_ms(window),
        window.len() as u64,
    );
}

/// Engine wall time per image of each programmed DNN layer (tiles are
/// programmed in layer order, so tile ids map to layers).
pub fn put_layer_engine(
    report: &mut Report,
    layers: &[(String, u32)],
    calls: &[Call],
    images: f64,
) {
    let mut first = 0u32;
    for (label, tiles) in layers {
        let range = first..first + tiles;
        let mine: Vec<Call> = calls
            .iter()
            .filter(|c| range.contains(&c.tile))
            .copied()
            .collect();
        report.metric(
            &format!("funcsim.layer.{label}.engine_ms"),
            trace::wall_s(&mine) / images.max(1.0) * 1e3,
            "ms",
            mine.len() as u64,
            "engine wall per image in this layer",
        );
        first += tiles;
    }
}
