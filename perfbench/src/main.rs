//! `perfbench` — the repository benchmark: served `Mvm` and `Infer`
//! requests against the shipped `geniex-serve` binary, and a circuit
//! ground-truth figure run in process.
//!
//! ```text
//! perfbench --workload serve-mvm|serve-infer|truth-eval --seed N
//!           --seconds S --trace 0|1 --serve-bin PATH
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a
//! separate run that attributes the time to layers. Either way the last
//! stdout line is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`; the exit code is non-zero when `correct` is false.
//! `perfbench/run.py` builds everything and calls this.

mod replay;
mod replica;
mod report;
mod serve_bench;
mod server;
mod stats;
mod trace;
mod truth;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        serve_bin: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => args.trace = value()? == "1",
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    // Pinned before anything reads them: the global pool sizes itself
    // from GENIEX_THREADS on first use.
    for (k, v) in server::PINNED_ENV {
        std::env::set_var(k, v);
    }
    std::env::remove_var("GENIEX_TRACE");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A run must end within its time budget even if the server stops
    // answering; exiting also closes every socket we hold.
    std::thread::spawn(|| {
        std::thread::sleep(Duration::from_secs(170));
        eprintln!("perfbench: watchdog: run exceeded 170 s");
        server::kill_live();
        std::process::exit(3);
    });
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} (GENIEX_THREADS=2, GENIEX_STORE=off)",
        args.workload, args.seed, args.seconds, args.trace
    );
    let serve_bin = || {
        args.serve_bin
            .clone()
            .ok_or_else(|| "serve workloads need --serve-bin".to_string())
    };
    let report = match args.workload.as_str() {
        "serve-mvm" => match serve_bin() {
            Ok(bin) => serve_bench::run_mvm(&bin, args.seed, args.seconds, args.trace),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        },
        "serve-infer" => match serve_bin() {
            Ok(bin) => serve_bench::run_infer(&bin, args.seed, args.seconds, args.trace),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        },
        "truth-eval" => truth::run(args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };
    report.print(&args.workload);
    // A run whose outputs failed their checks (oracle mismatch,
    // non-finite logit, failed request) still prints its result, then
    // exits non-zero.
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
