//! Conformance laws for the non-ideality zoo (`xbar::zoo`).
//!
//! Every zoo model is held to the same contract: zero strength is the
//! *exact* identity, the same seed always reproduces the same draw at
//! any thread count, adding a model never perturbs another model's
//! draws, and degradation is monotone in strength.

use crate::gen;
use crate::{Category, Law};
use proptest::TestRng;
use xbar::zoo::{ConductanceDrift, LognormalSpread, NonIdealityStack, ReadNoise, StuckAtFaults};
use xbar::{ConductanceMatrix, CrossbarParams, XbarError};

pub(crate) fn laws() -> Vec<Box<dyn Law>> {
    vec![
        Box::new(ZeroStrengthIdentity),
        Box::new(SeedDeterminism),
        Box::new(StreamIndependence),
        Box::new(MonotoneDegradation),
        Box::new(ReadBatchInvariance),
    ]
}

/// Samples a small crossbar design plus a target conductance pattern
/// with levels strictly inside `(0, 1)`, so a stuck cell (at exactly
/// `g_off` or `g_on`) is always distinguishable from a spread one.
fn random_target(rng: &mut TestRng) -> Result<(CrossbarParams, ConductanceMatrix), XbarError> {
    let rows = gen::usize_in(rng, 4, 12);
    let cols = gen::usize_in(rng, 4, 12);
    let params = CrossbarParams::builder(rows, cols).build()?;
    let levels = gen::vec_f64(rng, rows * cols, 0.05, 0.95);
    let g = ConductanceMatrix::from_levels(&params, &levels)?;
    Ok((params, g))
}

/// Every model at zero strength must be the exact identity — at both
/// lifecycle hooks, with no tolerance.
struct ZeroStrengthIdentity;

impl Law for ZeroStrengthIdentity {
    fn name(&self) -> &'static str {
        "invariant/zoo_zero_strength_identity"
    }
    fn category(&self) -> Category {
        Category::Invariant
    }
    fn tolerance(&self) -> &'static str {
        "exact bit identity (==) for conductances and currents at strength 0"
    }
    fn check(&self, rng: &mut TestRng) -> Result<(), String> {
        let (params, target) = random_target(rng).map_err(|e| e.to_string())?;
        let stack = NonIdealityStack::new(rng.next_u64())
            .with_model(Box::new(LognormalSpread { sigma: 0.0 }))
            .and_then(|s| {
                s.with_model(Box::new(StuckAtFaults {
                    stuck_off_rate: 0.0,
                    stuck_on_rate: 0.0,
                }))
            })
            .and_then(|s| {
                // t == t0 zeroes the drift strength even with nu > 0.
                s.with_model(Box::new(ConductanceDrift {
                    t: 1.0,
                    t0: 1.0,
                    nu: gen::f64_in(rng, 0.0, 0.5),
                }))
            })
            .and_then(|s| s.with_model(Box::new(ReadNoise { sigma: 0.0 })))
            .map_err(|e| e.to_string())?;
        if !stack.is_identity() {
            return Err("zero-strength stack does not report is_identity".into());
        }
        let tile = rng.next_u64() % 16;
        let programmed = stack
            .program(&params, &target, tile)
            .map_err(|e| e.to_string())?;
        if programmed != target {
            return Err("zero-strength programming changed the conductances".into());
        }
        let mut currents = gen::vec_f64(rng, params.cols, 0.0, 1e-4);
        let before = currents.clone();
        stack
            .read(&params, &mut currents, tile, rng.next_u64() % 64)
            .map_err(|e| e.to_string())?;
        if currents != before {
            return Err("zero-strength read stage changed the currents".into());
        }
        Ok(())
    }
}

/// Same seed → same draw, different seed → different draw, and tiles
/// programmed through an 8-thread pool must match the serial order
/// bit-for-bit (the sub-streams are keyed by tile index, not by
/// execution order).
struct SeedDeterminism;

impl Law for SeedDeterminism {
    fn name(&self) -> &'static str {
        "invariant/zoo_seed_determinism"
    }
    fn category(&self) -> Category {
        Category::Invariant
    }
    fn tolerance(&self) -> &'static str {
        "exact bit identity (==) across repeats and across 1- vs 8-thread programming"
    }
    fn cases(&self) -> u64 {
        8
    }
    fn check(&self, rng: &mut TestRng) -> Result<(), String> {
        let (params, target) = random_target(rng).map_err(|e| e.to_string())?;
        let seed = rng.next_u64();
        let build = |seed: u64| -> Result<NonIdealityStack, XbarError> {
            NonIdealityStack::new(seed)
                .with_model(Box::new(LognormalSpread { sigma: 0.2 }))?
                .with_model(Box::new(StuckAtFaults {
                    stuck_off_rate: 0.05,
                    stuck_on_rate: 0.05,
                }))?
                .with_model(Box::new(ConductanceDrift {
                    t: 100.0,
                    t0: 1.0,
                    nu: 0.05,
                }))
        };
        let stack = build(seed).map_err(|e| e.to_string())?;
        let tiles: Vec<u64> = (0..8).collect();
        let serial: Vec<ConductanceMatrix> = tiles
            .iter()
            .map(|&t| stack.program(&params, &target, t))
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?;
        let repeat = stack
            .program(&params, &target, tiles[0])
            .map_err(|e| e.to_string())?;
        if repeat != serial[0] {
            return Err("same seed and tile drew a different pattern on repeat".into());
        }
        let other_seed = build(seed ^ 0x5555_5555_5555_5555)
            .map_err(|e| e.to_string())?
            .program(&params, &target, tiles[0])
            .map_err(|e| e.to_string())?;
        if other_seed == serial[0] {
            return Err("different stack seeds drew identical patterns".into());
        }
        let pool = parallel::ThreadPool::new(8);
        let threaded = pool.par_map_grained(&tiles, 1, |&t| stack.program(&params, &target, t));
        for (i, (s, t)) in serial.iter().zip(&threaded).enumerate() {
            match t {
                Ok(t) if t == s => {}
                Ok(_) => {
                    return Err(format!(
                        "tile {i} programmed through the 8-thread pool diverged from serial"
                    ))
                }
                Err(e) => return Err(format!("threaded programming failed: {e}")),
            }
        }
        Ok(())
    }
}

/// Adding a model must never perturb another model's draws: in a
/// `[lognormal]` vs `[lognormal, stuck_at]` stack under one seed,
/// every cell the fault pass left alone carries the identical spread
/// sample (one shared stream would violate exactly this).
struct StreamIndependence;

impl Law for StreamIndependence {
    fn name(&self) -> &'static str {
        "invariant/zoo_stream_independence"
    }
    fn category(&self) -> Category {
        Category::Invariant
    }
    fn tolerance(&self) -> &'static str {
        "exact bit identity (==) of non-stuck cells when stuck_at joins the stack"
    }
    fn check(&self, rng: &mut TestRng) -> Result<(), String> {
        let (params, target) = random_target(rng).map_err(|e| e.to_string())?;
        let seed = rng.next_u64();
        let sigma = gen::f64_in(rng, 0.05, 0.3);
        let tile = rng.next_u64() % 16;
        let lone = NonIdealityStack::new(seed)
            .with_model(Box::new(LognormalSpread { sigma }))
            .map_err(|e| e.to_string())?
            .program(&params, &target, tile)
            .map_err(|e| e.to_string())?;
        let composed = NonIdealityStack::new(seed)
            .with_model(Box::new(LognormalSpread { sigma }))
            .and_then(|s| {
                s.with_model(Box::new(StuckAtFaults {
                    stuck_off_rate: 0.15,
                    stuck_on_rate: 0.1,
                }))
            })
            .map_err(|e| e.to_string())?
            .program(&params, &target, tile)
            .map_err(|e| e.to_string())?;
        let (g_on, g_off) = (params.g_on(), params.g_off());
        let mut unstuck = 0usize;
        for (i, (a, b)) in lone.as_slice().iter().zip(composed.as_slice()).enumerate() {
            // Target levels sit strictly inside (g_off, g_on) and the
            // spread clamps at g_on, so a composed cell at exactly
            // g_off is stuck and one at exactly g_on is stuck or
            // clamped; everything else must carry the lone draw.
            if *b != g_on && *b != g_off {
                if a != b {
                    return Err(format!(
                        "cell {i}: lognormal draw shifted from {a} to {b} when \
                         stuck_at joined the stack (seed {seed}, sigma {sigma})"
                    ));
                }
                unstuck += 1;
            }
        }
        if unstuck == 0 {
            return Err("degenerate sample: every cell stuck".into());
        }
        Ok(())
    }
}

/// Degradation is monotone in strength: drift attenuates every cell
/// non-increasingly along a time ladder (and strictly at nu > 0), a
/// larger drift exponent attenuates at least as much, and the
/// aggregate lognormal displacement grows with sigma.
struct MonotoneDegradation;

impl Law for MonotoneDegradation {
    fn name(&self) -> &'static str {
        "invariant/zoo_monotone_degradation"
    }
    fn category(&self) -> Category {
        Category::Invariant
    }
    fn tolerance(&self) -> &'static str {
        "per-cell g(t) non-increasing over t in {1,10,100,1000}·t0 and over nu; \
         aggregate lognormal displacement non-decreasing over sigma (same seed)"
    }
    fn check(&self, rng: &mut TestRng) -> Result<(), String> {
        let (params, target) = random_target(rng).map_err(|e| e.to_string())?;
        let tile = rng.next_u64() % 16;
        let nu = gen::f64_in(rng, 0.02, 0.2);
        let drifted = |t: f64, nu: f64| -> Result<ConductanceMatrix, String> {
            NonIdealityStack::new(0)
                .with_model(Box::new(ConductanceDrift { t, t0: 1.0, nu }))
                .map_err(|e| e.to_string())?
                .program(&params, &target, tile)
                .map_err(|e| e.to_string())
        };
        let ladder: Vec<ConductanceMatrix> = [1.0, 10.0, 100.0, 1000.0]
            .iter()
            .map(|&t| drifted(t, nu))
            .collect::<Result<_, _>>()?;
        for w in ladder.windows(2) {
            for (i, (a, b)) in w[0].as_slice().iter().zip(w[1].as_slice()).enumerate() {
                if b > a {
                    return Err(format!(
                        "drift not monotone in t at cell {i}: {b} > {a} (nu {nu})"
                    ));
                }
            }
        }
        for (i, (a, b)) in ladder[0]
            .as_slice()
            .iter()
            .zip(ladder[3].as_slice())
            .enumerate()
        {
            if b >= a {
                return Err(format!(
                    "drift at nu {nu} not strict over 3 decades at cell {i}: {b} >= {a}"
                ));
            }
        }
        let deeper = drifted(1000.0, nu * 2.0)?;
        for (i, (a, b)) in ladder[3]
            .as_slice()
            .iter()
            .zip(deeper.as_slice())
            .enumerate()
        {
            if b > a {
                return Err(format!("drift not monotone in nu at cell {i}: {b} > {a}"));
            }
        }
        // Lognormal: same seed, same z per cell — displacement sum
        // grows with sigma.
        let seed = rng.next_u64();
        let displacement = |sigma: f64| -> Result<f64, String> {
            let spread = NonIdealityStack::new(seed)
                .with_model(Box::new(LognormalSpread { sigma }))
                .map_err(|e| e.to_string())?
                .program(&params, &target, tile)
                .map_err(|e| e.to_string())?;
            Ok(spread
                .as_slice()
                .iter()
                .zip(target.as_slice())
                .map(|(a, b)| (a - b).abs())
                .sum())
        };
        let (d0, d1, d2) = (displacement(0.0)?, displacement(0.1)?, displacement(0.3)?);
        if !(d0 == 0.0 && d0 <= d1 && d1 <= d2) {
            return Err(format!(
                "lognormal displacement not monotone in sigma: {d0} / {d1} / {d2}"
            ));
        }
        Ok(())
    }
}

/// Read noise through the funcsim `ZooEngine` must be sample-indexed,
/// not call-indexed: a batch of n MVMs is bit-identical to n single
/// MVMs on an identically seeded engine — and actually noisy.
struct ReadBatchInvariance;

impl Law for ReadBatchInvariance {
    fn name(&self) -> &'static str {
        "metamorphic/zoo_read_batch_invariance"
    }
    fn category(&self) -> Category {
        Category::Metamorphic
    }
    fn tolerance(&self) -> &'static str {
        "exact bit identity (==) between batch-of-n and n single MVMs; noise must perturb"
    }
    fn cases(&self) -> u64 {
        8
    }
    fn check(&self, rng: &mut TestRng) -> Result<(), String> {
        use funcsim::{CrossbarEngine, IdealEngine, ZooEngine};
        let rows = gen::usize_in(rng, 4, 8);
        let cols = gen::usize_in(rng, 4, 8);
        let params = CrossbarParams::builder(rows, cols)
            .build()
            .map_err(|e| e.to_string())?;
        let seed = rng.next_u64();
        let sigma = gen::f64_in(rng, 0.01, 0.1);
        let engine = |seed: u64| -> Result<ZooEngine<IdealEngine>, String> {
            Ok(ZooEngine::new(
                IdealEngine,
                NonIdealityStack::new(seed)
                    .with_model(Box::new(ReadNoise { sigma }))
                    .map_err(|e| e.to_string())?,
            ))
        };
        let g: Vec<f32> = gen::vec_f32(rng, rows * cols, 0.1, 1.0);
        let n = gen::usize_in(rng, 2, 5);
        let panel: Vec<f32> = gen::vec_f32(rng, n * rows, 0.0, 1.0);
        let batched = engine(seed)?
            .program(&params, &g)
            .map_err(|e| e.to_string())?
            .currents_batch(&panel, n)
            .map_err(|e| e.to_string())?;
        let tile = engine(seed)?
            .program(&params, &g)
            .map_err(|e| e.to_string())?;
        let mut singles = Vec::with_capacity(n * cols);
        for chunk in panel.chunks(rows) {
            singles.extend(tile.currents_batch(chunk, 1).map_err(|e| e.to_string())?);
        }
        if batched != singles {
            return Err(format!(
                "batch of {n} diverged from {n} singles (seed {seed}, sigma {sigma})"
            ));
        }
        let clean = IdealEngine
            .program(&params, &g)
            .map_err(|e| e.to_string())?
            .currents_batch(&panel, n)
            .map_err(|e| e.to_string())?;
        if batched == clean {
            return Err("read noise at sigma > 0 left the currents untouched".into());
        }
        Ok(())
    }
}
