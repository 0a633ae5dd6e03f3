//! The pluggable non-ideality zoo.
//!
//! The paper notes that non-ideality effects "get exacerbated further
//! due to the device variations" (Section 1), and GENIEx's thesis is
//! generalization across *many* non-ideality regimes. A fixed, fused
//! menu of imperfections does not compose and cannot express effects
//! that act at other points of a tile's lifetime, so this module
//! factors every imperfection into a [`NonIdeality`] — a pluggable,
//! seeded transform with a declared lifecycle [`Stage`]:
//!
//! * **Programming-time** — applied once when a target conductance
//!   pattern is written: [`LognormalSpread`] and [`StuckAtFaults`].
//! * **Time-dependent** — applied to the programmed state as a
//!   function of elapsed time: [`ConductanceDrift`],
//!   `g(t) = g0 · (t/t0)^{-ν}`.
//! * **Read-time** — applied per MVM evaluation: [`ReadNoise`].
//!
//! Models compose through a [`NonIdealityStack`], which applies them
//! in lifecycle order (programming, then time-dependent at
//! [`NonIdealityStack::program`]; read-time at
//! [`NonIdealityStack::read`]).
//!
//! # Seeding
//!
//! Every stochastic model draws from its own [`ModelRng`] sub-stream,
//! derived from `(stack seed XOR fnv1a64(model name), case index)` —
//! the same SplitMix64 scheme `conformance::case_rng` uses to
//! de-correlate laws. Because streams are keyed by *name*, adding or
//! removing one model never perturbs another model's draws (one
//! shared stream would interleave the draws, so enabling stuck-at
//! faults would shift every spread sample). The case index is
//! the tile number for programming-stage models and a `(tile, sample)`
//! mix for read-stage models, so tiles can be programmed in parallel
//! in any order with bit-identical results.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), xbar::XbarError> {
//! use xbar::zoo::{ConductanceDrift, LognormalSpread, NonIdealityStack};
//! use xbar::{ConductanceMatrix, CrossbarParams};
//!
//! let params = CrossbarParams::builder(8, 8).build()?;
//! let stack = NonIdealityStack::new(42)
//!     .with_model(Box::new(LognormalSpread { sigma: 0.1 }))?
//!     .with_model(Box::new(ConductanceDrift { t: 1e3, t0: 1.0, nu: 0.05 }))?;
//! let target = ConductanceMatrix::uniform(8, 8, params.g_on() * 0.5);
//! let programmed = stack.program(&params, &target, 0)?;
//! assert_ne!(programmed, target);
//! # Ok(())
//! # }
//! ```

use crate::conductance::ConductanceMatrix;
use crate::params::CrossbarParams;
use crate::XbarError;
use store::fnv1a64;

/// Lifecycle stage at which a non-ideality acts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Applied once when the target pattern is written to the tile.
    Programming,
    /// Applied to the programmed state as a function of elapsed time.
    TimeDependent,
    /// Applied to the output currents of every MVM evaluation.
    ReadTime,
}

/// A deterministic SplitMix64 sub-stream private to one model.
///
/// Construction mirrors `conformance::case_rng`: the stack seed is
/// XORed with an FNV-1a hash of the model name (so differently named
/// models see de-correlated streams under the same seed), run through
/// one SplitMix64 round (so structurally close seeds land far apart),
/// and mixed with the case index.
#[derive(Debug, Clone)]
pub struct ModelRng {
    state: u64,
}

impl ModelRng {
    /// The generator for `case` of the model named `name` under
    /// `seed`. For programming-stage models the case is the tile
    /// index; read-stage models mix tile and sample into one case.
    pub fn for_model(seed: u64, name: &str, case: u64) -> Self {
        let mut z = (seed ^ fnv1a64(name.as_bytes())).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ModelRng {
            state: 0xA076_1D64_78BD_642F ^ z ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit word (SplitMix64).
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard-normal sample via Box–Muller.
    pub fn standard_normal(&mut self) -> f64 {
        // `1 - u` maps [0, 1) onto (0, 1] so the log never sees zero.
        let u1 = 1.0 - self.unit_f64();
        let u2 = self.unit_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

/// Context for one programming/time-stage application.
#[derive(Debug, Clone, Copy)]
pub struct ProgramCtx {
    /// The stack seed every model's sub-stream derives from.
    pub seed: u64,
    /// Index of the tile being programmed.
    pub tile: u64,
}

impl ProgramCtx {
    /// The per-model generator for this tile.
    pub fn rng(&self, model: &str) -> ModelRng {
        ModelRng::for_model(self.seed, model, self.tile)
    }
}

/// Context for one read-stage application (a single MVM sample).
#[derive(Debug, Clone, Copy)]
pub struct ReadCtx {
    /// The stack seed every model's sub-stream derives from.
    pub seed: u64,
    /// Index of the tile being read.
    pub tile: u64,
    /// Monotone per-tile sample counter, so a batch of n MVMs draws
    /// the same noise as n single MVMs issued in the same order.
    pub sample: u64,
}

impl ReadCtx {
    /// The per-model generator for this `(tile, sample)` pair.
    pub fn rng(&self, model: &str) -> ModelRng {
        let case = self
            .sample
            .wrapping_add(self.tile.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        ModelRng::for_model(self.seed, model, case)
    }
}

/// One pluggable imperfection model.
///
/// Implementations act at exactly one [`Stage`]: conductance-state
/// stages override [`NonIdeality::apply_conductance`], the read stage
/// overrides [`NonIdeality::apply_read`]; the other hook keeps its
/// no-op default. Models must be deterministic functions of their
/// configuration and the context — all randomness comes from the
/// context-derived [`ModelRng`].
pub trait NonIdeality: Send + Sync {
    /// Unique short name. It keys the model's RNG sub-stream, so two
    /// models with the same name would draw correlated values — the
    /// stack rejects duplicates.
    fn name(&self) -> &'static str;

    /// The lifecycle stage this model acts at.
    fn stage(&self) -> Stage;

    /// Scalar strength: 0 must mean the identity transform, and the
    /// monotone-degradation conformance laws sweep it upward.
    fn strength(&self) -> f64;

    /// True if applying this model changes nothing. The stack skips
    /// identity models entirely, making zero strength *exact*
    /// bit-identity by construction.
    fn is_identity(&self) -> bool {
        self.strength() == 0.0
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::InvalidParameter`] describing the first
    /// out-of-range field.
    fn validate(&self) -> Result<(), XbarError> {
        Ok(())
    }

    /// Transforms the conductance state in place (programming and
    /// time-dependent stages).
    ///
    /// # Errors
    ///
    /// Implementations propagate configuration or numeric failures.
    fn apply_conductance(
        &self,
        _params: &CrossbarParams,
        _g: &mut ConductanceMatrix,
        _ctx: &ProgramCtx,
    ) -> Result<(), XbarError> {
        Ok(())
    }

    /// Perturbs one MVM's output currents in place (read stage).
    ///
    /// # Errors
    ///
    /// Implementations propagate configuration or numeric failures.
    fn apply_read(
        &self,
        _params: &CrossbarParams,
        _currents: &mut [f64],
        _ctx: &ReadCtx,
    ) -> Result<(), XbarError> {
        Ok(())
    }
}

/// Lognormal programming spread: `g' = clamp(g · exp(σ·z), 0, g_on)`,
/// one standard-normal `z` per cell from the model's own sub-stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LognormalSpread {
    /// Sigma of the lognormal spread (0 disables).
    pub sigma: f64,
}

impl NonIdeality for LognormalSpread {
    fn name(&self) -> &'static str {
        "lognormal"
    }

    fn stage(&self) -> Stage {
        Stage::Programming
    }

    fn strength(&self) -> f64 {
        self.sigma
    }

    fn validate(&self) -> Result<(), XbarError> {
        if !self.sigma.is_finite() || self.sigma < 0.0 {
            return Err(XbarError::InvalidParameter(format!(
                "lognormal sigma must be >= 0, got {}",
                self.sigma
            )));
        }
        Ok(())
    }

    fn apply_conductance(
        &self,
        params: &CrossbarParams,
        g: &mut ConductanceMatrix,
        ctx: &ProgramCtx,
    ) -> Result<(), XbarError> {
        if self.is_identity() {
            return Ok(());
        }
        let mut rng = ctx.rng(self.name());
        let g_on = params.g_on();
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                let z = rng.standard_normal();
                let spread = (g.get(i, j) * (self.sigma * z).exp()).clamp(0.0, g_on);
                g.set(i, j, spread);
            }
        }
        Ok(())
    }
}

/// Stuck-at faults: each cell is independently stuck at `g_off`
/// (open filament) or `g_on` (shorted cell), one uniform roll per
/// cell from the model's own sub-stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StuckAtFaults {
    /// Probability a device is stuck at `g_off`.
    pub stuck_off_rate: f64,
    /// Probability a device is stuck at `g_on`.
    pub stuck_on_rate: f64,
}

impl NonIdeality for StuckAtFaults {
    fn name(&self) -> &'static str {
        "stuck_at"
    }

    fn stage(&self) -> Stage {
        Stage::Programming
    }

    fn strength(&self) -> f64 {
        self.stuck_off_rate + self.stuck_on_rate
    }

    fn validate(&self) -> Result<(), XbarError> {
        for (name, r) in [
            ("stuck_off_rate", self.stuck_off_rate),
            ("stuck_on_rate", self.stuck_on_rate),
        ] {
            if !(0.0..=1.0).contains(&r) {
                return Err(XbarError::InvalidParameter(format!(
                    "{name} must be in [0, 1], got {r}"
                )));
            }
        }
        if self.stuck_off_rate + self.stuck_on_rate > 1.0 {
            return Err(XbarError::InvalidParameter(
                "stuck_off_rate + stuck_on_rate must not exceed 1".into(),
            ));
        }
        Ok(())
    }

    fn apply_conductance(
        &self,
        params: &CrossbarParams,
        g: &mut ConductanceMatrix,
        ctx: &ProgramCtx,
    ) -> Result<(), XbarError> {
        if self.is_identity() {
            return Ok(());
        }
        let mut rng = ctx.rng(self.name());
        let (g_on, g_off) = (params.g_on(), params.g_off());
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                let roll = rng.unit_f64();
                if roll < self.stuck_off_rate {
                    g.set(i, j, g_off);
                } else if roll < self.stuck_off_rate + self.stuck_on_rate {
                    g.set(i, j, g_on);
                }
            }
        }
        Ok(())
    }
}

/// Conductance drift: `g(t) = g0 · (t/t0)^{-ν}` — the standard
/// power-law retention model for filamentary RRAM. Deterministic (no
/// draws): drift is a property of elapsed time, not of a defect map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConductanceDrift {
    /// Elapsed time since programming (same unit as `t0`).
    pub t: f64,
    /// Reference time at which `g(t0) = g0` (typically 1 second).
    pub t0: f64,
    /// Drift exponent ν (0 disables).
    pub nu: f64,
}

impl ConductanceDrift {
    /// The multiplicative attenuation `(t/t0)^{-ν}` this model applies.
    pub fn factor(&self) -> f64 {
        (self.t / self.t0).powf(-self.nu)
    }
}

impl NonIdeality for ConductanceDrift {
    fn name(&self) -> &'static str {
        "drift"
    }

    fn stage(&self) -> Stage {
        Stage::TimeDependent
    }

    fn strength(&self) -> f64 {
        // The log-attenuation ν·ln(t/t0): 0 exactly when ν = 0 or
        // t = t0, and monotone in both ν and t.
        self.nu * (self.t / self.t0).ln()
    }

    fn validate(&self) -> Result<(), XbarError> {
        if !self.t0.is_finite() || self.t0 <= 0.0 {
            return Err(XbarError::InvalidParameter(format!(
                "drift t0 must be > 0, got {}",
                self.t0
            )));
        }
        if !self.t.is_finite() || self.t < self.t0 {
            return Err(XbarError::InvalidParameter(format!(
                "drift t must be >= t0 ({}), got {}",
                self.t0, self.t
            )));
        }
        if !self.nu.is_finite() || self.nu < 0.0 {
            return Err(XbarError::InvalidParameter(format!(
                "drift nu must be >= 0, got {}",
                self.nu
            )));
        }
        Ok(())
    }

    fn apply_conductance(
        &self,
        _params: &CrossbarParams,
        g: &mut ConductanceMatrix,
        _ctx: &ProgramCtx,
    ) -> Result<(), XbarError> {
        if self.is_identity() {
            return Ok(());
        }
        // t >= t0 and nu >= 0, so the factor is in (0, 1] and the
        // physical range needs no re-clamping.
        let factor = self.factor();
        for i in 0..g.rows() {
            for j in 0..g.cols() {
                g.set(i, j, g.get(i, j) * factor);
            }
        }
        Ok(())
    }
}

/// Per-MVM read noise: `i' = i · (1 + σ·z)`, one standard-normal `z`
/// per output current per evaluation. The `(tile, sample)`-keyed
/// sub-stream makes a batch of n MVMs draw exactly the noise n
/// single MVMs would.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadNoise {
    /// Relative noise sigma (0 disables).
    pub sigma: f64,
}

impl NonIdeality for ReadNoise {
    fn name(&self) -> &'static str {
        "read_noise"
    }

    fn stage(&self) -> Stage {
        Stage::ReadTime
    }

    fn strength(&self) -> f64 {
        self.sigma
    }

    fn validate(&self) -> Result<(), XbarError> {
        if !self.sigma.is_finite() || self.sigma < 0.0 {
            return Err(XbarError::InvalidParameter(format!(
                "read noise sigma must be >= 0, got {}",
                self.sigma
            )));
        }
        Ok(())
    }

    fn apply_read(
        &self,
        _params: &CrossbarParams,
        currents: &mut [f64],
        ctx: &ReadCtx,
    ) -> Result<(), XbarError> {
        if self.is_identity() {
            return Ok(());
        }
        let mut rng = ctx.rng(self.name());
        for i in currents.iter_mut() {
            *i *= 1.0 + self.sigma * rng.standard_normal();
        }
        Ok(())
    }
}

/// A seeded, ordered collection of non-ideality models.
///
/// [`NonIdealityStack::program`] applies the programming-stage models
/// (in push order), then the time-dependent ones;
/// [`NonIdealityStack::read`] applies the read-stage models to one
/// MVM's output currents. Identity models are skipped outright, so
/// zero strength is exact.
///
/// Programming-stage models apply in push order and the last writer
/// wins per cell, so `[lognormal, stuck_at]` pins stuck cells at their
/// rail while `[stuck_at, lognormal]` spreads them.
pub struct NonIdealityStack {
    seed: u64,
    models: Vec<Box<dyn NonIdeality>>,
}

impl NonIdealityStack {
    /// An empty stack under `seed`.
    pub fn new(seed: u64) -> Self {
        NonIdealityStack {
            seed,
            models: Vec::new(),
        }
    }

    /// Adds a model, builder style.
    ///
    /// # Errors
    ///
    /// As [`NonIdealityStack::push`].
    pub fn with_model(mut self, model: Box<dyn NonIdeality>) -> Result<Self, XbarError> {
        self.push(model)?;
        Ok(self)
    }

    /// Adds a model after validating it.
    ///
    /// # Errors
    ///
    /// Propagates the model's [`NonIdeality::validate`] failure, and
    /// rejects a name already in the stack ([`XbarError::InvalidParameter`]):
    /// duplicate names would share one RNG sub-stream and draw
    /// correlated values.
    pub fn push(&mut self, model: Box<dyn NonIdeality>) -> Result<(), XbarError> {
        model.validate()?;
        if self.models.iter().any(|m| m.name() == model.name()) {
            return Err(XbarError::InvalidParameter(format!(
                "duplicate non-ideality model '{}' in stack",
                model.name()
            )));
        }
        self.models.push(model);
        Ok(())
    }

    /// True when no model changes anything.
    pub fn is_identity(&self) -> bool {
        self.models.iter().all(|m| m.is_identity())
    }

    /// True when a non-identity read-stage model is present (callers
    /// can then skip per-MVM plumbing entirely).
    pub fn has_read_stage(&self) -> bool {
        self.models
            .iter()
            .any(|m| m.stage() == Stage::ReadTime && !m.is_identity())
    }

    /// Applies the conductance-state stages to a target pattern for
    /// tile `tile`, returning the imperfect programmed state.
    /// Programming-stage models run first (push order), then
    /// time-dependent ones — faults are written before the state
    /// ages.
    ///
    /// # Errors
    ///
    /// * [`XbarError::Shape`] if `target` does not match `params`.
    /// * Propagates model application failures.
    pub fn program(
        &self,
        params: &CrossbarParams,
        target: &ConductanceMatrix,
        tile: u64,
    ) -> Result<ConductanceMatrix, XbarError> {
        if target.rows() != params.rows || target.cols() != params.cols {
            return Err(XbarError::Shape(format!(
                "conductance matrix is {}x{} but crossbar is {}x{}",
                target.rows(),
                target.cols(),
                params.rows,
                params.cols
            )));
        }
        let ctx = ProgramCtx {
            seed: self.seed,
            tile,
        };
        let mut out = target.clone();
        for stage in [Stage::Programming, Stage::TimeDependent] {
            for model in &self.models {
                if model.stage() == stage && !model.is_identity() {
                    model.apply_conductance(params, &mut out, &ctx)?;
                }
            }
        }
        Ok(out)
    }

    /// Applies the read-stage models to one MVM's output currents.
    /// `sample` must advance monotonically per tile (a batch of n
    /// consumes n indices), so batched and single evaluations draw
    /// identical noise.
    ///
    /// # Errors
    ///
    /// Propagates model application failures.
    pub fn read(
        &self,
        params: &CrossbarParams,
        currents: &mut [f64],
        tile: u64,
        sample: u64,
    ) -> Result<(), XbarError> {
        let ctx = ReadCtx {
            seed: self.seed,
            tile,
            sample,
        };
        for model in &self.models {
            if model.stage() == Stage::ReadTime && !model.is_identity() {
                model.apply_read(params, currents, &ctx)?;
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for NonIdealityStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.models.iter().map(|m| m.name()).collect();
        f.debug_struct("NonIdealityStack")
            .field("seed", &self.seed)
            .field("models", &names)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CrossbarParams {
        CrossbarParams::builder(8, 8).build().unwrap()
    }

    fn mid_target(p: &CrossbarParams) -> ConductanceMatrix {
        ConductanceMatrix::uniform(8, 8, p.g_off() + 0.5 * (p.g_on() - p.g_off()))
    }

    #[test]
    fn empty_stack_is_identity() {
        let p = params();
        let g = mid_target(&p);
        let stack = NonIdealityStack::new(7);
        assert!(stack.is_identity());
        assert!(!stack.has_read_stage());
        assert_eq!(stack.program(&p, &g, 0).unwrap(), g);
    }

    #[test]
    fn zero_strength_models_are_exact_identity() {
        let p = params();
        let g = mid_target(&p);
        let stack = NonIdealityStack::new(7)
            .with_model(Box::new(LognormalSpread { sigma: 0.0 }))
            .unwrap()
            .with_model(Box::new(StuckAtFaults {
                stuck_off_rate: 0.0,
                stuck_on_rate: 0.0,
            }))
            .unwrap()
            .with_model(Box::new(ConductanceDrift {
                t: 1.0,
                t0: 1.0,
                nu: 0.3,
            }))
            .unwrap()
            .with_model(Box::new(ReadNoise { sigma: 0.0 }))
            .unwrap();
        assert!(stack.is_identity());
        assert_eq!(stack.program(&p, &g, 3).unwrap(), g);
        let mut currents = vec![1e-5, 2e-5, 3e-5];
        let before = currents.clone();
        stack.read(&p, &mut currents, 3, 0).unwrap();
        assert_eq!(currents, before);
    }

    #[test]
    fn per_tile_streams_differ_and_repeat() {
        let p = params();
        let g = mid_target(&p);
        let stack = NonIdealityStack::new(7)
            .with_model(Box::new(LognormalSpread { sigma: 0.2 }))
            .unwrap();
        let t0 = stack.program(&p, &g, 0).unwrap();
        let t0_again = stack.program(&p, &g, 0).unwrap();
        let t1 = stack.program(&p, &g, 1).unwrap();
        assert_eq!(t0, t0_again);
        assert_ne!(t0, t1);
    }

    #[test]
    fn adding_a_model_does_not_perturb_another_stream() {
        let p = params();
        let g = mid_target(&p);
        let lone = NonIdealityStack::new(7)
            .with_model(Box::new(LognormalSpread { sigma: 0.2 }))
            .unwrap();
        let composed = NonIdealityStack::new(7)
            .with_model(Box::new(LognormalSpread { sigma: 0.2 }))
            .unwrap()
            .with_model(Box::new(StuckAtFaults {
                stuck_off_rate: 0.2,
                stuck_on_rate: 0.1,
            }))
            .unwrap();
        let a = lone.program(&p, &g, 0).unwrap();
        let b = composed.program(&p, &g, 0).unwrap();
        // Wherever no fault fired, the spread draw must be identical.
        let (g_on, g_off) = (p.g_on(), p.g_off());
        let mut unstuck = 0;
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            if *y != g_on && *y != g_off {
                assert_eq!(x, y, "spread draw shifted by adding stuck_at");
                unstuck += 1;
            }
        }
        assert!(unstuck > 0, "degenerate case: every cell stuck");
    }

    #[test]
    fn spread_is_centered_and_clamped() {
        let p = CrossbarParams::builder(16, 16).build().unwrap();
        let g0 = p.g_on() * 0.5;
        let g = ConductanceMatrix::uniform(16, 16, g0);
        let out = NonIdealityStack::new(3)
            .with_model(Box::new(LognormalSpread { sigma: 0.1 }))
            .unwrap()
            .program(&p, &g, 0)
            .unwrap();
        let mean: f64 = out.as_slice().iter().sum::<f64>() / 256.0;
        // Lognormal with small sigma: mean close to the target.
        assert!((mean - g0).abs() < 0.05 * g0, "mean {mean} vs target {g0}");
        assert!(out
            .as_slice()
            .iter()
            .all(|&x| (0.0..=p.g_on()).contains(&x)));
        // Actually spread out.
        assert!(out.as_slice().iter().any(|&x| (x - g0).abs() > 0.01 * g0));
    }

    #[test]
    fn stuck_rates_are_respected() {
        let p = CrossbarParams::builder(16, 16).build().unwrap();
        let g = ConductanceMatrix::uniform(16, 16, p.g_on() * 0.5);
        let stuck = StuckAtFaults {
            stuck_off_rate: 0.25,
            stuck_on_rate: 0.25,
        };
        // The stuck-at stream is keyed by name, so the lone model under
        // the same seed shows which cells the composed stack sticks.
        let faults = NonIdealityStack::new(9)
            .with_model(Box::new(stuck))
            .unwrap()
            .program(&p, &g, 0)
            .unwrap();
        let out = NonIdealityStack::new(9)
            .with_model(Box::new(LognormalSpread { sigma: 0.2 }))
            .unwrap()
            .with_model(Box::new(stuck))
            .unwrap()
            .program(&p, &g, 0)
            .unwrap();
        let (g_on, g_off) = (p.g_on(), p.g_off());
        for (&f, &x) in faults.as_slice().iter().zip(out.as_slice()) {
            if f == g_off || f == g_on {
                // Pushed after the spread, the fault is the last writer.
                assert_eq!(x, f, "stuck cell left its rail after the spread");
            }
        }
        let count = |rail: f64| faults.as_slice().iter().filter(|&&f| f == rail).count();
        let (stuck_off, stuck_on) = (count(g_off), count(g_on));
        // 256 devices at 25% each: expect roughly 64 ± a generous margin.
        assert!((30..=100).contains(&stuck_off), "stuck off {stuck_off}");
        assert!((30..=100).contains(&stuck_on), "stuck on {stuck_on}");
    }

    #[test]
    fn drift_attenuates_monotonically() {
        let p = params();
        let g = mid_target(&p);
        let drifted = |t: f64| {
            NonIdealityStack::new(0)
                .with_model(Box::new(ConductanceDrift {
                    t,
                    t0: 1.0,
                    nu: 0.05,
                }))
                .unwrap()
                .program(&p, &g, 0)
                .unwrap()
        };
        let (d10, d1000) = (drifted(10.0), drifted(1000.0));
        for ((orig, a), b) in g
            .as_slice()
            .iter()
            .zip(d10.as_slice())
            .zip(d1000.as_slice())
        {
            assert!(b < a && a < orig, "drift must attenuate with time");
        }
    }

    #[test]
    fn read_noise_batch_equals_singles() {
        let p = params();
        let stack = NonIdealityStack::new(9)
            .with_model(Box::new(ReadNoise { sigma: 0.05 }))
            .unwrap();
        assert!(stack.has_read_stage());
        let base = vec![1e-5; 8];
        // Samples 0 and 1 drawn back-to-back...
        let mut s0 = base.clone();
        let mut s1 = base.clone();
        stack.read(&p, &mut s0, 2, 0).unwrap();
        stack.read(&p, &mut s1, 2, 1).unwrap();
        // ...must match a re-issue at the same indices.
        let mut r0 = base.clone();
        let mut r1 = base.clone();
        stack.read(&p, &mut r0, 2, 0).unwrap();
        stack.read(&p, &mut r1, 2, 1).unwrap();
        assert_eq!(s0, r0);
        assert_eq!(s1, r1);
        assert_ne!(s0, s1, "distinct samples must draw distinct noise");
        assert_ne!(s0, base, "noise must actually perturb");
    }

    #[test]
    fn invalid_models_rejected() {
        assert!(LognormalSpread { sigma: -0.1 }.validate().is_err());
        assert!(StuckAtFaults {
            stuck_off_rate: 1.5,
            stuck_on_rate: 0.0
        }
        .validate()
        .is_err());
        assert!(StuckAtFaults {
            stuck_off_rate: 0.6,
            stuck_on_rate: 0.6
        }
        .validate()
        .is_err());
        assert!(ConductanceDrift {
            t: 0.5,
            t0: 1.0,
            nu: 0.1
        }
        .validate()
        .is_err());
        assert!(ConductanceDrift {
            t: 2.0,
            t0: 0.0,
            nu: 0.1
        }
        .validate()
        .is_err());
        assert!(ReadNoise { sigma: f64::NAN }.validate().is_err());
        assert!(NonIdealityStack::new(0)
            .with_model(Box::new(LognormalSpread { sigma: -1.0 }))
            .is_err());
    }

    #[test]
    fn duplicate_model_names_rejected() {
        let stack = NonIdealityStack::new(0)
            .with_model(Box::new(LognormalSpread { sigma: 0.1 }))
            .unwrap();
        assert!(stack
            .with_model(Box::new(LognormalSpread { sigma: 0.2 }))
            .is_err());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let p = params();
        let g = ConductanceMatrix::uniform(4, 4, 1e-5);
        assert!(NonIdealityStack::new(0).program(&p, &g, 0).is_err());
    }

    #[test]
    fn stages_apply_in_lifecycle_order() {
        // Stuck-at pushed *after* drift must still fire before it:
        // a cell stuck at g_on then drifted sits below g_on.
        let p = params();
        let g = mid_target(&p);
        let stack = NonIdealityStack::new(3)
            .with_model(Box::new(ConductanceDrift {
                t: 100.0,
                t0: 1.0,
                nu: 0.1,
            }))
            .unwrap()
            .with_model(Box::new(StuckAtFaults {
                stuck_off_rate: 0.0,
                stuck_on_rate: 1.0,
            }))
            .unwrap();
        let out = stack.program(&p, &g, 0).unwrap();
        let expect = p.g_on() * 100.0f64.powf(-0.1);
        for &x in out.as_slice() {
            assert!(
                (x - expect).abs() < 1e-18,
                "stuck cell must age after programming: {x} vs {expect}"
            );
        }
    }
}
