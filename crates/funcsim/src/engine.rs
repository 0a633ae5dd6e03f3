//! Pluggable crossbar evaluation engines.
//!
//! The simulator expresses every analog crossbar operation through two
//! traits: a [`CrossbarEngine`] *programs* a tile (conductance levels →
//! whatever precomputation that backend needs), and the resulting
//! [`ProgrammedXbar`] evaluates batches of input-level vectors to
//! physical bit-line currents. Four backends implement the paper's
//! simulation modes:
//!
//! | engine | physics | cost per MVM |
//! |---|---|---|
//! | [`IdealEngine`] | none (exact MVM) | one GEMV |
//! | [`AnalyticalEngine`] | linear parasitics (CxDNN-style `M(G)`) | one GEMV |
//! | [`GeniexEngine`] | learned linear + nonlinear | two GEMVs |
//! | [`CircuitEngine`] | full nonlinear solve (ground truth) | one Newton solve |

use crate::FuncsimError;
use geniex::{Geniex, GeniexTile};
use xbar::{AnalyticalModel, ConductanceMatrix, CrossbarCircuit, CrossbarParams};

/// Programs conductance patterns into backend-specific tile state.
pub trait CrossbarEngine {
    /// Short name used in experiment reports.
    fn name(&self) -> &'static str;

    /// Programs one tile. `g_levels` is row-major `rows·cols` in
    /// `[0, 1]` (level 0 = `g_off`).
    ///
    /// # Errors
    ///
    /// Implementations reject level vectors that don't match the
    /// crossbar geometry and propagate backend construction failures.
    fn program(
        &self,
        params: &CrossbarParams,
        g_levels: &[f32],
    ) -> Result<Box<dyn ProgrammedXbar>, FuncsimError>;
}

/// A programmed tile ready to evaluate MVMs.
pub trait ProgrammedXbar: Send + Sync {
    /// Evaluates `n` input vectors given as normalized levels
    /// (row-major `n × rows`, each level in `[0, 1]`), returning
    /// bit-line currents in amperes (row-major `n × cols`).
    ///
    /// # Errors
    ///
    /// Returns [`FuncsimError::Shape`] on length mismatch and
    /// propagates solver failures.
    fn currents_batch(&self, v_levels: &[f32], n: usize) -> Result<Vec<f64>, FuncsimError>;
}

/// Boxed engines forward, so decorators like `ZooEngine` can wrap a
/// runtime-selected backend without knowing its concrete type.
impl CrossbarEngine for Box<dyn CrossbarEngine> {
    fn name(&self) -> &'static str {
        self.as_ref().name()
    }

    fn program(
        &self,
        params: &CrossbarParams,
        g_levels: &[f32],
    ) -> Result<Box<dyn ProgrammedXbar>, FuncsimError> {
        self.as_ref().program(params, g_levels)
    }
}

fn check_levels(
    params: &CrossbarParams,
    g_levels: &[f32],
) -> Result<ConductanceMatrix, FuncsimError> {
    if g_levels.len() != params.rows * params.cols {
        return Err(FuncsimError::Shape(format!(
            "{} conductance levels for a {}x{} crossbar",
            g_levels.len(),
            params.rows,
            params.cols
        )));
    }
    let levels: Vec<f64> = g_levels.iter().map(|&l| l as f64).collect();
    Ok(ConductanceMatrix::from_levels(params, &levels)?)
}

fn check_batch(rows: usize, v_levels: &[f32], n: usize) -> Result<(), FuncsimError> {
    if v_levels.len() != n * rows {
        return Err(FuncsimError::Shape(format!(
            "{} input levels for {n} vectors of {rows} rows",
            v_levels.len()
        )));
    }
    Ok(())
}

/// Dense `cols × rows` matvec in f64 over f32 level inputs, shared by
/// the two linear backends and the GENIEx numerator. Tiles never fork:
/// `ProgrammedMatrix::mvm_codes` already drives each tile from one pool
/// task.
fn gemv_batch(matrix: &[f64], cols: usize, scale: f64, v_levels: &[f32], n: usize) -> Vec<f64> {
    let mut out = vec![0.0f64; n * cols];
    kernels::gemv_levels_scaled_batch(matrix, v_levels, scale, &mut out, n);
    out
}

/// The ideal (non-ideality-free) backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdealEngine;

struct IdealTile {
    /// `G`ᵀ stored `cols × rows` (conductances in siemens).
    gt: Vec<f64>,
    rows: usize,
    cols: usize,
    v_supply: f64,
}

impl ProgrammedXbar for IdealTile {
    fn currents_batch(&self, v_levels: &[f32], n: usize) -> Result<Vec<f64>, FuncsimError> {
        check_batch(self.rows, v_levels, n)?;
        Ok(gemv_batch(&self.gt, self.cols, self.v_supply, v_levels, n))
    }
}

impl CrossbarEngine for IdealEngine {
    fn name(&self) -> &'static str {
        "ideal"
    }

    fn program(
        &self,
        params: &CrossbarParams,
        g_levels: &[f32],
    ) -> Result<Box<dyn ProgrammedXbar>, FuncsimError> {
        let g = check_levels(params, g_levels)?;
        let (rows, cols) = (params.rows, params.cols);
        let mut gt = vec![0.0f64; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                gt[j * rows + i] = g.get(i, j);
            }
        }
        Ok(Box::new(IdealTile {
            gt,
            rows,
            cols,
            v_supply: params.v_supply,
        }))
    }
}

/// The linear analytical backend (parasitics only).
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyticalEngine;

struct AnalyticalTile {
    /// Effective `M(G)` stored `cols × rows`.
    m: Vec<f64>,
    rows: usize,
    cols: usize,
    v_supply: f64,
}

impl ProgrammedXbar for AnalyticalTile {
    fn currents_batch(&self, v_levels: &[f32], n: usize) -> Result<Vec<f64>, FuncsimError> {
        check_batch(self.rows, v_levels, n)?;
        Ok(gemv_batch(&self.m, self.cols, self.v_supply, v_levels, n))
    }
}

impl CrossbarEngine for AnalyticalEngine {
    fn name(&self) -> &'static str {
        "analytical"
    }

    fn program(
        &self,
        params: &CrossbarParams,
        g_levels: &[f32],
    ) -> Result<Box<dyn ProgrammedXbar>, FuncsimError> {
        let g = check_levels(params, g_levels)?;
        let model = AnalyticalModel::new(params, &g)?;
        let eff = model.effective_matrix();
        let (rows, cols) = (params.rows, params.cols);
        let mut m = vec![0.0f64; rows * cols];
        for j in 0..cols {
            for i in 0..rows {
                m[j * rows + i] = eff[(j, i)];
            }
        }
        Ok(Box::new(AnalyticalTile {
            m,
            rows,
            cols,
            v_supply: params.v_supply,
        }))
    }
}

/// The GENIEx surrogate backend.
///
/// Holds one or more trained surrogates; programming a tile runs the
/// fast-forward weight split per member, so per-MVM cost is two small
/// GEMVs per member. With several members the predicted `f_R` is the
/// ensemble mean — independent initialization seeds make member errors
/// roughly uncorrelated, cutting prediction noise by ≈ √k.
#[derive(Debug, Clone)]
pub struct GeniexEngine {
    members: Vec<Geniex>,
}

impl GeniexEngine {
    /// Wraps a single trained surrogate.
    pub fn new(surrogate: Geniex) -> Self {
        GeniexEngine {
            members: vec![surrogate],
        }
    }

    /// Wraps an ensemble of surrogates trained for the *same* design
    /// point (typically identical data, different init seeds).
    ///
    /// # Errors
    ///
    /// Returns [`FuncsimError::InvalidConfig`] if the list is empty or
    /// the members disagree on the design point.
    pub fn ensemble(members: Vec<Geniex>) -> Result<Self, FuncsimError> {
        let first = members
            .first()
            .ok_or_else(|| FuncsimError::InvalidConfig("empty ensemble".into()))?;
        if members.iter().any(|m| m.params() != first.params()) {
            return Err(FuncsimError::InvalidConfig(
                "ensemble members target different design points".into(),
            ));
        }
        Ok(GeniexEngine { members })
    }

    /// The wrapped surrogates' design parameters.
    pub fn params(&self) -> &CrossbarParams {
        self.members[0].params()
    }

    /// Number of ensemble members.
    pub fn member_count(&self) -> usize {
        self.members.len()
    }
}

struct GeniexProgrammedTile {
    tiles: Vec<GeniexTile>,
    /// `G`ᵀ for the ideal numerator, `cols × rows`.
    gt: Vec<f64>,
    rows: usize,
    cols: usize,
    v_supply: f64,
}

impl ProgrammedXbar for GeniexProgrammedTile {
    fn currents_batch(&self, v_levels: &[f32], n: usize) -> Result<Vec<f64>, FuncsimError> {
        check_batch(self.rows, v_levels, n)?;
        // Ensemble member predictions sum in member order.
        let mut f_r = self.tiles[0].f_r_batch(v_levels, n)?;
        for tile in &self.tiles[1..] {
            for (acc, m) in f_r.iter_mut().zip(&tile.f_r_batch(v_levels, n)?) {
                *acc += m;
            }
        }
        let scale = 1.0 / self.tiles.len() as f32;
        let mut out = gemv_batch(&self.gt, self.cols, self.v_supply, v_levels, n);
        for (i, fr) in out.iter_mut().zip(&f_r) {
            if *i != 0.0 {
                *i /= (*fr * scale) as f64;
            }
        }
        Ok(out)
    }
}

impl CrossbarEngine for GeniexEngine {
    fn name(&self) -> &'static str {
        "geniex"
    }

    fn program(
        &self,
        params: &CrossbarParams,
        g_levels: &[f32],
    ) -> Result<Box<dyn ProgrammedXbar>, FuncsimError> {
        if params != self.params() {
            return Err(FuncsimError::InvalidConfig(format!(
                "surrogate was trained for a different design point \
                 ({}x{} Ron {}) than requested ({}x{} Ron {})",
                self.params().rows,
                self.params().cols,
                self.params().r_on,
                params.rows,
                params.cols,
                params.r_on,
            )));
        }
        let g = check_levels(params, g_levels)?;
        let tiles = self
            .members
            .iter()
            .map(|m| GeniexTile::new(m, g_levels))
            .collect::<Result<Vec<_>, _>>()?;
        let (rows, cols) = (params.rows, params.cols);
        let mut gt = vec![0.0f64; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                gt[j * rows + i] = g.get(i, j);
            }
        }
        Ok(Box::new(GeniexProgrammedTile {
            tiles,
            gt,
            rows,
            cols,
            v_supply: params.v_supply,
        }))
    }
}

/// The ground-truth backend: every MVM is a full nonlinear solve.
/// Orders of magnitude slower; used for validation on tiny networks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CircuitEngine;

struct CircuitTile {
    circuit: CrossbarCircuit,
    rows: usize,
    v_supply: f64,
    /// Amortized-solve state (DESIGN.md §15): the previous sample's
    /// operating point, guarded by the circuit's content key.
    /// Consecutive stimuli on the same tile are similar, so warm-starting
    /// Newton from the last operating point cuts iterations substantially.
    cache: std::sync::Mutex<xbar::SolverCache>,
}

impl ProgrammedXbar for CircuitTile {
    fn currents_batch(&self, v_levels: &[f32], n: usize) -> Result<Vec<f64>, FuncsimError> {
        check_batch(self.rows, v_levels, n)?;
        // Assemble the whole row-major panel up front so `solve_batch`
        // chains warm starts through all `n` samples.
        let mut volts = vec![0.0f64; n * self.rows];
        for (v, &l) in volts.iter_mut().zip(v_levels) {
            *v = l as f64 * self.v_supply;
        }
        let mut cache = self.cache.lock().expect("solver cache poisoned");
        let reports = self.circuit.solve_batch(&volts, n, &mut cache)?;
        let mut out = Vec::with_capacity(n * self.circuit.params().cols);
        for report in &reports {
            out.extend_from_slice(&report.currents);
        }
        Ok(out)
    }
}

impl CrossbarEngine for CircuitEngine {
    fn name(&self) -> &'static str {
        "circuit"
    }

    fn program(
        &self,
        params: &CrossbarParams,
        g_levels: &[f32],
    ) -> Result<Box<dyn ProgrammedXbar>, FuncsimError> {
        let g = check_levels(params, g_levels)?;
        let circuit = CrossbarCircuit::new(params, &g)?;
        let cache = std::sync::Mutex::new(xbar::SolverCache::for_circuit(&circuit));
        Ok(Box::new(CircuitTile {
            circuit,
            rows: params.rows,
            v_supply: params.v_supply,
            cache,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geniex::dataset::{generate, DatasetConfig};
    use geniex::TrainConfig;

    fn params() -> CrossbarParams {
        CrossbarParams::builder(4, 4).build().unwrap()
    }

    fn trained_engine(p: &CrossbarParams) -> GeniexEngine {
        let data = generate(
            p,
            &DatasetConfig {
                samples: 50,
                seed: 2,
                ..DatasetConfig::default()
            },
        )
        .unwrap();
        let mut s = Geniex::new(p, 16, 5).unwrap();
        s.train(
            &data,
            &TrainConfig {
                epochs: 15,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        GeniexEngine::new(s)
    }

    #[test]
    fn ideal_engine_is_exact_mvm() {
        let p = params();
        let tile = IdealEngine.program(&p, &[1.0; 16]).unwrap();
        let out = tile.currents_batch(&[1.0, 1.0, 1.0, 1.0], 1).unwrap();
        let expect = 4.0 * p.v_supply * p.g_on();
        for i in out {
            assert!((i - expect).abs() < 1e-15);
        }
    }

    #[test]
    fn engines_validate_shapes() {
        let p = params();
        assert!(IdealEngine.program(&p, &[0.5; 15]).is_err());
        let tile = IdealEngine.program(&p, &[0.5; 16]).unwrap();
        assert!(tile.currents_batch(&[0.5; 7], 2).is_err());
    }

    #[test]
    fn analytical_below_ideal() {
        let p = params();
        let ideal = IdealEngine.program(&p, &[1.0; 16]).unwrap();
        let analytical = AnalyticalEngine.program(&p, &[1.0; 16]).unwrap();
        let v = [1.0f32; 4];
        let i_ideal = ideal.currents_batch(&v, 1).unwrap();
        let i_analytical = analytical.currents_batch(&v, 1).unwrap();
        for (a, b) in i_analytical.iter().zip(&i_ideal) {
            assert!(a < b);
            assert!(*a > 0.0);
        }
    }

    #[test]
    fn circuit_engine_matches_direct_solve() {
        let p = params();
        let tile = CircuitEngine.program(&p, &[1.0; 16]).unwrap();
        let out = tile.currents_batch(&[1.0; 4], 1).unwrap();
        let g = ConductanceMatrix::uniform(4, 4, p.g_on());
        let direct = CrossbarCircuit::new(&p, &g)
            .unwrap()
            .solve(&[p.v_supply; 4])
            .unwrap()
            .currents;
        // A freshly programmed tile has no warm state, so its first
        // sample is a cold solve, bit for bit (DESIGN.md §15).
        assert_eq!(out, direct);
    }

    #[test]
    fn geniex_engine_checks_design_point() {
        let p = params();
        let engine = trained_engine(&p);
        assert!(engine.program(&p, &[0.5; 16]).is_ok());
        let other = CrossbarParams::builder(4, 4).r_on(50e3).build().unwrap();
        assert!(engine.program(&other, &[0.5; 16]).is_err());
    }

    #[test]
    fn geniex_engine_tracks_circuit_better_than_wild() {
        // Smoke test: the surrogate backend's currents are in the same
        // ballpark as the circuit's for a dense pattern.
        let p = params();
        let engine = trained_engine(&p);
        let g_levels = [1.0f32; 16];
        let v = [1.0f32; 4];
        let geniex_out = engine
            .program(&p, &g_levels)
            .unwrap()
            .currents_batch(&v, 1)
            .unwrap();
        let circuit_out = CircuitEngine
            .program(&p, &g_levels)
            .unwrap()
            .currents_batch(&v, 1)
            .unwrap();
        for (a, b) in geniex_out.iter().zip(&circuit_out) {
            // Ballpark bound only: the tiny smoke-test surrogate lands
            // at 10-25% error depending on the seed stream of the RNG
            // in use (the in-tree `rand` stand-in differs from
            // upstream). Accuracy proper is covered by fig5/validate.
            assert!(
                (a - b).abs() < 0.3 * b,
                "geniex {a} too far from circuit {b}"
            );
        }
    }

    #[test]
    fn batch_consistency_across_engines() {
        let p = params();
        let engines: Vec<Box<dyn CrossbarEngine>> = vec![
            Box::new(IdealEngine),
            Box::new(AnalyticalEngine),
            Box::new(CircuitEngine),
        ];
        let g_levels: Vec<f32> = (0..16).map(|k| (k % 3) as f32 / 2.0).collect();
        let v1 = [1.0f32, 0.0, 0.5, 0.25];
        let v2 = [0.25f32, 0.25, 0.0, 1.0];
        let flat: Vec<f32> = v1.iter().chain(v2.iter()).copied().collect();
        for e in &engines {
            let tile = e.program(&p, &g_levels).unwrap();
            let batch = tile.currents_batch(&flat, 2).unwrap();
            let s1 = tile.currents_batch(&v1, 1).unwrap();
            let s2 = tile.currents_batch(&v2, 1).unwrap();
            // Ideal/analytical are pure arithmetic and must be bit-stable
            // across batching. The circuit engine warm-starts Newton from
            // whatever the cache last held, so batched and single solves
            // stop at different (equally converged) iterates; agreement is
            // bounded by the solver tolerance instead (DESIGN.md §15).
            let tol = if e.name() == "circuit" { 1e-12 } else { 1e-15 };
            for j in 0..4 {
                assert!((batch[j] - s1[j]).abs() < tol, "{}", e.name());
                assert!((batch[4 + j] - s2[j]).abs() < tol, "{}", e.name());
            }
        }
    }
}
