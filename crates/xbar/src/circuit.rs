//! Nonlinear DC operating-point solver for the parasitic crossbar.
//!
//! # Circuit topology
//!
//! Each cell `(i, j)` contributes two nodes: a word-line segment node
//! `w(i,j)` and a bit-line segment node `b(i,j)`. Branches:
//!
//! ```text
//! V_i --Rsource-- w(i,0) --Rwire-- w(i,1) --Rwire-- ... w(i,C-1)
//!                    |                |                    |
//!                  cell             cell                 cell        (1T1R)
//!                    |                |                    |
//! b(0,j) --Rwire-- b(1,j) -- ... -- b(R-1,j) --Rsink-- GND (virtual)
//! ```
//!
//! The sensed output of column `j` is the current through its sink
//! resistor.
//!
//! # Numerics
//!
//! Damped Newton–Raphson on the KCL residual, in one driver behind
//! every entry point: [`CrossbarCircuit::solve`] runs it from an empty
//! state, [`CrossbarCircuit::solve_amortized`] and
//! [`CrossbarCircuit::solve_batch`] from a [`SolverCache`]'s warm state.
//! Each residual evaluation also returns every cell's differential
//! conductance, so every Newton step gets the exact Jacobian without a
//! second device solve. The correction system `J·dx = F` is solved by
//! an exact-tridiagonal block Gauss–Seidel: word lines only couple
//! horizontally and bit lines only vertically, so each half-system is
//! a set of independent tridiagonal chains, factored once per
//! correction and swept with the Thomas algorithm.

use crate::cache::{SolverCache, WarmState};
use crate::conductance::ConductanceMatrix;
use crate::device::{
    AccessDevice, DeviceModel, FilamentaryRram, LinearMemristor, SeriesCell, SeriesLinearCell,
};
use crate::params::CrossbarParams;
use crate::XbarError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Process-wide tile id source: every programmed [`CrossbarCircuit`]
/// gets a distinct id so trace events from concurrent tile solves can
/// be told apart (clones keep the id — they model the same tile).
static NEXT_TILE_ID: AtomicU64 = AtomicU64::new(1);

/// Cap on consecutive O(rows) residual transfers between warm solves.
/// Each transfer adds ~1 ulp of rounding at the driver nodes; 32 of
/// them stay ~1e-17 A, five orders below the solve tolerance.
const MAX_ADJUSTMENTS: u32 = 32;

/// Block Gauss–Seidel sweeps allowed per correction before the
/// correction counts as a failed step.
const MAX_SWEEPS: usize = 500;

/// Telemetry handles resolved once so the per-solve cost is a handful
/// of relaxed atomic ops (and just the enabled-flag load when off).
pub(crate) struct CircuitMetrics {
    solves: Arc<telemetry::Counter>,
    solve_time: Arc<telemetry::Timer>,
    newton_iterations: Arc<telemetry::Histogram>,
    dampings: Arc<telemetry::Histogram>,
    warm_starts: Arc<telemetry::Counter>,
    cold_starts: Arc<telemetry::Counter>,
    newton_diverged: Arc<telemetry::Counter>,
    amortized_solves: Arc<telemetry::Counter>,
    amortized_fallbacks: Arc<telemetry::Counter>,
    pub(crate) cache_rekeys: Arc<telemetry::Counter>,
}

pub(crate) fn metrics() -> &'static CircuitMetrics {
    static METRICS: OnceLock<CircuitMetrics> = OnceLock::new();
    METRICS.get_or_init(|| CircuitMetrics {
        solves: telemetry::counter("xbar.solves"),
        solve_time: telemetry::timer("xbar.solve_seconds"),
        newton_iterations: telemetry::histogram(
            "xbar.newton_iterations",
            &telemetry::linear_buckets(0.0, 1.0, 16),
        ),
        dampings: telemetry::histogram(
            "xbar.newton_dampings",
            &telemetry::linear_buckets(0.0, 1.0, 8),
        ),
        warm_starts: telemetry::counter("xbar.warm_starts"),
        cold_starts: telemetry::counter("xbar.cold_starts"),
        newton_diverged: telemetry::counter("xbar.newton_diverged"),
        amortized_solves: telemetry::counter("xbar.amortized.solves"),
        amortized_fallbacks: telemetry::counter("xbar.amortized.fallbacks"),
        cache_rekeys: telemetry::counter("xbar.cache.rekeys"),
    })
}

/// Options controlling the Newton solve.
///
/// These are part of a circuit's *content* for amortization purposes:
/// [`CrossbarCircuit::solver_key`] folds them in, so circuits that
/// differ only in options never share cached solver state.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonOptions {
    /// Absolute KCL residual tolerance in amperes (infinity norm).
    /// The enforced tolerance is this value floored by the f64
    /// cancellation noise of the circuit at hand — see
    /// [`CrossbarCircuit::effective_tolerance`].
    pub abs_tolerance: f64,
    /// Maximum Newton iterations.
    pub max_iterations: usize,
    /// Maximum step-halving attempts per iteration.
    pub max_dampings: usize,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            abs_tolerance: 1e-13,
            max_iterations: 60,
            max_dampings: 30,
        }
    }
}

impl store::Canonical for NewtonOptions {
    fn canonicalize(&self, key: &mut store::KeyBuilder) {
        key.f64("abs_tolerance", self.abs_tolerance)
            .usize("max_iterations", self.max_iterations)
            .usize("max_dampings", self.max_dampings);
    }
}

/// Result of a crossbar operating-point solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Sensed bit-line currents, one per column (amperes).
    pub currents: Vec<f64>,
    /// All node voltages (word-line nodes first, then bit-line nodes).
    pub node_voltages: Vec<f64>,
    /// Newton iterations performed.
    pub newton_iterations: usize,
    /// Final KCL residual (infinity norm, amperes).
    pub residual_norm: f64,
    /// Total Newton step-halvings across all iterations.
    pub dampings: usize,
    /// Whether the solve was seeded from a previous operating point.
    pub warm_start: bool,
}

/// The per-junction device, selected by [`crate::NonIdealityConfig`].
#[derive(Debug, Clone, Copy)]
enum Cell {
    Linear(LinearMemristor),
    Rram(FilamentaryRram),
    RramWithAccess(SeriesCell),
    LinearWithAccess(SeriesLinearCell),
}

impl Cell {
    #[inline]
    fn current(&self, v: f64) -> f64 {
        match self {
            Cell::Linear(d) => d.current(v),
            Cell::Rram(d) => d.current(v),
            Cell::RramWithAccess(d) => d.current(v),
            Cell::LinearWithAccess(d) => d.current(v),
        }
    }

    /// Current and differential conductance with an internal-node warm
    /// start (series cells only — two-terminal cells have no internal
    /// node and ignore `u`). See `device::SeriesPair::current_and_didv_warm`.
    #[inline]
    fn current_and_didv_warm(&self, v: f64, u: &mut f64) -> (f64, f64) {
        match self {
            Cell::Linear(d) => d.current_and_didv(v),
            Cell::Rram(d) => d.current_and_didv(v),
            Cell::RramWithAccess(d) => d.current_and_didv_warm(v, u),
            Cell::LinearWithAccess(d) => d.current_and_didv_warm(v, u),
        }
    }
}

/// A programmed, non-ideal crossbar ready to solve MVM operating points.
///
/// Construction captures the conductance state `G`; [`solve`] evaluates
/// `I_non_ideal(V)` for input voltage vectors. This mirrors real
/// hardware: devices are programmed once, then many input vectors are
/// applied.
///
/// [`solve`]: CrossbarCircuit::solve
#[derive(Debug, Clone)]
pub struct CrossbarCircuit {
    params: CrossbarParams,
    cells: Vec<Cell>,
    /// The programmed conductances, retained verbatim for content
    /// keying ([`Self::solver_key`]) — `cells` holds the compensated
    /// device state, not the programmed values.
    g_values: Vec<f64>,
    options: NewtonOptions,
    /// Process-unique tile id keying this circuit's trace events.
    tile_id: u64,
}

impl CrossbarCircuit {
    /// Programs a crossbar with conductance state `g`.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::Shape`] if `g` does not match the
    /// dimensions in `params`.
    pub fn new(params: &CrossbarParams, g: &ConductanceMatrix) -> Result<Self, XbarError> {
        Self::with_options(params, g, NewtonOptions::default())
    }

    /// Like [`CrossbarCircuit::new`] with explicit solver options.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::Shape`] if `g` does not match the
    /// dimensions in `params`.
    pub fn with_options(
        params: &CrossbarParams,
        g: &ConductanceMatrix,
        options: NewtonOptions,
    ) -> Result<Self, XbarError> {
        if g.rows() != params.rows || g.cols() != params.cols {
            return Err(XbarError::Shape(format!(
                "conductance matrix is {}x{} but crossbar is {}x{}",
                g.rows(),
                g.cols(),
                params.rows,
                params.cols
            )));
        }
        let cfg = params.nonideality;
        let dev = &params.device;
        // Programming is closed-loop in real arrays: a cell "programmed
        // to G" reads G *through* its access device at small signal.
        // When the access device is modelled, the memristor itself is
        // therefore programmed to the compensated conductance
        // g_m = G·g_acc / (g_acc - G), so the series small-signal
        // conductance equals G and the access device contributes only
        // its *nonlinearity* (plus large-signal compression).
        let compensate = |gij: f64| -> Result<f64, XbarError> {
            if gij >= dev.access_g {
                return Err(XbarError::InvalidParameter(format!(
                    "programmed conductance {gij} S is not reachable through \
                     an access device of {} S",
                    dev.access_g
                )));
            }
            Ok(gij * dev.access_g / (dev.access_g - gij))
        };
        let cells = g
            .as_slice()
            .iter()
            .map(|&gij| {
                Ok(match (cfg.device_nonlinearity, cfg.access_device) {
                    (false, false) => Cell::Linear(LinearMemristor::new(gij)),
                    (true, false) => Cell::Rram(FilamentaryRram::from_conductance(gij, dev)),
                    (true, true) => Cell::RramWithAccess(SeriesCell::new(
                        AccessDevice::new(dev.access_g, dev.access_v_sat),
                        FilamentaryRram::from_conductance(compensate(gij)?, dev),
                    )),
                    (false, true) => Cell::LinearWithAccess(SeriesLinearCell::new(
                        AccessDevice::new(dev.access_g, dev.access_v_sat),
                        LinearMemristor::new(compensate(gij)?),
                    )),
                })
            })
            .collect::<Result<Vec<_>, XbarError>>()?;
        Ok(CrossbarCircuit {
            params: params.clone(),
            cells,
            g_values: g.as_slice().to_vec(),
            options,
            tile_id: NEXT_TILE_ID.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// Content key identifying everything the solver's carried state
    /// depends on: the design parameters (including device model and
    /// non-ideality configuration), the programmed conductance matrix,
    /// and the Newton options.
    ///
    /// Two circuits with equal keys are interchangeable for solving —
    /// a [`SolverCache`] keeps its warm start only while the circuit it
    /// is handed still has the key it was built for. The `tile_id` is
    /// deliberately excluded: it identifies the *instance* for tracing,
    /// not the content.
    pub fn solver_key(&self) -> store::Key {
        let mut key = store::KeyBuilder::new(*b"solv");
        key.nested("params", &self.params)
            .f64_slice("g", &self.g_values)
            .nested("newton", &self.options);
        key.finish()
    }

    /// The design parameters this circuit was built with.
    pub fn params(&self) -> &CrossbarParams {
        &self.params
    }

    /// Process-unique id of this programmed tile; trace events from
    /// this circuit's solves carry it as the `tile` attribute.
    pub fn tile_id(&self) -> u64 {
        self.tile_id
    }

    #[inline]
    fn rows(&self) -> usize {
        self.params.rows
    }

    #[inline]
    fn cols(&self) -> usize {
        self.params.cols
    }

    #[inline]
    fn w_idx(&self, i: usize, j: usize) -> usize {
        i * self.cols() + j
    }

    #[inline]
    fn b_idx(&self, i: usize, j: usize) -> usize {
        self.rows() * self.cols() + i * self.cols() + j
    }

    #[inline]
    fn cell(&self, i: usize, j: usize) -> &Cell {
        &self.cells[i * self.cols() + j]
    }

    /// Solves the DC operating point for input voltages `v` from a
    /// cold start: word lines at their driven voltage, bit lines at
    /// virtual ground.
    ///
    /// A cold solve is the amortized driver run from an empty state, so
    /// it is bit-identical to [`solve_amortized`](Self::solve_amortized)
    /// on a fresh [`SolverCache`].
    ///
    /// # Errors
    ///
    /// * [`XbarError::Shape`] if `v.len() != rows`.
    /// * [`XbarError::OutOfRange`] if `v` contains non-finite entries.
    /// * [`XbarError::NewtonDiverged`] if the Newton iteration fails
    ///   to reach tolerance.
    pub fn solve(&self, v: &[f64]) -> Result<SolveReport, XbarError> {
        self.drive("xbar.solve", v, &mut None)
    }

    /// Fast path when parasitics are disabled: every cell sees exactly
    /// its row's input voltage, so columns decouple.
    fn solve_without_parasitics(&self, v: &[f64]) -> SolveReport {
        let (rows, cols) = (self.rows(), self.cols());
        let mut currents = vec![0.0; cols];
        for i in 0..rows {
            for j in 0..cols {
                currents[j] += self.cell(i, j).current(v[i]);
            }
        }
        let mut node_voltages = vec![0.0; 2 * rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                node_voltages[self.w_idx(i, j)] = v[i];
            }
        }
        SolveReport {
            currents,
            node_voltages,
            newton_iterations: 0,
            residual_norm: 0.0,
            dampings: 0,
            warm_start: false,
        }
    }

    /// The KCL residual tolerance (amperes, infinity norm) the Newton
    /// loop enforces for inputs `v`.
    ///
    /// The residual is a sum of branch currents of magnitude up to
    /// `g_max * v_max`, so f64 cancellation leaves a noise floor
    /// proportional to that scale; convergence is never demanded below
    /// it. Exposed so external checkers (the conformance suite) can
    /// hold a [`SolveReport`] to exactly the bound the solver promised.
    pub fn effective_tolerance(&self, v: &[f64]) -> f64 {
        let g_max = (1.0 / self.params.r_wire)
            .max(1.0 / self.params.r_source)
            .max(1.0 / self.params.r_sink);
        let v_max = v.iter().fold(0.0f64, |a, &b| a.max(b.abs())).max(1e-6);
        self.options
            .abs_tolerance
            .max(64.0 * f64::EPSILON * g_max * v_max)
    }

    /// Recomputes the infinity-norm KCL residual of candidate node
    /// voltages `x` (layout as in [`SolveReport::node_voltages`]) under
    /// inputs `v`, independently of any solver bookkeeping: every
    /// series cell's internal node is solved afresh, never from a
    /// cache's carried guess.
    ///
    /// A converged [`SolveReport`] must satisfy
    /// `verify_kcl(v, &report.node_voltages) <= effective_tolerance(v)`.
    ///
    /// # Errors
    ///
    /// [`XbarError::Shape`] if `v.len() != rows` or
    /// `x.len() != 2 * rows * cols`.
    pub fn verify_kcl(&self, v: &[f64], x: &[f64]) -> Result<f64, XbarError> {
        let (rows, cols) = (self.rows(), self.cols());
        if v.len() != rows {
            return Err(XbarError::Shape(format!(
                "{} input voltages for {rows} word lines",
                v.len()
            )));
        }
        let n = 2 * rows * cols;
        if x.len() != n {
            return Err(XbarError::Shape(format!(
                "{} node voltages for {n} nodes",
                x.len()
            )));
        }
        if !self.params.nonideality.parasitics {
            // No parasitic network: the operating point is closed-form
            // and the residual notion is vacuous.
            return Ok(0.0);
        }
        let half = rows * cols;
        let mut residual = vec![0.0; n];
        self.kcl_residual(
            v,
            x,
            &mut residual,
            &mut vec![f64::NAN; half],
            &mut vec![0.0; half],
        );
        Ok(linalg::vec_ops::norm_inf(&residual))
    }

    /// KCL residual `F(x)`: net current leaving each node, with the
    /// exact Jacobian's cell terms as a byproduct.
    ///
    /// * `u[i * cols + j]` carries the series cell's internal voltage
    ///   from the previous evaluation into the next one (NaN = no
    ///   guess), so the per-cell scalar Newton converges in 1–2
    ///   iterations across the driver's repeated evaluations and across
    ///   consecutive batch samples. The converged internal voltage does
    ///   not depend on the guess, only the inner iteration count does.
    /// * `gd[i * cols + j]` receives each cell's differential
    ///   conductance at this operating point — a byproduct of the same
    ///   internal solve that produced the current, so the Newton
    ///   correction at `x` needs no second device solve per cell.
    fn kcl_residual(&self, v: &[f64], x: &[f64], out: &mut [f64], u: &mut [f64], gd: &mut [f64]) {
        let (rows, cols) = (self.rows(), self.cols());
        let g_src = 1.0 / self.params.r_source;
        let g_snk = 1.0 / self.params.r_sink;
        let g_w = 1.0 / self.params.r_wire;
        out.fill(0.0);

        for i in 0..rows {
            // Source into the first word-line segment.
            let w0 = self.w_idx(i, 0);
            out[w0] += g_src * (x[w0] - v[i]);
            // Word-line wire segments.
            for j in 0..cols.saturating_sub(1) {
                let a = self.w_idx(i, j);
                let b = self.w_idx(i, j + 1);
                let iw = g_w * (x[a] - x[b]);
                out[a] += iw;
                out[b] -= iw;
            }
        }
        for j in 0..cols {
            // Bit-line wire segments.
            for i in 0..rows.saturating_sub(1) {
                let a = self.b_idx(i, j);
                let b = self.b_idx(i + 1, j);
                let iw = g_w * (x[a] - x[b]);
                out[a] += iw;
                out[b] -= iw;
            }
            // Sink from the last bit-line segment to virtual ground.
            let bl = self.b_idx(rows - 1, j);
            out[bl] += g_snk * x[bl];
        }
        // Cross-point devices.
        for i in 0..rows {
            for j in 0..cols {
                let wn = self.w_idx(i, j);
                let bn = self.b_idx(i, j);
                let (idev, g) = self
                    .cell(i, j)
                    .current_and_didv_warm(x[wn] - x[bn], &mut u[i * cols + j]);
                out[wn] += idev;
                out[bn] -= idev;
                gd[i * cols + j] = g;
            }
        }
    }

    /// Solves the Newton correction `J·dx = f` by block Gauss–Seidel,
    /// with `J` linearized at the per-cell conductances `gd`. Returns
    /// `false` if the sweeps fail to contract.
    ///
    /// The Jacobian has the 2x2 block form `[A, -D; -D, B]` where `D`
    /// is the diagonal of cell conductances, `A` decomposes into one
    /// independent tridiagonal chain per word line and `B` into one per
    /// bit line. Every chain is factored once up front (reciprocal
    /// pivots, so the sweeps are multiply-only); each half-solve is
    /// then exact, and the iteration `w <- A^{-1}(f_w + D b)`,
    /// `b <- B^{-1}(f_b + D w)` contracts because `A ⪰ D` and `B ⪰ D`
    /// in the PSD order.
    fn bgs_correction(&self, gd: &[f64], f: &[f64], dx: &mut [f64], work: &mut BgsWork) -> bool {
        let (rows, cols) = (self.rows(), self.cols());
        let half = rows * cols;
        let g_w = 1.0 / self.params.r_wire;
        // Word line `i` runs along row `i` from its source; bit line `j`
        // runs down column `j` to its sink.
        let word_lines = Chains {
            len: cols,
            count: rows,
            step: 1,
            stride: cols,
            g_first: 1.0 / self.params.r_source,
            g_last: 0.0,
        };
        let bit_lines = Chains {
            len: rows,
            count: cols,
            step: cols,
            stride: 1,
            g_first: 0.0,
            g_last: 1.0 / self.params.r_sink,
        };
        word_lines.factor(gd, g_w, &mut work.w_inv_denom, &mut work.w_c_prime);
        bit_lines.factor(gd, g_w, &mut work.b_inv_denom, &mut work.b_c_prime);

        let (f_w, f_b) = f.split_at(half);
        let (dw, db) = dx.split_at_mut(half);
        dw.fill(0.0);
        db.fill(0.0);
        let sol = &mut work.sol;
        // Convergence is measured on the change in the iterate; the
        // outer Newton loop re-verifies the true KCL residual, so the
        // correction only needs inexact-Newton accuracy (relative to
        // the first sweep's step size).
        let mut first_delta = 0.0f64;
        for sweep in 0..MAX_SWEEPS {
            word_lines.solve(
                &work.w_inv_denom,
                &work.w_c_prime,
                g_w,
                |idx| f_w[idx] + gd[idx] * db[idx],
                sol,
            );
            let mut delta = replace_max_change(dw, sol);
            bit_lines.solve(
                &work.b_inv_denom,
                &work.b_c_prime,
                g_w,
                |idx| f_b[idx] + gd[idx] * dw[idx],
                sol,
            );
            delta = delta.max(replace_max_change(db, sol));
            if sweep == 0 {
                first_delta = delta;
            }
            // Inexact-Newton stop: the correction direction is accurate
            // enough once sweeps refine it below 1e-8 of its own scale
            // (absolute femtovolt floor for already-converged points).
            if delta < 1e-15 + 1e-8 * first_delta {
                return true;
            }
        }
        false
    }

    /// The damped-Newton driver behind every entry point.
    ///
    /// `state` is the warm state carried from the previous solve of
    /// this circuit (empty for a cold start). The driver takes it, and
    /// only a successful solve puts the new converged state back — so
    /// a failed solve leaves `state` empty and the next one cold-starts.
    ///
    /// A warm start transfers the previous residual to the new inputs
    /// in O(rows) when it can: the inputs enter `F` only through the
    /// driver source terms `g_src (x - v_i)`, so no device needs
    /// evaluating before the first correction. Every accepted step is
    /// damped against the **true** KCL residual and convergence is the
    /// same [`effective_tolerance`](Self::effective_tolerance) test
    /// whatever the start. A warm solve that fails restarts once from
    /// its best iterate with the residual re-evaluated (counted by
    /// `xbar.amortized.fallbacks`); any other failure is the one exit,
    /// [`XbarError::NewtonDiverged`], counted by `xbar.newton_diverged`.
    fn drive(
        &self,
        span: &'static str,
        v: &[f64],
        state: &mut Option<WarmState>,
    ) -> Result<SolveReport, XbarError> {
        let (rows, cols) = (self.rows(), self.cols());
        if v.len() != rows {
            return Err(XbarError::Shape(format!(
                "{} input voltages for {rows} word lines",
                v.len()
            )));
        }
        if !v.iter().all(|x| x.is_finite()) {
            return Err(XbarError::OutOfRange("input voltage is non-finite".into()));
        }

        let t_start = telemetry::enabled().then(Instant::now);
        let warm = state.take();
        let warm_start = warm.is_some();
        // Raw trace scope (not `telemetry::span`): solves run millions
        // of times, so the per-solve path must not allocate span paths
        // or register timers. The RAII guard also closes the trace
        // span on every error return below.
        let tracing = telemetry::trace_active();
        let _trace = tracing.then(|| {
            telemetry::trace_scope(
                span,
                vec![
                    ("tile".to_string(), telemetry::Json::from(self.tile_id)),
                    ("rows".to_string(), telemetry::Json::from(rows)),
                    ("cols".to_string(), telemetry::Json::from(cols)),
                    ("warm".to_string(), telemetry::Json::Bool(warm_start)),
                ],
            )
        });

        if !self.params.nonideality.parasitics {
            let report = self.solve_without_parasitics(v);
            if let Some(t) = t_start {
                let m = metrics();
                m.solves.inc();
                m.solve_time.record(t.elapsed());
                m.newton_iterations.observe(0.0);
            }
            return Ok(report);
        }

        let n = 2 * rows * cols;
        let half = rows * cols;
        let mut s = match warm {
            Some(mut w) if w.adjustments < MAX_ADJUSTMENTS => {
                let g_src = 1.0 / self.params.r_source;
                for (i, (&v_old, &v_new)) in w.v.iter().zip(v).enumerate() {
                    w.residual[self.w_idx(i, 0)] += g_src * (v_old - v_new);
                }
                w.adjustments += 1;
                w
            }
            Some(mut w) => {
                self.kcl_residual(v, &w.x, &mut w.residual, &mut w.u, &mut w.gd);
                w.adjustments = 0;
                w
            }
            None => {
                let mut x = vec![0.0; n];
                for (i, &vi) in v.iter().enumerate() {
                    x[i * cols..(i + 1) * cols].fill(vi);
                }
                let mut w = WarmState {
                    x,
                    u: vec![f64::NAN; half],
                    v: Vec::with_capacity(rows),
                    residual: vec![0.0; n],
                    gd: vec![0.0; half],
                    adjustments: 0,
                };
                self.kcl_residual(v, &w.x, &mut w.residual, &mut w.u, &mut w.gd);
                w
            }
        };
        let mut res_norm = linalg::vec_ops::norm_inf(&s.residual);
        let tolerance = self.effective_tolerance(v);

        let mut dx = vec![0.0; n];
        let mut trial = vec![0.0; n];
        let mut trial_res = vec![0.0; n];
        let mut trial_gd = vec![0.0; half];
        let mut work = BgsWork::new(rows, cols);
        let mut can_restart = warm_start;
        let mut budget = self.options.max_iterations;
        let mut iterations = 0;
        let mut dampings_total = 0usize;
        while res_norm > tolerance {
            let mut accepted = false;
            if budget > 0 && self.bgs_correction(&s.gd, &s.residual, &mut dx, &mut work) {
                // Damped update: halve the step until the residual shrinks.
                let mut scale = 1.0;
                for _ in 0..=self.options.max_dampings {
                    for ((t, &x), &d) in trial.iter_mut().zip(&s.x).zip(&dx) {
                        *t = x - scale * d;
                    }
                    self.kcl_residual(v, &trial, &mut trial_res, &mut s.u, &mut trial_gd);
                    let trial_norm = linalg::vec_ops::norm_inf(&trial_res);
                    if trial_norm < res_norm || trial_norm <= tolerance {
                        std::mem::swap(&mut s.x, &mut trial);
                        std::mem::swap(&mut s.residual, &mut trial_res);
                        std::mem::swap(&mut s.gd, &mut trial_gd);
                        res_norm = trial_norm;
                        accepted = true;
                        break;
                    }
                    scale *= 0.5;
                    dampings_total += 1;
                }
            }
            if accepted {
                budget -= 1;
                iterations += 1;
                // The residual is now a fresh evaluation, so the
                // transfer chain restarts.
                s.adjustments = 0;
                if tracing {
                    // Per-iteration convergence trace: residual vs.
                    // iter, keyed by tile, visible as instants under the
                    // solve span.
                    telemetry::trace_instant(
                        "xbar.newton_iter",
                        vec![
                            ("tile".to_string(), telemetry::Json::from(self.tile_id)),
                            ("iter".to_string(), telemetry::Json::from(iterations)),
                            ("residual".to_string(), telemetry::Json::Num(res_norm)),
                        ],
                    );
                }
            } else if can_restart {
                // `x` only ever improved the residual (damped
                // acceptance), so the best iterate is never a worse seed
                // than the warm start itself.
                if telemetry::enabled() {
                    metrics().amortized_fallbacks.inc();
                }
                can_restart = false;
                budget = self.options.max_iterations;
                self.kcl_residual(v, &s.x, &mut s.residual, &mut s.u, &mut s.gd);
                s.adjustments = 0;
                res_norm = linalg::vec_ops::norm_inf(&s.residual);
            } else {
                if telemetry::enabled() {
                    metrics().newton_diverged.inc();
                }
                return Err(XbarError::NewtonDiverged {
                    iterations,
                    residual_norm: res_norm,
                });
            }
        }

        let g_sink = 1.0 / self.params.r_sink;
        let currents = (0..cols)
            .map(|j| g_sink * s.x[self.b_idx(rows - 1, j)])
            .collect();
        if let Some(t) = t_start {
            let m = metrics();
            m.solves.inc();
            m.solve_time.record(t.elapsed());
            m.newton_iterations.observe(iterations as f64);
            m.dampings.observe(dampings_total as f64);
            if warm_start {
                m.warm_starts.inc();
            } else {
                m.cold_starts.inc();
            }
        }
        let report = SolveReport {
            currents,
            node_voltages: s.x.clone(),
            newton_iterations: iterations,
            residual_norm: res_norm,
            dampings: dampings_total,
            warm_start,
        };
        s.v.clear();
        s.v.extend_from_slice(v);
        *state = Some(s);
        Ok(report)
    }

    /// Like [`solve`](Self::solve), warm-starting from the previous
    /// converged sample carried in `cache`: Newton starts at the old
    /// node voltages, the old residual transfers to the new inputs in
    /// O(rows), and each series cell's inner solve starts from its old
    /// internal-node voltage.
    ///
    /// # Correctness contract
    ///
    /// The warm state only seeds the iteration; every step is damped
    /// and accepted against the **true** KCL residual, and convergence
    /// is declared by the same
    /// [`effective_tolerance`](Self::effective_tolerance) test as a
    /// cold solve — so an accepted solve is exactly as converged as a
    /// cold one (the `oracle/amortized_vs_cold_solve` conformance law
    /// holds the two within solver tolerance; a warm start from an
    /// already-converged point returns bit-identically — see
    /// `oracle/warm_start_fixed_point`). A fresh cache makes this a
    /// cold solve, bit for bit.
    ///
    /// The cache re-keys itself if `self`'s content changed since it
    /// was built (see [`SolverCache`]); on any solver error the warm
    /// start is dropped so a failed sample cannot seed the next.
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve).
    pub fn solve_amortized(
        &self,
        v: &[f64],
        cache: &mut SolverCache,
    ) -> Result<SolveReport, XbarError> {
        cache.ensure(self);
        let report = self.drive("xbar.solve_amortized", v, cache.state())?;
        if telemetry::enabled() {
            metrics().amortized_solves.inc();
        }
        Ok(report)
    }

    /// Solves a panel of input samples through one cache, chaining
    /// warm starts sample to sample.
    ///
    /// `volts` is row-major `samples × rows`: sample `s` occupies
    /// `volts[s * rows .. (s + 1) * rows]` — the layout funcsim's
    /// batched GEMV path already carries, so a stream batch drives the
    /// solver without reshaping. Each sample runs
    /// [`solve_amortized`](Self::solve_amortized); the first inherits
    /// `cache`'s warm start (cold on a fresh cache), each subsequent
    /// one starts from its predecessor's converged node voltages.
    ///
    /// # Errors
    ///
    /// [`XbarError::Shape`] if `volts.len() != samples * rows`;
    /// otherwise as [`solve`](Self::solve), failing on the first
    /// diverging sample.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), xbar::XbarError> {
    /// use xbar::{ConductanceMatrix, CrossbarCircuit, CrossbarParams, SolverCache};
    ///
    /// let params = CrossbarParams::builder(4, 4).build()?;
    /// let g = ConductanceMatrix::uniform(4, 4, params.g_on());
    /// let circuit = CrossbarCircuit::new(&params, &g)?;
    /// let mut cache = SolverCache::for_circuit(&circuit);
    ///
    /// // Three 4-input samples, row-major.
    /// let volts = vec![
    ///     0.25, 0.0, 0.25, 0.0, //
    ///     0.0, 0.25, 0.0, 0.25, //
    ///     0.25, 0.25, 0.25, 0.25,
    /// ];
    /// let reports = circuit.solve_batch(&volts, 3, &mut cache)?;
    /// assert_eq!(reports.len(), 3);
    /// assert!(!reports[0].warm_start && reports[1].warm_start);
    /// # Ok(())
    /// # }
    /// ```
    pub fn solve_batch(
        &self,
        volts: &[f64],
        samples: usize,
        cache: &mut SolverCache,
    ) -> Result<Vec<SolveReport>, XbarError> {
        let rows = self.rows();
        if volts.len() != samples * rows {
            return Err(XbarError::Shape(format!(
                "{} panel voltages for {samples} samples of {rows} word lines",
                volts.len()
            )));
        }
        let _trace = telemetry::trace_active().then(|| {
            telemetry::trace_scope(
                "xbar.solve_batch",
                vec![
                    ("tile".to_string(), telemetry::Json::from(self.tile_id)),
                    ("samples".to_string(), telemetry::Json::from(samples)),
                ],
            )
        });
        let mut reports = Vec::with_capacity(samples);
        for sample in volts.chunks_exact(rows) {
            reports.push(self.solve_amortized(sample, cache)?);
        }
        Ok(reports)
    }
}

/// Per-solve scratch for [`CrossbarCircuit::bgs_correction`]: the
/// Thomas factors of every word-line and bit-line chain, and one
/// half-solve's solution, all in the row-major `i * cols + j` layout.
struct BgsWork {
    w_inv_denom: Vec<f64>,
    w_c_prime: Vec<f64>,
    b_inv_denom: Vec<f64>,
    b_c_prime: Vec<f64>,
    sol: Vec<f64>,
}

impl BgsWork {
    fn new(rows: usize, cols: usize) -> Self {
        let half = rows * cols;
        BgsWork {
            w_inv_denom: vec![0.0; half],
            w_c_prime: vec![0.0; half],
            b_inv_denom: vec![0.0; half],
            b_c_prime: vec![0.0; half],
            sol: vec![0.0; half],
        }
    }
}

/// How many chains [`Chains`] advances in lockstep.
const CHAIN_BLOCK: usize = 8;

/// One half of the block Gauss–Seidel system: `count` independent
/// symmetric tridiagonal chains of `len` nodes each, coupled to their
/// neighbours by wire conductance `g_w` (off-diagonal `-g_w`), with
/// terminal conductances `g_first`/`g_last` at the chain ends and each
/// node's cell conductance on the diagonal. Node `k` of chain `c` is
/// element `k * step + c * stride` of the crossbar-shaped arrays.
///
/// Each step along a chain depends on the previous one, so a chain
/// alone runs at the latency of its recurrence. The chains of a block
/// therefore advance in lockstep — independent work that fills that
/// latency — and a block's few cache lines stay resident while it
/// walks its chains; bit-line blocks are also contiguous in memory.
struct Chains {
    len: usize,
    count: usize,
    step: usize,
    stride: usize,
    g_first: f64,
    g_last: f64,
}

impl Chains {
    /// Forward-eliminates every chain with cell conductances `gd`,
    /// storing the reciprocal pivots `1/denom` and the eliminated
    /// super-diagonal `c'` so every later [`Chains::solve`] is
    /// multiply-only.
    fn factor(&self, gd: &[f64], g_w: f64, inv_denom: &mut [f64], c_prime: &mut [f64]) {
        let off = -g_w;
        for first in (0..self.count).step_by(CHAIN_BLOCK) {
            let block = first..(first + CHAIN_BLOCK).min(self.count);
            for k in 0..self.len {
                let links = if k == 0 { self.g_first } else { g_w }
                    + if k + 1 < self.len { g_w } else { self.g_last };
                for c in block.clone() {
                    let idx = k * self.step + c * self.stride;
                    let c_prev = if k == 0 {
                        0.0
                    } else {
                        c_prime[idx - self.step]
                    };
                    let inv = 1.0 / (gd[idx] + links - off * c_prev);
                    inv_denom[idx] = inv;
                    c_prime[idx] = off * inv;
                }
            }
        }
    }

    /// Solves every chain against right-hand side `rhs(idx)` into
    /// `sol`: forward substitution with the reciprocal pivots, then
    /// back substitution with the eliminated super-diagonal.
    #[inline]
    fn solve(
        &self,
        inv_denom: &[f64],
        c_prime: &[f64],
        g_w: f64,
        rhs: impl Fn(usize) -> f64,
        sol: &mut [f64],
    ) {
        let off = -g_w;
        for first in (0..self.count).step_by(CHAIN_BLOCK) {
            let block = first..(first + CHAIN_BLOCK).min(self.count);
            for k in 0..self.len {
                for c in block.clone() {
                    let idx = k * self.step + c * self.stride;
                    let prev = if k == 0 { 0.0 } else { sol[idx - self.step] };
                    sol[idx] = (rhs(idx) - off * prev) * inv_denom[idx];
                }
            }
            for k in (0..self.len.saturating_sub(1)).rev() {
                for c in block.clone() {
                    let idx = k * self.step + c * self.stride;
                    sol[idx] -= c_prime[idx] * sol[idx + self.step];
                }
            }
        }
    }
}

/// Copies `src` into `dst`, returning the largest absolute change.
/// Four running maxima instead of one keep the reduction off a single
/// serial dependency chain.
fn replace_max_change(dst: &mut [f64], src: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut dst4 = dst.chunks_exact_mut(4);
    let mut src4 = src.chunks_exact(4);
    for (d, s) in (&mut dst4).zip(&mut src4) {
        for l in 0..4 {
            lanes[l] = lanes[l].max((s[l] - d[l]).abs());
            d[l] = s[l];
        }
    }
    for (d, &s) in dst4.into_remainder().iter_mut().zip(src4.remainder()) {
        lanes[0] = lanes[0].max((s - *d).abs());
        *d = s;
    }
    lanes[0].max(lanes[1]).max(lanes[2].max(lanes[3]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NonIdealityConfig;
    use crate::{ideal_mvm, CrossbarParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(rows: usize, cols: usize) -> CrossbarParams {
        CrossbarParams::builder(rows, cols).build().unwrap()
    }

    #[test]
    fn chains_solve_tridiagonal_systems_in_either_layout() {
        // Two copies of [[2, -1, 0], [-1, 2, -1], [0, -1, 2]] x = b:
        // g_w = 1, a unit terminal conductance at the last node and
        // cell terms 1, 0, 0 on the diagonal. Stored once as rows
        // (step 1) and once as columns (stride 1) of a 2x3 / 3x2 array.
        let b = [[1.0, 0.0, 1.0], [2.0, -1.0, 0.5]];
        for (step, stride) in [(1, 3), (2, 1)] {
            let chains = Chains {
                len: 3,
                count: 2,
                step,
                stride,
                g_first: 0.0,
                g_last: 1.0,
            };
            let idx = |k: usize, c: usize| k * step + c * stride;
            let mut gd = [0.0; 6];
            let mut rhs = [0.0; 6];
            for c in 0..2 {
                gd[idx(0, c)] = 1.0;
                for k in 0..3 {
                    rhs[idx(k, c)] = b[c][k];
                }
            }
            let (mut inv, mut cp, mut x) = ([0.0; 6], [0.0; 6], [0.0; 6]);
            chains.factor(&gd, 1.0, &mut inv, &mut cp);
            chains.solve(&inv, &cp, 1.0, |i| rhs[i], &mut x);
            for c in 0..2 {
                let x = [x[idx(0, c)], x[idx(1, c)], x[idx(2, c)]];
                let ax = [
                    2.0 * x[0] - x[1],
                    -x[0] + 2.0 * x[1] - x[2],
                    -x[1] + 2.0 * x[2],
                ];
                for k in 0..3 {
                    assert!((ax[k] - b[c][k]).abs() < 1e-12, "chain {c}: {ax:?}");
                }
            }
        }
    }

    #[test]
    fn chains_scalar_case() {
        let chains = Chains {
            len: 1,
            count: 1,
            step: 1,
            stride: 1,
            g_first: 1.0,
            g_last: 2.0,
        };
        let (mut inv, mut cp, mut x) = ([0.0], [0.0], [0.0]);
        chains.factor(&[1.0], 1.0, &mut inv, &mut cp);
        chains.solve(&inv, &cp, 1.0, |_| 2.0, &mut x);
        assert!((x[0] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn replace_max_change_copies_and_reports_the_largest_step() {
        let mut dst = vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let src = [0.5, 1.0, -2.0, 3.0, 4.25, 5.0];
        assert_eq!(replace_max_change(&mut dst, &src), 4.0);
        assert_eq!(dst, src);
    }

    #[test]
    fn no_parasitics_linear_matches_ideal() {
        let mut p = params(4, 4);
        p.nonideality = NonIdealityConfig::none();
        let g = ConductanceMatrix::uniform(4, 4, p.g_on());
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let v = vec![0.25; 4];
        let report = circuit.solve(&v).unwrap();
        let ideal = ideal_mvm(&v, &g).unwrap();
        for (a, b) in report.currents.iter().zip(&ideal) {
            assert!((a - b).abs() < 1e-15);
        }
    }

    #[test]
    fn tiny_parasitics_approach_ideal() {
        // With microscopic parasitics the full solve must converge to
        // the ideal MVM.
        let mut p = CrossbarParams::builder(3, 3)
            .r_source(1e-3)
            .r_sink(1e-3)
            .r_wire(1e-3)
            .build()
            .unwrap();
        p.nonideality = NonIdealityConfig::linear_only();
        let g = ConductanceMatrix::uniform(3, 3, p.g_on());
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let v = vec![0.25, 0.1, 0.2];
        let report = circuit.solve(&v).unwrap();
        let ideal = ideal_mvm(&v, &g).unwrap();
        for (a, b) in report.currents.iter().zip(&ideal) {
            assert!((a - b).abs() < 1e-5 * b.abs().max(1e-12), "{a} vs {b}");
        }
    }

    #[test]
    fn parasitics_reduce_current_linear_case() {
        let mut p = params(8, 8);
        p.nonideality = NonIdealityConfig::linear_only();
        let g = ConductanceMatrix::uniform(8, 8, p.g_on());
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let v = vec![p.v_supply; 8];
        let report = circuit.solve(&v).unwrap();
        let ideal = ideal_mvm(&v, &g).unwrap();
        for (ni, id) in report.currents.iter().zip(&ideal) {
            assert!(ni < id, "non-ideal {ni} should be below ideal {id}");
            assert!(*ni > 0.0);
        }
    }

    #[test]
    fn kcl_holds_at_solution() {
        let p = params(6, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let g = ConductanceMatrix::random_sparse(&p, 0.4, &mut rng);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let v = vec![0.25, 0.0, 0.125, 0.25, 0.0625, 0.1875];
        let report = circuit.solve(&v).unwrap();
        assert!(circuit.verify_kcl(&v, &report.node_voltages).unwrap() <= 1e-13);
    }

    #[test]
    fn verify_kcl_matches_report_and_tolerance() {
        let p = params(6, 5);
        let mut rng = StdRng::seed_from_u64(5);
        let g = ConductanceMatrix::random_sparse(&p, 0.4, &mut rng);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let v = vec![0.25, 0.125, 0.0, 0.1875, 0.0625, 0.25];
        let report = circuit.solve(&v).unwrap();
        let res = circuit.verify_kcl(&v, &report.node_voltages).unwrap();
        let tol = circuit.effective_tolerance(&v);
        assert!(res <= tol, "residual {res} above tolerance {tol}");
        // Perturbing a node voltage must break KCL.
        let mut bad = report.node_voltages.clone();
        bad[0] += 1e-3;
        assert!(circuit.verify_kcl(&v, &bad).unwrap() > tol);
        // Shape validation.
        assert!(circuit.verify_kcl(&v[..3], &report.node_voltages).is_err());
        assert!(circuit.verify_kcl(&v, &bad[..5]).is_err());
    }

    #[test]
    fn current_conservation_sources_equal_sinks() {
        // Total current injected by the sources equals total sensed at
        // the sinks (no other path to ground exists).
        let p = params(5, 7);
        let mut rng = StdRng::seed_from_u64(11);
        let g = ConductanceMatrix::random_sparse(&p, 0.3, &mut rng);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let v: Vec<f64> = (0..5).map(|i| 0.05 * i as f64).collect();
        let report = circuit.solve(&v).unwrap();
        let g_src = 1.0 / p.r_source;
        let injected: f64 = (0..5)
            .map(|i| g_src * (v[i] - report.node_voltages[circuit.w_idx(i, 0)]))
            .sum();
        let sensed: f64 = report.currents.iter().sum();
        assert!(
            (injected - sensed).abs() < 1e-12 * injected.abs().max(1e-12),
            "injected {injected} vs sensed {sensed}"
        );
    }

    #[test]
    fn sinh_nonlinearity_boosts_current_at_high_voltage() {
        // At Vsupply = 0.5 V = 2*V0 the sinh devices carry more current
        // than linear ones; with mild parasitics the nonlinear crossbar
        // output must exceed the linear-model output (the mechanism
        // behind Fig. 7d of the paper).
        let base = CrossbarParams::builder(8, 8).v_supply(0.5);
        let mut p_nl = base.clone().build().unwrap();
        p_nl.nonideality = NonIdealityConfig {
            parasitics: true,
            device_nonlinearity: true,
            access_device: false,
        };
        let mut p_lin = base.build().unwrap();
        p_lin.nonideality = NonIdealityConfig::linear_only();

        let g = ConductanceMatrix::uniform(8, 8, p_nl.g_on());
        let v = vec![0.5; 8];
        let i_nl = CrossbarCircuit::new(&p_nl, &g).unwrap().solve(&v).unwrap();
        let i_lin = CrossbarCircuit::new(&p_lin, &g).unwrap().solve(&v).unwrap();
        for (nl, lin) in i_nl.currents.iter().zip(&i_lin.currents) {
            assert!(nl > lin, "nonlinear {nl} should exceed linear {lin}");
        }
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let p = params(4, 4);
        let g = ConductanceMatrix::uniform(4, 4, p.g_on());
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let report = circuit.solve(&[0.0; 4]).unwrap();
        for i in report.currents {
            assert!(i.abs() < 1e-15);
        }
    }

    #[test]
    fn shape_and_input_validation() {
        let p = params(4, 4);
        let g = ConductanceMatrix::uniform(4, 4, 1e-5);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        assert!(circuit.solve(&[0.1; 3]).is_err());
        assert!(circuit.solve(&[f64::NAN, 0.0, 0.0, 0.0]).is_err());

        let g_bad = ConductanceMatrix::uniform(3, 4, 1e-5);
        assert!(CrossbarCircuit::new(&p, &g_bad).is_err());
    }

    #[test]
    fn rectangular_crossbars_solve() {
        for (r, c) in [(1, 1), (1, 8), (8, 1), (3, 9), (9, 3)] {
            let p = params(r, c);
            let g = ConductanceMatrix::uniform(r, c, p.g_on());
            let circuit = CrossbarCircuit::new(&p, &g).unwrap();
            let v = vec![0.2; r];
            let report = circuit.solve(&v).unwrap();
            assert_eq!(report.currents.len(), c);
            assert!(report.currents.iter().all(|&i| i > 0.0 && i.is_finite()));
        }
    }

    #[test]
    fn cold_solve_is_an_empty_cache() {
        // One driver: a cold solve and an amortized solve on a fresh
        // cache take the same steps and return the same report, bit
        // for bit — across every device configuration.
        for config in [
            NonIdealityConfig::all(),
            NonIdealityConfig::linear_only(),
            NonIdealityConfig {
                parasitics: true,
                device_nonlinearity: true,
                access_device: false,
            },
        ] {
            let mut p = params(6, 5);
            p.nonideality = config;
            let mut rng = StdRng::seed_from_u64(23);
            let g = ConductanceMatrix::random_sparse(&p, 0.5, &mut rng);
            let circuit = CrossbarCircuit::new(&p, &g).unwrap();
            let v = vec![0.25, 0.0, 0.125, 0.25, 0.0625, 0.1875];
            let cold = circuit.solve(&v).unwrap();
            let fresh = circuit
                .solve_amortized(&v, &mut SolverCache::for_circuit(&circuit))
                .unwrap();
            assert!(cold.newton_iterations > 0);
            assert_eq!(cold, fresh);
        }
    }

    #[test]
    fn amortized_matches_cold_solve() {
        let p = params(6, 5);
        let mut rng = StdRng::seed_from_u64(21);
        let g = ConductanceMatrix::random_sparse(&p, 0.5, &mut rng);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let mut cache = SolverCache::for_circuit(&circuit);
        let inputs = [
            vec![0.25, 0.0, 0.125, 0.25, 0.0625, 0.1875],
            vec![0.0, 0.25, 0.25, 0.0, 0.125, 0.0625],
            vec![0.25; 6],
        ];
        for v in &inputs {
            let cold = circuit.solve(v).unwrap();
            let amortized = circuit.solve_amortized(v, &mut cache).unwrap();
            // Both converged the same KCL system to the same tolerance.
            for (a, b) in amortized.currents.iter().zip(&cold.currents) {
                assert!(
                    (a - b).abs() <= 1e-6 * b.abs() + 1e-10,
                    "amortized {a} vs cold {b}"
                );
            }
            let res = circuit.verify_kcl(v, &amortized.node_voltages).unwrap();
            assert!(res <= circuit.effective_tolerance(v));
        }
    }

    #[test]
    fn amortized_warm_start_is_fixed_point() {
        let p = params(5, 5);
        let mut rng = StdRng::seed_from_u64(13);
        let g = ConductanceMatrix::random_sparse(&p, 0.6, &mut rng);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let mut cache = SolverCache::for_circuit(&circuit);
        let v = vec![0.25, 0.125, 0.0625, 0.1875, 0.25];
        let first = circuit.solve_amortized(&v, &mut cache).unwrap();
        assert!(!first.warm_start);
        // Re-solving the same input from the converged warm start is a
        // fixed point: zero iterations, bit-identical output.
        let second = circuit.solve_amortized(&v, &mut cache).unwrap();
        assert!(second.warm_start);
        assert_eq!(second.newton_iterations, 0);
        assert_eq!(second.currents, first.currents);
        assert_eq!(second.node_voltages, first.node_voltages);
    }

    #[test]
    fn solve_batch_matches_per_sample_solves() {
        let p = params(4, 6);
        let mut rng = StdRng::seed_from_u64(17);
        let g = ConductanceMatrix::random_sparse(&p, 0.5, &mut rng);
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let mut cache = SolverCache::for_circuit(&circuit);
        let volts = vec![
            0.25, 0.0, 0.125, 0.0625, //
            0.0, 0.25, 0.0, 0.1875, //
            0.125, 0.125, 0.25, 0.0,
        ];
        let reports = circuit.solve_batch(&volts, 3, &mut cache).unwrap();
        assert_eq!(reports.len(), 3);
        assert!(!reports[0].warm_start);
        assert!(reports[1].warm_start && reports[2].warm_start);
        for (s, report) in reports.iter().enumerate() {
            let cold = circuit.solve(&volts[s * 4..(s + 1) * 4]).unwrap();
            for (a, b) in report.currents.iter().zip(&cold.currents) {
                assert!((a - b).abs() <= 1e-6 * b.abs() + 1e-10);
            }
        }
        // Shape validation.
        assert!(circuit.solve_batch(&volts[..10], 3, &mut cache).is_err());
    }

    #[test]
    fn amortized_handles_no_parasitics() {
        let mut p = params(4, 4);
        p.nonideality = NonIdealityConfig::none();
        let g = ConductanceMatrix::uniform(4, 4, p.g_on());
        let circuit = CrossbarCircuit::new(&p, &g).unwrap();
        let mut cache = SolverCache::for_circuit(&circuit);
        let v = vec![0.25; 4];
        let amortized = circuit.solve_amortized(&v, &mut cache).unwrap();
        let cold = circuit.solve(&v).unwrap();
        assert_eq!(amortized.currents, cold.currents);
    }

    #[test]
    fn bigger_crossbar_has_larger_relative_drop() {
        // The Fig. 2(b) trend: larger crossbars lose relatively more
        // current to parasitics.
        let mut rel_errors = Vec::new();
        for n in [4usize, 16, 32] {
            let mut p = params(n, n);
            p.nonideality = NonIdealityConfig::linear_only();
            let g = ConductanceMatrix::uniform(n, n, p.g_on());
            let circuit = CrossbarCircuit::new(&p, &g).unwrap();
            let v = vec![p.v_supply; n];
            let report = circuit.solve(&v).unwrap();
            let ideal = ideal_mvm(&v, &g).unwrap();
            let rel = (ideal[n - 1] - report.currents[n - 1]) / ideal[n - 1];
            rel_errors.push(rel);
        }
        assert!(rel_errors[0] < rel_errors[1]);
        assert!(rel_errors[1] < rel_errors[2]);
    }
}
