//! Device I-V models for the crossbar cross-points.
//!
//! The paper adopts the filamentary RRAM compact model of Guan et al.
//! (IEEE EDL 2012): `I(d, V) = I0 · exp(d/d0) · sinh(V/V0)`, with an
//! access transistor in series at every junction. We reproduce both and
//! expose them behind [`DeviceModel`] so the circuit solver is agnostic
//! to the device physics.
//!
//! # Conductance calibration
//!
//! A device "programmed to conductance G" means its *small-signal*
//! conductance at V → 0 equals G:
//!
//! ```text
//! I(V) = A · sinh(V / V0)       with  A = G · V0
//! ```
//!
//! so that `dI/dV |_(V=0) = A / V0 = G`. Under this calibration the
//! sinh non-linearity makes the device *super-linear*: at
//! `V = 2 · V0 = 0.5 V` it carries `sinh(2)/2 ≈ 1.81×` the current a
//! linear device would. This is the data-dependent effect GENIEx captures
//! and analytical models miss — IR drops lose current, the sinh boost
//! wins some of it back, and which effect dominates depends on the exact
//! (V, G) pattern.
//!
//! The equivalent filament gap is recoverable from the prefactor:
//! `d = d0 · ln(A / I0)` (negative gap offsets simply fold into the
//! calibration constant; the solver only ever needs `A`).

use crate::params::{DeviceParams, NonIdealityConfig};
use crate::XbarError;

/// A two-terminal device model: current and differential conductance as
/// functions of the terminal voltage.
///
/// Implementations must be *strictly monotonic* (`di_dv > 0` for all
/// finite V) so the circuit Jacobian stays positive-definite; this is a
/// documented contract rather than an enforced one.
pub trait DeviceModel {
    /// Current through the device at terminal voltage `v` (odd in `v`).
    fn current(&self, v: f64) -> f64;

    /// Differential conductance `dI/dV` at terminal voltage `v`
    /// (strictly positive).
    fn di_dv(&self, v: f64) -> f64;

    /// Current and differential conductance together. Implementations
    /// that share transcendental evaluations between the two (sinh and
    /// cosh from one `exp`, tanh and sech² from one `tanh`) override
    /// this — it is the hot call inside the series-cell elimination.
    fn current_and_didv(&self, v: f64) -> (f64, f64) {
        (self.current(v), self.di_dv(v))
    }

    /// Small-signal conductance at the origin.
    fn small_signal_g(&self) -> f64 {
        self.di_dv(0.0)
    }
}

/// An ideal linear memristor: `I = G · V`.
///
/// Used by the analytical baseline (which models only linear
/// non-idealities) and as a control in tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearMemristor {
    g: f64,
}

impl LinearMemristor {
    /// Creates a linear device with conductance `g` (siemens).
    pub fn new(g: f64) -> Self {
        LinearMemristor { g }
    }
}

impl DeviceModel for LinearMemristor {
    #[inline]
    fn current(&self, v: f64) -> f64 {
        self.g * v
    }

    #[inline]
    fn di_dv(&self, _v: f64) -> f64 {
        self.g
    }
}

/// The filamentary RRAM model `I(V) = A · sinh(V / V0)` with
/// `A = G · V0` (small-signal calibration, see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilamentaryRram {
    /// Current prefactor `A = I0 · exp(d/d0)` in amperes.
    prefactor: f64,
    /// Thermal-ish voltage scale of the sinh (volts).
    v0: f64,
}

impl FilamentaryRram {
    /// Creates a device programmed to small-signal conductance `g`
    /// under the given device parameters.
    pub fn from_conductance(g: f64, params: &DeviceParams) -> Self {
        FilamentaryRram {
            prefactor: g * params.v0,
            v0: params.v0,
        }
    }

    /// Creates a device directly from a filament gap `d` (nanometres),
    /// matching the paper's `I0 · exp(d/d0) · sinh(V/V0)` form.
    pub fn from_gap(d_nm: f64, params: &DeviceParams) -> Self {
        FilamentaryRram {
            prefactor: params.i0 * (d_nm / params.d0).exp(),
            v0: params.v0,
        }
    }

    /// The equivalent filament gap `d = d0 · ln(A / I0)` in nanometres.
    pub fn gap_nm(&self, params: &DeviceParams) -> f64 {
        params.d0 * (self.prefactor / params.i0).ln()
    }

    /// The current prefactor `A` (amperes).
    pub fn prefactor(&self) -> f64 {
        self.prefactor
    }
}

impl DeviceModel for FilamentaryRram {
    #[inline]
    fn current(&self, v: f64) -> f64 {
        self.prefactor * (v / self.v0).sinh()
    }

    #[inline]
    fn di_dv(&self, v: f64) -> f64 {
        (self.prefactor / self.v0) * (v / self.v0).cosh()
    }

    #[inline]
    fn current_and_didv(&self, v: f64) -> (f64, f64) {
        sinh_current_and_didv(self.prefactor, self.prefactor / self.v0, self.v0, v)
    }
}

/// `(A · sinh(v/V0), G0 · cosh(v/V0))` for a sinh device with prefactor
/// `A` and small-signal conductance `G0 = A / V0`: one `exp` yields both
/// sinh and cosh.
#[inline(always)]
fn sinh_current_and_didv(prefactor: f64, g0: f64, v0: f64, v: f64) -> (f64, f64) {
    let e = (v / v0).exp();
    let inv = 1.0 / e;
    let sinh = 0.5 * (e - inv);
    let cosh = 0.5 * (e + inv);
    (prefactor * sinh, g0 * cosh)
}

/// The access device (transistor/selector) in series with each RRAM.
///
/// Modelled as a smooth current-limiting element
/// `I(V) = G_acc · V_sat · tanh(V / V_sat)`: ohmic with conductance
/// `G_acc` near the origin, saturating toward `G_acc · V_sat` at large
/// bias — the compressive counterpart to the RRAM's expansive sinh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessDevice {
    g_acc: f64,
    v_sat: f64,
}

impl AccessDevice {
    /// Creates an access device with on-conductance `g_acc` (siemens)
    /// and saturation voltage `v_sat` (volts).
    pub fn new(g_acc: f64, v_sat: f64) -> Self {
        AccessDevice { g_acc, v_sat }
    }
}

impl DeviceModel for AccessDevice {
    #[inline]
    fn current(&self, v: f64) -> f64 {
        self.g_acc * self.v_sat * (v / self.v_sat).tanh()
    }

    #[inline]
    fn di_dv(&self, v: f64) -> f64 {
        let t = (v / self.v_sat).tanh();
        // sech^2 = 1 - tanh^2; floor keeps the Jacobian SPD even deep in
        // saturation.
        (self.g_acc * (1.0 - t * t)).max(self.g_acc * 1e-9)
    }

    #[inline]
    fn current_and_didv(&self, v: f64) -> (f64, f64) {
        let t = (v / self.v_sat).tanh();
        (
            self.g_acc * self.v_sat * t,
            (self.g_acc * (1.0 - t * t)).max(self.g_acc * 1e-9),
        )
    }
}

/// A series combination of an access device and a memristor — the full
/// 1T1R cell the paper simulates at every junction.
///
/// The internal node between the two devices is eliminated on the fly
/// with a scalar Newton solve, so the network solver still sees a single
/// two-terminal element (keeping the system at two nodes per cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPair<M> {
    access: AccessDevice,
    inner: M,
}

/// The paper's 1T1R cell: access device in series with the sinh RRAM.
pub type SeriesCell = SeriesPair<FilamentaryRram>;

/// Access device in series with a *linear* memristor — the
/// "access-device non-linearity only" ablation configuration.
pub type SeriesLinearCell = SeriesPair<LinearMemristor>;

impl<M: DeviceModel> SeriesPair<M> {
    /// Builds a cell from its two constituent devices.
    pub fn new(access: AccessDevice, inner: M) -> Self {
        SeriesPair { access, inner }
    }

    /// Solves for the internal node voltage `u` such that the access
    /// device (spanning `v - u`) and the memristor (spanning `u`) carry
    /// the same current, starting the scalar Newton from the
    /// linear-divider estimate. Returns `(u, i, di_dv_series)`.
    fn solve_internal(&self, v: f64) -> (f64, f64, f64) {
        self.solve_internal_from(v, f64::NAN)
    }

    /// Like [`solve_internal`](Self::solve_internal) but starting the
    /// scalar Newton from `u0` when it is finite. `f(u)` is strictly
    /// decreasing, so the converged `u` does not depend on the start;
    /// only the iteration count does. [`CellArray`] runs the same steps
    /// for a block of cells at once.
    fn solve_internal_from(&self, v: f64, u0: f64) -> (f64, f64, f64) {
        let ga0 = self.access.small_signal_g();
        let gr0 = self.inner.small_signal_g();
        if v == 0.0 {
            return (0.0, 0.0, ga0 * gr0 / (ga0 + gr0));
        }
        let mut u = junction_start(v, u0, ga0, gr0);
        let tol = junction_tolerance(v);
        let mut g_series = 0.0;
        for _ in 0..JUNCTION_MAX_ITERATIONS {
            let (next, step, g) = junction_step(
                v,
                u,
                self.access.current_and_didv(v - u),
                self.inner.current_and_didv(u),
            );
            u = next;
            g_series = g;
            if step.abs() < tol {
                break;
            }
        }
        (u, self.inner.current(u), g_series)
    }
}

impl<M: DeviceModel> DeviceModel for SeriesPair<M> {
    fn current(&self, v: f64) -> f64 {
        self.solve_internal(v).1
    }

    fn di_dv(&self, v: f64) -> f64 {
        // Implicit-function theorem on the series constraint:
        // 1/g_total = 1/g_acc(v-u) + 1/g_inner(u).
        self.solve_internal(v).2
    }

    fn current_and_didv(&self, v: f64) -> (f64, f64) {
        let (_, i, g) = self.solve_internal(v);
        (i, g)
    }
}

/// Scalar Newton iterations allowed per junction solve.
const JUNCTION_MAX_ITERATIONS: usize = 30;

/// The junction solve's stopping threshold on the Newton step: it
/// targets nano-volt accuracy on `u`, which maps to current errors
/// around `G · 1e-9 ≈ 1e-14 A` — far below both the circuit solver's
/// residual tolerance and any ADC resolution.
#[inline(always)]
fn junction_tolerance(v: f64) -> f64 {
    1e-12 + 1e-9 * v.abs()
}

/// Clamps a junction voltage into `[0, v]` (`[v, 0]` for `v < 0`): both
/// devices are passive, so the divider cannot overshoot. A NaN `v`
/// gives NaN.
#[inline(always)]
fn clamp_junction(u: f64, v: f64) -> f64 {
    if v > 0.0 {
        u.clamp(0.0, v)
    } else if v < 0.0 {
        u.clamp(v, 0.0)
    } else {
        f64::NAN
    }
}

/// Where the junction Newton starts: the carried guess `u0` if finite,
/// else the linear-divider estimate from the small-signal conductances
/// `ga0` (access device) and `gr0` (memristor), clamped into range.
#[inline(always)]
fn junction_start(v: f64, u0: f64, ga0: f64, gr0: f64) -> f64 {
    let u = if u0.is_finite() {
        u0
    } else {
        v * ga0 / (ga0 + gr0)
    };
    clamp_junction(u, v)
}

/// One Newton step on the junction voltage `u` of a series pair under
/// terminal voltage `v`, from the access device's current and
/// conductance across `v - u` and the memristor's across `u`. Returns
/// the clamped next `u`, the step taken before clamping, and the pair's
/// series conductance at `u`.
#[inline(always)]
fn junction_step(
    v: f64,
    u: f64,
    (i_acc, g_acc): (f64, f64),
    (i_inner, g_inner): (f64, f64),
) -> (f64, f64, f64) {
    let g_series = g_acc * g_inner / (g_acc + g_inner);
    let step = (i_acc - i_inner) / (g_acc + g_inner);
    (clamp_junction(u + step, v), step, g_series)
}

/// How many cells [`CellArray::evaluate`] advances in lockstep.
const CELL_BLOCK: usize = 8;

/// Every cross-point device of a crossbar, as the circuit solver
/// evaluates them: one device model for the whole array — the kind, the
/// access device and `V0` are stored once — and per cell only what
/// programming set: the memristor's current scale (the sinh prefactor
/// `A`, or a linear device's conductance `G`) and its small-signal
/// conductance (`A / V0`, or `G`).
///
/// [`evaluate`](Self::evaluate) runs blocks of [`CELL_BLOCK`] cells in
/// lockstep. Each lane performs exactly the operation sequence of the
/// scalar [`DeviceModel`] code ([`SeriesPair`] shares its Newton step)
/// and stops at its own convergence, so every result is bit-identical
/// to a cell-by-cell evaluation, while the independent lanes fill the
/// latency one cell's serial junction iteration leaves idle.
#[derive(Debug, Clone)]
pub(crate) struct CellArray {
    /// Memristors follow `A · sinh(v/V0)` rather than `G · v`.
    sinh: bool,
    /// An access device sits in series with every memristor.
    series: bool,
    access: AccessDevice,
    /// The access device's small-signal conductance.
    access_g0: f64,
    v0: f64,
    /// Per cell: the memristor's `A` (sinh) or `G` (linear).
    scale: Vec<f64>,
    /// Per cell: the memristor's small-signal conductance.
    g0: Vec<f64>,
}

impl CellArray {
    /// Programs one cell per conductance in `g` (row-major).
    ///
    /// Programming is closed-loop in real arrays: a cell "programmed
    /// to G" reads G *through* its access device at small signal. When
    /// the access device is modelled, the memristor itself is therefore
    /// programmed to the compensated conductance
    /// `g_m = G·g_acc / (g_acc - G)`, so the series small-signal
    /// conductance equals G and the access device contributes only its
    /// *nonlinearity* (plus large-signal compression).
    ///
    /// # Errors
    ///
    /// [`XbarError::InvalidParameter`] if an access device is modelled
    /// and some `G` is not below its conductance.
    pub(crate) fn program(
        g: &[f64],
        config: NonIdealityConfig,
        dev: &DeviceParams,
    ) -> Result<Self, XbarError> {
        let access = AccessDevice::new(dev.access_g, dev.access_v_sat);
        let mut scale = Vec::with_capacity(g.len());
        let mut g0 = Vec::with_capacity(g.len());
        for &gij in g {
            let g_m = if config.access_device {
                if gij >= dev.access_g {
                    return Err(XbarError::InvalidParameter(format!(
                        "programmed conductance {gij} S is not reachable through \
                         an access device of {} S",
                        dev.access_g
                    )));
                }
                gij * dev.access_g / (dev.access_g - gij)
            } else {
                gij
            };
            if config.device_nonlinearity {
                let d = FilamentaryRram::from_conductance(g_m, dev);
                scale.push(d.prefactor);
                g0.push(d.prefactor / d.v0);
            } else {
                scale.push(g_m);
                g0.push(g_m);
            }
        }
        Ok(CellArray {
            sinh: config.device_nonlinearity,
            series: config.access_device,
            access,
            access_g0: access.small_signal_g(),
            v0: dev.v0,
            scale,
            g0,
        })
    }

    /// Evaluates every cell at node voltages `x`, laid out as the
    /// circuit's: cell `c`'s word-line node first (`x[c]`), then all
    /// bit-line nodes (`x[cells + c]`). Each cell's current leaves its
    /// word-line node and enters its bit-line node in `out`, its
    /// differential conductance goes to `gd[c]`, and a series cell's
    /// junction voltage is carried in `u[c]` (NaN = no guess) from one
    /// evaluation to the next. Returns the junction Newton iterations
    /// run, summed over cells.
    pub(crate) fn evaluate(
        &self,
        x: &[f64],
        out: &mut [f64],
        u: &mut [f64],
        gd: &mut [f64],
    ) -> u64 {
        match (self.series, self.sinh) {
            (false, false) => self.evaluate_as::<false, false>(x, out, u, gd),
            (false, true) => self.evaluate_as::<false, true>(x, out, u, gd),
            (true, false) => self.evaluate_as::<true, false>(x, out, u, gd),
            (true, true) => self.evaluate_as::<true, true>(x, out, u, gd),
        }
    }

    fn evaluate_as<const SERIES: bool, const SINH: bool>(
        &self,
        x: &[f64],
        out: &mut [f64],
        u: &mut [f64],
        gd: &mut [f64],
    ) -> u64 {
        let cells = self.scale.len();
        let (xw, xb) = x.split_at(cells);
        let (out_w, out_b) = out.split_at_mut(cells);
        let mut iterations = 0;
        for first in (0..cells).step_by(CELL_BLOCK) {
            let block = first..(first + CELL_BLOCK).min(cells);
            let (xw, xb) = (&xw[block.clone()], &xb[block.clone()]);
            let mut v = [0.0; CELL_BLOCK];
            for l in 0..xw.len() {
                v[l] = xw[l] - xb[l];
            }
            let mut i = [0.0; CELL_BLOCK];
            let gd = &mut gd[block.clone()];
            if SERIES {
                iterations +=
                    self.series_block::<SINH>(block.clone(), &v, &mut u[block.clone()], &mut i, gd);
            } else {
                let (scale, g0) = (&self.scale[block.clone()], &self.g0[block.clone()]);
                for l in 0..gd.len() {
                    (i[l], gd[l]) = memristor::<SINH>(scale[l], g0[l], self.v0, v[l]);
                }
            }
            let (out_w, out_b) = (&mut out_w[block.clone()], &mut out_b[block]);
            for l in 0..out_w.len() {
                out_w[l] += i[l];
                out_b[l] -= i[l];
            }
        }
        iterations
    }

    /// Solves the series junctions of cells `block` (at most
    /// [`CELL_BLOCK`]) at terminal voltages `v` in lockstep, writing
    /// each cell's current to `i` and its series conductance to `g`.
    /// Returns the junction Newton iterations run.
    #[inline(always)]
    fn series_block<const SINH: bool>(
        &self,
        block: std::ops::Range<usize>,
        v: &[f64; CELL_BLOCK],
        u: &mut [f64],
        i: &mut [f64; CELL_BLOCK],
        g: &mut [f64],
    ) -> u64 {
        let (scale, g0) = (&self.scale[block.clone()], &self.g0[block]);
        let (access, ga0, v0) = (self.access, self.access_g0, self.v0);
        let width = scale.len();
        let (u, g) = (&mut u[..width], &mut g[..width]);
        let mut uj = [0.0; CELL_BLOCK];
        let mut tol = [0.0; CELL_BLOCK];
        let mut live = [false; CELL_BLOCK];
        for l in 0..width {
            if v[l] == 0.0 {
                u[l] = 0.0;
                g[l] = ga0 * g0[l] / (ga0 + g0[l]);
            } else {
                uj[l] = junction_start(v[l], u[l], ga0, g0[l]);
                tol[l] = junction_tolerance(v[l]);
                live[l] = true;
            }
        }
        let mut iterations = 0;
        for _ in 0..JUNCTION_MAX_ITERATIONS {
            let mut any = false;
            for l in 0..width {
                if live[l] {
                    let (next, step, gs) = junction_step(
                        v[l],
                        uj[l],
                        access.current_and_didv(v[l] - uj[l]),
                        memristor::<SINH>(scale[l], g0[l], v0, uj[l]),
                    );
                    uj[l] = next;
                    g[l] = gs;
                    iterations += 1;
                    if step.abs() < tol[l] {
                        live[l] = false;
                    } else {
                        any = true;
                    }
                }
            }
            if !any {
                break;
            }
        }
        for l in 0..width {
            if v[l] != 0.0 {
                u[l] = uj[l];
                i[l] = if SINH {
                    FilamentaryRram {
                        prefactor: scale[l],
                        v0,
                    }
                    .current(uj[l])
                } else {
                    LinearMemristor::new(scale[l]).current(uj[l])
                };
            }
        }
        iterations
    }
}

/// A memristor's current and differential conductance at `v`, from its
/// current scale and small-signal conductance (see [`CellArray`]).
#[inline(always)]
fn memristor<const SINH: bool>(scale: f64, g0: f64, v0: f64, v: f64) -> (f64, f64) {
    if SINH {
        sinh_current_and_didv(scale, g0, v0, v)
    } else {
        (scale * v, g0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::DeviceParams;
    use proptest::prelude::*;

    fn dev_params() -> DeviceParams {
        DeviceParams::default()
    }

    #[test]
    fn linear_device_is_linear() {
        let d = LinearMemristor::new(1e-5);
        assert_eq!(d.current(0.5), 0.5e-5);
        assert_eq!(d.di_dv(123.0), 1e-5);
        assert_eq!(d.small_signal_g(), 1e-5);
    }

    #[test]
    fn rram_small_signal_matches_programmed_g() {
        let g = 1e-5;
        let d = FilamentaryRram::from_conductance(g, &dev_params());
        assert!((d.small_signal_g() - g).abs() < 1e-12 * g);
    }

    #[test]
    fn rram_superlinear_at_high_voltage() {
        let g = 1e-5;
        let p = dev_params();
        let d = FilamentaryRram::from_conductance(g, &p);
        let v = 2.0 * p.v0; // 0.5 V with default V0 = 0.25 V
        let linear = g * v;
        let actual = d.current(v);
        // sinh(2)/2 ≈ 1.8134
        assert!((actual / linear - 2.0f64.sinh() / 2.0).abs() < 1e-12);
        assert!(actual > linear);
    }

    #[test]
    fn rram_is_odd_function() {
        let d = FilamentaryRram::from_conductance(1e-5, &dev_params());
        assert!((d.current(0.3) + d.current(-0.3)).abs() < 1e-20);
    }

    #[test]
    fn rram_gap_round_trip() {
        let p = dev_params();
        let d = FilamentaryRram::from_gap(-1.2, &p);
        let gap = d.gap_nm(&p);
        assert!((gap - (-1.2)).abs() < 1e-12);

        let d2 = FilamentaryRram::from_conductance(1e-5, &p);
        let d3 = FilamentaryRram::from_gap(d2.gap_nm(&p), &p);
        assert!((d2.prefactor() - d3.prefactor()).abs() < 1e-18);
    }

    #[test]
    fn access_device_saturates() {
        let a = AccessDevice::new(1e-4, 0.3);
        // Near origin: ohmic.
        assert!((a.current(0.001) - 1e-4 * 0.001).abs() < 1e-10);
        // Deep saturation: bounded by g * v_sat.
        assert!(a.current(10.0) < 1e-4 * 0.3 * 1.0001);
        assert!(a.current(10.0) > 1e-4 * 0.3 * 0.999);
    }

    #[test]
    fn access_device_conductance_positive() {
        let a = AccessDevice::new(1e-4, 0.3);
        for v in [-5.0, -0.1, 0.0, 0.1, 5.0] {
            assert!(a.di_dv(v) > 0.0, "di_dv at {v}");
        }
    }

    #[test]
    fn series_cell_current_continuity() {
        let p = dev_params();
        let cell = SeriesCell::new(
            AccessDevice::new(1e-3, 0.5),
            FilamentaryRram::from_conductance(1e-5, &p),
        );
        // The current through the cell equals the access-device current
        // at the solved internal node.
        let v = 0.4;
        let (u, i, g) = cell.solve_internal(v);
        assert!((cell.access.current(v - u) - i).abs() < 1e-12 * i.abs().max(1e-12));
        assert!(u > 0.0 && u < v);
        assert!(g > 0.0);
    }

    #[test]
    fn series_cell_small_signal_is_series_combination() {
        let p = dev_params();
        let ga = 1e-3;
        let gr = 1e-5;
        let cell = SeriesCell::new(
            AccessDevice::new(ga, 0.5),
            FilamentaryRram::from_conductance(gr, &p),
        );
        let expect = ga * gr / (ga + gr);
        assert!((cell.di_dv(0.0) - expect).abs() < 1e-9 * expect);
    }

    #[test]
    fn series_cell_zero_voltage() {
        let p = dev_params();
        let cell = SeriesCell::new(
            AccessDevice::new(1e-3, 0.5),
            FilamentaryRram::from_conductance(1e-5, &p),
        );
        assert_eq!(cell.current(0.0), 0.0);
    }

    #[test]
    fn series_cell_dominated_by_weaker_device() {
        // With a very strong access device the cell behaves like the
        // RRAM alone.
        let p = dev_params();
        let rram = FilamentaryRram::from_conductance(1e-5, &p);
        let cell = SeriesCell::new(AccessDevice::new(1.0, 10.0), rram);
        let v = 0.25;
        assert!((cell.current(v) - rram.current(v)).abs() < 1e-4 * rram.current(v));
    }

    #[test]
    fn cell_blocks_match_scalar_devices_bit_for_bit() {
        // Every lane of every block, the tail block included (5x3 = 15
        // cells: one block of 8 and one of 7), must reproduce the scalar
        // device code exactly, whatever its terminal voltage and
        // junction guess. Rotating the cases across the cells puts each
        // case in every lane.
        let dev = dev_params();
        let cells = 15;
        let g: Vec<f64> = (0..cells).map(|c| 2e-6 * (1 + c) as f64).collect();
        let cases = [
            (0.0, f64::NAN),
            (0.0, 0.1),
            (0.3, f64::NAN),
            (-0.3, f64::NAN),
            (0.3, 0.12),
            (-0.3, -0.2),
            (0.3, 0.9),
            (0.3, -0.4),
            (-0.3, 0.5),
            (-0.3, -7.0),
            (0.05, f64::INFINITY),
            (2.5, f64::NAN),
            (-2.5, 2.4),
            (1e-9, 0.0),
        ];
        for (sinh, series) in [(false, false), (true, false), (false, true), (true, true)] {
            let config = NonIdealityConfig {
                parasitics: true,
                device_nonlinearity: sinh,
                access_device: series,
            };
            let array = CellArray::program(&g, config, &dev).unwrap();
            let access = AccessDevice::new(dev.access_g, dev.access_v_sat);
            for rotation in 0..cases.len() {
                let case = |c: usize| cases[(c + rotation) % cases.len()];
                let mut x = vec![0.0; 2 * cells];
                let mut u = vec![0.0; cells];
                for c in 0..cells {
                    (x[c], u[c]) = case(c);
                }
                let mut out = vec![0.0; 2 * cells];
                let mut gd = vec![0.0; cells];
                array.evaluate(&x, &mut out, &mut u, &mut gd);
                for c in 0..cells {
                    let (v, guess) = case(c);
                    let g_m = if series {
                        g[c] * dev.access_g / (dev.access_g - g[c])
                    } else {
                        g[c]
                    };
                    let rram = FilamentaryRram::from_conductance(g_m, &dev);
                    let linear = LinearMemristor::new(g_m);
                    let (u_ref, i_ref, g_ref) = match (sinh, series) {
                        (true, true) => SeriesPair::new(access, rram).solve_internal_from(v, guess),
                        (false, true) => {
                            SeriesPair::new(access, linear).solve_internal_from(v, guess)
                        }
                        (true, false) => {
                            let (i, g) = rram.current_and_didv(v);
                            (guess, i, g)
                        }
                        (false, false) => {
                            let (i, g) = linear.current_and_didv(v);
                            (guess, i, g)
                        }
                    };
                    let what = format!("sinh {sinh}, series {series}, cell {c}, v {v}, u0 {guess}");
                    assert_eq!(out[c].to_bits(), (0.0 + i_ref).to_bits(), "{what}: current");
                    assert_eq!(out[cells + c].to_bits(), (0.0 - i_ref).to_bits(), "{what}");
                    assert_eq!(gd[c].to_bits(), g_ref.to_bits(), "{what}: conductance");
                    assert_eq!(u[c].to_bits(), u_ref.to_bits(), "{what}: junction");
                }
            }
        }
    }

    #[test]
    fn series_cell_with_nan_terminal_voltage_is_nan_not_a_panic() {
        let p = dev_params();
        let cell = SeriesCell::new(
            AccessDevice::new(1e-3, 0.5),
            FilamentaryRram::from_conductance(1e-5, &p),
        );
        assert!(cell.current(f64::NAN).is_nan());
    }

    proptest! {
        #[test]
        fn rram_monotonic(v1 in -0.6f64..0.6, dv in 1e-6f64..0.1) {
            let d = FilamentaryRram::from_conductance(1e-5, &dev_params());
            prop_assert!(d.current(v1 + dv) > d.current(v1));
            prop_assert!(d.di_dv(v1) > 0.0);
        }

        #[test]
        fn series_cell_monotonic_and_odd(v in 1e-4f64..0.6) {
            let p = dev_params();
            let cell = SeriesCell::new(
                AccessDevice::new(5e-4, 0.4),
                FilamentaryRram::from_conductance(2e-5, &p),
            );
            prop_assert!(cell.current(v) > 0.0);
            prop_assert!((cell.current(v) + cell.current(-v)).abs() < 1e-12 * cell.current(v).abs().max(1e-30));
            prop_assert!(cell.di_dv(v) > 0.0);
        }

        #[test]
        fn series_current_below_both_standalone(v in 1e-3f64..0.5) {
            // A series element can never carry more current than either
            // device alone at the full terminal voltage.
            let p = dev_params();
            let acc = AccessDevice::new(5e-4, 0.4);
            let rram = FilamentaryRram::from_conductance(2e-5, &p);
            let cell = SeriesCell::new(acc, rram);
            prop_assert!(cell.current(v) <= rram.current(v) + 1e-18);
            prop_assert!(cell.current(v) <= acc.current(v) + 1e-18);
        }
    }
}
