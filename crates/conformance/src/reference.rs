//! An independent reference solver for the crossbar operating point:
//! damped Newton whose corrections solve the assembled Jacobian by
//! Jacobi-preconditioned conjugate gradient.
//!
//! It is built only from the public `xbar::device` models and
//! [`CrossbarParams`], and shares no code with the production solver —
//! not its Newton driver, its residual, its block Gauss–Seidel sweep or
//! its warm state — so `oracle/solver_bgs_vs_cg` compares two
//! implementations of the same circuit rather than one with itself.
//! That law draws crossbars of at most 6×6 (72 nodes), so the Jacobian
//! is assembled dense.

use xbar::device::{AccessDevice, DeviceModel, FilamentaryRram, LinearMemristor, SeriesPair};
use xbar::{ConductanceMatrix, CrossbarParams};

/// A programmed crossbar with parasitics, in the node layout of
/// `xbar::SolveReport::node_voltages`: word-line node `(i, j)` at
/// `i * cols + j`, bit-line node `(i, j)` at `rows * cols + i * cols + j`.
pub(crate) struct ReferenceCircuit {
    params: CrossbarParams,
    cells: Vec<Box<dyn DeviceModel>>,
}

impl ReferenceCircuit {
    /// Builds every cross-point device from the programmed conductance
    /// `g`. Programming is closed-loop through the access device: when
    /// one is modelled the memristor is set to `g·g_acc / (g_acc − g)`,
    /// so the series small-signal conductance is the programmed `g`.
    pub(crate) fn new(params: &CrossbarParams, g: &ConductanceMatrix) -> Result<Self, String> {
        let dev = &params.device;
        let cfg = params.nonideality;
        let access = || AccessDevice::new(dev.access_g, dev.access_v_sat);
        let compensate = |gij: f64| {
            if gij >= dev.access_g {
                Err(format!("{gij} S is unreachable through the access device"))
            } else {
                Ok(gij * dev.access_g / (dev.access_g - gij))
            }
        };
        let cells = g
            .as_slice()
            .iter()
            .map(|&gij| -> Result<Box<dyn DeviceModel>, String> {
                Ok(match (cfg.device_nonlinearity, cfg.access_device) {
                    (false, false) => Box::new(LinearMemristor::new(gij)),
                    (true, false) => Box::new(FilamentaryRram::from_conductance(gij, dev)),
                    (true, true) => Box::new(SeriesPair::new(
                        access(),
                        FilamentaryRram::from_conductance(compensate(gij)?, dev),
                    )),
                    (false, true) => Box::new(SeriesPair::new(
                        access(),
                        LinearMemristor::new(compensate(gij)?),
                    )),
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(ReferenceCircuit {
            params: params.clone(),
            cells,
        })
    }

    fn w(&self, i: usize, j: usize) -> usize {
        i * self.params.cols + j
    }

    fn b(&self, i: usize, j: usize) -> usize {
        (self.params.rows + i) * self.params.cols + j
    }

    /// Calls `branch(a, b, g)` for every linear branch of conductance
    /// `g` between nodes `a` and `b` (`None` = a driver or ground).
    fn linear_branches(&self, mut branch: impl FnMut(Option<usize>, Option<usize>, f64)) {
        let (rows, cols) = (self.params.rows, self.params.cols);
        let g_w = 1.0 / self.params.r_wire;
        for i in 0..rows {
            branch(None, Some(self.w(i, 0)), 1.0 / self.params.r_source);
            for j in 1..cols {
                branch(Some(self.w(i, j - 1)), Some(self.w(i, j)), g_w);
            }
        }
        for j in 0..cols {
            for i in 1..rows {
                branch(Some(self.b(i - 1, j)), Some(self.b(i, j)), g_w);
            }
            branch(Some(self.b(rows - 1, j)), None, 1.0 / self.params.r_sink);
        }
    }

    /// KCL residual: net current leaving each node. The driver end of
    /// word line `i` sits at `v[i]`; the sink end of every bit line at
    /// virtual ground.
    fn residual(&self, v: &[f64], x: &[f64]) -> Vec<f64> {
        let cols = self.params.cols;
        let mut out = vec![0.0; x.len()];
        self.linear_branches(|a, b, g| match (a, b) {
            (Some(a), Some(b)) => {
                out[a] += g * (x[a] - x[b]);
                out[b] -= g * (x[a] - x[b]);
            }
            // Word line `i`'s first node is `w(i, 0) = i * cols`.
            (None, Some(b)) => out[b] += g * (x[b] - v[b / cols]),
            (Some(a), None) => out[a] += g * x[a],
            (None, None) => unreachable!("every branch touches a node"),
        });
        for i in 0..self.params.rows {
            for j in 0..cols {
                let (wn, bn) = (self.w(i, j), self.b(i, j));
                let current = self.cells[i * cols + j].current(x[wn] - x[bn]);
                out[wn] += current;
                out[bn] -= current;
            }
        }
        out
    }

    /// The Jacobian of [`Self::residual`] at `x`, dense and row-major
    /// (`n × n` for `n` nodes).
    pub(crate) fn jacobian(&self, x: &[f64]) -> Vec<f64> {
        let n = x.len();
        let mut jac = vec![0.0; n * n];
        let mut stamp = |a: Option<usize>, b: Option<usize>, g: f64| {
            if let Some(a) = a {
                jac[a * n + a] += g;
            }
            if let Some(b) = b {
                jac[b * n + b] += g;
            }
            if let (Some(a), Some(b)) = (a, b) {
                jac[a * n + b] -= g;
                jac[b * n + a] -= g;
            }
        };
        self.linear_branches(&mut stamp);
        for i in 0..self.params.rows {
            for j in 0..self.params.cols {
                let (wn, bn) = (self.w(i, j), self.b(i, j));
                let g = self.cells[i * self.params.cols + j].di_dv(x[wn] - x[bn]);
                stamp(Some(wn), Some(bn), g);
            }
        }
        jac
    }

    /// Damped Newton from the cold guess (word lines at their driven
    /// voltage, bit lines grounded) until the KCL residual's infinity
    /// norm is at most `tolerance`; returns the sensed sink currents.
    pub(crate) fn solve(&self, v: &[f64], tolerance: f64) -> Result<Vec<f64>, String> {
        let (rows, cols) = (self.params.rows, self.params.cols);
        let mut x = vec![0.0; 2 * rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                x[self.w(i, j)] = v[i];
            }
        }
        // A NaN entry counts as an infinite residual, not a zero one.
        let norm = |r: &[f64]| {
            r.iter()
                .map(|e| if e.is_nan() { f64::INFINITY } else { e.abs() })
                .fold(0.0, f64::max)
        };
        let mut f = self.residual(v, &x);
        let mut res_norm = norm(&f);
        for _ in 0..60 {
            if res_norm <= tolerance {
                break;
            }
            let dx = conjugate_gradient(&self.jacobian(&x), &f, 1e-12, 20_000)?;
            // Halve the step until the residual shrinks.
            let mut scale = 1.0;
            let mut accepted = false;
            for _ in 0..=30 {
                let trial: Vec<f64> = x.iter().zip(&dx).map(|(x, d)| x - scale * d).collect();
                let trial_f = self.residual(v, &trial);
                let trial_norm = norm(&trial_f);
                if trial_norm < res_norm || trial_norm <= tolerance {
                    (x, f, res_norm) = (trial, trial_f, trial_norm);
                    accepted = true;
                    break;
                }
                scale *= 0.5;
            }
            if !accepted {
                return Err(format!("reference Newton stalled at residual {res_norm:e}"));
            }
        }
        if res_norm > tolerance {
            return Err(format!("reference Newton stopped at residual {res_norm:e}"));
        }
        let g_sink = 1.0 / self.params.r_sink;
        Ok((0..cols).map(|j| g_sink * x[self.b(rows - 1, j)]).collect())
    }
}

/// Solves `a · x = b` for a symmetric positive-definite row-major `a`
/// by Jacobi-preconditioned conjugate gradient from `x = 0`, until the
/// recurrence residual satisfies `‖r‖₂ ≤ tolerance · ‖b‖₂`. The Jacobi
/// preconditioner matters here: wire and device conductances differ by
/// about five orders of magnitude.
fn conjugate_gradient(
    a: &[f64],
    b: &[f64],
    tolerance: f64,
    max_iterations: usize,
) -> Result<Vec<f64>, String> {
    let n = b.len();
    let dot = kernels::dot_f64;
    let inv_diag: Vec<f64> = (0..n).map(|i| 1.0 / a[i * n + i]).collect();
    let threshold = tolerance * dot(b, b).sqrt();
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(r, d)| r * d).collect();
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];
    for _ in 0..max_iterations {
        if dot(&r, &r).sqrt() <= threshold {
            return Ok(x);
        }
        for (api, row) in ap.iter_mut().zip(a.chunks_exact(n)) {
            *api = dot(row, &p);
        }
        let pap = dot(&p, &ap);
        // Not positive definite, or a non-finite system.
        if !pap.is_finite() || pap <= 0.0 {
            return Err(format!("reference CG broke down (p·Ap = {pap:e})"));
        }
        let alpha = rz / pap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
            z[i] = r[i] * inv_diag[i];
        }
        let rz_next = dot(&r, &z);
        let beta = rz_next / rz;
        rz = rz_next;
        for (pi, zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
    }
    Err(format!(
        "reference CG did not reach {threshold:e} in {max_iterations} iterations"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn jacobian_is_symmetric_spd_structure() {
        let p = CrossbarParams::builder(4, 3).build().unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let g = ConductanceMatrix::random_sparse(&p, 0.2, &mut rng);
        let circuit = ReferenceCircuit::new(&p, &g).unwrap();
        let n = p.node_count();
        let jac = circuit.jacobian(&vec![0.1; n]);
        for r in 0..n {
            // Diagonal dominance implies PSD here.
            assert!(jac[r * n + r] > 0.0);
            for c in 0..r {
                assert_eq!(jac[r * n + c], jac[c * n + r], "({r}, {c})");
            }
        }
    }

    #[test]
    fn conjugate_gradient_solves_a_badly_scaled_spd_system() {
        // Diagonal spread over six decades, as in a circuit Jacobian.
        let n = 6;
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            a[i * n + i] = 10f64.powi(i as i32) + 2.0;
            if i + 1 < n {
                a[i * n + i + 1] = -1.0;
                a[(i + 1) * n + i] = -1.0;
            }
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 - 2.5).collect();
        let x = conjugate_gradient(&a, &b, 1e-12, 100).unwrap();
        for (row, bi) in a.chunks_exact(n).zip(&b) {
            let ax: f64 = row.iter().zip(&x).map(|(a, x)| a * x).sum();
            assert!((ax - bi).abs() < 1e-9, "{ax} vs {bi}");
        }
        let negated: Vec<f64> = a.iter().map(|v| -v).collect();
        assert!(conjugate_gradient(&negated, &b, 1e-12, 100).is_err());
    }

    #[test]
    fn reference_satisfies_kcl_and_tracks_the_linear_limit() {
        // Microscopic parasitics with linear devices: the operating
        // point is the ideal MVM.
        let p = CrossbarParams::builder(3, 3)
            .r_source(1e-3)
            .r_sink(1e-3)
            .r_wire(1e-3)
            .nonideality(xbar::NonIdealityConfig::linear_only())
            .build()
            .unwrap();
        let g = ConductanceMatrix::uniform(3, 3, p.g_on());
        let v = [0.25, 0.1, 0.2];
        let currents = ReferenceCircuit::new(&p, &g)
            .unwrap()
            .solve(&v, 1e-13)
            .unwrap();
        let ideal = xbar::ideal_mvm(&v, &g).unwrap();
        for (a, b) in currents.iter().zip(&ideal) {
            assert!((a - b).abs() < 1e-5 * b.abs(), "{a} vs {b}");
        }
    }
}
