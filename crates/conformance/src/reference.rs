//! An independent reference solver for the crossbar operating point:
//! damped Newton whose corrections solve the assembled sparse Jacobian
//! by Jacobi-preconditioned conjugate gradient.
//!
//! It is built only from the public `xbar::device` models and
//! [`CrossbarParams`], and shares no code with the production solver —
//! not its Newton driver, its residual, its block Gauss–Seidel sweep or
//! its warm state — so `oracle/solver_bgs_vs_cg` compares two
//! implementations of the same circuit rather than one with itself.

use linalg::{conjugate_gradient, CgOptions, CsrMatrix, TripletMatrix};
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

    /// The Jacobian of [`Self::residual`] at `x`, assembled as CSR.
    pub(crate) fn jacobian(&self, x: &[f64]) -> Result<CsrMatrix, String> {
        let n = x.len();
        let mut t = TripletMatrix::with_capacity(n, n, 4 * n);
        let mut stamp = |a: Option<usize>, b: Option<usize>, g: f64| {
            if let Some(a) = a {
                t.add(a, a, g);
            }
            if let Some(b) = b {
                t.add(b, b, g);
            }
            if let (Some(a), Some(b)) = (a, b) {
                t.add(a, b, -g);
                t.add(b, a, -g);
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
        CsrMatrix::from_triplets(&t).map_err(|e| e.to_string())
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
        let norm = |r: &[f64]| r.iter().fold(0.0f64, |m, e| m.max(e.abs()));
        let mut f = self.residual(v, &x);
        let mut res_norm = norm(&f);
        for _ in 0..60 {
            if res_norm <= tolerance {
                break;
            }
            let dx = conjugate_gradient(
                &self.jacobian(&x)?,
                &f,
                &CgOptions {
                    tolerance: 1e-12,
                    max_iterations: Some(20_000),
                    initial_guess: None,
                },
            )
            .map_err(|e| e.to_string())?
            .x;
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
        let jac = circuit.jacobian(&vec![0.1; p.node_count()]).unwrap();
        assert!(jac.is_symmetric(1e-15));
        // Diagonal dominance implies PSD here.
        for r in 0..jac.rows() {
            assert!(jac.get(r, r) > 0.0);
        }
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
