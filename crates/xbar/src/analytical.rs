//! The linear analytical baseline model.
//!
//! Analytical crossbar models (CxDNN [Jain & Raghunathan 2019] and
//! relatives) capture only the *linear* non-idealities: the parasitic
//! source/sink/wire resistances. Devices are taken at their programmed
//! conductance, ignoring the sinh I-V and the access device. The
//! resulting circuit is linear in the input voltages, so for a fixed
//! conductance state `G` the whole crossbar collapses to an effective
//! matrix `M(G)` with `I_out = M(G) · V` — which is exactly the matrix
//! -inversion technique those papers use, and what makes the analytical
//! backend of the functional simulator fast.
//!
//! GENIEx's claim (reproduced here) is that this model *overestimates*
//! accuracy degradation, because the device non-linearity it ignores
//! partially re-idealizes the crossbar at high voltage.

use crate::circuit::{CrossbarCircuit, NewtonOptions};
use crate::conductance::ConductanceMatrix;
use crate::params::{CrossbarParams, NonIdealityConfig};
use crate::XbarError;

/// The linear analytical model of a programmed crossbar.
///
/// Construction extracts the effective matrix `M(G)` column-by-column
/// by solving the linear parasitic circuit against unit input vectors;
/// afterwards every [`mvm`](AnalyticalModel::mvm) is a dense
/// matrix-vector product, one [`kernels::dot_f64`] per bit line.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), xbar::XbarError> {
/// use xbar::{AnalyticalModel, ConductanceMatrix, CrossbarParams, ideal_mvm};
///
/// let params = CrossbarParams::builder(4, 4).build()?;
/// let g = ConductanceMatrix::uniform(4, 4, params.g_on());
/// let model = AnalyticalModel::new(&params, &g)?;
/// let v = vec![params.v_supply; 4];
/// let i_model = model.mvm(&v)?;
/// let i_ideal = ideal_mvm(&v, &g)?;
/// // The linear model only loses current to parasitics.
/// assert!(i_model[0] < i_ideal[0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AnalyticalModel {
    /// Effective transfer matrix, row-major `cols x rows`: `I = M · V`.
    effective: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl AnalyticalModel {
    /// Builds the analytical model for conductance state `g`.
    ///
    /// The model always uses [`NonIdealityConfig::linear_only`]
    /// regardless of what `params.nonideality` says — that is its
    /// defining limitation.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the underlying circuit and
    /// [`XbarError::NewtonDiverged`] if a unit solve fails (the linear
    /// circuit converges in one Newton step, so this indicates broken
    /// parameters).
    pub fn new(params: &CrossbarParams, g: &ConductanceMatrix) -> Result<Self, XbarError> {
        let mut linear_params = params.clone();
        linear_params.nonideality = NonIdealityConfig {
            parasitics: params.nonideality.parasitics,
            device_nonlinearity: false,
            access_device: false,
        };
        let circuit = CrossbarCircuit::with_options(&linear_params, g, NewtonOptions::default())?;

        let (rows, cols) = (params.rows, params.cols);
        // Column k of M is the response to the unit vector e_k. Unit
        // amplitude v_supply keeps the solves well-scaled; linearity
        // lets us divide it back out.
        let amplitude = params.v_supply;
        let mut effective = vec![0.0; cols * rows];
        let mut v = vec![0.0; rows];
        for k in 0..rows {
            v[k] = amplitude;
            let report = circuit.solve(&v)?;
            for j in 0..cols {
                effective[j * rows + k] = report.currents[j] / amplitude;
            }
            v[k] = 0.0;
        }
        Ok(AnalyticalModel {
            effective,
            rows,
            cols,
        })
    }

    /// Predicted non-ideal output currents for input voltages `v`.
    ///
    /// # Errors
    ///
    /// Returns [`XbarError::Shape`] if `v.len()` does not match the
    /// crossbar's row count.
    pub fn mvm(&self, v: &[f64]) -> Result<Vec<f64>, XbarError> {
        if v.len() != self.rows {
            return Err(XbarError::Shape(format!(
                "analytical mvm: {} inputs for {} word lines",
                v.len(),
                self.rows
            )));
        }
        Ok(self
            .effective
            .chunks_exact(self.rows)
            .map(|row| kernels::dot_f64(row, v))
            .collect())
    }

    /// The effective transfer matrix `M(G)`, row-major `cols x rows`:
    /// bit line `j`'s row is `[j * rows, (j + 1) * rows)`.
    pub fn effective_matrix(&self) -> &[f64] {
        &self.effective
    }

    /// Crossbar input dimension (word lines).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Crossbar output dimension (bit lines).
    pub fn cols(&self) -> usize {
        self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ideal_mvm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(n: usize) -> CrossbarParams {
        CrossbarParams::builder(n, n).build().unwrap()
    }

    #[test]
    fn matches_linear_circuit_exactly() {
        let v = [0.25, 0.0, 0.125, 0.1875, 0.0625, 0.25];
        // The non-square shapes catch a transposed index into the flat
        // `cols x rows` effective matrix, which a square one hides.
        for (rows, cols) in [(6, 6), (5, 3), (3, 5)] {
            let p = CrossbarParams::builder(rows, cols).build().unwrap();
            let mut rng = StdRng::seed_from_u64(21);
            let g = ConductanceMatrix::random_sparse(&p, 0.4, &mut rng);
            let model = AnalyticalModel::new(&p, &g).unwrap();

            let mut linear_params = p.clone();
            linear_params.nonideality = NonIdealityConfig::linear_only();
            let circuit = CrossbarCircuit::new(&linear_params, &g).unwrap();

            let from_model = model.mvm(&v[..rows]).unwrap();
            let from_circuit = circuit.solve(&v[..rows]).unwrap().currents;
            assert_eq!(from_model.len(), cols);
            for (a, b) in from_model.iter().zip(&from_circuit) {
                assert!(
                    (a - b).abs() < 1e-10 * b.abs().max(1e-12),
                    "{rows}x{cols}: model {a} vs circuit {b}"
                );
            }
        }
    }

    #[test]
    fn model_ordering_reflects_size_and_voltage() {
        // The device non-linearity always boosts the circuit above the
        // linear analytical prediction (the paper's central claim: the
        // analytical model overestimates degradation). Whether the
        // circuit also beats the *ideal* MVM depends on the design
        // point: small crossbars at any voltage are boost-dominated
        // (NF < 0, the Fig. 9 anomaly regime); larger crossbars at
        // 0.25 V are IR-drop-dominated (NF > 0, Fig. 2's regime).
        for (n, v_supply, boost_beats_ir) in
            [(4usize, 0.25, true), (4, 0.5, true), (16, 0.25, false)]
        {
            let p = CrossbarParams::builder(n, n)
                .v_supply(v_supply)
                .build()
                .unwrap();
            let g = ConductanceMatrix::uniform(n, n, p.g_on());
            let v = vec![p.v_supply; n];
            let ideal = ideal_mvm(&v, &g).unwrap();
            let circuit = CrossbarCircuit::new(&p, &g)
                .unwrap()
                .solve(&v)
                .unwrap()
                .currents;
            let analytical = AnalyticalModel::new(&p, &g).unwrap().mvm(&v).unwrap();
            for j in 0..n {
                // Parasitics always pull the linear model below ideal,
                // and the sinh boost always lifts the circuit above it.
                assert!(analytical[j] < ideal[j], "n={n} v={v_supply}");
                assert!(circuit[j] > analytical[j], "n={n} v={v_supply}");
                if boost_beats_ir {
                    assert!(circuit[j] > ideal[j], "boost regime n={n} v={v_supply}");
                } else {
                    assert!(circuit[j] < ideal[j], "ir-drop regime n={n} v={v_supply}");
                }
            }
        }
    }

    #[test]
    fn linearity_superposition() {
        let p = params(4);
        let g = ConductanceMatrix::uniform(4, 4, p.g_on());
        let model = AnalyticalModel::new(&p, &g).unwrap();
        let v1 = vec![0.1, 0.0, 0.05, 0.2];
        let v2 = vec![0.0, 0.15, 0.1, 0.0];
        let sum: Vec<f64> = v1.iter().zip(&v2).map(|(a, b)| a + b).collect();
        let i1 = model.mvm(&v1).unwrap();
        let i2 = model.mvm(&v2).unwrap();
        let i_sum = model.mvm(&sum).unwrap();
        for j in 0..4 {
            assert!((i1[j] + i2[j] - i_sum[j]).abs() < 1e-15);
        }
    }

    #[test]
    fn below_ideal_everywhere_for_positive_inputs() {
        let p = params(8);
        let mut rng = StdRng::seed_from_u64(9);
        let g = ConductanceMatrix::random_sparse(&p, 0.2, &mut rng);
        let model = AnalyticalModel::new(&p, &g).unwrap();
        let v = vec![p.v_supply; 8];
        let predicted = model.mvm(&v).unwrap();
        let ideal = ideal_mvm(&v, &g).unwrap();
        for (m, i) in predicted.iter().zip(&ideal) {
            assert!(m <= i);
            assert!(*m > 0.0);
        }
    }

    #[test]
    fn shape_validation() {
        let p = params(4);
        let g = ConductanceMatrix::uniform(4, 4, 1e-5);
        let model = AnalyticalModel::new(&p, &g).unwrap();
        assert!(model.mvm(&[0.1; 3]).is_err());
        assert_eq!(model.rows(), 4);
        assert_eq!(model.cols(), 4);
        assert_eq!(model.effective_matrix().len(), 16);
    }

    #[test]
    fn ignores_nonlinear_config_flags() {
        // Building from params with all non-idealities enabled must
        // still produce the *linear* model.
        let p = params(4); // nonideality = all()
        let g = ConductanceMatrix::uniform(4, 4, p.g_on());
        let model = AnalyticalModel::new(&p, &g).unwrap();
        // Superposition must hold exactly — the nonlinear circuit would
        // violate it.
        let i1 = model.mvm(&[0.2, 0.0, 0.0, 0.0]).unwrap();
        let i2 = model.mvm(&[0.0, 0.2, 0.0, 0.0]).unwrap();
        let i12 = model.mvm(&[0.2, 0.2, 0.0, 0.0]).unwrap();
        for j in 0..4 {
            assert!((i1[j] + i2[j] - i12[j]).abs() < 1e-15);
        }
    }
}
