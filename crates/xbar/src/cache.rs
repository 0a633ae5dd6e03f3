//! Amortized solving: warm state carried from one solve of a tile to
//! the next, guarded by the circuit's content key.
//!
//! The functional simulator evaluates many MVMs against the *same*
//! programmed conductance matrix, and consecutive stimuli on one tile
//! are similar. A [`SolverCache`] carries the previous converged
//! operating point into the next solve, so Newton starts next to the
//! answer instead of at the cold guess:
//!
//! * the converged node voltages — the next solve's Newton seed;
//! * the KCL residual and per-cell differential conductances there —
//!   the inputs enter the KCL system only through the driver source
//!   terms, so the residual transfers to new inputs in O(rows) and the
//!   first correction needs no device evaluation;
//! * each series 1T1R cell's internal-node voltage — a warm start for
//!   the per-cell scalar Newton inside every residual evaluation.
//!
//! An empty cache is exactly a cold start: [`CrossbarCircuit::solve`]
//! runs the same driver from no state.
//!
//! # Invalidation
//!
//! A `SolverCache` never goes stale silently: every
//! `solve_amortized`/`solve_batch` call re-derives the circuit's
//! content key ([`CrossbarCircuit::solver_key`] — a
//! [`store::Canonical`] digest of the design parameters, the programmed
//! conductances and the Newton options) and compares it to the cached
//! one. On mismatch the cache re-keys and drops its warm state (it
//! belongs to the old operating landscape). The warm state is
//! additionally dropped whenever a solve fails, so a diverged sample
//! cannot poison the next one.
//!
//! [`CrossbarCircuit::solve`]: crate::CrossbarCircuit::solve
//! [`CrossbarCircuit::solver_key`]: crate::CrossbarCircuit::solver_key

use crate::circuit::{metrics, CrossbarCircuit};

/// Per-tile amortization state for [`CrossbarCircuit::solve_amortized`]
/// and [`CrossbarCircuit::solve_batch`]: the previous converged
/// operating point for warm-starting the next sample.
///
/// The cache is self-validating: it remembers the content key
/// ([`CrossbarCircuit::solver_key`]) it was built for and re-keys
/// automatically when handed a circuit with different content — so it
/// is always safe to reuse, just fastest when the circuit actually
/// stays the same.
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
/// let v = vec![params.v_supply; 4];
/// // A fresh cache is a cold start, bit for bit.
/// let amortized = circuit.solve_amortized(&v, &mut cache)?;
/// assert_eq!(amortized, circuit.solve(&v)?);
/// // A second solve of the same input warm-starts from the converged
/// // point: zero Newton iterations, bit-identical currents.
/// let again = circuit.solve_amortized(&v, &mut cache)?;
/// assert_eq!(again.newton_iterations, 0);
/// assert_eq!(again.currents, amortized.currents);
/// # Ok(())
/// # }
/// ```
///
/// [`CrossbarCircuit::solve_amortized`]: crate::CrossbarCircuit::solve_amortized
/// [`CrossbarCircuit::solve_batch`]: crate::CrossbarCircuit::solve_batch
/// [`CrossbarCircuit::solver_key`]: crate::CrossbarCircuit::solver_key
#[derive(Debug, Clone)]
pub struct SolverCache {
    key: store::Key,
    warm: Option<WarmState>,
}

/// The previous converged operating point: everything needed to
/// restart Newton at `x` under *new* inputs without re-evaluating a
/// single device model.
#[derive(Debug, Clone)]
pub(crate) struct WarmState {
    /// Converged node voltages — the next solve's Newton seed.
    pub(crate) x: Vec<f64>,
    /// Per-cell internal-node voltages (series 1T1R cells), row-major,
    /// NaN = no guess yet. A pure performance hint for the per-cell
    /// scalar Newton: the converged internal voltage never depends on
    /// its starting guess.
    pub(crate) u: Vec<f64>,
    /// The inputs the residual was evaluated under.
    pub(crate) v: Vec<f64>,
    /// KCL residual `F(x; v)` at the converged point.
    pub(crate) residual: Vec<f64>,
    /// Per-cell differential conductances at the converged point.
    pub(crate) gd: Vec<f64>,
    /// How many consecutive O(rows) driver-term adjustments this
    /// residual has absorbed without a full re-evaluation. Each
    /// adjustment adds one rounding at the driver nodes; solves that
    /// iterate re-evaluate the residual and reset the count, and the
    /// consumer forces a fresh evaluation past a small cap so the
    /// drift stays orders of magnitude below the solve tolerance.
    pub(crate) adjustments: u32,
}

impl SolverCache {
    /// An empty cache for `circuit`: its first solve cold-starts.
    pub fn for_circuit(circuit: &CrossbarCircuit) -> Self {
        SolverCache {
            key: circuit.solver_key(),
            warm: None,
        }
    }

    /// The content key ([`CrossbarCircuit::solver_key`]) the warm state
    /// belongs to.
    ///
    /// [`CrossbarCircuit::solver_key`]: crate::CrossbarCircuit::solver_key
    pub fn key(&self) -> store::Key {
        self.key
    }

    /// The node voltages the next solve will warm-start from, if any.
    pub fn warm_start(&self) -> Option<&[f64]> {
        self.warm.as_ref().map(|w| w.x.as_slice())
    }

    /// Drops the warm state, so the next solve cold-starts.
    pub fn clear_warm_start(&mut self) {
        self.warm = None;
    }

    /// Re-keys the cache if `circuit`'s content no longer matches,
    /// dropping the warm state in that case (it described a different
    /// circuit's operating point).
    pub(crate) fn ensure(&mut self, circuit: &CrossbarCircuit) {
        let key = circuit.solver_key();
        if key != self.key {
            if telemetry::enabled() {
                metrics().cache_rekeys.inc();
            }
            *self = SolverCache::for_circuit(circuit);
        }
    }

    /// The warm state the solver driver takes and, on success, replaces.
    pub(crate) fn state(&mut self) -> &mut Option<WarmState> {
        &mut self.warm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConductanceMatrix, CrossbarParams, NewtonOptions};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn circuit(seed: u64) -> CrossbarCircuit {
        let p = CrossbarParams::builder(5, 4).build().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let g = ConductanceMatrix::random_sparse(&p, 0.5, &mut rng);
        CrossbarCircuit::new(&p, &g).unwrap()
    }

    #[test]
    fn solver_key_is_content_derived() {
        // Same content, different instances: same key. Different
        // conductances or options: different keys.
        let a = circuit(1);
        let b = circuit(1);
        let c = circuit(2);
        assert_eq!(a.solver_key(), b.solver_key());
        assert_ne!(a.solver_key(), c.solver_key());

        let p = CrossbarParams::builder(5, 4).build().unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let g = ConductanceMatrix::random_sparse(&p, 0.5, &mut rng);
        let tighter = CrossbarCircuit::with_options(
            &p,
            &g,
            NewtonOptions {
                abs_tolerance: 1e-14,
                ..NewtonOptions::default()
            },
        )
        .unwrap();
        assert_ne!(a.solver_key(), tighter.solver_key());
    }

    #[test]
    fn rekey_on_circuit_change_drops_warm_start() {
        let a = circuit(3);
        let b = circuit(4);
        let mut cache = SolverCache::for_circuit(&a);
        let v = vec![0.2; 5];
        a.solve_amortized(&v, &mut cache).unwrap();
        assert!(cache.warm_start().is_some());
        // Handing the cache a different circuit re-keys and clears the
        // warm start before solving.
        let report = b.solve_amortized(&v, &mut cache).unwrap();
        assert!(!report.warm_start);
        assert_eq!(cache.key(), b.solver_key());
    }

    #[test]
    fn clear_warm_start_forces_a_cold_solve() {
        let a = circuit(5);
        let mut cache = SolverCache::for_circuit(&a);
        let v = vec![0.2; 5];
        a.solve_amortized(&v, &mut cache).unwrap();
        cache.clear_warm_start();
        assert!(cache.warm_start().is_none());
        assert_eq!(
            a.solve_amortized(&v, &mut cache).unwrap(),
            a.solve(&v).unwrap()
        );
    }
}
