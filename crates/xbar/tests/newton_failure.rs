//! Failure surfacing: a solve that cannot converge ends in a typed
//! `NewtonDiverged` and named counters, never in a silently accepted
//! iterate, and it leaves no warm state behind to seed the next solve.
//!
//! Lives in its own test binary because it reads process-wide
//! telemetry counters.

use std::sync::{Mutex, PoisonError};
use xbar::{
    ConductanceMatrix, CrossbarCircuit, CrossbarParams, NewtonOptions, SolverCache, XbarError,
};

const SIZE: usize = 8;

/// The tests assert exact counter deltas, so they take turns.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn warm_divergence_restarts_once_then_fails_typed_and_counted() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::set_enabled(true);
    let diverged = telemetry::counter("xbar.newton_diverged");
    let fallbacks = telemetry::counter("xbar.amortized.fallbacks");

    let params = CrossbarParams::builder(SIZE, SIZE).build().unwrap();
    let g = ConductanceMatrix::uniform(SIZE, SIZE, params.g_on());
    let options = NewtonOptions {
        max_iterations: 1,
        ..NewtonOptions::default()
    };
    let circuit = CrossbarCircuit::with_options(&params, &g, options).unwrap();
    let full = vec![params.v_supply; SIZE];
    // Full drive from the zero operating point needs more than two
    // Newton steps even with an unlimited budget.
    let unlimited = CrossbarCircuit::new(&params, &g).unwrap();
    let mut probe = SolverCache::for_circuit(&unlimited);
    unlimited.solve_amortized(&[0.0; SIZE], &mut probe).unwrap();
    assert!(
        unlimited
            .solve_amortized(&full, &mut probe)
            .unwrap()
            .newton_iterations
            > 2
    );

    // Warm the cache at zero input (converged without a step).
    let mut cache = SolverCache::for_circuit(&circuit);
    let zero = circuit.solve_amortized(&[0.0; SIZE], &mut cache).unwrap();
    assert_eq!(zero.newton_iterations, 0);
    assert!(cache.warm_start().is_some());

    let (diverged_before, fallbacks_before) = (diverged.get(), fallbacks.get());
    let err = circuit.solve_amortized(&full, &mut cache).unwrap_err();
    assert!(
        matches!(err, XbarError::NewtonDiverged { iterations: 2, .. }),
        "expected NewtonDiverged after the warm step and the restart's step, got {err:?}"
    );
    assert_eq!(fallbacks.get() - fallbacks_before, 1, "one restart");
    assert_eq!(diverged.get() - diverged_before, 1, "one failure exit");
    assert!(cache.warm_start().is_none(), "failed solve left warm state");

    // The next solve cold-starts: same report as a solve from no state.
    let next = circuit.solve_amortized(&[0.0; SIZE], &mut cache).unwrap();
    assert!(!next.warm_start);
    assert_eq!(next, circuit.solve(&[0.0; SIZE]).unwrap());
}

#[test]
fn overflowing_device_current_fails_typed_and_counted() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    telemetry::set_enabled(true);
    let diverged = telemetry::counter("xbar.newton_diverged");

    // A 200 V input puts about 200 V across the first row's cells at
    // the cold guess, and the sinh device current overflows past about
    // 177 V (V0 = 0.25 V), so the first residual is not finite. With
    // every cell off its entries are NaN, which a NaN-skipping max-norm
    // reads as converged; with mixed cells the first correction is NaN,
    // and evaluating its trial reaches a series cell's inner solve.
    // `CrossbarParams` rejects a supply that high, but `solve` takes any
    // finite input, so the crossbar is built at the default supply.
    let params = CrossbarParams::builder(2, 2).build().unwrap();
    for levels in [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.5, 0.1]] {
        let g = ConductanceMatrix::from_levels(&params, &levels).unwrap();
        let circuit = CrossbarCircuit::new(&params, &g).unwrap();
        let before = diverged.get();
        let err = circuit.solve(&[200.0, 0.0]).unwrap_err();
        assert!(
            matches!(err, XbarError::NewtonDiverged { .. }),
            "levels {levels:?}: expected NewtonDiverged, got {err:?}"
        );
        assert_eq!(
            diverged.get() - before,
            1,
            "levels {levels:?}: one failure exit"
        );
    }
}
