//! Regression coverage: the `SolverCache` content key is derived from
//! the *post-non-ideality* conductances, never the programmed target.
//! Two tiles sharing a target but differing in drift time are
//! different circuits, so a warm state carried from one must never
//! seed a solve of the other — while genuinely identical drifted tiles
//! key equal.

use xbar::zoo::{ConductanceDrift, NonIdealityStack};
use xbar::{ConductanceMatrix, CrossbarCircuit, CrossbarParams, SolverCache};

const SIZE: usize = 8;

fn target(params: &CrossbarParams) -> ConductanceMatrix {
    let span = params.g_on() - params.g_off();
    let mut g = ConductanceMatrix::uniform(SIZE, SIZE, params.g_off());
    for i in 0..SIZE {
        for j in 0..SIZE {
            let level = ((i + 2 * j) % 5) as f64 / 4.0;
            g.set(i, j, params.g_off() + span * level);
        }
    }
    g
}

fn drifted_circuit(params: &CrossbarParams, t: f64) -> CrossbarCircuit {
    let stack = NonIdealityStack::new(7)
        .with_model(Box::new(ConductanceDrift {
            t,
            t0: 1.0,
            nu: 0.05,
        }))
        .unwrap();
    let g = stack.program(params, &target(params), 0).unwrap();
    CrossbarCircuit::new(params, &g).unwrap()
}

#[test]
fn drift_twins_key_differently_and_never_share_warm_state() {
    let params = CrossbarParams::builder(SIZE, SIZE).build().unwrap();
    let fresh = drifted_circuit(&params, 1.0); // t == t0: identity drift
    let aged = drifted_circuit(&params, 1e5);
    assert_ne!(
        fresh.solver_key(),
        aged.solver_key(),
        "identical targets at different drift times must key differently"
    );

    // Warm a cache on the undrifted twin, then hand it the aged one: it
    // must re-key and cold-start, landing exactly where a cold solve of
    // the aged tile lands.
    let v = vec![params.v_supply; SIZE];
    let mut cache = SolverCache::for_circuit(&fresh);
    let i_fresh = fresh.solve_amortized(&v, &mut cache).unwrap().currents;
    assert!(cache.warm_start().is_some());
    let aged_report = aged.solve_amortized(&v, &mut cache).unwrap();
    assert!(
        !aged_report.warm_start,
        "aged tile warm-started from the undrifted tile's operating point"
    );
    assert_eq!(cache.key(), aged.solver_key());
    assert_eq!(aged_report, aged.solve(&v).unwrap());

    // And the solves really differ: the aged tile conducts less.
    for (f, a) in i_fresh.iter().zip(&aged_report.currents) {
        assert!(a < f, "aged current {a} must sit below fresh {f}");
    }
}

#[test]
fn identical_drifted_tiles_key_equal() {
    let params = CrossbarParams::builder(SIZE, SIZE).build().unwrap();
    let a = drifted_circuit(&params, 1e4);
    let b = drifted_circuit(&params, 1e4);
    assert_eq!(a.solver_key(), b.solver_key());

    // Equal keys make the tiles interchangeable: a cache warmed on one
    // keeps its warm start when handed the other.
    let v = vec![params.v_supply; SIZE];
    let mut cache = SolverCache::for_circuit(&a);
    a.solve_amortized(&v, &mut cache).unwrap();
    let again = b.solve_amortized(&v, &mut cache).unwrap();
    assert!(again.warm_start);
    assert_eq!(again.newton_iterations, 0);
}

#[test]
fn identity_drift_keys_like_the_raw_target() {
    let params = CrossbarParams::builder(SIZE, SIZE).build().unwrap();
    let through_zoo = drifted_circuit(&params, 1.0);
    let raw = CrossbarCircuit::new(&params, &target(&params)).unwrap();
    assert_eq!(
        through_zoo.solver_key(),
        raw.solver_key(),
        "identity drift must not perturb the content key"
    );
}
