//! Edge-shape regression tests: empty operands, single-row/column
//! matrices, and lane-tail lengths straddling the 8-lane block size.
//!
//! Where a kernel documents bit-identity with its `naive` ordering
//! (`gemm_nn` everywhere, `gemm_nt` against `dot_f32`), these tests
//! assert exact bit patterns; elsewhere they pin the documented
//! ulp-style bound.

use kernels::naive;

/// Lengths that straddle the lane width: tails of 7, exact blocks,
/// and one-past-a-block.
const TAILS: [usize; 7] = [1, 7, 8, 9, 15, 16, 17];

fn series_f32(len: usize, scale: f32) -> Vec<f32> {
    (0..len).map(|i| (i as f32 * 0.61 - 2.3) * scale).collect()
}

fn series_f64(len: usize, scale: f64) -> Vec<f64> {
    (0..len).map(|i| (i as f64 * 0.37 - 1.9) * scale).collect()
}

#[test]
fn dot_empty_and_tails() {
    assert_eq!(kernels::dot_f32(&[], &[]), 0.0);
    assert_eq!(kernels::dot_f64(&[], &[]), 0.0);
    for len in TAILS {
        let a = series_f32(len, 0.9);
        let b = series_f32(len, -1.1);
        let blocked = kernels::dot_f32(&a, &b);
        let reference = naive::dot_f32(&a, &b);
        let magnitude: f32 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        let bound = f32::EPSILON * magnitude * len as f32;
        assert!(
            (blocked - reference).abs() <= bound,
            "dot_f32 len {len}: {blocked} vs {reference}"
        );
        let a = series_f64(len, 0.9);
        let b = series_f64(len, -1.1);
        let blocked = kernels::dot_f64(&a, &b);
        let reference = naive::dot_f64(&a, &b);
        let magnitude: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        assert!(
            (blocked - reference).abs() <= f64::EPSILON * magnitude * len as f64,
            "dot_f64 len {len}: {blocked} vs {reference}"
        );
    }
}

#[test]
fn gemm_nn_empty_shapes() {
    let mut empty: [f32; 0] = [];
    // m = 0 (empty lhs, k > 0).
    kernels::gemm_nn(&[], &series_f32(3 * 4, 1.0), &mut empty, 3, 4);
    // n = 0.
    kernels::gemm_nn(&series_f32(2 * 3, 1.0), &[], &mut empty, 3, 0);
    naive::gemm_nn(&series_f32(2 * 3, 1.0), &[], &mut empty, 3, 0);
    // k = 0: all-zero product, stale output overwritten.
    let mut blocked = [5.0f32; 6];
    let mut reference = [7.0f32; 6];
    kernels::gemm_nn(&[], &[], &mut blocked, 0, 3);
    naive::gemm_nn(&[], &[], &mut reference, 0, 3);
    assert_eq!(blocked, [0.0; 6]);
    assert_eq!(blocked, reference);
}

#[test]
fn gemm_nt_empty_shapes() {
    let mut empty: [f32; 0] = [];
    kernels::gemm_nt(&[], &series_f32(4 * 3, 1.0), &mut empty, 3, 4);
    naive::gemm_nt(&[], &series_f32(4 * 3, 1.0), &mut empty, 3, 4);
    // n = 0: previously panicked in the naive reference.
    kernels::gemm_nt(&series_f32(2 * 3, 1.0), &[], &mut empty, 3, 0);
    naive::gemm_nt(&series_f32(2 * 3, 1.0), &[], &mut empty, 3, 0);
    let mut blocked = [5.0f32; 4];
    let mut reference = [7.0f32; 4];
    kernels::gemm_nt(&[], &[], &mut blocked, 0, 2);
    naive::gemm_nt(&[], &[], &mut reference, 0, 2);
    assert_eq!(blocked, [0.0; 4]);
    assert_eq!(blocked, reference);
}

#[test]
fn gemm_nn_single_row_column_and_tails_bit_identical() {
    let mut shapes = vec![(1, 5, 9), (9, 5, 1), (1, 1, 1), (1, 17, 1)];
    for k in TAILS {
        for n in TAILS {
            shapes.push((3, k, n));
        }
    }
    for (m, k, n) in shapes {
        let a = series_f32(m * k, 1.3);
        let b = series_f32(k * n, -0.7);
        let mut blocked = vec![0.0f32; m * n];
        let mut reference = vec![0.0f32; m * n];
        kernels::gemm_nn(&a, &b, &mut blocked, k, n);
        naive::gemm_nn(&a, &b, &mut reference, k, n);
        for (i, (x, y)) in blocked.iter().zip(&reference).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "gemm_nn {m}x{k}x{n} element {i}: {x} vs {y}"
            );
        }
    }
}

#[test]
fn gemm_nt_matches_dot_spec_on_tails() {
    for k in TAILS {
        for (m, n) in [(1, 9), (9, 1), (2, 5)] {
            let a = series_f32(m * k, 0.8);
            let b = series_f32(n * k, -1.2);
            let mut out = vec![0.0f32; m * n];
            kernels::gemm_nt(&a, &b, &mut out, k, n);
            for i in 0..m {
                for j in 0..n {
                    let expect = kernels::dot_f32(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
                    assert_eq!(
                        out[i * n + j].to_bits(),
                        expect.to_bits(),
                        "gemm_nt {m}x{k}x{n} at ({i},{j})"
                    );
                }
            }
        }
    }
}

#[test]
fn gemv_empty_and_tails() {
    // Empty input vector: output is the init term (plus an exact 0.0).
    let init = [1.5f32, -2.5];
    let mut out = [0.0f32; 2];
    kernels::gemv_into_f32(&[], &[], &init, &mut out);
    assert_eq!(out, init);
    kernels::gemv_bias_relu_f32(&[], &[], &init, &mut out);
    assert_eq!(out, [1.5, 0.0]);
    // Empty output: nothing to write.
    let mut none: [f32; 0] = [];
    kernels::gemv_into_f32(&[], &series_f32(4, 1.0), &[], &mut none);
    let mut none64: [f64; 0] = [];
    kernels::gemv_levels_scaled(&[], &series_f32(4, 1.0), 0.25, &mut none64);
    kernels::gemv_levels_scaled(&[], &[], 0.25, &mut [0.0f64; 0]);

    for k in TAILS {
        let w = series_f32(3 * k, 0.6);
        let x = series_f32(k, -0.9);
        let init = series_f32(3, 0.2);
        let mut out = [0.0f32; 3];
        kernels::gemv_into_f32(&w, &x, &init, &mut out);
        for j in 0..3 {
            let expect = init[j] + kernels::dot_f32(&w[j * k..(j + 1) * k], &x);
            assert_eq!(out[j].to_bits(), expect.to_bits(), "gemv k {k} row {j}");
        }

        let mat = series_f64(2 * k, 1e-5);
        let mut out = [0.0f64; 2];
        let mut reference = [0.0f64; 2];
        kernels::gemv_levels_scaled(&mat, &x, 0.25, &mut out);
        naive::gemv_levels_scaled(&mat, &x, 0.25, &mut reference);
        for j in 0..2 {
            let magnitude: f64 = mat[j * k..(j + 1) * k]
                .iter()
                .zip(&x)
                .map(|(m, v)| (m * f64::from(*v)).abs())
                .sum();
            let bound = (f64::EPSILON * magnitude * 0.25 * k as f64).max(1e-18);
            assert!(
                (out[j] - reference[j]).abs() <= bound,
                "gemv_levels_scaled k {k} row {j}: {} vs {}",
                out[j],
                reference[j]
            );
        }
    }
}
