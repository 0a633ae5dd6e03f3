//! Deterministic GEMV kernels for the surrogate and simulator hot paths.

use crate::dot_f32;

/// `out[j] = init[j] + Σ_k w[j][k] · x[k]` with `w` row-major
/// `out.len() × x.len()`.
///
/// The reduction uses the [`dot_f32`] lane spec; the `init` term (a
/// bias, or the precomputed conductance contribution in the
/// fast-forward surrogate) is added to the finished tree sum, which is
/// bitwise equal to starting the accumulation from it (IEEE addition
/// is commutative).
///
/// # Panics
///
/// Panics if `w.len() != out.len() * x.len()` or
/// `init.len() != out.len()`.
#[inline]
pub fn gemv_into_f32(w: &[f32], x: &[f32], init: &[f32], out: &mut [f32]) {
    assert_eq!(w.len(), out.len() * x.len(), "gemv_into_f32: matrix length");
    assert_eq!(init.len(), out.len(), "gemv_into_f32: init length");
    let k = x.len();
    if k == 0 {
        for (o, b) in out.iter_mut().zip(init) {
            *o = b + 0.0;
        }
        return;
    }
    for ((o, row), b) in out.iter_mut().zip(w.chunks_exact(k)).zip(init) {
        *o = b + dot_f32(row, x);
    }
}

/// [`gemv_into_f32`] followed by an in-place ReLU — the surrogate's
/// hidden-layer update `h = max(0, W·x + init)` fused into one pass.
///
/// # Panics
///
/// Panics on the same length mismatches as [`gemv_into_f32`].
#[inline]
pub fn gemv_bias_relu_f32(w: &[f32], x: &[f32], init: &[f32], out: &mut [f32]) {
    assert_eq!(
        w.len(),
        out.len() * x.len(),
        "gemv_bias_relu_f32: matrix length"
    );
    assert_eq!(init.len(), out.len(), "gemv_bias_relu_f32: init length");
    let k = x.len();
    if k == 0 {
        for (o, b) in out.iter_mut().zip(init) {
            *o = (b + 0.0).max(0.0);
        }
        return;
    }
    for ((o, row), b) in out.iter_mut().zip(w.chunks_exact(k)).zip(init) {
        *o = (b + dot_f32(row, x)).max(0.0);
    }
}

/// `out[j] = (Σ_i mat[j][i] · x[i] as f64) · scale` with `mat`
/// row-major `out.len() × x.len()` — the level-to-current GEMV shared
/// by the functional simulator's linear tile backends.
///
/// The level vector is widened to `f64` once up front (widening is
/// exact, so this is bit-identical to converting inside the inner loop)
/// and each row then runs through the [`dot_f64`](crate::dot_f64) lane
/// spec; the scale (supply voltage) multiplies the finished sum, as the
/// pre-kernel loop did.
///
/// # Panics
///
/// Panics if `mat.len() != out.len() * x.len()`.
#[inline]
pub fn gemv_levels_scaled(mat: &[f64], x: &[f32], scale: f64, out: &mut [f64]) {
    assert_eq!(
        mat.len(),
        out.len() * x.len(),
        "gemv_levels_scaled: matrix length"
    );
    let k = x.len();
    if k == 0 {
        out.fill(0.0);
        return;
    }
    crate::scratch::with_f64(k, |xw| {
        for (w, &v) in xw.iter_mut().zip(x) {
            *w = f64::from(v);
        }
        for (o, row) in out.iter_mut().zip(mat.chunks_exact(k)) {
            *o = crate::dot_f64(row, xw) * scale;
        }
    });
}

/// Batched [`gemv_levels_scaled`]: `x` holds `n` consecutive level
/// vectors (row-major `n × k`) and `out` the matching `n × rows`
/// results, each bit-identical to the per-vector call.
///
/// Like [`gemm_nt`](crate::gemm_nt), eight matrix rows are packed into
/// a `k×8` transposed panel and every level vector streams through it
/// with broadcast multiplies; `dot_f64` assigns element `p` to lane
/// `p % 8`, so the lane accumulators and closing tree reproduce the
/// scalar kernel's reduction exactly (`f64` multiplication commutes,
/// so `row·x` and `x·row` are the same bits). The panel is packed once
/// per row block and reused across the whole batch.
///
/// # Panics
///
/// Panics if `x.len() != n * k` or `mat.len() * n != out.len() * k`.
pub fn gemv_levels_scaled_batch(mat: &[f64], x: &[f32], scale: f64, out: &mut [f64], n: usize) {
    if n <= 1 {
        if n == 1 {
            gemv_levels_scaled(mat, x, scale, out);
        }
        return;
    }
    assert_eq!(x.len() % n, 0, "gemv_levels_scaled_batch: levels length");
    assert_eq!(out.len() % n, 0, "gemv_levels_scaled_batch: out length");
    let k = x.len() / n;
    let rows = out.len() / n;
    assert_eq!(
        mat.len(),
        rows * k,
        "gemv_levels_scaled_batch: matrix length"
    );
    if k == 0 {
        out.fill(0.0);
        return;
    }
    const NR: usize = crate::LANES;
    crate::scratch::with_f64(n * k, |xw| {
        for (w, &v) in xw.iter_mut().zip(x) {
            *w = f64::from(v);
        }
        crate::scratch::with_f64(k * NR, |panel| {
            let mut j = 0;
            while j + NR <= rows {
                for (c, row) in mat[j * k..(j + NR) * k].chunks_exact(k).enumerate() {
                    for (p, &v) in row.iter().enumerate() {
                        panel[p * NR + c] = v;
                    }
                }
                for (xb, ob) in xw.chunks_exact(k).zip(out.chunks_exact_mut(rows)) {
                    nt_tile_1x8_f64(xb, panel, scale, &mut ob[j..j + NR]);
                }
                j += NR;
            }
            if j < rows {
                for (xb, ob) in xw.chunks_exact(k).zip(out.chunks_exact_mut(rows)) {
                    for (jj, o) in ob.iter_mut().enumerate().skip(j) {
                        *o = crate::dot_f64(&mat[jj * k..(jj + 1) * k], xb) * scale;
                    }
                }
            }
        });
    });
}

/// One widened level vector against a packed 8-row panel — the `f64`
/// twin of the `gemm_nt` tile: lane `p % 8` accumulation, elementwise
/// lane tree, then the scale multiply on each finished sum.
#[inline]
fn nt_tile_1x8_f64(xb: &[f64], panel: &[f64], scale: f64, out: &mut [f64]) {
    const NR: usize = crate::LANES;
    const LANES: usize = crate::LANES;
    let mut acc = [[0.0f64; NR]; LANES];
    let mut blocks = xb.chunks_exact(LANES);
    let mut base = 0;
    for blk in blocks.by_ref() {
        for (l, &av) in blk.iter().enumerate() {
            let p: &[f64; NR] = panel[(base + l) * NR..(base + l + 1) * NR]
                .try_into()
                .expect("panel row width");
            for (acc_c, &pv) in acc[l].iter_mut().zip(p) {
                *acc_c += av * pv;
            }
        }
        base += LANES;
    }
    for (l, &av) in blocks.remainder().iter().enumerate() {
        let p: &[f64; NR] = panel[(base + l) * NR..(base + l + 1) * NR]
            .try_into()
            .expect("panel row width");
        for (acc_c, &pv) in acc[l].iter_mut().zip(p) {
            *acc_c += av * pv;
        }
    }
    for (c, o) in out.iter_mut().enumerate() {
        *o = (((acc[0][c] + acc[1][c]) + (acc[2][c] + acc[3][c]))
            + ((acc[4][c] + acc[5][c]) + (acc[6][c] + acc[7][c])))
            * scale;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemv_matches_dot_plus_init() {
        let w: Vec<f32> = (0..3 * 13).map(|i| (i as f32).sin()).collect();
        let x: Vec<f32> = (0..13).map(|i| (i as f32).cos()).collect();
        let init = [0.5f32, -0.25, 4.0];
        let mut out = [0.0f32; 3];
        gemv_into_f32(&w, &x, &init, &mut out);
        for j in 0..3 {
            let expect = init[j] + dot_f32(&w[j * 13..(j + 1) * 13], &x);
            assert_eq!(out[j].to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn relu_variant_clamps() {
        let w = [1.0f32, -1.0];
        let x = [0.0f32];
        let init = [2.0f32, -3.0];
        let mut out = [0.0f32; 2];
        gemv_bias_relu_f32(&w, &x, &init, &mut out);
        assert_eq!(out, [2.0, 0.0]);
    }

    #[test]
    fn levels_gemv_scales_after_sum() {
        let mat = [1.0f64, 2.0, 3.0, 4.0];
        let x = [0.5f32, 0.25];
        let mut out = [0.0f64; 2];
        gemv_levels_scaled(&mat, &x, 10.0, &mut out);
        assert_eq!(out, [10.0, 25.0]);
    }

    #[test]
    fn empty_input_dimension() {
        let mut out = [1.0f32; 2];
        gemv_into_f32(&[], &[], &[3.0, 4.0], &mut out);
        assert_eq!(out, [3.0, 4.0]);
        let mut out64 = [1.0f64; 2];
        gemv_levels_scaled(&[], &[], 5.0, &mut out64);
        assert_eq!(out64, [0.0, 0.0]);
    }

    /// The batched levels GEMV must match the per-vector kernel bit
    /// for bit at every shape — panel blocks, row tails, and lane
    /// remainders included.
    #[test]
    fn batched_levels_gemv_bit_identical_to_scalar() {
        for (rows, k, n) in [(8, 16, 4), (16, 16, 32), (7, 13, 5), (9, 8, 2), (1, 1, 3)] {
            let mat: Vec<f64> = (0..rows * k)
                .map(|i| ((i * 37) % 101) as f64 * 0.013)
                .collect();
            let x: Vec<f32> = (0..n * k).map(|i| ((i * 17) % 29) as f32 / 28.0).collect();
            let scale = 0.25;
            let mut batched = vec![0.0f64; n * rows];
            gemv_levels_scaled_batch(&mat, &x, scale, &mut batched, n);
            for b in 0..n {
                let mut single = vec![0.0f64; rows];
                gemv_levels_scaled(&mat, &x[b * k..(b + 1) * k], scale, &mut single);
                for (j, (got, want)) in batched[b * rows..(b + 1) * rows]
                    .iter()
                    .zip(&single)
                    .enumerate()
                {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "rows={rows} k={k} n={n} b={b} j={j}"
                    );
                }
            }
        }
    }
}
