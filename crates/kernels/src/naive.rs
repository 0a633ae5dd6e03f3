//! Sequential reference implementations of the pre-kernel orderings.
//!
//! These are the loops the workspace ran before the lane-blocked
//! kernels landed: single-chain accumulation in ascending index order,
//! no blocking, no packing. They exist for two reasons:
//!
//! * the ulp-bounded regression tests pin each blocked kernel to its
//!   old ordering (`|blocked − naive| ≤ ε · Σ|terms| · n`), and
//! * the `geniex-bench` before/after benchmarks measure the blocked
//!   kernels against exactly what they replaced.
//!
//! They are not meant for production call sites.

/// Sequential f32 dot product: `acc += a[i] * b[i]` in ascending `i`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "naive::dot_f32: length mismatch");
    let mut acc = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Sequential f64 dot product.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "naive::dot_f64: length mismatch");
    let mut acc = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Sequential `C = A·B` in `ikj` order (the old `Tensor::matmul` loop,
/// minus its zero-skip branch).
///
/// # Panics
///
/// Panics if the buffer lengths are inconsistent with `k`/`n`.
pub fn gemm_nn(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    let m = match a.len().checked_div(k) {
        Some(q) => q,
        None => out.len() / n.max(1),
    };
    assert_eq!(a.len(), m * k, "naive::gemm_nn: lhs length");
    assert_eq!(b.len(), k * n, "naive::gemm_nn: rhs length");
    assert_eq!(out.len(), m * n, "naive::gemm_nn: out length");
    out.fill(0.0);
    for i in 0..m {
        for p in 0..k {
            let av = a[i * k + p];
            let brow = &b[p * n..(p + 1) * n];
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

/// Sequential `C = A·Bᵀ`: one sequential dot per output element (the
/// old `Tensor::matmul_transpose` loop).
///
/// # Panics
///
/// Panics if the buffer lengths are inconsistent with `k`/`n`.
pub fn gemm_nt(a: &[f32], b: &[f32], out: &mut [f32], k: usize, n: usize) {
    if k == 0 {
        out.fill(0.0);
        return;
    }
    let m = a.len() / k;
    assert_eq!(a.len(), m * k, "naive::gemm_nt: lhs length");
    assert_eq!(b.len(), n * k, "naive::gemm_nt: rhs length");
    assert_eq!(out.len(), m * n, "naive::gemm_nt: out length");
    if n == 0 {
        return;
    }
    for (orow, arow) in out.chunks_exact_mut(n).zip(a.chunks_exact(k)) {
        for (o, brow) in orow.iter_mut().zip(b.chunks_exact(k)) {
            *o = dot_f32(arow, brow);
        }
    }
}

/// Sequential level-to-current GEMV (the old `funcsim::gemv_batch`
/// inner loop): `out[j] = (Σ_i mat[j][i] · x[i] as f64) · scale`.
///
/// # Panics
///
/// Panics if `mat.len() != out.len() * x.len()`.
pub fn gemv_levels_scaled(mat: &[f64], x: &[f32], scale: f64, out: &mut [f64]) {
    assert_eq!(
        mat.len(),
        out.len() * x.len(),
        "naive::gemv_levels_scaled: matrix length"
    );
    let k = x.len();
    if k == 0 {
        out.fill(0.0);
        return;
    }
    for (o, row) in out.iter_mut().zip(mat.chunks_exact(k)) {
        let mut acc = 0.0f64;
        for (m, lv) in row.iter().zip(x) {
            acc += m * f64::from(*lv);
        }
        *o = acc * scale;
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn naive_dot_is_sequential() {
        // Ordering check: ((1 + ε·ε⁻¹-ish) shapes are hard to pin
        // portably, so check a simple value instead plus length zero.
        assert_eq!(super::dot_f32(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(super::dot_f64(&[], &[]), 0.0);
    }

    #[test]
    fn naive_gemm_known() {
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [5.0f32, 6.0, 7.0, 8.0];
        let mut c = [0.0f32; 4];
        super::gemm_nn(&a, &b, &mut c, 2, 2);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
        // A·Bᵀ with B = [[5,6],[7,8]] → rows of B are dotted.
        super::gemm_nt(&a, &b, &mut c, 2, 2);
        assert_eq!(c, [17.0, 23.0, 39.0, 53.0]);
    }
}
