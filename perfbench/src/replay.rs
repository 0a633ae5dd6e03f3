//! Replayed kernel, surrogate and pool costs at a workload's shapes.
//! An engine call of the GENIEx backend is one `GeniexTile::f_r_batch`
//! (whose two layers are `kernels` GEMMs) plus one `kernels` level
//! GEMV; replaying each piece alone splits the measured engine time
//! between the `geniex` and `kernels` layers.

use std::hint::black_box;
use std::time::Instant;

use geniex::{Geniex, GeniexTile};

/// Per-call replay costs at batch size `n`, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCosts {
    pub n: usize,
    /// `GeniexTile::f_r_batch`, kernels included.
    pub f_r_s: f64,
    /// The `kernels` calls inside `f_r_batch` alone.
    pub f_r_kernels_s: f64,
    /// `kernels::gemv_levels_scaled_batch` (the ideal numerator).
    pub gemv_s: f64,
    /// Flops of the surrogate GEMMs and of the level GEMV per call.
    pub gemm_flop: f64,
    pub gemv_flop: f64,
}

impl EngineCosts {
    /// Share of an engine call spent in `kernels`.
    pub fn kernels_share(&self) -> f64 {
        let total = self.f_r_s + self.gemv_s;
        if total <= 0.0 {
            return 0.0;
        }
        ((self.f_r_kernels_s + self.gemv_s) / total).clamp(0.0, 1.0)
    }

    pub fn gemm_gflops(&self) -> f64 {
        self.gemm_flop / self.f_r_kernels_s.max(1e-12) * 1e-9
    }

    pub fn gemv_gflops(&self) -> f64 {
        self.gemv_flop / self.gemv_s.max(1e-12) * 1e-9
    }

    /// Flops of one engine call.
    pub fn flop_per_call(&self) -> f64 {
        self.gemm_flop + self.gemv_flop
    }
}

/// Fastest of `reps` timings of `f`, each over `inner` calls (the
/// least-disturbed repetition of a deterministic kernel).
fn time_per_call(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            t.elapsed().as_secs_f64() / inner as f64
        })
        .collect();
    samples.into_iter().fold(f64::INFINITY, f64::min)
}

fn levels(len: usize, salt: u32) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt) % 16) as f32 / 15.0)
        .collect()
}

/// Replays one GENIEx engine call's pieces at batch size `n` for a
/// tile of `surrogate`'s design point.
pub fn engine_costs(surrogate: &Geniex, n: usize) -> Result<EngineCosts, String> {
    let p = surrogate.params();
    let (rows, cols, hidden) = (p.rows, p.cols, surrogate.hidden());
    let tile = GeniexTile::new(surrogate, &levels(rows * cols, 7)).map_err(|e| e.to_string())?;
    let v = levels(n * rows, 3);
    let inner = (4096 / n).max(4);

    let f_r_s = time_per_call(7, inner, || {
        black_box(tile.f_r_batch(black_box(&v), n).expect("replay shape"));
    });

    let w_v = levels(hidden * rows, 11);
    let w2 = levels(cols * hidden, 13);
    let bias_h = levels(hidden, 17);
    let bias_c = levels(cols, 19);
    let mut h = vec![0.0f32; hidden * n];
    let mut h_t = vec![0.0f32; n * hidden];
    let mut y = vec![0.0f32; cols * n];
    let f_r_kernels_s = time_per_call(7, inner, || {
        if n == 1 {
            kernels::gemv_bias_relu_f32(&w_v, black_box(&v), &bias_h, &mut h);
            kernels::gemv_into_f32(&w2, &h, &bias_c, &mut y);
        } else {
            kernels::gemm_nt(&w_v, black_box(&v), &mut h, rows, n);
            kernels::transpose_f32(&h, &mut h_t, hidden, n);
            kernels::gemm_nt(&w2, &h_t, &mut y, hidden, n);
        }
        black_box(&y);
    });

    let gt: Vec<f64> = levels(cols * rows, 23)
        .iter()
        .map(|&g| g as f64 * 1e-5)
        .collect();
    let mut out = vec![0.0f64; n * cols];
    let gemv_s = time_per_call(7, inner, || {
        kernels::gemv_levels_scaled_batch(&gt, black_box(&v), 0.2, &mut out, n);
        black_box(&out);
    });

    Ok(EngineCosts {
        n,
        f_r_s,
        f_r_kernels_s: f_r_kernels_s.min(f_r_s),
        gemv_s,
        gemm_flop: (2 * n * (hidden * rows + cols * hidden)) as f64,
        gemv_flop: (2 * n * rows * cols) as f64,
    })
}

/// Wall time the global pool adds per task: a fan-out of `width`
/// empty tasks, divided by `width`, seconds.
pub fn pool_overhead_per_task(width: usize) -> f64 {
    let items: Vec<usize> = (0..width.max(1)).collect();
    time_per_call(7, 200, || {
        black_box(parallel::par_map_grained(&items, 1, |&i| black_box(i)));
    }) / width.max(1) as f64
}
