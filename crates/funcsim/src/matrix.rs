//! A fixed-point weight matrix programmed onto tiled, bit-sliced
//! crossbars — phases 2 and 3 of the paper's functional simulator.
//!
//! # Digital ↔ analog contract
//!
//! Input codes are split into sign parts and `stream_width`-bit digits
//! (LSB first); weight codes into `slice_width`-bit slices. Each
//! (tile, slice, sign, stream) step drives one analog crossbar
//! operation through a [`ProgrammedXbar`]: digits map to DAC levels
//! `d / d_max`, slices were mapped at programming time to conductance
//! levels `w / w_max` between `g_off` and `g_on`.
//!
//! The ADC digitizes the bit-line current against the crossbar's
//! full-scale `I_max = rows · V_supply · g_on`; the digital back end
//! then removes the `g_off` pedestal (every cell conducts at least
//! `g_off`, so the ideal current contains `(Σ d_i) · g_off · V/d_max`
//! — a term computable exactly in digital) and rescales to recover the
//! digit dot product `Σ d_i · w_ij`. Shift-and-add merges digits into
//! the saturating accumulator; a final requantization produces output
//! activation codes.

use crate::arch::{ArchConfig, WeightMapping};
use crate::engine::{CrossbarEngine, ProgrammedXbar};
use crate::fixed::{digit_count, rescale_saturate, split_digits};
use crate::FuncsimError;
use nn::Tensor;
use std::sync::{Arc, OnceLock};

/// Stack-wide funcsim metrics, resolved once.
struct SharedMetrics {
    mvm_calls: Arc<telemetry::Counter>,
    mvm_vectors: Arc<telemetry::Counter>,
    batch_size: Arc<telemetry::Histogram>,
    tile_ops: Arc<telemetry::Counter>,
    adc_saturations: Arc<telemetry::Counter>,
    adc_clips: Arc<telemetry::Counter>,
}

fn shared_metrics() -> &'static SharedMetrics {
    static METRICS: OnceLock<SharedMetrics> = OnceLock::new();
    METRICS.get_or_init(|| SharedMetrics {
        mvm_calls: telemetry::counter("funcsim.mvm_calls"),
        mvm_vectors: telemetry::counter("funcsim.mvm_vectors"),
        batch_size: telemetry::histogram(
            "funcsim.batch_size",
            &telemetry::exponential_buckets(1.0, 2.0, 12),
        ),
        tile_ops: telemetry::counter("funcsim.tile_ops"),
        adc_saturations: telemetry::counter("funcsim.adc.saturations"),
        adc_clips: telemetry::counter("funcsim.adc.count_clips"),
    })
}

/// Per-matrix handles: engine-specific op timing plus the optional
/// per-layer MVM counter for labeled layers.
struct MatrixMetrics {
    engine_ops: Arc<telemetry::Counter>,
    engine_time: Arc<telemetry::Timer>,
    layer_mvms: Option<Arc<telemetry::Counter>>,
}

impl MatrixMetrics {
    fn new(engine_name: &str, label: Option<&str>) -> Self {
        MatrixMetrics {
            engine_ops: telemetry::counter(&format!("funcsim.engine.{engine_name}.ops")),
            engine_time: telemetry::timer(&format!("funcsim.engine.{engine_name}.seconds")),
            layer_mvms: label.map(|l| telemetry::counter(&format!("funcsim.layer.{l}.mvms"))),
        }
    }
}

/// One non-zero (input sign, tile row, input stream) step of an MVM.
struct Step {
    x_sign: i64,
    tr: usize,
    t: u32,
    /// DAC levels, row-major `n × size`.
    v_levels: Vec<f32>,
    /// Per-vector digit sums, for the ADC pedestal.
    d_sums: Vec<u64>,
}

/// A weight matrix (`m` outputs × `k` inputs) programmed onto
/// crossbars, together with its bias, ready to evaluate fixed-point
/// MVMs.
pub struct ProgrammedMatrix {
    arch: ArchConfig,
    k: usize,
    m: usize,
    tile_rows: usize,
    tile_cols: usize,
    slice_count: u32,
    weight_signs: usize,
    /// Flat `[tile_r][tile_c][slice][sign]` order.
    tiles: Vec<Box<dyn ProgrammedXbar>>,
    /// Bias codes at product precision (input_frac + weight_frac).
    bias_codes: Vec<i64>,
    /// `Offset` mapping: the constant added to every weight code.
    offset_code: i64,
    metrics: MatrixMetrics,
}

impl ProgrammedMatrix {
    /// Quantizes `weight` (`[m, k]`) and `bias` (`[m]`) and programs
    /// them onto `engine`-backed crossbars.
    ///
    /// # Errors
    ///
    /// * [`FuncsimError::InvalidConfig`] for invalid `arch`.
    /// * [`FuncsimError::Shape`] if `weight` is not rank-2 or `bias`
    ///   does not match its output dimension.
    /// * Programming failures from the engine.
    pub fn program(
        engine: &dyn CrossbarEngine,
        arch: &ArchConfig,
        weight: &Tensor,
        bias: &Tensor,
    ) -> Result<Self, FuncsimError> {
        Self::program_labeled(engine, arch, weight, bias, None)
    }

    /// Like [`ProgrammedMatrix::program`] with a telemetry layer label:
    /// MVM counts then also accumulate under
    /// `funcsim.layer.<label>.mvms`, so per-layer activity shows up in
    /// reports and run manifests.
    ///
    /// # Errors
    ///
    /// Same as [`ProgrammedMatrix::program`].
    pub fn program_labeled(
        engine: &dyn CrossbarEngine,
        arch: &ArchConfig,
        weight: &Tensor,
        bias: &Tensor,
        label: Option<&str>,
    ) -> Result<Self, FuncsimError> {
        arch.validate()?;
        if weight.shape().len() != 2 {
            return Err(FuncsimError::Shape(format!(
                "weight must be [m, k], got {:?}",
                weight.shape()
            )));
        }
        let (m, k) = (weight.shape()[0], weight.shape()[1]);
        if bias.shape() != [m] {
            return Err(FuncsimError::Shape(format!(
                "bias shape {:?} for {m} outputs",
                bias.shape()
            )));
        }

        let size = arch.xbar.rows;
        let tile_rows = k.div_ceil(size);
        let tile_cols = m.div_ceil(size);

        let wf = arch.weight_format;
        let (weight_signs, weight_bits, offset_code) = match arch.weight_mapping {
            WeightMapping::Differential => (2usize, wf.magnitude_bits(), 0i64),
            WeightMapping::Offset => (1usize, wf.total_bits(), 1i64 << (wf.total_bits() - 1)),
        };
        let slice_count = digit_count(weight_bits, arch.slice_width);
        let w_max = (1u64 << arch.slice_width) - 1;

        // Quantize all weights once.
        let codes: Vec<i64> = weight.data().iter().map(|&w| wf.quantize(w)).collect();

        let mut tiles: Vec<Box<dyn ProgrammedXbar>> =
            Vec::with_capacity(tile_rows * tile_cols * slice_count as usize * weight_signs);
        let mut g_levels = vec![0.0f32; size * size];
        for tr in 0..tile_rows {
            for tc in 0..tile_cols {
                for s in 0..slice_count {
                    for sign in 0..weight_signs {
                        g_levels.fill(0.0);
                        for i in 0..size {
                            let krow = tr * size + i;
                            if krow >= k {
                                break;
                            }
                            for j in 0..size {
                                let mcol = tc * size + j;
                                if mcol >= m {
                                    break;
                                }
                                let code = codes[mcol * k + krow];
                                let magnitude = match arch.weight_mapping {
                                    WeightMapping::Differential => {
                                        if sign == 0 {
                                            code.max(0) as u64
                                        } else {
                                            (-code).max(0) as u64
                                        }
                                    }
                                    WeightMapping::Offset => (code + offset_code) as u64,
                                };
                                let digit = split_digits(magnitude, arch.slice_width, slice_count)
                                    [s as usize];
                                g_levels[i * size + j] = digit as f32 / w_max as f32;
                            }
                        }
                        // Offset mapping: padded rows must also hold the
                        // "zero weight" (= offset) pattern so unused
                        // devices don't read as g_off. They see 0 V, so
                        // this only matters for IR-drop realism.
                        if matches!(arch.weight_mapping, WeightMapping::Offset) {
                            let offset_digit =
                                split_digits(offset_code as u64, arch.slice_width, slice_count)
                                    [s as usize];
                            let pad_level = offset_digit as f32 / w_max as f32;
                            for i in 0..size {
                                let krow = tr * size + i;
                                for j in 0..size {
                                    let mcol = tc * size + j;
                                    if krow >= k || mcol >= m {
                                        g_levels[i * size + j] = pad_level;
                                    }
                                }
                            }
                        }
                        tiles.push(engine.program(&arch.xbar, &g_levels)?);
                    }
                }
            }
        }

        // Bias at product precision.
        let product_frac = arch.input_format.frac_bits() + wf.frac_bits();
        let bias_codes = bias
            .data()
            .iter()
            .map(|&b| (b as f64 * (1i64 << product_frac) as f64).round() as i64)
            .collect();

        Ok(ProgrammedMatrix {
            arch: arch.clone(),
            k,
            m,
            tile_rows,
            tile_cols,
            slice_count,
            weight_signs,
            tiles,
            bias_codes,
            offset_code,
            metrics: MatrixMetrics::new(engine.name(), label),
        })
    }

    /// Input dimension.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output dimension.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total number of programmed crossbar tiles (including slices and
    /// sign copies).
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    #[inline]
    fn tile(&self, tr: usize, tc: usize, slice: u32, sign: usize) -> &dyn ProgrammedXbar {
        let idx = ((tr * self.tile_cols + tc) * self.slice_count as usize + slice as usize)
            * self.weight_signs
            + sign;
        self.tiles[idx].as_ref()
    }

    /// Converts one batch of bit-line currents to recovered digit
    /// dot-products, modelling the ADC.
    fn adc_to_counts(&self, currents: &[f64], d_sums: &[u64], counts: &mut [i64]) {
        let arch = &self.arch;
        let size = arch.xbar.rows;
        let v_supply = arch.xbar.v_supply;
        let g_on = arch.xbar.g_on();
        let g_off = arch.xbar.g_off();
        let d_max = ((1u64 << arch.stream_width) - 1) as f64;
        let w_max = ((1u64 << arch.slice_width) - 1) as f64;
        let i_max = size as f64 * v_supply * g_on;
        let adc_levels = ((1u64 << arch.adc_bits) - 1) as f64;
        let lsb = i_max / adc_levels;
        let count_unit = (v_supply / d_max) * (g_on - g_off) / w_max;
        let max_count = (size as f64 * d_max * w_max) as i64;

        // Saturation/clip tallies stay in locals so the hot loop pays
        // nothing extra while telemetry is disabled.
        let telemetry_on = telemetry::enabled();
        let mut saturations = 0u64;
        let mut clips = 0u64;
        for (b, chunk) in currents.chunks(size).enumerate() {
            let pedestal = g_off * (v_supply / d_max) * d_sums[b] as f64;
            let out = &mut counts[b * size..(b + 1) * size];
            for (j, &i_raw) in chunk.iter().enumerate() {
                // ADC: clamp to full scale, quantize to the LSB grid.
                let i_adc = (i_raw.clamp(0.0, i_max) / lsb).round() * lsb;
                let count = ((i_adc - pedestal) / count_unit).round() as i64;
                if telemetry_on {
                    saturations += u64::from(!(0.0..=i_max).contains(&i_raw));
                    clips += u64::from(count < -max_count || count > max_count);
                }
                out[j] = count.clamp(-max_count, max_count);
            }
        }
        if telemetry_on {
            let m = shared_metrics();
            m.adc_saturations.add(saturations);
            m.adc_clips.add(clips);
        }
    }

    /// Builds one (sign, tile-row, stream) step: the DAC level panel
    /// every tile in row `tr` reads and the per-vector digit sums, or
    /// `None` when every digit is zero and the step drives no tile.
    fn step(&self, x_codes: &[i64], n: usize, x_sign: i64, tr: usize, t: u32) -> Option<Step> {
        let arch = &self.arch;
        let size = arch.xbar.rows;
        let d_level_max = ((1u64 << arch.stream_width) - 1) as f32;
        let row_base = tr * size;
        let rows_here = size.min(self.k - row_base);
        let shift_t = t * arch.stream_width;
        let mask = (1u64 << arch.stream_width) - 1;
        let mut v_levels = vec![0.0f32; n * size];
        let mut d_sums = vec![0u64; n];
        let mut any_nonzero = false;
        for b in 0..n {
            let row = &mut v_levels[b * size..(b + 1) * size];
            for i in 0..rows_here {
                let code = x_codes[b * self.k + row_base + i];
                let magnitude = if x_sign > 0 {
                    code.max(0) as u64
                } else {
                    (-code).max(0) as u64
                };
                let digit = (magnitude >> shift_t) & mask;
                if digit != 0 {
                    row[i] = digit as f32 / d_level_max;
                    d_sums[b] += digit;
                    any_nonzero = true;
                }
            }
        }
        any_nonzero.then_some(Step {
            x_sign,
            tr,
            t,
            v_levels,
            d_sums,
        })
    }

    /// Evaluates the MVM for `n` input-activation code vectors
    /// (row-major `n × k`, codes in the input format), producing output
    /// activation codes (row-major `n × m`).
    ///
    /// # Errors
    ///
    /// Returns [`FuncsimError::Shape`] on length mismatch and
    /// propagates backend failures.
    pub fn mvm_codes(&self, x_codes: &[i64], n: usize) -> Result<Vec<i64>, FuncsimError> {
        if x_codes.len() != n * self.k {
            return Err(FuncsimError::Shape(format!(
                "{} input codes for {n} vectors of length {}",
                x_codes.len(),
                self.k
            )));
        }
        if telemetry::enabled() {
            let m = shared_metrics();
            m.mvm_calls.inc();
            m.mvm_vectors.add(n as u64);
            m.batch_size.observe(n as f64);
            if let Some(layer) = &self.metrics.layer_mvms {
                layer.add(n as u64);
            }
        }
        // Raw trace scopes (gated on trace_active before building the
        // attribute vectors) keep the hot loop allocation-free while
        // tracing is off — same discipline as the metrics handles.
        let tracing = telemetry::trace_active();
        let _mvm_trace = tracing.then(|| {
            telemetry::trace_scope(
                "funcsim.mvm",
                vec![
                    ("n".to_string(), telemetry::Json::from(n)),
                    ("k".to_string(), telemetry::Json::from(self.k)),
                    ("m".to_string(), telemetry::Json::from(self.m)),
                ],
            )
        });
        let arch = &self.arch;
        let size = arch.xbar.rows;
        let stream_count = digit_count(arch.input_format.magnitude_bits(), arch.stream_width);

        // Which input sign parts are present?
        let has_neg = x_codes.iter().any(|&x| x < 0);
        let input_signs: &[i64] = if has_neg { &[1, -1] } else { &[1] };

        // Every non-zero (sign, tile-row, stream) step, in serial order.
        let mut steps = Vec::new();
        for &x_sign in input_signs {
            for tr in 0..self.tile_rows {
                for t in 0..stream_count {
                    steps.extend(self.step(x_codes, n, x_sign, tr, t));
                }
            }
        }

        // One task per (tile-col, slice, sign) combination. A task owns
        // that combination's tile in every tile row and walks all steps
        // in serial order, so each tile receives exactly the call
        // sequence of a serial loop — the order stateful tiles
        // (CircuitEngine warm starts, ZooTile read noise, RecordingXbar)
        // depend on. Shifted counts accumulate into the task's own i64
        // partial; integer adds are exact, so merging the partials in
        // combination order gives the same bits for any GENIEX_THREADS.
        let combos: Vec<(usize, u32, usize)> = (0..self.tile_cols)
            .flat_map(|tc| {
                (0..self.slice_count)
                    .flat_map(move |s| (0..self.weight_signs).map(move |sign| (tc, s, sign)))
            })
            .collect();
        let partials = parallel::par_map_grained(
            &combos,
            1,
            |&(tc, s, sign)| -> Result<Vec<i64>, FuncsimError> {
                let w_sign: i64 = match arch.weight_mapping {
                    WeightMapping::Differential => {
                        if sign == 0 {
                            1
                        } else {
                            -1
                        }
                    }
                    WeightMapping::Offset => 1,
                };
                let mut partial = vec![0i64; n * size];
                let mut counts = vec![0i64; n * size];
                for step in &steps {
                    let _tile_trace = tracing.then(|| {
                        telemetry::trace_scope(
                            "funcsim.tile",
                            vec![
                                ("input_sign".to_string(), telemetry::Json::from(step.x_sign)),
                                ("tile_row".to_string(), telemetry::Json::from(step.tr)),
                                (
                                    "stream".to_string(),
                                    telemetry::Json::from(u64::from(step.t)),
                                ),
                                ("tile_col".to_string(), telemetry::Json::from(tc)),
                                ("slice".to_string(), telemetry::Json::from(u64::from(s))),
                                ("weight_sign".to_string(), telemetry::Json::from(sign)),
                            ],
                        )
                    });
                    let tile = self.tile(step.tr, tc, s, sign);
                    shared_metrics().tile_ops.inc();
                    self.metrics.engine_ops.inc();
                    let currents = self
                        .metrics
                        .engine_time
                        .time(|| tile.currents_batch(&step.v_levels, n))?;
                    self.adc_to_counts(&currents, &step.d_sums, &mut counts);
                    let shift = step.t * arch.stream_width + s * arch.slice_width;
                    for (p, &c) in partial.iter_mut().zip(&counts) {
                        *p += step.x_sign * w_sign * (c << shift);
                    }
                }
                Ok(partial)
            },
        );

        // Accumulate at product precision.
        let mut acc = vec![0i64; n * self.m];
        for (&(tc, _, _), partial) in combos.iter().zip(partials) {
            let partial = partial?;
            let col_base = tc * size;
            let cols_here = size.min(self.m - col_base);
            for b in 0..n {
                let dst = &mut acc[b * self.m + col_base..b * self.m + col_base + cols_here];
                for (d, &p) in dst.iter_mut().zip(&partial[b * size..]) {
                    *d += p;
                }
            }
        }

        // Offset mapping: subtract the constant-weight pedestal
        // `offset_code · Σ x_i` of every step, at its stream's shift.
        if matches!(arch.weight_mapping, WeightMapping::Offset) {
            for step in &steps {
                let shift_t = step.t * arch.stream_width;
                for b in 0..n {
                    let corr =
                        (step.x_sign * self.offset_code * (step.d_sums[b] as i64)) << shift_t;
                    for j in 0..self.m {
                        acc[b * self.m + j] -= corr;
                    }
                }
            }
        }

        // Bias, accumulator saturation, and output requantization.
        let product_frac = arch.input_format.frac_bits() + arch.weight_format.frac_bits();
        let mut out = vec![0i64; n * self.m];
        for b in 0..n {
            for j in 0..self.m {
                let with_bias = acc[b * self.m + j] + self.bias_codes[j];
                let in_acc = rescale_saturate(
                    with_bias,
                    product_frac,
                    arch.accumulator_frac,
                    arch.accumulator_bits,
                );
                out[b * self.m + j] = rescale_saturate(
                    in_acc,
                    arch.accumulator_frac,
                    arch.input_format.frac_bits(),
                    arch.input_format.total_bits(),
                );
            }
        }
        Ok(out)
    }
}

impl std::fmt::Debug for ProgrammedMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgrammedMatrix")
            .field("k", &self.k)
            .field("m", &self.m)
            .field("tile_rows", &self.tile_rows)
            .field("tile_cols", &self.tile_cols)
            .field("slice_count", &self.slice_count)
            .field("weight_signs", &self.weight_signs)
            .field("tiles", &self.tiles.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IdealEngine;
    use crate::fixed::FxpFormat;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Mutex;
    use xbar::CrossbarParams;

    /// Small-crossbar arch with a generous ADC so the ideal backend is
    /// (nearly) exact digital arithmetic.
    fn small_arch() -> ArchConfig {
        ArchConfig {
            adc_bits: 20,
            xbar: CrossbarParams::builder(8, 8).build().unwrap(),
            ..ArchConfig::default()
        }
    }

    fn reference_mvm(
        weight: &Tensor,
        bias: &Tensor,
        arch: &ArchConfig,
        x_codes: &[i64],
        n: usize,
    ) -> Vec<i64> {
        // Pure-integer reference of the whole fixed-point pipeline,
        // no crossbars involved.
        let (m, k) = (weight.shape()[0], weight.shape()[1]);
        let wf = arch.weight_format;
        let product_frac = arch.input_format.frac_bits() + wf.frac_bits();
        let mut out = vec![0i64; n * m];
        for b in 0..n {
            for j in 0..m {
                let mut acc = 0i64;
                for i in 0..k {
                    acc += x_codes[b * k + i] * wf.quantize(weight.data()[j * k + i]);
                }
                acc += (bias.data()[j] as f64 * (1i64 << product_frac) as f64).round() as i64;
                let in_acc = rescale_saturate(
                    acc,
                    product_frac,
                    arch.accumulator_frac,
                    arch.accumulator_bits,
                );
                out[b * m + j] = rescale_saturate(
                    in_acc,
                    arch.accumulator_frac,
                    arch.input_format.frac_bits(),
                    arch.input_format.total_bits(),
                );
            }
        }
        out
    }

    fn random_case(
        m: usize,
        k: usize,
        n: usize,
        seed: u64,
        signed_inputs: bool,
    ) -> (Tensor, Tensor, Vec<i64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let weight = Tensor::from_vec(
            (0..m * k).map(|_| rng.gen_range(-0.9f32..0.9)).collect(),
            &[m, k],
        )
        .unwrap();
        let bias =
            Tensor::from_vec((0..m).map(|_| rng.gen_range(-0.2f32..0.2)).collect(), &[m]).unwrap();
        let fmt = FxpFormat::paper_default();
        let x: Vec<i64> = (0..n * k)
            .map(|_| {
                let v = if signed_inputs {
                    rng.gen_range(-1.0f32..1.0)
                } else {
                    rng.gen_range(0.0f32..1.0)
                };
                fmt.quantize(v)
            })
            .collect();
        (weight, bias, x)
    }

    #[test]
    fn ideal_backend_matches_integer_reference() {
        let arch = small_arch();
        let (weight, bias, x) = random_case(5, 7, 3, 1, false);
        let pm = ProgrammedMatrix::program(&IdealEngine, &arch, &weight, &bias).unwrap();
        assert_eq!(pm.k(), 7);
        assert_eq!(pm.m(), 5);
        let got = pm.mvm_codes(&x, 3).unwrap();
        let expect = reference_mvm(&weight, &bias, &arch, &x, 3);
        for (g, e) in got.iter().zip(&expect) {
            // ADC rounding leaves at most a few LSBs of error per
            // (stream, slice) pair; with 20-bit ADC it's essentially 0.
            assert!((g - e).abs() <= 2, "got {g} expected {e}");
        }
    }

    #[test]
    fn signed_inputs_match_reference() {
        let arch = small_arch();
        let (weight, bias, x) = random_case(4, 6, 2, 7, true);
        let pm = ProgrammedMatrix::program(&IdealEngine, &arch, &weight, &bias).unwrap();
        let got = pm.mvm_codes(&x, 2).unwrap();
        let expect = reference_mvm(&weight, &bias, &arch, &x, 2);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() <= 2, "got {g} expected {e}");
        }
    }

    #[test]
    fn offset_mapping_matches_reference() {
        let arch = ArchConfig {
            weight_mapping: WeightMapping::Offset,
            ..small_arch()
        };
        let (weight, bias, x) = random_case(4, 6, 2, 9, false);
        let pm = ProgrammedMatrix::program(&IdealEngine, &arch, &weight, &bias).unwrap();
        let got = pm.mvm_codes(&x, 2).unwrap();
        let expect = reference_mvm(&weight, &bias, &arch, &x, 2);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() <= 4, "got {g} expected {e}");
        }
    }

    #[test]
    fn tiling_spans_multiple_tiles() {
        // k=20, m=10 on 8x8 crossbars -> 3x2 tiles.
        let arch = small_arch();
        let (weight, bias, x) = random_case(10, 20, 2, 11, false);
        let pm = ProgrammedMatrix::program(&IdealEngine, &arch, &weight, &bias).unwrap();
        // 3 tile rows * 2 tile cols * 4 slices * 2 signs
        assert_eq!(pm.tile_count(), 3 * 2 * 4 * 2);
        let got = pm.mvm_codes(&x, 2).unwrap();
        let expect = reference_mvm(&weight, &bias, &arch, &x, 2);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() <= 3, "got {g} expected {e}");
        }
    }

    /// The level panels one tile received, in call order.
    type PanelLog = Arc<Mutex<Vec<Vec<f32>>>>;

    /// Programs ideal tiles that log every level panel they receive,
    /// in programming order.
    #[derive(Default)]
    struct SpyEngine {
        logs: Mutex<Vec<PanelLog>>,
    }

    struct SpyTile {
        inner: Box<dyn ProgrammedXbar>,
        log: PanelLog,
    }

    impl ProgrammedXbar for SpyTile {
        fn currents_batch(&self, v_levels: &[f32], n: usize) -> Result<Vec<f64>, FuncsimError> {
            self.log.lock().unwrap().push(v_levels.to_vec());
            self.inner.currents_batch(v_levels, n)
        }
    }

    impl CrossbarEngine for SpyEngine {
        fn name(&self) -> &'static str {
            "spy"
        }

        fn program(
            &self,
            params: &CrossbarParams,
            g_levels: &[f32],
        ) -> Result<Box<dyn ProgrammedXbar>, FuncsimError> {
            let log = Arc::default();
            self.logs.lock().unwrap().push(Arc::clone(&log));
            Ok(Box::new(SpyTile {
                inner: IdealEngine.program(params, g_levels)?,
                log,
            }))
        }
    }

    #[test]
    fn every_tile_sees_its_row_steps_in_serial_order() {
        // k=20, m=10 on 8x8 crossbars -> 3x2 tiles; signed inputs.
        let arch = small_arch();
        let (n, k, size) = (3, 20, 8);
        let (weight, bias, x) = random_case(10, k, n, 23, true);
        assert!(x.iter().any(|&c| c < 0) && x.iter().any(|&c| c > 0));
        let spy = SpyEngine::default();
        let pm = ProgrammedMatrix::program(&spy, &arch, &weight, &bias).unwrap();
        let got = pm.mvm_codes(&x, n).unwrap();
        let ideal = ProgrammedMatrix::program(&IdealEngine, &arch, &weight, &bias)
            .unwrap()
            .mvm_codes(&x, n)
            .unwrap();
        assert_eq!(got, ideal);

        // The serial loop's steps for one tile row: positive then
        // negative input parts, streams LSB first, all-zero panels
        // skipped.
        let streams = digit_count(arch.input_format.magnitude_bits(), arch.stream_width);
        let mask = (1i64 << arch.stream_width) - 1;
        let row_steps = |tr: usize| {
            let mut panels = Vec::new();
            for x_sign in [1i64, -1] {
                for t in 0..streams {
                    let panel: Vec<f32> = (0..n * size)
                        .map(|p| {
                            let row = tr * size + p % size;
                            if row >= k {
                                return 0.0;
                            }
                            let magnitude = (x_sign * x[(p / size) * k + row]).max(0);
                            ((magnitude >> (t * arch.stream_width)) & mask) as f32 / mask as f32
                        })
                        .collect();
                    if panel.iter().any(|&l| l != 0.0) {
                        panels.push(panel);
                    }
                }
            }
            panels
        };
        let logs = spy.logs.lock().unwrap();
        assert_eq!(logs.len(), pm.tile_count());
        // Programming order is [tile row][tile col][slice][sign].
        let per_row = logs.len() / 3;
        for (idx, log) in logs.iter().enumerate() {
            let expect = row_steps(idx / per_row);
            assert!(!expect.is_empty());
            assert_eq!(*log.lock().unwrap(), expect, "tile {idx}");
        }
    }

    #[test]
    fn one_bit_slicing_matches_reference() {
        let arch = ArchConfig {
            stream_width: 1,
            slice_width: 1,
            ..small_arch()
        };
        let (weight, bias, x) = random_case(3, 5, 2, 13, false);
        let pm = ProgrammedMatrix::program(&IdealEngine, &arch, &weight, &bias).unwrap();
        let got = pm.mvm_codes(&x, 2).unwrap();
        let expect = reference_mvm(&weight, &bias, &arch, &x, 2);
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() <= 2, "got {g} expected {e}");
        }
    }

    #[test]
    fn shape_validation() {
        let arch = small_arch();
        let weight = Tensor::zeros(&[3, 4]);
        let bias = Tensor::zeros(&[3]);
        assert!(
            ProgrammedMatrix::program(&IdealEngine, &arch, &Tensor::zeros(&[3]), &bias).is_err()
        );
        assert!(
            ProgrammedMatrix::program(&IdealEngine, &arch, &weight, &Tensor::zeros(&[4])).is_err()
        );
        let pm = ProgrammedMatrix::program(&IdealEngine, &arch, &weight, &bias).unwrap();
        assert!(pm.mvm_codes(&[0; 7], 2).is_err());
    }

    #[test]
    fn adc_resolution_degrades_monotonically() {
        // Coarser ADCs inject more shift-amplified quantization noise;
        // the error relative to the 20-bit reference must grow as the
        // resolution drops.
        let (weight, bias, x) = random_case(4, 8, 2, 17, false);
        let reference = ProgrammedMatrix::program(&IdealEngine, &small_arch(), &weight, &bias)
            .unwrap()
            .mvm_codes(&x, 2)
            .unwrap();
        let noise_at = |bits: u32| -> i64 {
            let arch = ArchConfig {
                adc_bits: bits,
                ..small_arch()
            };
            let out = ProgrammedMatrix::program(&IdealEngine, &arch, &weight, &bias)
                .unwrap()
                .mvm_codes(&x, 2)
                .unwrap();
            out.iter()
                .zip(&reference)
                .map(|(a, b)| (a - b).abs())
                .max()
                .unwrap()
        };
        let n14 = noise_at(14);
        let n10 = noise_at(10);
        let n6 = noise_at(6);
        assert!(n6 > n10, "6-bit {n6} should be noisier than 10-bit {n10}");
        assert!(
            n10 > n14,
            "10-bit {n10} should be noisier than 14-bit {n14}"
        );
    }

    #[test]
    fn zero_inputs_give_bias_only() {
        let arch = small_arch();
        let weight = Tensor::from_vec(vec![0.5; 8], &[2, 4]).unwrap();
        let bias = Tensor::from_vec(vec![0.25, -0.25], &[2]).unwrap();
        let pm = ProgrammedMatrix::program(&IdealEngine, &arch, &weight, &bias).unwrap();
        let out = pm.mvm_codes(&[0; 4], 1).unwrap();
        let fmt = FxpFormat::paper_default();
        assert_eq!(out[0], fmt.quantize(0.25));
        assert_eq!(out[1], fmt.quantize(-0.25));
    }
}
