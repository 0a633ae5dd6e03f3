//! Executing a frozen network on the crossbar functional simulator —
//! phase 1 (iterative MVM) plus the glue between MVM ops and the
//! digital ops that stay in the vector unit (ReLU, pooling, residual
//! adds).
//!
//! Activations travel as `f32` values that are always exactly
//! representable in the activation fixed-point format (every op ends
//! with a requantization), mirroring a fully fixed-point datapath.

use crate::arch::ArchConfig;
use crate::engine::CrossbarEngine;
use crate::matrix::ProgrammedMatrix;
use crate::FuncsimError;
use nn::Tensor;
use vision::{NetworkSpec, SpecOp, SynthVision};

/// Shape metadata for a convolution lowered to MVMs.
#[derive(Debug, Clone, Copy)]
struct ConvMeta {
    in_c: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    padding: usize,
    out_c: usize,
}

enum ExecOp {
    Conv(ProgrammedMatrix, ConvMeta),
    Linear(ProgrammedMatrix),
    Relu,
    MaxPool2,
    GlobalAvgPool,
    Flatten,
    ResidualBegin,
    ResidualAdd,
}

impl ExecOp {
    /// Short op name for trace attributes.
    fn kind(&self) -> &'static str {
        match self {
            ExecOp::Conv(..) => "conv",
            ExecOp::Linear(_) => "linear",
            ExecOp::Relu => "relu",
            ExecOp::MaxPool2 => "max_pool2",
            ExecOp::GlobalAvgPool => "global_avg_pool",
            ExecOp::Flatten => "flatten",
            ExecOp::ResidualBegin => "residual_begin",
            ExecOp::ResidualAdd => "residual_add",
        }
    }
}

/// A frozen network programmed onto crossbars, ready for inference.
pub struct CrossbarNetwork {
    ops: Vec<ExecOp>,
    arch: ArchConfig,
    input_shape: [usize; 3],
    classes: usize,
}

impl CrossbarNetwork {
    /// Programs every conv/linear layer of `spec` onto `engine`-backed
    /// crossbars.
    ///
    /// This is the expensive step (the analytical backend runs its
    /// unit solves here, the GENIEx backend its weight splits); once
    /// built, inference reuses the programmed state.
    ///
    /// # Errors
    ///
    /// * [`FuncsimError::InvalidConfig`] for invalid `arch`.
    /// * Programming failures from the engine.
    pub fn build(
        spec: NetworkSpec,
        arch: &ArchConfig,
        engine: &dyn CrossbarEngine,
    ) -> Result<Self, FuncsimError> {
        arch.validate()?;
        let _span = telemetry::span("funcsim.build");
        let mut ops = Vec::with_capacity(spec.ops.len());
        for (op_index, op) in spec.ops.iter().enumerate() {
            ops.push(match op {
                SpecOp::Conv2d {
                    weight,
                    bias,
                    stride,
                    padding,
                } => {
                    let [oc, ic, kh, kw] = *<&[usize; 4]>::try_from(weight.shape())
                        .map_err(|_| FuncsimError::Shape("conv weight rank".into()))?;
                    let w_mat = weight.reshape(&[oc, ic * kh * kw])?;
                    let pm = ProgrammedMatrix::program_labeled(
                        engine,
                        arch,
                        &w_mat,
                        bias,
                        Some(&format!("conv{op_index}")),
                    )?;
                    ExecOp::Conv(
                        pm,
                        ConvMeta {
                            in_c: ic,
                            kh,
                            kw,
                            stride: *stride,
                            padding: *padding,
                            out_c: oc,
                        },
                    )
                }
                SpecOp::Linear { weight, bias } => {
                    ExecOp::Linear(ProgrammedMatrix::program_labeled(
                        engine,
                        arch,
                        weight,
                        bias,
                        Some(&format!("linear{op_index}")),
                    )?)
                }
                SpecOp::Relu => ExecOp::Relu,
                SpecOp::MaxPool2 => ExecOp::MaxPool2,
                SpecOp::GlobalAvgPool => ExecOp::GlobalAvgPool,
                SpecOp::Flatten => ExecOp::Flatten,
                SpecOp::ResidualBegin => ExecOp::ResidualBegin,
                SpecOp::ResidualAdd => ExecOp::ResidualAdd,
            });
        }
        Ok(CrossbarNetwork {
            ops,
            arch: arch.clone(),
            input_shape: spec.input_shape,
            classes: spec.classes,
        })
    }

    /// The architecture this network was programmed with.
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Runs inference on a batch of images `[batch, c, h, w]`,
    /// returning logits `[batch, classes]`.
    ///
    /// # Errors
    ///
    /// * [`FuncsimError::Shape`] if the image shape does not match the
    ///   spec.
    /// * Backend failures from the crossbar engines.
    pub fn forward(&self, images: &Tensor) -> Result<Tensor, FuncsimError> {
        let [c, h, w] = self.input_shape;
        if images.shape().len() != 4
            || images.shape()[1] != c
            || images.shape()[2] != h
            || images.shape()[3] != w
        {
            return Err(FuncsimError::Shape(format!(
                "images {:?} for input shape [{c}, {h}, {w}]",
                images.shape()
            )));
        }
        let _span = telemetry::span("funcsim.forward");
        let fmt = self.arch.input_format;
        let mut x = images.map(|v| fmt.round_trip(v));
        let mut residual_stack: Vec<Tensor> = Vec::new();

        let tracing = telemetry::trace_active();
        for (index, op) in self.ops.iter().enumerate() {
            // One span per op, so each layer's `funcsim.mvm` and tile
            // spans nest under it.
            let _op_trace = tracing.then(|| {
                telemetry::trace_scope(
                    "funcsim.op",
                    vec![
                        ("index".to_string(), telemetry::Json::from(index)),
                        ("kind".to_string(), telemetry::Json::from(op.kind())),
                    ],
                )
            });
            x = match op {
                ExecOp::Conv(pm, meta) => conv_mvm(pm, meta, &x, &self.arch)?,
                ExecOp::Linear(pm) => linear_mvm(pm, &x, &self.arch)?,
                ExecOp::Relu => x.map(|v| v.max(0.0)),
                ExecOp::MaxPool2 => max_pool2(&x)?,
                ExecOp::GlobalAvgPool => {
                    let pooled = global_avg_pool(&x)?;
                    pooled.map(|v| fmt.round_trip(v))
                }
                ExecOp::Flatten => {
                    let batch = x.shape()[0];
                    let rest: usize = x.shape()[1..].iter().product();
                    x.reshape(&[batch, rest])?
                }
                ExecOp::ResidualBegin => {
                    residual_stack.push(x.clone());
                    x
                }
                ExecOp::ResidualAdd => {
                    let saved = residual_stack.pop().ok_or_else(|| {
                        FuncsimError::InvalidConfig("ResidualAdd without ResidualBegin".into())
                    })?;
                    x.add(&saved)?.map(|v| fmt.round_trip(v))
                }
            };
        }
        Ok(x)
    }
}

impl std::fmt::Debug for CrossbarNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CrossbarNetwork")
            .field("ops", &self.ops.len())
            .field("input_shape", &self.input_shape)
            .field("classes", &self.classes)
            .finish()
    }
}

/// Convolution as repeated MVM: quantize, im2col, batched crossbar
/// MVM, reshape back to NCHW.
fn conv_mvm(
    pm: &ProgrammedMatrix,
    meta: &ConvMeta,
    x: &Tensor,
    arch: &ArchConfig,
) -> Result<Tensor, FuncsimError> {
    let [batch, c, h, w] = *<&[usize; 4]>::try_from(x.shape()).map_err(|_| {
        FuncsimError::Shape(format!("conv input must be NCHW, got {:?}", x.shape()))
    })?;
    if c != meta.in_c {
        return Err(FuncsimError::Shape(format!(
            "conv expects {} channels, got {c}",
            meta.in_c
        )));
    }
    let out_h = (h + 2 * meta.padding - meta.kh) / meta.stride + 1;
    let out_w = (w + 2 * meta.padding - meta.kw) / meta.stride + 1;
    let fan_in = meta.in_c * meta.kh * meta.kw;
    let fmt = arch.input_format;

    // Quantize the whole activation tensor once.
    let codes: Vec<i64> = x.data().iter().map(|&v| fmt.quantize(v)).collect();

    // im2col in code space: one row per (batch, output position).
    let n = batch * out_h * out_w;
    let mut patches = vec![0i64; n * fan_in];
    for b in 0..batch {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let row_idx = (b * out_h + oy) * out_w + ox;
                let row = &mut patches[row_idx * fan_in..(row_idx + 1) * fan_in];
                let mut col = 0usize;
                for ci in 0..c {
                    for ky in 0..meta.kh {
                        let iy = (oy * meta.stride + ky) as isize - meta.padding as isize;
                        for kx in 0..meta.kw {
                            let ix = (ox * meta.stride + kx) as isize - meta.padding as isize;
                            if iy >= 0 && iy < h as isize && ix >= 0 && ix < w as isize {
                                row[col] =
                                    codes[((b * c + ci) * h + iy as usize) * w + ix as usize];
                            }
                            col += 1;
                        }
                    }
                }
            }
        }
    }

    let out_codes = pm.mvm_codes(&patches, n)?;

    // [n, oc] -> [batch, oc, out_h, out_w], dequantized.
    let mut out = Tensor::zeros(&[batch, meta.out_c, out_h, out_w]);
    let od = out.data_mut();
    for b in 0..batch {
        for oy in 0..out_h {
            for ox in 0..out_w {
                let row_idx = (b * out_h + oy) * out_w + ox;
                for oc in 0..meta.out_c {
                    od[((b * meta.out_c + oc) * out_h + oy) * out_w + ox] =
                        fmt.dequantize(out_codes[row_idx * meta.out_c + oc]);
                }
            }
        }
    }
    Ok(out)
}

/// Fully-connected layer as a single batched MVM.
fn linear_mvm(
    pm: &ProgrammedMatrix,
    x: &Tensor,
    arch: &ArchConfig,
) -> Result<Tensor, FuncsimError> {
    let [batch, features] = *<&[usize; 2]>::try_from(x.shape()).map_err(|_| {
        FuncsimError::Shape(format!(
            "linear input must be [batch, k], got {:?}",
            x.shape()
        ))
    })?;
    if features != pm.k() {
        return Err(FuncsimError::Shape(format!(
            "linear expects {} features, got {features}",
            pm.k()
        )));
    }
    let fmt = arch.input_format;
    let codes: Vec<i64> = x.data().iter().map(|&v| fmt.quantize(v)).collect();
    let out_codes = pm.mvm_codes(&codes, batch)?;
    let data = out_codes.iter().map(|&c| fmt.dequantize(c)).collect();
    Ok(Tensor::from_vec(data, &[batch, pm.m()])?)
}

fn max_pool2(x: &Tensor) -> Result<Tensor, FuncsimError> {
    let [batch, c, h, w] = *<&[usize; 4]>::try_from(x.shape()).map_err(|_| {
        FuncsimError::Shape(format!("maxpool input must be NCHW, got {:?}", x.shape()))
    })?;
    if h % 2 != 0 || w % 2 != 0 {
        return Err(FuncsimError::Shape(format!(
            "maxpool2 needs even spatial dims, got {h}x{w}"
        )));
    }
    let (oh, ow) = (h / 2, w / 2);
    let mut out = Tensor::zeros(&[batch, c, oh, ow]);
    let id = x.data();
    let od = out.data_mut();
    for bc in 0..batch * c {
        let in_base = bc * h * w;
        let out_base = bc * oh * ow;
        for oy in 0..oh {
            for ox in 0..ow {
                let i0 = in_base + 2 * oy * w + 2 * ox;
                let m = id[i0].max(id[i0 + 1]).max(id[i0 + w]).max(id[i0 + w + 1]);
                od[out_base + oy * ow + ox] = m;
            }
        }
    }
    Ok(out)
}

fn global_avg_pool(x: &Tensor) -> Result<Tensor, FuncsimError> {
    let [batch, c, h, w] = *<&[usize; 4]>::try_from(x.shape())
        .map_err(|_| FuncsimError::Shape(format!("gap input must be NCHW, got {:?}", x.shape())))?;
    let mut out = Tensor::zeros(&[batch, c]);
    let scale = 1.0 / (h * w) as f32;
    let id = x.data();
    let od = out.data_mut();
    for bc in 0..batch * c {
        od[bc] = id[bc * h * w..(bc + 1) * h * w].iter().sum::<f32>() * scale;
    }
    Ok(out)
}

/// Builds a crossbar network and measures its top-1 accuracy on a
/// dataset — the end-to-end experiment primitive behind Figs. 7–9.
///
/// # Errors
///
/// Propagates build, inference, and dataset failures.
pub fn evaluate_spec(
    spec: NetworkSpec,
    arch: &ArchConfig,
    engine: &dyn CrossbarEngine,
    data: &SynthVision,
    batch_size: usize,
) -> Result<f64, FuncsimError> {
    if batch_size == 0 {
        return Err(FuncsimError::InvalidConfig("batch_size must be > 0".into()));
    }
    let net = CrossbarNetwork::build(spec, arch, engine)?;
    let indices: Vec<usize> = (0..data.len()).collect();
    let mut correct = 0usize;
    for chunk in indices.chunks(batch_size) {
        let (images, labels) = data.batch(chunk)?;
        let logits = net.forward(&images)?;
        let classes = net.classes();
        for (b, &label) in labels.iter().enumerate() {
            let row = &logits.data()[b * classes..(b + 1) * classes];
            let pred = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .map(|(i, _)| i)
                .expect("non-empty logits");
            if pred == label {
                correct += 1;
            }
        }
    }
    Ok(correct as f64 / data.len().max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IdealEngine;
    use vision::{spec_forward, MicroResNet, SynthSpec};
    use xbar::CrossbarParams;

    fn test_arch() -> ArchConfig {
        // Small crossbar + generous ADC: the ideal backend then tracks
        // plain fixed-point arithmetic closely.
        ArchConfig {
            adc_bits: 20,
            xbar: CrossbarParams::builder(16, 16).build().unwrap(),
            ..ArchConfig::default()
        }
    }

    #[test]
    fn ideal_crossbar_network_tracks_fp32_reference() {
        let model = MicroResNet::new(SynthSpec::SynthS, 21);
        let spec = model.to_spec();
        let data = SynthVision::generate(SynthSpec::SynthS, 2, 3).unwrap();
        let (images, _) = data.batch(&[0, 1, 2, 3]).unwrap();

        let fp32 = spec_forward(&spec, &images).unwrap();
        let net = CrossbarNetwork::build(spec, &test_arch(), &IdealEngine).unwrap();
        let fxp = net.forward(&images).unwrap();

        assert_eq!(fp32.shape(), fxp.shape());
        let scale = fp32.max_abs().max(1e-3);
        for (a, b) in fp32.data().iter().zip(fxp.data()) {
            assert!(
                (a - b).abs() < 0.05 * scale + 0.02,
                "fp32 {a} vs crossbar {b}"
            );
        }
    }

    #[test]
    fn ideal_crossbar_preserves_argmax_on_most_inputs() {
        let model = MicroResNet::new(SynthSpec::SynthS, 9);
        let spec = model.to_spec();
        let data = SynthVision::generate(SynthSpec::SynthS, 2, 7).unwrap();
        let (images, _) = data.full_batch().unwrap();

        let fp32 = spec_forward(&spec, &images).unwrap();
        let net = CrossbarNetwork::build(spec, &test_arch(), &IdealEngine).unwrap();
        let fxp = net.forward(&images).unwrap();
        let classes = 8;
        let mut agree = 0;
        let n = images.shape()[0];
        for b in 0..n {
            let argmax = |t: &Tensor| {
                t.data()[b * classes..(b + 1) * classes]
                    .iter()
                    .enumerate()
                    .max_by(|x, y| x.1.partial_cmp(y.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap()
            };
            if argmax(&fp32) == argmax(&fxp) {
                agree += 1;
            }
        }
        assert!(agree * 10 >= n * 8, "only {agree}/{n} argmax agreements");
    }

    #[test]
    fn forward_validates_image_shape() {
        let model = MicroResNet::new(SynthSpec::SynthS, 1);
        let net = CrossbarNetwork::build(model.to_spec(), &test_arch(), &IdealEngine).unwrap();
        assert!(net.forward(&Tensor::zeros(&[1, 3, 12, 12])).is_err());
        assert!(net.forward(&Tensor::zeros(&[1, 1, 12])).is_err());
    }

    #[test]
    fn evaluate_spec_runs_end_to_end() {
        let model = MicroResNet::new(SynthSpec::SynthS, 5);
        let data = SynthVision::generate(SynthSpec::SynthS, 1, 11).unwrap();
        let acc = evaluate_spec(model.to_spec(), &test_arch(), &IdealEngine, &data, 4).unwrap();
        assert!((0.0..=1.0).contains(&acc));
        assert!(evaluate_spec(
            MicroResNet::new(SynthSpec::SynthS, 5).to_spec(),
            &test_arch(),
            &IdealEngine,
            &data,
            0
        )
        .is_err());
    }

    #[test]
    fn pooling_helpers() {
        let x = Tensor::from_vec(
            vec![1.0, 2.0, 3.0, 4.0, -1.0, -2.0, -3.0, -4.0],
            &[1, 2, 2, 2],
        )
        .unwrap();
        let mp = max_pool2(&x).unwrap();
        assert_eq!(mp.shape(), &[1, 2, 1, 1]);
        assert_eq!(mp.data(), &[4.0, -1.0]);
        let gap = global_avg_pool(&x).unwrap();
        assert_eq!(gap.data(), &[2.5, -2.5]);
        assert!(max_pool2(&Tensor::zeros(&[1, 1, 3, 3])).is_err());
    }
}
