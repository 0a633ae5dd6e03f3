//! The GENIEx surrogate model: a two-layer MLP predicting `f_R(V, G)`.

use crate::dataset::SurrogateDataset;
use crate::GeniexError;
use nn::{loss::mse, Adam, Mlp, Optimizer, Tensor};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::time::Instant;
use xbar::{ideal_mvm, ConductanceMatrix, CrossbarParams};

/// Global clamp on `f_R`, applied both to training labels and to
/// denormalized predictions. The range corresponds to NF between
/// -4 and 0.8 — far wider than anything a physical design point in the
/// paper's parameter space produces.
pub(crate) const F_R_CLAMP: (f32, f32) = (0.2, 5.0);

/// Min-max normalizer mapping label space to `[0, 1]`, as the paper
/// normalizes `V`, `G` and `f_R` before training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normalizer {
    /// Smallest label seen during fitting.
    pub min: f32,
    /// Largest label seen during fitting.
    pub max: f32,
}

impl Normalizer {
    /// Fits to a label sample.
    ///
    /// Degenerate samples (constant labels) get a unit-width window so
    /// normalization stays invertible.
    pub fn fit(labels: impl IntoIterator<Item = f32>) -> Self {
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        for l in labels {
            min = min.min(l);
            max = max.max(l);
        }
        if !min.is_finite() || !max.is_finite() {
            return Normalizer { min: 0.0, max: 1.0 };
        }
        if max - min < 1e-6 {
            max = min + 1.0;
        }
        Normalizer { min, max }
    }

    /// Maps a raw label into `[0, 1]`.
    #[inline]
    pub fn normalize(&self, x: f32) -> f32 {
        (x - self.min) / (self.max - self.min)
    }

    /// Inverts [`normalize`](Normalizer::normalize).
    #[inline]
    pub fn denormalize(&self, y: f32) -> f32 {
        y * (self.max - self.min) + self.min
    }
}

/// Training hyper-parameters for [`Geniex::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate (initial).
    pub learning_rate: f32,
    /// Final learning rate as a fraction of the initial one, reached
    /// via cosine annealing over the epochs (1.0 = constant rate).
    pub final_lr_fraction: f32,
    /// Fraction of the dataset held out for validation-based early
    /// stopping (0 disables; the paper keeps a separate validation
    /// set, Section 4 "Dataset").
    pub validation_fraction: f32,
    /// Stop when validation loss hasn't improved for this many epochs
    /// (only when `validation_fraction > 0`).
    pub patience: usize,
    /// Shuffle seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 200,
            batch_size: 32,
            learning_rate: 1e-3,
            final_lr_fraction: 0.05,
            validation_fraction: 0.0,
            patience: 20,
            seed: 7,
        }
    }
}

impl store::Canonical for TrainConfig {
    fn canonicalize(&self, key: &mut store::KeyBuilder) {
        key.usize("epochs", self.epochs)
            .usize("batch_size", self.batch_size)
            .f32("learning_rate", self.learning_rate)
            .f32("final_lr_fraction", self.final_lr_fraction)
            .f32("validation_fraction", self.validation_fraction)
            .usize("patience", self.patience)
            .u64("seed", self.seed);
    }
}

/// Loss trajectory returned by [`Geniex::train`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingReport {
    /// Mean training MSE per epoch (normalized label space).
    pub epoch_losses: Vec<f32>,
    /// Final epoch's loss.
    pub final_loss: f32,
    /// Validation MSE per epoch (empty unless early stopping is on).
    pub validation_losses: Vec<f32>,
    /// Epochs actually run (≤ `config.epochs` when early-stopped).
    pub epochs_run: usize,
}

/// The GENIEx surrogate: `(R·C + R) × P × C` MLP with ReLU hidden
/// layer (paper defaults: `P = 500`).
///
/// See the crate docs for the formulation; the short version is that
/// the network reads `concat(V, flatten(G))` in normalized units and
/// predicts the distortion ratio `f_R` per bit line, from which
/// `I_non_ideal = I_ideal / f_R`.
#[derive(Debug, Clone)]
pub struct Geniex {
    params: CrossbarParams,
    hidden: usize,
    mlp: Mlp,
    normalizer: Option<Normalizer>,
}

impl Geniex {
    /// Creates an untrained surrogate for the given crossbar design
    /// with `hidden` neurons (paper default 500).
    ///
    /// # Errors
    ///
    /// Returns [`GeniexError::InvalidConfig`] if `hidden == 0`.
    pub fn new(params: &CrossbarParams, hidden: usize, seed: u64) -> Result<Self, GeniexError> {
        if hidden == 0 {
            return Err(GeniexError::InvalidConfig(
                "hidden layer must have at least one neuron".into(),
            ));
        }
        let input = params.rows + params.rows * params.cols;
        let mlp = Mlp::new(&[input, hidden, params.cols], seed)?;
        Ok(Geniex {
            params: params.clone(),
            hidden,
            mlp,
            normalizer: None,
        })
    }

    /// The crossbar design this surrogate models.
    pub fn params(&self) -> &CrossbarParams {
        &self.params
    }

    /// Hidden-layer width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// The fitted label normalizer, if trained.
    pub fn normalizer(&self) -> Option<Normalizer> {
        self.normalizer
    }

    /// Borrow of the underlying MLP (weight export for the
    /// fast-forward split and for mapping the surrogate onto hardware).
    pub fn mlp(&self) -> &Mlp {
        &self.mlp
    }

    /// Trains the surrogate on a labelled dataset.
    ///
    /// # Errors
    ///
    /// * [`GeniexError::InvalidConfig`] on empty datasets, zero epochs
    ///   or zero batch size, or a dataset generated for a different
    ///   crossbar geometry.
    pub fn train(
        &mut self,
        data: &SurrogateDataset,
        config: &TrainConfig,
    ) -> Result<TrainingReport, GeniexError> {
        if data.is_empty() {
            return Err(GeniexError::InvalidConfig("dataset is empty".into()));
        }
        if config.epochs == 0 || config.batch_size == 0 {
            return Err(GeniexError::InvalidConfig(
                "epochs and batch_size must be > 0".into(),
            ));
        }
        if data.params.rows != self.params.rows || data.params.cols != self.params.cols {
            return Err(GeniexError::InvalidConfig(format!(
                "dataset is for a {}x{} crossbar, surrogate expects {}x{}",
                data.params.rows, data.params.cols, self.params.rows, self.params.cols
            )));
        }

        let normalizer = Normalizer::fit(data.samples.iter().flat_map(|s| s.f_r.iter().copied()));
        self.normalizer = Some(normalizer);

        let in_dim = self.params.rows + self.params.rows * self.params.cols;
        let out_dim = self.params.cols;
        let n = data.len();

        // Materialize the whole design matrix once; mini-batches copy
        // rows out of it.
        let mut x_all = vec![0.0f32; n * in_dim];
        let mut y_all = vec![0.0f32; n * out_dim];
        for (k, s) in data.samples.iter().enumerate() {
            x_all[k * in_dim..k * in_dim + self.params.rows].copy_from_slice(&s.v_levels);
            x_all[k * in_dim + self.params.rows..(k + 1) * in_dim].copy_from_slice(&s.g_levels);
            for (j, &f) in s.f_r.iter().enumerate() {
                y_all[k * out_dim + j] = normalizer.normalize(f);
            }
        }

        // Hold out the tail for validation-based early stopping.
        let validation_fraction = config.validation_fraction.clamp(0.0, 0.9);
        let val_count = ((n as f32) * validation_fraction) as usize;
        let train_count = n - val_count;
        if train_count == 0 {
            return Err(GeniexError::InvalidConfig(
                "validation_fraction leaves no training samples".into(),
            ));
        }

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut order: Vec<usize> = (0..train_count).collect();
        let mut optimizer = Adam::new(config.learning_rate);
        let mut epoch_losses = Vec::with_capacity(config.epochs);
        let mut validation_losses = Vec::new();
        let final_fraction = config.final_lr_fraction.clamp(0.0, 1.0);
        let mut best_val = f32::INFINITY;
        let mut best_epoch = 0usize;
        let mut epochs_run = 0usize;

        let _span = telemetry::span("geniex.train");
        let epoch_timer = telemetry::timer("geniex.train.epoch_seconds");

        for epoch in 0..config.epochs {
            let t_epoch = telemetry::enabled().then(Instant::now);
            // Nested under "geniex.train"; closes at the end of each
            // iteration carrying the epoch's attributes.
            let mut epoch_span = telemetry::span("epoch");
            epoch_span.attr("epoch", epoch);
            // Cosine annealing from the initial rate to
            // `final_lr_fraction` of it across the run.
            let progress = epoch as f32 / config.epochs.max(1) as f32;
            let cosine = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
            optimizer.learning_rate =
                config.learning_rate * (final_fraction + (1.0 - final_fraction) * cosine);
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(config.batch_size) {
                let bs = chunk.len();
                let mut xb = vec![0.0f32; bs * in_dim];
                let mut yb = vec![0.0f32; bs * out_dim];
                for (r, &idx) in chunk.iter().enumerate() {
                    xb[r * in_dim..(r + 1) * in_dim]
                        .copy_from_slice(&x_all[idx * in_dim..(idx + 1) * in_dim]);
                    yb[r * out_dim..(r + 1) * out_dim]
                        .copy_from_slice(&y_all[idx * out_dim..(idx + 1) * out_dim]);
                }
                let x = Tensor::from_vec(xb, &[bs, in_dim])?;
                let y = Tensor::from_vec(yb, &[bs, out_dim])?;
                let pred = self.mlp.forward_train(&x);
                let (loss, grad) = mse(&pred, &y)?;
                self.mlp.zero_grad();
                self.mlp.backward(&grad);
                optimizer.step(&mut self.mlp);
                epoch_loss += loss as f64;
                batches += 1;
            }
            let train_loss = (epoch_loss / batches.max(1) as f64) as f32;
            epoch_losses.push(train_loss);
            epochs_run = epoch + 1;
            epoch_span.attr("loss", train_loss as f64);
            epoch_span.attr("lr", optimizer.learning_rate as f64);

            let mut val_this_epoch = None;
            if val_count > 0 {
                let x =
                    Tensor::from_vec(x_all[train_count * in_dim..].to_vec(), &[val_count, in_dim])?;
                let y = Tensor::from_vec(
                    y_all[train_count * out_dim..].to_vec(),
                    &[val_count, out_dim],
                )?;
                let pred = self.mlp.forward(&x);
                let (val_loss, _) = mse(&pred, &y)?;
                validation_losses.push(val_loss);
                val_this_epoch = Some(val_loss);
            }

            if let Some(t0) = t_epoch {
                epoch_timer.record(t0.elapsed());
                let mut fields = vec![
                    ("epoch".to_string(), telemetry::Json::from(epoch)),
                    ("loss".to_string(), telemetry::Json::from(train_loss as f64)),
                    (
                        "lr".to_string(),
                        telemetry::Json::from(optimizer.learning_rate as f64),
                    ),
                    (
                        "epoch_s".to_string(),
                        telemetry::Json::from(t0.elapsed().as_secs_f64()),
                    ),
                ];
                if let Some(v) = val_this_epoch {
                    fields.push(("val_loss".to_string(), telemetry::Json::from(v as f64)));
                }
                telemetry::emit("train_epoch", "geniex.train", fields);
            }

            if let Some(val_loss) = val_this_epoch {
                if val_loss < best_val {
                    best_val = val_loss;
                    best_epoch = epoch;
                } else if epoch - best_epoch >= config.patience.max(1) {
                    break;
                }
            }
        }

        Ok(TrainingReport {
            final_loss: *epoch_losses.last().expect("at least one epoch"),
            epoch_losses,
            validation_losses,
            epochs_run,
        })
    }

    /// Predicts `f_R` for one operating point given *normalized*
    /// levels (`v_levels` length `rows`, `g_levels` length `rows·cols`,
    /// both in `[0, 1]`).
    ///
    /// # Errors
    ///
    /// * [`GeniexError::NotTrained`] before [`train`](Geniex::train).
    /// * [`GeniexError::Shape`] on length mismatches.
    pub fn predict_f_r(
        &mut self,
        v_levels: &[f32],
        g_levels: &[f32],
    ) -> Result<Vec<f32>, GeniexError> {
        let normalizer = self.normalizer.ok_or(GeniexError::NotTrained)?;
        if v_levels.len() != self.params.rows {
            return Err(GeniexError::Shape(format!(
                "{} voltage levels for {} rows",
                v_levels.len(),
                self.params.rows
            )));
        }
        if g_levels.len() != self.params.rows * self.params.cols {
            return Err(GeniexError::Shape(format!(
                "{} conductance levels for a {}x{} crossbar",
                g_levels.len(),
                self.params.rows,
                self.params.cols
            )));
        }
        let in_dim = v_levels.len() + g_levels.len();
        let mut x = Vec::with_capacity(in_dim);
        x.extend_from_slice(v_levels);
        x.extend_from_slice(g_levels);
        let out = self.mlp.forward(&Tensor::from_vec(x, &[1, in_dim])?);
        Ok(out
            .data()
            .iter()
            .map(|&y| normalizer.denormalize(y).clamp(F_R_CLAMP.0, F_R_CLAMP.1))
            .collect())
    }

    /// Predicts non-ideal output currents for physical inputs: voltages
    /// in volts and a programmed conductance matrix.
    ///
    /// `I_non_ideal = I_ideal / f_R`, with all-zero columns passed
    /// through as zero.
    ///
    /// # Errors
    ///
    /// Same conditions as [`predict_f_r`](Geniex::predict_f_r), plus
    /// shape errors from the ideal MVM.
    pub fn predict_currents(
        &mut self,
        v: &[f64],
        g: &ConductanceMatrix,
    ) -> Result<Vec<f64>, GeniexError> {
        let v_levels: Vec<f32> = v
            .iter()
            .map(|&x| (x / self.params.v_supply).clamp(0.0, 1.0) as f32)
            .collect();
        let g_levels: Vec<f32> = g
            .to_levels(&self.params)
            .into_iter()
            .map(|x| x as f32)
            .collect();
        let f_r = self.predict_f_r(&v_levels, &g_levels)?;
        Ok(currents_from_f_r(&ideal_mvm(v, g)?, &f_r))
    }

    /// Serializes the surrogate (geometry, normalizer, MLP weights).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save<W: Write>(&self, w: &mut W) -> Result<(), GeniexError> {
        use nn::serialize::{write_magic, write_u32};
        write_magic(w, b"GNX1")?;
        write_u32(w, self.params.rows as u32)?;
        write_u32(w, self.params.cols as u32)?;
        write_u32(w, self.hidden as u32)?;
        match self.normalizer {
            Some(nrm) => {
                write_u32(w, 1)?;
                w.write_all(&nrm.min.to_le_bytes())
                    .map_err(nn::NnError::from)?;
                w.write_all(&nrm.max.to_le_bytes())
                    .map_err(nn::NnError::from)?;
            }
            None => write_u32(w, 0)?,
        }
        self.mlp.save(w)?;
        Ok(())
    }

    /// Deserializes a surrogate saved by [`save`](Geniex::save). The
    /// caller supplies the crossbar design parameters (only geometry is
    /// stored in the file); geometry must match.
    ///
    /// # Errors
    ///
    /// Returns [`GeniexError::Network`] on malformed files and
    /// [`GeniexError::Shape`] on geometry mismatch.
    pub fn load<R: Read>(r: &mut R, params: &CrossbarParams) -> Result<Self, GeniexError> {
        use nn::serialize::{expect_magic, read_u32};
        expect_magic(r, b"GNX1")?;
        let rows = read_u32(r)? as usize;
        let cols = read_u32(r)? as usize;
        let hidden = read_u32(r)? as usize;
        if rows != params.rows || cols != params.cols {
            return Err(GeniexError::Shape(format!(
                "file is for a {rows}x{cols} crossbar, params say {}x{}",
                params.rows, params.cols
            )));
        }
        let normalizer = if read_u32(r)? == 1 {
            let mut buf = [0u8; 4];
            r.read_exact(&mut buf).map_err(nn::NnError::from)?;
            let min = f32::from_le_bytes(buf);
            r.read_exact(&mut buf).map_err(nn::NnError::from)?;
            let max = f32::from_le_bytes(buf);
            Some(Normalizer { min, max })
        } else {
            None
        };
        let mlp = Mlp::load(r)?;
        let expected = [rows + rows * cols, hidden, cols];
        if mlp.layer_sizes() != expected {
            return Err(GeniexError::Network(nn::NnError::Format(format!(
                "mlp layer sizes {:?} do not match geometry {:?}",
                mlp.layer_sizes(),
                expected
            ))));
        }
        Ok(Geniex {
            params: params.clone(),
            hidden,
            mlp,
            normalizer,
        })
    }
}

/// `I_non_ideal = I_ideal / f_R` per bit line, with all-zero columns
/// passed through as zero.
pub(crate) fn currents_from_f_r(ideal: &[f64], f_r: &[f32]) -> Vec<f64> {
    ideal
        .iter()
        .zip(f_r)
        .map(|(&id, &fr)| if id == 0.0 { 0.0 } else { id / fr as f64 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate, DatasetConfig};
    use std::io::Cursor;

    fn params() -> CrossbarParams {
        CrossbarParams::builder(4, 4).build().unwrap()
    }

    fn small_dataset(samples: usize, seed: u64) -> SurrogateDataset {
        generate(
            &params(),
            &DatasetConfig {
                samples,
                seed,
                ..DatasetConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn normalizer_round_trip() {
        let n = Normalizer::fit([1.0f32, 2.0, 5.0]);
        assert_eq!(n.min, 1.0);
        assert_eq!(n.max, 5.0);
        for x in [1.0f32, 3.3, 5.0] {
            assert!((n.denormalize(n.normalize(x)) - x).abs() < 1e-6);
        }
        assert_eq!(n.normalize(1.0), 0.0);
        assert_eq!(n.normalize(5.0), 1.0);
    }

    #[test]
    fn normalizer_degenerate_sample() {
        let n = Normalizer::fit([2.0f32, 2.0]);
        assert!((n.denormalize(n.normalize(2.0)) - 2.0).abs() < 1e-6);
        let n = Normalizer::fit(std::iter::empty());
        assert_eq!((n.min, n.max), (0.0, 1.0));
    }

    #[test]
    fn untrained_surrogate_refuses_prediction() {
        let mut s = Geniex::new(&params(), 16, 0).unwrap();
        assert!(matches!(
            s.predict_f_r(&[0.0; 4], &[0.0; 16]),
            Err(GeniexError::NotTrained)
        ));
    }

    #[test]
    fn construction_validation() {
        assert!(Geniex::new(&params(), 0, 0).is_err());
        let s = Geniex::new(&params(), 16, 0).unwrap();
        assert_eq!(s.hidden(), 16);
        assert_eq!(s.mlp().layer_sizes(), &[20, 16, 4]);
    }

    #[test]
    fn train_validation() {
        let mut s = Geniex::new(&params(), 8, 0).unwrap();
        let data = small_dataset(4, 1);
        assert!(s
            .train(
                &data,
                &TrainConfig {
                    epochs: 0,
                    ..TrainConfig::default()
                }
            )
            .is_err());
        assert!(s
            .train(
                &data,
                &TrainConfig {
                    batch_size: 0,
                    ..TrainConfig::default()
                }
            )
            .is_err());

        let other = CrossbarParams::builder(3, 3).build().unwrap();
        let mut wrong = Geniex::new(&other, 8, 0).unwrap();
        assert!(wrong.train(&data, &TrainConfig::default()).is_err());
    }

    #[test]
    fn training_reduces_loss_and_enables_prediction() {
        let mut s = Geniex::new(&params(), 32, 3).unwrap();
        let data = small_dataset(120, 5);
        let report = s
            .train(
                &data,
                &TrainConfig {
                    epochs: 60,
                    batch_size: 16,
                    learning_rate: 3e-3,
                    seed: 2,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        assert!(report.epoch_losses.len() == 60);
        assert!(
            report.final_loss < report.epoch_losses[0] * 0.7,
            "loss did not drop: first {} final {}",
            report.epoch_losses[0],
            report.final_loss
        );
        let f_r = s.predict_f_r(&[1.0; 4], &[1.0; 16]).unwrap();
        assert_eq!(f_r.len(), 4);
        assert!(f_r.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn training_emits_loss_curve_events() {
        let mut s = Geniex::new(&params(), 8, 0).unwrap();
        let data = small_dataset(24, 7);
        // Serialize against other tests toggling global telemetry.
        let _lock = telemetry::test_lock();
        telemetry::set_enabled(true);
        let sink = std::sync::Arc::new(telemetry::MemorySink::new());
        let sink_id = telemetry::add_sink(sink.clone());
        let report = s
            .train(
                &data,
                &TrainConfig {
                    epochs: 5,
                    batch_size: 8,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        telemetry::remove_sink(sink_id);
        telemetry::set_enabled(false);

        let events: Vec<_> = sink
            .events_for_current_thread()
            .into_iter()
            .filter(|e| e.kind == "train_epoch" && e.name == "geniex.train")
            .collect();
        assert_eq!(events.len(), report.epochs_run);
        for (i, (event, &loss)) in events.iter().zip(&report.epoch_losses).enumerate() {
            assert_eq!(
                event.field("epoch").and_then(telemetry::Json::as_u64),
                Some(i as u64)
            );
            let emitted = event
                .field("loss")
                .and_then(telemetry::Json::as_f64)
                .unwrap();
            assert!(
                (emitted - loss as f64).abs() < 1e-12,
                "epoch {i}: emitted {emitted} vs report {loss}"
            );
            assert!(event.field("epoch_s").is_some());
        }
        // The surrogate train span must have been recorded too.
        let spans: Vec<_> = sink
            .events_for_current_thread()
            .into_iter()
            .filter(|e| e.kind == "span" && e.name == "geniex.train")
            .collect();
        assert_eq!(spans.len(), 1);
    }

    #[test]
    fn trained_surrogate_beats_wild_guess_on_dense_pattern() {
        // The surrogate must learn that dense patterns at 0.25 V have
        // f_R noticeably above 1.
        let mut s = Geniex::new(&params(), 48, 3).unwrap();
        let data = small_dataset(200, 11);
        s.train(
            &data,
            &TrainConfig {
                epochs: 120,
                batch_size: 16,
                learning_rate: 3e-3,
                seed: 2,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        let truth = crate::dataset::simulate_sample(&params(), &[1.0; 4], &[1.0; 16]).unwrap();
        let predicted = s.predict_f_r(&[1.0; 4], &[1.0; 16]).unwrap();
        for (p, t) in predicted.iter().zip(&truth.f_r) {
            assert!((p - t).abs() < 0.15 * t, "predicted {p} vs simulated {t}");
        }
    }

    #[test]
    fn early_stopping_halts_before_epoch_budget() {
        let mut s = Geniex::new(&params(), 24, 3).unwrap();
        let data = small_dataset(150, 8);
        let report = s
            .train(
                &data,
                &TrainConfig {
                    epochs: 400,
                    batch_size: 32,
                    learning_rate: 3e-3,
                    validation_fraction: 0.2,
                    patience: 5,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        assert!(!report.validation_losses.is_empty());
        assert_eq!(report.validation_losses.len(), report.epochs_run);
        assert!(
            report.epochs_run < 400,
            "patience 5 should stop well before 400 epochs (ran {})",
            report.epochs_run
        );
    }

    #[test]
    fn no_validation_split_runs_all_epochs() {
        let mut s = Geniex::new(&params(), 8, 3).unwrap();
        let data = small_dataset(20, 9);
        let report = s
            .train(
                &data,
                &TrainConfig {
                    epochs: 7,
                    ..TrainConfig::default()
                },
            )
            .unwrap();
        assert_eq!(report.epochs_run, 7);
        assert!(report.validation_losses.is_empty());
    }

    #[test]
    fn predict_currents_zero_column_guard() {
        let mut s = Geniex::new(&params(), 16, 1).unwrap();
        let data = small_dataset(40, 2);
        s.train(
            &data,
            &TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        let g = ConductanceMatrix::uniform(4, 4, 0.0);
        let i = s.predict_currents(&[0.25; 4], &g).unwrap();
        assert!(i.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn save_load_round_trip() {
        let mut s = Geniex::new(&params(), 16, 9).unwrap();
        let data = small_dataset(40, 3);
        s.train(
            &data,
            &TrainConfig {
                epochs: 5,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        let mut buf = Vec::new();
        s.save(&mut buf).unwrap();
        let mut loaded = Geniex::load(&mut Cursor::new(&buf), &params()).unwrap();
        let a = s.predict_f_r(&[0.5; 4], &[0.5; 16]).unwrap();
        let b = loaded.predict_f_r(&[0.5; 4], &[0.5; 16]).unwrap();
        assert_eq!(a, b);

        let other = CrossbarParams::builder(3, 3).build().unwrap();
        assert!(Geniex::load(&mut Cursor::new(&buf), &other).is_err());
    }

    #[test]
    fn prediction_shape_validation() {
        let mut s = Geniex::new(&params(), 8, 0).unwrap();
        let data = small_dataset(10, 4);
        s.train(
            &data,
            &TrainConfig {
                epochs: 2,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        assert!(s.predict_f_r(&[0.0; 3], &[0.0; 16]).is_err());
        assert!(s.predict_f_r(&[0.0; 4], &[0.0; 15]).is_err());
    }
}
