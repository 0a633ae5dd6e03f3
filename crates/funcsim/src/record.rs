//! Workload stimulus harvesting.
//!
//! The paper's surrogate training set is built from `(V, G)` vectors
//! "collected from the dataset and the pretrained neural network
//! models" (Section 6) — the bit-sliced patterns a real workload
//! actually produces are highly structured (discrete digit levels,
//! extreme sparsity), and a surrogate trained purely on random stimuli
//! generalizes poorly to them.
//!
//! [`RecordingEngine`] wraps any [`CrossbarEngine`] and uniformly
//! samples the `(tile conductance, input levels)` pairs that flow
//! through it; [`harvest_stimuli`] runs a frozen network over
//! sample images under the ideal backend and returns the collected
//! pairs, ready to be labelled by the circuit simulator
//! (`geniex::dataset::label_stimuli`).

use crate::arch::ArchConfig;
use crate::engine::{CrossbarEngine, IdealEngine, ProgrammedXbar};
use crate::network::CrossbarNetwork;
use crate::FuncsimError;
use nn::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vision::NetworkSpec;
use xbar::zoo::ModelRng;
use xbar::CrossbarParams;

/// One harvested crossbar stimulus: the programmed conductance levels
/// of a tile and one input-level vector applied to it.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadStimulus {
    /// Input levels, length `rows`, in `[0, 1]`.
    pub v_levels: Vec<f32>,
    /// Tile conductance levels, length `rows·cols`, in `[0, 1]`.
    pub g_levels: Vec<f32>,
}

/// A kept observation's sort key: `(priority, tile, observation)`.
/// The tile and observation index make every key unique, so ties
/// cannot depend on arrival order.
type SampleKey = (u64, usize, u64);

struct LogInner {
    tiles: Vec<Vec<f32>>,
    seen: usize,
    /// The `capacity` lowest-key observations, sorted by key.
    kept: Vec<(SampleKey, Vec<f32>)>,
}

/// Shared log filled by a [`RecordingEngine`].
#[derive(Clone)]
pub struct StimulusLog {
    capacity: usize,
    seed: u64,
    inner: Arc<Mutex<LogInner>>,
}

impl StimulusLog {
    /// Creates a log keeping at most `capacity` stimuli: a bottom-k
    /// sample, uniform over everything observed. Each observation's
    /// priority is a hash of `(seed, tile, that tile's observation
    /// index)`, so the sample depends only on what each tile saw, not
    /// on how pool tasks interleaved the tiles.
    pub fn new(capacity: usize, seed: u64) -> Self {
        StimulusLog {
            capacity,
            seed,
            inner: Arc::new(Mutex::new(LogInner {
                tiles: Vec::new(),
                seen: 0,
                kept: Vec::new(),
            })),
        }
    }

    fn register_tile(&self, g_levels: Vec<f32>) -> usize {
        let mut inner = self.inner.lock().expect("stimulus log poisoned");
        inner.tiles.push(g_levels);
        inner.tiles.len() - 1
    }

    /// Records observation `index` of `tile` (indices count each
    /// tile's input vectors from 0, in the order the tile saw them).
    fn record(&self, tile: usize, index: u64, v_levels: &[f32]) {
        let priority = ModelRng::for_model(self.seed ^ tile as u64, "stimulus", index).next_u64();
        let key = (priority, tile, index);
        let mut inner = self.inner.lock().expect("stimulus log poisoned");
        inner.seen += 1;
        let kept = &mut inner.kept;
        if kept.len() == self.capacity && kept.last().is_none_or(|(last, _)| key > *last) {
            return;
        }
        let at = kept.partition_point(|(k, _)| *k < key);
        kept.insert(at, (key, v_levels.to_vec()));
        kept.truncate(self.capacity);
    }

    /// Total MVM rows observed (before subsampling).
    pub fn observed(&self) -> usize {
        self.inner.lock().expect("stimulus log poisoned").seen
    }

    /// Extracts the sampled stimuli, in priority order.
    pub fn stimuli(&self) -> Vec<WorkloadStimulus> {
        let inner = self.inner.lock().expect("stimulus log poisoned");
        inner
            .kept
            .iter()
            .map(|&((_, tile, _), ref v)| WorkloadStimulus {
                v_levels: v.clone(),
                g_levels: inner.tiles[tile].clone(),
            })
            .collect()
    }
}

/// An engine wrapper that records every programmed tile and samples
/// the input vectors applied to them.
pub struct RecordingEngine<E> {
    inner: E,
    log: StimulusLog,
}

impl<E: CrossbarEngine> RecordingEngine<E> {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: E, log: StimulusLog) -> Self {
        RecordingEngine { inner, log }
    }
}

struct RecordingXbar {
    inner: Box<dyn ProgrammedXbar>,
    tile: usize,
    rows: usize,
    log: StimulusLog,
    observations: AtomicU64,
}

impl ProgrammedXbar for RecordingXbar {
    fn currents_batch(&self, v_levels: &[f32], n: usize) -> Result<Vec<f64>, FuncsimError> {
        // Reserve a contiguous block of observation indices, so a batch
        // of n is numbered like n singles issued in the same order.
        let base = self.observations.fetch_add(n as u64, Ordering::Relaxed);
        for (b, v) in v_levels.chunks(self.rows).take(n).enumerate() {
            self.log.record(self.tile, base + b as u64, v);
        }
        self.inner.currents_batch(v_levels, n)
    }
}

impl<E: CrossbarEngine> CrossbarEngine for RecordingEngine<E> {
    fn name(&self) -> &'static str {
        "recording"
    }

    fn program(
        &self,
        params: &CrossbarParams,
        g_levels: &[f32],
    ) -> Result<Box<dyn ProgrammedXbar>, FuncsimError> {
        let tile = self.log.register_tile(g_levels.to_vec());
        Ok(Box::new(RecordingXbar {
            inner: self.inner.program(params, g_levels)?,
            tile,
            rows: params.rows,
            log: self.log.clone(),
            observations: AtomicU64::new(0),
        }))
    }
}

/// Runs `spec` over `images` on the ideal backend and harvests up to
/// `max_samples` workload stimuli (uniformly sampled over all crossbar
/// operations the run performs; the same at any `GENIEX_THREADS`).
///
/// # Errors
///
/// Propagates build and inference failures.
pub fn harvest_stimuli(
    spec: NetworkSpec,
    arch: &ArchConfig,
    images: &Tensor,
    max_samples: usize,
    seed: u64,
) -> Result<Vec<WorkloadStimulus>, FuncsimError> {
    let log = StimulusLog::new(max_samples, seed);
    let engine = RecordingEngine::new(IdealEngine, log.clone());
    let net = CrossbarNetwork::build(spec, arch, &engine)?;
    net.forward(images)?;
    Ok(log.stimuli())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vision::{MicroResNet, SynthSpec, SynthVision};

    fn arch() -> ArchConfig {
        ArchConfig::default().with_xbar(CrossbarParams::builder(8, 8).build().unwrap())
    }

    #[test]
    fn harvests_structured_stimuli() {
        let model = MicroResNet::new(SynthSpec::SynthS, 3);
        let data = SynthVision::generate(SynthSpec::SynthS, 1, 5).unwrap();
        let (images, _) = data.batch(&[0, 1]).unwrap();
        let stimuli = harvest_stimuli(model.to_spec(), &arch(), &images, 50, 9).unwrap();
        assert_eq!(stimuli.len(), 50);
        for s in &stimuli {
            assert_eq!(s.v_levels.len(), 8);
            assert_eq!(s.g_levels.len(), 64);
            assert!(s.v_levels.iter().all(|&v| (0.0..=1.0).contains(&v)));
            assert!(s.g_levels.iter().all(|&g| (0.0..=1.0).contains(&g)));
        }
        // Bit-sliced digits are quantized to d/15ths.
        let quantized = stimuli
            .iter()
            .flat_map(|s| &s.v_levels)
            .all(|&v| (v * 15.0 - (v * 15.0).round()).abs() < 1e-5);
        assert!(quantized, "stream levels must be digit-quantized");
    }

    #[test]
    fn reservoir_is_deterministic_and_capped() {
        let model = MicroResNet::new(SynthSpec::SynthS, 3);
        let data = SynthVision::generate(SynthSpec::SynthS, 1, 5).unwrap();
        let (images, _) = data.batch(&[0]).unwrap();
        let a = harvest_stimuli(model.to_spec(), &arch(), &images, 20, 1).unwrap();
        let b = harvest_stimuli(model.to_spec(), &arch(), &images, 20, 1).unwrap();
        assert_eq!(a, b);
        let c = harvest_stimuli(model.to_spec(), &arch(), &images, 20, 2).unwrap();
        assert_ne!(a, c, "different seeds should sample differently");
    }

    #[test]
    fn log_counts_observations() {
        let log = StimulusLog::new(4, 0);
        let tile = log.register_tile(vec![0.0; 4]);
        for k in 0..10 {
            log.record(tile, k, &[k as f32 / 10.0, 0.0]);
        }
        assert_eq!(log.observed(), 10);
        assert_eq!(log.stimuli().len(), 4);
    }

    #[test]
    fn sample_ignores_tile_interleaving() {
        // Pool tasks deliver each tile's observations in that tile's
        // order but interleave tiles arbitrarily; the sample must not
        // depend on the interleaving.
        let observations =
            |tile: usize| (0..12u64).map(move |k| (tile, k, [tile as f32, k as f32 / 12.0]));
        let tiles_first = StimulusLog::new(5, 3);
        let interleaved = StimulusLog::new(5, 3);
        for log in [&tiles_first, &interleaved] {
            log.register_tile(vec![0.0; 4]);
            log.register_tile(vec![1.0; 4]);
        }
        for (tile, k, v) in observations(0).chain(observations(1)) {
            tiles_first.record(tile, k, &v);
        }
        for ((t0, k0, v0), (t1, k1, v1)) in observations(0).zip(observations(1)) {
            interleaved.record(t1, k1, &v1);
            interleaved.record(t0, k0, &v0);
        }
        assert_eq!(tiles_first.observed(), 24);
        assert_eq!(tiles_first.stimuli().len(), 5);
        assert_eq!(tiles_first.stimuli(), interleaved.stimuli());
    }

    #[test]
    fn recording_engine_is_transparent() {
        // Wrapping must not change the computed currents.
        let params = CrossbarParams::builder(4, 4).build().unwrap();
        let log = StimulusLog::new(8, 0);
        let rec = RecordingEngine::new(IdealEngine, log.clone());
        let g = [0.5f32; 16];
        let v = [1.0f32, 0.0, 0.5, 0.25];
        let a = rec
            .program(&params, &g)
            .unwrap()
            .currents_batch(&v, 1)
            .unwrap();
        let b = IdealEngine
            .program(&params, &g)
            .unwrap()
            .currents_batch(&v, 1)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(log.observed(), 1);
    }
}
