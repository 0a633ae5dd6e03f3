//! Engine decorator threading the non-ideality zoo through tile
//! construction and evaluation.
//!
//! [`ZooEngine`] wraps any [`CrossbarEngine`] with an
//! [`xbar::zoo::NonIdealityStack`]: every programmed tile's target
//! conductances pass through the stack's programming and
//! time-dependent models before reaching the inner backend, and — when
//! the stack carries an active read-stage model — the tile's output
//! currents pass through the read models after every MVM.
//!
//! Tiles draw distinct sub-streams via a per-engine tile counter, and
//! read noise advances a per-tile sample counter, so a batch of `n`
//! MVMs draws exactly the noise `n` single MVMs would — keeping
//! batched and serial execution bit-identical at any thread count.

use crate::engine::{CrossbarEngine, ProgrammedXbar};
use crate::FuncsimError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use xbar::zoo::NonIdealityStack;
use xbar::{ConductanceMatrix, CrossbarParams};

/// A [`CrossbarEngine`] whose tiles live in the non-ideality zoo.
pub struct ZooEngine<E> {
    inner: E,
    stack: Arc<NonIdealityStack>,
    tile_counter: AtomicU64,
}

impl<E: CrossbarEngine> ZooEngine<E> {
    /// Wraps `inner`; each programmed tile gets the next tile index,
    /// so its models draw from tile-distinct sub-streams.
    pub fn new(inner: E, stack: NonIdealityStack) -> Self {
        ZooEngine {
            inner,
            stack: Arc::new(stack),
            tile_counter: AtomicU64::new(0),
        }
    }
}

impl<E: CrossbarEngine> CrossbarEngine for ZooEngine<E> {
    fn name(&self) -> &'static str {
        "zoo"
    }

    fn program(
        &self,
        params: &CrossbarParams,
        g_levels: &[f32],
    ) -> Result<Box<dyn ProgrammedXbar>, FuncsimError> {
        let tile = self.tile_counter.fetch_add(1, Ordering::Relaxed);
        let levels: Vec<f64> = g_levels.iter().map(|&l| l as f64).collect();
        let target = ConductanceMatrix::from_levels(params, &levels)?;
        let programmed = self.stack.program(params, &target, tile)?;
        let programmed_levels: Vec<f32> = programmed
            .to_levels(params)
            .into_iter()
            .map(|x| x as f32)
            .collect();
        let inner = self.inner.program(params, &programmed_levels)?;
        if !self.stack.has_read_stage() {
            return Ok(inner);
        }
        Ok(Box::new(ZooTile {
            inner,
            stack: Arc::clone(&self.stack),
            params: params.clone(),
            tile,
            samples_seen: AtomicU64::new(0),
        }))
    }
}

/// A programmed tile whose output currents pass through the stack's
/// read-stage models.
struct ZooTile {
    inner: Box<dyn ProgrammedXbar>,
    stack: Arc<NonIdealityStack>,
    params: CrossbarParams,
    tile: u64,
    samples_seen: AtomicU64,
}

impl ProgrammedXbar for ZooTile {
    fn currents_batch(&self, v_levels: &[f32], n: usize) -> Result<Vec<f64>, FuncsimError> {
        let mut out = self.inner.currents_batch(v_levels, n)?;
        // Reserve a contiguous block of sample indices so a batch of n
        // draws the same noise as n singles issued in the same order.
        let base = self.samples_seen.fetch_add(n as u64, Ordering::Relaxed);
        let cols = self.params.cols;
        for (s, chunk) in out.chunks_mut(cols).enumerate() {
            self.stack
                .read(&self.params, chunk, self.tile, base + s as u64)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IdealEngine;
    use xbar::zoo::{ConductanceDrift, LognormalSpread, ReadNoise};

    fn params() -> CrossbarParams {
        CrossbarParams::builder(8, 8).build().unwrap()
    }

    fn stack_with(model: Box<dyn xbar::NonIdeality>) -> NonIdealityStack {
        NonIdealityStack::new(7).with_model(model).unwrap()
    }

    #[test]
    fn empty_stack_is_transparent() {
        let p = params();
        let engine = ZooEngine::new(IdealEngine, NonIdealityStack::new(7));
        let g = [0.5f32; 64];
        let v = [1.0f32; 8];
        let a = engine
            .program(&p, &g)
            .unwrap()
            .currents_batch(&v, 1)
            .unwrap();
        let b = IdealEngine
            .program(&p, &g)
            .unwrap()
            .currents_batch(&v, 1)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn drift_attenuates_every_current() {
        let p = params();
        let engine = ZooEngine::new(
            IdealEngine,
            stack_with(Box::new(ConductanceDrift {
                t: 1e4,
                t0: 1.0,
                nu: 0.05,
            })),
        );
        let g = [1.0f32; 64];
        let v = [1.0f32; 8];
        let drifted = engine
            .program(&p, &g)
            .unwrap()
            .currents_batch(&v, 1)
            .unwrap();
        let clean = IdealEngine
            .program(&p, &g)
            .unwrap()
            .currents_batch(&v, 1)
            .unwrap();
        for (d, c) in drifted.iter().zip(&clean) {
            assert!(d < c, "drifted current {d} must sit below clean {c}");
        }
    }

    #[test]
    fn read_noise_batch_matches_singles_bit_exactly() {
        let p = params();
        let g = [0.5f32; 64];
        let v1 = [1.0f32; 8];
        let v2 = [0.5f32; 8];
        let flat: Vec<f32> = v1.iter().chain(v2.iter()).copied().collect();
        let noise = || stack_with(Box::new(ReadNoise { sigma: 0.05 }));

        let batched = ZooEngine::new(IdealEngine, noise())
            .program(&p, &g)
            .unwrap()
            .currents_batch(&flat, 2)
            .unwrap();
        let singles_tile = ZooEngine::new(IdealEngine, noise())
            .program(&p, &g)
            .unwrap();
        let s1 = singles_tile.currents_batch(&v1, 1).unwrap();
        let s2 = singles_tile.currents_batch(&v2, 1).unwrap();
        assert_eq!(&batched[..8], &s1[..]);
        assert_eq!(&batched[8..], &s2[..]);

        // And the noise really is noise.
        let clean = IdealEngine
            .program(&p, &g)
            .unwrap()
            .currents_batch(&v1, 1)
            .unwrap();
        assert_ne!(s1, clean);
    }

    #[test]
    fn tiles_draw_distinct_programming_streams() {
        let p = params();
        let engine = ZooEngine::new(
            IdealEngine,
            stack_with(Box::new(LognormalSpread { sigma: 0.3 })),
        );
        let g = [0.5f32; 64];
        let v = [1.0f32; 8];
        let t1 = engine
            .program(&p, &g)
            .unwrap()
            .currents_batch(&v, 1)
            .unwrap();
        let t2 = engine
            .program(&p, &g)
            .unwrap()
            .currents_batch(&v, 1)
            .unwrap();
        assert_ne!(t1, t2, "successive tiles must draw distinct spreads");
    }

    #[test]
    fn programming_only_stack_does_not_wrap_reads() {
        // Two identically-seeded engines: programming effects are baked
        // into the tile, so repeated reads are bit-stable.
        let p = params();
        let engine = ZooEngine::new(
            IdealEngine,
            stack_with(Box::new(LognormalSpread { sigma: 0.3 })),
        );
        let tile = engine.program(&p, &[0.5f32; 64]).unwrap();
        let v = [1.0f32; 8];
        let a = tile.currents_batch(&v, 1).unwrap();
        let b = tile.currents_batch(&v, 1).unwrap();
        assert_eq!(a, b);
    }
}
