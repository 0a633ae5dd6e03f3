//! GENIEx: a neural-network surrogate of non-ideal memristive crossbars.
//!
//! This crate implements the core contribution of *GENIEx: A Generalized
//! Approach to Emulating Non-Ideality in Memristive Xbars using Neural
//! Networks* (Chakraborty et al., DAC 2020):
//!
//! 1. **Dataset generation** ([`dataset`]): exhaustive sampling of the
//!    `(V, G)` space with stratified sparsity (bit-sliced DNN workloads
//!    are highly sparse), labelled by the circuit simulator's
//!    `f_R(V, G) = I_ideal / I_non_ideal` distortion ratio.
//! 2. **The surrogate** ([`Geniex`]): a two-layer MLP
//!    `(N·M + N) × P × M` (inputs: the voltage vector concatenated
//!    with the flattened conductance matrix, both normalized to
//!    `[0, 1]`; output: `f_R` per bit line). Predicting the *ratio*
//!    instead of the current avoids asking a linear network to learn a
//!    multiplicative interaction — the paper's key formulation insight.
//! 3. **Fast forward** ([`GeniexTile`]): since `G` is fixed once a tile
//!    is programmed, the hidden pre-activation contribution of the `G`
//!    input block is precomputed, reducing each surrogate MVM to two
//!    small GEMVs. This is what makes the functional simulator usable.
//! 4. **Benchmarking** ([`benchmark`]): the Fig. 5 protocol — NF RMSE
//!    of the surrogate and of the analytical baseline against the
//!    circuit ground truth on a held-out validation set.
//!
//! # Quick start
//!
//! ```
//! # fn main() -> Result<(), geniex::GeniexError> {
//! use geniex::{dataset::DatasetConfig, Geniex, TrainConfig};
//! use xbar::CrossbarParams;
//!
//! let params = CrossbarParams::builder(4, 4).build()?;
//! let data = geniex::dataset::generate(&params, &DatasetConfig {
//!     samples: 64, seed: 1, ..DatasetConfig::default()
//! })?;
//! let mut surrogate = Geniex::new(&params, 32, 7)?;
//! surrogate.train(&data, &TrainConfig { epochs: 30, ..TrainConfig::default() })?;
//! let v = vec![params.v_supply; 4];
//! let g = xbar::ConductanceMatrix::uniform(4, 4, params.g_on());
//! let currents = surrogate.predict_currents(&v, &g)?;
//! assert_eq!(currents.len(), 4);
//! # Ok(())
//! # }
//! ```

pub mod benchmark;
pub mod dataset;
mod error;
mod fast;
mod surrogate;

pub use error::GeniexError;
pub use fast::GeniexTile;
pub use surrogate::{Geniex, Normalizer, TrainConfig, TrainingReport};
