//! Crossbar functional simulator (the paper's Section 5 system).
//!
//! Executes frozen DNNs ([`vision::NetworkSpec`]) with the *crossbar*
//! computation model instead of GEMMs, reproducing the three phases of
//! Fig. 6:
//!
//! 1. **Iterative-MVM** — convolutions lowered to repeated MVMs
//!    (im2col), fully-connected layers to single MVMs.
//! 2. **Tiling** — the weight matrix is cut into crossbar-sized tiles;
//!    tiles in a row share an input slice, tiles in a column produce
//!    partial sums.
//! 3. **Bit-slicing** — inputs stream in `stream_width`-bit digits,
//!    weights are stored in `slice_width`-bit slices; every (stream,
//!    slice) pair is one analog crossbar operation, digitized by an
//!    ADC and merged by shift-and-add into a saturating accumulator.
//!
//! Where the analog crossbar operation comes from is pluggable
//! ([`CrossbarEngine`]): ideal arithmetic, the linear analytical model,
//! the GENIEx surrogate, or the full nonlinear circuit solve.
//!
//! Defaults follow the paper's Table 3 footnote: 16-bit inputs/weights
//! (13 fractional), 32-bit accumulator (24 fractional), 14-bit ADC,
//! 4-bit streams, 4-bit slices.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), funcsim::FuncsimError> {
//! use funcsim::{ArchConfig, CrossbarNetwork, IdealEngine};
//! use vision::{MicroResNet, SynthSpec, SynthVision};
//!
//! let model = MicroResNet::new(SynthSpec::SynthS, 1);
//! let arch = ArchConfig::default();
//! let net = CrossbarNetwork::build(model.to_spec(), &arch, &IdealEngine)?;
//! let data = SynthVision::generate(SynthSpec::SynthS, 1, 2)?;
//! let (images, _) = data.batch(&[0])?;
//! let logits = net.forward(&images)?;
//! assert_eq!(logits.shape(), &[1, 8]);
//! # Ok(())
//! # }
//! ```

mod arch;
pub mod cost;
pub mod diagnostics;
mod engine;
mod error;
mod fixed;
mod matrix;
mod network;
mod record;
mod zoo;

pub use arch::{ArchConfig, WeightMapping};
pub use engine::{
    AnalyticalEngine, CircuitEngine, CrossbarEngine, GeniexEngine, IdealEngine, ProgrammedXbar,
};
pub use error::FuncsimError;
pub use fixed::{digit_count, rescale_saturate, split_digits, FxpFormat};
pub use matrix::ProgrammedMatrix;
pub use network::{evaluate_spec, CrossbarNetwork};
pub use record::{harvest_stimuli, RecordingEngine, StimulusLog, WorkloadStimulus};
pub use zoo::ZooEngine;
