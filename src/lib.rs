//! Umbrella crate for the GENIEx reproduction workspace.
//!
//! This package exists to host the workspace-level integration tests
//! (`tests/`) and runnable examples (`examples/`). It re-exports every
//! member crate so that examples and tests can reach the full stack
//! through a single dependency.
//!
//! See `README.md` for the architecture overview and `DESIGN.md` for the
//! system inventory and per-experiment index.

pub use funcsim;
pub use geniex;
pub use nn;
pub use vision;
pub use xbar;
