use std::fmt;

/// Errors produced by the crossbar circuit simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum XbarError {
    /// Invalid design or device parameter (message explains which).
    InvalidParameter(String),
    /// Operand shapes don't match the crossbar dimensions.
    Shape(String),
    /// The Newton solve failed to converge.
    NewtonDiverged {
        iterations: usize,
        residual_norm: f64,
    },
    /// An input voltage or conductance was NaN/inf or outside its
    /// physical range.
    OutOfRange(String),
}

impl fmt::Display for XbarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XbarError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            XbarError::Shape(msg) => write!(f, "shape mismatch: {msg}"),
            XbarError::NewtonDiverged {
                iterations,
                residual_norm,
            } => write!(
                f,
                "newton iteration diverged after {iterations} steps \
                 (residual {residual_norm:.3e})"
            ),
            XbarError::OutOfRange(msg) => write!(f, "value out of range: {msg}"),
        }
    }
}

impl std::error::Error for XbarError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = XbarError::NewtonDiverged {
            iterations: 3,
            residual_norm: 1.5,
        };
        assert!(e.to_string().contains("3 steps"));
        assert!(XbarError::Shape("x".into()).to_string().contains('x'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<XbarError>();
    }
}
