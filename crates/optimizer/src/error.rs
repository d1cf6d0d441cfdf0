//! Errors produced by model validation and the optimizer.

use std::fmt;

/// Errors returned by [`crate::StorageModel`] construction and
/// [`crate::Optimizer::run`].
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizerError {
    /// The model is malformed (empty, inconsistent indices, bad rates…).
    InvalidModel(String),
    /// No feasible scheduling exists: even with every allowed chunk cached,
    /// some node must be loaded at or above its service rate.
    UnstableSystem {
        /// The node that remains overloaded.
        node: usize,
        /// Its utilization at the initial (most spread-out) scheduling.
        utilization: f64,
    },
    /// The requested cache capacity cannot be met: files cannot place more
    /// than `Σ_i k_i` chunks in the cache, and a zero-capacity cache is the
    /// minimum, so this only occurs for internal inconsistencies.
    InfeasibleCache(String),
}

impl fmt::Display for OptimizerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizerError::InvalidModel(msg) => write!(f, "invalid storage model: {msg}"),
            OptimizerError::UnstableSystem { node, utilization } => write!(
                f,
                "system is unstable: node {node} has utilization {utilization:.4} >= 1 even at the initial scheduling"
            ),
            OptimizerError::InfeasibleCache(msg) => write!(f, "infeasible cache constraint: {msg}"),
        }
    }
}

impl std::error::Error for OptimizerError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(OptimizerError::InvalidModel("empty".into())
            .to_string()
            .contains("invalid storage model"));
        assert!(OptimizerError::UnstableSystem {
            node: 3,
            utilization: 1.25
        }
        .to_string()
        .contains("node 3"));
        assert!(OptimizerError::InfeasibleCache("x".into())
            .to_string()
            .contains("infeasible"));
    }
}
