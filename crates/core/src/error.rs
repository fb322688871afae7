//! Typed failure modes of the paper's algorithms.
//!
//! Every algorithm has one entry point, and it returns its failure as a
//! value: the network algorithms ([`crate::mop_multi::try_mop_multi`],
//! [`crate::tolls::try_marginal_cost_tolls_multi`]) return this enum, the
//! parallel-links ones ([`crate::optop::try_optop`], LLF, SCALE, the
//! Theorem 2.4 strategy, the curve) return
//! [`sopt_solver::equalize::EqualizeError`]. Only caller preconditions
//! (`α ∈ [0, 1]`, one load per link) are asserted. Downstream,
//! `stackopt::api` folds both into its single `SoptError`.

use sopt_solver::equalize::EqualizeError;
use sopt_solver::error::SolverError;

/// Why an algorithm of this crate could not produce a result.
#[derive(Clone, Debug, PartialEq)]
pub enum CoreError {
    /// A convex solve (Frank–Wolfe) stopped above its relative-gap target.
    NotConverged {
        /// Which solve failed (`"optimum"`, `"nash"`, `"induced"`, …).
        what: &'static str,
        /// The relative gap it reached.
        rel_gap: f64,
    },
    /// A commodity's sink cannot be reached from its source.
    Unreachable {
        /// Commodity index (0 for single-commodity instances).
        commodity: usize,
    },
    /// The parallel-links equalizer failed underneath.
    Equalize(EqualizeError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::NotConverged { what, rel_gap } => {
                write!(
                    f,
                    "{what} solve did not converge (relative gap {rel_gap:.3e})"
                )
            }
            CoreError::Unreachable { commodity } => {
                write!(f, "commodity {commodity}: sink unreachable from source")
            }
            CoreError::Equalize(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Equalize(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EqualizeError> for CoreError {
    fn from(e: EqualizeError) -> Self {
        CoreError::Equalize(e)
    }
}

impl From<SolverError> for CoreError {
    fn from(e: SolverError) -> Self {
        match e {
            SolverError::UnreachableSink { commodity, .. } => CoreError::Unreachable { commodity },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failing_solve() {
        let e = CoreError::NotConverged {
            what: "optimum",
            rel_gap: 1e-3,
        };
        assert!(e.to_string().contains("optimum"));
        let e = CoreError::Unreachable { commodity: 2 };
        assert!(e.to_string().contains("commodity 2"));
    }

    #[test]
    fn solver_errors_convert() {
        use sopt_network::graph::NodeId;
        let e: CoreError = SolverError::UnreachableSink {
            commodity: 3,
            source: NodeId(0),
            sink: NodeId(1),
        }
        .into();
        assert_eq!(e, CoreError::Unreachable { commodity: 3 });
    }

    #[test]
    fn equalize_errors_convert() {
        let e: CoreError = EqualizeError::Empty.into();
        assert_eq!(e, CoreError::Equalize(EqualizeError::Empty));
        assert!(std::error::Error::source(&e).is_some());
    }
}
