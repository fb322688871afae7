//! Typed failure modes of the flow solvers.
//!
//! The Frank–Wolfe linearised subproblem is an all-or-nothing shortest-path
//! assignment; on a graph where a commodity's sink is cut off from its
//! source there is no feasible flow at all, and the solvers report that as
//! [`SolverError::UnreachableSink`] through the Frank–Wolfe entry points
//! ([`crate::frank_wolfe::try_solve_warm_multicommodity`] and its `_with`
//! form) and the all-or-nothing kernels in [`crate::aon`].

use sopt_network::graph::NodeId;

/// Why a convex flow solve could not produce a result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverError {
    /// A commodity's sink cannot be reached from its source, so no feasible
    /// assignment exists.
    UnreachableSink {
        /// Commodity index (0 for single-commodity solves).
        commodity: usize,
        /// The commodity's source.
        source: NodeId,
        /// The unreachable sink.
        sink: NodeId,
    },
}

impl SolverError {
    /// The same error attributed to commodity `commodity` — multicommodity
    /// solvers use this to replace the per-commodity subroutine's local
    /// index (always 0) with the commodity's position in the instance.
    pub fn with_commodity(self, commodity: usize) -> Self {
        match self {
            SolverError::UnreachableSink { source, sink, .. } => SolverError::UnreachableSink {
                commodity,
                source,
                sink,
            },
        }
    }
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::UnreachableSink {
                commodity,
                source,
                sink,
            } => write!(
                f,
                "sink {sink} unreachable from source {source} (commodity {commodity})"
            ),
        }
    }
}

impl std::error::Error for SolverError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_cut_pair() {
        let e = SolverError::UnreachableSink {
            commodity: 2,
            source: NodeId(0),
            sink: NodeId(5),
        };
        let s = e.to_string();
        assert!(s.contains("unreachable") && s.contains("v5") && s.contains("commodity 2"));
    }
}
