//! Batched latency evaluation for the solver hot loops.
//!
//! Every O(m) sweep of the Frank–Wolfe family — gradient costs, curvature
//! weights, line-search directional derivatives, the final objective — runs
//! through the kind-homogeneous struct-of-arrays lanes of a
//! [`LatencyBatch`]. [`Eval`] pairs those lanes with the latency slice they
//! were built from: solvers build it once per solve over the workspace's
//! batch (so construction amortises across iterations and warm polishes),
//! and callers without a batch of their own let [`Eval::new`] build one.
//! Per-edge [`LatencyFn`] dispatch survives only inside the lanes, as the
//! `general` fallback for latency kinds without a lane of their own.

use std::borrow::Cow;

use sopt_latency::{LatencyBatch, LatencyFn};

use crate::objective::CostModel;

/// A view over an edge-latency vector that evaluates the solver's O(m)
/// sweeps through batched lanes.
#[derive(Clone, Debug)]
pub struct Eval<'a> {
    lats: &'a [LatencyFn],
    batch: Cow<'a, LatencyBatch>,
}

impl<'a> Eval<'a> {
    /// Wrap `lats`, routing through `batch` when it is `Some` (it must have
    /// been built, or rebuilt, over exactly `lats`) and through freshly
    /// built lanes otherwise.
    pub fn new(lats: &'a [LatencyFn], batch: Option<&'a LatencyBatch>) -> Self {
        let batch = match batch {
            Some(b) => {
                assert_eq!(b.len(), lats.len(), "batch/latency length mismatch");
                Cow::Borrowed(b)
            }
            None => Cow::Owned(LatencyBatch::new(lats)),
        };
        Self { lats, batch }
    }

    /// The underlying latency slice.
    pub fn latencies(&self) -> &'a [LatencyFn] {
        self.lats
    }

    /// The lanes every sweep runs through.
    pub fn batch(&self) -> &LatencyBatch {
        &self.batch
    }

    /// Capacity `sup { x : ℓ_e(x) < ∞ }` of edge `e`.
    #[inline]
    pub fn capacity(&self, e: usize) -> f64 {
        self.batch.capacities()[e]
    }

    /// `out[e] = F'_e(f[e])` — the gradient costs Dijkstra prices with.
    pub fn gradient_into(&self, model: CostModel, f: &[f64], out: &mut [f64]) {
        match model {
            CostModel::Wardrop => self.batch.value_into(f, out),
            CostModel::SystemOptimum => self.batch.marginal_into(f, out),
        }
    }

    /// `out[e] = F''_e(f[e])` — the curvature weights of conjugate FW.
    pub fn curvature_into(&self, model: CostModel, f: &[f64], out: &mut [f64]) {
        match model {
            CostModel::Wardrop => self.batch.derivative_into(f, out),
            CostModel::SystemOptimum => self.batch.marginal_derivative_into(f, out),
        }
    }

    /// `Σ_e F_e(f[e])` — the objective value at `f`.
    pub fn objective_sum(&self, model: CostModel, f: &[f64]) -> f64 {
        match model {
            CostModel::Wardrop => self.batch.beckmann_sum(f),
            CostModel::SystemOptimum => self.batch.total_cost_sum(f),
        }
    }

    /// `φ'(γ) = Σ_{d_e ≠ 0} d_e · F'_e(max(f_e + γ·d_e, 0))` — the
    /// line-search derivative along `d`.
    pub fn dir_deriv(&self, model: CostModel, f: &[f64], d: &[f64], gamma: f64) -> f64 {
        match model {
            CostModel::Wardrop => self.batch.dir_value(f, d, gamma),
            CostModel::SystemOptimum => self.batch.dir_marginal(f, d, gamma),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::Latency;

    #[test]
    fn batched_and_scalar_views_agree() {
        let lats = vec![
            LatencyFn::bpr(1.0, 0.15, 10.0, 4),
            LatencyFn::mm1(6.0),
            LatencyFn::affine(0.5, 1.0),
            LatencyFn::constant(2.0),
        ];
        let batch = LatencyBatch::new(&lats);
        let f = [2.0, 1.5, 0.7, 3.0];
        let d = [-1.0, 0.5, 0.0, 0.25];
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12 * b.abs().max(1.0);
        // A caller-supplied batch and the view's self-built lanes must both
        // match per-edge `CostModel` arithmetic.
        for ev in [Eval::new(&lats, Some(&batch)), Eval::new(&lats, None)] {
            let mut out = [0.0; 4];
            for model in [CostModel::Wardrop, CostModel::SystemOptimum] {
                let agrees = |got: &[f64], g: fn(CostModel, &LatencyFn, f64) -> f64| {
                    (0..4).all(|e| close(got[e], g(model, &lats[e], f[e])))
                };
                ev.gradient_into(model, &f, &mut out);
                assert!(agrees(&out, CostModel::edge_gradient), "gradient");
                ev.curvature_into(model, &f, &mut out);
                assert!(agrees(&out, CostModel::edge_curvature), "curvature");
                let want: f64 = (0..4).map(|e| model.edge_objective(&lats[e], f[e])).sum();
                assert!(close(ev.objective_sum(model, &f), want), "objective");
                let gamma = 0.3;
                let want: f64 = (0..4)
                    .filter(|&e| d[e] != 0.0)
                    .map(|e| d[e] * model.edge_gradient(&lats[e], (f[e] + gamma * d[e]).max(0.0)))
                    .sum();
                assert!(close(ev.dir_deriv(model, &f, &d, gamma), want), "dir_deriv");
            }
            for (e, l) in lats.iter().enumerate() {
                assert_eq!(ev.capacity(e), l.capacity());
            }
        }
    }
}
