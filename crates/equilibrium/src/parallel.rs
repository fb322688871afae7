//! Parallel-link systems `(M, r)` and their three canonical assignments.

use sopt_latency::{Latency, LatencyFn};
use sopt_solver::equalize::{equalize, EqualizeError};
use sopt_solver::objective::CostModel;

/// A system of `m` parallel links `M = {M_1, …, M_m}` carrying total flow
/// `r > 0` from `s` to `t` (paper §4).
#[derive(Clone, Debug)]
pub struct ParallelLinks {
    latencies: Vec<LatencyFn>,
    rate: f64,
}

/// An assignment together with its common level (Remark 4.1/4.2): loaded
/// links share the level; empty links have cost ≥ level.
#[derive(Clone, Debug)]
pub struct ParallelProfile {
    flows: Vec<f64>,
    level: f64,
}

impl ParallelProfile {
    /// Per-link flows.
    pub fn flows(&self) -> &[f64] {
        &self.flows
    }

    /// The common latency `L_N` (Nash) or marginal cost (optimum).
    pub fn level(&self) -> f64 {
        self.level
    }
}

/// A Stackelberg strategy `S` with its induced equilibrium `T` (paper §4).
#[derive(Clone, Debug)]
pub struct Induced {
    /// The Leader's assignment `S = ⟨s_1, …, s_m⟩`.
    pub strategy: Vec<f64>,
    /// The Followers' induced Nash assignment `T = ⟨t_1, …, t_m⟩`.
    pub follower: Vec<f64>,
    /// The combined Stackelberg equilibrium `S + T`.
    pub total: Vec<f64>,
    /// The followers' common a-posteriori latency `L_S` (Remark 4.2).
    pub level: f64,
}

impl ParallelLinks {
    /// Assemble a system. Panics on empty systems or nonpositive rate.
    pub fn new(latencies: Vec<LatencyFn>, rate: f64) -> Self {
        assert!(!latencies.is_empty(), "at least one link");
        assert!(rate.is_finite() && rate > 0.0, "rate must be positive");
        Self { latencies, rate }
    }

    /// Number of links `m`.
    pub fn m(&self) -> usize {
        self.latencies.len()
    }

    /// Total flow `r`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The latency functions.
    pub fn latencies(&self) -> &[LatencyFn] {
        &self.latencies
    }

    /// Latency of link `i` at load `x`.
    pub fn latency(&self, i: usize, x: f64) -> f64 {
        self.latencies[i].value(x)
    }

    /// Total cost `C(X) = Σ x_i ℓ_i(x_i)` of an assignment.
    pub fn cost(&self, flows: &[f64]) -> f64 {
        assert_eq!(flows.len(), self.m());
        flows
            .iter()
            .zip(&self.latencies)
            .map(|(&x, l)| if x == 0.0 { 0.0 } else { x * l.value(x) })
            .sum()
    }

    /// The same links with a different total flow (OpTop recursion shrinks
    /// the rate as frozen links leave the game).
    pub fn with_rate(&self, rate: f64) -> Self {
        Self::new(self.latencies.clone(), rate)
    }

    /// The subsystem on the links at `indices` carrying flow `rate`.
    pub fn subsystem(&self, indices: &[usize], rate: f64) -> Self {
        let lat = indices.iter().map(|&i| self.latencies[i].clone()).collect();
        Self::new(lat, rate)
    }

    /// Nash assignment `N` (Remark 4.1). Errors if the rate exceeds the
    /// total link capacity (M/M/1 saturation).
    pub fn try_nash(&self) -> Result<ParallelProfile, EqualizeError> {
        let r = equalize(&self.latencies, self.rate, CostModel::Wardrop)?;
        Ok(ParallelProfile {
            flows: r.flows,
            level: r.level,
        })
    }

    /// Optimum assignment `O`. Errors on capacity saturation.
    pub fn try_optimum(&self) -> Result<ParallelProfile, EqualizeError> {
        let r = equalize(&self.latencies, self.rate, CostModel::SystemOptimum)?;
        Ok(ParallelProfile {
            flows: r.flows,
            level: r.level,
        })
    }

    /// The equilibrium induced by Stackelberg strategy `S` (Remark 4.2):
    /// Followers route `r − Σ s_i` selfishly against the a-posteriori
    /// latencies `ℓ̃_i(t) = ℓ_i(s_i + t)`.
    ///
    /// User-supplied strategies (e.g. from the CLI or the `stackopt::api`
    /// session layer) are validated, not asserted: defects come back as
    /// [`EqualizeError::InvalidStrategy`].
    pub fn try_induced(&self, strategy: &[f64]) -> Result<Induced, EqualizeError> {
        if strategy.len() != self.m() {
            return Err(EqualizeError::InvalidStrategy {
                reason: format!(
                    "expected one entry per link ({} links), got {}",
                    self.m(),
                    strategy.len()
                ),
            });
        }
        let beta_r: f64 = strategy.iter().sum();
        // NaN entries fail the `< -1e-12` comparison's complement, so test
        // for "not known nonnegative" explicitly.
        if let Some(bad) = strategy.iter().find(|s| s.is_nan() || **s < -1e-12) {
            return Err(EqualizeError::InvalidStrategy {
                reason: format!("strategy flows must be nonnegative, got {bad}"),
            });
        }
        if beta_r.is_nan() || beta_r > self.rate * (1.0 + 1e-9) + 1e-12 {
            return Err(EqualizeError::InvalidStrategy {
                reason: format!("strategy total {beta_r} exceeds rate {}", self.rate),
            });
        }
        // A preload at or above a link's capacity (M/M/1) means infinite
        // latency: report infeasibility rather than panicking, so strategy
        // searches can probe the boundary.
        if self
            .latencies
            .iter()
            .zip(strategy)
            .any(|(l, &s)| s >= l.capacity() * (1.0 - 1e-12))
        {
            let total_capacity: f64 = self.latencies.iter().map(|l| l.capacity()).sum();
            return Err(EqualizeError::Infeasible { total_capacity });
        }
        let shifted: Vec<LatencyFn> = self
            .latencies
            .iter()
            .zip(strategy)
            .map(|(l, &s)| l.preloaded(s.max(0.0)))
            .collect();
        let remaining = (self.rate - beta_r).max(0.0);
        let r = equalize(&shifted, remaining, CostModel::Wardrop)?;
        let total: Vec<f64> = strategy.iter().zip(&r.flows).map(|(s, t)| s + t).collect();
        Ok(Induced {
            strategy: strategy.to_vec(),
            follower: r.flows,
            total,
            level: r.level,
        })
    }

    /// Cost of the Stackelberg equilibrium `C(S + T)` for strategy `S`;
    /// errors on invalid strategies or infeasible instances.
    pub fn try_induced_cost(&self, strategy: &[f64]) -> Result<f64, EqualizeError> {
        Ok(self.cost(&self.try_induced(strategy)?.total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pigou() -> ParallelLinks {
        ParallelLinks::new(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0)
    }

    #[test]
    fn pigou_nash_and_optimum() {
        let links = pigou();
        let n = links.try_nash().unwrap();
        assert!((n.flows()[0] - 1.0).abs() < 1e-9);
        assert!((links.cost(n.flows()) - 1.0).abs() < 1e-9);
        let o = links.try_optimum().unwrap();
        assert!((o.flows()[0] - 0.5).abs() < 1e-9);
        assert!((links.cost(o.flows()) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn pigou_wise_strategy_induces_optimum() {
        // Paper Figs. 2–3: S = ⟨0, 1/2⟩ induces T = ⟨1/2, 0⟩.
        let links = pigou();
        let ind = links.try_induced(&[0.0, 0.5]).unwrap();
        assert!((ind.follower[0] - 0.5).abs() < 1e-9, "{ind:?}");
        assert!(ind.follower[1].abs() < 1e-9);
        assert!((links.cost(&ind.total) - 0.75).abs() < 1e-9);
        assert!((ind.level - 0.5).abs() < 1e-9); // followers see latency 1/2
    }

    #[test]
    fn empty_strategy_reproduces_nash() {
        let links = ParallelLinks::new(
            vec![
                LatencyFn::affine(1.0, 0.0),
                LatencyFn::affine(2.0, 0.1),
                LatencyFn::mm1(3.0),
            ],
            1.5,
        );
        let n = links.try_nash().unwrap();
        let ind = links.try_induced(&[0.0; 3]).unwrap();
        for i in 0..3 {
            assert!((ind.total[i] - n.flows()[i]).abs() < 1e-7);
        }
    }

    #[test]
    fn full_control_is_leaders_choice() {
        let links = pigou();
        let ind = links.try_induced(&[0.25, 0.75]).unwrap();
        assert!(ind.follower.iter().all(|t| t.abs() < 1e-12));
        assert_eq!(ind.total, vec![0.25, 0.75]);
    }

    #[test]
    fn subsystem_extracts_links() {
        let links = ParallelLinks::new(
            vec![
                LatencyFn::affine(1.0, 0.0),
                LatencyFn::affine(2.0, 0.0),
                LatencyFn::constant(0.7),
            ],
            1.0,
        );
        let sub = links.subsystem(&[0, 2], 0.5);
        assert_eq!(sub.m(), 2);
        assert_eq!(sub.rate(), 0.5);
        assert_eq!(sub.latency(1, 10.0), 0.7);
    }

    #[test]
    fn mm1_infeasible_propagates() {
        let links = ParallelLinks::new(vec![LatencyFn::mm1(1.0)], 2.0);
        assert!(links.try_nash().is_err());
        assert!(links.try_optimum().is_err());
    }

    #[test]
    fn oversized_strategy_rejected() {
        let links = pigou();
        match links.try_induced(&[1.0, 0.5]) {
            Err(EqualizeError::InvalidStrategy { reason }) => {
                assert!(reason.contains("exceeds rate"), "{reason}")
            }
            other => panic!("expected InvalidStrategy, got {other:?}"),
        }
    }

    #[test]
    fn invalid_strategies_are_typed_errors() {
        let links = pigou();
        for bad in [vec![0.1], vec![-0.2, 0.0], vec![0.9, 0.9]] {
            match links.try_induced(&bad) {
                Err(EqualizeError::InvalidStrategy { .. }) => {}
                other => panic!("{bad:?}: expected InvalidStrategy, got {other:?}"),
            }
        }
        assert!(links.try_induced_cost(&[f64::NAN, 0.0]).is_err());
    }

    #[test]
    fn induced_cost_of_optimal_strategy() {
        let links = pigou();
        assert!((links.try_induced_cost(&[0.0, 0.5]).unwrap() - 0.75).abs() < 1e-9);
        assert!((links.try_induced_cost(&[0.0, 0.0]).unwrap() - 1.0).abs() < 1e-9);
    }
}
