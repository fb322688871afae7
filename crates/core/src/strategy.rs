//! Stackelberg strategy evaluation on parallel links.

use sopt_equilibrium::parallel::{Induced, ParallelLinks};
use sopt_solver::equalize::EqualizeError;

/// A Leader assignment `S = ⟨s_1, …, s_m⟩` on parallel links together with
/// its evaluation.
#[derive(Clone, Debug)]
pub struct ParallelStrategy {
    /// The per-link Leader flows.
    pub flows: Vec<f64>,
    /// The controlled portion `α = (Σ s_i)/r`.
    pub alpha: f64,
}

impl ParallelStrategy {
    /// Wrap flows, computing `α` from the instance rate.
    pub fn new(flows: Vec<f64>, rate: f64) -> Self {
        let total: f64 = flows.iter().sum();
        Self {
            flows,
            alpha: total / rate,
        }
    }

    /// The do-nothing strategy (everything left to the Followers).
    pub fn aloof(m: usize) -> Self {
        Self {
            flows: vec![0.0; m],
            alpha: 0.0,
        }
    }
}

/// A fully-evaluated Stackelberg outcome: strategy, induced equilibrium,
/// and the cost `C(S + T)`.
#[derive(Clone, Debug)]
pub struct StackelbergOutcome {
    /// The strategy `S`.
    pub strategy: ParallelStrategy,
    /// The induced equilibrium `T` (and the combined `S + T`).
    pub induced: Induced,
    /// `C(S + T)`.
    pub cost: f64,
}

/// Evaluate a strategy: compute the induced Nash `T` and `C(S+T)`.
pub fn evaluate(links: &ParallelLinks, flows: &[f64]) -> Result<StackelbergOutcome, EqualizeError> {
    let induced = links.try_induced(flows)?;
    let cost = links.cost(&induced.total);
    Ok(StackelbergOutcome {
        strategy: ParallelStrategy::new(flows.to_vec(), links.rate()),
        induced,
        cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::LatencyFn;

    #[test]
    fn evaluate_pigou_strategies() {
        let links = ParallelLinks::new(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0);
        let aloof = evaluate(&links, &[0.0, 0.0]).unwrap();
        assert!((aloof.cost - 1.0).abs() < 1e-9);
        assert_eq!(aloof.strategy.alpha, 0.0);

        let wise = evaluate(&links, &[0.0, 0.5]).unwrap();
        assert!((wise.cost - 0.75).abs() < 1e-9);
        assert!((wise.strategy.alpha - 0.5).abs() < 1e-12);
        assert!((wise.induced.total[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn aloof_constructor() {
        let s = ParallelStrategy::aloof(3);
        assert_eq!(s.flows, vec![0.0; 3]);
        assert_eq!(s.alpha, 0.0);
    }
}
