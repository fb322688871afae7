//! **LLF** — Largest Latency First (Roughgarden \[37\]), the classical
//! Stackelberg heuristic the paper benchmarks its exact results against.
//!
//! Compute the global optimum `O`, then let the Leader saturate links at
//! their optimal loads in *decreasing order of optimal latency* `ℓ_i(o_i)`
//! until her budget `αr` runs out (the last link filled partially).
//! Guarantees: `C(S+T) ≤ (1/α)·C(O)` for standard latencies
//! ([41, Thm 6.4.4]) and `≤ 4/(3+α)·C(O)` for linear latencies
//! ([41, Thm 6.4.5]) — Experiment E8 measures both.

use sopt_equilibrium::parallel::ParallelLinks;
use sopt_latency::Latency;
use sopt_solver::equalize::EqualizeError;

/// The LLF strategy for a Leader controlling `alpha·r` flow.
pub fn llf_strategy(links: &ParallelLinks, alpha: f64) -> Result<Vec<f64>, EqualizeError> {
    let optimum = links.try_optimum()?;
    Ok(llf_strategy_for_optimum(links, optimum.flows(), alpha))
}

/// [`llf_strategy`] with the optimum assignment supplied by the caller —
/// avoids re-solving it when it is already at hand (the session API gates
/// feasibility with `try_optimum` and reuses that solve here).
pub fn llf_strategy_for_optimum(links: &ParallelLinks, optimum: &[f64], alpha: f64) -> Vec<f64> {
    assert!((0.0..=1.0).contains(&alpha), "α must lie in [0, 1]");
    assert_eq!(optimum.len(), links.m(), "one optimal load per link");
    let mut order: Vec<usize> = (0..links.m()).collect();
    // Decreasing optimal latency ℓ_i(o_i); ties broken by index for
    // determinism.
    order.sort_by(|&i, &j| {
        let li = links.latencies()[i].value(optimum[i]);
        let lj = links.latencies()[j].value(optimum[j]);
        lj.total_cmp(&li).then(i.cmp(&j))
    });

    let mut budget = alpha * links.rate();
    let mut strategy = vec![0.0; links.m()];
    for &i in &order {
        if budget <= 0.0 {
            break;
        }
        let take = optimum[i].min(budget);
        strategy[i] = take;
        budget -= take;
    }
    strategy
}

/// Evaluate LLF: returns `(strategy, induced cost)`.
pub fn llf(links: &ParallelLinks, alpha: f64) -> Result<(Vec<f64>, f64), EqualizeError> {
    let s = llf_strategy(links, alpha)?;
    let c = links.try_induced_cost(&s)?;
    Ok((s, c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::LatencyFn;

    fn pigou() -> ParallelLinks {
        ParallelLinks::new(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0)
    }

    #[test]
    fn llf_on_pigou_saturates_slow_link_first() {
        // O = (1/2, 1/2); optimal latencies (1/2, 1): slow link first.
        let s = llf_strategy(&pigou(), 0.5).unwrap();
        assert!((s[1] - 0.5).abs() < 1e-9, "{s:?}");
        assert!(s[0].abs() < 1e-12);
        // With α = β = 1/2, LLF happens to be optimal here.
        let (_, cost) = llf(&pigou(), 0.5).unwrap();
        assert!((cost - 0.75).abs() < 1e-9);
    }

    #[test]
    fn llf_partial_fill() {
        let s = llf_strategy(&pigou(), 0.25).unwrap();
        assert!((s[1] - 0.25).abs() < 1e-9, "{s:?}");
        assert!(s[0].abs() < 1e-12);
    }

    #[test]
    fn llf_zero_alpha_is_aloof() {
        let links = pigou();
        let (s, cost) = llf(&links, 0.0).unwrap();
        assert!(s.iter().all(|x| *x == 0.0));
        assert!((cost - 1.0).abs() < 1e-9); // C(N)
    }

    #[test]
    fn llf_full_control_is_optimum() {
        let links = pigou();
        let (s, cost) = llf(&links, 1.0).unwrap();
        let total: f64 = s.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!((cost - 0.75).abs() < 1e-9);
    }

    #[test]
    fn one_over_alpha_guarantee_samples() {
        // C(S+T) ≤ (1/α)·C(O) ([41, Thm 6.4.4]).
        let links = ParallelLinks::new(
            vec![
                LatencyFn::affine(1.0, 0.0),
                LatencyFn::affine(0.5, 0.4),
                LatencyFn::monomial(2.0, 2),
                LatencyFn::constant(1.2),
            ],
            2.0,
        );
        let copt = links.cost(links.try_optimum().unwrap().flows());
        for &alpha in &[0.1, 0.25, 0.5, 0.75, 0.9] {
            let (_, cost) = llf(&links, alpha).unwrap();
            assert!(
                cost <= copt / alpha + 1e-7,
                "α={alpha}: C(S+T)={cost} > C(O)/α={}",
                copt / alpha
            );
        }
    }

    #[test]
    fn linear_four_thirds_guarantee_samples() {
        // Linear latencies: C(S+T) ≤ 4/(3+α)·C(O) ([41, Thm 6.4.5]).
        let links = ParallelLinks::new(
            vec![
                LatencyFn::affine(1.0, 0.0),
                LatencyFn::affine(2.0, 0.1),
                LatencyFn::affine(0.5, 0.3),
            ],
            1.0,
        );
        let copt = links.cost(links.try_optimum().unwrap().flows());
        for &alpha in &[0.1, 0.3, 0.5, 0.7, 0.9] {
            let (_, cost) = llf(&links, alpha).unwrap();
            assert!(
                cost <= copt * 4.0 / (3.0 + alpha) + 1e-7,
                "α={alpha}: ratio {}",
                cost / copt
            );
        }
    }
}
