//! The improvement threshold — footnote 6 of the paper, after
//! Sharma–Williamson \[43\]: the minimum portion a Leader must control to
//! achieve `C(S+T) < C(N)` at all.
//!
//! [43, Eq. (1)]: any strategy inducing cost `< C(N)` must control at least
//! `min { n_i : n_i < o_i }` — the smallest Nash load among under-loaded
//! links. Below that, every strategy is useless in the sense of
//! Theorem 7.2. Experiment E13 compares this bound to the empirical
//! threshold found by the Theorem 2.4 exact strategy.

use sopt_equilibrium::classify::underloaded_indices;
use sopt_equilibrium::parallel::ParallelLinks;
use sopt_solver::equalize::EqualizeError;

/// The Sharma–Williamson lower bound on the improvement threshold (as a
/// portion of `r`): `min{ n_i : n_i < o_i } / r`. When Nash is already
/// optimal there is no under-loaded link and nothing can be improved: the
/// bound degenerates to `1` (consistent with
/// [`empirical_improvement_threshold`]).
pub fn improvement_threshold_lower_bound(links: &ParallelLinks) -> Result<f64, EqualizeError> {
    let nash = links.try_nash()?;
    let opt = links.try_optimum()?;
    let tol = 1e-9 * links.rate().max(1.0);
    let under = underloaded_indices(nash.flows(), opt.flows(), tol);
    Ok(under
        .iter()
        .map(|&i| nash.flows()[i])
        .fold(f64::INFINITY, f64::min)
        .min(links.rate())
        .max(0.0)
        / links.rate())
}

/// Empirical improvement threshold: the smallest `α` in a bisected `[0,1]`
/// for which `best_cost(links, α) < C(N) − tol·C(N)`. `best_cost` is any
/// strategy oracle (Theorem 2.4's exact algorithm, brute force, …).
/// Returns `1.0` when no sampled α improves.
pub fn empirical_improvement_threshold(
    links: &ParallelLinks,
    best_cost: impl Fn(&ParallelLinks, f64) -> f64,
    rel_tol: f64,
) -> Result<f64, EqualizeError> {
    let cn = links.cost(links.try_nash()?.flows());
    let improves = |alpha: f64| best_cost(links, alpha) < cn * (1.0 - rel_tol);
    if improves(0.0) {
        return Ok(0.0);
    }
    if !improves(1.0) {
        return Ok(1.0);
    }
    Ok(sopt_solver::roots::bisect_predicate(0.0, 1.0, improves))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear_optimal::linear_optimal_strategy;
    use sopt_latency::LatencyFn;

    #[test]
    fn pigou_threshold_is_zero() {
        // Under-loaded slow link has Nash load 0: any α > 0 helps.
        let links = ParallelLinks::new(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0);
        assert!(improvement_threshold_lower_bound(&links).unwrap() < 1e-12);
    }

    #[test]
    fn positive_threshold_instance() {
        // Common slope, close intercepts: the under-loaded link carries
        // positive Nash flow, so the bound is strictly positive.
        let links = ParallelLinks::new(
            vec![LatencyFn::affine(1.0, 0.0), LatencyFn::affine(1.0, 0.2)],
            1.0,
        );
        let lb = improvement_threshold_lower_bound(&links).unwrap();
        assert!(lb > 0.0, "lb = {lb}");
        // Nash: x1 − x2 = 0.2, sum 1 ⇒ n = (0.6, 0.4); O: (0.55, 0.45).
        assert!((lb - 0.4).abs() < 1e-7, "lb = {lb}");
    }

    #[test]
    fn optimal_nash_degenerates_to_one() {
        let links = ParallelLinks::new(vec![LatencyFn::identity(); 3], 1.0);
        let lb = improvement_threshold_lower_bound(&links).unwrap();
        assert_eq!(lb, 1.0);
    }

    #[test]
    fn empirical_respects_lower_bound() {
        let links = ParallelLinks::new(
            vec![LatencyFn::affine(1.0, 0.0), LatencyFn::affine(1.0, 0.2)],
            1.0,
        );
        let lb = improvement_threshold_lower_bound(&links).unwrap();
        let emp = empirical_improvement_threshold(
            &links,
            |l, a| linear_optimal_strategy(l, a).unwrap().cost,
            1e-9,
        )
        .unwrap();
        assert!(
            emp >= lb - 1e-6,
            "empirical threshold {emp} below the Sharma–Williamson bound {lb}"
        );
        assert!(emp < 1.0, "some α must improve this instance");
    }

    #[test]
    fn empirical_one_when_nash_optimal() {
        let links = ParallelLinks::new(vec![LatencyFn::identity(); 2], 1.0);
        let emp = empirical_improvement_threshold(
            &links,
            |l, a| linear_optimal_strategy(l, a).unwrap().cost,
            1e-9,
        )
        .unwrap();
        assert_eq!(emp, 1.0);
    }
}
