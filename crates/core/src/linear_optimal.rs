//! Theorem 2.4: the *optimal* Stackelberg strategy in polynomial time on
//! hard instances `(M, r, α < β_M)` with common-slope linear latencies
//! `ℓ_i(x) = a·x + b_i`.
//!
//! By Lemma 6.1 (the swap argument of Figs. 8–10), some optimal strategy
//! partitions the `b`-sorted links around an index `i₀` into
//!
//! * `M>0(i₀) = {M_1, …, M_{i₀}}` — links the Followers find appealing: they
//!   end up carrying the Nash assignment of `(1−α)r + ε` (the Leader hides
//!   `ε` of her own flow there, mimicking followers);
//! * `M=0(i₀) = {M_{i₀+1}, …, M_m}` — links the Followers dislike: the
//!   Leader freezes them with the *optimal* assignment of `αr − ε`.
//!
//! Feasibility (§6.1): every link of `M>0` must be loaded, and the common
//! Nash latency of `M>0` must not exceed the latency of any link of `M=0` —
//! otherwise followers would defect and destroy the split. Within the
//! feasible `ε`-interval the two partial costs are convex (piecewise
//! quadratic), so golden-section search finds `ε*`; scanning the `≤ m−1`
//! partitions yields the optimum. Experiment E6 validates against brute
//! force.

use sopt_equilibrium::parallel::ParallelLinks;
use sopt_latency::{Latency, LatencyFn};
use sopt_solver::equalize::{equalize, EqualizeError};
use sopt_solver::objective::CostModel;
use sopt_solver::roots::{bisect_predicate, golden_min};

use crate::optop::try_optop;

/// How the optimal strategy was realised.
#[derive(Clone, Debug, PartialEq)]
pub enum SolutionKind {
    /// `α ≥ β_M`: the OpTop strategy (padded with mimicking flow) enforces
    /// the optimum outright.
    EnforcedOptimum,
    /// The Theorem 2.4 partition `(i₀, ε)` (indices into the `b`-sorted
    /// order; `i₀` = size of `M>0`).
    Partition {
        /// Number of links in `M>0` (sorted order).
        i0: usize,
        /// The Leader flow hidden inside `M>0`.
        epsilon: f64,
    },
    /// No useful strategy: play ≤ Nash loads everywhere, inducing `C(N)`
    /// (Theorem 7.2).
    Aloof,
}

/// Output of [`linear_optimal_strategy`].
#[derive(Clone, Debug)]
pub struct LinearOptimalResult {
    /// The optimal induced cost `C(S+T)`.
    pub cost: f64,
    /// The optimal strategy (original link indexing), totalling `α·r`.
    pub strategy: Vec<f64>,
    /// How it was found.
    pub kind: SolutionKind,
    /// `β_M` of the instance (for context).
    pub beta: f64,
    /// `C(O)` and `C(N)` anchors.
    pub optimum_cost: f64,
    /// Nash cost without a Leader.
    pub nash_cost: f64,
}

/// Relative tolerance for slope equality and feasibility checks.
const TOL: f64 = 1e-9;

/// Extract `(a, b_i)` verifying the common-slope linear form.
fn common_slope(links: &ParallelLinks) -> (f64, Vec<f64>) {
    let mut slope = None;
    let mut bs = Vec::with_capacity(links.m());
    for l in links.latencies() {
        match l {
            LatencyFn::Affine(aff) => {
                let a = aff.a;
                match slope {
                    None => slope = Some(a),
                    Some(prev) => assert!(
                        (prev - a).abs() <= TOL * prev.abs().max(1.0),
                        "Theorem 2.4 requires a common slope: {prev} vs {a}"
                    ),
                }
                bs.push(aff.b);
            }
            other => panic!("Theorem 2.4 requires affine latencies, got {other:?}"),
        }
    }
    let a = slope.expect("at least one link");
    assert!(a > 0.0, "Theorem 2.4 requires a strictly positive slope");
    (a, bs)
}

/// Compute the optimal Stackelberg strategy for `(M, r, α)` with
/// `ℓ_i = a·x + b_i`. Polynomial time for every `α ∈ [0, 1]`
/// (Theorem 2.4 for `α < β_M`, Corollary 2.2 otherwise).
pub fn linear_optimal_strategy(
    links: &ParallelLinks,
    alpha: f64,
) -> Result<LinearOptimalResult, EqualizeError> {
    assert!((0.0..=1.0).contains(&alpha), "α must lie in [0, 1]");
    let (_a, bs) = common_slope(links);
    let m = links.m();
    let r = links.rate();
    let budget = alpha * r;

    let ot = try_optop(links)?;
    let nash = links.try_nash()?;
    let nash_flows = nash.flows().to_vec();
    let nash_cost = ot.nash_cost;

    // Easy side: α ≥ β_M enforces the optimum (Corollary 2.2). Pad the
    // OpTop strategy with mimicking flow so the Leader routes exactly αr.
    if budget >= ot.beta * r - TOL * r.max(1.0) {
        let strategy = pad_with_mimicking(&ot.strategy, &ot.optimum, budget);
        let cost = links.try_induced_cost(&strategy)?;
        return Ok(LinearOptimalResult {
            cost,
            strategy,
            kind: SolutionKind::EnforcedOptimum,
            beta: ot.beta,
            optimum_cost: ot.optimum_cost,
            nash_cost,
        });
    }

    // Hard side: scan partitions of the b-sorted links.
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&i, &j| bs[i].total_cmp(&bs[j]).then(i.cmp(&j)));

    // Baseline candidate: the useless strategy (Theorem 7.2) inducing C(N).
    // Mimic followers proportionally so s_j ≤ n_j and Σs = αr.
    let mut best_cost = nash_cost;
    let mut best_strategy: Vec<f64> = nash_flows.iter().map(|n| n * budget / r).collect();
    let mut best_kind = SolutionKind::Aloof;

    for i0 in 1..m {
        let prefix: Vec<usize> = order[..i0].to_vec();
        let suffix: Vec<usize> = order[i0..].to_vec();
        let prefix_lats: Vec<LatencyFn> = prefix
            .iter()
            .map(|&g| links.latencies()[g].clone())
            .collect();
        let suffix_lats: Vec<LatencyFn> = suffix
            .iter()
            .map(|&g| links.latencies()[g].clone())
            .collect();

        // Partial states as functions of ε.
        let state = |eps: f64| -> Option<(Vec<f64>, f64, Vec<f64>)> {
            let f_prefix = (1.0 - alpha) * r + eps;
            let g_suffix = budget - eps;
            let nash_p = equalize(&prefix_lats, f_prefix, CostModel::Wardrop).ok()?;
            let opt_s = equalize(&suffix_lats, g_suffix, CostModel::SystemOptimum).ok()?;
            Some((nash_p.flows, nash_p.level, opt_s.flows))
        };
        let feasible = |eps: f64| -> bool {
            let Some((pflows, plevel, sflows)) = state(eps) else {
                return false;
            };
            // (i) every prefix link loaded;
            if pflows.iter().any(|&x| x <= TOL * r.max(1.0)) {
                return false;
            }
            // (ii) prefix common latency ≤ every suffix latency.
            let min_suffix = suffix_lats
                .iter()
                .zip(&sflows)
                .map(|(l, &x)| l.value(x))
                .fold(f64::INFINITY, f64::min);
            plevel <= min_suffix + TOL * plevel.abs().max(1.0)
        };

        // The feasible ε-set is an interval: (i) relaxes as ε grows,
        // (ii) tightens. Locate its endpoints.
        let (eps_lo, eps_hi) = match (feasible(0.0), feasible(budget)) {
            (true, true) => (0.0, budget),
            (false, false) => continue,
            (false, true) => (bisect_predicate(0.0, budget, feasible), budget),
            (true, false) => {
                // find the last feasible point: predicate "infeasible" is
                // monotone true going up.
                let first_bad = bisect_predicate(0.0, budget, |e| !feasible(e));
                (0.0, (first_bad - 1e-12 * budget.max(1.0)).max(0.0))
            }
        };
        if eps_lo > eps_hi || !feasible(eps_lo) {
            continue;
        }

        let cost_at = |eps: f64| -> f64 {
            match state(eps) {
                Some((pflows, _, sflows)) => {
                    let cp: f64 = prefix_lats
                        .iter()
                        .zip(&pflows)
                        .map(|(l, &x)| x * l.value(x))
                        .sum();
                    let cs: f64 = suffix_lats
                        .iter()
                        .zip(&sflows)
                        .map(|(l, &x)| x * l.value(x))
                        .sum();
                    cp + cs
                }
                None => f64::INFINITY,
            }
        };
        let (eps_star, cost_star) = golden_min(eps_lo, eps_hi, 1e-13 * budget.max(1.0), cost_at);

        if cost_star < best_cost - 1e-12 * best_cost.abs().max(1.0) {
            // Materialise the strategy: optimal loads on the suffix, a
            // proportional slice of the prefix Nash (≤ n_j, hence invisible
            // to followers by Theorem 7.2's mechanics).
            let (pflows, _, sflows) = state(eps_star).expect("feasible ε");
            let f_prefix = (1.0 - alpha) * r + eps_star;
            let mut strategy = vec![0.0; m];
            for (k, &g) in prefix.iter().enumerate() {
                strategy[g] = pflows[k] * eps_star / f_prefix;
            }
            for (k, &g) in suffix.iter().enumerate() {
                strategy[g] = sflows[k];
            }
            best_cost = cost_star;
            best_strategy = strategy;
            best_kind = SolutionKind::Partition {
                i0,
                epsilon: eps_star,
            };
        }
    }

    Ok(LinearOptimalResult {
        cost: best_cost,
        strategy: best_strategy,
        kind: best_kind,
        beta: ot.beta,
        optimum_cost: ot.optimum_cost,
        nash_cost,
    })
}

/// Extend the OpTop strategy to route exactly `budget` by adding flow that
/// mimics the followers on the unfrozen links (scaled remaining optimum),
/// leaving the induced outcome at `O`.
fn pad_with_mimicking(optop_strategy: &[f64], optimum: &[f64], budget: f64) -> Vec<f64> {
    let used: f64 = optop_strategy.iter().sum();
    let surplus = (budget - used).max(0.0);
    let remaining: Vec<f64> = optimum
        .iter()
        .zip(optop_strategy)
        .map(|(o, s)| (o - s).max(0.0))
        .collect();
    let total_remaining: f64 = remaining.iter().sum();
    if surplus <= 0.0 || total_remaining <= 0.0 {
        return optop_strategy.to_vec();
    }
    optop_strategy
        .iter()
        .zip(&remaining)
        .map(|(s, rem)| s + surplus * rem / total_remaining)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_links() -> ParallelLinks {
        // ℓ1 = x, ℓ2 = x + 1, r = 1: O = (3/4, 1/4)? marginals 2x = 2x+1 ⇒
        // o1 = (r + 1/2)/2 … compute: equal marginals μ: x1 = μ/2, x2 = (μ−1)/2
        // (if μ ≥ 1). Sum 1 ⇒ μ = 3/2: O = (3/4, 1/4). Nash: x = x+1 never;
        // level 1 at x1 = 1 exactly ⇒ N = (1, 0).
        ParallelLinks::new(
            vec![LatencyFn::affine(1.0, 0.0), LatencyFn::affine(1.0, 1.0)],
            1.0,
        )
    }

    #[test]
    fn beta_and_easy_side() {
        let links = two_links();
        let r = linear_optimal_strategy(&links, 0.5).unwrap();
        // β = o2 = 1/4 (only link 2 under-loaded).
        assert!((r.beta - 0.25).abs() < 1e-9, "β = {}", r.beta);
        assert_eq!(r.kind, SolutionKind::EnforcedOptimum);
        assert!((r.cost - r.optimum_cost).abs() < 1e-8);
        // The strategy routes exactly αr.
        let total: f64 = r.strategy.iter().sum();
        assert!((total - 0.5).abs() < 1e-9);
    }

    #[test]
    fn hard_side_beats_or_matches_aloof() {
        let links = two_links();
        for &alpha in &[0.05, 0.1, 0.2] {
            let r = linear_optimal_strategy(&links, alpha).unwrap();
            assert!(r.cost <= r.nash_cost + 1e-9, "α={alpha}");
            assert!(r.cost >= r.optimum_cost - 1e-9, "α={alpha}");
            let total: f64 = r.strategy.iter().sum();
            assert!((total - alpha).abs() < 1e-7, "α={alpha}: Σs = {total}");
            // Consistency: evaluating the strategy reproduces the cost.
            let eval = links.try_induced_cost(&r.strategy).unwrap();
            assert!(
                (eval - r.cost).abs() < 1e-6,
                "α={alpha}: predicted {} vs induced {eval}",
                r.cost
            );
        }
    }

    #[test]
    fn cost_is_monotone_in_alpha() {
        let links = ParallelLinks::new(
            vec![
                LatencyFn::affine(2.0, 0.0),
                LatencyFn::affine(2.0, 0.5),
                LatencyFn::affine(2.0, 1.2),
            ],
            1.0,
        );
        let mut prev = f64::INFINITY;
        for k in 0..=10 {
            let alpha = k as f64 / 10.0;
            let r = linear_optimal_strategy(&links, alpha).unwrap();
            assert!(r.cost <= prev + 1e-7, "α={alpha}: {} > {prev}", r.cost);
            prev = r.cost;
        }
    }

    #[test]
    fn alpha_beta_exactly_enforces_optimum() {
        let links = two_links();
        let beta = try_optop(&links).unwrap().beta;
        let r = linear_optimal_strategy(&links, beta).unwrap();
        assert!((r.cost - r.optimum_cost).abs() < 1e-7);
    }

    #[test]
    fn just_below_beta_strictly_misses_optimum() {
        let links = two_links();
        let beta = try_optop(&links).unwrap().beta;
        let r = linear_optimal_strategy(&links, beta * 0.8).unwrap();
        assert!(
            r.cost > r.optimum_cost + 1e-9,
            "cost {} vs C(O) {}",
            r.cost,
            r.optimum_cost
        );
    }

    #[test]
    #[should_panic(expected = "common slope")]
    fn rejects_mixed_slopes() {
        let links = ParallelLinks::new(
            vec![LatencyFn::affine(1.0, 0.0), LatencyFn::affine(2.0, 0.0)],
            1.0,
        );
        let _ = linear_optimal_strategy(&links, 0.5).unwrap();
    }

    #[test]
    #[should_panic(expected = "affine")]
    fn rejects_nonlinear() {
        let links = ParallelLinks::new(
            vec![LatencyFn::monomial(1.0, 2), LatencyFn::affine(1.0, 0.0)],
            1.0,
        );
        let _ = linear_optimal_strategy(&links, 0.5).unwrap();
    }
}
