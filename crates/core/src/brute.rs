//! Brute-force optimal Stackelberg strategy — the validation oracle.
//!
//! Computing the optimal strategy is weakly NP-hard in general
//! ([40, Thm 6.1]), but on small systems a dense grid plus pattern-search
//! refinement over the simplex `{s ≥ 0, Σs = αr}` approximates it well
//! enough (≈1e-6 in cost) to validate Theorem 2.4's polynomial algorithm
//! (Experiment E6) and OpTop's minimality (Experiment E7).

use sopt_equilibrium::parallel::ParallelLinks;
use sopt_solver::equalize::EqualizeError;

use crate::llf::llf_strategy;
use crate::scale::scale_strategy;

/// Search configuration.
#[derive(Clone, Copy, Debug)]
pub struct BruteOptions {
    /// Grid resolution per simplex dimension (m ≤ 3 uses exhaustive grids).
    pub grid: usize,
    /// Random restarts for m ≥ 4.
    pub restarts: usize,
    /// Pattern-search refinement sweeps.
    pub refine_sweeps: usize,
    /// Seed for the random restarts.
    pub seed: u64,
}

impl Default for BruteOptions {
    fn default() -> Self {
        Self {
            grid: 200,
            restarts: 64,
            refine_sweeps: 60,
            seed: 0x5eed,
        }
    }
}

/// Exhaustive/pattern search for the best strategy controlling exactly
/// `alpha·r`. Returns `(strategy, induced cost)`.
pub fn brute_force_optimal(
    links: &ParallelLinks,
    alpha: f64,
    opts: &BruteOptions,
) -> Result<(Vec<f64>, f64), EqualizeError> {
    assert!((0.0..=1.0).contains(&alpha), "α must lie in [0, 1]");
    let m = links.m();
    let budget = alpha * links.rate();
    let eval = |s: &[f64]| -> f64 {
        match links.try_induced(s) {
            Ok(ind) => links.cost(&ind.total),
            Err(_) => f64::INFINITY,
        }
    };

    let mut best: Vec<f64> = vec![0.0; m];
    let mut best_cost = f64::INFINITY;
    let consider = |s: Vec<f64>, cost: f64, best: &mut Vec<f64>, best_cost: &mut f64| {
        if cost < *best_cost {
            *best_cost = cost;
            *best = s;
        }
    };

    // Seeds from the known heuristics.
    for s in [
        proportional_nash(links, budget)?,
        llf_strategy(links, alpha)?,
        scale_strategy(links, alpha)?,
    ] {
        let c = eval(&s);
        consider(s, c, &mut best, &mut best_cost);
    }

    if budget > 0.0 {
        match m {
            1 => {
                let s = vec![budget];
                let c = eval(&s);
                consider(s, c, &mut best, &mut best_cost);
            }
            2 => {
                for k in 0..=opts.grid {
                    let x = budget * k as f64 / opts.grid as f64;
                    let s = vec![x, budget - x];
                    let c = eval(&s);
                    consider(s, c, &mut best, &mut best_cost);
                }
            }
            3 => {
                let g = (opts.grid as f64).sqrt().ceil() as usize * 4;
                for i in 0..=g {
                    for j in 0..=(g - i) {
                        let x = budget * i as f64 / g as f64;
                        let y = budget * j as f64 / g as f64;
                        let s = vec![x, y, budget - x - y];
                        let c = eval(&s);
                        consider(s, c, &mut best, &mut best_cost);
                    }
                }
            }
            _ => {
                // Random Dirichlet(1)-ish restarts.
                let mut state = opts.seed | 1;
                let mut next = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 11) as f64 / (1u64 << 53) as f64
                };
                for _ in 0..opts.restarts {
                    let mut s: Vec<f64> = (0..m).map(|_| -next().max(1e-12).ln()).collect();
                    let tot: f64 = s.iter().sum();
                    s.iter_mut().for_each(|x| *x *= budget / tot);
                    let c = eval(&s);
                    consider(s, c, &mut best, &mut best_cost);
                }
            }
        }
    }

    // Pattern-search refinement: transfer δ between coordinate pairs.
    let mut delta = budget / 8.0;
    for _ in 0..opts.refine_sweeps {
        if delta < 1e-12 * budget.max(1.0) {
            break;
        }
        let mut improved = false;
        for i in 0..m {
            for j in 0..m {
                if i == j || best[i] < delta {
                    continue;
                }
                let mut s = best.clone();
                s[i] -= delta;
                s[j] += delta;
                let c = eval(&s);
                if c < best_cost - 1e-15 {
                    best_cost = c;
                    best = s;
                    improved = true;
                }
            }
        }
        if !improved {
            delta *= 0.5;
        }
    }

    Ok((best, best_cost))
}

/// The "useless" seed: a proportional slice of the Nash assignment (induces
/// exactly `C(N)` by Theorem 7.2 — the anchor any useful strategy must beat).
fn proportional_nash(links: &ParallelLinks, budget: f64) -> Result<Vec<f64>, EqualizeError> {
    let n = links.try_nash()?;
    let r = links.rate();
    Ok(n.flows().iter().map(|x| x * budget / r).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::LatencyFn;

    #[test]
    fn pigou_brute_matches_optop_at_beta() {
        let links = ParallelLinks::new(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0);
        let (s, c) = brute_force_optimal(&links, 0.5, &BruteOptions::default()).unwrap();
        assert!((c - 0.75).abs() < 1e-6, "cost {c}");
        assert!((s[1] - 0.5).abs() < 1e-3, "{s:?}");
    }

    #[test]
    fn zero_alpha_is_nash() {
        let links = ParallelLinks::new(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0);
        let (_, c) = brute_force_optimal(&links, 0.0, &BruteOptions::default()).unwrap();
        assert!((c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn matches_linear_optimal_on_two_links() {
        let links = ParallelLinks::new(
            vec![LatencyFn::affine(1.0, 0.0), LatencyFn::affine(1.0, 1.0)],
            1.0,
        );
        for &alpha in &[0.1, 0.2, 0.3] {
            let exact = crate::linear_optimal::linear_optimal_strategy(&links, alpha).unwrap();
            let (_, brute) = brute_force_optimal(&links, alpha, &BruteOptions::default()).unwrap();
            assert!(
                (exact.cost - brute).abs() < 1e-5,
                "α={alpha}: Theorem 2.4 gives {}, brute force {brute}",
                exact.cost
            );
        }
    }

    #[test]
    fn four_links_random_restarts_run() {
        let links = ParallelLinks::new(
            vec![
                LatencyFn::affine(1.0, 0.0),
                LatencyFn::affine(1.0, 0.2),
                LatencyFn::affine(1.0, 0.4),
                LatencyFn::affine(1.0, 0.8),
            ],
            1.0,
        );
        let (s, c) = brute_force_optimal(&links, 0.3, &BruteOptions::default()).unwrap();
        let total: f64 = s.iter().sum();
        assert!((total - 0.3).abs() < 1e-9);
        // Never worse than doing nothing.
        let cn = links.cost(links.try_nash().unwrap().flows());
        assert!(c <= cn + 1e-7);
    }

    #[test]
    fn mm1_capacity_probes_are_safe() {
        // Strategy space touches the M/M/1 capacity; eval must not panic.
        let links = ParallelLinks::new(vec![LatencyFn::mm1(0.6), LatencyFn::affine(1.0, 0.0)], 1.0);
        let (_, c) = brute_force_optimal(&links, 0.9, &BruteOptions::default()).unwrap();
        assert!(c.is_finite());
    }
}
