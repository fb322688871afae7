//! Knapsack-flavoured hard instances, in the spirit of the weak NP-hardness
//! reduction for optimal Stackelberg strategies ([40, Thm 6.1]; see also the
//! multidimensional-knapsack discussion of Kumar–Marathe \[23\] quoted in the
//! paper's §7.3).
//!
//! The reduction's difficulty is *subset selection*: the Leader must decide
//! which links to freeze, and freezing emulates choosing a subset of weights
//! summing to her budget. We realise the flavour with common-slope links
//! whose intercepts encode weights: `ℓ_i(x) = x + b_i` with `b_i` drawn from
//! an integer weight set scaled into a band. On such instances the optimal
//! partition index of Theorem 2.4 shifts with `α`, which is exactly the
//! regime where LLF/SCALE leave measurable gaps (Experiments E6/E8).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sopt_equilibrium::parallel::ParallelLinks;
use sopt_latency::LatencyFn;

/// Build a weight-encoded instance: links `ℓ_i(x) = x + w_i/scale` for the
/// given integer weights, rate `r = 1`.
pub fn weight_instance(weights: &[u32], scale: f64) -> ParallelLinks {
    assert!(!weights.is_empty() && scale > 0.0);
    let lats: Vec<LatencyFn> = weights
        .iter()
        .map(|&w| LatencyFn::affine(1.0, w as f64 / scale))
        .collect();
    ParallelLinks::new(lats, 1.0)
}

/// A random ensemble of weight instances (deterministic in the seed):
/// `m` links with weights in `[1, max_weight]`.
pub fn random_weight_instance(m: usize, max_weight: u32, seed: u64) -> ParallelLinks {
    assert!(m >= 1 && max_weight >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let weights: Vec<u32> = (0..m).map(|_| rng.random_range(1..=max_weight)).collect();
    // Scale so intercepts land in [0, ~2]: keeps several links active.
    weight_instance(&weights, max_weight as f64 / 2.0)
}

/// The canonical two-weight family `w = (1, 1, …, 1, W)`: the Leader's
/// budget decides whether the heavy link is worth freezing.
pub fn heavy_tail_instance(m: usize, heavy: u32) -> ParallelLinks {
    assert!(m >= 2);
    let mut weights = vec![1u32; m - 1];
    weights.push(heavy);
    weight_instance(&weights, heavy as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_core::brute::{brute_force_optimal, BruteOptions};
    use sopt_core::linear_optimal::linear_optimal_strategy;

    #[test]
    fn weight_instances_are_common_slope() {
        let links = random_weight_instance(5, 10, 3);
        // linear_optimal_strategy validates the common-slope form.
        let r = linear_optimal_strategy(&links, 0.3).unwrap();
        assert!(r.cost.is_finite());
        assert!(r.cost <= r.nash_cost + 1e-9);
        assert!(r.cost >= r.optimum_cost - 1e-9);
    }

    #[test]
    fn theorem24_matches_brute_force_on_hard_family() {
        for seed in [1u64, 7, 13] {
            let links = random_weight_instance(3, 8, seed);
            for &alpha in &[0.15, 0.35] {
                let exact = linear_optimal_strategy(&links, alpha).unwrap();
                let (_, brute) =
                    brute_force_optimal(&links, alpha, &BruteOptions::default()).unwrap();
                assert!(
                    exact.cost <= brute + 1e-5,
                    "seed {seed}, α={alpha}: Theorem 2.4 cost {} > brute {brute}",
                    exact.cost
                );
            }
        }
    }

    #[test]
    fn heavy_tail_partition_shifts_with_alpha() {
        let links = heavy_tail_instance(4, 12);
        let lo = linear_optimal_strategy(&links, 0.1).unwrap();
        let hi = linear_optimal_strategy(&links, 0.9).unwrap();
        assert!(hi.cost <= lo.cost + 1e-9, "more control can't hurt");
    }
}
