//! The hard side `α < β_M`: Theorem 2.4's polynomial-time optimal strategy
//! on knapsack-flavoured common-slope instances, validated against brute
//! force.
//!
//! ```text
//! cargo run --example hard_instances [--release]
//! ```
//!
//! Computing the optimal Stackelberg strategy is weakly NP-hard in general
//! ([40, Thm 6.1]); the paper squeezes efficiency out of the common-slope
//! linear class. This example shows the partition structure (i₀, ε) moving
//! with α and the exact match with exhaustive search.

use stackopt::core::brute::{brute_force_optimal, BruteOptions};
use stackopt::core::linear_optimal::{linear_optimal_strategy, SolutionKind};
use stackopt::core::threshold::improvement_threshold_lower_bound;
use stackopt::instances::hard::{heavy_tail_instance, random_weight_instance};
use stackopt::prelude::*;

fn main() -> Result<(), SoptError> {
    let links = heavy_tail_instance(4, 12);
    // The headline numbers through the session API (the Theorem 2.4 sweep
    // below stays on the algorithm surface — it needs the partition trace).
    let report = Scenario::from(links.clone())
        .solve()
        .task(Task::Beta)
        .run()?;
    let ot = report.data.as_beta().unwrap();
    println!("heavy-tail instance: ℓ_i(x) = x + b_i, b = (1/12, 1/12, 1/12, 1)");
    println!(
        "β_M = {:.4}, C(N) = {:.4}, C(O) = {:.4}, improvement threshold ≥ {:.4}\n",
        ot.beta,
        ot.nash_cost,
        ot.optimum_cost,
        improvement_threshold_lower_bound(&links)?
    );

    println!(
        "{:>6} {:>22} {:>12} {:>12} {:>10}",
        "α", "solution", "Thm 2.4 cost", "brute cost", "ratio/C(O)"
    );
    for i in 0..=10 {
        let alpha = i as f64 / 10.0;
        let exact = linear_optimal_strategy(&links, alpha)?;
        let (_, brute) = brute_force_optimal(&links, alpha, &BruteOptions::default())?;
        let kind = match exact.kind {
            SolutionKind::EnforcedOptimum => "optimum enforced".to_string(),
            SolutionKind::Partition { i0, epsilon } => {
                format!("partition i₀={i0}, ε={epsilon:.3}")
            }
            SolutionKind::Aloof => "useless (C(N))".to_string(),
        };
        println!(
            "{alpha:>6.2} {kind:>22} {:>12.6} {brute:>12.6} {:>10.4}",
            exact.cost,
            exact.cost / exact.optimum_cost
        );
    }

    println!("\n== Random weight ensemble: Theorem 2.4 vs brute force ==");
    let mut worst_gap = 0.0f64;
    for seed in 0..10u64 {
        let links = random_weight_instance(3, 10, seed);
        for &alpha in &[0.1, 0.25, 0.4] {
            let exact = linear_optimal_strategy(&links, alpha)?;
            let (_, brute) = brute_force_optimal(&links, alpha, &BruteOptions::default())?;
            worst_gap = worst_gap.max(exact.cost - brute);
        }
    }
    println!("worst (Thm 2.4 − brute) cost gap over 30 points: {worst_gap:.2e}");
    println!("(≤ 0 up to search resolution: the polynomial algorithm is optimal)");
    Ok(())
}
