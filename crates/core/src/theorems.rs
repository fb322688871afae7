//! Executable forms of the paper's structure theorems (§6–§7).
//!
//! Each theorem becomes a checkable function returning the worst violation
//! magnitude — property tests and Experiment E12 drive them over random
//! instances and assert zero violations.

use sopt_equilibrium::parallel::ParallelLinks;
use sopt_latency::LatencyFn;
use sopt_solver::equalize::EqualizeError;

/// Proposition 7.1 (monotonicity): if `r' ≤ r` then `n'_i ≤ n_i` for every
/// link. Returns the largest `n'_i − n_i` (≤ 0 up to solver tolerance when
/// the proposition holds).
pub fn monotonicity_violation(
    latencies: &[LatencyFn],
    r_small: f64,
    r_large: f64,
) -> Result<f64, EqualizeError> {
    assert!(r_small <= r_large, "call with r_small ≤ r_large");
    let small = ParallelLinks::new(latencies.to_vec(), r_small.max(1e-300)).try_nash()?;
    let large = ParallelLinks::new(latencies.to_vec(), r_large).try_nash()?;
    Ok(small
        .flows()
        .iter()
        .zip(large.flows())
        .map(|(np, n)| np - n)
        .fold(f64::NEG_INFINITY, f64::max))
}

/// Theorem 7.2 (useless strategies): if `s_j ≤ n_j` for every link then the
/// induced play coincides with the original Nash: `S + T ≡ N`. Returns the
/// largest `|s_j + t_j − n_j|`. Panics if the premise `s ≤ n` is violated.
pub fn useless_strategy_deviation(
    links: &ParallelLinks,
    strategy: &[f64],
) -> Result<f64, EqualizeError> {
    let nash = links.try_nash()?;
    for (j, (&s, &n)) in strategy.iter().zip(nash.flows()).enumerate() {
        assert!(
            s <= n + 1e-9 * links.rate().max(1.0),
            "Theorem 7.2 premise violated on link {j}: s = {s} > n = {n}"
        );
    }
    let ind = links.try_induced(strategy)?;
    Ok(ind
        .total
        .iter()
        .zip(nash.flows())
        .map(|(t, n)| (t - n).abs())
        .fold(0.0, f64::max))
}

/// Theorems 7.4 / Lemma 7.5 (frozen links): every link with `s_j ≥ n_j`
/// receives no induced selfish flow. Returns the largest induced flow `t_j`
/// over frozen links (0 up to tolerance when the theorems hold).
pub fn frozen_induced_flow(links: &ParallelLinks, strategy: &[f64]) -> Result<f64, EqualizeError> {
    let nash = links.try_nash()?;
    let ind = links.try_induced(strategy)?;
    let tol = 1e-9 * links.rate().max(1.0);
    Ok(strategy
        .iter()
        .zip(nash.flows())
        .zip(&ind.follower)
        .filter(|((s, n), _)| **s >= **n - tol)
        .map(|(_, t)| *t)
        .fold(0.0, f64::max))
}

/// Outcome of the Lemma 6.1 swap (Figs. 8–10).
#[derive(Clone, Copy, Debug)]
pub struct SwapOutcome {
    /// Partial cost before the interchange (`A` in Eq. (3)).
    pub before: f64,
    /// Partial cost after interchange + ε-slide (`A + ε(ℓ₂−ℓ₁)`).
    pub after: f64,
    /// The slide amount `ε = (b₂−b₁)/a`.
    pub epsilon: f64,
    /// New loads `(load₁, load₂)` after the rearrangement.
    pub new_loads: (f64, f64),
}

/// Lemma 6.1's two-link rearrangement: links `ℓ_i = a·x + b_i` with
/// `b₁ ≤ b₂`; link 1 (out-of-order member of `M=0`) carries Leader load
/// `s₁` with `ℓ₁(s₁) ≥ ℓ₂(load₂)`; link 2 (member of `M>0`) carries
/// `load₂ = s₂ + t₂`. Interchanging the loads and sliding `ε = (b₂−b₁)/a`
/// back restores the latency pattern at cost `≤` the original (Fig. 10).
pub fn swap_reassignment(a: f64, b1: f64, b2: f64, s1: f64, load2: f64) -> SwapOutcome {
    assert!(a > 0.0, "common positive slope required");
    assert!(b1 <= b2, "call with b₁ ≤ b₂ (link 1 is the faster link)");
    let l1 = a * s1 + b1;
    let l2 = a * load2 + b2;
    assert!(
        l1 >= l2 - 1e-12 * l1.abs().max(1.0),
        "Lemma 6.1 premise: ℓ₁(s₁) = {l1} must be ≥ ℓ₂(load₂) = {l2}"
    );
    let before = s1 * l1 + load2 * l2;
    let epsilon = (b2 - b1) / a;
    // After interchange + slide: link 1 carries load₂ + ε at latency ℓ₂,
    // link 2 carries s₁ − ε at latency ℓ₁.
    let new1 = load2 + epsilon;
    let new2 = s1 - epsilon;
    debug_assert!(new2 >= -1e-12, "slide cannot exceed the moved load");
    let after = new1 * (a * new1 + b1) + new2 * (a * new2 + b2);
    SwapOutcome {
        before,
        after,
        epsilon,
        new_loads: (new1, new2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_links() -> Vec<LatencyFn> {
        vec![
            LatencyFn::affine(1.0, 0.0),
            LatencyFn::affine(1.5, 0.0),
            LatencyFn::affine(2.5, 1.0 / 6.0),
            LatencyFn::constant(0.7),
        ]
    }

    #[test]
    fn monotonicity_on_fig4_family() {
        let lats = sample_links();
        for &(rs, rl) in &[(0.1, 0.5), (0.5, 1.0), (1.0, 3.0), (0.0, 0.2)] {
            let v = monotonicity_violation(&lats, rs, rl).unwrap();
            assert!(v <= 1e-7, "r'={rs}, r={rl}: violation {v}");
        }
    }

    #[test]
    fn useless_strategies_change_nothing() {
        let links = ParallelLinks::new(sample_links(), 1.0);
        let n = links.try_nash().unwrap().flows().to_vec();
        // Half the Nash loads: clearly s ≤ n.
        let s: Vec<f64> = n.iter().map(|x| x * 0.5).collect();
        assert!(useless_strategy_deviation(&links, &s).unwrap() < 1e-7);
        // The zero strategy too.
        assert!(useless_strategy_deviation(&links, &[0.0; 4]).unwrap() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "premise violated")]
    fn useless_checker_rejects_bad_premise() {
        let links = ParallelLinks::new(sample_links(), 1.0);
        let mut s = vec![0.0; 4];
        s[3] = 0.5; // constant link has n₄ = 0 < 0.5
        let _ = useless_strategy_deviation(&links, &s).unwrap();
    }

    #[test]
    fn frozen_links_receive_nothing() {
        let links = ParallelLinks::new(sample_links(), 1.0);
        let n = links.try_nash().unwrap().flows().to_vec();
        // Freeze links 2 and 3 above their Nash loads; leave 0 and 1 alone.
        let mut s = vec![0.0; 4];
        s[2] = n[2] + 0.05;
        s[3] = 0.1; // n₃ = 0: any load freezes it
        let t_max = frozen_induced_flow(&links, &s).unwrap();
        assert!(t_max < 1e-7, "frozen links got induced flow {t_max}");
    }

    #[test]
    fn swap_never_increases_cost() {
        // The Fig. 8–10 numbers are generic; spot-check a family.
        for &(a, b1, b2) in &[(1.0, 0.0, 1.0), (2.0, 0.3, 0.9), (0.5, 0.0, 0.2)] {
            for &(load2, extra) in &[(0.2, 1.0), (0.5, 0.5), (1.0, 2.0)] {
                // Choose s1 so the premise ℓ1(s1) ≥ ℓ2(load2) holds.
                let s1 = (a * load2 + b2 - b1) / a + extra;
                let out = swap_reassignment(a, b1, b2, s1, load2);
                assert!(
                    out.after <= out.before + 1e-12 * out.before.abs().max(1.0),
                    "a={a}, b=({b1},{b2}): {} > {}",
                    out.after,
                    out.before
                );
                assert!(out.epsilon >= 0.0);
                assert!(out.new_loads.1 >= -1e-12);
            }
        }
    }

    #[test]
    fn swap_identity_when_intercepts_equal() {
        let out = swap_reassignment(1.0, 0.5, 0.5, 1.0, 0.3);
        assert!((out.epsilon - 0.0).abs() < 1e-12);
        // Pure interchange of equal-latency-function links: cost unchanged.
        assert!((out.after - out.before).abs() < 1e-12);
    }
}
