//! The paper's Figs. 4–6 walkthrough instance: five parallel links on which
//! OpTop freezes `{M₄, M₅}` in one round and terminates.

use sopt_equilibrium::parallel::ParallelLinks;
use sopt_latency::LatencyFn;

/// Fig. 4: `ℓ₁ = x`, `ℓ₂ = 3x/2`, `ℓ₃ = 2x`, `ℓ₄ = 5x/2 + 1/6`,
/// `ℓ₅ ≡ 7/10`, `r = 1`.
pub fn fig4_links() -> ParallelLinks {
    ParallelLinks::new(
        vec![
            LatencyFn::affine(1.0, 0.0),
            LatencyFn::affine(1.5, 0.0),
            LatencyFn::affine(2.0, 0.0),
            LatencyFn::affine(2.5, 1.0 / 6.0),
            LatencyFn::constant(0.7),
        ],
        1.0,
    )
}

/// Closed-form ground truth for [`fig4_links`], derived by hand:
///
/// * Nash: common latency `L` with `L(1 + 2/3 + 1/2 + 2/5) − 1/15 = 1`
///   ⇒ `L = 32/77 < 0.7` (constant link empty);
/// * Optimum: marginal level `μ = 0.7` (the constant absorbs the residual),
///   `O = (0.35, 7/30, 0.175, 8/75, 0.135)`;
/// * Under-loaded = `{M₄, M₅}` (Fig. 4), frozen at `o₄, o₅` (Fig. 5);
/// * remaining flow `1 − o₄ − o₅` Nash-routes to the optimum on `{M₁,M₂,M₃}`
///   (Fig. 6), so `β = o₄ + o₅ = 8/75 + 27/200 = 0.2416…`.
#[derive(Clone, Copy, Debug)]
pub struct Fig4Expected {
    /// Initial Nash common latency `32/77`.
    pub nash_level: f64,
    /// Initial Nash assignment.
    pub nash: [f64; 5],
    /// Global optimum assignment.
    pub optimum: [f64; 5],
    /// Indices OpTop freezes in round 1 (0-based: `{3, 4}`).
    pub frozen_round1: [usize; 2],
    /// `β_M = o₄ + o₅`.
    pub beta: f64,
}

/// The expected values of the Figs. 4–6 walkthrough.
pub fn fig4_expected() -> Fig4Expected {
    let l = 32.0 / 77.0;
    Fig4Expected {
        nash_level: l,
        nash: [l, l / 1.5, l / 2.0, (l - 1.0 / 6.0) / 2.5, 0.0],
        optimum: [0.35, 7.0 / 30.0, 0.175, 8.0 / 75.0, 0.135],
        frozen_round1: [3, 4],
        beta: 8.0 / 75.0 + 0.135,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_reproduced() {
        let links = fig4_links();
        let e = fig4_expected();
        let n = links.try_nash().unwrap();
        assert!((n.level() - e.nash_level).abs() < 1e-9);
        for i in 0..5 {
            assert!((n.flows()[i] - e.nash[i]).abs() < 1e-9, "nash link {i}");
        }
        let o = links.try_optimum().unwrap();
        for i in 0..5 {
            assert!(
                (o.flows()[i] - e.optimum[i]).abs() < 1e-9,
                "optimum link {i}"
            );
        }
    }

    #[test]
    fn flows_sum_to_rate() {
        let e = fig4_expected();
        let sn: f64 = e.nash.iter().sum();
        let so: f64 = e.optimum.iter().sum();
        assert!((sn - 1.0).abs() < 1e-12);
        assert!((so - 1.0).abs() < 1e-12);
    }
}
