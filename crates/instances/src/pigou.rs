//! Pigou's example (paper Figs. 1–3): the smallest instance exhibiting the
//! worst-case linear price of anarchy `4/3` and a price of optimum `1/2`.

use sopt_equilibrium::parallel::ParallelLinks;
use sopt_latency::LatencyFn;

/// `ℓ₁(x) = x`, `ℓ₂(x) ≡ 1`, `r = 1`.
pub fn pigou_links() -> ParallelLinks {
    ParallelLinks::new(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0)
}

/// Closed-form ground truth for [`pigou_links`].
#[derive(Clone, Copy, Debug)]
pub struct PigouExpected {
    /// Nash assignment `N = ⟨1, 0⟩` (Fig. 1-down).
    pub nash: [f64; 2],
    /// Optimum `O = ⟨1/2, 1/2⟩` (Fig. 1-up).
    pub optimum: [f64; 2],
    /// `C(N) = 1`.
    pub nash_cost: f64,
    /// `C(O) = 3/4`.
    pub optimum_cost: f64,
    /// Worst-case anarchy value `4/3`.
    pub coordination_ratio: f64,
    /// The price of optimum `β = 1/2` with strategy `S = ⟨0, 1/2⟩` (Fig. 2).
    pub beta: f64,
    /// The optimal Leader strategy.
    pub strategy: [f64; 2],
}

/// The paper's numbers for Pigou's example.
pub fn pigou_expected() -> PigouExpected {
    PigouExpected {
        nash: [1.0, 0.0],
        optimum: [0.5, 0.5],
        nash_cost: 1.0,
        optimum_cost: 0.75,
        coordination_ratio: 4.0 / 3.0,
        beta: 0.5,
        strategy: [0.0, 0.5],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_truth_reproduced() {
        let links = pigou_links();
        let e = pigou_expected();
        let n = links.try_nash().unwrap();
        let o = links.try_optimum().unwrap();
        for i in 0..2 {
            assert!((n.flows()[i] - e.nash[i]).abs() < 1e-9);
            assert!((o.flows()[i] - e.optimum[i]).abs() < 1e-9);
        }
        assert!((links.cost(n.flows()) - e.nash_cost).abs() < 1e-9);
        assert!((links.cost(o.flows()) - e.optimum_cost).abs() < 1e-9);
        assert!((links.try_induced_cost(&e.strategy).unwrap() - e.optimum_cost).abs() < 1e-9);
    }
}
