//! **Aloof** — the degenerate Leader that controls nothing. The induced
//! equilibrium is the plain Nash assignment `N`; every comparison plot
//! anchors at this baseline (`α = 0`, cost `C(N)`).

use sopt_equilibrium::parallel::ParallelLinks;
use sopt_solver::equalize::EqualizeError;

/// The all-zeros strategy.
pub fn aloof_strategy(m: usize) -> Vec<f64> {
    vec![0.0; m]
}

/// Evaluate Aloof: `(strategy, C(N))`.
pub fn aloof(links: &ParallelLinks) -> Result<(Vec<f64>, f64), EqualizeError> {
    let s = aloof_strategy(links.m());
    let c = links.try_induced_cost(&s)?;
    Ok((s, c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::LatencyFn;

    #[test]
    fn aloof_cost_is_nash_cost() {
        let links = ParallelLinks::new(
            vec![
                LatencyFn::affine(1.0, 0.0),
                LatencyFn::mm1(3.0),
                LatencyFn::constant(0.9),
            ],
            1.5,
        );
        let (s, c) = aloof(&links).unwrap();
        assert!(s.iter().all(|x| *x == 0.0));
        let cn = links.cost(links.try_nash().unwrap().flows());
        assert!((c - cn).abs() < 1e-7);
    }
}
