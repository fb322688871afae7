//! M/M/1 link families for the paper's §2 claim (after Korilis–Lazar–Orda):
//! *"if such M/M/1 systems contain small groups of highly appealing links or
//! there are large groups of identical links then β_M may be significantly
//! small."* Experiment E9 measures `β_M` across these families.

use sopt_equilibrium::parallel::ParallelLinks;
use sopt_latency::LatencyFn;

/// A small group of `fast` highly-appealing links (capacity `fast_cap`)
/// next to `slow` weak links (capacity `slow_cap`). With the appeal gap
/// large, both Nash and optimum concentrate on the fast group and `β_M`
/// shrinks.
pub fn appealing_group(
    fast: usize,
    fast_cap: f64,
    slow: usize,
    slow_cap: f64,
    rate: f64,
) -> ParallelLinks {
    assert!(fast + slow >= 1);
    assert!(
        fast_cap > slow_cap,
        "the fast group must be the appealing one"
    );
    let mut lats = Vec::with_capacity(fast + slow);
    lats.extend(std::iter::repeat_n(LatencyFn::mm1(fast_cap), fast));
    lats.extend(std::iter::repeat_n(LatencyFn::mm1(slow_cap), slow));
    ParallelLinks::new(lats, rate)
}

/// `m` identical M/M/1 links: Nash = optimum by symmetry, so `β_M = 0`.
pub fn identical_links(m: usize, cap: f64, rate: f64) -> ParallelLinks {
    assert!(m >= 1);
    ParallelLinks::new(vec![LatencyFn::mm1(cap); m], rate)
}

/// A geometric spread of capacities `base·ratio^i` — the contrasting family
/// where no group dominates and `β_M` stays substantial.
pub fn spread_links(m: usize, base: f64, ratio: f64, rate: f64) -> ParallelLinks {
    assert!(m >= 1 && base > 0.0 && ratio > 1.0);
    let lats: Vec<LatencyFn> = (0..m)
        .map(|i| LatencyFn::mm1(base * ratio.powi(i as i32)))
        .collect();
    ParallelLinks::new(lats, rate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_core::optop::try_optop;

    #[test]
    fn identical_links_have_zero_beta() {
        let links = identical_links(6, 2.0, 3.0);
        let r = try_optop(&links).unwrap();
        assert!(r.beta < 1e-9, "β = {}", r.beta);
    }

    #[test]
    fn appealing_group_shrinks_beta() {
        // Strong appeal gap: almost all flow lives on the fast pair in both
        // N and O, so the Leader controls (nearly) nothing.
        let strong_gap = appealing_group(2, 20.0, 4, 1.0, 2.0);
        let beta_strong = try_optop(&strong_gap).unwrap().beta;
        assert!(beta_strong < 1e-6, "appealing group β = {beta_strong}");
        // Contrast: a mild spread at high utilisation loads every link, the
        // small ones below their optimal share — β stays substantial.
        let contrast = spread_links(6, 1.0, 1.3, 8.0);
        let beta_weak = try_optop(&contrast).unwrap().beta;
        assert!(
            beta_weak > 0.01 && beta_strong < beta_weak,
            "appealing β = {beta_strong} should undercut spread β = {beta_weak}"
        );
    }

    #[test]
    fn spread_is_feasible_and_nontrivial() {
        let links = spread_links(5, 1.0, 2.0, 4.0);
        let r = try_optop(&links).unwrap();
        assert!(r.beta >= 0.0 && r.beta < 1.0);
        // The strategy really enforces C(O).
        let cost = links.try_induced_cost(&r.strategy).unwrap();
        assert!((cost - r.optimum_cost).abs() < 1e-6);
    }
}
