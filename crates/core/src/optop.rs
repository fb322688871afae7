//! Algorithm **OpTop** (paper §2, Corollary 2.2): the minimum Leader portion
//! `β_M` inducing the optimum on parallel links, plus her optimal strategy.
//!
//! ```text
//! (1) r₀ = r; compute the optimum O on (M, r₀); M' = ∅.
//! (2) Compute the Nash assignment N on (M, r).
//! (3) For each link with o_i > n_i (under-loaded): M' ← M' ∪ {M_i}.
//!     If M' = ∅ goto (5).
//! (4) M ← M \ M'; O ← O \ {o_i}; r ← r − Σ_{M'} o_i; M' = ∅; goto (2).
//! (5) β_M = (r₀ − r)/r₀.
//! ```
//!
//! Correctness rests on §7: a useful strategy must freeze under-loaded links
//! (Theorem 7.2), frozen links must be frozen *at their optimal load*
//! (Theorem 7.4 / Lemma 7.5 — any other frozen load is stuck, yielding a
//! suboptimal equilibrium), and freezing permanently removes them from the
//! Followers' game (§7.4).

use sopt_equilibrium::classify::underloaded_indices;
use sopt_equilibrium::parallel::ParallelLinks;
use sopt_solver::equalize::EqualizeError;

/// One round of the OpTop recursion, for tracing/visualisation (the paper's
/// Figs. 4–6 walk exactly these states).
#[derive(Clone, Debug)]
pub struct OpTopRound {
    /// Links still in the game this round (global indices).
    pub active: Vec<usize>,
    /// Flow still in the game this round.
    pub rate: f64,
    /// Nash assignment of `rate` on the active subsystem (global indexing:
    /// `nash[i]` is the load of *global* link `active[i]`).
    pub nash: Vec<f64>,
    /// Optimal loads of the active links (restriction of the global `O`).
    pub optimum: Vec<f64>,
    /// Global indices frozen this round (under-loaded links).
    pub frozen: Vec<usize>,
    /// Common Nash latency of the active subsystem this round.
    pub nash_level: f64,
}

/// Output of [`try_optop`].
#[derive(Clone, Debug)]
pub struct OpTopResult {
    /// The price of optimum `β_M = (r₀ − r)/r₀`: the minimum portion of the
    /// flow a Leader must control to induce `C(O)`.
    pub beta: f64,
    /// The Leader's optimal strategy: `s_i = o_i` on every link OpTop froze,
    /// `0` elsewhere. Controls exactly `β_M·r₀`.
    pub strategy: Vec<f64>,
    /// The global optimum assignment `O` on `(M, r₀)`.
    pub optimum: Vec<f64>,
    /// The initial Nash assignment `N` on `(M, r₀)`.
    pub nash: Vec<f64>,
    /// Round-by-round trace.
    pub rounds: Vec<OpTopRound>,
    /// `C(O)` — the cost the strategy enforces.
    pub optimum_cost: f64,
    /// `C(N)` — the cost without a Leader.
    pub nash_cost: f64,
}

/// Flow-comparison tolerance for under-loadedness, relative to the rate.
const LOAD_TOL: f64 = 1e-9;

/// Run OpTop on `(M, r)`, reporting infeasibility (rate over capacity) as
/// a typed error.
pub fn try_optop(links: &ParallelLinks) -> Result<OpTopResult, EqualizeError> {
    let m = links.m();
    let r0 = links.rate();
    let tol = LOAD_TOL * r0;

    // Step (1): the global optimum, fixed once.
    let optimum = links.try_optimum()?.flows().to_vec();
    let nash0 = links.try_nash()?;

    let mut active: Vec<usize> = (0..m).collect();
    let mut rate = r0;
    let mut strategy = vec![0.0; m];
    let mut rounds = Vec::new();

    loop {
        if rate <= tol {
            // All flow frozen: the empty assignment is trivially Nash.
            rounds.push(OpTopRound {
                active: active.clone(),
                rate,
                nash: vec![0.0; active.len()],
                optimum: active.iter().map(|&g| optimum[g]).collect(),
                frozen: vec![],
                nash_level: 0.0,
            });
            break;
        }
        // Step (2): Nash on the current subsystem.
        let sub = links.subsystem(&active, rate);
        let nash = sub.try_nash()?;

        let opt_active: Vec<f64> = active.iter().map(|&g| optimum[g]).collect();
        // Step (3): under-loaded links of this round.
        let under_local = underloaded_indices(nash.flows(), &opt_active, tol);
        let frozen: Vec<usize> = under_local.iter().map(|&i| active[i]).collect();

        rounds.push(OpTopRound {
            active: active.clone(),
            rate,
            nash: nash.flows().to_vec(),
            optimum: opt_active.clone(),
            frozen: frozen.clone(),
            nash_level: nash.level(),
        });

        if frozen.is_empty() {
            break; // Step (5)
        }

        // Step (4): freeze at optimal load, discard, recurse.
        for &g in &frozen {
            strategy[g] = optimum[g];
            rate -= optimum[g];
        }
        rate = rate.max(0.0);
        active.retain(|g| !frozen.contains(g));
        if active.is_empty() {
            break;
        }
    }

    let controlled: f64 = strategy.iter().sum();
    Ok(OpTopResult {
        beta: controlled / r0,
        strategy,
        optimum: optimum.clone(),
        nash: nash0.flows().to_vec(),
        rounds,
        optimum_cost: links.cost(&optimum),
        nash_cost: links.cost(nash0.flows()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_equilibrium::certify::certify_parallel;
    use sopt_latency::LatencyFn;
    use sopt_solver::objective::CostModel;

    fn fig4_links() -> ParallelLinks {
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

    #[test]
    fn pigou_beta_is_half() {
        let links = ParallelLinks::new(vec![LatencyFn::identity(), LatencyFn::constant(1.0)], 1.0);
        let r = try_optop(&links).unwrap();
        assert!((r.beta - 0.5).abs() < 1e-9, "β = {}", r.beta);
        assert_eq!(r.strategy.len(), 2);
        assert!(r.strategy[0].abs() < 1e-12, "fast link uncontrolled");
        assert!(
            (r.strategy[1] - 0.5).abs() < 1e-9,
            "slow link frozen at o₂ = 1/2"
        );
        // The strategy enforces the optimum.
        let cost = links.try_induced_cost(&r.strategy).unwrap();
        assert!((cost - r.optimum_cost).abs() < 1e-9);
        assert!((r.optimum_cost - 0.75).abs() < 1e-9);
        assert!((r.nash_cost - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fig4_trace_matches_paper() {
        // Paper Figs. 4–6: one freezing round on {M4, M5}, then termination.
        let links = fig4_links();
        let r = try_optop(&links).unwrap();
        assert_eq!(r.rounds.len(), 2, "one freeze round + terminal round");
        assert_eq!(
            r.rounds[0].frozen,
            vec![3, 4],
            "M4, M5 under-loaded (Fig 4)"
        );
        assert!(r.rounds[1].frozen.is_empty());
        // β = o4 + o5 = 8/75 + 27/200.
        let expected_beta = 8.0 / 75.0 + 0.135;
        assert!(
            (r.beta - expected_beta).abs() < 1e-9,
            "β = {} ≠ {expected_beta}",
            r.beta
        );
        // Terminal round: remaining Nash == remaining optimum (Fig 6).
        let last = &r.rounds[1];
        for (n, o) in last.nash.iter().zip(&last.optimum) {
            assert!((n - o).abs() < 1e-7);
        }
        // Strategy = optimum on frozen links only.
        assert!((r.strategy[3] - 8.0 / 75.0).abs() < 1e-9);
        assert!((r.strategy[4] - 0.135).abs() < 1e-9);
        assert!(r.strategy[..3].iter().all(|s| *s == 0.0));
    }

    #[test]
    fn strategy_induces_optimum_certified() {
        let links = fig4_links();
        let r = try_optop(&links).unwrap();
        let ind = links.try_induced(&r.strategy).unwrap();
        for (i, (&tot, &o)) in ind.total.iter().zip(&r.optimum).enumerate() {
            assert!(
                (tot - o).abs() < 1e-7,
                "link {i}: induced {tot} ≠ optimum {o}"
            );
        }
        // The combined flow satisfies the optimality certificate.
        certify_parallel(
            links.latencies(),
            &ind.total,
            1.0,
            CostModel::SystemOptimum,
            1e-6,
        )
        .expect("induced optimum certified");
    }

    #[test]
    fn identical_links_need_no_leader() {
        // Fully symmetric system: Nash = optimum, β = 0 (paper §2's remark
        // that large groups of identical links make β small).
        let links = ParallelLinks::new(vec![LatencyFn::identity(); 4], 2.0);
        let r = try_optop(&links).unwrap();
        assert!(r.beta.abs() < 1e-9);
        assert!((r.nash_cost - r.optimum_cost).abs() < 1e-9);
        assert_eq!(r.rounds.len(), 1);
    }

    #[test]
    fn mm1_system_beta() {
        // Distinct M/M/1 links (Korilis–Lazar–Orda setting).
        let links = ParallelLinks::new(
            vec![
                LatencyFn::mm1(4.0),
                LatencyFn::mm1(2.0),
                LatencyFn::mm1(1.0),
            ],
            2.0,
        );
        let r = try_optop(&links).unwrap();
        assert!(r.beta >= 0.0 && r.beta < 1.0);
        let cost = links.try_induced_cost(&r.strategy).unwrap();
        assert!(
            (cost - r.optimum_cost).abs() < 1e-6,
            "induced {cost} vs C(O) {}",
            r.optimum_cost
        );
    }

    #[test]
    fn multiple_rounds_possible() {
        // A staircase of intercepts forces several freezing rounds.
        let links = ParallelLinks::new(
            vec![
                LatencyFn::affine(1.0, 0.0),
                LatencyFn::affine(1.0, 0.45),
                LatencyFn::affine(1.0, 0.9),
                LatencyFn::affine(1.0, 1.35),
            ],
            1.0,
        );
        let r = try_optop(&links).unwrap();
        // Whatever the round structure, the result must enforce C(O).
        let cost = links.try_induced_cost(&r.strategy).unwrap();
        assert!((cost - r.optimum_cost).abs() < 1e-8);
        // β strictly between 0 and 1 here.
        assert!(r.beta > 0.0 && r.beta < 1.0, "β = {}", r.beta);
        // Trace bookkeeping: frozen sets partition, rates decrease.
        let mut seen = std::collections::HashSet::new();
        for round in &r.rounds {
            for &g in &round.frozen {
                assert!(seen.insert(g), "link {g} frozen twice");
            }
        }
    }

    #[test]
    fn alpha_below_beta_cannot_reach_optimum() {
        // Sanity on minimality: scaling the OpTop strategy down misses C(O).
        let links = fig4_links();
        let r = try_optop(&links).unwrap();
        let short: Vec<f64> = r.strategy.iter().map(|s| s * 0.9).collect();
        let cost = links.try_induced_cost(&short).unwrap();
        assert!(
            cost > r.optimum_cost + 1e-6,
            "cost {cost} vs C(O) {}",
            r.optimum_cost
        );
    }
}
