//! Equilibria on arbitrary k-commodity networks (Frank–Wolfe), read
//! through the [`Network`] trait; an s–t instance is the one-commodity case.
//!
//! Every solve surfaces the unreachable-sink failure as a typed
//! [`SolverError`] and takes a warm start: `seed` is a per-commodity flow
//! set (usually the `per_commodity` of a previous [`FwResult`], or MOP's
//! free flows for an induced solve).

use sopt_network::flow::EdgeFlow;
use sopt_network::instance::{MultiCommodityInstance, Network};
use sopt_solver::error::SolverError;
use sopt_solver::frank_wolfe::{try_solve_warm_multicommodity, FwOptions, FwResult};
use sopt_solver::objective::CostModel;

/// Warm-start seed for the `try_` solves: per-commodity flows of a nearby
/// solution (rescaled internally; an unusable seed falls back to a cold
/// start).
pub type WarmSeed<'a> = Option<&'a FwResult>;

/// Wrap per-commodity flows as a k-commodity warm-start seed (one
/// [`EdgeFlow`] per commodity, in commodity order). Only the per-commodity
/// flows matter to the seeded solver; the bookkeeping fields are
/// placeholders (`converged = false`, no iterations).
pub fn warm_seed_from_per(per: Vec<EdgeFlow>) -> FwResult {
    let m = per.first().map_or(0, |f| f.0.len());
    let mut combined = EdgeFlow::zeros(m);
    for p in &per {
        for (c, x) in combined.0.iter_mut().zip(&p.0) {
            *c += x;
        }
    }
    FwResult {
        flow: combined,
        per_commodity: per,
        objective: f64::NAN,
        rel_gap: f64::INFINITY,
        iterations: 0,
        fw_iterations: 0,
        polish_rounds: 0,
        converged: false,
    }
}

/// Nash flow of a k-commodity instance, with an optional warm start.
pub fn try_multicommodity_nash(
    inst: &impl Network,
    opts: &FwOptions,
    seed: WarmSeed<'_>,
) -> Result<FwResult, SolverError> {
    try_solve_warm_multicommodity(inst, CostModel::Wardrop, opts, seed)
}

/// Optimum flow of a k-commodity instance, with an optional warm start.
pub fn try_multicommodity_optimum(
    inst: &impl Network,
    opts: &FwOptions,
    seed: WarmSeed<'_>,
) -> Result<FwResult, SolverError> {
    try_solve_warm_multicommodity(inst, CostModel::SystemOptimum, opts, seed)
}

/// Induced equilibrium on a k-commodity instance: the Leader preloads edge
/// flow `leader` whose per-commodity values are `leader_values[i]`; every
/// commodity's followers route the remainder selfishly. Optional warm
/// start.
pub fn try_induced_multicommodity(
    inst: &impl Network,
    leader: &EdgeFlow,
    leader_values: &[f64],
    opts: &FwOptions,
    seed: WarmSeed<'_>,
) -> Result<FwResult, SolverError> {
    let demands = inst.demands();
    assert_eq!(leader_values.len(), demands.len());
    let latencies = inst
        .latencies()
        .iter()
        .zip(leader.as_slice())
        .map(|(l, &s)| l.preloaded(s.max(0.0)))
        .collect();
    let commodities = demands
        .zip(leader_values)
        .map(|(mut c, &v)| {
            c.rate = (c.rate - v).max(0.0);
            c
        })
        .collect::<Vec<_>>();
    // Rebuild without the >0-rate validation: fully-controlled commodities
    // legitimately drop to rate 0.
    let sub = MultiCommodityInstance {
        graph: inst.graph().clone(),
        latencies,
        commodities,
    };
    try_solve_warm_multicommodity(&sub, CostModel::Wardrop, opts, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::LatencyFn;
    use sopt_network::graph::NodeId;
    use sopt_network::instance::NetworkInstance;
    use sopt_network::DiGraph;

    /// Classic Braess instance (edges: s→v:x, s→w:1, v→w:0, v→t:1, w→t:x).
    fn braess() -> NetworkInstance {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(2), NodeId(3));
        NetworkInstance::new(
            g,
            vec![
                LatencyFn::identity(),
                LatencyFn::constant(1.0),
                LatencyFn::constant(0.0),
                LatencyFn::constant(1.0),
                LatencyFn::identity(),
            ],
            NodeId(0),
            NodeId(3),
            1.0,
        )
    }

    #[test]
    fn braess_nash_vs_optimum_costs() {
        let inst = braess();
        let opts = FwOptions::default();
        let n = try_multicommodity_nash(&inst, &opts, None).unwrap();
        let o = try_multicommodity_optimum(&inst, &opts, None).unwrap();
        assert!((inst.cost(n.flow.as_slice()) - 2.0).abs() < 1e-6);
        assert!((inst.cost(o.flow.as_slice()) - 1.5).abs() < 1e-6);
    }

    #[test]
    fn induced_with_zero_leader_is_nash() {
        let inst = braess();
        let opts = FwOptions::default();
        let zero = EdgeFlow::zeros(inst.num_edges());
        let ind = try_induced_multicommodity(&inst, &zero, &[0.0], &opts, None).unwrap();
        let nash = try_multicommodity_nash(&inst, &opts, None).unwrap();
        for e in 0..inst.num_edges() {
            assert!((ind.flow.0[e] - nash.flow.0[e]).abs() < 1e-5);
        }
    }

    #[test]
    fn induced_with_full_leader_leaves_no_followers() {
        let inst = braess();
        let opts = FwOptions::default();
        // Leader ships the whole unit on the two outer paths (optimum).
        let leader = EdgeFlow(vec![0.5, 0.5, 0.0, 0.5, 0.5]);
        let ind = try_induced_multicommodity(&inst, &leader, &[1.0], &opts, None).unwrap();
        assert!(ind.flow.0.iter().all(|f| f.abs() < 1e-9));
    }

    #[test]
    fn induced_followers_recongest_braess_middle() {
        // Leader plays half the optimum (α = 1/2, SCALE-like): followers
        // flood the middle path again.
        let inst = braess();
        let opts = FwOptions::default();
        let leader = EdgeFlow(vec![0.25, 0.25, 0.0, 0.25, 0.25]);
        let ind = try_induced_multicommodity(&inst, &leader, &[0.5], &opts, None).unwrap();
        assert!(ind.converged);
        // All follower flow uses the middle path.
        assert!((ind.flow.0[2] - 0.5).abs() < 1e-5, "{:?}", ind.flow);
        let total: Vec<f64> = leader
            .as_slice()
            .iter()
            .zip(ind.flow.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        // C(S+T) = 2(3/4)² + 2·(1/4)·1 = 9/8 + 1/2 = 13/8.
        assert!((inst.cost(&total) - 13.0 / 8.0).abs() < 1e-5);
    }
}
