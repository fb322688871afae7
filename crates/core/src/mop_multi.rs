//! Algorithm **MOP** (paper §2): the price of optimum on an arbitrary
//! k-commodity network (Theorem 2.1). An s–t network is the `k = 1` case
//! (Corollary 2.3) and runs through the same code.
//!
//! ```text
//! (1) S = {}, r_S = 0.
//! (2) Compute the optimum O on (G, r).
//! (3) Set cost ℓ_e(o_e) on each edge.
//! (4) Per commodity i, compute the shortest paths P^{O,(i)} under those costs.
//! (5) Control the flow O_P > 0 of every non-shortest path P ∉ P^{O,(i)}.
//! (6) r'_i = the uncontrolled flow of commodity i riding shortest paths.
//! (7) β = Σ (r_i − r'_i) / Σ r_i.
//! ```
//!
//! §5.1 argues the Leader must control exactly the optimal flow on every
//! non-shortest path of every commodity: controlling less leaks flow to
//! shortest paths, controlling more (or touching shortest paths) breaks
//! `S + T = O`. Path decompositions of `O^i` are not unique, so the minimum
//! `β` corresponds to the decomposition that routes as much of `O^i` as
//! possible over shortest paths — exactly the max flow through commodity
//! `i`'s shortest-path subnetwork `G̃_i` with capacities `o^i_e`
//! (footnote 5 computes the free flow through `G̃`; Dinic makes that
//! exact). The result is a *strong* Stackelberg strategy: per-commodity
//! portions `α_i` with overall `β = Σ α_i r_i / r`.

use crate::error::CoreError;
use sopt_equilibrium::network::try_multicommodity_optimum;
use sopt_network::csr::{Csr, SpWorkspace};
use sopt_network::flow::EdgeFlow;
use sopt_network::graph::EdgeId;
use sopt_network::instance::Network;
use sopt_network::maxflow::max_flow;
use sopt_network::spath::shortest_dag_edges;
use sopt_solver::frank_wolfe::{FwOptions, FwResult};

/// Per-commodity share of the [`MopMultiResult`].
#[derive(Clone, Debug)]
pub struct MopCommodity {
    /// This commodity's optimal edge flow `O^i`.
    pub optimum: EdgeFlow,
    /// Edges of this commodity's shortest-path subnetwork `G̃_i` under the
    /// optimal edge costs.
    pub shortest_edges: Vec<EdgeId>,
    /// The free part riding this commodity's shortest paths.
    pub free_flow: EdgeFlow,
    /// Value `r'_i` of the free part.
    pub free_value: f64,
    /// The Leader's flow for this commodity: `O^i − free`.
    pub leader: EdgeFlow,
    /// Controlled value `r_i − r'_i`.
    pub leader_value: f64,
    /// The per-commodity portion `α_i = (r_i − r'_i)/r_i`.
    pub alpha: f64,
}

/// Output of [`try_mop_multi`].
#[derive(Clone, Debug)]
pub struct MopMultiResult {
    /// Overall price of optimum `β = Σ (r_i − r'_i) / Σ r_i`.
    pub beta: f64,
    /// Per-commodity breakdown.
    pub commodities: Vec<MopCommodity>,
    /// The combined optimum edge flow.
    pub optimum_total: EdgeFlow,
    /// The combined Leader edge flow.
    pub leader_total: EdgeFlow,
    /// Edge costs `ℓ_e(o_e)` at the combined optimum.
    pub edge_costs: Vec<f64>,
    /// `C(O)`.
    pub optimum_cost: f64,
}

const DAG_TOL: f64 = 1e-6;

/// Run the k-commodity MOP of Theorem 2.1, reporting solver
/// non-convergence and unreachable sinks as typed errors.
pub fn try_mop_multi(inst: &impl Network, opts: &FwOptions) -> Result<MopMultiResult, CoreError> {
    let opt = try_multicommodity_optimum(inst, opts, None)?;
    try_mop_multi_with_optimum(inst, &opt)
}

/// [`try_mop_multi`] with the optimum solve supplied by the caller (the
/// session layer threads a memoized optimum through here, so an α-sweep or
/// a fleet re-touching one scenario solves the optimum once).
pub fn try_mop_multi_with_optimum(
    inst: &impl Network,
    opt: &FwResult,
) -> Result<MopMultiResult, CoreError> {
    // (2) the optimum (solved by the caller, possibly served from a memo).
    if !opt.converged {
        return Err(CoreError::NotConverged {
            what: "optimum",
            rel_gap: opt.rel_gap,
        });
    }
    // (3) fixed optimal edge costs.
    let edge_costs = inst.edge_costs(opt.flow.as_slice());

    let graph = inst.graph();
    let demands = inst.demands();
    let m = graph.num_edges();
    let mut commodities = Vec::with_capacity(demands.len());
    let mut leader_total = EdgeFlow::zeros(m);
    let csr = Csr::new(graph);
    let mut ws = SpWorkspace::new();

    for (ci, com) in demands.enumerate() {
        // (4) this commodity's shortest-path subnetwork under those costs.
        let o_i = &opt.per_commodity[ci];
        ws.dijkstra(&csr, &edge_costs, com.source);
        let dist = ws.dist()[com.sink.idx()];
        if !dist.is_finite() {
            return Err(CoreError::Unreachable { commodity: ci });
        }
        let tol = DAG_TOL * dist.abs().max(1.0);
        let shortest_edges = shortest_dag_edges(graph, &edge_costs, ws.dist(), tol);

        // (5)–(6) the free flow r'_i: max flow through G̃_i with
        // capacities o^i_e; the Leader controls the rest of O^i.
        let mut caps = vec![0.0; m];
        for &e in &shortest_edges {
            caps[e.idx()] = o_i.get(e);
        }
        let free = max_flow(graph, &caps, com.source, com.sink);
        let leader = EdgeFlow(
            o_i.as_slice()
                .iter()
                .zip(free.flow.as_slice())
                .map(|(o, f)| (o - f).max(0.0))
                .collect(),
        );
        let leader_value = (com.rate - free.value).max(0.0);
        for e in 0..m {
            leader_total.0[e] += leader.0[e];
        }
        commodities.push(MopCommodity {
            optimum: o_i.clone(),
            shortest_edges,
            free_value: free.value,
            free_flow: free.flow,
            leader,
            leader_value,
            alpha: leader_value / com.rate,
        });
    }

    let controlled: f64 = commodities.iter().map(|c| c.leader_value).sum();
    Ok(MopMultiResult {
        beta: controlled / inst.total_rate(),
        commodities,
        optimum_cost: inst.cost(opt.flow.as_slice()),
        optimum_total: opt.flow.clone(),
        leader_total,
        edge_costs,
    })
}

impl MopMultiResult {
    /// The minimum portion for a **weak** Stackelberg strategy (paper §4):
    /// a weak Leader controls the *same* portion `α` of every commodity, so
    /// to cover each commodity's requirement `α_i` she needs
    /// `α = max_i α_i ≥ β` (the strong strategy's overall portion).
    pub fn weak_beta(&self) -> f64 {
        self.commodities.iter().map(|c| c.alpha).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_equilibrium::network::try_induced_multicommodity;
    use sopt_latency::LatencyFn;
    use sopt_network::graph::NodeId;
    use sopt_network::instance::{Commodity, MultiCommodityInstance, NetworkInstance};
    use sopt_network::DiGraph;

    /// Two Pigou gadgets sharing nothing: per-commodity β must match the
    /// single-commodity answer (1/2 each).
    fn two_disjoint_pigous() -> MultiCommodityInstance {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1)); // x
        g.add_edge(NodeId(0), NodeId(1)); // 1
        g.add_edge(NodeId(2), NodeId(3)); // x
        g.add_edge(NodeId(2), NodeId(3)); // 1
        MultiCommodityInstance::new(
            g,
            vec![
                LatencyFn::identity(),
                LatencyFn::constant(1.0),
                LatencyFn::identity(),
                LatencyFn::constant(1.0),
            ],
            vec![
                Commodity {
                    source: NodeId(0),
                    sink: NodeId(1),
                    rate: 1.0,
                },
                Commodity {
                    source: NodeId(2),
                    sink: NodeId(3),
                    rate: 1.0,
                },
            ],
        )
    }

    #[test]
    fn disjoint_pigous_give_half_each() {
        let inst = two_disjoint_pigous();
        let r = try_mop_multi(&inst, &FwOptions::default()).unwrap();
        assert!((r.beta - 0.5).abs() < 1e-5, "β = {}", r.beta);
        for c in &r.commodities {
            assert!((c.alpha - 0.5).abs() < 1e-5, "α_i = {}", c.alpha);
        }
    }

    #[test]
    fn strategy_induces_multicommodity_optimum() {
        let inst = two_disjoint_pigous();
        let r = try_mop_multi(&inst, &FwOptions::default()).unwrap();
        let values: Vec<f64> = r.commodities.iter().map(|c| c.leader_value).collect();
        let follower = try_induced_multicommodity(
            &inst,
            &r.leader_total,
            &values,
            &FwOptions::default(),
            None,
        )
        .unwrap();
        let total: Vec<f64> = r
            .leader_total
            .as_slice()
            .iter()
            .zip(follower.flow.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        let cost = inst.cost(&total);
        assert!(
            (cost - r.optimum_cost).abs() < 1e-5,
            "{cost} vs {}",
            r.optimum_cost
        );
    }

    #[test]
    fn shared_edge_two_commodities() {
        // Commodities (0→3) and (1→3) share the congested edge 2→3 but each
        // also has a private constant bypass; the Leader controls only the
        // non-shortest optimal flow per commodity.
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(2)); // x
        g.add_edge(NodeId(1), NodeId(2)); // x
        g.add_edge(NodeId(2), NodeId(3)); // x (shared)
        g.add_edge(NodeId(0), NodeId(3)); // const 2 (bypass for c0)
        g.add_edge(NodeId(1), NodeId(3)); // const 2 (bypass for c1)
        let inst = MultiCommodityInstance::new(
            g,
            vec![
                LatencyFn::identity(),
                LatencyFn::identity(),
                LatencyFn::identity(),
                LatencyFn::constant(2.0),
                LatencyFn::constant(2.0),
            ],
            vec![
                Commodity {
                    source: NodeId(0),
                    sink: NodeId(3),
                    rate: 1.0,
                },
                Commodity {
                    source: NodeId(1),
                    sink: NodeId(3),
                    rate: 1.0,
                },
            ],
        );
        let r = try_mop_multi(&inst, &FwOptions::default()).unwrap();
        assert!(r.beta >= 0.0 && r.beta <= 1.0);
        // Induced play must reproduce the optimum.
        let values: Vec<f64> = r.commodities.iter().map(|c| c.leader_value).collect();
        let follower = try_induced_multicommodity(
            &inst,
            &r.leader_total,
            &values,
            &FwOptions::default(),
            None,
        )
        .unwrap();
        let total: Vec<f64> = r
            .leader_total
            .as_slice()
            .iter()
            .zip(follower.flow.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        assert!((inst.cost(&total) - r.optimum_cost).abs() < 1e-4);
    }

    #[test]
    fn weak_beta_dominates_strong_beta() {
        let inst = two_disjoint_pigous();
        let r = try_mop_multi(&inst, &FwOptions::default()).unwrap();
        assert!(r.weak_beta() >= r.beta - 1e-12);
        // Equal-rate symmetric commodities: weak = strong here.
        assert!((r.weak_beta() - 0.5).abs() < 1e-5);
        // A weak Leader controlling weak_beta of EVERY commodity covers all
        // per-commodity requirements.
        for c in &r.commodities {
            assert!(c.alpha <= r.weak_beta() + 1e-12);
        }
    }

    #[test]
    fn single_commodity_reduces_to_mop() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        let latencies = vec![LatencyFn::identity(), LatencyFn::constant(1.0)];
        let mc = MultiCommodityInstance::new(
            g.clone(),
            latencies.clone(),
            vec![Commodity {
                source: NodeId(0),
                sink: NodeId(1),
                rate: 1.0,
            }],
        );
        let multi = try_mop_multi(&mc, &FwOptions::default()).unwrap();
        let single = try_mop_multi(
            &NetworkInstance::new(g, latencies, NodeId(0), NodeId(1), 1.0),
            &FwOptions::default(),
        )
        .unwrap();
        // An s–t instance is the same one-commodity network, bit for bit.
        assert_eq!(multi.beta, single.beta);
    }
}
