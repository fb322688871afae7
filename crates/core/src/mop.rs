//! MOP on s–t networks (Corollary 2.3): the one-commodity case of
//! [`mop_multi`](crate::mop_multi), checked against the paper's Fig. 7.

#[cfg(test)]
mod tests {
    use crate::mop_multi::try_mop_multi;
    use sopt_equilibrium::network::try_induced_multicommodity;
    use sopt_latency::LatencyFn;
    use sopt_network::graph::NodeId;
    use sopt_network::instance::{Network, NetworkInstance};
    use sopt_network::DiGraph;
    use sopt_solver::frank_wolfe::FwOptions;

    /// The paper's Fig. 7 instance (derived affine form, see DESIGN.md):
    /// `ℓ_sv = ℓ_wt = x`, `ℓ_sw = ℓ_vt = x + 1 − 4ε`, `ℓ_vw = 0`, `r = 1`.
    /// Unique optimum `(3/4−ε, 1/4+ε, 1/2−2ε, 1/4+ε, 3/4−ε)`.
    fn fig7(eps: f64) -> NetworkInstance {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1)); // e0 s→v: x
        g.add_edge(NodeId(0), NodeId(2)); // e1 s→w: x + 1 − 4ε
        g.add_edge(NodeId(1), NodeId(2)); // e2 v→w: 0
        g.add_edge(NodeId(1), NodeId(3)); // e3 v→t: x + 1 − 4ε
        g.add_edge(NodeId(2), NodeId(3)); // e4 w→t: x
        NetworkInstance::new(
            g,
            vec![
                LatencyFn::identity(),
                LatencyFn::affine(1.0, 1.0 - 4.0 * eps),
                LatencyFn::constant(0.0),
                LatencyFn::affine(1.0, 1.0 - 4.0 * eps),
                LatencyFn::identity(),
            ],
            NodeId(0),
            NodeId(3),
            1.0,
        )
    }

    #[test]
    fn fig7_optimal_flows_match_paper() {
        let eps = 0.05;
        let r = try_mop_multi(&fig7(eps), &FwOptions::default()).unwrap();
        let o = r.optimum_total.as_slice();
        let expect = [
            0.75 - eps,
            0.25 + eps,
            0.5 - 2.0 * eps,
            0.25 + eps,
            0.75 - eps,
        ];
        for (i, (&got, &want)) in o.iter().zip(&expect).enumerate() {
            assert!((got - want).abs() < 1e-5, "edge {i}: {got} ≠ {want}");
        }
    }

    #[test]
    fn fig7_beta_is_half_plus_two_eps() {
        for &eps in &[0.0, 0.01, 0.05, 0.1] {
            let r = try_mop_multi(&fig7(eps), &FwOptions::default()).unwrap();
            let want = 0.5 + 2.0 * eps;
            assert!(
                (r.beta - want).abs() < 1e-4,
                "ε={eps}: β = {} ≠ {want}",
                r.beta
            );
            // The shortest path is the middle path with flow 1/2 − 2ε.
            assert!((r.commodities[0].free_value - (0.5 - 2.0 * eps)).abs() < 1e-4);
        }
    }

    #[test]
    fn fig7_middle_path_is_shortest() {
        let r = try_mop_multi(&fig7(0.05), &FwOptions::default()).unwrap();
        // Shortest subnetwork must contain s→v, v→w, w→t; not s→w or v→t.
        let ids: Vec<u32> = r.commodities[0]
            .shortest_edges
            .iter()
            .map(|e| e.0)
            .collect();
        assert!(
            ids.contains(&0) && ids.contains(&2) && ids.contains(&4),
            "{ids:?}"
        );
        assert!(!ids.contains(&1) && !ids.contains(&3), "{ids:?}");
    }

    #[test]
    fn fig7_strategy_induces_optimum() {
        let inst = fig7(0.05);
        let r = try_mop_multi(&inst, &FwOptions::default()).unwrap();
        let values = [r.commodities[0].leader_value];
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
            (cost - r.optimum_cost).abs() < 1e-4,
            "induced {cost} ≠ C(O) {}",
            r.optimum_cost
        );
    }

    #[test]
    fn pigou_as_network() {
        // Two parallel edges: MOP reduces to OpTop's answer β = 1/2.
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(1));
        let inst = NetworkInstance::new(
            g,
            vec![LatencyFn::identity(), LatencyFn::constant(1.0)],
            NodeId(0),
            NodeId(1),
            1.0,
        );
        let r = try_mop_multi(&inst, &FwOptions::default()).unwrap();
        assert!((r.beta - 0.5).abs() < 1e-5, "β = {}", r.beta);
        // Leader controls the slow edge at its optimal load.
        assert!((r.leader_total.0[1] - 0.5).abs() < 1e-5);
        assert!(r.leader_total.0[0].abs() < 1e-5);
    }

    #[test]
    fn series_network_needs_no_leader() {
        // A single path: Nash = optimum trivially, β = 0.
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let inst = NetworkInstance::new(
            g,
            vec![LatencyFn::identity(), LatencyFn::affine(2.0, 0.3)],
            NodeId(0),
            NodeId(2),
            1.0,
        );
        let r = try_mop_multi(&inst, &FwOptions::default()).unwrap();
        assert!(r.beta.abs() < 1e-6, "β = {}", r.beta);
        assert!(r.leader_total.as_slice().iter().all(|x| x.abs() < 1e-6));
    }

    /// The greedy ablation of MOP: decompose the optimum into paths and
    /// leave free only the pieces that ride shortest paths under the optimal
    /// edge costs. A greedy decomposition can waste shortest-path capacity,
    /// so its β bounds MOP's exact (max-flow) β from above.
    fn greedy_beta(inst: &NetworkInstance, opts: &FwOptions) -> f64 {
        use sopt_equilibrium::network::try_multicommodity_optimum;
        use sopt_network::csr::{Csr, SpWorkspace};
        use sopt_network::flow::decompose;
        let optimum = try_multicommodity_optimum(inst, opts, None).unwrap().flow;
        let costs = inst.edge_costs(optimum.as_slice());
        let mut ws = SpWorkspace::new();
        ws.dijkstra(&Csr::new(&inst.graph), &costs, inst.source);
        let dist = ws.dist()[inst.sink.idx()];
        let tol = 1e-6 * dist.abs().max(1.0);
        let free: f64 = decompose(&inst.graph, &optimum, inst.source, inst.sink)
            .paths
            .iter()
            .filter(|(path, _)| (path.cost(&costs) - dist).abs() <= tol)
            .map(|(_, amount)| amount)
            .sum();
        (inst.rate - free).max(0.0) / inst.rate
    }

    #[test]
    fn exact_beta_never_exceeds_greedy() {
        for &eps in &[0.0, 0.05] {
            let inst = fig7(eps);
            let exact = try_mop_multi(&inst, &FwOptions::default()).unwrap();
            let greedy = greedy_beta(&inst, &FwOptions::default());
            assert!(exact.beta <= greedy + 1e-9);
        }
    }

    #[test]
    fn mop_with_supplied_optimum_matches() {
        use crate::mop_multi::try_mop_multi_with_optimum;
        use sopt_equilibrium::network::try_multicommodity_optimum;
        let inst = fig7(0.05);
        let opts = FwOptions::default();
        let opt = try_multicommodity_optimum(&inst, &opts, None).unwrap();
        let via_supplied = try_mop_multi_with_optimum(&inst, &opt).unwrap();
        let direct = try_mop_multi(&inst, &opts).unwrap();
        assert_eq!(via_supplied.beta, direct.beta);
        assert_eq!(
            via_supplied.optimum_total.as_slice(),
            direct.optimum_total.as_slice()
        );
    }

    #[test]
    fn induced_seeded_with_free_flow_converges_immediately() {
        use sopt_equilibrium::network::{try_induced_multicommodity, warm_seed_from_per};
        let inst = fig7(0.05);
        let opts = FwOptions::default();
        let r = try_mop_multi(&inst, &opts).unwrap();
        let values = [r.commodities[0].leader_value];
        // The free flow IS the follower equilibrium under the MOP strategy;
        // seeding with it should converge on the first gap check.
        let seed = warm_seed_from_per(vec![r.commodities[0].free_flow.clone()]);
        let warm = try_induced_multicommodity(&inst, &r.leader_total, &values, &opts, Some(&seed))
            .unwrap();
        assert!(warm.converged);
        assert!(
            warm.iterations <= 2,
            "warm induced took {} iterations",
            warm.iterations
        );
        let cold =
            try_induced_multicommodity(&inst, &r.leader_total, &values, &opts, None).unwrap();
        assert!(cold.iterations >= warm.iterations);
        for e in 0..inst.num_edges() {
            assert!((warm.flow.0[e] - cold.flow.0[e]).abs() < 1e-5);
        }
    }

    #[test]
    fn leader_flow_is_feasible() {
        let inst = fig7(0.02);
        let r = try_mop_multi(&inst, &FwOptions::default()).unwrap();
        let c = &r.commodities[0];
        assert!(c
            .leader
            .is_st_flow(&inst.graph, inst.source, inst.sink, c.leader_value, 1e-4));
        assert!(c
            .free_flow
            .is_st_flow(&inst.graph, inst.source, inst.sink, c.free_value, 1e-4));
    }
}
