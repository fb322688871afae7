//! Randomized end-to-end MOP validation on layered networks: the strategy
//! must induce the optimum and β must be minimal along the scaling ray.

use stackopt::core::mop_multi::try_mop_multi;
use stackopt::equilibrium::certify::certify_network;
use stackopt::equilibrium::network::{try_induced_multicommodity, try_multicommodity_optimum};
use stackopt::instances::random::try_random_layered_network;
use stackopt::network::flow::decompose;
use stackopt::network::{Csr, SpWorkspace};
use stackopt::network::{Network, NetworkInstance};
use stackopt::solver::frank_wolfe::FwOptions;
use stackopt::solver::objective::CostModel;

fn opts() -> FwOptions {
    FwOptions {
        rel_gap: 1e-10,
        ..FwOptions::default()
    }
}

/// The greedy ablation of MOP, as a test oracle: decompose the optimum into
/// paths and leave free only the pieces that ride shortest paths under the
/// optimal edge costs. A greedy decomposition can waste shortest-path
/// capacity, so its β bounds MOP's exact (max-flow) β from above.
fn greedy_beta(inst: &NetworkInstance, opts: &FwOptions) -> f64 {
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
fn mop_induces_optimum_on_random_layered_nets() {
    for seed in 0..8u64 {
        let inst = try_random_layered_network(3, 3, 2.0, seed).unwrap();
        let r = try_mop_multi(&inst, &opts()).unwrap();
        assert!(
            (0.0..=1.0 + 1e-6).contains(&r.beta),
            "seed {seed}: β = {}",
            r.beta
        );

        // The optimum itself is certified.
        certify_network(&inst, &r.optimum_total, CostModel::SystemOptimum, 1e-4)
            .unwrap_or_else(|e| panic!("seed {seed}: optimum not certified: {e}"));

        // Leader + induced followers = optimum cost.
        let values = [r.commodities[0].leader_value];
        let follower =
            try_induced_multicommodity(&inst, &r.leader_total, &values, &opts(), None).unwrap();
        let total: Vec<f64> = r
            .leader_total
            .as_slice()
            .iter()
            .zip(follower.flow.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        let cost = inst.cost(&total);
        assert!(
            (cost - r.optimum_cost).abs() < 2e-4 * r.optimum_cost.max(1.0),
            "seed {seed}: induced {cost} vs C(O) {}",
            r.optimum_cost
        );
    }
}

#[test]
fn mop_beta_never_exceeds_greedy_on_random_nets() {
    for seed in 0..8u64 {
        let inst = try_random_layered_network(3, 3, 2.0, seed).unwrap();
        let exact = try_mop_multi(&inst, &opts()).unwrap();
        let greedy = greedy_beta(&inst, &opts());
        assert!(
            exact.beta <= greedy + 1e-6,
            "seed {seed}: exact β {} > greedy β {greedy}",
            exact.beta
        );
    }
}

#[test]
fn mop_leader_and_free_parts_partition_optimum() {
    for seed in [2u64, 5, 11] {
        let inst = try_random_layered_network(2, 4, 1.5, seed).unwrap();
        let r = try_mop_multi(&inst, &opts()).unwrap();
        let c = &r.commodities[0];
        for e in 0..inst.num_edges() {
            let o = r.optimum_total.as_slice()[e];
            let fr = c.free_flow.as_slice()[e];
            let ld = c.leader.as_slice()[e];
            assert!(fr >= -1e-9 && ld >= -1e-9, "seed {seed} edge {e}");
            assert!(fr <= o + 1e-6, "seed {seed} edge {e}: free exceeds optimum");
            assert!(
                (fr + ld - o).abs() < 1e-6,
                "seed {seed} edge {e}: partition broken"
            );
        }
        assert!((c.free_value + c.leader_value - inst.rate).abs() < 1e-6);
    }
}

#[test]
fn scaled_down_mop_strategy_misses_optimum() {
    // Minimality along the ray: 80% of the MOP strategy cannot induce C(O)
    // whenever β > 0 and the instance is not already optimal at Nash.
    for seed in 0..8u64 {
        let inst = try_random_layered_network(3, 3, 2.0, seed).unwrap();
        let r = try_mop_multi(&inst, &opts()).unwrap();
        if r.beta < 0.05 {
            continue;
        }
        let scaled: Vec<f64> = r.leader_total.as_slice().iter().map(|x| x * 0.8).collect();
        let follower = try_induced_multicommodity(
            &inst,
            &stackopt::network::flow::EdgeFlow(scaled.clone()),
            &[r.commodities[0].leader_value * 0.8],
            &opts(),
            None,
        )
        .unwrap();
        let total: Vec<f64> = scaled
            .iter()
            .zip(follower.flow.as_slice())
            .map(|(a, b)| a + b)
            .collect();
        let cost = inst.cost(&total);
        assert!(
            cost >= r.optimum_cost - 1e-6,
            "seed {seed}: scaled strategy beat the optimum?!"
        );
    }
}
