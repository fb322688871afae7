//! A road-network scenario: BPR volume-delay curves on a layered grid, the
//! workload the paper's introduction motivates ("users/providers have
//! freedom on how to route their load").
//!
//! ```text
//! cargo run --example traffic_sweep [--release]
//! ```
//!
//! Builds a layered commuter network with standard BPR latencies, computes
//! the price of optimum through the session API's beta task, then sweeps
//! the Leader portion α for the SCALE baseline to show the gap MOP closes:
//! SCALE improves gradually, MOP hits `C(O)` exactly at `α = β_G`.

use stackopt::core::scale::scale_network;
use stackopt::latency::LatencyFn;
use stackopt::network::graph::{DiGraph, NodeId};
use stackopt::network::instance::NetworkInstance;
use stackopt::prelude::*;
use stackopt::solver::frank_wolfe::FwOptions;

/// A 3-layer commuter net: suburb → ring roads → arterials → downtown,
/// mixing fast small-capacity and slow big-capacity roads.
fn commuter_network() -> NetworkInstance {
    let mut g = DiGraph::with_nodes(8);
    let (s, t) = (NodeId(0), NodeId(7));
    let mut lats = Vec::new();
    let edge = |g: &mut DiGraph, a: u32, b: u32, l: LatencyFn, lats: &mut Vec<LatencyFn>| {
        g.add_edge(NodeId(a), NodeId(b));
        lats.push(l);
    };
    // Suburb exits.
    edge(&mut g, 0, 1, LatencyFn::bpr(1.0, 0.15, 40.0, 4), &mut lats);
    edge(&mut g, 0, 2, LatencyFn::bpr(1.5, 0.15, 60.0, 4), &mut lats);
    edge(&mut g, 0, 3, LatencyFn::bpr(2.5, 0.15, 90.0, 4), &mut lats);
    // Ring roads with shortcuts.
    edge(&mut g, 1, 4, LatencyFn::bpr(1.2, 0.15, 45.0, 4), &mut lats);
    edge(&mut g, 1, 5, LatencyFn::bpr(2.0, 0.15, 70.0, 4), &mut lats);
    edge(&mut g, 2, 4, LatencyFn::bpr(1.0, 0.15, 40.0, 4), &mut lats);
    edge(&mut g, 2, 5, LatencyFn::bpr(1.4, 0.15, 55.0, 4), &mut lats);
    edge(&mut g, 3, 5, LatencyFn::bpr(1.1, 0.15, 80.0, 4), &mut lats);
    edge(&mut g, 3, 6, LatencyFn::bpr(1.8, 0.15, 65.0, 4), &mut lats);
    // Arterials into downtown.
    edge(&mut g, 4, 7, LatencyFn::bpr(1.6, 0.15, 50.0, 4), &mut lats);
    edge(&mut g, 5, 7, LatencyFn::bpr(1.3, 0.15, 75.0, 4), &mut lats);
    edge(&mut g, 6, 7, LatencyFn::bpr(1.0, 0.15, 45.0, 4), &mut lats);
    // Cross-connections enabling Braess-like shortcuts.
    edge(&mut g, 4, 5, LatencyFn::bpr(0.3, 0.15, 30.0, 4), &mut lats);
    edge(&mut g, 5, 6, LatencyFn::bpr(0.4, 0.15, 30.0, 4), &mut lats);
    NetworkInstance::new(g, lats, s, t, 120.0)
}

fn main() -> Result<(), SoptError> {
    let inst = commuter_network();
    let scenario = Scenario::from(inst.clone());

    let report = scenario.solve().task(Task::Beta).run()?;
    let b = report.data.as_beta().unwrap();
    println!(
        "commuter network: |V| = {}, |E| = {}, demand = {}",
        report.scenario.nodes, report.scenario.size, report.scenario.rate
    );
    println!(
        "C(N) = {:.2}   C(O) = {:.2}   anarchy value = {:.4}",
        b.nash_cost,
        b.optimum_cost,
        b.nash_cost / b.optimum_cost
    );
    let leader_value: f64 = b.beta * report.scenario.rate;
    println!(
        "price of optimum β_G = {:.4}  (Leader must steer {:.1} of {} vehicles)",
        b.beta, leader_value, report.scenario.rate
    );
    println!(
        "MOP induced cost = {:.2}  (= C(O) up to solver tolerance)\n",
        b.induced_cost
    );

    println!("SCALE sweep (Leader ships α·O, followers re-route):");
    println!("{:>6} {:>12} {:>14}", "α", "C(S+T)", "C(S+T)/C(O)");
    let opts = FwOptions::default();
    for i in 0..=10 {
        let alpha = i as f64 / 10.0;
        let (_, cost) = scale_network(&inst, alpha, &opts)?;
        println!("{alpha:>6.2} {cost:>12.2} {:>14.4}", cost / b.optimum_cost);
    }
    println!(
        "\nSCALE needs α → 1 to approach C(O); MOP reaches it at α = β_G = {:.3}.",
        b.beta
    );
    Ok(())
}
