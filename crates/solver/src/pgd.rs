//! Path-based projected gradient descent — an independent solver used to
//! cross-validate Frank–Wolfe on graphs with enumerable path sets.
//!
//! Works in the path-flow space: enumerate all simple s→t paths, run
//! projected gradient on the scaled simplex `{h ≥ 0, Σ h_P = r}` with the
//! classical O(n log n) Euclidean simplex projection. Deliberately simple;
//! medium precision (~1e-7) is plenty for a cross-check oracle.

use sopt_network::flow::EdgeFlow;
use sopt_network::instance::Network;
use sopt_network::path::{all_simple_paths, Path};

use crate::objective::CostModel;

/// Result of [`path_equilibrium`].
#[derive(Clone, Debug)]
pub struct PgdResult {
    /// The enumerated simple paths.
    pub paths: Vec<Path>,
    /// Flow per path (sums to the rate).
    pub path_flows: Vec<f64>,
    /// Induced edge flow.
    pub flow: EdgeFlow,
    /// Final objective.
    pub objective: f64,
    /// Iterations performed.
    pub iterations: usize,
}

/// Solve a one-commodity network by projected gradient over path flows.
/// Panics if the network has several commodities or more than `max_paths`
/// simple s→t paths (use Frank–Wolfe instead).
pub fn path_equilibrium(
    inst: &impl Network,
    model: CostModel,
    max_paths: usize,
    iters: usize,
) -> PgdResult {
    let mut demands = inst.demands();
    let (Some(demand), None) = (demands.next(), demands.next()) else {
        panic!("the path-based solver handles one commodity");
    };
    let paths = all_simple_paths(inst.graph(), demand.source, demand.sink, max_paths)
        .expect("path set too large for the path-based solver");
    assert!(!paths.is_empty(), "sink unreachable");
    let n = paths.len();
    let m = inst.graph().num_edges();

    // Start uniform.
    let mut h = vec![demand.rate / n as f64; n];
    let mut edge = vec![0.0f64; m];
    let edge_of = |h: &[f64], edge: &mut Vec<f64>| {
        edge.iter_mut().for_each(|x| *x = 0.0);
        for (p, &hp) in paths.iter().zip(h.iter()) {
            for &e in p.edges() {
                edge[e.idx()] += hp;
            }
        }
    };

    // Lipschitz-ish step: 1 / (max curvature × max path length).
    edge_of(&h, &mut edge);
    let mut curv_max = 0.0f64;
    for (l, &fe) in inst.latencies().iter().zip(&edge) {
        curv_max = curv_max.max(model.edge_curvature(l, fe).abs());
    }
    let max_len = paths.iter().map(Path::len).max().unwrap() as f64;
    let mut step = 1.0 / (curv_max * max_len * max_len + 1e-9).max(1e-9);

    let mut grad = vec![0.0f64; n];
    let mut iterations = 0;
    let objective = |edge: &[f64]| -> f64 {
        inst.latencies()
            .iter()
            .zip(edge)
            .map(|(l, &x)| model.edge_objective(l, x))
            .sum()
    };
    let mut best_obj = objective(&edge);

    for it in 0..iters {
        iterations = it + 1;
        edge_of(&h, &mut edge);
        // Path gradients = sum of edge gradients along the path.
        let edge_grad: Vec<f64> = inst
            .latencies()
            .iter()
            .zip(&edge)
            .map(|(l, &x)| model.edge_gradient(l, x))
            .collect();
        for (gp, p) in grad.iter_mut().zip(&paths) {
            *gp = p.cost(&edge_grad);
        }
        // Gradient step + simplex projection.
        let proposal: Vec<f64> = h.iter().zip(&grad).map(|(hp, gp)| hp - step * gp).collect();
        let projected = project_simplex(&proposal, demand.rate);
        // Backtrack if the objective worsened (cheap safeguard).
        let mut trial_edge = vec![0.0; m];
        {
            let tmp_h = &projected;
            trial_edge.iter_mut().for_each(|x| *x = 0.0);
            for (p, &hp) in paths.iter().zip(tmp_h.iter()) {
                for &e in p.edges() {
                    trial_edge[e.idx()] += hp;
                }
            }
        }
        let obj = objective(&trial_edge);
        if obj <= best_obj + 1e-15 {
            h = projected;
            best_obj = obj;
        } else {
            step *= 0.5;
            if step < 1e-18 {
                break;
            }
        }
    }
    edge_of(&h, &mut edge);
    PgdResult {
        paths,
        path_flows: h,
        flow: EdgeFlow(edge.clone()),
        objective: objective(&edge),
        iterations,
    }
}

/// Euclidean projection of `v` onto the simplex `{x ≥ 0, Σx = total}`
/// (Held–Wolfe–Crowder / sort-based algorithm).
pub fn project_simplex(v: &[f64], total: f64) -> Vec<f64> {
    assert!(total >= 0.0);
    let mut u: Vec<f64> = v.to_vec();
    u.sort_by(|a, b| b.total_cmp(a));
    let mut css = 0.0;
    let mut rho = 0;
    let mut theta = 0.0;
    for (i, &ui) in u.iter().enumerate() {
        css += ui;
        let t = (css - total) / (i as f64 + 1.0);
        if ui - t > 0.0 {
            rho = i;
            theta = t;
        }
    }
    let _ = rho;
    v.iter().map(|&x| (x - theta).max(0.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::LatencyFn;
    use sopt_network::graph::NodeId;
    use sopt_network::instance::NetworkInstance;
    use sopt_network::DiGraph;

    #[test]
    fn simplex_projection_basics() {
        let p = project_simplex(&[0.5, 0.5], 1.0);
        assert!((p[0] - 0.5).abs() < 1e-12);
        let p = project_simplex(&[2.0, 0.0], 1.0);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!((p[1] - 0.0).abs() < 1e-12);
        let p = project_simplex(&[1.0, 1.0, 1.0], 3.0);
        assert!(p.iter().all(|x| (x - 1.0).abs() < 1e-12));
        // Sums correct even with negatives.
        let p = project_simplex(&[-1.0, 0.2, 0.4], 1.0);
        let s: f64 = p.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn pigou_by_pgd() {
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
        let nash = path_equilibrium(&inst, CostModel::Wardrop, 10, 20_000);
        // Identity edge takes (almost) everything.
        let id_edge = nash.flow.0[0].max(nash.flow.0[1]);
        assert!(id_edge > 1.0 - 1e-4, "{:?}", nash.flow);
        let opt = path_equilibrium(&inst, CostModel::SystemOptimum, 10, 20_000);
        assert!((inst.cost(opt.flow.as_slice()) - 0.75).abs() < 1e-6);
    }

    #[test]
    fn braess_by_pgd_matches_closed_form() {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(2), NodeId(3));
        let inst = NetworkInstance::new(
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
        );
        let so = path_equilibrium(&inst, CostModel::SystemOptimum, 10, 50_000);
        assert!(
            (inst.cost(so.flow.as_slice()) - 1.5).abs() < 1e-5,
            "{}",
            inst.cost(so.flow.as_slice())
        );
    }
}
