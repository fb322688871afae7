//! Path-based equilibration polish — the tail-convergence engine behind
//! [`crate::frank_wolfe`].
//!
//! Frank–Wolfe methods (plain or conjugate) converge sublinearly and can
//! stall around 1e-6 relative gap when the optimum sits on a low-dimensional
//! face (classic zigzagging). The classical cure is *column generation over
//! paths with pairwise equilibration* (restricted simplicial decomposition
//! in path space):
//!
//! 1. decompose the current flow into paths per commodity;
//! 2. repeatedly shift flow from the most expensive loaded path to the
//!    cheapest known path of the same commodity — each shift is an exact
//!    1-D convex minimisation (bisection on the derivative over the
//!    symmetric-difference edges);
//! 3. generate new shortest paths (Dijkstra columns) as the gradient moves;
//! 4. stop at the target relative gap.
//!
//! Linearly convergent in practice; the Frank–Wolfe phase supplies a warm
//! start and the path set.

use std::collections::HashMap;

use sopt_latency::{Latency, LatencyFn};
use sopt_network::csr::{Csr, RevCsr, SpWorkspace};
use sopt_network::flow::{decompose, EdgeFlow};
use sopt_network::graph::{EdgeId, NodeId};
use sopt_network::DiGraph;

use crate::aon::timed_shortest_to;
use crate::eval::Eval;
use crate::objective::CostModel;
use crate::roots::bisect_root;

/// Outcome of [`polish_with`].
#[derive(Clone, Copy, Debug)]
pub struct PolishResult {
    /// Final relative gap.
    pub rel_gap: f64,
    /// Whether the target gap was reached.
    pub converged: bool,
    /// Column-generation rounds performed.
    pub rounds: usize,
}

/// Flow below this fraction of the commodity rate is treated as an empty path.
const H_EPS_REL: f64 = 1e-14;

/// One commodity's path-flow state.
struct PathState {
    source: NodeId,
    sink: NodeId,
    rate: f64,
    /// Edge lists of known paths.
    paths: Vec<Vec<EdgeId>>,
    /// Flow per known path.
    flows: Vec<f64>,
    /// Path identity for column generation.
    index: HashMap<Vec<EdgeId>, usize>,
}

impl PathState {
    fn add_path(&mut self, edges: Vec<EdgeId>) -> usize {
        if let Some(&i) = self.index.get(&edges) {
            return i;
        }
        let i = self.paths.len();
        self.index.insert(edges.clone(), i);
        self.paths.push(edges);
        self.flows.push(0.0);
        i
    }
}

/// Polish per-commodity edge flows toward the exact equilibrium of `model`.
/// `per` is updated in place; the result carries the achieved relative gap.
///
/// Runs over a caller-owned CSR view and Dijkstra workspace (the
/// Frank–Wolfe solver hands in its own, so the polish phase shares the
/// solve's buffers). Column generation runs its single-sink queries in
/// `SpMode::Auto` (bidirectional over `rcsr` when the graph is large
/// enough), and the O(m) cost sweeps route through `eval`'s batch
/// lanes.
#[allow(clippy::too_many_arguments)]
pub fn polish_with(
    csr: &Csr,
    rcsr: &RevCsr,
    sp: &mut SpWorkspace,
    graph: &DiGraph,
    eval: &Eval,
    demands: &[(NodeId, NodeId, f64)],
    model: CostModel,
    per: &mut [EdgeFlow],
    target_rel_gap: f64,
    max_rounds: usize,
) -> PolishResult {
    let m = graph.num_edges();
    let latencies = eval.latencies();
    assert_eq!(per.len(), demands.len());

    // Path-decompose the warm start (circulations are dropped: they carry no
    // s→t value and only add cost).
    let mut states: Vec<PathState> = Vec::with_capacity(demands.len());
    for (flow, &(source, sink, rate)) in per.iter().zip(demands) {
        let mut st = PathState {
            source,
            sink,
            rate,
            paths: Vec::new(),
            flows: Vec::new(),
            index: HashMap::new(),
        };
        if rate > 0.0 {
            let d = decompose(graph, flow, source, sink);
            for (p, a) in d.paths {
                let i = st.add_path(p.edges().to_vec());
                st.flows[i] += a;
            }
            // Decomposition tolerance: rescale to the exact rate.
            let tot: f64 = st.flows.iter().sum();
            if tot > 0.0 {
                let scale = rate / tot;
                st.flows.iter_mut().for_each(|h| *h *= scale);
            }
        }
        states.push(st);
    }

    // Combined edge flow.
    let mut f = vec![0.0f64; m];
    for st in &states {
        for (p, &h) in st.paths.iter().zip(&st.flows) {
            for e in p {
                f[e.idx()] += h;
            }
        }
    }

    let grad_edge = |f: &[f64], e: usize| model.edge_gradient(&latencies[e], f[e].max(0.0));

    let mut rel_gap = f64::INFINITY;
    let mut converged = false;
    let mut rounds = 0;
    // One cost buffer for every round (no per-round allocation).
    let mut costs = vec![0.0f64; m];

    // A positive demand whose start decomposes to nothing (every path
    // below the absolute `FLOW_EPS`, as at tiny rates) starts on its
    // shortest path at the current costs. Left empty, it would carry no
    // flow, and the gap of an all-zero flow reads 0/0, which the check
    // below takes for convergence.
    for st in &mut states {
        if st.rate <= 0.0 || !st.paths.is_empty() {
            continue;
        }
        eval.gradient_into(model, &f, &mut costs);
        if timed_shortest_to(csr, rcsr, sp, &costs, st.source, st.sink).is_none() {
            continue;
        }
        if let Some(edges) = sp.st_path_edges(csr, Some(rcsr)) {
            for e in &edges {
                f[e.idx()] += st.rate;
            }
            let i = st.add_path(edges);
            st.flows[i] = st.rate;
        }
    }

    for round in 0..max_rounds {
        rounds = round + 1;
        // Column generation + gap measurement at the current point. Path
        // arithmetic keeps `f` nonnegative (transfers clamp at zero), so
        // the batched sweep agrees with the clamped `grad_edge`.
        eval.gradient_into(model, &f, &mut costs);
        let cf: f64 = costs.iter().zip(&f).map(|(c, x)| c * x).sum();
        let mut cy = 0.0;
        for st in &mut states {
            if st.rate <= 0.0 {
                continue;
            }
            match timed_shortest_to(csr, rcsr, sp, &costs, st.source, st.sink) {
                Some(dist) => {
                    cy += st.rate * dist;
                    if let Some(edges) = sp.st_path_edges(csr, Some(rcsr)) {
                        st.add_path(edges);
                    }
                }
                // Unreachable under the current costs: mirror the full
                // sweep's infinite label (the gap check then fails and the
                // round budget runs out instead of panicking).
                None => cy += st.rate * f64::INFINITY,
            }
        }
        rel_gap = if cf.abs() > 1e-300 {
            (cf - cy) / cf
        } else {
            0.0
        };
        if rel_gap <= target_rel_gap {
            converged = true;
            break;
        }

        // Equilibration sweeps: pairwise exact transfers per commodity.
        for st in &mut states {
            if st.rate <= 0.0 || st.paths.len() < 2 {
                continue;
            }
            let h_eps = H_EPS_REL * st.rate.max(1.0);
            // A few passes of most-expensive → cheapest transfers.
            for _ in 0..(2 * st.paths.len()).max(8) {
                // Current path costs under the live gradient.
                let cost_of = |p: &Vec<EdgeId>, f: &[f64]| -> f64 {
                    p.iter().map(|e| grad_edge(f, e.idx())).sum()
                };
                let mut hi: Option<(usize, f64)> = None;
                let mut lo: Option<(usize, f64)> = None;
                for (i, p) in st.paths.iter().enumerate() {
                    let c = cost_of(p, &f);
                    if st.flows[i] > h_eps && hi.map(|(_, ch)| c > ch).unwrap_or(true) {
                        hi = Some((i, c));
                    }
                    if lo.map(|(_, cl)| c < cl).unwrap_or(true) {
                        lo = Some((i, c));
                    }
                }
                let (Some((ip, cp)), Some((iq, cq))) = (hi, lo) else {
                    break;
                };
                if ip == iq || cp - cq <= 1e-16 * cp.abs().max(1.0) {
                    break;
                }
                transfer(
                    latencies,
                    model,
                    &st.paths[ip].clone(),
                    &st.paths[iq].clone(),
                    &mut st.flows,
                    ip,
                    iq,
                    &mut f,
                );
            }
        }
    }

    // Write back per-commodity edge flows.
    for (flow, st) in per.iter_mut().zip(&states) {
        flow.0.iter_mut().for_each(|x| *x = 0.0);
        for (p, &h) in st.paths.iter().zip(&st.flows) {
            for e in p {
                flow.0[e.idx()] += h;
            }
        }
    }

    PolishResult {
        rel_gap,
        converged,
        rounds,
    }
}

/// Exact 1-D transfer of flow from path `ip` to path `iq`: minimise the
/// objective along `δ ∈ [0, δ_max]` by bisecting its derivative over the
/// symmetric-difference edges.
#[allow(clippy::too_many_arguments)]
fn transfer(
    latencies: &[LatencyFn],
    model: CostModel,
    p: &[EdgeId],
    q: &[EdgeId],
    flows: &mut [f64],
    ip: usize,
    iq: usize,
    f: &mut [f64],
) {
    // Symmetric difference (multiset-aware: paths are simple, so sets).
    let in_q: std::collections::HashSet<EdgeId> = q.iter().copied().collect();
    let in_p: std::collections::HashSet<EdgeId> = p.iter().copied().collect();
    let d_minus: Vec<usize> = p
        .iter()
        .filter(|e| !in_q.contains(e))
        .map(|e| e.idx())
        .collect();
    let d_plus: Vec<usize> = q
        .iter()
        .filter(|e| !in_p.contains(e))
        .map(|e| e.idx())
        .collect();
    if d_minus.is_empty() && d_plus.is_empty() {
        return;
    }

    let mut delta_max = flows[ip];
    // Respect finite capacities on the receiving edges.
    for &e in &d_plus {
        let cap = latencies[e].capacity();
        if cap.is_finite() {
            delta_max = delta_max.min((cap * 0.999_999 - f[e]).max(0.0));
        }
    }
    if delta_max <= 0.0 {
        return;
    }

    let dphi = |delta: f64| -> f64 {
        let mut v = 0.0;
        for &e in &d_plus {
            v += model.edge_gradient(&latencies[e], (f[e] + delta).max(0.0));
        }
        for &e in &d_minus {
            v -= model.edge_gradient(&latencies[e], (f[e] - delta).max(0.0));
        }
        v
    };
    if dphi(0.0) >= 0.0 {
        return; // not profitable
    }
    let delta = if dphi(delta_max) <= 0.0 {
        delta_max
    } else {
        bisect_root(0.0, delta_max, 0.0, dphi)
    };
    if delta <= 0.0 {
        return;
    }
    flows[ip] = (flows[ip] - delta).max(0.0);
    flows[iq] += delta;
    for &e in &d_minus {
        f[e] = (f[e] - delta).max(0.0);
    }
    for &e in &d_plus {
        f[e] += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sopt_latency::LatencyFn;

    /// Polish `per` toward `model`'s equilibrium of `rate` units over the
    /// classic Braess graph, on fresh CSR views and workspace.
    fn polish_braess(rate: f64, model: CostModel, per: &mut [EdgeFlow], gap: f64) -> PolishResult {
        let mut g = DiGraph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(0), NodeId(2));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(1), NodeId(3));
        g.add_edge(NodeId(2), NodeId(3));
        let lats = vec![
            LatencyFn::identity(),
            LatencyFn::constant(1.0),
            LatencyFn::constant(0.0),
            LatencyFn::constant(1.0),
            LatencyFn::identity(),
        ];
        let demands = [(NodeId(0), NodeId(3), rate)];
        let eval = Eval::new(&lats, None);
        let rcsr = RevCsr::new(&g);
        let mut sp = SpWorkspace::new();
        polish_with(
            &Csr::new(&g),
            &rcsr,
            &mut sp,
            &g,
            &eval,
            &demands,
            model,
            per,
            gap,
            200,
        )
    }

    #[test]
    fn polishes_uniform_start_to_nash() {
        // Start far from equilibrium: everything on the outer path s→v→t.
        let mut per = vec![EdgeFlow(vec![1.0, 0.0, 0.0, 1.0, 0.0])];
        let r = polish_braess(1.0, CostModel::Wardrop, &mut per, 1e-12);
        assert!(r.converged, "gap {}", r.rel_gap);
        // Nash floods the middle path (flow accuracy ~ √gap for linear
        // latencies; the cost is exact to the gap).
        assert!((per[0].0[2] - 1.0).abs() < 1e-5, "{:?}", per[0]);
    }

    #[test]
    fn polishes_to_system_optimum() {
        let mut per = vec![EdgeFlow(vec![1.0, 0.0, 1.0, 0.0, 1.0])];
        let r = polish_braess(1.0, CostModel::SystemOptimum, &mut per, 1e-12);
        assert!(r.converged, "gap {}", r.rel_gap);
        // Optimum avoids the middle edge: (0.5, 0.5, 0, 0.5, 0.5).
        assert!(per[0].0[2].abs() < 1e-5, "{:?}", per[0]);
        assert!((per[0].0[0] - 0.5).abs() < 1e-5);
    }

    #[test]
    fn zero_rate_is_noop() {
        let mut per = vec![EdgeFlow::zeros(5)];
        let r = polish_braess(0.0, CostModel::Wardrop, &mut per, 1e-10);
        assert!(r.converged);
        assert!(per[0].0.iter().all(|x| *x == 0.0));
    }
}
