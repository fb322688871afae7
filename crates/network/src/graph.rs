//! Directed multigraphs with stable integer ids.

use std::fmt;

/// A node handle — index into the graph's node range.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// An edge handle — index into the graph's edge list. Parallel edges are
/// allowed (they are distinct `EdgeId`s with equal endpoints), matching the
/// parallel-links systems of the paper when modelled as a 2-node graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The index as `usize` for slice addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The index as `usize` for slice addressing.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// The largest node count a parsed input (a network spec, a TNTP file)
/// may declare. Parsers reject larger counts before allocating the graph,
/// so one absurd header cannot abort the process on allocation failure.
/// About forty times the 25,281 nodes of the largest benchmark grid.
pub const MAX_PARSED_NODES: usize = 1_000_000;

/// A directed edge `from → to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Tail.
    pub from: NodeId,
    /// Head.
    pub to: NodeId,
}

/// A directed multigraph. No self-loops (paper §4: "no self loops are
/// allowed").
#[derive(Clone, Debug, Default)]
pub struct DiGraph {
    edges: Vec<Edge>,
    out: Vec<Vec<EdgeId>>,
    inc: Vec<Vec<EdgeId>>,
}

impl DiGraph {
    /// An empty graph with `n` isolated nodes `v0..v(n-1)`.
    pub fn with_nodes(n: usize) -> Self {
        Self {
            edges: Vec::new(),
            out: vec![Vec::new(); n],
            inc: vec![Vec::new(); n],
        }
    }

    /// Append a new isolated node.
    pub fn add_node(&mut self) -> NodeId {
        self.out.push(Vec::new());
        self.inc.push(Vec::new());
        NodeId((self.out.len() - 1) as u32)
    }

    /// Append the directed edge `from → to`. Panics on out-of-range
    /// endpoints or self-loops.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> EdgeId {
        assert!(from.idx() < self.out.len(), "node {from} out of range");
        assert!(to.idx() < self.out.len(), "node {to} out of range");
        assert_ne!(from, to, "self-loops are not allowed (paper §4)");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { from, to });
        self.out[from.idx()].push(id);
        self.inc[to.idx()].push(id);
        id
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.out.len()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The endpoints of `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e.idx()]
    }

    /// All edges, indexable by `EdgeId`.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Outgoing edge ids of `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.out[v.idx()]
    }

    /// Incoming edge ids of `v`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.inc[v.idx()]
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.num_edges() as u32).map(EdgeId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = DiGraph::with_nodes(3);
        let e0 = g.add_edge(NodeId(0), NodeId(1));
        let e1 = g.add_edge(NodeId(1), NodeId(2));
        let e2 = g.add_edge(NodeId(0), NodeId(1)); // parallel edge
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.edge(e0).to, NodeId(1));
        assert_eq!(g.out_edges(NodeId(0)), &[e0, e2]);
        assert_eq!(g.in_edges(NodeId(2)), &[e1]);
        assert_eq!(g.in_edges(NodeId(1)), &[e0, e2]);
    }

    #[test]
    fn add_node_extends() {
        let mut g = DiGraph::with_nodes(1);
        let v = g.add_node();
        assert_eq!(v, NodeId(1));
        let e = g.add_edge(NodeId(0), v);
        assert_eq!(g.edge(e).from, NodeId(0));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(NodeId(1), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_endpoint() {
        let mut g = DiGraph::with_nodes(1);
        g.add_edge(NodeId(0), NodeId(5));
    }
}
