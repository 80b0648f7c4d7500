//! Incremental construction of blockchain graphs.

use std::collections::HashMap;

use blockpart_types::{AccountKind, Address};

use crate::csr::merge_rows;
use crate::graph::Graph;
use crate::node::NodeId;

/// Builds a [`Graph`] by accumulating interactions between addresses.
///
/// Addresses are interned to dense [`NodeId`]s in first-appearance order.
/// Parallel edges merge by summing their weights — the paper's edge weight
/// is exactly "how many times this interaction happened". Vertex weights
/// accumulate *activity* (by default, one unit per interaction endpoint;
/// callers may add extra weight, e.g. gas consumed).
///
/// Interactions are kept as one flat list of directed `(source, target,
/// weight)` records; [`build`](Self::build) sorts it and merges the
/// parallel edges, so no per-vertex map is ever allocated.
///
/// # Examples
///
/// ```
/// use blockpart_graph::GraphBuilder;
/// use blockpart_types::Address;
///
/// let mut b = GraphBuilder::new();
/// let (u, v) = (Address::from_index(0), Address::from_index(1));
/// b.add_interaction(u, v, 1);
/// b.add_interaction(u, v, 2); // merges into one edge of weight 3
/// let g = b.build();
/// assert_eq!(g.edge_count(), 1);
/// assert_eq!(g.total_edge_weight(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    /// Keeps SipHash: addresses can come from a trace file.
    index: HashMap<Address, NodeId>,
    addresses: Vec<Address>,
    kinds: Vec<AccountKind>,
    weights: Vec<u64>,
    /// Every recorded interaction between distinct vertices, unmerged.
    edges: Vec<(u32, u32, u64)>,
    total_edge_weight: u64,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder sized for roughly `nodes` vertices.
    pub fn with_capacity(nodes: usize) -> Self {
        GraphBuilder {
            index: HashMap::with_capacity(nodes),
            addresses: Vec::with_capacity(nodes),
            kinds: Vec::with_capacity(nodes),
            weights: Vec::with_capacity(nodes),
            edges: Vec::new(),
            total_edge_weight: 0,
        }
    }

    /// Number of interned vertices so far.
    pub fn node_count(&self) -> usize {
        self.addresses.len()
    }

    /// Interns `address`, marking it as `kind`, and returns its node id.
    ///
    /// A vertex first seen as [`AccountKind::ExternallyOwned`] is upgraded
    /// to [`AccountKind::Contract`] if later touched as a contract (the
    /// reverse never happens: contracts cannot become accounts).
    pub fn touch(&mut self, address: Address, kind: AccountKind) -> NodeId {
        let id = self.intern(address);
        if kind.is_contract() {
            self.kinds[id.index()] = AccountKind::Contract;
        }
        id
    }

    /// Looks up the node id of `address` without interning it.
    pub fn node_of(&self, address: Address) -> Option<NodeId> {
        self.index.get(&address).copied()
    }

    /// Adds `extra` activity weight to `address` (interning it if new).
    pub fn add_node_weight(&mut self, address: Address, extra: u64) -> NodeId {
        let id = self.intern(address);
        self.weights[id.index()] += extra;
        id
    }

    /// Records `count` interactions from `from` to `to`.
    ///
    /// Both endpoints gain `count` units of activity weight; the directed
    /// edge weight increases by `count`. Self-interactions are recorded on
    /// the vertex weight but produce no edge (the partition metrics ignore
    /// self-loops — a self-call can never cross shards).
    pub fn add_interaction(&mut self, from: Address, to: Address, count: u64) {
        let u = self.intern(from);
        let v = self.intern(to);
        self.add_edge(u, v, count);
    }

    /// [`add_interaction`](Self::add_interaction) between interned ids.
    pub(crate) fn add_edge(&mut self, u: NodeId, v: NodeId, count: u64) {
        self.weights[u.index()] += count;
        if u == v {
            return;
        }
        self.weights[v.index()] += count;
        self.edges.push((u.as_u32(), v.as_u32(), count));
        self.total_edge_weight += count;
    }

    /// Freezes the builder into an immutable [`Graph`].
    ///
    /// Sorts the interaction records by `(source, target)` and sums each
    /// run of equal pairs into one edge, as [`Csr::from_half_edges`]
    /// does, so every adjacency list comes out sorted by target id.
    ///
    /// [`Csr::from_half_edges`]: crate::Csr::from_half_edges
    pub fn build(self) -> Graph {
        let (offsets, targets, edge_weights) = merge_rows(self.addresses.len(), self.edges);
        Graph::from_parts(
            self.addresses,
            self.kinds,
            self.weights,
            offsets,
            targets.into_iter().map(NodeId::new).collect(),
            edge_weights,
            self.total_edge_weight,
            self.index,
        )
    }

    fn intern(&mut self, address: Address) -> NodeId {
        if let Some(&id) = self.index.get(&address) {
            return id;
        }
        let id = NodeId::new(
            u32::try_from(self.addresses.len()).expect("graph exceeds u32 vertex capacity"),
        );
        self.index.insert(address, id);
        self.addresses.push(address);
        self.kinds.push(AccountKind::ExternallyOwned);
        self.weights.push(0);
        id
    }
}

impl Extend<(Address, Address, u64)> for GraphBuilder {
    fn extend<I: IntoIterator<Item = (Address, Address, u64)>>(&mut self, iter: I) {
        for (from, to, count) in iter {
            self.add_interaction(from, to, count);
        }
    }
}

impl FromIterator<(Address, Address, u64)> for GraphBuilder {
    fn from_iter<I: IntoIterator<Item = (Address, Address, u64)>>(iter: I) -> Self {
        let mut b = GraphBuilder::new();
        b.extend(iter);
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    #[test]
    fn interning_is_first_appearance_order() {
        let mut b = GraphBuilder::new();
        b.add_interaction(addr(10), addr(20), 1);
        b.add_interaction(addr(30), addr(10), 1);
        let g = b.build();
        assert_eq!(g.address(NodeId::new(0)), addr(10));
        assert_eq!(g.address(NodeId::new(1)), addr(20));
        assert_eq!(g.address(NodeId::new(2)), addr(30));
    }

    #[test]
    fn parallel_edges_merge() {
        let mut b = GraphBuilder::new();
        b.add_interaction(addr(0), addr(1), 1);
        b.add_interaction(addr(0), addr(1), 4);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.total_edge_weight(), 5);
    }

    #[test]
    fn self_loop_only_adds_vertex_weight() {
        let mut b = GraphBuilder::new();
        b.add_interaction(addr(0), addr(0), 3);
        let g = b.build();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.node_weight(NodeId::new(0)), 3);
    }

    #[test]
    fn kind_upgrade_is_one_way() {
        let mut b = GraphBuilder::new();
        let a = addr(7);
        b.touch(a, AccountKind::ExternallyOwned);
        b.touch(a, AccountKind::Contract);
        b.touch(a, AccountKind::ExternallyOwned); // must not downgrade
        let g = b.build();
        assert_eq!(g.kind(NodeId::new(0)), AccountKind::Contract);
    }

    #[test]
    fn activity_counts_both_endpoints() {
        let mut b = GraphBuilder::new();
        b.add_interaction(addr(0), addr(1), 2);
        let g = b.build();
        assert_eq!(g.node_weight(NodeId::new(0)), 2);
        assert_eq!(g.node_weight(NodeId::new(1)), 2);
    }

    #[test]
    fn collect_from_iterator() {
        let b: GraphBuilder = vec![(addr(0), addr(1), 1u64), (addr(1), addr(2), 2)]
            .into_iter()
            .collect();
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn adjacency_is_sorted() {
        let mut b = GraphBuilder::new();
        b.add_interaction(addr(0), addr(9), 1);
        b.add_interaction(addr(0), addr(5), 1);
        b.add_interaction(addr(0), addr(7), 1);
        let g = b.build();
        let ts: Vec<u32> = g
            .out_edges(NodeId::new(0))
            .map(|e| e.target.as_u32())
            .collect();
        let mut sorted = ts.clone();
        sorted.sort_unstable();
        assert_eq!(ts, sorted);
    }
}
