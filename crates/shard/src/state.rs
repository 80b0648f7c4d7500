//! Incrementally-maintained sharded graph state.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use blockpart_graph::Csr;
use blockpart_partition::Partition;
use blockpart_types::{AccountKind, Address, FastMap, ShardCount, ShardId};

/// Eq. 2 balance of per-shard loads (vertex counts or activity): the
/// most loaded shard's share of the total, normalised so 1.0 is perfect.
/// Nothing loaded counts as perfect balance.
pub(crate) fn load_balance(loads: impl IntoIterator<Item = u64>) -> f64 {
    let (mut k, mut max, mut total) = (0usize, 0u64, 0u64);
    for load in loads {
        k += 1;
        max = max.max(load);
        total += load;
    }
    if total == 0 {
        return 1.0;
    }
    max as f64 * k as f64 / total as f64
}

/// The cumulative blockchain graph together with the current shard
/// assignment, maintained incrementally so that per-window metric queries
/// are O(1) and vertex moves are O(degree).
///
/// Tracks exactly the quantities of the paper's Eqs. 1–2 over the
/// cumulative graph: distinct/cut edge counts (static edge-cut), per-shard
/// vertex counts (static balance), edge weights (dynamic edge-cut) and
/// per-shard activity (dynamic balance).
///
/// Each address is interned once, on insertion, to a dense id in
/// first-seen order; shard, kind, activity and adjacency are flat vectors
/// indexed by that id.
///
/// # Examples
///
/// ```
/// use blockpart_shard::ShardedState;
/// use blockpart_types::{AccountKind, Address, ShardCount, ShardId};
///
/// let mut st = ShardedState::new(ShardCount::TWO);
/// let (a, b) = (Address::from_index(1), Address::from_index(2));
/// st.insert_vertex(a, AccountKind::ExternallyOwned, ShardId::new(0));
/// st.insert_vertex(b, AccountKind::ExternallyOwned, ShardId::new(1));
/// st.record_edge(a, b, 3);
/// assert_eq!(st.static_edge_cut(), 1.0); // the only edge is cut
/// st.move_vertex(b, ShardId::new(0));
/// assert_eq!(st.static_edge_cut(), 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct ShardedState {
    k: ShardCount,
    /// Dense id of every known address. Addresses can come from a trace
    /// file, so the map keeps std's SipHash.
    index: HashMap<Address, u32>,
    /// Addresses by id.
    order: Vec<Address>,
    shard: Vec<ShardId>,
    kinds: Vec<AccountKind>,
    activity: Vec<u64>,
    /// Symmetric adjacency: neighbour id → accumulated edge weight. The
    /// keys are ids the program assigns and every reader sums or sorts a
    /// row, so the rows use the fast hasher.
    adj: Vec<FastMap<u32, u64>>,
    shard_counts: Vec<usize>,
    shard_activity: Vec<u64>,
    cut_edges: usize,
    total_edges: usize,
    cut_weight: u64,
    total_weight: u64,
}

impl ShardedState {
    /// Creates empty state for `k` shards.
    pub fn new(k: ShardCount) -> Self {
        ShardedState {
            k,
            index: HashMap::new(),
            order: Vec::new(),
            shard: Vec::new(),
            kinds: Vec::new(),
            activity: Vec::new(),
            adj: Vec::new(),
            shard_counts: vec![0; k.as_usize()],
            shard_activity: vec![0; k.as_usize()],
            cut_edges: 0,
            total_edges: 0,
            cut_weight: 0,
            total_weight: 0,
        }
    }

    /// The shard configuration.
    pub fn shard_count(&self) -> ShardCount {
        self.k
    }

    /// Number of vertices seen so far.
    pub fn vertex_count(&self) -> usize {
        self.order.len()
    }

    /// Number of distinct undirected edges seen so far.
    pub fn edge_count(&self) -> usize {
        self.total_edges
    }

    fn id_of(&self, address: Address) -> Option<usize> {
        self.index.get(&address).map(|&id| id as usize)
    }

    /// The current shard of `address`, if assigned.
    pub fn shard_of(&self, address: Address) -> Option<ShardId> {
        self.id_of(address).map(|id| self.shard[id])
    }

    /// Returns `true` if the vertex is known.
    pub fn contains(&self, address: Address) -> bool {
        self.index.contains_key(&address)
    }

    /// The recorded kind of `address`.
    pub fn kind_of(&self, address: Address) -> Option<AccountKind> {
        self.id_of(address).map(|id| self.kinds[id])
    }

    /// Cumulative activity weight of `address`.
    pub fn activity_of(&self, address: Address) -> u64 {
        self.id_of(address).map_or(0, |id| self.activity[id])
    }

    /// Per-shard vertex counts.
    pub fn shard_counts(&self) -> &[usize] {
        &self.shard_counts
    }

    /// Per-shard cumulative activity.
    pub fn shard_activity(&self) -> &[u64] {
        &self.shard_activity
    }

    /// Registers a new vertex on `shard`.
    ///
    /// # Panics
    ///
    /// Panics if the vertex already exists or `shard >= k`.
    pub fn insert_vertex(&mut self, address: Address, kind: AccountKind, shard: ShardId) {
        assert!(self.k.contains(shard), "shard out of range");
        let id = u32::try_from(self.order.len()).expect("state exceeds u32 vertex capacity");
        let prev = self.index.insert(address, id);
        assert!(prev.is_none(), "vertex {address} inserted twice");
        self.order.push(address);
        self.shard.push(shard);
        self.kinds.push(kind);
        self.activity.push(0);
        self.adj.push(FastMap::default());
        self.shard_counts[shard.as_usize()] += 1;
    }

    /// Upgrades a known vertex to contract kind (creations can arrive
    /// after the address was first seen as a plain transfer target).
    /// Unknown addresses are ignored.
    pub fn note_kind(&mut self, address: Address, kind: AccountKind) {
        if kind.is_contract() {
            if let Some(id) = self.id_of(address) {
                self.kinds[id] = AccountKind::Contract;
            }
        }
    }

    /// Records an interaction edge of weight `w` between two *assigned*
    /// vertices, updating cut bookkeeping. Self-loops only add activity.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is unassigned.
    pub fn record_edge(&mut self, u: Address, v: Address, w: u64) {
        let iu = self.id_of(u).expect("edge source must be assigned");
        self.add_activity(iu, w);
        if u == v {
            return;
        }
        let iv = self.id_of(v).expect("edge target must be assigned");
        self.add_activity(iv, w);

        let cut = self.shard[iu] != self.shard[iv];
        match self.adj[iu].entry(iv as u32) {
            Entry::Occupied(mut weight) => *weight.get_mut() += w,
            Entry::Vacant(slot) => {
                slot.insert(w);
                self.total_edges += 1;
                if cut {
                    self.cut_edges += 1;
                }
            }
        }
        if cut {
            self.cut_weight += w;
        }
        self.total_weight += w;
        *self.adj[iv].entry(iu as u32).or_insert(0) += w;
    }

    fn add_activity(&mut self, id: usize, w: u64) {
        self.activity[id] += w;
        self.shard_activity[self.shard[id].as_usize()] += w;
    }

    /// Moves a vertex to `to`, updating cut bookkeeping in O(degree).
    /// Returns `true` if the shard actually changed.
    ///
    /// # Panics
    ///
    /// Panics if the vertex is unknown or `to >= k`.
    pub fn move_vertex(&mut self, address: Address, to: ShardId) -> bool {
        assert!(self.k.contains(to), "shard out of range");
        let id = self.id_of(address).expect("vertex must exist");
        let from = self.shard[id];
        if from == to {
            return false;
        }
        for (&n, &w) in &self.adj[id] {
            let sn = self.shard[n as usize];
            match (sn != from, sn != to) {
                (false, true) => {
                    self.cut_edges += 1;
                    self.cut_weight += w;
                }
                (true, false) => {
                    self.cut_edges -= 1;
                    self.cut_weight -= w;
                }
                _ => {}
            }
        }
        self.shard[id] = to;
        self.shard_counts[from.as_usize()] -= 1;
        self.shard_counts[to.as_usize()] += 1;
        let act = self.activity[id];
        self.shard_activity[from.as_usize()] -= act;
        self.shard_activity[to.as_usize()] += act;
        true
    }

    /// Eq. 1 over the cumulative unweighted graph.
    pub fn static_edge_cut(&self) -> f64 {
        if self.total_edges == 0 {
            0.0
        } else {
            self.cut_edges as f64 / self.total_edges as f64
        }
    }

    /// Eq. 1 over the cumulative weighted graph.
    pub fn dynamic_edge_cut(&self) -> f64 {
        if self.total_weight == 0 {
            0.0
        } else {
            self.cut_weight as f64 / self.total_weight as f64
        }
    }

    /// Eq. 2 over vertex counts.
    pub fn static_balance(&self) -> f64 {
        load_balance(self.shard_counts.iter().map(|&c| c as u64))
    }

    /// Eq. 2 over cumulative activity.
    pub fn dynamic_balance(&self) -> f64 {
        load_balance(self.shard_activity.iter().copied())
    }

    /// Builds the cumulative graph as a [`Csr`] (vertices in first-seen
    /// order) plus the matching address list, stable ids and the current
    /// assignment as a [`Partition`] — everything a
    /// [`Partitioner`](blockpart_partition::Partitioner) request needs.
    pub fn full_graph(&self) -> (Csr, Vec<Address>, Vec<u64>, Partition) {
        let mut half_edges = Vec::with_capacity(2 * self.total_edges);
        for (u, row) in self.adj.iter().enumerate() {
            half_edges.extend(row.iter().map(|(&v, &w)| (u as u32, v, w)));
        }
        let vwgt = self.activity.iter().map(|&a| a.max(1)).collect();
        let csr = Csr::from_half_edges(vwgt, half_edges);
        let ids: Vec<u64> = self.order.iter().map(|a| a.stable_hash()).collect();
        let assignment = self.shard.iter().map(|s| s.as_u16()).collect();
        let partition =
            Partition::from_assignment(assignment, self.k).expect("assignment within k");
        (csr, self.order.clone(), ids, partition)
    }

    /// A snapshot of the full vertex→shard assignment — the handoff from
    /// the partitioning simulator to the sharded execution runtime.
    pub fn assignment_map(&self) -> HashMap<Address, ShardId> {
        self.order
            .iter()
            .copied()
            .zip(self.shard.iter().copied())
            .collect()
    }

    /// The current assignment of `addresses` as a [`Partition`] (vertices
    /// in the given order).
    ///
    /// # Panics
    ///
    /// Panics if any address is unassigned.
    pub fn partition_of(&self, addresses: &[Address]) -> Partition {
        let assignment: Vec<u16> = addresses
            .iter()
            .map(|&a| self.shard_of(a).expect("address is assigned").as_u16())
            .collect();
        Partition::from_assignment(assignment, self.k).expect("assignment within k")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn two_shard_state() -> ShardedState {
        ShardedState::new(ShardCount::TWO)
    }

    #[test]
    fn insert_and_counts() {
        let mut st = two_shard_state();
        st.insert_vertex(addr(1), AccountKind::ExternallyOwned, ShardId::new(0));
        st.insert_vertex(addr(2), AccountKind::Contract, ShardId::new(1));
        assert_eq!(st.vertex_count(), 2);
        assert_eq!(st.shard_counts(), &[1, 1]);
        assert_eq!(st.kind_of(addr(2)), Some(AccountKind::Contract));
        assert!((st.static_balance() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let mut st = two_shard_state();
        st.insert_vertex(addr(1), AccountKind::ExternallyOwned, ShardId::new(0));
        st.insert_vertex(addr(1), AccountKind::ExternallyOwned, ShardId::new(1));
    }

    #[test]
    fn edge_cut_bookkeeping() {
        let mut st = two_shard_state();
        st.insert_vertex(addr(1), AccountKind::ExternallyOwned, ShardId::new(0));
        st.insert_vertex(addr(2), AccountKind::ExternallyOwned, ShardId::new(0));
        st.insert_vertex(addr(3), AccountKind::ExternallyOwned, ShardId::new(1));
        st.record_edge(addr(1), addr(2), 2); // internal
        st.record_edge(addr(2), addr(3), 3); // cut
        assert_eq!(st.edge_count(), 2);
        assert!((st.static_edge_cut() - 0.5).abs() < 1e-12);
        assert!((st.dynamic_edge_cut() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn repeated_edges_accumulate_weight_not_count() {
        let mut st = two_shard_state();
        st.insert_vertex(addr(1), AccountKind::ExternallyOwned, ShardId::new(0));
        st.insert_vertex(addr(2), AccountKind::ExternallyOwned, ShardId::new(1));
        st.record_edge(addr(1), addr(2), 1);
        st.record_edge(addr(1), addr(2), 4);
        assert_eq!(st.edge_count(), 1);
        assert!((st.dynamic_edge_cut() - 1.0).abs() < 1e-12);
        assert_eq!(st.activity_of(addr(1)), 5);
    }

    #[test]
    fn move_updates_cut_incrementally() {
        let mut st = two_shard_state();
        for i in 1..=4 {
            st.insert_vertex(
                addr(i),
                AccountKind::ExternallyOwned,
                ShardId::new((i % 2) as u16),
            );
        }
        st.record_edge(addr(1), addr(2), 1); // shards 1,0: cut
        st.record_edge(addr(1), addr(3), 1); // shards 1,1: internal
        st.record_edge(addr(2), addr(4), 1); // shards 0,0: internal
        assert_eq!(st.static_edge_cut(), 1.0 / 3.0);
        // move vertex 2 to shard 1: edge (1,2) heals, edge (2,4) cut
        assert!(st.move_vertex(addr(2), ShardId::new(1)));
        assert_eq!(st.static_edge_cut(), 1.0 / 3.0);
        // move vertex 4 too: everything on shard 1 except... 1,2,3,4 -> 1,1,1,1?
        st.move_vertex(addr(4), ShardId::new(1));
        assert_eq!(st.static_edge_cut(), 0.0);
        assert_eq!(st.shard_counts(), &[0, 4]);
    }

    #[test]
    fn move_to_same_shard_is_noop() {
        let mut st = two_shard_state();
        st.insert_vertex(addr(1), AccountKind::ExternallyOwned, ShardId::new(0));
        assert!(!st.move_vertex(addr(1), ShardId::new(0)));
    }

    #[test]
    fn self_loops_add_activity_only() {
        let mut st = two_shard_state();
        st.insert_vertex(addr(1), AccountKind::ExternallyOwned, ShardId::new(0));
        st.record_edge(addr(1), addr(1), 5);
        assert_eq!(st.edge_count(), 0);
        assert_eq!(st.activity_of(addr(1)), 5);
        assert_eq!(st.shard_activity(), &[5, 0]);
    }

    #[test]
    fn dynamic_balance_tracks_activity_moves() {
        let mut st = two_shard_state();
        st.insert_vertex(addr(1), AccountKind::ExternallyOwned, ShardId::new(0));
        st.insert_vertex(addr(2), AccountKind::ExternallyOwned, ShardId::new(0));
        st.record_edge(addr(1), addr(2), 10);
        assert!((st.dynamic_balance() - 2.0).abs() < 1e-12);
        st.move_vertex(addr(2), ShardId::new(1));
        assert!((st.dynamic_balance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_graph_matches_state() {
        let mut st = two_shard_state();
        st.insert_vertex(addr(1), AccountKind::ExternallyOwned, ShardId::new(0));
        st.insert_vertex(addr(2), AccountKind::ExternallyOwned, ShardId::new(1));
        st.insert_vertex(addr(3), AccountKind::ExternallyOwned, ShardId::new(1));
        st.record_edge(addr(1), addr(2), 2);
        st.record_edge(addr(2), addr(3), 1);
        let (csr, order, ids, part) = st.full_graph();
        csr.validate().unwrap();
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.edge_count(), 2);
        assert_eq!(order, vec![addr(1), addr(2), addr(3)]);
        assert_eq!(ids[0], addr(1).stable_hash());
        assert_eq!(part.shard_of(0), ShardId::new(0));
        assert_eq!(part.shard_of(1), ShardId::new(1));
        // metrics agree with the incremental bookkeeping
        let m = blockpart_partition::CutMetrics::compute(&csr, &part);
        assert!((m.static_edge_cut - st.static_edge_cut()).abs() < 1e-12);
        assert!((m.dynamic_edge_cut - st.dynamic_edge_cut()).abs() < 1e-12);
    }

    #[test]
    fn empty_state_metrics() {
        let st = two_shard_state();
        assert_eq!(st.static_edge_cut(), 0.0);
        assert_eq!(st.dynamic_edge_cut(), 0.0);
        assert!((st.static_balance() - 1.0).abs() < 1e-12);
        assert!((st.dynamic_balance() - 1.0).abs() < 1e-12);
    }
}
