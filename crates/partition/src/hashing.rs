//! Hash partitioning: `hash(vertex id) mod k`.

use blockpart_types::{mix64, ShardId};

use crate::partition::Partition;
use crate::traits::{PartitionRequest, Partitioner};

/// The paper's baseline: assign each vertex to `hash(id) mod k`.
///
/// Placement depends only on the vertex's stable identifier, so a vertex
/// never moves once assigned — the method has zero *moves* by construction
/// and (for a uniform hash) optimum static balance, at the cost of an
/// edge-cut that approaches `1 − 1/k` on graphs without locality.
///
/// # Examples
///
/// ```
/// use blockpart_graph::Csr;
/// use blockpart_partition::{HashPartitioner, PartitionRequest, Partitioner};
/// use blockpart_types::ShardCount;
///
/// let csr = Csr::from_edges(4, &[(0, 1, 1), (2, 3, 1)]);
/// let ids = [100u64, 200, 300, 400];
/// let mut h = HashPartitioner::new();
/// let p1 = h.partition(&PartitionRequest::new(&csr, ShardCount::TWO).with_stable_ids(&ids));
/// let p2 = h.partition(&PartitionRequest::new(&csr, ShardCount::TWO).with_stable_ids(&ids));
/// assert_eq!(p1, p2); // deterministic
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct HashPartitioner {
    _private: (),
}

impl HashPartitioner {
    /// Creates the hash partitioner.
    pub fn new() -> Self {
        HashPartitioner::default()
    }

    /// The shard a stable id maps to under `k` shards.
    ///
    /// Exposed so the simulator can place brand-new vertices consistently
    /// with a full repartition.
    pub fn shard_for_id(id: u64, k: blockpart_types::ShardCount) -> ShardId {
        ShardId::new((mix64(id) % u64::from(k.get())) as u16)
    }
}

impl Partitioner for HashPartitioner {
    fn name(&self) -> &str {
        "hash"
    }

    fn partition(&mut self, req: &PartitionRequest<'_>) -> Partition {
        let n = req.csr.node_count();
        let assignment: Vec<u16> = (0..n)
            .map(|v| Self::shard_for_id(req.stable_id(v), req.k).as_u16())
            .collect();
        Partition::from_assignment(assignment, req.k).expect("hash shard always < k")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpart_graph::Csr;
    use blockpart_types::ShardCount;

    #[test]
    fn assignment_is_stable_under_graph_growth() {
        // The same stable id must land on the same shard regardless of how
        // many other vertices exist — the "zero moves" property.
        let k = ShardCount::new(4).unwrap();
        let small = Csr::from_edges(2, &[(0, 1, 1)]);
        let big = Csr::from_edges(5, &[(0, 1, 1), (3, 4, 1)]);
        let ids_small = [111u64, 222];
        let ids_big = [111u64, 222, 333, 444, 555];
        let mut h = HashPartitioner::new();
        let p_small = h.partition(&PartitionRequest::new(&small, k).with_stable_ids(&ids_small));
        let p_big = h.partition(&PartitionRequest::new(&big, k).with_stable_ids(&ids_big));
        assert_eq!(p_small.shard_of(0), p_big.shard_of(0));
        assert_eq!(p_small.shard_of(1), p_big.shard_of(1));
    }

    #[test]
    fn balance_is_near_uniform() {
        let n = 8_000usize;
        let csr = Csr::from_edges(n, &[]);
        let ids: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let k = ShardCount::new(8).unwrap();
        let mut h = HashPartitioner::new();
        let p = h.partition(&PartitionRequest::new(&csr, k).with_stable_ids(&ids));
        for &size in &p.shard_sizes() {
            assert!((800..1200).contains(&size), "sizes: {:?}", p.shard_sizes());
        }
    }

    #[test]
    fn works_without_stable_ids() {
        let csr = Csr::from_edges(3, &[(0, 1, 1)]);
        let mut h = HashPartitioner::new();
        let p = h.partition(&PartitionRequest::new(&csr, ShardCount::TWO));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn shard_for_id_matches_partition() {
        let k = ShardCount::new(4).unwrap();
        let csr = Csr::from_edges(1, &[]);
        let ids = [0xdead_beefu64];
        let mut h = HashPartitioner::new();
        let p = h.partition(&PartitionRequest::new(&csr, k).with_stable_ids(&ids));
        assert_eq!(p.shard_of(0), HashPartitioner::shard_for_id(ids[0], k));
    }
}
