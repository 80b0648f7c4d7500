//! The difference between two vertex→shard assignments: which addresses
//! move, grouped by (source, destination) shard pair.
//!
//! Both consumers of "vertices moved" go through this type so they can
//! never disagree: the offline simulator derives its per-window `moves`
//! metric from a delta, and the live repartitioning service turns the
//! same delta into actual 2PC state-migration batches.

use std::collections::BTreeMap;

use blockpart_types::{Address, ShardId};
use serde::{Deserialize, Serialize};

/// Moved addresses grouped by `(from, to)` shard pair, each group sorted
/// by address. Construction is order-insensitive, so deltas computed
/// from hash maps are still deterministic.
///
/// # Examples
///
/// ```
/// use blockpart_shard::AssignmentDelta;
/// use blockpart_types::{Address, ShardId};
///
/// let a = Address::from_index(1);
/// let delta = AssignmentDelta::between(
///     [a],
///     |_| ShardId::new(0),
///     |_| ShardId::new(1),
/// );
/// assert_eq!(delta.total_moved(), 1);
/// assert_eq!(delta.pairs().next().unwrap().0, (ShardId::new(0), ShardId::new(1)));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssignmentDelta {
    moves: BTreeMap<(ShardId, ShardId), Vec<Address>>,
}

impl AssignmentDelta {
    /// Computes the delta over `addresses`: every address whose shard
    /// under `new` differs from its shard under `old` is recorded as a
    /// move. Duplicate addresses are considered once.
    pub fn between(
        addresses: impl IntoIterator<Item = Address>,
        old: impl Fn(Address) -> ShardId,
        new: impl Fn(Address) -> ShardId,
    ) -> Self {
        Self::from_moves(addresses.into_iter().map(|a| (a, old(a), new(a))))
    }

    /// Collects the delta from `(address, from, to)` triples: a triple
    /// whose shards differ is a move. Duplicate addresses are considered
    /// once.
    pub(crate) fn from_moves(
        triples: impl IntoIterator<Item = (Address, ShardId, ShardId)>,
    ) -> Self {
        let mut moves: BTreeMap<(ShardId, ShardId), Vec<Address>> = BTreeMap::new();
        for (a, from, to) in triples {
            if from != to {
                moves.entry((from, to)).or_default().push(a);
            }
        }
        for group in moves.values_mut() {
            group.sort_unstable();
            group.dedup();
        }
        Self { moves }
    }

    /// Returns `true` when nothing moves.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Total number of moved addresses.
    pub fn total_moved(&self) -> u64 {
        self.moves.values().map(|g| g.len() as u64).sum()
    }

    /// The `(from, to)` groups in ascending shard-pair order.
    pub fn pairs(&self) -> impl Iterator<Item = ((ShardId, ShardId), &[Address])> {
        self.moves
            .iter()
            .map(|(&pair, group)| (pair, group.as_slice()))
    }

    /// Every moved address with its `(from, to)` pair, in pair-major,
    /// address-minor order.
    pub fn moves(&self) -> impl Iterator<Item = (Address, ShardId, ShardId)> + '_ {
        self.moves
            .iter()
            .flat_map(|(&(from, to), group)| group.iter().map(move |&a| (a, from, to)))
    }

    /// Splits the delta into migration batches of at most
    /// `batch_accounts` addresses, each within one `(from, to)` pair —
    /// the unit a live migration ships through one 2PC round.
    ///
    /// # Panics
    ///
    /// Panics if `batch_accounts` is zero.
    pub fn batches(&self, batch_accounts: usize) -> Vec<MigrationBatch> {
        assert!(batch_accounts > 0, "batch size must be non-zero");
        let mut out = Vec::new();
        for (&(from, to), group) in &self.moves {
            for chunk in group.chunks(batch_accounts) {
                out.push(MigrationBatch {
                    from,
                    to,
                    addrs: chunk.to_vec(),
                });
            }
        }
        out
    }
}

/// One unit of live state migration: a bounded set of addresses leaving
/// `from` for `to` in a single prepare/commit round.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationBatch {
    /// Source shard (current owner of the state).
    pub from: ShardId,
    /// Destination shard (owner under the new assignment).
    pub to: ShardId,
    /// Addresses moving, sorted.
    pub addrs: Vec<Address>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn shard(i: u16) -> ShardId {
        ShardId::new(i)
    }

    #[test]
    fn identical_assignments_produce_empty_delta() {
        let delta = AssignmentDelta::between((0..10).map(addr), |_| shard(0), |_| shard(0));
        assert!(delta.is_empty());
        assert_eq!(delta.total_moved(), 0);
        assert!(delta.batches(4).is_empty());
    }

    #[test]
    fn moves_group_by_shard_pair_and_sort() {
        // even addresses move 0→1, odd addresses move 1→2; feed them in
        // descending order to prove the delta sorts
        let delta = AssignmentDelta::between(
            (0..8).rev().map(addr),
            |a| shard((a.index() % 2) as u16),
            |a| shard((a.index() % 2) as u16 + 1),
        );
        assert_eq!(delta.total_moved(), 8);
        let pairs: Vec<_> = delta.pairs().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0].0, (shard(0), shard(1)));
        assert_eq!(pairs[1].0, (shard(1), shard(2)));
        for (_, group) in pairs {
            assert!(group.windows(2).all(|w| w[0] < w[1]), "sorted {group:?}");
        }
    }

    #[test]
    fn duplicates_count_once() {
        let delta =
            AssignmentDelta::between([addr(3), addr(3), addr(3)], |_| shard(0), |_| shard(1));
        assert_eq!(delta.total_moved(), 1);
    }

    #[test]
    fn batches_respect_pair_boundaries_and_size() {
        let delta = AssignmentDelta::between(
            (0..10).map(addr),
            |a| shard((a.index() % 2) as u16),
            |a| shard(((a.index() % 2) + 1) as u16),
        );
        let batches = delta.batches(2);
        assert_eq!(batches.len(), 6); // 5 per pair → 3 chunks of ≤2 each
        for b in &batches {
            assert!(b.addrs.len() <= 2);
            assert_ne!(b.from, b.to);
        }
        let total: usize = batches.iter().map(|b| b.addrs.len()).sum();
        assert_eq!(total as u64, delta.total_moved());
    }

    #[test]
    fn order_insensitive_construction() {
        let forward = AssignmentDelta::between(
            (0..16).map(addr),
            |a| shard((a.index() % 3) as u16),
            |a| shard((a.index() % 4) as u16),
        );
        let reverse = AssignmentDelta::between(
            (0..16).rev().map(addr),
            |a| shard((a.index() % 3) as u16),
            |a| shard((a.index() % 4) as u16),
        );
        assert_eq!(forward, reverse);
    }
}
