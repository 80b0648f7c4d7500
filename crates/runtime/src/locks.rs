//! Per-shard exclusive address locks with all-or-nothing acquisition.
//!
//! The protocol is no-wait: a prepare that cannot take every lock votes
//! `no` immediately instead of queueing, which makes distributed
//! deadlock impossible (at the price of aborts, which the report
//! counts).
//!
//! The table keeps only who holds each address. A holder's locks are
//! released by naming them: every caller knows them already, since a
//! transaction locks its footprint on the shard (and a migration batch
//! its moving addresses on the destination).

use std::collections::hash_map::Entry;

use blockpart_types::{Address, FastMap};

use crate::event::TxId;

/// The lock table of one shard.
///
/// # Examples
///
/// ```
/// use blockpart_runtime::event::TxId;
/// use blockpart_runtime::locks::LockTable;
/// use blockpart_types::Address;
///
/// let mut locks = LockTable::new();
/// let (a, b) = (Address::from_index(1), Address::from_index(2));
/// assert!(locks.try_lock_all(TxId(0), &[a, b]));
/// assert!(!locks.try_lock_all(TxId(1), &[b])); // conflict
/// locks.release(TxId(0), &[a, b]);
/// assert!(locks.try_lock_all(TxId(1), &[b]));
/// ```
#[derive(Debug, Default)]
pub struct LockTable {
    held: FastMap<Address, TxId>,
}

impl LockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        LockTable::default()
    }

    /// Acquires every address for `tx`, or none of them. Re-acquiring a
    /// lock `tx` already holds is a no-op.
    pub fn try_lock_all(&mut self, tx: TxId, addrs: &[Address]) -> bool {
        if addrs
            .iter()
            .any(|a| self.held.get(a).is_some_and(|&h| h != tx))
        {
            return false;
        }
        for &a in addrs {
            self.held.insert(a, tx);
        }
        true
    }

    /// Releases each address of `addrs` that `tx` holds; addresses that
    /// are free or held by another transaction stay as they are. Passing
    /// the addresses `tx` locked releases all of its locks.
    pub fn release(&mut self, tx: TxId, addrs: &[Address]) {
        for a in addrs {
            if let Entry::Occupied(held) = self.held.entry(*a) {
                if *held.get() == tx {
                    held.remove();
                }
            }
        }
    }

    /// The transaction currently holding `addr`, if any.
    pub fn holder(&self, addr: Address) -> Option<TxId> {
        self.held.get(&addr).copied()
    }

    /// Number of currently held locks.
    pub fn held_count(&self) -> usize {
        self.held.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    #[test]
    fn all_or_nothing() {
        let mut t = LockTable::new();
        assert!(t.try_lock_all(TxId(0), &[addr(1)]));
        // tx 1 wants {1, 2}: address 1 is taken, so 2 must NOT be locked
        assert!(!t.try_lock_all(TxId(1), &[addr(2), addr(1)]));
        assert_eq!(t.holder(addr(2)), None);
        assert_eq!(t.held_count(), 1);
    }

    #[test]
    fn release_frees_everything() {
        let mut t = LockTable::new();
        let addrs = [addr(1), addr(2), addr(3)];
        assert!(t.try_lock_all(TxId(7), &addrs));
        assert_eq!(t.held_count(), 3);
        t.release(TxId(7), &addrs);
        assert_eq!(t.held_count(), 0);
        assert!(t.try_lock_all(TxId(8), &[addr(2)]));
    }

    #[test]
    fn relock_by_holder_is_idempotent() {
        let mut t = LockTable::new();
        assert!(t.try_lock_all(TxId(3), &[addr(5)]));
        assert!(t.try_lock_all(TxId(3), &[addr(5), addr(6)]));
        t.release(TxId(3), &[addr(5), addr(6)]);
        assert_eq!(t.held_count(), 0);
    }

    #[test]
    fn release_leaves_other_holders_alone() {
        let mut t = LockTable::new();
        assert!(t.try_lock_all(TxId(1), &[addr(1)]));
        assert!(t.try_lock_all(TxId(2), &[addr(2)]));
        t.release(TxId(1), &[addr(1), addr(2), addr(3)]);
        assert_eq!(t.holder(addr(1)), None);
        assert_eq!(t.holder(addr(2)), Some(TxId(2)));
    }
}
