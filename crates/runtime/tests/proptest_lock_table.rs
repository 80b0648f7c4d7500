//! Model test: the lock table releases exactly what a table with
//! per-holder lists releases.
//!
//! [`LockTable`] keeps only who holds each address, and `release` names
//! the addresses to drop. The reference below is the table it replaced:
//! it also remembers, per holder, the addresses it took, and releases a
//! holder by that list alone. The two must agree after any sequence of
//! lock attempts and releases, when every release names the addresses
//! its holder locked, as the runtime's callers do: a transaction's
//! footprint on the shard, or, for a migration batch's guard locks on
//! the destination, the batch's own addresses.

use std::collections::{BTreeMap, BTreeSet};

use blockpart_runtime::event::TxId;
use blockpart_runtime::locks::LockTable;
use blockpart_types::Address;
use proptest::collection::vec;
use proptest::prelude::*;

/// The table with per-holder lists that `LockTable` replaced.
#[derive(Default)]
struct Reference {
    held: BTreeMap<Address, TxId>,
    by_tx: BTreeMap<TxId, Vec<Address>>,
}

impl Reference {
    fn try_lock_all(&mut self, tx: TxId, addrs: &[Address]) -> bool {
        if addrs
            .iter()
            .any(|a| self.held.get(a).is_some_and(|&h| h != tx))
        {
            return false;
        }
        let taken = self.by_tx.entry(tx).or_default();
        for &a in addrs {
            if self.held.insert(a, tx).is_none() {
                taken.push(a);
            }
        }
        true
    }

    fn release(&mut self, tx: TxId) {
        for a in self.by_tx.remove(&tx).unwrap_or_default() {
            self.held.remove(&a);
        }
    }
}

/// One step of a run: a transaction locks its footprint, or releases it.
#[derive(Clone, Debug)]
enum Step {
    Lock { tx: u32, addrs: Vec<u64> },
    Release { tx: u32 },
}

/// Three locks to every two releases.
fn step() -> impl Strategy<Value = Step> {
    (0u16..5, 0u32..6, vec(0u64..12, 0..5)).prop_map(|(kind, tx, addrs)| {
        if kind < 3 {
            Step::Lock { tx, addrs }
        } else {
            Step::Release { tx }
        }
    })
}

fn addrs(indices: &[u64]) -> Vec<Address> {
    indices.iter().map(|&i| Address::from_index(i)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    // random lock and release sequences: a transaction's footprint is
    // everything it tried to lock since its last release (a retried round
    // may take a superset), and releasing names all of it, including
    // addresses another holder owns or nobody does
    #[test]
    fn table_matches_per_holder_lists(steps in vec(step(), 0..60)) {
        let mut table = LockTable::new();
        let mut reference = Reference::default();
        let mut footprints: BTreeMap<u32, BTreeSet<Address>> = BTreeMap::new();
        for step in steps {
            match step {
                Step::Lock { tx, addrs: indices } => {
                    let wanted = addrs(&indices);
                    footprints.entry(tx).or_default().extend(&wanted);
                    prop_assert_eq!(
                        table.try_lock_all(TxId(tx), &wanted),
                        reference.try_lock_all(TxId(tx), &wanted)
                    );
                }
                Step::Release { tx } => {
                    let footprint: Vec<Address> = footprints
                        .remove(&tx)
                        .unwrap_or_default()
                        .into_iter()
                        .collect();
                    table.release(TxId(tx), &footprint);
                    reference.release(TxId(tx));
                }
            }
            prop_assert_eq!(table.held_count(), reference.held.len());
            for i in 0..12 {
                let a = Address::from_index(i);
                prop_assert_eq!(table.holder(a), reference.held.get(&a).copied());
            }
        }
    }

    // the migration guard pattern: a live session's destination shard
    // locks each batch's moving addresses under the batch's id before the
    // segment starts, foreground transactions contend with those guards,
    // and the install releases them by the batch's addresses
    #[test]
    fn guard_locks_release_by_the_batch_addresses(
        batches in vec(vec(0u64..16, 1..6), 1..4),
        foreground in vec((0u32..4, vec(0u64..16, 1..4)), 0..12),
        install_after in 0usize..12,
    ) {
        let mut table = LockTable::new();
        let mut reference = Reference::default();
        // guard ids follow the foreground ids, as in a segment's records
        let guard = |j: usize| TxId(100 + j as u32);
        let mut batch_addrs: Vec<Vec<Address>> = Vec::new();
        for (j, indices) in batches.iter().enumerate() {
            let mut moving = addrs(indices);
            moving.sort_unstable();
            moving.dedup();
            // batches of one delta are disjoint
            moving.retain(|a| batch_addrs.iter().all(|b| !b.contains(a)));
            prop_assert_eq!(
                table.try_lock_all(guard(j), &moving),
                reference.try_lock_all(guard(j), &moving)
            );
            batch_addrs.push(moving);
        }
        for (i, (tx, indices)) in foreground.iter().enumerate() {
            if i == install_after {
                for (j, moving) in batch_addrs.iter().enumerate() {
                    table.release(guard(j), moving);
                    reference.release(guard(j));
                }
            }
            let wanted = addrs(indices);
            let took = table.try_lock_all(TxId(*tx), &wanted);
            prop_assert_eq!(took, reference.try_lock_all(TxId(*tx), &wanted));
            if took {
                table.release(TxId(*tx), &wanted);
                reference.release(TxId(*tx));
            }
        }
        for (j, moving) in batch_addrs.iter().enumerate() {
            table.release(guard(j), moving);
            reference.release(guard(j));
        }
        prop_assert_eq!(table.held_count(), 0);
        prop_assert_eq!(reference.held.len(), 0);
    }
}
