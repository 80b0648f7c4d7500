//! Allocation test: a cross-shard commit does not copy a large
//! contract's storage.
//!
//! A token with 10,000 storage slots lives on shard 0; its 20 callers
//! live on shard 1, so each of 200 token calls runs two-phase commit and
//! executes on the coordinator against a shipped snapshot of the token.
//! Each call writes two slots. Those writes land in the snapshot's
//! overlay, and installing the committed state on shard 0 folds them
//! into a base nobody else holds, so the replay allocates about one copy
//! of the token's storage in all (the first install, while the input
//! world still holds the base) instead of one copy per call.
//!
//! The counting allocator is process-wide, so this file holds exactly
//! one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use blockpart_ethereum::{
    ContractState, ContractTemplate, ExecutedTx, Receipt, Transaction, TxPayload, TxStatus, World,
};
use blockpart_runtime::{Assignment, RuntimeConfig, ShardedRuntime};
use blockpart_types::{Gas, ShardCount, ShardId, Timestamp, Wei};

/// Counts every byte allocated (never decremented).
struct Counting;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds to a counter, so `System`'s guarantees carry
// over exactly.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()) as u64, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SLOTS: u64 = 10_000;
const CALLERS: usize = 20;
const CALLS: usize = 200;

/// Bytes `run` may allocate in all. One copy of the token's storage map
/// is about 0.28 MB: copying it on every call allocates about 57.5 MB in
/// all, while writing into overlays allocates 2.2 MB.
const BOUND: u64 = 4 << 20;

#[test]
fn cross_shard_commits_do_not_copy_large_storage() {
    let mut world = World::new();
    let owner = world.new_user(Wei::ZERO);
    let token = world.create_contract(ContractTemplate::Token, owner, owner.index());
    for slot in 1..SLOTS {
        world.storage_store(token, 1_000_000 + slot, slot);
    }
    let callers: Vec<_> = (0..CALLERS)
        .map(|_| world.new_user(Wei::new(1_000_000)))
        .collect();

    let mut map = HashMap::new();
    map.insert(owner, ShardId::new(0));
    map.insert(token, ShardId::new(0));
    for &c in &callers {
        map.insert(c, ShardId::new(1));
    }
    let receipt = Receipt {
        status: TxStatus::Success,
        gas_used: Gas::new(50_000),
        calls: Vec::new(),
        created: Vec::new(),
    };
    let txs: Vec<ExecutedTx> = (0..CALLS)
        .map(|i| {
            let tx = Transaction {
                from: callers[i % CALLERS],
                to: token,
                value: Wei::new(1),
                gas_limit: Gas::new(100_000),
                // the token writes slot `caller` and slot `arg`
                payload: TxPayload::Call {
                    arg: callers[(i + 1) % CALLERS].index(),
                },
            };
            ExecutedTx::new(Timestamp::from_secs(1 + i as u64), tx, &receipt)
        })
        .collect();
    let runtime = ShardedRuntime::new(
        RuntimeConfig::new(ShardCount::TWO),
        Assignment::from_map(map, ShardCount::TWO),
    );

    let before = ALLOCATED.load(Relaxed);
    let report = runtime.run(&world, &txs);
    let allocated = ALLOCATED.load(Relaxed) - before;

    assert_eq!(report.committed, CALLS as u64);
    assert_eq!(report.cross_shard_txs, CALLS);
    assert_eq!(report.failed, 0);
    let size = world.contract(token).map(ContractState::storage_size);
    assert_eq!(size, Some(SLOTS as usize));
    println!("run allocated {allocated} bytes");
    assert!(
        allocated < BOUND,
        "run allocated {allocated} bytes, over the {BOUND}-byte bound: \
         a cross-shard write copied the token's storage"
    );
}
