//! Allocation-count gate: the 2PC replay path reuses its memory.
//!
//! A replay keeps every footprint in one arena, releases locks by
//! address, resets coordinator states in place, and draws vote and
//! commit vectors, scratch worlds and VM stacks from per-worker buffers.
//! So it allocates a few times per run and per worker, plus the state
//! the replay really grows (new accounts and storage slots), not once
//! per transaction, round and message. This test counts heap
//! allocations, not bytes: the count is deterministic at a fixed chain
//! and assignment, so any move is real.
//!
//! It counts a one-shot replay of a `test_scale` chain at k = 2 and
//! k = 4, and two segments of a live session with a staged rebalance
//! between them, and bounds each by 2 allocations per transaction. A
//! path that allocates per transaction again (a vector per footprint
//! part, a list per lock holder, a new scratch world or operand stack
//! per execution) reads 12 to 16.
//!
//! The counting allocator is process-wide, so this file holds exactly
//! one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use blockpart_ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart_runtime::{Assignment, LiveSession, MigrationConfig, RuntimeConfig, ShardedRuntime};
use blockpart_types::{Address, ShardCount, ShardId};

/// Counts every allocation and every reallocation (never decremented).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and only adds to a counter, so `System`'s guarantees carry
// over exactly.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations allowed per replayed transaction.
const BOUND: f64 = 2.0;

/// The allocations `f` makes, and its result.
fn count<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.load(Relaxed);
    let out = f();
    (ALLOCATIONS.load(Relaxed) - before, out)
}

#[test]
fn replay_allocates_less_than_twice_per_transaction() {
    let chain = ChainGenerator::new(GeneratorConfig::test_scale(3)).generate();
    let world = chain.chain.world();
    let txs = &chain.txs;
    let n = txs.len() as f64;
    let mut readings = Vec::new();

    for k in [2, 4] {
        let k = ShardCount::new(k).expect("non-zero");
        let runtime = ShardedRuntime::new(RuntimeConfig::new(k), Assignment::hashed(k));
        let (allocations, report) = count(|| runtime.run(world, txs));
        assert_eq!(report.committed + report.failed, txs.len() as u64);
        assert!(report.cross_shard_txs > 0, "k = {k}: nothing ran 2PC");
        readings.push((format!("replay at k = {}", k.get()), allocations));
    }

    // two live segments: the second executes a staged rebalance of every
    // address the first one touched
    let k = ShardCount::new(4).expect("non-zero");
    let mut session = LiveSession::new(RuntimeConfig::new(k), Assignment::hashed(k), world);
    let (first, second) = txs.split_at(txs.len() / 2);
    let placements: Vec<(Address, ShardId)> = first
        .iter()
        .flat_map(|e| &e.touched)
        .map(|&a| (a, ShardId::new((a.index() % u64::from(k.get())) as u16)))
        .collect();
    let mig = MigrationConfig::default();
    let (allocations, (quiet, moved, busy)) = count(|| {
        let quiet = session.run_segment(first, &mig);
        let moved = session.stage_rebalance(&placements);
        let busy = session.run_segment(second, &mig);
        (quiet, moved, busy)
    });
    assert!(moved > 0, "the rebalance moved nothing");
    let migration = busy.migration.expect("the staged rebalance executed");
    assert_eq!(migration.accounts, moved);
    assert_eq!(
        quiet.committed + quiet.failed + busy.committed + busy.failed,
        txs.len() as u64
    );
    readings.push(("live, two segments".to_string(), allocations));

    for (what, allocations) in &readings {
        println!(
            "{what}: {allocations} allocations for {n} transactions, {:.2} per transaction",
            *allocations as f64 / n
        );
    }
    for (what, allocations) in readings {
        let per_tx = allocations as f64 / n;
        assert!(
            per_tx < BOUND,
            "{what}: {per_tx:.2} allocations per transaction, over the bound of {BOUND}: \
             the 2PC path allocates per transaction again"
        );
    }
}
