//! Reused VM buffers change nothing but the allocations.
//!
//! [`Vm::execute_with`] runs in caller-owned [`VmBuffers`]: one operand
//! stack per call depth, taken out for a frame and put back when it
//! returns, and the receipt's call and creation lists, handed back with
//! [`VmBuffers::recycle`]. One buffer set reused over many transactions
//! must give the same receipts and the same final world as a fresh
//! [`Vm::execute`] per transaction, over a generated chain's
//! transactions and over hand-made edge cases: nested calls down to
//! [`CALL_DEPTH_LIMIT`], out-of-gas failures at every instruction of
//! every frame (no template program contains `REVERT`, so running out of
//! gas is how a frame fails), a gas limit below the base cost, contract
//! creation and random payouts.
//!
//! Once warm, the buffers must make those executions allocation-free
//! where the world itself allocates nothing, so a return path that
//! skips putting its stack back shows as an allocation. The counting
//! allocator is process-wide, so this file holds exactly one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use blockpart_ethereum::evm::{ExecContext, GasSchedule, Vm, VmBuffers, CALL_DEPTH_LIMIT};
use blockpart_ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart_ethereum::{ContractTemplate, Transaction, TxPayload, TxStatus, World};
use blockpart_types::{mix64, Address, Gas, Timestamp, Wei};

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

/// Executes `txs` in order on two copies of `world`, fresh per
/// transaction on one and in `buffers` on the other, and checks every
/// receipt and the final worlds agree. Returns how many failed.
fn replay_both(
    world: &World,
    txs: &[(Transaction, ExecContext)],
    buffers: &mut VmBuffers,
) -> usize {
    let mut fresh = world.clone();
    let mut reused = world.clone();
    let mut failed = 0;
    for (i, (tx, ctx)) in txs.iter().enumerate() {
        let want = Vm::execute(&mut fresh, tx, ctx);
        let got = Vm::execute_with(&mut reused, tx, ctx, buffers);
        assert_eq!(got, want, "transaction {i}: receipts differ");
        failed += usize::from(got.status == TxStatus::Failed);
        buffers.recycle(got);
    }
    assert_same_world(&fresh, &reused);
    failed
}

fn assert_same_world(a: &World, b: &World) {
    let mut addresses: Vec<Address> = a.addresses().collect();
    let mut others: Vec<Address> = b.addresses().collect();
    addresses.sort_unstable();
    others.sort_unstable();
    assert_eq!(addresses, others, "worlds hold different addresses");
    for x in addresses {
        assert_eq!(
            a.export_state(x),
            b.export_state(x),
            "state of {x:?} differs"
        );
    }
    assert_eq!(a.address_floor(), b.address_floor());
}

fn call(from: Address, to: Address, value: u64, arg: u64, gas: u64) -> Transaction {
    Transaction {
        from,
        to,
        value: Wei::new(value),
        gas_limit: Gas::new(gas),
        payload: TxPayload::Call { arg },
    }
}

fn context(tx: &Transaction, entropy: u64) -> ExecContext {
    ExecContext::new(Timestamp::from_secs(1_000), entropy, tx.gas_limit)
}

/// The edge cases' world: a user, two crowdsales that each name the
/// other as their token (so a call into `cycle` recurses until the depth
/// limit stops it), a factory and a game. Built afresh rather than
/// cloned, so no storage base is shared and writes go in place.
struct EdgeWorld {
    world: World,
    user: Address,
    cycle: Address,
    factory: Address,
    game: Address,
}

fn edge_world() -> EdgeWorld {
    let mut world = World::new();
    let user = world.new_user(Wei::new(1_000_000_000));
    let a = world.create_contract(ContractTemplate::Crowdsale, user, 0);
    let b = world.create_contract(ContractTemplate::Crowdsale, user, 0);
    world.storage_store(a, 0, user.index());
    world.storage_store(a, 1, b.index());
    world.storage_store(b, 0, user.index());
    world.storage_store(b, 1, a.index());
    let factory = world.create_contract(
        ContractTemplate::Factory,
        user,
        ContractTemplate::Wallet.id(),
    );
    let game = world.create_contract(ContractTemplate::Game, user, user.index());
    EdgeWorld {
        world,
        user,
        cycle: a,
        factory,
        game,
    }
}

#[test]
fn reused_buffers_match_fresh_execution() {
    // a generated chain's transactions, replayed over its final world
    let chain = ChainGenerator::new(GeneratorConfig::test_scale(5)).generate();
    let txs: Vec<(Transaction, ExecContext)> = chain
        .txs
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let ctx = ExecContext::new(e.time, mix64(i as u64), e.tx.gas_limit)
                .with_schedule(GasSchedule::eip150());
            (e.tx, ctx)
        })
        .collect();
    let mut buffers = VmBuffers::new();
    replay_both(chain.chain.world(), &txs, &mut buffers);

    // edge cases, in the same (already warm) buffers
    let EdgeWorld {
        world,
        user,
        cycle,
        factory,
        game,
    } = edge_world();
    let full = call(user, cycle, 10, 0, 1_000_000);
    let depth_calls = Vm::execute(&mut edge_world().world, &full, &context(&full, 1));
    assert!(depth_calls.is_success());
    // the cycle recurses to the depth limit: each of the
    // CALL_DEPTH_LIMIT frames makes one CALL, and the deepest one's runs
    // no frame
    let frames = depth_calls
        .calls
        .iter()
        .filter(|c| c.kind == blockpart_ethereum::CallKind::Call)
        .count();
    assert_eq!(frames, CALL_DEPTH_LIMIT);
    let needed = depth_calls.gas_used.get();
    let base = GasSchedule::default().tx_base;

    let mut edge: Vec<(Transaction, ExecContext)> = Vec::new();
    // every gas limit from below the base cost to enough: each one runs
    // out at a different instruction of a different frame
    for gas in (base - 1..=needed + 1).step_by(7) {
        let tx = call(user, cycle, 10, 0, gas);
        edge.push((tx, context(&tx, gas)));
    }
    for i in 0..16 {
        for tx in [
            call(user, factory, 0, 0, 200_000),
            call(user, game, 100, 0, 200_000),
            Transaction {
                from: user,
                to: Address::from_index(9_000 + i),
                value: Wei::new(1),
                gas_limit: Gas::new(30_000),
                payload: TxPayload::Transfer,
            },
            Transaction {
                from: user,
                to: Address::ZERO,
                value: Wei::new(5),
                gas_limit: Gas::new(100_000),
                payload: TxPayload::Create {
                    template: i,
                    arg: user.index(),
                },
            },
        ] {
            edge.push((tx, context(&tx, i)));
        }
    }
    let failed = replay_both(&world, &edge, &mut buffers);
    assert!(failed > 100, "only {failed} edge cases ran out of gas");

    // warm buffers make the cycle's frames allocation-free. The first
    // pass grows the world's maps too: it adds the slots the cycle
    // writes, and a full map reallocates on any insert, even of a key it
    // holds. So the second pass's world allocates nothing, and neither
    // may the buffers, whatever depth each run stopped at.
    let cycle_txs: Vec<&(Transaction, ExecContext)> =
        edge.iter().filter(|(tx, _)| tx.to == cycle).collect();
    let mut warm = edge_world().world;
    let mut reference = edge_world().world;
    for pass in 0..2 {
        for &(tx, ctx) in &cycle_txs {
            let before = ALLOCATIONS.load(Relaxed);
            let receipt = Vm::execute_with(&mut warm, tx, ctx, &mut buffers);
            let allocations = ALLOCATIONS.load(Relaxed) - before;
            assert!(
                pass == 0 || allocations == 0,
                "gas {}: a warm execution allocated {allocations} times",
                tx.gas_limit.get()
            );
            assert_eq!(receipt, Vm::execute(&mut reference, tx, ctx));
            buffers.recycle(receipt);
        }
    }
    assert_same_world(&warm, &reference);
}
