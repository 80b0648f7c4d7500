//! Property tests: live migration conserves state.
//!
//! Two invariants of the live repartitioning service, over randomized
//! community workloads and shard maps:
//!
//! 1. **Conservation** — after any number of triggered migrations, every
//!    account holds state on exactly one shard, no transaction is
//!    dropped, and total balance is unchanged.
//! 2. **Migration transparency** — the final world state equals the
//!    no-migration run's (the workload is commutative transfers with
//!    ample balances, so commit order cannot change the outcome; only a
//!    lost or duplicated account could).

use blockpart_ethereum::{ExecutedTx, Receipt, Transaction, TxPayload, TxStatus, World};
use blockpart_live::{LiveConfig, LiveRun, LiveRunner};
use blockpart_partition::{MultilevelConfig, MultilevelPartitioner, Partitioner};
use blockpart_runtime::RuntimeConfig;
use blockpart_shard::RepartitionPolicy;
use blockpart_types::{Address, Duration, Gas, ShardCount, Timestamp, Wei};
use proptest::collection::vec;
use proptest::prelude::*;

fn transfer(from: Address, to: Address, secs: u64) -> ExecutedTx {
    let tx = Transaction {
        from,
        to,
        value: Wei::new(1),
        gas_limit: Gas::new(30_000),
        payload: TxPayload::Transfer,
    };
    let receipt = Receipt {
        status: TxStatus::Success,
        gas_used: Gas::new(21_000),
        calls: Vec::new(),
        created: Vec::new(),
    };
    ExecutedTx::new(Timestamp::from_secs(secs), tx, &receipt)
}

/// A drifting-community workload: `users` accounts in two communities,
/// transacting mostly internally; `pairs` adds randomized cross-talk so
/// the windowed graph and the trigger see varied shapes.
fn workload(users: usize, hours: u64, pairs: &[(u64, u64)]) -> (World, Vec<ExecutedTx>) {
    let mut world = World::new();
    let addrs: Vec<Address> = (0..users)
        .map(|_| world.new_user(Wei::new(10_000)))
        .collect();
    let half = users / 2;
    let mut txs = Vec::new();
    for h in 0..hours {
        for m in 0..6u64 {
            let t = h * 3_600 + m * 600;
            let i = (h + m) as usize;
            // intra-community ring traffic
            txs.push(transfer(addrs[i % half], addrs[(i + 1) % half], t));
            txs.push(transfer(
                addrs[half + i % (users - half)],
                addrs[half + (i + 1) % (users - half)],
                t + 60,
            ));
            // randomized cross-talk
            if let Some(&(f, to)) = pairs.get(((h * 6 + m) as usize) % pairs.len().max(1)) {
                txs.push(transfer(
                    addrs[(f as usize) % users],
                    addrs[(to as usize) % users],
                    t + 120,
                ));
            }
        }
    }
    (world, txs)
}

fn config(k: u16, policy: RepartitionPolicy) -> LiveConfig {
    let k = ShardCount::new(k).unwrap();
    LiveConfig::new(k)
        .with_window(Duration::hours(1))
        .with_depth(3)
        .with_policy(policy)
        .with_runtime(RuntimeConfig::new(k).with_inter_arrival_us(200))
}

fn metis(seed: u64) -> Box<dyn Partitioner> {
    Box::new(MultilevelPartitioner::new(MultilevelConfig {
        seed,
        ..MultilevelConfig::default()
    }))
}

fn threshold_policy() -> RepartitionPolicy {
    RepartitionPolicy::Threshold {
        edge_cut: 0.3,
        balance: 2.5,
        min_interval: Duration::hours(1),
    }
}

fn run(world: &World, txs: &[ExecutedTx], cfg: LiveConfig, seed: u64) -> LiveRun {
    LiveRunner::new(cfg, metis(seed)).run(world, txs)
}

/// Sorted `(address, balance)` across all shard worlds.
fn balances(run: &LiveRun) -> Vec<(Address, u64)> {
    let mut out: Vec<(Address, u64)> = run
        .session
        .worlds()
        .flat_map(|(_, w)| {
            w.addresses()
                .map(|a| (a, w.balance(a).get()))
                .collect::<Vec<_>>()
        })
        .collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn migration_conserves_state_and_matches_no_migration_run(
        k in 2u16..=4,
        users in 6usize..12,
        hours in 4u64..8,
        pairs in vec((0u64..64, 0u64..64), 1..8),
        seed in 0u64..1_000,
    ) {
        let (world, txs) = workload(users, hours, &pairs);

        let migrated = run(&world, &txs, config(k, threshold_policy()), seed);
        prop_assert_eq!(migrated.report.total_committed(), txs.len() as u64);
        prop_assert_eq!(migrated.report.total_failed(), 0);

        // every account on exactly one shard
        let resident = migrated.session.resident_addresses();
        prop_assert_eq!(resident.len(), users);
        let mut addrs: Vec<Address> = resident.iter().map(|&(a, _)| a).collect();
        addrs.dedup();
        prop_assert_eq!(addrs.len(), users);

        // migrations moved what they claim
        let moved: u64 = migrated.report.episodes.iter().map(|e| e.stats.accounts).sum();
        prop_assert_eq!(moved, migrated.report.accounts_moved());

        // world state equals the run that never migrates
        let frozen = run(&world, &txs, config(k, RepartitionPolicy::Never), seed);
        prop_assert_eq!(frozen.report.migrations(), 0);
        prop_assert_eq!(balances(&migrated), balances(&frozen));
    }

}
