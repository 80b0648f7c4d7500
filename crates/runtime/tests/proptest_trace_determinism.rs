//! Property tests: virtual-clock traces are byte-identical across
//! reruns, and collecting them never changes the execution — a traced,
//! a metered and an untraced run of one workload report the same.

use std::collections::HashMap;

use blockpart_ethereum::{ExecutedTx, Receipt, Transaction, TxPayload, TxStatus, World};
use blockpart_obs::perfetto;
use blockpart_runtime::{Assignment, RuntimeConfig, ShardedRuntime};
use blockpart_types::{Address, Gas, ShardCount, ShardId, Timestamp, Wei};
use proptest::collection::vec;
use proptest::prelude::*;

struct Workload {
    world: World,
    txs: Vec<ExecutedTx>,
    assignment: Assignment,
    seed: u64,
}

/// A conflict-heavy micro-workload: a small user pool (so transfers
/// collide), addresses spread over `k` shards by the generated map.
fn workload(k: u16, users: usize, pairs: &[(u64, u64)], shards: &[u64], seed: u64) -> Workload {
    let mut world = World::new();
    let addrs: Vec<Address> = (0..users)
        .map(|_| world.new_user(Wei::new(1_000)))
        .collect();
    let txs: Vec<ExecutedTx> = pairs
        .iter()
        .map(|&(f, t)| {
            let from = addrs[(f as usize) % addrs.len()];
            let to = addrs[(t as usize) % addrs.len()];
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
            ExecutedTx::new(Timestamp::from_secs(1), tx, &receipt)
        })
        .collect();
    let map: HashMap<Address, ShardId> = addrs
        .iter()
        .zip(shards)
        .map(|(&a, &s)| (a, ShardId::new((s % u64::from(k)) as u16)))
        .collect();
    let assignment = Assignment::from_map(map, ShardCount::new(k).unwrap());
    Workload {
        world,
        txs,
        assignment,
        seed,
    }
}

fn runtime(w: &Workload) -> ShardedRuntime {
    let cfg = RuntimeConfig::new(w.assignment.k())
        .with_seed(w.seed)
        .with_inter_arrival_us(100)
        .with_net_latency_us(800);
    ShardedRuntime::new(cfg, w.assignment.clone())
}

fn traced_run(w: &Workload) -> (blockpart_runtime::RuntimeReport, String) {
    let (report, trace) = runtime(w).run_traced(&w.world, &w.txs);
    (report, perfetto::to_perfetto(&trace).render())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn traced_run_matches_untraced_run(
        k in 1u16..=4,
        users in 2usize..6,
        pairs in vec((0u64..64, 0u64..64), 2..16),
        shards in vec(0u64..4, 6),
        seed in 0u64..1_000,
    ) {
        let w = workload(k, users, &pairs, &shards, seed);
        let (report, _) = traced_run(&w);

        // Traced and untraced runs see the same execution.
        let untraced = runtime(&w).run(&w.world, &w.txs);
        prop_assert_eq!(&untraced, &report);

        // The abort-cause breakdown partitions aborted_rounds.
        let cause_sum: u64 = report.abort_causes.values().sum();
        prop_assert_eq!(cause_sum, report.aborted_rounds);
    }

    #[test]
    fn metered_run_matches_traced_metrics_without_records(
        pairs in vec((0u64..16, 0u64..16), 2..10),
        shards in vec(0u64..2, 6),
        seed in 0u64..1_000,
    ) {
        let w = workload(2, 4, &pairs, &shards, seed);
        let rt = runtime(&w);
        let (traced_report, traced) = rt.run_traced(&w.world, &w.txs);
        let (metered_report, metered) = rt.run_metered(&w.world, &w.txs);

        // same execution, same metrics — only the record stream differs
        prop_assert_eq!(&metered_report, &traced_report);
        prop_assert!(metered.records().is_empty());
        prop_assert!(!traced.records().is_empty());
        prop_assert_eq!(metered.metrics_text(), traced.metrics_text());
        prop_assert_eq!(
            metered.metrics().counter("shard-0/commits")
                + metered.metrics().counter("shard-1/commits"),
            metered_report.committed
        );
    }

    #[test]
    fn traced_rerun_is_byte_identical(
        pairs in vec((0u64..16, 0u64..16), 2..10),
        shards in vec(0u64..2, 6),
        seed in 0u64..1_000,
    ) {
        let w = workload(2, 4, &pairs, &shards, seed);
        let (_, first) = traced_run(&w);
        let (_, second) = traced_run(&w);
        prop_assert_eq!(first, second);
    }
}
