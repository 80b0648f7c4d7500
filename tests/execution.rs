//! Direct execution under hostile workloads. Chain generation and the
//! sharded 2PC replay both run every transaction through `Vm::execute`
//! on a `World`, so the generator's per-transaction records must agree
//! with the blocks it executed, their `touched` footprints must cover
//! every interaction the chain logged, and the replay must be
//! deterministic and report no speculation. Checked on the adversarial
//! scenarios built to maximize contention: `hub-burst` hammers a handful
//! of hot contracts; `dummy-spam` floods throwaway accounts.

use std::collections::{BTreeMap, BTreeSet};

use blockpart::core::{Experiment, ScenarioRegistry, StrategyRegistry};
use blockpart::ethereum::gen::GeneratorConfig;
use blockpart::ethereum::{Address, Gas, SyntheticChain, Timestamp, TxStatus};
use blockpart::runtime::{Assignment, RuntimeConfig, ShardedRuntime};
use blockpart::types::ShardCount;

const HOSTILE: [&str; 2] = ["hub-burst", "dummy-spam"];

fn hostile_chain(scenario: &str, seed: u64) -> SyntheticChain {
    let config = GeneratorConfig::test_scale(seed);
    ScenarioRegistry::with_builtins()
        .resolve(scenario)
        .expect("built-in scenario resolves")
        .build(&config)
}

/// One record per executed transaction, in block order, carrying its
/// block's time, and together the failures and gas of the summaries.
#[test]
fn generated_records_agree_with_block_summaries() {
    for scenario in HOSTILE {
        let chain = hostile_chain(scenario, 5);
        let summaries = chain.chain.summaries();
        assert_eq!(chain.txs.len(), chain.chain.tx_count(), "{scenario}");

        let mut records = chain.txs.iter();
        for block in summaries {
            let in_block: Vec<_> = records.by_ref().take(block.tx_count).collect();
            assert_eq!(in_block.len(), block.tx_count, "{scenario}");
            assert!(in_block.iter().all(|r| r.time == block.time), "{scenario}");
            let failed = in_block
                .iter()
                .filter(|r| r.status == TxStatus::Failed)
                .count();
            assert_eq!(failed, block.failed, "{scenario} block {:?}", block.number);
            let gas = in_block
                .iter()
                .fold(Gas::ZERO, |total, r| total + r.gas_used);
            assert_eq!(gas, block.gas_used, "{scenario} block {:?}", block.number);
        }
        assert!(
            records.next().is_none(),
            "{scenario}: records past the last block"
        );

        for record in &chain.txs {
            assert_eq!(record.touched.first(), Some(&record.tx.from), "{scenario}");
            assert!(!record.touched.contains(&Address::ZERO), "{scenario}");
            let distinct: BTreeSet<_> = record.touched.iter().collect();
            assert_eq!(distinct.len(), record.touched.len(), "{scenario}");
        }
    }
}

/// The runtime schedules on `touched`, so at every block time the
/// footprints of that block's transactions must name both ends of every
/// logged interaction (except the creation sink, which is not state).
#[test]
fn touched_covers_every_logged_interaction() {
    for scenario in HOSTILE {
        let chain = hostile_chain(scenario, 9);
        let mut footprint: BTreeMap<Timestamp, BTreeSet<Address>> = BTreeMap::new();
        for record in &chain.txs {
            footprint
                .entry(record.time)
                .or_default()
                .extend(&record.touched);
        }
        assert!(!chain.log.is_empty(), "{scenario}");
        for event in chain.log.events() {
            let at = footprint
                .get(&event.time)
                .unwrap_or_else(|| panic!("{scenario}: no transaction at {:?}", event.time));
            for end in [event.from, event.to] {
                assert!(
                    end == Address::ZERO || at.contains(&end),
                    "{scenario}: {end:?} at {:?} is outside every footprint",
                    event.time
                );
            }
        }
    }
}

/// Loaded hard (20µs arrival gap) so run queues build: reruns are
/// byte-identical, every transaction settles, and nothing speculates.
#[test]
fn hostile_replay_is_deterministic_and_never_speculates() {
    let k = ShardCount::TWO;
    for scenario in HOSTILE {
        let chain = hostile_chain(scenario, 11);
        let txs = &chain.txs[..chain.txs.len().min(300)];
        let run = || {
            let cfg = RuntimeConfig::new(k).with_inter_arrival_us(20);
            ShardedRuntime::new(cfg, Assignment::hashed(k)).run(chain.chain.world(), txs)
        };
        let report = run();
        assert_eq!(report, run(), "{scenario}: rerun diverged");
        assert_eq!(report.total_txs, txs.len(), "{scenario}");
        assert!(report.cross_shard_txs > 0, "{scenario}: no 2PC exercised");
        assert_eq!(
            report.committed + report.failed,
            txs.len() as u64,
            "{scenario}"
        );
        assert_eq!(
            (
                report.exec_speculated,
                report.exec_conflicts,
                report.exec_re_executions
            ),
            (0, 0, 0),
            "{scenario}"
        );
    }
}

/// The report JSON keeps the three `exec_*` keys, always 0, through the
/// experiment pipeline's replay stage.
#[test]
fn experiment_replay_json_keeps_zero_exec_keys() {
    let k = ShardCount::TWO;
    let chain = hostile_chain("hub-burst", 7);
    let report = Experiment::over_chain(&chain)
        .named_strategies(&StrategyRegistry::with_builtins(), "hash")
        .expect("built-in strategy resolves")
        .shard_counts(vec![k])
        .inter_arrival_us(20)
        .offline(false)
        .replay(true)
        .run();
    let runtime = report.runtime("hash", k).expect("replay ran");
    assert_eq!(runtime.total_txs, chain.txs.len());
    assert_eq!(runtime.exec_speculated, 0);
    let json = report.to_json();
    for key in ["exec_speculated", "exec_conflicts", "exec_re_executions"] {
        assert!(json.contains(&format!("\"{key}\":0,")), "{key}: {json}");
    }
}
