//! Pinned experiment reports: fingerprints of `ExperimentReport::to_json`
//! for three fixed runs over one seeded chain, covering the offline,
//! replay and live stages. Refactors of the pipeline must keep the report
//! bytes identical; unlike the determinism tests, which only compare the
//! code with itself, this compares it with recorded values. A change that
//! alters partitions on purpose re-records them.

use blockpart::core::{Experiment, ExperimentReport, StrategyRegistry};
use blockpart::ethereum::gen::{ChainGenerator, GeneratorConfig};
use blockpart::ethereum::SyntheticChain;
use blockpart::types::ShardCount;

fn chain() -> &'static SyntheticChain {
    static CHAIN: std::sync::OnceLock<SyntheticChain> = std::sync::OnceLock::new();
    CHAIN.get_or_init(|| ChainGenerator::new(GeneratorConfig::test_scale(17)).generate())
}

fn k(n: u16) -> ShardCount {
    ShardCount::new(n).expect("non-zero")
}

fn experiment(specs: &str) -> Experiment<'static> {
    Experiment::over_chain(chain())
        .named_strategies(&StrategyRegistry::with_builtins(), specs)
        .expect("built-in strategies resolve")
}

/// FNV-1a over the report's compact JSON.
fn fingerprint(report: &ExperimentReport) -> u64 {
    report
        .to_json()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

#[test]
fn offline_report_is_pinned() {
    let report = experiment("all")
        .shard_counts(vec![k(2), k(4)])
        .seed(17)
        .run();
    assert_eq!(fingerprint(&report), 0x5b87_d924_95f7_a933);
}

#[test]
fn replay_report_is_pinned() {
    let report = experiment("hash,metis")
        .shard_counts(vec![k(2)])
        .seed(19)
        .offline(false)
        .replay(true)
        .run();
    assert_eq!(fingerprint(&report), 0x9977_28d0_44d7_f7f2);
}

#[test]
fn live_report_is_pinned() {
    let report = experiment("tr-metis")
        .shard_counts(vec![k(2)])
        .seed(23)
        .offline(false)
        .live(true)
        .run();
    assert_eq!(fingerprint(&report), 0x0ed9_d2ee_5b27_6dd6);
}
