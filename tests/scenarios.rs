//! Integration tests for the adversarial scenario registry: every
//! registered scenario is deterministic, composition is count-additive, and the phase-shifting hub scenario
//! actually stresses the TR-METIS trigger harder than the friendly
//! chain.

use blockpart::core::{Experiment, ScenarioRegistry, StrategyRegistry};
use blockpart::ethereum::gen::GeneratorConfig;
use blockpart::types::ShardCount;
use proptest::prelude::*;

fn tiny_config(seed: u64) -> GeneratorConfig {
    // a 14-day toy at quarter rate: a few hundred organic transactions,
    // enough for every injector's window to see traffic
    GeneratorConfig::test_scale(seed).with_scale(0.25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    // Every registered scenario is byte-identical across reruns for a
    // fixed seed: the same transactions and the same interaction log.
    #[test]
    fn every_scenario_is_deterministic(seed in 0u64..1000) {
        let registry = ScenarioRegistry::with_builtins();
        let config = tiny_config(seed);
        for name in registry.factory_names() {
            let spec = match registry.resolve(name) {
                Ok(spec) => spec,
                Err(e) => panic!("{name}: {e}"),
            };
            let a = spec.build(&config);
            let b = spec.build(&config);
            prop_assert_eq!(&a.txs, &b.txs, "{} reruns diverged", name);
            prop_assert_eq!(a.log.events(), b.log.events(), "{} logs diverged", name);
        }
    }

    // Composing scenarios adds exactly the transactions each part
    // would inject alone: injectors pace on organic traffic only, so
    // composition is count-additive over the friendly baseline.
    #[test]
    fn composition_preserves_transaction_count(
        seed in 0u64..1000,
        first in 0usize..5,
        second in 0usize..5,
    ) {
        let registry = ScenarioRegistry::with_builtins();
        let hostiles = ["hub-burst", "dummy-spam", "dex-arb", "aa-batch", "nft-mint"];
        let a = hostiles[first];
        // pick a distinct second part (the vendored proptest has no
        // prop_assume; stepping the index keeps every case meaningful)
        let b = if first == second {
            hostiles[(second + 1) % hostiles.len()]
        } else {
            hostiles[second]
        };
        let config = tiny_config(seed);
        let base = registry.resolve("friendly").unwrap().build(&config).txs.len();
        let only_a = registry.resolve(a).unwrap().build(&config).txs.len();
        let only_b = registry.resolve(b).unwrap().build(&config).txs.len();
        let both = registry
            .compose(&format!("{a}+{b}"))
            .unwrap()
            .build(&config)
            .txs
            .len();
        prop_assert_eq!(
            both - base,
            (only_a - base) + (only_b - base),
            "{}+{} is not count-additive", a, b
        );
    }
}

/// The phase-shifting hub scenario is the designed stress test for the
/// TR-METIS threshold trigger: each hub rotation skews shard load until
/// the balance trigger fires, so at equal scale it must force strictly
/// more repartitions (and far more vertex moves) than the friendly
/// chain. The margin is deterministic — fixed seed, virtual clock.
#[test]
fn phase_shift_triggers_more_trmetis_repartitions_than_friendly() {
    let scenarios = ScenarioRegistry::with_builtins();
    let strategies = StrategyRegistry::with_builtins();
    let config = GeneratorConfig::demo_scale(42).with_scale(1.0e-4);
    let reparts_of = |scenario: &str| {
        let report = Experiment::from_generator(config.clone())
            .named_scenario(&scenarios, scenario)
            .expect("scenario resolves")
            .named_strategies(&strategies, "tr-metis[interval=1;balance=1.5]")
            .expect("strategy resolves")
            .shard_counts(vec![ShardCount::TWO])
            .replay(false)
            .run();
        let sim = report.runs[0].offline.clone().expect("offline stage ran");
        (sim.repartitions, sim.total_moves)
    };
    let (friendly_reparts, friendly_moves) = reparts_of("friendly");
    let (shifted_reparts, shifted_moves) = reparts_of("phase-shift[phases=10;intensity=2]");
    assert!(
        shifted_reparts > friendly_reparts,
        "phase-shift must out-trigger the friendly chain: {shifted_reparts} vs {friendly_reparts}"
    );
    assert!(
        shifted_moves > friendly_moves * 2,
        "rotating hubs should force far more state movement: \
         {shifted_moves} vs {friendly_moves} moves"
    );
}
