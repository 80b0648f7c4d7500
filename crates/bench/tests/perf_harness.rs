//! End-to-end checks of the perf harness: the workload matrix produces
//! the documented stage set, the JSON document round-trips, and (on
//! multicore hosts) the parallel hot paths actually beat one worker.

use blockpart_bench::perf::{compare, run, PerfConfig, PerfReport};
use blockpart_graph::{Interaction, InteractionLog};
use blockpart_metrics::Json;
use blockpart_types::{Address, Timestamp};

fn micro_config() -> PerfConfig {
    PerfConfig {
        scale: 0.0001,
        trials: 1,
        warmup: 0,
        shard_counts: vec![2],
        ..PerfConfig::quick()
    }
}

#[test]
fn harness_emits_the_documented_matrix() {
    let report = run(&micro_config());

    // fixed stages
    for stage in [
        "chain-gen",
        "graph-build-serial",
        "graph-build",
        "csr-serial",
        "csr",
    ] {
        let row = report.find(stage, None, None).unwrap_or_else(|| {
            panic!("missing stage {stage}");
        });
        assert!(row.median_ms >= 0.0);
        assert!(row.txs_per_sec.unwrap_or(0.0) > 0.0, "{stage} throughput");
    }
    // kway pair and per-strategy stages at every configured k
    for &k in &report.config.shard_counts {
        assert!(report.find("kway-serial", Some("metis"), Some(k)).is_some());
        assert!(report.find("kway", Some("metis"), Some(k)).is_some());
        for strategy in blockpart_bench::perf::STRATEGIES {
            for stage in ["partition", "simulate", "replay"] {
                assert!(
                    report.find(stage, Some(strategy), Some(k)).is_some(),
                    "missing {stage}/{strategy}/{k}"
                );
            }
        }
    }

    // the out-of-core rows: external-memory CSR build plus LDG/Fennel
    // streaming partition straight from the spilled merge, with the peak
    // RSS high-water mark recorded on every row (linux)
    assert!(report.find("oocsr-build", None, None).is_some());
    for &k in &report.config.shard_counts {
        for strategy in ["ldg", "fennel"] {
            let row = report
                .find("oocsr-stream-partition", Some(strategy), Some(k))
                .unwrap_or_else(|| panic!("missing oocsr-stream-partition/{strategy}/{k}"));
            assert!(row.txs_per_sec.unwrap_or(0.0) > 0.0);
        }
    }
    if cfg!(target_os = "linux") {
        assert!(report.stages.iter().all(|s| s.peak_rss_bytes > 0));
    }

    // document round-trip, and a fresh run regresses against itself never
    let rendered = report.to_json().render_pretty();
    let parsed = PerfReport::from_json(&Json::parse(&rendered).unwrap()).unwrap();
    assert_eq!(parsed.stages, report.stages);
    let (regressions, missing) = compare(&report, &parsed, 0.25);
    assert!(regressions.is_empty());
    assert!(missing.is_empty());
}

#[test]
fn harness_is_deterministic_in_everything_but_time() {
    let a = run(&micro_config());
    let b = run(&micro_config());
    let keys = |r: &PerfReport| r.stages.iter().map(|s| s.key()).collect::<Vec<_>>();
    assert_eq!(keys(&a), keys(&b));
}

/// A large hub-and-spoke interaction log: enough parallel slack for the
/// sharded build to show a real speedup.
fn big_log(events: usize) -> InteractionLog {
    let mut log = InteractionLog::new();
    for i in 0..events as u64 {
        // 64 hubs, long tail of leaves; weights vary so rows stay uneven
        let hub = i % 64;
        let leaf = 64 + (i * 2_654_435_761) % 50_000;
        log.push(Interaction {
            weight: 1 + i % 7,
            ..Interaction::new(
                Timestamp::from_secs(i / 16),
                Address::from_index(hub),
                Address::from_index(leaf),
            )
        });
    }
    log
}

/// The acceptance check behind the BENCH.json speedup rows: with at
/// least two cores, the parallel graph build must clearly beat one
/// worker. Ignored by default because it is timing-sensitive; the CI
/// bench job (and anyone via `cargo test -- --ignored`) runs it.
#[test]
#[ignore = "timing-sensitive; run explicitly via cargo test -- --ignored"]
fn parallel_graph_build_beats_serial_on_multicore() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        eprintln!("skipping: single-core host");
        return;
    }
    let log = big_log(600_000);
    let time = |workers: usize| {
        let start = std::time::Instant::now();
        let g = InteractionLog::graph_of_workers(log.events(), workers);
        (start.elapsed().as_secs_f64(), g)
    };
    let _ = time(1); // warm caches
    let (serial, g1) = time(1);
    let (parallel, gn) = time(cores.min(8));
    assert_eq!(g1.edge_count(), gn.edge_count());
    let speedup = serial / parallel;
    eprintln!("graph build speedup on {cores} cores: {speedup:.2}x");
    assert!(
        speedup > 1.3,
        "expected >1.3x on {cores} cores, measured {speedup:.2}x"
    );
}
