//! End-to-end checks of the perf harness: the workload matrix produces
//! the documented stage set and the JSON document round-trips.

use blockpart_bench::perf::{compare, run, PerfConfig, PerfReport};
use blockpart_metrics::Json;

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
    for stage in ["chain-gen", "graph-build", "csr"] {
        let row = report.find(stage, None, None).unwrap_or_else(|| {
            panic!("missing stage {stage}");
        });
        assert!(row.median_ms >= 0.0);
        assert!(row.txs_per_sec.unwrap_or(0.0) > 0.0, "{stage} throughput");
    }
    // kway and per-strategy stages at every configured k
    for &k in &report.config.shard_counts {
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

    // the peak RSS high-water mark is recorded on every row (linux)
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
