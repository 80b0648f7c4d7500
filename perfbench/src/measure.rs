//! The two kinds of run: the end-to-end run (tracing off, the timed call
//! repeated for the run length) and the traced run (the per-layer
//! breakdown).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use blockpart_obs::{Arg, Record, Trace};

use crate::alloc::mib;
use crate::timed::{Call, CallLog};
use crate::workload::{layer, timed, Plan, Workload};

/// Set-ups per run, at least this many and at least `SETUP_SECONDS` of
/// them; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_SECONDS: f64 = 3.0;
/// Timed calls per run even when one call outlasts the run length.
const MIN_TIMED_CALLS: usize = 3;

/// What a run measured and how its checks went.
#[derive(Default)]
pub struct Measured {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Calls made (each a whole pipeline run).
    pub attempted: u64,
    /// Calls whose output failed a check.
    pub failed: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
}

impl Measured {
    /// Counts one call and its check failures.
    fn tally(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.failures.extend(failures);
        }
    }
}

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The nearest-rank `q`-quantile of `values` (0 when empty); the median
/// of an even count is the mean of the middle two.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if q == 0.5 && n % 2 == 0 => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        n => v[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// The end-to-end run. Set-up generates the run's batch of chains, at
/// least `SETUP_REPS` times and `SETUP_SECONDS`; one untimed warm-up call
/// follows; then timed calls cycle through the chains until `seconds`
/// pass and every chain ran at least once. A chain's first call fixes its
/// reference report; later calls must reproduce it.
///
/// `txs_per_s` is the batch's transactions over the sum of each chain's
/// median call; the quality figures are means over the chains.
pub fn end_to_end(plan: &Plan, seconds: u64) -> Measured {
    let mut out = Measured::default();
    let n = plan.workload.chains();
    let mut setup = Vec::new();
    let mut batch = Vec::new();
    while setup.len() < SETUP_REPS || setup.iter().sum::<f64>() < SETUP_SECONDS {
        batch.clear(); // free the previous batch before timing the next
        let (generated, timing) = timed(|| (0..n).map(|i| plan.generate(i)).collect::<Vec<_>>());
        setup.push(timing.secs);
        batch = generated;
    }

    let (warm, _) = plan.call(&batch[0]);
    drop(warm);

    let mut references: Vec<Option<String>> = vec![None; n];
    let mut figures: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut secs: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut peaks = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut calls = 0;
    while calls < MIN_TIMED_CALLS.max(n) || Instant::now() < deadline {
        let i = calls % n;
        calls += 1;
        let (report, timing) = plan.call(&batch[i]);
        let mut failures = plan.check(&batch[i], &report);
        let json = report.json();
        match &references[i] {
            Some(reference) if *reference != json => {
                failures.push(format!("chain {i}: report differs from its first call's"))
            }
            Some(_) => {}
            None => {
                for (name, value) in plan.figures(&report) {
                    *figures.entry(name).or_default() += value / n as f64;
                }
                references[i] = Some(json);
            }
        }
        out.tally(failures);
        secs[i].push(timing.secs);
        peaks.push(mib(timing.mem.peak_above));
    }

    let medians: Vec<f64> = secs.iter().map(|s| median(s)).collect();
    let txs: usize = batch.iter().map(|c| c.txs.len()).sum();
    eprintln!(
        "perfbench: {calls} timed calls over {n} chains ({txs} txs), median wall per chain {medians:.3?} s"
    );
    out.metrics
        .insert("txs_per_s", txs as f64 / medians.iter().sum::<f64>());
    out.metrics.insert("setup_s", median(&setup));
    out.metrics.insert("peak_heap_mib", median(&peaks));
    out.metrics.extend(figures);
    out
}

/// The traced run, over the batch's first chain. Each round makes one
/// timed call, a traced serial pass (its own chain generation, every pair
/// with a timed partitioner, then the one-shot graph build, CSR and
/// `kway_traced` at each k) and an untraced serial pass of the same
/// pairs. Rounds repeat until `seconds` pass; each metric is the median
/// over rounds.
pub fn traced(plan: &Plan, seconds: u64) -> Measured {
    let mut out = Measured::default();
    let chain = plan.generate(0);
    let mut rounds: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    while rounds.is_empty() || Instant::now() < deadline {
        let mut m = BTreeMap::new();

        let (report, timing) = plan.call(&chain);
        let expected = report.json();
        out.tally(plan.check(&chain, &report));
        drop(report);
        m.insert("core.run.busy_s", timing.secs);

        let calls = CallLog::default();
        let mut obs = Trace::new();
        let start = Instant::now();
        let traced_chain = layer(&mut obs, "ethereum.gen", |_| plan.generate(0));
        let pairs_start = Instant::now();
        let traced = plan.serial(&traced_chain, &mut obs, Some(&calls));
        let traced_pairs = pairs_start.elapsed().as_secs_f64();
        let (vertices, edges) = plan.one_shot(&traced_chain, &mut obs);
        let traced_wall = start.elapsed().as_secs_f64();
        let mut failures = plan.check(&traced_chain, &traced);
        if traced.json() != expected {
            failures.push("traced pass report differs from the timed call's".into());
        }
        out.tally(failures);
        for (name, value) in plan.figures(&traced) {
            if name.contains('.') {
                m.insert(name, value);
            }
        }
        m.insert("ethereum.gen.txs", traced_chain.txs.len() as f64);
        m.insert("graph.vertices", vertices as f64);
        m.insert("graph.edges", edges as f64);
        drop((traced, traced_chain));

        let mut off = Trace::disabled();
        let (untraced, untimed) = timed(|| plan.serial(&chain, &mut off, None));
        let mut failures = Vec::new();
        if untraced.json() != expected {
            failures.push("untraced serial pass report differs from the timed call's".into());
        }
        out.tally(failures);

        let covered = spans(&obs, &mut m);
        let prefix = match plan.workload {
            Workload::LiveHubBurst => "live",
            _ => "shard",
        };
        partition_calls(&calls.borrow(), prefix, &mut m);
        if let Some(&run) = m.get("live.run.busy_s") {
            let partition = m.get("live.partition.busy_s").copied().unwrap_or(0.0);
            m.insert("live.rest.busy_s", run - partition);
        }
        m.insert("core.fanout_speedup", traced_pairs / timing.secs);
        m.insert("obs.coverage", covered / traced_wall);
        m.insert(
            "obs.trace_overhead_frac",
            (traced_pairs - untimed.secs) / untimed.secs,
        );
        rounds.push(m);
    }

    let names: Vec<&'static str> = rounds.iter().flat_map(|m| m.keys().copied()).collect();
    for name in names {
        let values: Vec<f64> = rounds.iter().filter_map(|m| m.get(name).copied()).collect();
        out.metrics.insert(name, median(&values));
    }
    out
}

/// Folds the trace's spans into `m`: `<layer>.busy_s` for the
/// benchmark's layer spans (named `<crate>.<call>`) and for the program's
/// own `detail` spans, `<layer>.alloc_mib` and `<layer>.peak_mib` for
/// layer spans, and the coarsening depth from `partition/coarsen`.
/// Returns the seconds covered by layer spans.
fn spans(obs: &Trace, m: &mut BTreeMap<&'static str, f64>) -> f64 {
    let mut covered = 0.0;
    let mut levels = Vec::new();
    let mut coarsest = Vec::new();
    for rec in obs.records() {
        let Some(dur) = rec.dur_us else { continue };
        let secs = dur as f64 / 1e6;
        let layer = match (rec.cat, rec.name.as_str()) {
            ("layer", name) => {
                covered += secs;
                name
            }
            ("detail", "simulate/graph-assembly") => "shard.graph_assembly",
            ("detail", "simulate/partition") => "shard.partition",
            ("detail", "simulate/apply-moves") => "shard.apply_moves",
            ("detail", "partition/coarsen") => {
                levels.push(arg(rec, "levels"));
                coarsest.push(arg(rec, "coarsest_vertices"));
                "partition.coarsen"
            }
            ("detail", "partition/initial") => "partition.initial",
            ("detail", "partition/refine") => "partition.refine",
            _ => continue,
        };
        *m.entry(catalogued(format!("{layer}.busy_s"))).or_default() += secs;
        if rec.cat == "layer" {
            *m.entry(catalogued(format!("{layer}.alloc_mib")))
                .or_default() += mib(arg(rec, "alloc_bytes") as u64);
            let peak = m
                .entry(catalogued(format!("{layer}.peak_mib")))
                .or_default();
            *peak = peak.max(mib(arg(rec, "peak_bytes") as u64));
        }
    }
    if !levels.is_empty() {
        m.insert("partition.coarsen_levels", median(&levels));
        m.insert("partition.coarsest_vertices", median(&coarsest));
    }
    covered
}

/// Adds `<prefix>.partition.{calls,busy_s,call_ms_p50,call_ms_p95,
/// mean_vertices}` from the timed partitioner's calls (the busy time only
/// for `live`, where the simulator's own span does not exist).
fn partition_calls(calls: &[Call], prefix: &str, m: &mut BTreeMap<&'static str, f64>) {
    let ms: Vec<f64> = calls.iter().map(|c| c.secs * 1e3).collect();
    // folds from +0.0: an empty f64 `sum` is -0.0
    let vertices = calls.iter().fold(0.0, |acc, c| acc + c.vertices as f64);
    let p = |suffix: &str| catalogued(format!("{prefix}.partition.{suffix}"));
    m.insert(p("calls"), calls.len() as f64);
    m.insert(p("call_ms_p50"), percentile(&ms, 0.5));
    m.insert(p("call_ms_p95"), percentile(&ms, 0.95));
    m.insert(p("mean_vertices"), vertices / calls.len().max(1) as f64);
    if prefix == "live" {
        m.insert(p("busy_s"), ms.iter().fold(0.0, |acc, v| acc + v) / 1e3);
    }
}

/// A span argument as a number (0 when absent or not numeric).
fn arg(rec: &Record, key: &str) -> f64 {
    match rec.args.iter().find(|(k, _)| *k == key) {
        Some((_, Arg::U64(v))) => *v as f64,
        Some((_, Arg::I64(v))) => *v as f64,
        Some((_, Arg::F64(v))) => *v,
        _ => 0.0,
    }
}

/// Maps a built name onto the catalogue's `'static` spelling. Every name
/// the traced run builds is in the catalogue, so a miss is a bug here.
fn catalogued(name: String) -> &'static str {
    crate::PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|&n| n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the per-layer catalogue"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(percentile(&v, 0.95), 5.0);
        assert_eq!(percentile(&v, 0.2), 1.0);
        assert_eq!(median(&[]), 0.0);
    }
}
