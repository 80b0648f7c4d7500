//! The live repartitioning service: an online loop around the engine.
//!
//! The offline pipeline answers "which partitioning method is best" by
//! replaying a finished chain. This crate runs the same machinery as a
//! *long-running system*: blocks stream into a windowed, decaying
//! interaction graph ([`WindowedGraph`]); a [`RepartitionPolicy`] watches
//! the newest window's dynamic edge-cut and balance; when it fires, the
//! partitioner re-partitions the reduced graph in the background and the
//! resulting assignment delta is executed as an actual state migration
//! through the 2PC runtime ([`LiveSession`]) — locks held, bytes shipped,
//! installs occupying execution units — while the foreground transaction
//! stream keeps flowing. The [`MigrationReport`] records what that cost:
//! accounts and bytes moved, migration wall-clock, and the foreground's
//! throughput and latency before, during and after each migration.
//!
//! The paper measures repartitioning by vertices moved and leaves the
//! price of *moving* them to future work (§VI: "how to checkpoint the
//! state of an account on a blockchain and restore it on a different
//! blockchain"); this service makes that price a first-class measurement.
//!
//! # Examples
//!
//! ```
//! use blockpart_ethereum::World;
//! use blockpart_live::{LiveConfig, LiveRunner};
//! use blockpart_partition::HashPartitioner;
//! use blockpart_types::ShardCount;
//!
//! let mut runner = LiveRunner::new(
//!     LiveConfig::new(ShardCount::TWO),
//!     Box::new(HashPartitioner::new()),
//! );
//! let run = runner.run(&World::new(), &[]);
//! assert_eq!(run.report.migrations(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use blockpart_ethereum::{ExecutedTx, World};
use blockpart_graph::Interaction;
use blockpart_metrics::{Json, Table};
use blockpart_partition::{Partition, PartitionRequest, Partitioner};
use blockpart_runtime::{
    Assignment, LiveSession, MigrationConfig, MigrationStats, RuntimeConfig, SegmentReport,
};
use blockpart_shard::{RepartitionPolicy, SimulatorConfig, WindowedGraph};
use blockpart_types::{Address, Duration, ShardCount, ShardId, Timestamp};
use serde::{Deserialize, Serialize};

/// Configuration of the live loop: measurement window, graph retention,
/// trigger policy, and the engine/migration tuning underneath.
///
/// # Examples
///
/// ```
/// use blockpart_live::LiveConfig;
/// use blockpart_types::{Duration, ShardCount};
///
/// let cfg = LiveConfig::new(ShardCount::TWO).with_window(Duration::hours(1));
/// assert_eq!(cfg.window, Duration::hours(1));
/// assert_eq!(cfg.depth, 7);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LiveConfig {
    /// Number of shards.
    pub k: ShardCount,
    /// Measurement/segment window length (the paper's 4-hour windows).
    pub window: Duration,
    /// Windows retained in the decaying reduced graph (R-METIS
    /// `window=7` semantics: the newest window weighs `depth×`).
    pub depth: usize,
    /// When to re-run the partitioner. The default threshold trigger is
    /// the TR-METIS setting with a one-day refractory period — a live
    /// service reacts in hours, not the offline study's fortnights.
    pub policy: RepartitionPolicy,
    /// Engine tuning for the 2PC replay of each segment.
    pub runtime: RuntimeConfig,
    /// Batching and pacing of migration traffic.
    pub migration: MigrationConfig,
    /// Collect the full virtual-clock trace (retrieve it via
    /// [`LiveRun::session`] and [`LiveSession::finish`]).
    pub traced: bool,
    /// Report label; the partitioner's method name when absent.
    pub label: Option<String>,
}

impl LiveConfig {
    /// The default live configuration at `k` shards: 4-hour windows,
    /// depth 7, TR-METIS thresholds with a one-day refractory period.
    pub fn new(k: ShardCount) -> Self {
        LiveConfig {
            k,
            window: Duration::hours(4),
            depth: 7,
            policy: RepartitionPolicy::Threshold {
                edge_cut: 0.5,
                balance: 2.0,
                min_interval: Duration::days(1),
            },
            runtime: RuntimeConfig::new(k),
            migration: MigrationConfig::default(),
            traced: false,
            label: None,
        }
    }

    /// The live loop a strategy's offline configuration implies: `sim`'s
    /// shard count and trigger policy, `window`-long windows, and a
    /// retention depth of `sim`'s reduced-graph span in windows (at
    /// least one).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `runtime` spans a different shard
    /// count than `sim`.
    pub fn for_strategy(sim: &SimulatorConfig, window: Duration, runtime: RuntimeConfig) -> Self {
        let cfg = LiveConfig::new(sim.k).with_window(window);
        let depth = (sim.scope_window.as_secs() / window.as_secs()).max(1) as usize;
        cfg.with_depth(depth)
            .with_policy(sim.policy)
            .with_runtime(runtime)
    }

    /// Overrides the window length.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(mut self, window: Duration) -> Self {
        assert!(!window.is_zero(), "window must be non-zero");
        self.window = window;
        self
    }

    /// Overrides the graph retention depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_depth(mut self, depth: usize) -> Self {
        assert!(depth > 0, "depth must be non-zero");
        self.depth = depth;
        self
    }

    /// Overrides the repartition trigger policy.
    pub fn with_policy(mut self, policy: RepartitionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the engine tuning.
    ///
    /// # Panics
    ///
    /// Panics if `runtime` spans a different shard count than the live
    /// configuration.
    pub fn with_runtime(mut self, runtime: RuntimeConfig) -> Self {
        assert_eq!(runtime.k, self.k, "shard counts disagree");
        self.runtime = runtime;
        self
    }

    /// Overrides migration batching/pacing.
    pub fn with_migration(mut self, migration: MigrationConfig) -> Self {
        self.migration = migration;
        self
    }

    /// Enables or disables full tracing.
    pub fn with_tracing(mut self, traced: bool) -> Self {
        self.traced = traced;
        self
    }

    /// Overrides the report's strategy label (e.g. the resolved spec
    /// name `TR-METIS` instead of the bare partitioner name `metis`).
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }
}

/// One measurement window of a live run: the foreground's cost plus the
/// trigger inputs measured at the window's close.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LiveWindow {
    /// Window start (block time).
    pub start: Timestamp,
    /// Foreground transactions offered.
    pub txs: usize,
    /// Foreground transactions committed.
    pub committed: u64,
    /// Foreground transactions dropped after exhausting retries.
    pub failed: u64,
    /// Foreground transactions whose footprint spanned shards.
    pub cross_shard_txs: usize,
    /// Foreground 2PC rounds aborted.
    pub aborted_rounds: u64,
    /// Foreground commits per virtual second.
    pub throughput_tps: f64,
    /// Median foreground commit latency (virtual µs).
    pub p50_us: u64,
    /// Tail foreground commit latency (virtual µs).
    pub p99_us: u64,
    /// Dynamic edge-cut of this window's traffic at its close.
    pub window_cut: f64,
    /// Activity balance of this window's traffic at its close.
    pub window_balance: f64,
    /// Accounts staged to move at this window's close (the migration
    /// itself executes during the *next* window).
    pub staged_moves: u64,
    /// Migration cost, when a staged rebalance executed in this window.
    pub migration: Option<MigrationStats>,
}

impl LiveWindow {
    fn from_segment(start: Timestamp, seg: &SegmentReport) -> Self {
        LiveWindow {
            start,
            txs: seg.txs,
            committed: seg.committed,
            failed: seg.failed,
            cross_shard_txs: seg.cross_shard_txs,
            aborted_rounds: seg.aborted_rounds,
            throughput_tps: seg.throughput_tps,
            p50_us: seg.p50_commit_latency_us,
            p99_us: seg.p99_commit_latency_us,
            window_cut: 0.0,
            window_balance: 1.0,
            staged_moves: 0,
            migration: seg.migration.clone(),
        }
    }

    fn phase(&self) -> Phase {
        Phase {
            throughput_tps: self.throughput_tps,
            p50_us: self.p50_us,
            p99_us: self.p99_us,
        }
    }
}

/// A foreground performance snapshot (one window's throughput and
/// latency), used for before/during/after comparisons.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Foreground commits per virtual second.
    pub throughput_tps: f64,
    /// Median foreground commit latency (virtual µs).
    pub p50_us: u64,
    /// Tail foreground commit latency (virtual µs).
    pub p99_us: u64,
}

/// One executed migration with the foreground's performance in the
/// windows around it.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MigrationEpisode {
    /// Start of the window during which the migration executed.
    pub window: Timestamp,
    /// What the migration cost inside the engine.
    pub stats: MigrationStats,
    /// The window before the migration (absent when the run began with
    /// one).
    pub before: Option<Phase>,
    /// The window the migration executed in.
    pub during: Phase,
    /// The window after the migration (absent when the run ended on one).
    pub after: Option<Phase>,
}

/// The measured outcome of a live run. See the [module docs](self).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MigrationReport {
    /// The partitioner's method name.
    pub strategy: String,
    /// Number of shards.
    pub k: u16,
    /// Per-window measurements, in time order.
    pub windows: Vec<LiveWindow>,
    /// One entry per executed migration, in time order.
    pub episodes: Vec<MigrationEpisode>,
}

impl MigrationReport {
    fn new(strategy: String, k: ShardCount, windows: Vec<LiveWindow>) -> Self {
        let episodes = windows
            .iter()
            .enumerate()
            .filter_map(|(i, w)| {
                w.migration.as_ref().map(|stats| MigrationEpisode {
                    window: w.start,
                    stats: stats.clone(),
                    before: i.checked_sub(1).map(|p| windows[p].phase()),
                    during: w.phase(),
                    after: windows.get(i + 1).map(LiveWindow::phase),
                })
            })
            .collect();
        MigrationReport {
            strategy,
            k: k.get(),
            windows,
            episodes,
        }
    }

    /// How many migrations executed.
    pub fn migrations(&self) -> usize {
        self.episodes.len()
    }

    /// Total foreground transactions committed.
    pub fn total_committed(&self) -> u64 {
        self.windows.iter().map(|w| w.committed).sum()
    }

    /// Total foreground transactions dropped.
    pub fn total_failed(&self) -> u64 {
        self.windows.iter().map(|w| w.failed).sum()
    }

    /// Total accounts whose owning shard changed.
    pub fn accounts_moved(&self) -> u64 {
        self.episodes.iter().map(|e| e.stats.accounts).sum()
    }

    /// Total state bytes shipped between shards.
    pub fn bytes_moved(&self) -> u64 {
        self.episodes.iter().map(|e| e.stats.bytes).sum()
    }

    /// Summed migration wall-clock (virtual µs, barrier to last ack).
    pub fn migration_wall_us(&self) -> u64 {
        self.episodes.iter().map(|e| e.stats.wall_us).sum()
    }

    /// The worst during-migration tail latency across episodes.
    pub fn worst_during_p99_us(&self) -> u64 {
        self.episodes
            .iter()
            .map(|e| e.during.p99_us)
            .max()
            .unwrap_or(0)
    }

    /// A one-line summary of the run.
    pub fn headline(&self) -> String {
        format!(
            "LIVE {} k={}: {} windows, {} committed ({} failed), {} migrations \
             moving {} accounts / {} bytes in {:.1} ms, worst during-migration p99 {} µs",
            self.strategy,
            self.k,
            self.windows.len(),
            self.total_committed(),
            self.total_failed(),
            self.migrations(),
            self.accounts_moved(),
            self.bytes_moved(),
            self.migration_wall_us() as f64 / 1e3,
            self.worst_during_p99_us(),
        )
    }

    /// The per-window measurement table.
    pub fn window_table(&self) -> Table {
        let mut t = Table::new(vec![
            "window",
            "txs",
            "committed",
            "cross",
            "aborts",
            "tps",
            "p50_us",
            "p99_us",
            "cut",
            "balance",
            "staged",
            "moved",
            "mig_bytes",
        ]);
        for w in &self.windows {
            t.row(vec![
                format!("{}h", w.start.as_secs() / 3_600),
                w.txs.to_string(),
                w.committed.to_string(),
                w.cross_shard_txs.to_string(),
                w.aborted_rounds.to_string(),
                format!("{:.0}", w.throughput_tps),
                w.p50_us.to_string(),
                w.p99_us.to_string(),
                format!("{:.3}", w.window_cut),
                format!("{:.3}", w.window_balance),
                w.staged_moves.to_string(),
                w.migration
                    .as_ref()
                    .map_or_else(|| "-".into(), |m| m.accounts.to_string()),
                w.migration
                    .as_ref()
                    .map_or_else(|| "-".into(), |m| m.bytes.to_string()),
            ]);
        }
        t
    }

    /// The per-migration before/during/after table.
    pub fn episode_table(&self) -> Table {
        let mut t = Table::new(vec![
            "window",
            "accounts",
            "bytes",
            "batches",
            "wall_ms",
            "tps before",
            "tps during",
            "tps after",
            "p99 before",
            "p99 during",
            "p99 after",
        ]);
        let tps = |p: &Option<Phase>| {
            p.map_or_else(|| "-".into(), |p| format!("{:.0}", p.throughput_tps))
        };
        let p99 = |p: &Option<Phase>| p.map_or_else(|| "-".into(), |p| p.p99_us.to_string());
        for e in &self.episodes {
            t.row(vec![
                format!("{}h", e.window.as_secs() / 3_600),
                e.stats.accounts.to_string(),
                e.stats.bytes.to_string(),
                e.stats.batches.to_string(),
                format!("{:.1}", e.stats.wall_us as f64 / 1e3),
                tps(&e.before),
                format!("{:.0}", e.during.throughput_tps),
                tps(&e.after),
                p99(&e.before),
                e.during.p99_us.to_string(),
                p99(&e.after),
            ]);
        }
        t
    }

    /// The machine-readable form of the report.
    pub fn json(&self) -> Json {
        let phase = |p: &Phase| {
            Json::obj([
                ("tps", Json::from(p.throughput_tps)),
                ("p50_us", Json::from(p.p50_us)),
                ("p99_us", Json::from(p.p99_us)),
            ])
        };
        let opt_phase = |p: &Option<Phase>| p.as_ref().map_or(Json::Null, &phase);
        Json::obj([
            ("schema", Json::from("blockpart.live/1")),
            ("strategy", Json::from(self.strategy.as_str())),
            ("k", Json::from(u64::from(self.k))),
            (
                "windows",
                Json::arr(self.windows.iter().map(|w| {
                    Json::obj([
                        ("start_s", Json::from(w.start.as_secs())),
                        ("txs", Json::from(w.txs as u64)),
                        ("committed", Json::from(w.committed)),
                        ("failed", Json::from(w.failed)),
                        ("cross_shard_txs", Json::from(w.cross_shard_txs as u64)),
                        ("aborted_rounds", Json::from(w.aborted_rounds)),
                        ("tps", Json::from(w.throughput_tps)),
                        ("p50_us", Json::from(w.p50_us)),
                        ("p99_us", Json::from(w.p99_us)),
                        ("cut", Json::from(w.window_cut)),
                        ("balance", Json::from(w.window_balance)),
                        ("staged_moves", Json::from(w.staged_moves)),
                        (
                            "migration",
                            w.migration.as_ref().map_or(Json::Null, |m| {
                                Json::obj([
                                    ("batches", Json::from(m.batches)),
                                    ("accounts", Json::from(m.accounts)),
                                    ("bytes", Json::from(m.bytes)),
                                    ("wall_us", Json::from(m.wall_us)),
                                ])
                            }),
                        ),
                    ])
                })),
            ),
            (
                "episodes",
                Json::arr(self.episodes.iter().map(|e| {
                    Json::obj([
                        ("window_s", Json::from(e.window.as_secs())),
                        ("accounts", Json::from(e.stats.accounts)),
                        ("bytes", Json::from(e.stats.bytes)),
                        ("batches", Json::from(e.stats.batches)),
                        ("wall_us", Json::from(e.stats.wall_us)),
                        ("before", opt_phase(&e.before)),
                        ("during", phase(&e.during)),
                        ("after", opt_phase(&e.after)),
                    ])
                })),
            ),
            (
                "totals",
                Json::obj([
                    ("committed", Json::from(self.total_committed())),
                    ("failed", Json::from(self.total_failed())),
                    ("migrations", Json::from(self.migrations() as u64)),
                    ("accounts_moved", Json::from(self.accounts_moved())),
                    ("bytes_moved", Json::from(self.bytes_moved())),
                    ("migration_wall_us", Json::from(self.migration_wall_us())),
                    (
                        "worst_during_p99_us",
                        Json::from(self.worst_during_p99_us()),
                    ),
                ]),
            ),
        ])
    }
}

/// A finished live run: the report plus the still-open session, for
/// state-conservation checks ([`LiveSession::resident_addresses`]) and
/// trace retrieval ([`LiveSession::finish`]).
pub struct LiveRun {
    /// The measured outcome.
    pub report: MigrationReport,
    /// The session the run drove, with its final per-shard worlds.
    pub session: LiveSession,
}

/// The online repartitioning loop: stream in, windowed graph, trigger,
/// background re-partition, live migration. See the [module docs](self).
pub struct LiveRunner {
    cfg: LiveConfig,
    partitioner: Box<dyn Partitioner>,
}

impl LiveRunner {
    /// Creates a runner driving `partitioner` under `cfg`.
    pub fn new(cfg: LiveConfig, partitioner: Box<dyn Partitioner>) -> Self {
        LiveRunner { cfg, partitioner }
    }

    /// Runs `stream` (time-sorted executed transactions) against shard
    /// slices of `world`, starting from hash placement.
    ///
    /// Each block-time window becomes one engine segment. At a window's
    /// close the decayed reduced graph's metrics feed the trigger
    /// policy; a due re-partition is staged and executes as a live
    /// migration at the next segment's epoch barrier. A migration
    /// staged by the final window drains in one extra empty segment so
    /// every staged move is executed and measured.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is not sorted by `time`.
    pub fn run(&mut self, world: &World, stream: &[ExecutedTx]) -> LiveRun {
        assert!(
            stream.windows(2).all(|w| w[0].time <= w[1].time),
            "stream must be time-sorted"
        );
        let k = self.cfg.k;
        let mut session = if self.cfg.traced {
            LiveSession::new_traced(self.cfg.runtime.clone(), Assignment::hashed(k), world)
        } else {
            LiveSession::new(self.cfg.runtime.clone(), Assignment::hashed(k), world)
        };
        let mut graph = WindowedGraph::new(self.cfg.window, self.cfg.depth);
        let mut last_repart = Timestamp::EPOCH;
        let mut windows: Vec<LiveWindow> = Vec::new();

        let mut rest = stream;
        while let Some(first) = rest.first() {
            let start = first.time.align_down(self.cfg.window);
            let close = start + self.cfg.window;
            let len = rest.partition_point(|e| e.time < close);
            let (group, tail) = rest.split_at(len);
            rest = tail;

            // one window = one segment; a migration staged at the
            // previous close executes at this segment's barrier
            let seg = session.run_segment(group, &self.cfg.migration);
            let mut window = LiveWindow::from_segment(start, &seg);

            for e in group {
                graph.record(Interaction::new(e.time, e.tx.from, e.tx.to));
            }
            graph.expire(start);
            let assignment = session.assignment();
            let (cut, balance) = graph.newest_window_metrics(k, |a| assignment.shard_of(a));
            window.window_cut = cut;
            window.window_balance = balance;

            if self.cfg.policy.due(close, last_repart, cut, balance) && !session.migration_pending()
            {
                if let Some(placements) = self.repartition(&graph, &session) {
                    window.staged_moves = session.stage_rebalance(&placements);
                    last_repart = close;
                }
            }
            windows.push(window);
        }

        // drain: execute a migration staged by the final window
        if session.migration_pending() {
            let start = windows.last().map_or(Timestamp::EPOCH, |w| w.start) + self.cfg.window;
            let seg = session.run_segment(&[], &self.cfg.migration);
            let mut window = LiveWindow::from_segment(start, &seg);
            let assignment = session.assignment();
            let (cut, balance) = graph.newest_window_metrics(k, |a| assignment.shard_of(a));
            window.window_cut = cut;
            window.window_balance = balance;
            windows.push(window);
        }

        let label = self
            .cfg
            .label
            .clone()
            .unwrap_or_else(|| self.partitioner.name().to_string());
        LiveRun {
            report: MigrationReport::new(label, k, windows),
            session,
        }
    }

    /// Re-partitions the decayed reduced graph and returns the new shard
    /// of each of its vertices, for the session to overlay onto its
    /// current routing. Returns `None` when the buffer holds no events.
    fn repartition(
        &mut self,
        graph: &WindowedGraph,
        session: &LiveSession,
    ) -> Option<Vec<(Address, ShardId)>> {
        let (csr, order, ids) = graph.build()?;
        let previous: Vec<u16> = order
            .iter()
            .map(|&a| session.assignment().shard_of(a).as_u16())
            .collect();
        let previous = Partition::from_assignment(previous, self.cfg.k).expect("shards in range");
        let req = PartitionRequest::new(&csr, self.cfg.k)
            .with_stable_ids(&ids)
            .with_previous(&previous);
        let partition = self.partitioner.partition(&req);
        Some(
            order
                .iter()
                .enumerate()
                .map(|(v, &address)| (address, partition.shard_of(v)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpart_ethereum::{Receipt, Transaction, TxPayload, TxStatus};
    use blockpart_partition::{MultilevelConfig, MultilevelPartitioner};
    use blockpart_types::{Address, Gas, Wei};

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

    /// Two four-user communities transacting internally for `hours`
    /// hours: hash placement scatters them, so the window cut trips the
    /// threshold trigger and the partitioner pulls each community onto
    /// one shard.
    fn community_stream(world: &mut World, hours: u64) -> (Vec<Address>, Vec<ExecutedTx>) {
        let users: Vec<Address> = (0..8).map(|_| world.new_user(Wei::new(10_000))).collect();
        let mut stream = Vec::new();
        for h in 0..hours {
            for m in 0..12 {
                let t = h * 3_600 + m * 300;
                let i = (h + m) as usize;
                // community A = users 0..4, community B = users 4..8
                stream.push(transfer(users[i % 4], users[(i + 1) % 4], t));
                stream.push(transfer(users[4 + i % 4], users[4 + (i + 1) % 4], t + 60));
            }
        }
        (users, stream)
    }

    fn test_config() -> LiveConfig {
        LiveConfig::new(ShardCount::TWO)
            .with_window(Duration::hours(1))
            .with_depth(4)
            .with_policy(RepartitionPolicy::Threshold {
                edge_cut: 0.3,
                balance: 2.5,
                min_interval: Duration::hours(1),
            })
    }

    fn metis(seed: u64) -> Box<dyn Partitioner> {
        Box::new(MultilevelPartitioner::new(MultilevelConfig {
            seed,
            ..MultilevelConfig::default()
        }))
    }

    #[test]
    fn trigger_fires_and_migration_executes() {
        let mut world = World::new();
        let (_, stream) = community_stream(&mut world, 6);
        let mut runner = LiveRunner::new(test_config(), metis(7));
        let run = runner.run(&world, &stream);
        let report = &run.report;
        assert!(report.migrations() >= 1, "{}", report.headline());
        assert!(report.accounts_moved() > 0);
        assert!(report.bytes_moved() > 0);
        assert!(report.migration_wall_us() > 0);
        assert_eq!(report.total_committed(), stream.len() as u64);
        assert_eq!(report.total_failed(), 0);
        // conservation: every account holds state on exactly one shard
        let resident = run.session.resident_addresses();
        assert_eq!(resident.len(), 8);
        // the re-partition actually reduced the window cut
        let last = report.windows.last().unwrap();
        let first = report.windows.first().unwrap();
        assert!(
            last.window_cut < first.window_cut,
            "cut {} → {}",
            first.window_cut,
            last.window_cut
        );
    }

    #[test]
    fn never_policy_never_migrates() {
        let mut world = World::new();
        let (_, stream) = community_stream(&mut world, 3);
        let cfg = test_config().with_policy(RepartitionPolicy::Never);
        let mut runner = LiveRunner::new(cfg, metis(7));
        let run = runner.run(&world, &stream);
        assert_eq!(run.report.migrations(), 0);
        assert!(run.report.windows.iter().all(|w| w.staged_moves == 0));
        assert_eq!(run.report.total_committed(), stream.len() as u64);
    }

    #[test]
    fn report_renders_tables_and_json() {
        let mut world = World::new();
        let (_, stream) = community_stream(&mut world, 6);
        let mut runner = LiveRunner::new(test_config(), metis(7));
        let report = runner.run(&world, &stream).report;
        assert_eq!(report.window_table().len(), report.windows.len());
        assert_eq!(report.episode_table().len(), report.episodes.len());
        assert!(report.headline().contains("LIVE"));
        let json = report.json().render();
        assert!(json.contains("\"blockpart.live/1\""));
        assert!(json.contains("\"episodes\""));
        // every episode has a before window (run never starts migrating)
        assert!(report.episodes.iter().all(|e| e.before.is_some()));
    }
}
