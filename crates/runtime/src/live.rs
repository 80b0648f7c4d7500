//! A long-running execution session with online assignment changes.
//!
//! [`ShardedRuntime`](crate::ShardedRuntime) replays one workload over
//! one fixed assignment and tears everything down. A [`LiveSession`]
//! keeps the per-shard workers — worlds, lock tables, virtual clock —
//! alive across *segments* of the transaction stream, and lets a
//! repartitioning policy swap the assignment between segments. The swap
//! is not free: the state of every moved account is shipped shard-to-
//! shard through the same 2PC machinery the foreground traffic uses,
//! while that traffic keeps flowing. Migration cost therefore shows up
//! where it belongs — as lock conflicts, abort spikes and occupied
//! execution units in the foreground's own report.
//!
//! The mechanism, per staged rebalance:
//!
//! 1. **Epoch barrier.** Segments only start when every worker is
//!    quiescent, so the routing swap is atomic: all transactions of the
//!    next segment are footprinted under the *new* assignment.
//! 2. **Guard locks.** Before any event of the segment runs, each
//!    destination shard locks the addresses it is about to receive.
//!    Foreground transactions touching moving state block (local) or
//!    abort-and-retry (cross-shard) until the state lands — that is the
//!    abort spike the report measures.
//! 3. **Migration batches.** The assignment delta is chunked into
//!    batches, each a migration-kind transaction record
//!    coordinated by the destination: Prepare locks the source
//!    copies and ships them in the Vote, the "execution" step models the
//!    install cost by bytes, Commit discards the source copies, and the
//!    final Ack completes the batch. Batches are paced so migration
//!    traffic does not monopolize the network instant.

use std::collections::BTreeMap;

use blockpart_ethereum::{ExecutedTx, World};
use blockpart_obs::Trace;
use blockpart_shard::AssignmentDelta;
use blockpart_types::{Address, ShardId, Timestamp};
use serde::{Deserialize, Serialize};

use crate::clock::Micros;
use crate::event::TxId;
use crate::net::NetworkModel;
use crate::shard_worker::{Ctx, ShardWorker, TxKind, TxRecord};
use crate::{
    arrivals_of, drive, footprints_for, payload_record, Assignment, Detail, RuntimeConfig,
    RuntimeReport,
};

/// Batching and pacing of live state migration.
///
/// # Examples
///
/// ```
/// use blockpart_runtime::MigrationConfig;
///
/// let cfg = MigrationConfig::default();
/// assert_eq!(cfg.batch_accounts, 64);
/// ```
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MigrationConfig {
    /// Maximum accounts shipped per 2PC migration batch.
    pub batch_accounts: usize,
    /// Gap between consecutive batch kickoffs (virtual µs).
    pub pacing_us: u64,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            batch_accounts: 64,
            pacing_us: 1_000,
        }
    }
}

/// What one executed migration cost, measured inside the engine.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MigrationStats {
    /// 2PC batches shipped.
    pub batches: u64,
    /// Accounts whose owning shard changed.
    pub accounts: u64,
    /// State bytes shipped between shards.
    pub bytes: u64,
    /// Virtual time from the epoch barrier to the last batch's ack.
    pub wall_us: u64,
}

/// The outcome of one segment of a live session: the foreground
/// traffic's report plus, when a rebalance executed in this segment,
/// the migration's measured cost.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct SegmentReport {
    /// Foreground transactions offered in this segment.
    pub txs: usize,
    /// Foreground transactions committed.
    pub committed: u64,
    /// Foreground transactions dropped after exhausting retries.
    pub failed: u64,
    /// Foreground transactions whose footprint spanned shards.
    pub cross_shard_txs: usize,
    /// Foreground 2PC prepare rounds.
    pub prepare_rounds: u64,
    /// Foreground 2PC rounds aborted.
    pub aborted_rounds: u64,
    /// Local pump passes blocked on a held lock.
    pub local_conflicts: u64,
    /// `aborted_rounds` split by cause.
    pub abort_causes: BTreeMap<String, u64>,
    /// Median foreground commit latency.
    pub p50_commit_latency_us: u64,
    /// Tail foreground commit latency.
    pub p99_commit_latency_us: u64,
    /// Virtual segment start.
    pub start_us: Micros,
    /// Virtual time of the segment's last event.
    pub end_us: Micros,
    /// Foreground commits per virtual second.
    pub throughput_tps: f64,
    /// Migration cost, when a staged rebalance executed here.
    pub migration: Option<MigrationStats>,
}

/// A staged assignment change awaiting the next epoch barrier.
struct Staged {
    next: Assignment,
    delta: AssignmentDelta,
}

/// A persistent sharded execution session: workers survive across
/// segments, the virtual clock never resets, and staged rebalances are
/// executed as live 2PC state migrations.
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::World;
/// use blockpart_runtime::{Assignment, LiveSession, MigrationConfig, RuntimeConfig};
/// use blockpart_types::ShardCount;
///
/// let k = ShardCount::TWO;
/// let mut session = LiveSession::new(
///     RuntimeConfig::new(k),
///     Assignment::hashed(k),
///     &World::new(),
/// );
/// let report = session.run_segment(&[], &MigrationConfig::default());
/// assert_eq!(report.committed, 0);
/// ```
pub struct LiveSession {
    cfg: RuntimeConfig,
    assignment: Assignment,
    workers: Vec<ShardWorker>,
    staged: Option<Staged>,
    clock_us: Micros,
    next_global_tx: u64,
    segments: usize,
    detail: Detail,
    trace: Trace,
}

impl LiveSession {
    /// Opens a session over shard slices of `world` without
    /// instrumentation.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's and assignment's shard counts
    /// disagree.
    pub fn new(cfg: RuntimeConfig, assignment: Assignment, world: &World) -> Self {
        Self::with_detail(cfg, assignment, world, Detail::Off)
    }

    /// Opens a session collecting the full virtual-clock trace
    /// (migration spans included); retrieve it with
    /// [`finish`](Self::finish).
    pub fn new_traced(cfg: RuntimeConfig, assignment: Assignment, world: &World) -> Self {
        Self::with_detail(cfg, assignment, world, Detail::Events)
    }

    fn with_detail(
        cfg: RuntimeConfig,
        assignment: Assignment,
        world: &World,
        detail: Detail,
    ) -> Self {
        assert_eq!(cfg.k, assignment.k(), "shard counts disagree");
        let workers = crate::build_workers(&cfg, &assignment, world);
        let mut trace = match detail {
            Detail::Events => Trace::new_virtual(),
            Detail::Metrics => Trace::metrics_only(),
            Detail::Off => Trace::disabled(),
        };
        if detail != Detail::Off {
            trace.name_process(0, "live session (virtual µs)");
            for w in &workers {
                trace.name_thread(0, u32::from(w.id.as_u16()), w.id.to_string());
            }
        }
        LiveSession {
            cfg,
            assignment,
            workers,
            staged: None,
            clock_us: 0,
            next_global_tx: 0,
            segments: 0,
            detail,
            trace,
        }
    }

    /// The routing assignment foreground transactions currently use.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The current virtual time floor of the session.
    pub fn now_us(&self) -> Micros {
        self.clock_us
    }

    /// Whether a rebalance is staged but not yet executed.
    pub fn migration_pending(&self) -> bool {
        self.staged.is_some()
    }

    /// Stages a routing change to execute at the next segment's epoch
    /// barrier: the current routing with each address of `placements`
    /// moved to its shard. Returns the number of accounts that will move;
    /// a no-move delta stages nothing. Staging again before the next
    /// segment replaces the previous stage.
    ///
    /// Only the placed addresses can change shard, so the delta is
    /// computed from them alone: the cost of staging follows the
    /// repartitioned window, not the size of the routing table. The
    /// delta sorts and dedups each group, so the placements may come in
    /// any order.
    ///
    /// # Panics
    ///
    /// Panics if a placement's shard is out of range for the session's
    /// shard count.
    pub fn stage_rebalance(&mut self, placements: &[(Address, ShardId)]) -> u64 {
        let mut next = self.assignment.clone();
        next.place(placements);
        let delta = AssignmentDelta::between(
            placements.iter().map(|&(a, _)| a),
            |a| self.assignment.shard_of(a),
            |a| next.shard_of(a),
        );
        let moved = delta.total_moved();
        self.staged = if moved > 0 {
            Some(Staged { next, delta })
        } else {
            None
        };
        moved
    }

    /// Runs one segment: executes any staged migration while streaming
    /// `txs` through the shards, and reports what both cost.
    pub fn run_segment(&mut self, txs: &[ExecutedTx], mig: &MigrationConfig) -> SegmentReport {
        let start = self.clock_us;
        debug_assert!(
            self.workers.iter().all(ShardWorker::is_quiescent),
            "segment started with in-flight work"
        );

        // epoch barrier: swap routing before footprinting the segment
        let staged = self.staged.take();
        if let Some(s) = &staged {
            self.assignment = s.next.clone();
        }

        let batches = staged
            .as_ref()
            .map_or_else(Vec::new, |s| s.delta.batches(mig.batch_accounts));
        let moving = batches.iter().map(|b| b.addrs.len()).sum();
        let mut footprints = footprints_for(self.cfg.k, txs, batches.len(), moving);
        let mut records: Vec<TxRecord> = Vec::with_capacity(txs.len() + batches.len());
        records.extend(txs.iter().enumerate().map(|(i, e)| {
            payload_record(
                &self.cfg,
                &self.assignment,
                &mut footprints,
                e,
                self.next_global_tx + i as u64,
                start + i as u64 * self.cfg.inter_arrival_us,
            )
        }));
        self.next_global_tx += txs.len() as u64;
        let foreground = records.len();

        let batches_staged = batches.len() as u64;
        for (j, batch) in batches.into_iter().enumerate() {
            let txid = TxId((records.len()) as u32);
            // guard locks: the destination seals the moving addresses
            // before any foreground event of this segment
            let guarded = self.workers[batch.to.as_usize()]
                .locks
                .try_lock_all(txid, &batch.addrs);
            assert!(guarded, "destination shard had stale locks at the barrier");
            records.push(TxRecord {
                arrival_us: start + j as u64 * mig.pacing_us,
                block_time: Timestamp::EPOCH,
                tx: migration_marker(),
                home: batch.to,
                parts: footprints.push_part(batch.from, &batch.addrs),
                entropy: 0,
                kind: TxKind::Migration,
            });
        }

        if self.detail != Detail::Off {
            for worker in &mut self.workers {
                let mut obs = match self.detail {
                    Detail::Events => Trace::new_virtual(),
                    _ => Trace::metrics_only(),
                };
                obs.set_lane(0, u32::from(worker.id.as_u16()));
                obs.set_metric_prefix(format!("{}/", worker.id));
                worker.obs = obs;
            }
        }

        let ctx = Ctx {
            cfg: &self.cfg,
            txs: &records,
            footprints: &footprints,
            net: NetworkModel {
                latency_us: self.cfg.net_latency_us,
            },
        };
        let mut queue = arrivals_of(&records);
        let last = drive(&mut self.workers, &mut queue, &ctx);
        let end = last.max(start);
        self.clock_us = end + self.cfg.inter_arrival_us;
        self.segments += 1;

        // harvest this segment's stats and trace, leaving the workers
        // clean for the next segment
        let mut committed = 0u64;
        let mut failed = 0u64;
        let mut prepare_rounds = 0u64;
        let mut aborted_rounds = 0u64;
        let mut local_conflicts = 0u64;
        let mut abort_causes: BTreeMap<String, u64> = BTreeMap::new();
        let mut latencies: Vec<u64> = Vec::new();
        let mut migration = MigrationStats::default();
        let mut migration_last = 0u64;
        for worker in &mut self.workers {
            let stats = std::mem::take(&mut worker.stats);
            committed += stats.committed;
            failed += stats.failed;
            prepare_rounds += stats.prepare_rounds;
            aborted_rounds += stats.aborted_rounds;
            local_conflicts += stats.local_conflicts;
            for (cause, n) in stats.abort_causes {
                *abort_causes.entry(cause.to_string()).or_insert(0) += n;
            }
            latencies.extend(stats.latencies_us);
            migration.batches += stats.migration_batches;
            migration.accounts += stats.migrated_accounts;
            migration.bytes += stats.migrated_bytes;
            migration_last = migration_last.max(stats.migration_last_us);
            if self.detail != Detail::Off {
                self.trace
                    .merge(std::mem::replace(&mut worker.obs, Trace::disabled()));
            }
        }
        let (p50, p99) = RuntimeReport::latency_percentiles(&mut latencies);
        debug_assert_eq!(
            migration.batches, batches_staged,
            "every staged batch must complete within its segment"
        );
        let span = end - start;
        SegmentReport {
            txs: foreground,
            committed,
            failed,
            cross_shard_txs: records[..foreground]
                .iter()
                .filter(|r| r.is_cross())
                .count(),
            prepare_rounds,
            aborted_rounds,
            local_conflicts,
            abort_causes,
            p50_commit_latency_us: p50,
            p99_commit_latency_us: p99,
            start_us: start,
            end_us: end,
            throughput_tps: if span == 0 {
                0.0
            } else {
                committed as f64 * 1e6 / span as f64
            },
            migration: staged.map(|_| MigrationStats {
                wall_us: migration_last.saturating_sub(start),
                ..migration
            }),
        }
    }

    /// The per-shard world slices, for state-conservation checks.
    pub fn worlds(&self) -> impl Iterator<Item = (ShardId, &World)> {
        self.workers.iter().map(|w| (w.id, &w.world))
    }

    /// Every address holding state, with its owning shard — each
    /// address appears exactly once when migration conserved state.
    pub fn resident_addresses(&self) -> Vec<(Address, ShardId)> {
        let mut out: Vec<(Address, ShardId)> = self
            .workers
            .iter()
            .flat_map(|w| w.world.addresses().map(move |a| (a, w.id)))
            .collect();
        out.sort_unstable();
        out
    }

    /// Closes the session and returns the accumulated trace (empty for
    /// untraced sessions).
    pub fn finish(mut self) -> Trace {
        self.trace.sort_by_time();
        self.trace
    }
}

/// The placeholder transaction carried by migration records; never
/// executed (migration skips the VM).
fn migration_marker() -> blockpart_ethereum::Transaction {
    blockpart_ethereum::Transaction {
        from: Address::ZERO,
        to: Address::ZERO,
        value: blockpart_types::Wei::new(0),
        gas_limit: blockpart_types::Gas::new(0),
        payload: blockpart_ethereum::TxPayload::Transfer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpart_ethereum::{Receipt, Transaction, TxPayload, TxStatus};
    use blockpart_types::{Gas, ShardCount, Wei};
    use std::collections::HashMap;

    fn transfer(from: Address, to: Address, t: u64) -> ExecutedTx {
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
        ExecutedTx::new(Timestamp::from_secs(t), tx, &receipt)
    }

    /// Four users pinned to shard 0, and the placements that rebalance
    /// them two-and-two.
    fn setup() -> (World, Vec<Address>, Assignment, Vec<(Address, ShardId)>) {
        let mut world = World::new();
        let addrs: Vec<Address> = (0..4).map(|_| world.new_user(Wei::new(1_000))).collect();
        let all0: HashMap<Address, ShardId> = addrs.iter().map(|&a| (a, ShardId::new(0))).collect();
        let split = addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| (a, ShardId::new((i % 2) as u16)))
            .collect();
        (
            world,
            addrs,
            Assignment::from_map(all0, ShardCount::TWO),
            split,
        )
    }

    #[test]
    fn migration_moves_state_between_shards() {
        let (world, addrs, before, after) = setup();
        let mut session = LiveSession::new(RuntimeConfig::new(ShardCount::TWO), before, &world);
        let moved = session.stage_rebalance(&after);
        assert_eq!(moved, 2); // odd-indexed users move 0 → 1
        let report = session.run_segment(&[], &MigrationConfig::default());
        let mig = report.migration.expect("migration executed");
        assert_eq!(mig.accounts, 2);
        assert!(mig.bytes > 0);
        assert!(mig.wall_us > 0);
        // conservation: each address on exactly one shard, odd ones on 1
        let resident = session.resident_addresses();
        assert_eq!(resident.len(), 4);
        for (i, &a) in addrs.iter().enumerate() {
            let shard = resident
                .iter()
                .find(|(ra, _)| *ra == a)
                .map(|&(_, s)| s)
                .expect("resident");
            assert_eq!(shard, ShardId::new((i % 2) as u16));
        }
    }

    #[test]
    fn foreground_stream_survives_migration() {
        let (world, addrs, before, after) = setup();
        let cfg = RuntimeConfig::new(ShardCount::TWO).with_inter_arrival_us(200);
        let mut session = LiveSession::new(cfg, before, &world);
        let txs: Vec<ExecutedTx> = (0..20)
            .map(|i| transfer(addrs[i % 4], addrs[(i + 1) % 4], 1))
            .collect();
        let quiet = session.run_segment(&txs, &MigrationConfig::default());
        assert_eq!(quiet.committed, 20);
        assert!(quiet.migration.is_none());

        session.stage_rebalance(&after);
        let busy = session.run_segment(&txs, &MigrationConfig::default());
        assert_eq!(busy.committed, 20, "migration must not drop traffic");
        assert_eq!(busy.failed, 0);
        assert!(busy.migration.is_some());
        // post-swap the split routing makes the ring cross-shard
        assert!(busy.cross_shard_txs > 0);
        // 2 segments × 20 transfers of 1 wei around a ring of 4: every
        // balance is still accounted for somewhere
        let total: u64 = session
            .worlds()
            .flat_map(|(_, w)| {
                w.addresses()
                    .map(|a| w.balance(a).get())
                    .collect::<Vec<_>>()
            })
            .sum();
        assert_eq!(total, 4_000);
    }

    #[test]
    fn empty_rebalance_stages_nothing() {
        let (world, addrs, before, _) = setup();
        let mut session = LiveSession::new(RuntimeConfig::new(ShardCount::TWO), before, &world);
        let unchanged: Vec<_> = addrs.iter().map(|&a| (a, ShardId::new(0))).collect();
        assert_eq!(session.stage_rebalance(&unchanged), 0);
        assert!(!session.migration_pending());
        let report = session.run_segment(&[], &MigrationConfig::default());
        assert!(report.migration.is_none());
    }

    #[test]
    fn unplaced_addresses_keep_their_shard() {
        let (world, addrs, before, _) = setup();
        let mut session = LiveSession::new(RuntimeConfig::new(ShardCount::TWO), before, &world);
        // an unmapped address moves from its hash shard; placements may
        // repeat and come in any order
        let stranger = Address::from_index(1_000);
        let home = session.assignment().shard_of(stranger);
        let away = ShardId::new(1 - home.as_u16());
        let placements = [
            (addrs[3], ShardId::new(1)),
            (stranger, away),
            (addrs[3], ShardId::new(1)),
        ];
        assert_eq!(session.stage_rebalance(&placements), 2);
        // a later stage replaces the earlier one
        assert_eq!(session.stage_rebalance(&placements[..1]), 1);
        session.run_segment(&[], &MigrationConfig::default());
        let routing = session.assignment();
        assert_eq!(routing.shard_of(addrs[3]), ShardId::new(1));
        assert_eq!(routing.shard_of(stranger), home);
        for &a in &addrs[..3] {
            assert_eq!(routing.shard_of(a), ShardId::new(0));
        }
    }

    #[test]
    fn clock_is_monotonic_across_segments() {
        let (world, addrs, before, _) = setup();
        let mut session = LiveSession::new(RuntimeConfig::new(ShardCount::TWO), before, &world);
        let txs = vec![transfer(addrs[0], addrs[1], 1)];
        let first = session.run_segment(&txs, &MigrationConfig::default());
        let second = session.run_segment(&txs, &MigrationConfig::default());
        assert!(second.start_us > first.end_us);
        assert!(second.end_us > second.start_us);
    }
}
