//! The sharded execution runtime: what a cut edge actually *costs*.
//!
//! The partitioning study measures partition quality statically (edge
//! cut, balance, moves). This crate executes a generated chain *on* a
//! partition: each shard owns a slice of the Ethereum world state and a
//! serial execution unit; single-shard transactions run locally through
//! the EVM-lite VM, while cross-shard transactions go through a
//! two-phase-commit coordinator — lock the footprint on every
//! participant, ship state to the coordinator, execute, ship write-sets
//! back — over a configurable-latency network. The output is a
//! [`RuntimeReport`]: cross-shard ratio, 2PC abort rate, p50/p99 commit
//! latency and delivered throughput.
//!
//! The engine is a deterministic discrete-event simulation. Events live
//! in one virtual-time queue ([`clock::EventQueue`]); every batch of
//! same-instant events is split by shard and handed to the per-shard
//! workers in shard order, on the calling thread. Workers touch only
//! their own state and communicate exclusively through emitted events,
//! so the result is bit-identical across runs. Parallelism lives one
//! layer up, where independent runs (strategy × shard count pairs)
//! share a worker pool.
//!
//! # Examples
//!
//! ```
//! use blockpart_ethereum::gen::{ChainGenerator, GeneratorConfig};
//! use blockpart_runtime::{Assignment, RuntimeConfig, ShardedRuntime};
//! use blockpart_types::ShardCount;
//!
//! let chain = ChainGenerator::new(GeneratorConfig::test_scale(1)).generate();
//! let k = ShardCount::new(1).unwrap();
//! let runtime = ShardedRuntime::new(RuntimeConfig::new(k), Assignment::hashed(k));
//! let report = runtime.run(chain.chain.world(), &chain.txs);
//! // one shard: everything commits locally, no coordination at all
//! assert_eq!(report.committed as usize, chain.txs.len());
//! assert_eq!(report.prepare_rounds, 0);
//! assert_eq!(report.cross_shard_txs, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod coordinator;
pub mod event;
mod footprint;
mod live;
pub mod locks;
pub mod net;
pub mod report;
mod shard_worker;

use std::collections::{BTreeMap, HashMap};

use blockpart_ethereum::{ExecutedTx, World};
use blockpart_obs::Trace;
use blockpart_types::{mix64, Address, ShardCount, ShardId};

use crate::clock::{EventQueue, Micros};
use crate::event::{Event, TxId};
use crate::footprint::Footprints;
use crate::net::NetworkModel;
use crate::shard_worker::{Ctx, ShardWorker, TxKind, TxRecord};

pub use crate::live::{LiveSession, MigrationConfig, MigrationStats, SegmentReport};
pub use crate::report::{RuntimeReport, ShardReport};

/// Address-lane stride keeping per-shard allocators disjoint.
const ADDRESS_LANE: u64 = 1 << 40;

/// Tuning knobs of the execution runtime. All times are virtual
/// microseconds.
///
/// # Examples
///
/// ```
/// use blockpart_runtime::RuntimeConfig;
/// use blockpart_types::ShardCount;
///
/// let cfg = RuntimeConfig::new(ShardCount::TWO).with_net_latency_us(500);
/// assert_eq!(cfg.net_latency_us, 500);
/// ```
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Number of shards.
    pub k: ShardCount,
    /// One-way inter-shard network latency.
    pub net_latency_us: u64,
    /// Execution speed: gas units retired per microsecond.
    pub gas_per_us: u64,
    /// Floor on any execution's duration.
    pub min_exec_us: u64,
    /// Fixed cost of handling a prepare (lock + vote).
    pub prepare_cpu_us: u64,
    /// Offered load: gap between consecutive transaction arrivals.
    pub inter_arrival_us: u64,
    /// Base backoff after an aborted 2PC round (grows linearly with the
    /// attempt, plus deterministic per-transaction jitter).
    pub retry_backoff_us: u64,
    /// Prepare attempts before a transaction is dropped as failed.
    pub max_attempts: u32,
    /// Entropy seed for the re-executions' `RAND` opcode.
    pub seed: u64,
}

impl RuntimeConfig {
    /// Defaults: 1 ms inter-shard latency (datacenter sharding), 100
    /// gas/µs, 2 000 offered tx/s, 5 ms retry backoff, 64 attempts.
    pub fn new(k: ShardCount) -> Self {
        RuntimeConfig {
            k,
            net_latency_us: 1_000,
            gas_per_us: 100,
            min_exec_us: 50,
            prepare_cpu_us: 20,
            inter_arrival_us: 500,
            retry_backoff_us: 5_000,
            max_attempts: 64,
            seed: 0,
        }
    }

    /// Overrides the one-way network latency.
    pub fn with_net_latency_us(mut self, latency: u64) -> Self {
        self.net_latency_us = latency;
        self
    }

    /// Overrides the offered load (arrival gap).
    pub fn with_inter_arrival_us(mut self, gap: u64) -> Self {
        self.inter_arrival_us = gap;
        self
    }

    /// Overrides the retry backoff base.
    pub fn with_retry_backoff_us(mut self, backoff: u64) -> Self {
        self.retry_backoff_us = backoff;
        self
    }

    /// Overrides the prepare-attempt cap.
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Overrides the entropy seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A vertex→shard assignment, usually snapshotted from the partitioning
/// simulator ([`blockpart_shard::ShardedState::assignment_map`]).
/// Addresses outside the map (state never seen by the partitioner) fall
/// back to deterministic hashing.
///
/// # Examples
///
/// ```
/// use blockpart_runtime::Assignment;
/// use blockpart_types::{Address, ShardCount, ShardId};
///
/// let mut map = std::collections::HashMap::new();
/// map.insert(Address::from_index(7), ShardId::new(1));
/// let a = Assignment::from_map(map, ShardCount::TWO);
/// assert_eq!(a.shard_of(Address::from_index(7)), ShardId::new(1));
/// assert!(a.k().contains(a.shard_of(Address::from_index(99))));
/// ```
#[derive(Clone, Debug)]
pub struct Assignment {
    map: HashMap<Address, ShardId>,
    k: ShardCount,
}

impl Assignment {
    /// Wraps an explicit assignment.
    ///
    /// # Panics
    ///
    /// Panics if any mapped shard is out of range for `k`.
    pub fn from_map(map: HashMap<Address, ShardId>, k: ShardCount) -> Self {
        assert!(
            map.values().all(|&s| k.contains(s)),
            "assignment references a shard >= k"
        );
        Assignment { map, k }
    }

    /// A pure hash assignment (every address via the fallback).
    pub fn hashed(k: ShardCount) -> Self {
        Assignment {
            map: HashMap::new(),
            k,
        }
    }

    /// The shard owning `address`.
    pub fn shard_of(&self, address: Address) -> ShardId {
        self.map.get(&address).copied().unwrap_or_else(|| {
            ShardId::new((mix64(address.stable_hash()) % u64::from(self.k.get())) as u16)
        })
    }

    /// The shard count.
    pub fn k(&self) -> ShardCount {
        self.k
    }

    /// Number of explicitly mapped addresses.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when every address uses the hash fallback.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maps each address of `placements` to its shard, over whatever
    /// the assignment held for it.
    ///
    /// # Panics
    ///
    /// Panics if a placement's shard is out of range for the shard count.
    pub(crate) fn place(&mut self, placements: &[(Address, ShardId)]) {
        for &(a, s) in placements {
            assert!(self.k.contains(s), "assignment references a shard >= k");
            self.map.insert(a, s);
        }
    }
}

/// How much the engine collects while replaying: nothing, metrics only
/// (the cheap always-on mode), or the full per-event record stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Detail {
    Off,
    Metrics,
    Events,
}

/// The sharded execution engine. See the [crate docs](crate) for the
/// model.
#[derive(Debug)]
pub struct ShardedRuntime {
    cfg: RuntimeConfig,
    assignment: Assignment,
}

impl ShardedRuntime {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's and assignment's shard counts
    /// disagree.
    pub fn new(cfg: RuntimeConfig, assignment: Assignment) -> Self {
        assert_eq!(cfg.k, assignment.k(), "shard counts disagree");
        ShardedRuntime { cfg, assignment }
    }

    /// Replays `txs` over shard slices of `world` and reports the
    /// execution-level cost of the assignment.
    ///
    /// `world` is the canonical end-of-history state: every shard's slice
    /// is materialized from it, so re-executions run over realistic
    /// account and contract state. The `touched` footprints recorded at
    /// canonical execution act as declared access lists.
    pub fn run(&self, world: &World, txs: &[ExecutedTx]) -> RuntimeReport {
        self.run_inner(world, txs, Detail::Off).0
    }

    /// Like [`run`](Self::run) with metrics-only instrumentation: the
    /// per-shard counters and latency histograms accumulate (scoped
    /// `shard-N/commits`, `shard-N/aborts/<cause>`,
    /// `shard-N/commit_latency_us`, ...) while the O(events) record
    /// stream of [`run_traced`](Self::run_traced) is skipped. This is
    /// the always-on observability mode: its overhead versus
    /// [`run`](Self::run) is what CI gates at ≤ 5%. The returned trace
    /// carries the metrics registry and no records.
    pub fn run_metered(&self, world: &World, txs: &[ExecutedTx]) -> (RuntimeReport, Trace) {
        self.run_inner(world, txs, Detail::Metrics)
    }

    /// Like [`run`](Self::run), additionally collecting a virtual-clock
    /// trace: 2PC lifecycle events (prepare/lock/vote/commit/abort, with
    /// tx id, shards touched, retry count and abort cause), per-shard
    /// execute/idle spans, and per-shard metrics.
    ///
    /// Every timestamp is simulated time, so for a given config, seed
    /// and workload the trace is **byte-identical** across runs and
    /// machines — traces diff cleanly.
    pub fn run_traced(&self, world: &World, txs: &[ExecutedTx]) -> (RuntimeReport, Trace) {
        self.run_inner(world, txs, Detail::Events)
    }

    fn run_inner(
        &self,
        world: &World,
        txs: &[ExecutedTx],
        detail: Detail,
    ) -> (RuntimeReport, Trace) {
        let (records, footprints) = self.build_records(txs);
        let mut workers = build_workers(&self.cfg, &self.assignment, world);
        if detail != Detail::Off {
            for worker in &mut workers {
                let mut obs = match detail {
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
        drive(&mut workers, &mut queue, &ctx);

        // merge worker trace buffers in shard order, then time-sort:
        // ties resolve to shard order
        let mut trace = match detail {
            Detail::Events => Trace::new_virtual(),
            Detail::Metrics => Trace::metrics_only(),
            Detail::Off => Trace::disabled(),
        };
        if detail != Detail::Off {
            trace.name_process(0, "replay (virtual µs)");
            for worker in &mut workers {
                trace.name_thread(0, u32::from(worker.id.as_u16()), worker.id.to_string());
                trace.merge(std::mem::replace(&mut worker.obs, Trace::disabled()));
            }
            trace.sort_by_time();
        }

        (self.assemble_report(&records, workers), trace)
    }

    /// Precomputes arrival times, homes and per-shard footprints.
    fn build_records(&self, txs: &[ExecutedTx]) -> (Vec<TxRecord>, Footprints) {
        let mut footprints = footprints_for(self.cfg.k, txs, 0, 0);
        let records = txs
            .iter()
            .enumerate()
            .map(|(i, e)| {
                payload_record(
                    &self.cfg,
                    &self.assignment,
                    &mut footprints,
                    e,
                    i as u64,
                    i as u64 * self.cfg.inter_arrival_us,
                )
            })
            .collect();
        (records, footprints)
    }

    fn assemble_report(&self, records: &[TxRecord], workers: Vec<ShardWorker>) -> RuntimeReport {
        let mut committed = 0u64;
        let mut failed = 0u64;
        let mut prepare_rounds = 0u64;
        let mut aborted_rounds = 0u64;
        let mut local_conflicts = 0u64;
        let mut stray_touches = 0u64;
        let mut abort_causes: BTreeMap<String, u64> = BTreeMap::new();
        let mut latencies: Vec<u64> = Vec::new();
        let mut makespan = 0u64;
        for w in &workers {
            committed += w.stats.committed;
            failed += w.stats.failed;
            prepare_rounds += w.stats.prepare_rounds;
            aborted_rounds += w.stats.aborted_rounds;
            local_conflicts += w.stats.local_conflicts;
            stray_touches += w.stats.stray_touches;
            for (&cause, &n) in &w.stats.abort_causes {
                *abort_causes.entry(cause.to_string()).or_insert(0) += n;
            }
            latencies.extend_from_slice(&w.stats.latencies_us);
            makespan = makespan.max(w.stats.last_commit_us);
        }
        let (p50, p99) = RuntimeReport::latency_percentiles(&mut latencies);
        let cross_shard_txs = records.iter().filter(|r| r.is_cross()).count();
        let total = records.len();
        let per_shard: Vec<ShardReport> = workers
            .iter()
            .map(|w| ShardReport {
                shard: w.id,
                committed: w.stats.committed,
                cross_committed: w.stats.cross_committed,
                busy_us: w.stats.busy_us,
                utilization: if makespan == 0 {
                    0.0
                } else {
                    w.stats.busy_us as f64 / makespan as f64
                },
                aborted_rounds: w.stats.aborted_rounds,
            })
            .collect();
        RuntimeReport {
            k: self.cfg.k,
            total_txs: total,
            committed,
            failed,
            cross_shard_txs,
            cross_shard_ratio: if total == 0 {
                0.0
            } else {
                cross_shard_txs as f64 / total as f64
            },
            prepare_rounds,
            aborted_rounds,
            abort_causes,
            abort_rate: if prepare_rounds == 0 {
                0.0
            } else {
                aborted_rounds as f64 / prepare_rounds as f64
            },
            local_conflicts,
            stray_touches,
            p50_commit_latency_us: p50,
            p99_commit_latency_us: p99,
            makespan_us: makespan,
            throughput_tps: if makespan == 0 {
                0.0
            } else {
                committed as f64 * 1e6 / makespan as f64
            },
            exec_speculated: 0,
            exec_conflicts: 0,
            exec_re_executions: 0,
            per_shard,
        }
    }
}

/// Slices the canonical world into per-shard worlds with disjoint
/// address-allocation lanes.
fn build_workers(cfg: &RuntimeConfig, assignment: &Assignment, world: &World) -> Vec<ShardWorker> {
    let base = world.address_floor();
    let mut workers: Vec<ShardWorker> = cfg
        .k
        .iter()
        .map(|s| {
            let mut slice = World::new();
            slice.raise_address_floor(base + (s.as_usize() as u64 + 1) * ADDRESS_LANE);
            ShardWorker::new(s, slice)
        })
        .collect();
    for a in world.addresses() {
        let shard = assignment.shard_of(a);
        if let Some(state) = world.export_state(a) {
            workers[shard.as_usize()].world.install_state(a, state);
        }
    }
    workers
}

/// An empty footprint arena with exact room for the footprints of `txs`
/// plus `extra_parts` parts of `extra_addrs` addresses in all: a
/// footprint has one part per shard it spans, at most one per address.
fn footprints_for(
    k: ShardCount,
    txs: &[ExecutedTx],
    extra_parts: usize,
    extra_addrs: usize,
) -> Footprints {
    let k = usize::from(k.get());
    let (parts, addrs) = txs.iter().fold((extra_parts, extra_addrs), |(p, a), e| {
        (p + e.touched.len().min(k), a + e.touched.len())
    });
    Footprints::with_capacity(parts, addrs)
}

/// Builds the replay record of one payload transaction: footprint split
/// by shard under `assignment` into `footprints`, entropy drawn from the
/// global index so a live session's segments reproduce a single
/// continuous stream.
fn payload_record(
    cfg: &RuntimeConfig,
    assignment: &Assignment,
    footprints: &mut Footprints,
    e: &ExecutedTx,
    global_index: u64,
    arrival_us: Micros,
) -> TxRecord {
    TxRecord {
        arrival_us,
        block_time: e.time,
        tx: e.tx,
        home: assignment.shard_of(e.tx.from),
        parts: footprints.push_grouped(&e.touched, |a| assignment.shard_of(a)),
        entropy: mix64(cfg.seed ^ global_index),
        kind: TxKind::Payload,
    }
}

/// The event queue of a run over `records`: one arrival per record, at
/// its arrival time on its home shard.
fn arrivals_of(records: &[TxRecord]) -> EventQueue {
    EventQueue::with_arrivals(
        records
            .iter()
            .enumerate()
            .map(|(i, rec)| (rec.arrival_us, rec.home, TxId(i as u32))),
    )
}

/// Runs the discrete-event loop until the queue drains, handing each
/// same-instant batch to the per-shard workers in shard order and
/// merging the emitted events back in shard order. Returns the virtual
/// time of the last processed batch. Shared by one-shot runs and live
/// sessions.
///
/// The batch, the per-shard buckets and the per-shard emit buffers are
/// allocated once per call and reused by every batch.
fn drive(workers: &mut [ShardWorker], queue: &mut EventQueue, ctx: &Ctx<'_>) -> Micros {
    let k = workers.len();
    let mut last_now = 0;
    let mut batch = Vec::new();
    let mut buckets: Vec<Vec<Event>> = (0..k).map(|_| Vec::new()).collect();
    let mut outs: Vec<Vec<shard_worker::Emit>> = (0..k).map(|_| Vec::new()).collect();
    while let Some(now) = queue.pop_batch_into(&mut batch) {
        last_now = now;
        for (shard, event) in batch.drain(..) {
            buckets[shard.as_usize()].push(event);
        }
        for ((worker, events), out) in workers.iter_mut().zip(&mut buckets).zip(&mut outs) {
            if !events.is_empty() {
                worker.handle_batch(now, events, ctx, out);
            }
        }
        // merge in shard order: deterministic sequence numbering
        for out in &mut outs {
            for e in out.drain(..) {
                debug_assert!(e.at >= now, "event scheduled in the past");
                queue.push(e.at, e.shard, e.event);
            }
        }
    }
    last_now
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpart_ethereum::{Receipt, Transaction, TxPayload, TxStatus};
    use blockpart_types::{Gas, Timestamp, Wei};

    /// Two users with explicit shard placement and one transfer between
    /// them.
    fn micro_setup(same_shard: bool) -> (World, Vec<ExecutedTx>, Assignment) {
        let mut world = World::new();
        let alice = world.new_user(Wei::new(1_000));
        let bob = world.new_user(Wei::new(10));
        let tx = Transaction {
            from: alice,
            to: bob,
            value: Wei::new(5),
            gas_limit: Gas::new(30_000),
            payload: TxPayload::Transfer,
        };
        let receipt = Receipt {
            status: TxStatus::Success,
            gas_used: Gas::new(21_000),
            calls: Vec::new(),
            created: Vec::new(),
        };
        let exec = ExecutedTx::new(Timestamp::from_secs(1), tx, &receipt);
        let mut map = HashMap::new();
        map.insert(alice, ShardId::new(0));
        map.insert(bob, ShardId::new(if same_shard { 0 } else { 1 }));
        (
            world,
            vec![exec],
            Assignment::from_map(map, ShardCount::TWO),
        )
    }

    #[test]
    fn single_shard_transfer_commits_without_coordination() {
        let (world, txs, assignment) = micro_setup(true);
        let report =
            ShardedRuntime::new(RuntimeConfig::new(ShardCount::TWO), assignment).run(&world, &txs);
        assert_eq!(report.committed, 1);
        assert_eq!(report.prepare_rounds, 0);
        assert_eq!(report.cross_shard_txs, 0);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn cross_shard_transfer_runs_two_phase_commit() {
        let (world, txs, assignment) = micro_setup(false);
        let cfg = RuntimeConfig::new(ShardCount::TWO).with_net_latency_us(1_000);
        let report = ShardedRuntime::new(cfg, assignment).run(&world, &txs);
        assert_eq!(report.committed, 1);
        assert_eq!(report.cross_shard_txs, 1);
        assert_eq!(report.prepare_rounds, 1);
        assert_eq!(report.aborted_rounds, 0);
        // latency covers at least two round trips (prepare+vote,
        // commit+ack) plus execution
        assert!(
            report.p50_commit_latency_us >= 4_000,
            "latency {}",
            report.p50_commit_latency_us
        );
    }

    #[test]
    fn cross_shard_commit_moves_value_between_slices() {
        let (world, txs, assignment) = micro_setup(false);
        let alice = txs[0].tx.from;
        let bob = txs[0].tx.to;
        let cfg = RuntimeConfig::new(ShardCount::TWO);
        let runtime = ShardedRuntime::new(cfg, assignment);
        // shard slices are private to the run; what must hold outside is
        // that the canonical world is never mutated by a replay
        let report = runtime.run(&world, &txs);
        assert_eq!(report.committed, 1);
        assert_eq!(world.balance(alice), Wei::new(1_000));
        assert_eq!(world.balance(bob), Wei::new(10));
    }

    #[test]
    fn conflicting_cross_shard_txs_abort_and_retry() {
        // two transactions fighting over the same two addresses, arriving
        // simultaneously from different home shards
        let mut world = World::new();
        let a = world.new_user(Wei::new(100));
        let b = world.new_user(Wei::new(100));
        let mk = |from, to| {
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
        };
        let txs = vec![mk(a, b), mk(b, a)];
        let mut map = HashMap::new();
        map.insert(a, ShardId::new(0));
        map.insert(b, ShardId::new(1));
        let cfg = RuntimeConfig::new(ShardCount::TWO)
            .with_inter_arrival_us(0)
            .with_net_latency_us(1_000);
        let report =
            ShardedRuntime::new(cfg, Assignment::from_map(map, ShardCount::TWO)).run(&world, &txs);
        // both must eventually commit; at least one round aborted on the
        // lock conflict
        assert_eq!(report.committed, 2);
        assert!(report.aborted_rounds >= 1, "no abort: {report:?}");
        assert!(report.prepare_rounds > 2);
    }

    #[test]
    fn deterministic_across_runs() {
        let (world, txs, assignment) = micro_setup(false);
        let run = || {
            ShardedRuntime::new(RuntimeConfig::new(ShardCount::TWO), assignment.clone())
                .run(&world, &txs)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_run_is_empty_report() {
        let report = ShardedRuntime::new(
            RuntimeConfig::new(ShardCount::TWO),
            Assignment::hashed(ShardCount::TWO),
        )
        .run(&World::new(), &[]);
        assert_eq!(report.total_txs, 0);
        assert_eq!(report.committed, 0);
        assert_eq!(report.throughput_tps, 0.0);
    }
}
