//! One shard of the execution runtime: a slice of world state, an
//! exclusive-lock table, a run queue feeding a serial execution unit, and
//! the coordinator state of the cross-shard transactions homed here.
//!
//! Workers only mutate their own state; all inter-shard effects travel as
//! [`Message`]s that [`ShardWorker::handle_batch`] appends to a
//! caller-owned emit buffer, which the engine drains into the shared
//! event clock, so the engine's merge order alone decides event order.
//! The engine keeps one input and one emit buffer per worker for the
//! whole run and reuses them for every batch.
//!
//! A worker also reuses its own memory from one transaction to the next:
//! one scratch world for cross-shard executions, one set of VM buffers,
//! and small free lists of coordinator states and of the snapshot
//! vectors that votes and commits carry. A vector that arrives in a
//! message joins the receiving worker's free list once it is emptied.

use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;

use blockpart_ethereum::evm::{ExecContext, GasSchedule, Vm, VmBuffers};
use blockpart_ethereum::{AddressState, Receipt, Transaction, World};
use blockpart_obs::{Collector, Record, Trace};
use blockpart_types::{mix64, Address, FastMap, ShardId, Timestamp};

use crate::clock::Micros;
use crate::coordinator::CoordState;
use crate::event::{Event, TxId};
use crate::footprint::Footprints;
use crate::locks::LockTable;
use crate::net::{Message, NetworkModel, Payload};
use crate::RuntimeConfig;

/// Most spare coordinator states, and most spare snapshot vectors, one
/// worker keeps. Enough to cover the rounds that open while others
/// finish; a fixed bound, so the memory a worker holds back stays small
/// however long a session runs.
const SPARE_BUFFERS: usize = 8;

/// Most states a kept snapshot vector has room for. A foreground
/// footprint puts a few addresses on each shard, but a migration batch
/// ships up to [`MigrationConfig::batch_accounts`](crate::MigrationConfig)
/// states at once; a vector grown that large is dropped, not kept. With
/// the count bound, a worker keeps room for at most 2 × 8 × 16 states
/// in reserve, so a live session's peak heap stays where it was without
/// the free lists.
const SPARE_CAPACITY: usize = 16;

/// State snapshots as a vote or a commit carries them.
type States = Vec<(Address, AddressState)>;

/// What a [`TxRecord`] represents: a payload transaction from the
/// workload, or a state-migration batch injected by a live
/// repartitioning session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TxKind {
    /// An ordinary transaction executed through the VM.
    Payload,
    /// A migration batch: the coordinator is the *destination* shard,
    /// the single participant is the source. Prepare locks + ships the
    /// moving state; commit removes it from the source while the
    /// coordinator installs it. No VM involved — the "execution" step
    /// models the install cost, sized by the bytes shipped.
    Migration,
}

/// One transaction prepared for replay: arrival time, footprint split by
/// shard, and the deterministic entropy its re-execution uses.
pub(crate) struct TxRecord {
    /// Arrival instant at the home shard's mempool.
    pub arrival_us: Micros,
    /// Canonical block time (fed to the VM context for fidelity).
    pub block_time: Timestamp,
    /// The transaction to execute.
    pub tx: Transaction,
    /// Home shard (the sender's shard; always a participant).
    pub home: ShardId,
    /// Footprint addresses grouped by owning shard, ascending shard id:
    /// a range of parts in the run's [`Footprints`] arena.
    pub parts: Range<u32>,
    /// Per-transaction entropy for the VM's `RAND` opcode.
    pub entropy: u64,
    /// Payload transaction or migration batch.
    pub kind: TxKind,
}

impl TxRecord {
    /// Whether the record needs 2PC coordination: a footprint spanning
    /// more than one shard, or any migration batch (whose source is by
    /// construction a different shard than its coordinator).
    pub fn is_cross(&self) -> bool {
        self.parts.len() > 1 || self.kind == TxKind::Migration
    }
}

/// Read-only context shared by every worker during a batch.
pub(crate) struct Ctx<'a> {
    pub cfg: &'a RuntimeConfig,
    pub txs: &'a [TxRecord],
    /// The footprints of `txs`.
    pub footprints: &'a Footprints,
    pub net: NetworkModel,
}

impl Ctx<'_> {
    /// The record of `tx`.
    fn rec(&self, tx: TxId) -> &TxRecord {
        &self.txs[tx.as_usize()]
    }

    /// The footprint addresses of `tx` owned by `shard` (empty if not a
    /// participant).
    fn addrs_on(&self, tx: TxId, shard: ShardId) -> &[Address] {
        self.footprints.addrs_on(&self.rec(tx).parts, shard)
    }
}

/// An event a worker wants scheduled.
pub(crate) struct Emit {
    /// Absolute virtual time of delivery.
    pub at: Micros,
    /// Destination shard.
    pub shard: ShardId,
    /// The event.
    pub event: Event,
}

/// What occupies the serial execution unit.
#[derive(Clone, Copy, Debug)]
enum Work {
    /// A single-shard transaction executing directly on this slice.
    Local(TxId),
    /// The cross-shard execution step of a transaction homed here.
    CrossExec(TxId),
}

/// Counters and samples one worker accumulates; merged into the
/// [`RuntimeReport`](crate::RuntimeReport) after the run.
#[derive(Debug, Default)]
pub(crate) struct WorkerStats {
    pub committed: u64,
    pub cross_committed: u64,
    pub failed: u64,
    pub busy_us: u64,
    pub prepare_rounds: u64,
    pub aborted_rounds: u64,
    pub local_conflicts: u64,
    pub stray_touches: u64,
    /// `aborted_rounds` split by cause; values sum to `aborted_rounds`.
    pub abort_causes: BTreeMap<&'static str, u64>,
    pub latencies_us: Vec<u64>,
    pub last_commit_us: Micros,
    /// Migration batches this shard coordinated to completion.
    pub migration_batches: u64,
    /// Accounts whose owning shard changed via completed batches.
    pub migrated_accounts: u64,
    /// State bytes shipped into this shard by completed batches.
    pub migrated_bytes: u64,
    /// Completion instant of the last migration batch coordinated here.
    pub migration_last_us: Micros,
}

/// A worker's free lists, each at most [`SPARE_BUFFERS`] long, of
/// vectors with room for at most [`SPARE_CAPACITY`] states.
#[derive(Debug, Default)]
struct Spares {
    coords: Vec<CoordState>,
    states: Vec<States>,
}

impl Spares {
    /// A coordinator state for round 1 of a new transaction.
    fn coord(&mut self) -> CoordState {
        let mut coord = self.coords.pop().unwrap_or_default();
        coord.reset_round(1, 0);
        coord
    }

    /// Keeps a finished transaction's coordinator state for reuse.
    fn put_coord(&mut self, mut coord: CoordState) {
        if self.coords.len() < SPARE_BUFFERS {
            // drop any snapshot now: a kept one would hold a storage base
            coord.reset_round(0, 0);
            if coord.shipped.capacity() > SPARE_CAPACITY {
                coord.shipped = Vec::new();
            }
            self.coords.push(coord);
        }
    }

    /// An empty vector for a vote's snapshots or a commit's write-set.
    fn states(&mut self) -> States {
        self.states.pop().unwrap_or_default()
    }

    /// Keeps an emptied snapshot vector for reuse.
    fn put_states(&mut self, states: States) {
        debug_assert!(states.is_empty(), "spare snapshot vectors hold no state");
        if (1..=SPARE_CAPACITY).contains(&states.capacity()) && self.states.len() < SPARE_BUFFERS {
            self.states.push(states);
        }
    }
}

pub(crate) struct ShardWorker {
    pub id: ShardId,
    pub world: World,
    /// Crate-visible so a live session can install migration guard
    /// locks at an epoch barrier, before the segment's events flow.
    pub locks: LockTable,
    queue: VecDeque<Work>,
    running: Option<Work>,
    coords: FastMap<TxId, CoordState>,
    pub stats: WorkerStats,
    /// Virtual-clock trace buffer owned by this worker (disabled unless
    /// the engine runs traced). Worker-owned buffers merged in shard
    /// order keep traced runs deterministic.
    pub obs: Trace,
    /// End of the last execution, for idle-gap spans.
    idle_from: Micros,
    /// The world a cross-shard execution runs in, cleared after each.
    /// One per worker suffices because the execution unit runs one
    /// transaction at a time; a cleared world may differ from a new one
    /// only in map capacity, and so in iteration order, which is safe
    /// because nothing iterates a scratch world.
    scratch: World,
    /// The VM's stacks and receipt lists, reused by every execution.
    vm: VmBuffers,
    spares: Spares,
}

impl ShardWorker {
    pub fn new(id: ShardId, world: World) -> Self {
        ShardWorker {
            id,
            world,
            locks: LockTable::new(),
            queue: VecDeque::new(),
            running: None,
            coords: FastMap::default(),
            stats: WorkerStats::default(),
            obs: Trace::disabled(),
            idle_from: 0,
            scratch: World::new(),
            vm: VmBuffers::new(),
            spares: Spares::default(),
        }
    }

    /// Whether the worker has no in-flight work: idle execution unit,
    /// empty run queue, no open coordinations. Holds at every epoch
    /// barrier (the event queue only drains once all 2PC rounds finish).
    pub fn is_quiescent(&self) -> bool {
        self.running.is_none() && self.queue.is_empty() && self.coords.is_empty()
    }

    /// Processes this shard's slice of one same-instant event batch,
    /// draining `events`, and appends the events to schedule in response
    /// to `out`.
    pub fn handle_batch(
        &mut self,
        now: Micros,
        events: &mut Vec<Event>,
        ctx: &Ctx<'_>,
        out: &mut Vec<Emit>,
    ) {
        for event in events.drain(..) {
            match event {
                Event::Arrival(tx) => self.on_arrival(tx, now, ctx, out),
                Event::Net(msg) => self.on_message(msg, now, ctx, out),
                Event::ExecDone(tx) => self.on_exec_done(tx, now, ctx, out),
                Event::Retry(tx) => self.start_prepare_round(tx, now, ctx, out),
            }
        }
        self.pump(now, ctx, out);
    }

    fn on_arrival(&mut self, tx: TxId, now: Micros, ctx: &Ctx<'_>, out: &mut Vec<Emit>) {
        if ctx.rec(tx).is_cross() {
            self.coords.insert(tx, self.spares.coord());
            self.start_prepare_round(tx, now, ctx, out);
        } else {
            self.queue.push_back(Work::Local(tx));
        }
    }

    /// Broadcasts `Prepare` for the coordinator's current attempt.
    fn start_prepare_round(&mut self, tx: TxId, now: Micros, ctx: &Ctx<'_>, out: &mut Vec<Emit>) {
        let rec = ctx.rec(tx);
        let parts = ctx.footprints.parts(&rec.parts);
        let coord = self.coords.get_mut(&tx).expect("coordinator state exists");
        let attempt = coord.attempt;
        coord.reset_round(attempt, parts.len());
        if rec.kind == TxKind::Migration {
            // migration rounds are accounted separately so they never
            // distort the foreground abort rate
            if self.obs.events() {
                self.obs.record(
                    Record::instant(now, "migration", "migration.prepare")
                        .with_arg("tx", tx.0)
                        .with_arg("accounts", ctx.footprints.addrs(&parts[0]).len()),
                );
            }
        } else {
            self.stats.prepare_rounds += 1;
            if self.obs.events() {
                self.obs.record(
                    Record::instant(now, "2pc", "2pc.prepare")
                        .with_arg("tx", tx.0)
                        .with_arg("attempt", attempt)
                        .with_arg("shards", rec.parts.len()),
                );
            }
            self.obs.add("prepare_rounds", 1);
        }
        for &part in parts {
            out.push(Emit {
                at: now + ctx.net.delay(self.id, part.shard),
                shard: part.shard,
                event: Event::Net(Message {
                    from: self.id,
                    payload: Payload::Prepare { tx, attempt },
                }),
            });
        }
    }

    fn on_message(&mut self, msg: Message, now: Micros, ctx: &Ctx<'_>, out: &mut Vec<Emit>) {
        match msg.payload {
            Payload::Prepare { tx, .. } => self.on_prepare(tx, msg.from, now, ctx, out),
            Payload::Vote { tx, ok, shipped } => {
                self.on_vote(tx, msg.from, ok, shipped, now, ctx, out)
            }
            Payload::Commit { tx, writes } => self.on_commit(tx, writes, now, ctx, out),
            Payload::Abort { tx } => self.locks.release(tx, ctx.addrs_on(tx, self.id)),
            Payload::Ack { tx } => self.on_ack(tx, now, ctx),
        }
    }

    /// Participant side: lock the footprint, ship snapshots on success.
    fn on_prepare(
        &mut self,
        tx: TxId,
        coordinator: ShardId,
        now: Micros,
        ctx: &Ctx<'_>,
        out: &mut Vec<Emit>,
    ) {
        let addrs = ctx.addrs_on(tx, self.id);
        let ok = self.locks.try_lock_all(tx, addrs);
        if self.obs.events() {
            self.obs.record(
                Record::instant(now, "2pc", "2pc.lock")
                    .with_arg("tx", tx.0)
                    .with_arg("addresses", addrs.len())
                    .with_arg("ok", ok),
            );
        }
        let shipped = if ok {
            let mut shipped = self.spares.states();
            shipped.extend(
                addrs
                    .iter()
                    .filter_map(|&a| self.world.export_state(a).map(|s| (a, s))),
            );
            shipped
        } else {
            Vec::new()
        };
        out.push(Emit {
            at: now + ctx.cfg.prepare_cpu_us + ctx.net.delay(self.id, coordinator),
            shard: coordinator,
            event: Event::Net(Message {
                from: self.id,
                payload: Payload::Vote { tx, ok, shipped },
            }),
        });
    }

    /// Coordinator side: collect votes; on unanimity queue the execution
    /// step, otherwise abort the round and back off.
    #[allow(clippy::too_many_arguments)]
    fn on_vote(
        &mut self,
        tx: TxId,
        from: ShardId,
        ok: bool,
        mut shipped: States,
        now: Micros,
        ctx: &Ctx<'_>,
        out: &mut Vec<Emit>,
    ) {
        if self.obs.events() {
            self.obs.record(
                Record::instant(now, "2pc", "2pc.vote")
                    .with_arg("tx", tx.0)
                    .with_arg("from", from)
                    .with_arg("ok", ok),
            );
        }
        let coord = self.coords.get_mut(&tx).expect("vote for unknown tx");
        let complete = coord.record_vote(from, ok, &mut shipped);
        self.spares.put_states(shipped);
        if !complete {
            return;
        }
        if !coord.any_no {
            // the execution step holds locks on remote shards: give it
            // priority over local work so lock hold times stay short
            self.queue.push_front(Work::CrossExec(tx));
            return;
        }
        // abort the round: release the locks the yes-voters hold
        debug_assert!(
            ctx.rec(tx).kind != TxKind::Migration,
            "migration prepares cannot conflict: routing swaps before the \
             segment, so no foreground footprint references moving state \
             on the source shard"
        );
        self.stats.aborted_rounds += 1;
        // drop the snapshots now, not at the retry: while they live, the
        // participants' storage bases stay shared and their next install
        // would have to copy them
        coord.shipped.clear();
        let attempt = coord.attempt;
        // a round that lost the lock race retries; the terminal attempt
        // drops the transaction instead
        let (cause, counter) = if attempt >= ctx.cfg.max_attempts {
            ("retry-exhausted", "aborts/retry-exhausted")
        } else {
            ("lock-conflict", "aborts/lock-conflict")
        };
        *self.stats.abort_causes.entry(cause).or_insert(0) += 1;
        if self.obs.events() {
            self.obs.record(
                Record::instant(now, "2pc", "2pc.abort")
                    .with_arg("tx", tx.0)
                    .with_arg("attempt", attempt)
                    .with_arg("shards", ctx.rec(tx).parts.len())
                    .with_arg("cause", cause),
            );
        }
        self.obs.add(counter, 1);
        for &shard in &coord.locked {
            out.push(Emit {
                at: now + ctx.net.delay(self.id, shard),
                shard,
                event: Event::Net(Message {
                    from: self.id,
                    payload: Payload::Abort { tx },
                }),
            });
        }
        if attempt >= ctx.cfg.max_attempts {
            let coord = self.coords.remove(&tx).expect("still coordinating");
            self.spares.put_coord(coord);
            self.stats.failed += 1;
            return;
        }
        coord.attempt = attempt + 1;
        out.push(Emit {
            at: now + backoff_us(ctx.cfg, tx, attempt),
            shard: self.id,
            event: Event::Retry(tx),
        });
    }

    /// Participant side: apply the write-set, release, acknowledge.
    fn on_commit(
        &mut self,
        tx: TxId,
        mut writes: States,
        now: Micros,
        ctx: &Ctx<'_>,
        out: &mut Vec<Emit>,
    ) {
        let rec = ctx.rec(tx);
        let addrs = ctx.addrs_on(tx, self.id);
        if rec.kind == TxKind::Migration {
            // migration commit at the source: the destination installed
            // the shipped copies, so the originals are discarded here
            for &a in addrs {
                self.world.take_state(a);
            }
        } else {
            for (a, state) in writes.drain(..) {
                self.world.install_state(a, state);
            }
            self.spares.put_states(writes);
        }
        self.locks.release(tx, addrs);
        let coordinator = rec.home;
        out.push(Emit {
            at: now + ctx.net.delay(self.id, coordinator),
            shard: coordinator,
            event: Event::Net(Message {
                from: self.id,
                payload: Payload::Ack { tx },
            }),
        });
    }

    /// Coordinator side: the transaction commits once every participant
    /// has applied its write-set.
    fn on_ack(&mut self, tx: TxId, now: Micros, ctx: &Ctx<'_>) {
        let coord = self.coords.get_mut(&tx).expect("ack for unknown tx");
        debug_assert!(coord.acks_pending > 0, "unexpected ack");
        coord.acks_pending -= 1;
        if coord.acks_pending > 0 {
            return;
        }
        let attempts = coord.attempt;
        let coord = self.coords.remove(&tx).expect("ack for unknown tx");
        self.spares.put_coord(coord);
        let rec = ctx.rec(tx);
        if rec.kind == TxKind::Migration {
            let accounts = ctx.footprints.all_addrs(&rec.parts).len() as u64;
            self.stats.migration_batches += 1;
            self.stats.migrated_accounts += accounts;
            self.stats.migration_last_us = self.stats.migration_last_us.max(now);
            if self.obs.events() {
                self.obs.record(
                    Record::instant(now, "migration", "migration.commit")
                        .with_arg("tx", tx.0)
                        .with_arg("accounts", accounts),
                );
            }
            self.obs.add("migration/batches", 1);
            self.obs.add("migration/accounts", accounts);
            return;
        }
        self.record_commit(tx, now, ctx);
        self.stats.cross_committed += 1;
        if self.obs.events() {
            self.obs.record(
                Record::instant(now, "2pc", "2pc.commit")
                    .with_arg("tx", tx.0)
                    .with_arg("attempts", attempts)
                    .with_arg("shards", rec.parts.len()),
            );
        }
        self.obs.add("cross_commits", 1);
    }

    fn record_commit(&mut self, tx: TxId, now: Micros, ctx: &Ctx<'_>) {
        self.stats.committed += 1;
        let latency = now - ctx.rec(tx).arrival_us;
        self.stats.latencies_us.push(latency);
        self.stats.last_commit_us = self.stats.last_commit_us.max(now);
        self.obs.add("commits", 1);
        self.obs.observe_us("commit_latency_us", latency);
    }

    /// Starts the next runnable work item if the execution unit is idle.
    ///
    /// Single-shard transactions need their footprint locks (they may
    /// conflict with an in-flight 2PC); unlockable items rotate to the
    /// back of the queue and are retried on the next pump — which is
    /// guaranteed to happen, because the blocking locks are released by
    /// events on this shard.
    fn pump(&mut self, now: Micros, ctx: &Ctx<'_>, out: &mut Vec<Emit>) {
        if self.running.is_some() {
            return;
        }
        for _ in 0..self.queue.len() {
            let work = self.queue.pop_front().expect("len-checked");
            match work {
                Work::Local(tx) => {
                    if self.locks.try_lock_all(tx, ctx.addrs_on(tx, self.id)) {
                        self.start_exec(work, now, ctx, out);
                        return;
                    }
                    self.stats.local_conflicts += 1;
                    self.queue.push_back(work);
                }
                Work::CrossExec(_) => {
                    self.start_exec(work, now, ctx, out);
                    return;
                }
            }
        }
    }

    /// Runs the transaction through the EVM and occupies the execution
    /// unit for a duration derived from the gas actually consumed.
    fn start_exec(&mut self, work: Work, now: Micros, ctx: &Ctx<'_>, out: &mut Vec<Emit>) {
        let tx = match work {
            Work::Local(tx) | Work::CrossExec(tx) => tx,
        };
        let rec = ctx.rec(tx);
        if rec.kind == TxKind::Migration {
            self.start_migration_install(tx, now, ctx, out);
            return;
        }
        let vm_ctx = ExecContext::new(rec.block_time, rec.entropy, rec.tx.gas_limit)
            .with_schedule(GasSchedule::eip150());
        let receipt = match work {
            Work::Local(_) => Vm::execute_with(&mut self.world, &rec.tx, &vm_ctx, &mut self.vm),
            Work::CrossExec(_) => {
                let coord = self.coords.get_mut(&tx).expect("executing without state");
                let scratch = &mut self.scratch;
                assert!(
                    scratch.account_count() + scratch.contract_count() == 0,
                    "scratch world handed back uncleared"
                );
                scratch.raise_address_floor(self.world.address_floor());
                for (a, state) in coord.shipped.drain(..) {
                    scratch.install_state(a, state);
                }
                let receipt = Vm::execute_with(scratch, &rec.tx, &vm_ctx, &mut self.vm);
                coord.created.extend_from_slice(&receipt.created);
                receipt
            }
        };
        self.note_strays(ctx.footprints.all_addrs(&rec.parts), &receipt);
        let exec_us = (receipt.gas_used.get() / ctx.cfg.gas_per_us).max(ctx.cfg.min_exec_us);
        self.stats.busy_us += exec_us;
        if self.obs.events() {
            // the execution unit sat idle since the previous ExecDone
            if now > self.idle_from {
                self.obs
                    .span_at(self.idle_from, now - self.idle_from, "worker", "idle");
            }
            // the span's full extent is known upfront: the discrete-event
            // engine charges exec_us to the unit in one step
            let kind = match work {
                Work::Local(_) => "local",
                Work::CrossExec(_) => "cross",
            };
            self.obs.record(
                Record::span(now, exec_us, "exec", "exec")
                    .with_arg("tx", tx.0)
                    .with_arg("kind", kind)
                    .with_arg("gas", receipt.gas_used.get()),
            );
        }
        self.obs.observe_us("exec_us", exec_us);
        self.vm.recycle(receipt);
        self.idle_from = now + exec_us;
        self.running = Some(work);
        out.push(Emit {
            at: now + exec_us,
            shard: self.id,
            event: Event::ExecDone(tx),
        });
    }

    /// Occupies the execution unit with a migration batch's install
    /// step: no VM, the duration models copying the shipped bytes in.
    /// The unit is busy for real, which is exactly how migrations
    /// degrade foreground throughput.
    fn start_migration_install(
        &mut self,
        tx: TxId,
        now: Micros,
        ctx: &Ctx<'_>,
        out: &mut Vec<Emit>,
    ) {
        let coord = self.coords.get_mut(&tx).expect("migration without state");
        let bytes: u64 = coord.shipped.iter().map(|(_, s)| s.approx_bytes()).sum();
        let exec_us = (bytes / ctx.cfg.gas_per_us.max(1)).max(ctx.cfg.min_exec_us);
        self.stats.busy_us += exec_us;
        self.stats.migrated_bytes += bytes;
        if self.obs.events() {
            if now > self.idle_from {
                self.obs
                    .span_at(self.idle_from, now - self.idle_from, "worker", "idle");
            }
            self.obs.record(
                Record::span(now, exec_us, "migration", "migration.install")
                    .with_arg("tx", tx.0)
                    .with_arg("bytes", bytes),
            );
        }
        self.obs.add("migration/bytes", bytes);
        self.obs.observe_us("exec_us", exec_us);
        self.idle_from = now + exec_us;
        self.running = Some(Work::CrossExec(tx));
        out.push(Emit {
            at: now + exec_us,
            shard: self.id,
            event: Event::ExecDone(tx),
        });
    }

    /// Counts executed touches outside the declared footprint — the
    /// divergence between the canonical access list and what the sharded
    /// re-execution actually did.
    fn note_strays(&mut self, declared: &[Address], receipt: &Receipt) {
        for call in &receipt.calls {
            for a in [call.from, call.to] {
                if a != Address::ZERO && !declared.contains(&a) {
                    self.stats.stray_touches += 1;
                }
            }
        }
    }

    fn on_exec_done(&mut self, tx: TxId, now: Micros, ctx: &Ctx<'_>, out: &mut Vec<Emit>) {
        let work = self.running.take().expect("exec-done while idle");
        let rec = ctx.rec(tx);
        if rec.kind == TxKind::Migration {
            self.on_migration_installed(tx, now, ctx, out);
            return;
        }
        match work {
            Work::Local(_) => {
                self.locks.release(tx, ctx.addrs_on(tx, self.id));
                self.record_commit(tx, now, ctx);
            }
            Work::CrossExec(_) => {
                let parts = ctx.footprints.parts(&rec.parts);
                let coord = self.coords.get_mut(&tx).expect("exec without state");
                coord.acks_pending = parts.len();
                // created contracts live on in the home shard's lane; they
                // are exported by copy, and first, so one that is also in
                // the footprint still ships in its write-set below
                self.world.raise_address_floor(self.scratch.address_floor());
                for &c in &coord.created {
                    if let Some(state) = self.scratch.export_state(c) {
                        self.world.install_state(c, state);
                    }
                }
                coord.created.clear();
                for part in parts {
                    // each footprint address is in exactly one part, so
                    // its state moves out of the scratch world uncopied
                    let mut writes = self.spares.states();
                    writes.extend(
                        ctx.footprints
                            .addrs(part)
                            .iter()
                            .filter_map(|&a| self.scratch.take_state(a).map(|s| (a, s))),
                    );
                    out.push(Emit {
                        at: now + ctx.net.delay(self.id, part.shard),
                        shard: part.shard,
                        event: Event::Net(Message {
                            from: self.id,
                            payload: Payload::Commit { tx, writes },
                        }),
                    });
                }
                // cleared before the next execution takes it: a state left
                // behind would keep sharing its storage base, sending later
                // writes to that contract into overlays and making the next
                // install copy the base
                self.scratch.clear();
            }
        }
    }
}

impl ShardWorker {
    /// Destination side of a migration batch, after the install step:
    /// the shipped state goes live on this shard, the guard locks that
    /// kept foreground transactions off the moving addresses drop, and
    /// the source is told to discard its copies.
    fn on_migration_installed(
        &mut self,
        tx: TxId,
        now: Micros,
        ctx: &Ctx<'_>,
        out: &mut Vec<Emit>,
    ) {
        let rec = ctx.rec(tx);
        let parts = ctx.footprints.parts(&rec.parts);
        let coord = self.coords.get_mut(&tx).expect("install without state");
        coord.acks_pending = parts.len();
        for (a, state) in coord.shipped.drain(..) {
            self.world.install_state(a, state);
        }
        // the guard locks: the batch's one part is on the source shard, so
        // the moving addresses are all of its footprint
        self.locks.release(tx, ctx.footprints.all_addrs(&rec.parts));
        for &part in parts {
            out.push(Emit {
                at: now + ctx.net.delay(self.id, part.shard),
                shard: part.shard,
                event: Event::Net(Message {
                    from: self.id,
                    payload: Payload::Commit {
                        tx,
                        writes: Vec::new(),
                    },
                }),
            });
        }
    }
}

/// Deterministic backoff with per-transaction jitter, so two repeatedly
/// colliding transactions de-synchronize instead of livelocking. Grows
/// linearly with the attempt up to a 16× cap (hot-spot queues drain at a
/// bounded pace instead of pushing stragglers out indefinitely).
fn backoff_us(cfg: &RuntimeConfig, tx: TxId, attempt: u32) -> u64 {
    let base = cfg.retry_backoff_us.max(1);
    base * u64::from(attempt.min(16)) + mix64(u64::from(tx.0) ^ (u64::from(attempt) << 32)) % base
}
