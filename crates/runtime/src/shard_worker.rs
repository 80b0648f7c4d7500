//! One shard of the execution runtime: a slice of world state, an
//! exclusive-lock table, a run queue feeding a serial execution unit, and
//! the coordinator state of the cross-shard transactions homed here.
//!
//! Workers only mutate their own state; all inter-shard effects travel as
//! [`Message`]s returned from [`ShardWorker::handle_batch`], which the
//! engine schedules through the shared event clock. That isolation is
//! what lets the engine run one thread per shard and stay deterministic.

use std::collections::{BTreeMap, HashMap, VecDeque};

use blockpart_ethereum::evm::{ExecContext, GasSchedule, Vm};
use blockpart_ethereum::{Receipt, Transaction, World};
use blockpart_obs::{Collector, Record, Trace};
use blockpart_types::{Address, ShardId, Timestamp};

use crate::clock::Micros;
use crate::coordinator::CoordState;
use crate::event::{Event, TxId};
use crate::locks::LockTable;
use crate::net::{Message, NetworkModel, Payload};
use crate::RuntimeConfig;

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
    /// Footprint addresses grouped by owning shard, ascending shard id.
    pub parts: Vec<(ShardId, Vec<Address>)>,
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

    /// The footprint addresses owned by `shard` (empty if not a
    /// participant).
    pub fn addrs_on(&self, shard: ShardId) -> &[Address] {
        self.parts
            .iter()
            .find(|(s, _)| *s == shard)
            .map(|(_, a)| a.as_slice())
            .unwrap_or(&[])
    }
}

/// Read-only context shared by every worker during a batch.
pub(crate) struct Ctx<'a> {
    pub cfg: &'a RuntimeConfig,
    pub txs: &'a [TxRecord],
    pub net: NetworkModel,
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

pub(crate) struct ShardWorker {
    pub id: ShardId,
    pub world: World,
    /// Crate-visible so a live session can install migration guard
    /// locks at an epoch barrier, before the segment's events flow.
    pub locks: LockTable,
    queue: VecDeque<Work>,
    running: Option<Work>,
    coords: HashMap<TxId, CoordState>,
    pub stats: WorkerStats,
    /// Virtual-clock trace buffer owned by this worker (disabled unless
    /// the engine runs traced). Worker-owned buffers merged in shard
    /// order keep traced runs deterministic across thread schedules.
    pub obs: Trace,
    /// End of the last execution, for idle-gap spans.
    idle_from: Micros,
    /// Optional on-disk state spool: when present, every prepare's
    /// exported state round-trips through this [`AccountStateStore`]
    /// before it ships, so migration batches serialize from disk instead
    /// of a resident `World`. The encoding is lossless — behaviour is
    /// byte-identical either way.
    pub(crate) spool: Option<blockpart_storage::AccountStateStore>,
}

impl ShardWorker {
    pub fn new(id: ShardId, world: World) -> Self {
        ShardWorker {
            id,
            world,
            locks: LockTable::new(),
            queue: VecDeque::new(),
            running: None,
            coords: HashMap::new(),
            stats: WorkerStats::default(),
            obs: Trace::disabled(),
            idle_from: 0,
            spool: None,
        }
    }

    /// Whether the worker has no in-flight work: idle execution unit,
    /// empty run queue, no open coordinations. Holds at every epoch
    /// barrier (the event queue only drains once all 2PC rounds finish).
    pub fn is_quiescent(&self) -> bool {
        self.running.is_none() && self.queue.is_empty() && self.coords.is_empty()
    }

    /// Processes this shard's slice of one same-instant event batch and
    /// returns the events to schedule in response.
    pub fn handle_batch(&mut self, now: Micros, events: Vec<Event>, ctx: &Ctx<'_>) -> Vec<Emit> {
        let mut out = Vec::new();
        for event in events {
            match event {
                Event::Arrival(tx) => self.on_arrival(tx, now, ctx, &mut out),
                Event::Net(msg) => self.on_message(msg, now, ctx, &mut out),
                Event::ExecDone(tx) => self.on_exec_done(tx, now, ctx, &mut out),
                Event::Retry(tx) => self.start_prepare_round(tx, now, ctx, &mut out),
            }
        }
        self.pump(now, ctx, &mut out);
        out
    }

    fn on_arrival(&mut self, tx: TxId, now: Micros, ctx: &Ctx<'_>, out: &mut Vec<Emit>) {
        if ctx.txs[tx.as_usize()].is_cross() {
            self.coords.insert(tx, CoordState::new_round(1, 0));
            self.start_prepare_round(tx, now, ctx, out);
        } else {
            self.queue.push_back(Work::Local(tx));
        }
    }

    /// Broadcasts `Prepare` for the coordinator's current attempt.
    fn start_prepare_round(&mut self, tx: TxId, now: Micros, ctx: &Ctx<'_>, out: &mut Vec<Emit>) {
        let rec = &ctx.txs[tx.as_usize()];
        let coord = self.coords.get_mut(&tx).expect("coordinator state exists");
        let attempt = coord.attempt;
        *coord = CoordState::new_round(attempt, rec.parts.len());
        if rec.kind == TxKind::Migration {
            // migration rounds are accounted separately so they never
            // distort the foreground abort rate
            if self.obs.events() {
                self.obs.record(
                    Record::instant(now, "migration", "migration.prepare")
                        .with_arg("tx", tx.0)
                        .with_arg("accounts", rec.addrs_on(rec.parts[0].0).len()),
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
        for &(shard, _) in &rec.parts {
            out.push(Emit {
                at: now + ctx.net.delay(self.id, shard),
                shard,
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
            Payload::Abort { tx } => self.locks.release(tx),
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
        let addrs = ctx.txs[tx.as_usize()].addrs_on(self.id);
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
            let world = &self.world;
            let spool = &mut self.spool;
            addrs
                .iter()
                .filter_map(|&a| world.export_state(a).map(|s| (a, s)))
                .map(|(a, s)| match spool {
                    // serialize from disk: encode into the spool, ship the
                    // decoded re-read (lossless, so votes are identical)
                    Some(store) => (a, store.roundtrip(a, &s).expect("state spool I/O")),
                    None => (a, s),
                })
                .collect()
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
        shipped: Vec<(Address, blockpart_ethereum::AddressState)>,
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
        if !coord.record_vote(from, ok, shipped) {
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
            ctx.txs[tx.as_usize()].kind != TxKind::Migration,
            "migration prepares cannot conflict: routing swaps before the \
             segment, so no foreground footprint references moving state \
             on the source shard"
        );
        self.stats.aborted_rounds += 1;
        let locked = std::mem::take(&mut coord.locked);
        let attempt = coord.attempt;
        // a round that lost the lock race retries; the terminal attempt
        // drops the transaction instead
        let cause = if attempt >= ctx.cfg.max_attempts {
            "retry-exhausted"
        } else {
            "lock-conflict"
        };
        *self.stats.abort_causes.entry(cause).or_insert(0) += 1;
        if self.obs.events() {
            self.obs.record(
                Record::instant(now, "2pc", "2pc.abort")
                    .with_arg("tx", tx.0)
                    .with_arg("attempt", attempt)
                    .with_arg("shards", ctx.txs[tx.as_usize()].parts.len())
                    .with_arg("cause", cause),
            );
        }
        if self.obs.enabled() {
            // the two cause names are fixed, so the format! amortizes to
            // a registry hit after the first abort of each cause
            self.obs.add(&format!("aborts/{cause}"), 1);
        }
        for shard in locked {
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
            self.coords.remove(&tx);
            self.stats.failed += 1;
            return;
        }
        let coord = self.coords.get_mut(&tx).expect("still coordinating");
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
        writes: Vec<(Address, blockpart_ethereum::AddressState)>,
        now: Micros,
        ctx: &Ctx<'_>,
        out: &mut Vec<Emit>,
    ) {
        let rec = &ctx.txs[tx.as_usize()];
        if rec.kind == TxKind::Migration {
            // migration commit at the source: the destination installed
            // the shipped copies, so the originals are discarded here
            for &a in rec.addrs_on(self.id) {
                self.world.take_state(a);
            }
        } else {
            for (a, state) in writes {
                self.world.install_state(a, state);
            }
        }
        self.locks.release(tx);
        let coordinator = ctx.txs[tx.as_usize()].home;
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
        self.coords.remove(&tx);
        let rec = &ctx.txs[tx.as_usize()];
        if rec.kind == TxKind::Migration {
            let accounts: u64 = rec.parts.iter().map(|(_, a)| a.len() as u64).sum();
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
                    .with_arg("shards", ctx.txs[tx.as_usize()].parts.len()),
            );
        }
        self.obs.add("cross_commits", 1);
    }

    fn record_commit(&mut self, tx: TxId, now: Micros, ctx: &Ctx<'_>) {
        self.stats.committed += 1;
        let latency = now - ctx.txs[tx.as_usize()].arrival_us;
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
                    let addrs = ctx.txs[tx.as_usize()].addrs_on(self.id);
                    if self.locks.try_lock_all(tx, addrs) {
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
        let rec = &ctx.txs[tx.as_usize()];
        if rec.kind == TxKind::Migration {
            self.start_migration_install(tx, now, ctx, out);
            return;
        }
        let vm_ctx = ExecContext::new(rec.block_time, rec.entropy, rec.tx.gas_limit)
            .with_schedule(GasSchedule::eip150());
        let receipt = match work {
            Work::Local(_) => Vm::execute(&mut self.world, &rec.tx, &vm_ctx),
            Work::CrossExec(_) => {
                let coord = self.coords.get_mut(&tx).expect("executing without state");
                let mut scratch = World::new();
                scratch.raise_address_floor(self.world.address_floor());
                for (a, state) in coord.shipped.drain(..) {
                    scratch.install_state(a, state);
                }
                let receipt = Vm::execute(&mut scratch, &rec.tx, &vm_ctx);
                coord.scratch = Some(scratch);
                coord.created = receipt.created.clone();
                receipt
            }
        };
        self.note_strays(rec, &receipt);
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
    fn note_strays(&mut self, rec: &TxRecord, receipt: &Receipt) {
        let declared: Vec<Address> = rec
            .parts
            .iter()
            .flat_map(|(_, a)| a.iter().copied())
            .collect();
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
        if ctx.txs[tx.as_usize()].kind == TxKind::Migration {
            self.on_migration_installed(tx, now, ctx, out);
            return;
        }
        match work {
            Work::Local(_) => {
                self.locks.release(tx);
                self.record_commit(tx, now, ctx);
            }
            Work::CrossExec(_) => {
                let rec = &ctx.txs[tx.as_usize()];
                let coord = self.coords.get_mut(&tx).expect("exec without state");
                let scratch = coord.scratch.take().expect("scratch world");
                coord.acks_pending = rec.parts.len();
                // created contracts live on in the home shard's lane
                self.world.raise_address_floor(scratch.address_floor());
                for c in std::mem::take(&mut coord.created) {
                    if let Some(state) = scratch.export_state(c) {
                        self.world.install_state(c, state);
                    }
                }
                for &(shard, ref addrs) in &rec.parts {
                    let writes: Vec<_> = addrs
                        .iter()
                        .filter_map(|&a| scratch.export_state(a).map(|s| (a, s)))
                        .collect();
                    out.push(Emit {
                        at: now + ctx.net.delay(self.id, shard),
                        shard,
                        event: Event::Net(Message {
                            from: self.id,
                            payload: Payload::Commit { tx, writes },
                        }),
                    });
                }
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
        let rec = &ctx.txs[tx.as_usize()];
        let coord = self.coords.get_mut(&tx).expect("install without state");
        coord.acks_pending = rec.parts.len();
        for (a, state) in std::mem::take(&mut coord.shipped) {
            self.world.install_state(a, state);
        }
        self.locks.release(tx);
        for &(shard, _) in &rec.parts {
            out.push(Emit {
                at: now + ctx.net.delay(self.id, shard),
                shard,
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

/// splitmix64 finalizer.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
