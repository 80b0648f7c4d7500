//! The chain: executes blocks against the world state and emits the
//! interaction log the study consumes.

use blockpart_graph::{Interaction, InteractionLog};
use blockpart_types::{BlockNumber, Gas, Timestamp};
use serde::{Deserialize, Serialize};

use crate::block::{Block, BlockSummary};
use crate::evm::{ExecContext, GasSchedule, Vm, VmBuffers};
use crate::state::World;
use crate::transaction::Transaction;

/// A blockchain: the world state plus executed-block summaries.
///
/// Appending a block executes every transaction through the EVM-lite VM
/// and converts each [`CallRecord`](crate::CallRecord) into an
/// [`Interaction`] on the caller-supplied log — exactly the edge extraction
/// the paper performs on the real chain.
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::{Chain, Transaction, TxPayload};
/// use blockpart_graph::InteractionLog;
/// use blockpart_types::{Gas, Timestamp, Wei};
///
/// let mut chain = Chain::new(7);
/// let alice = chain.world_mut().new_user(Wei::new(1_000));
/// let bob = chain.world_mut().new_user(Wei::ZERO);
/// let mut log = InteractionLog::new();
/// let tx = Transaction {
///     from: alice,
///     to: bob,
///     value: Wei::new(5),
///     gas_limit: Gas::new(30_000),
///     payload: TxPayload::Transfer,
/// };
/// let summary = chain.apply_block(Timestamp::from_secs(15), vec![tx], &mut log);
/// assert_eq!(summary.tx_count, 1);
/// assert_eq!(log.len(), 1);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Chain {
    world: World,
    summaries: Vec<BlockSummary>,
    next_number: BlockNumber,
    entropy_seed: u64,
    gas_schedule: GasSchedule,
}

impl Chain {
    /// Creates an empty chain; `entropy_seed` feeds the deterministic
    /// per-transaction entropy used by the `RAND` opcode. Starts on the
    /// launch-era (frontier) gas schedule; forks switch it via
    /// [`Chain::set_gas_schedule`].
    pub fn new(entropy_seed: u64) -> Self {
        Chain {
            world: World::new(),
            summaries: Vec::new(),
            next_number: BlockNumber::GENESIS,
            entropy_seed,
            gas_schedule: GasSchedule::frontier(),
        }
    }

    /// Switches the gas schedule from the next block on (models a fork
    /// like EIP-150).
    pub fn set_gas_schedule(&mut self, schedule: GasSchedule) {
        self.gas_schedule = schedule;
    }

    /// The gas schedule currently in force.
    pub fn gas_schedule(&self) -> GasSchedule {
        self.gas_schedule
    }

    /// The current world state.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Mutable world access, for genesis setup and contract wiring.
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// Number of blocks executed.
    pub fn block_count(&self) -> usize {
        self.summaries.len()
    }

    /// Summaries of all executed blocks.
    pub fn summaries(&self) -> &[BlockSummary] {
        &self.summaries
    }

    /// Total transactions executed so far.
    pub fn tx_count(&self) -> usize {
        self.summaries.iter().map(|s| s.tx_count).sum()
    }

    /// Executes `transactions` as the next block at `time`, appending one
    /// interaction per produced call record to `log`.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous block (the log must stay
    /// time-ordered).
    pub fn apply_block(
        &mut self,
        time: Timestamp,
        transactions: Vec<Transaction>,
        log: &mut InteractionLog,
    ) -> BlockSummary {
        self.apply_block_with_receipts(time, transactions, log).0
    }

    /// Like [`Chain::apply_block`] but also returns the per-transaction
    /// receipts, which the workload generator uses to discover contracts
    /// created mid-block.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous block.
    pub fn apply_block_with_receipts(
        &mut self,
        time: Timestamp,
        transactions: Vec<Transaction>,
        log: &mut InteractionLog,
    ) -> (BlockSummary, Vec<crate::transaction::Receipt>) {
        if let Some(last) = self.summaries.last() {
            assert!(time >= last.time, "blocks must advance in time");
        }
        let block = Block::new(self.next_number, time, transactions);
        self.next_number = self.next_number.next();

        let mut gas_used = Gas::ZERO;
        let mut failed = 0usize;
        let mut receipts = Vec::with_capacity(block.transactions.len());
        // the block's receipts are kept, so only the operand stacks are
        // reused across its transactions
        let mut buffers = VmBuffers::new();
        for (i, tx) in block.transactions.iter().enumerate() {
            let ctx = ExecContext::new(
                time,
                tx_entropy(self.entropy_seed, block.number, i),
                tx.gas_limit,
            )
            .with_schedule(self.gas_schedule);
            let receipt = Vm::execute_with(&mut self.world, tx, &ctx, &mut buffers);
            gas_used += receipt.gas_used;
            if !receipt.is_success() {
                failed += 1;
            }
            for call in &receipt.calls {
                log.push(Interaction {
                    time,
                    from: call.from,
                    to: call.to,
                    weight: 1,
                    from_kind: call.from_kind,
                    to_kind: call.to_kind,
                });
            }
            receipts.push(receipt);
        }
        let summary = BlockSummary {
            number: block.number,
            time,
            tx_count: block.transactions.len(),
            failed,
            gas_used,
        };
        self.summaries.push(summary);
        (summary, receipts)
    }
}

/// A generated chain together with its full interaction log and the
/// per-transaction execution records the sharded runtime replays.
#[derive(Clone, Debug)]
pub struct SyntheticChain {
    /// The chain (world state + block summaries).
    pub chain: Chain,
    /// Every interaction, in time order — the study's input.
    pub log: InteractionLog,
    /// Every executed transaction with its access-list footprint, in
    /// chain order — the sharded runtime's input.
    pub txs: Vec<crate::transaction::ExecutedTx>,
}

fn tx_entropy(seed: u64, block: BlockNumber, index: usize) -> u64 {
    let mut z = seed ^ block.get().wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (index as u64) << 32;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ContractTemplate;
    use crate::transaction::TxPayload;
    use blockpart_types::Wei;

    fn transfer(from: blockpart_types::Address, to: blockpart_types::Address) -> Transaction {
        Transaction {
            from,
            to,
            value: Wei::new(1),
            gas_limit: Gas::new(30_000),
            payload: TxPayload::Transfer,
        }
    }

    #[test]
    fn blocks_number_sequentially() {
        let mut chain = Chain::new(1);
        let a = chain.world_mut().new_user(Wei::new(10));
        let b = chain.world_mut().new_user(Wei::ZERO);
        let mut log = InteractionLog::new();
        let s0 = chain.apply_block(Timestamp::from_secs(10), vec![transfer(a, b)], &mut log);
        let s1 = chain.apply_block(Timestamp::from_secs(20), vec![transfer(a, b)], &mut log);
        assert_eq!(s0.number, BlockNumber::new(0));
        assert_eq!(s1.number, BlockNumber::new(1));
        assert_eq!(chain.block_count(), 2);
        assert_eq!(chain.tx_count(), 2);
    }

    #[test]
    #[should_panic(expected = "advance in time")]
    fn rejects_time_regression() {
        let mut chain = Chain::new(1);
        let mut log = InteractionLog::new();
        chain.apply_block(Timestamp::from_secs(10), Vec::new(), &mut log);
        chain.apply_block(Timestamp::from_secs(5), Vec::new(), &mut log);
    }

    #[test]
    fn interactions_carry_block_time_and_kinds() {
        let mut chain = Chain::new(1);
        let user = chain.world_mut().new_user(Wei::new(1_000_000));
        let dest = chain.world_mut().new_user(Wei::ZERO);
        let wallet =
            chain
                .world_mut()
                .create_contract(ContractTemplate::Wallet, user, dest.index());
        let mut log = InteractionLog::new();
        let tx = Transaction {
            from: user,
            to: wallet,
            value: Wei::new(10),
            gas_limit: Gas::new(100_000),
            payload: TxPayload::Call { arg: dest.index() },
        };
        chain.apply_block(Timestamp::from_secs(99), vec![tx], &mut log);
        assert_eq!(log.len(), 2); // user->wallet, wallet->dest
        let events = log.events();
        assert!(events.iter().all(|e| e.time == Timestamp::from_secs(99)));
        assert!(events[0].to_kind.is_contract());
        assert!(events[1].from_kind.is_contract());
    }

    #[test]
    fn entropy_differs_per_tx() {
        let e1 = tx_entropy(1, BlockNumber::new(5), 0);
        let e2 = tx_entropy(1, BlockNumber::new(5), 1);
        let e3 = tx_entropy(1, BlockNumber::new(6), 0);
        assert_ne!(e1, e2);
        assert_ne!(e1, e3);
        assert_eq!(e1, tx_entropy(1, BlockNumber::new(5), 0));
    }

    #[test]
    fn gas_accumulates_in_summary() {
        let mut chain = Chain::new(1);
        let a = chain.world_mut().new_user(Wei::new(10));
        let b = chain.world_mut().new_user(Wei::ZERO);
        let mut log = InteractionLog::new();
        let s = chain.apply_block(
            Timestamp::from_secs(10),
            vec![transfer(a, b), transfer(a, b)],
            &mut log,
        );
        assert_eq!(s.gas_used, Gas::new(42_000));
        assert_eq!(s.failed, 0);
    }
}
