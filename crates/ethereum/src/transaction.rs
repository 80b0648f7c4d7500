//! Transactions, call records and receipts.

use blockpart_types::{AccountKind, Address, Gas, Timestamp, Wei};
use serde::{Deserialize, Serialize};

/// What a transaction does once it reaches its target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxPayload {
    /// Plain ether transfer (or a contract call with no argument).
    Transfer,
    /// Call the target contract with one argument word.
    Call {
        /// The argument word passed on the callee's stack.
        arg: u64,
    },
    /// Deploy a new contract of the given template id; the `to` field is
    /// ignored (like Ethereum's `to = null` creation transactions).
    Create {
        /// Template id (see [`ContractTemplate`](crate::ContractTemplate)).
        template: u64,
        /// Constructor argument.
        arg: u64,
    },
}

/// A user-submitted transaction.
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::{Transaction, TxPayload};
/// use blockpart_types::{Address, Gas, Wei};
///
/// let tx = Transaction {
///     from: Address::from_index(1),
///     to: Address::from_index(2),
///     value: Wei::new(100),
///     gas_limit: Gas::new(100_000),
///     payload: TxPayload::Transfer,
/// };
/// assert_eq!(tx.value, Wei::new(100));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    /// Sender (always an externally-owned account).
    pub from: Address,
    /// Recipient account or contract.
    pub to: Address,
    /// Ether sent along.
    pub value: Wei,
    /// Gas budget for execution.
    pub gas_limit: Gas,
    /// What to execute.
    pub payload: TxPayload,
}

/// How an edge between two vertices came to be.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CallKind {
    /// The top-level transaction edge (user → target).
    Transaction,
    /// A value transfer performed by contract code.
    Transfer,
    /// A contract-to-contract (or contract-to-account) call.
    Call,
    /// Contract creation.
    Create,
}

/// One interaction produced while executing a transaction. Each record
/// becomes an edge of the blockchain graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CallRecord {
    /// Caller / sender vertex.
    pub from: Address,
    /// Callee / recipient vertex.
    pub to: Address,
    /// Kind of the source vertex at the time of the call.
    pub from_kind: AccountKind,
    /// Kind of the target vertex at the time of the call.
    pub to_kind: AccountKind,
    /// Ether moved by this call.
    pub value: Wei,
    /// What kind of interaction this was.
    pub kind: CallKind,
}

/// Whether a transaction completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxStatus {
    /// Executed to completion.
    Success,
    /// Reverted or hit a VM error; gas is still consumed and the top-level
    /// edge still exists (the interaction happened on-chain).
    Failed,
}

/// The result of executing one transaction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Receipt {
    /// Outcome.
    pub status: TxStatus,
    /// Gas consumed (includes the 21 000 base cost).
    pub gas_used: Gas,
    /// Every interaction, in execution order; the first is always the
    /// top-level [`CallKind::Transaction`] edge.
    pub calls: Vec<CallRecord>,
    /// Contracts created during execution.
    pub created: Vec<Address>,
}

impl Receipt {
    /// Returns `true` if the transaction succeeded.
    pub fn is_success(&self) -> bool {
        self.status == TxStatus::Success
    }
}

/// One transaction as executed on the canonical (unsharded) chain: when it
/// ran, what it cost and which vertices it touched.
///
/// The sharded runtime replays these records: the `touched` set acts as
/// the transaction's declared access list (like EIP-2930), deciding which
/// shards must participate in its execution.
///
/// # Examples
///
/// ```
/// use blockpart_ethereum::{ExecutedTx, Receipt, Transaction, TxPayload, TxStatus};
/// use blockpart_types::{Address, Gas, Timestamp, Wei};
///
/// let tx = Transaction {
///     from: Address::from_index(1),
///     to: Address::from_index(2),
///     value: Wei::new(5),
///     gas_limit: Gas::new(30_000),
///     payload: TxPayload::Transfer,
/// };
/// let receipt = Receipt {
///     status: TxStatus::Success,
///     gas_used: Gas::new(21_000),
///     calls: Vec::new(),
///     created: Vec::new(),
/// };
/// let exec = ExecutedTx::new(Timestamp::from_secs(9), tx, &receipt);
/// assert_eq!(exec.touched, vec![tx.from, tx.to]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutedTx {
    /// Block time of the canonical execution.
    pub time: Timestamp,
    /// The transaction itself.
    pub tx: Transaction,
    /// Gas the canonical execution consumed.
    pub gas_used: Gas,
    /// Canonical outcome.
    pub status: TxStatus,
    /// Every distinct address the execution touched, in first-touch
    /// order; the sender always comes first. [`Address::ZERO`] (the
    /// creation sink) is excluded — it is not real state.
    pub touched: Vec<Address>,
}

impl ExecutedTx {
    /// Builds the record from a transaction and its canonical receipt.
    pub fn new(time: Timestamp, tx: Transaction, receipt: &Receipt) -> Self {
        let mut touched = vec![tx.from];
        let mut push = |a: Address| {
            if a != Address::ZERO && !touched.contains(&a) {
                touched.push(a);
            }
        };
        push(tx.to);
        for call in &receipt.calls {
            push(call.from);
            push(call.to);
        }
        for &created in &receipt.created {
            push(created);
        }
        ExecutedTx {
            time,
            tx,
            gas_used: receipt.gas_used,
            status: receipt.status,
            touched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn receipt_success_flag() {
        let r = Receipt {
            status: TxStatus::Success,
            gas_used: Gas::new(21_000),
            calls: Vec::new(),
            created: Vec::new(),
        };
        assert!(r.is_success());
        let f = Receipt {
            status: TxStatus::Failed,
            ..r
        };
        assert!(!f.is_success());
    }

    #[test]
    fn payload_variants_distinct() {
        assert_ne!(TxPayload::Transfer, TxPayload::Call { arg: 0 });
        assert_ne!(
            TxPayload::Create {
                template: 0,
                arg: 0
            },
            TxPayload::Create {
                template: 1,
                arg: 0
            }
        );
    }
}
