//! A synthetic Ethereum substrate: accounts, contracts, an EVM-lite virtual
//! machine, blocks, and an era-driven workload generator.
//!
//! The paper builds its graph from the real Ethereum trace (Aug 2015 –
//! Jan 2018). That trace is external data, so this crate *reproduces the
//! chain* instead: transactions are executed by a small stack VM
//! ([`evm`]) whose `CALL`/`TRANSFER`/`CREATE` opcodes emit exactly the
//! caller→callee edges the paper extracts, and a generator ([`gen`])
//! replays the chain's documented history — exponential growth, the
//! 2016 dummy-account attack, the 2017 ICO boom — with heavy-tailed
//! account and contract popularity.
//!
//! The output is a [`blockpart_graph::InteractionLog`] that the sharding
//! simulator and every figure benchmark consume.
//!
//! # Examples
//!
//! ```
//! use blockpart_ethereum::gen::{ChainGenerator, GeneratorConfig};
//!
//! let cfg = GeneratorConfig::demo_scale(42);
//! let synthetic = ChainGenerator::new(cfg).generate();
//! assert!(synthetic.log.len() > 1_000);
//! assert!(synthetic.chain.block_count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod chain;
pub mod evm;
pub mod gen;
mod pool;
mod program;
mod state;
mod transaction;

pub use block::{Block, BlockSummary};
pub use chain::{Chain, SyntheticChain};
pub use pool::TxPool;
pub use program::{ContractTemplate, Program};
pub use state::{AccountState, AddressState, ContractState, World};
pub use transaction::{
    CallKind, CallRecord, ExecutedTx, Receipt, Transaction, TxPayload, TxStatus,
};

pub use blockpart_types::{AccountKind, Address, BlockNumber, Gas, Timestamp, Wei};
