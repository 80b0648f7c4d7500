//! Common newtypes shared across the `blockpart` workspace.
//!
//! The crate defines small, copyable identifier and quantity types used by
//! the graph, partitioning and simulation crates:
//!
//! * [`Address`] — a 20-byte account/contract identifier (Ethereum-style);
//! * [`ShardId`] — which shard a vertex is assigned to;
//! * [`Timestamp`] / [`Duration`] — simulated wall-clock time in seconds;
//! * [`BlockNumber`], [`Wei`], [`Gas`] — chain quantities;
//! * [`FastMap`] — a `HashMap` with the deterministic [`FxHasher`], for
//!   the runtime's state path;
//! * [`mix64`] — the SplitMix64 finalizer behind address derivation,
//!   hash placement and the runtime's jitter.
//!
//! # Examples
//!
//! ```
//! use blockpart_types::{Address, ShardId, Timestamp, Duration};
//!
//! let a = Address::from_index(42);
//! let shard = ShardId::new(1);
//! let t = Timestamp::from_secs(100) + Duration::hours(4);
//! assert_eq!(t.as_secs(), 100 + 4 * 3600);
//! assert_eq!(shard.as_usize(), 1);
//! assert_ne!(a, Address::from_index(43));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod hash;
mod parallelism;
mod quantity;
mod shard;
mod storage;
mod time;

pub use address::{mix64, AccountKind, Address};
pub use hash::{FastMap, FxHasher};
pub use parallelism::resolve_workers;
pub use quantity::{BlockNumber, Gas, Wei};
pub use shard::{ShardCount, ShardId};
pub use storage::{SpillSession, StorageBackend};
pub use time::{Duration, Timestamp};
