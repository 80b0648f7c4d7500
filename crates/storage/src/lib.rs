//! Out-of-core storage backend: the disk-resident pieces a run uses when
//! it selects [`StorageBackend::Spill`].
//!
//! The paper (Fynn & Pedone, DSN 2018) partitions 30 months of Ethereum
//! — hundreds of millions of interactions — while a purely resident
//! pipeline caps out far earlier. This crate supplies the two pieces a
//! spill run uses, both selected by the [`StorageBackend`] enum threaded
//! down from the CLI:
//!
//! * [`SegmentStore`] / [`SegmentStoreWriter`] — an append-only columnar
//!   segment store for interaction streams ([`segment`] documents the
//!   `BPSG` on-disk framing), with per-segment min/max time and block
//!   metadata for window pruning and segment-at-a-time readers. The
//!   generator streams a chain into it block by block, and the offline
//!   simulation streams it back, so the full log is never resident; the
//!   simulator still builds its graphs in memory;
//! * [`AccountStateStore`] — a compact append-only account/contract
//!   snapshot store, so 2PC state shipping serializes migration batches
//!   from disk instead of a resident `World`.
//!
//! # Examples
//!
//! ```
//! use blockpart_storage::SegmentStore;
//! use blockpart_graph::Interaction;
//! use blockpart_types::{Address, BlockNumber, Timestamp};
//!
//! let dir = std::env::temp_dir().join("bpsg-lib-doc");
//! let events: Vec<Interaction> = (0..32u64)
//!     .map(|t| {
//!         Interaction::new(
//!             Timestamp::from_secs(t),
//!             Address::from_index(t % 5),
//!             Address::from_index((t + 1) % 5),
//!         )
//!     })
//!     .collect();
//! let mut w = SegmentStore::writer(&dir, 8).unwrap();
//! for (t, &e) in events.iter().enumerate() {
//!     w.push(e, BlockNumber::new(t as u64 / 4)).unwrap();
//! }
//! let store = w.finish().unwrap();
//! assert_eq!(store.segment_count(), 4);
//! let read: Vec<Interaction> = store.iter().unwrap().map(Result::unwrap).collect();
//! assert_eq!(read, events);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod segment;
mod state;
mod store;

pub use segment::{SegmentError, SegmentMeta, SEGMENT_MAGIC, SEGMENT_VERSION};
pub use state::AccountStateStore;
pub use store::{EventStream, SegmentStore, SegmentStoreWriter, DEFAULT_SEGMENT_EVENTS};

pub use blockpart_types::{parse_mem_budget, SpillSession, StorageBackend};
