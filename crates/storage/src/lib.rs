//! Out-of-core storage backend: the on-disk segment store a run uses
//! when it selects [`StorageBackend::Spill`].
//!
//! The paper (Fynn & Pedone, DSN 2018) partitions 30 months of Ethereum
//! — hundreds of millions of interactions — while a purely resident
//! pipeline caps out far earlier. [`SegmentStore`] /
//! [`SegmentStoreWriter`] are an append-only columnar segment store for
//! interaction streams ([`segment`] documents the `BPSG` on-disk
//! framing, with per-segment min/max time and block metadata). A
//! generator workload whose only consumer is the offline stage streams
//! its chain into the store block by block, and the offline simulation
//! streams it back one segment at a time, so the full log is never
//! resident; the simulator still builds its graphs in memory.
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
mod store;

pub use segment::{SegmentError, SegmentMeta, SEGMENT_MAGIC, SEGMENT_VERSION};
pub use store::{EventStream, SegmentStore, SegmentStoreWriter, DEFAULT_SEGMENT_EVENTS};

pub use blockpart_types::{SpillSession, StorageBackend};
