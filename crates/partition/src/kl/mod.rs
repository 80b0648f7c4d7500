//! Kernighan–Lin partitioning: the distributed shard/oracle variant
//! evaluated by the paper.
//!
//! The paper's "KL" method (§II-C) is not the textbook algorithm run
//! centrally: each shard locally selects vertices whose move would reduce
//! edge-cut, an *oracle* gathers the proposals and computes a k×k
//! probability matrix that keeps shards balanced, and shards then exchange
//! vertices according to that matrix. [`DistributedKl`] implements exactly
//! that loop.

mod distributed;

pub use distributed::{DistributedKl, DistributedKlConfig};
