//! A windowed, decaying interaction graph for online repartitioning.
//!
//! The offline simulator rebuilds its reduced graph from a retained
//! event buffer at every repartition. A long-running service wants the
//! same R-METIS `window` semantics as a *maintained* structure: events
//! stream in, whole windows expire, and the partitioner can ask for the
//! current graph at any trigger point. Weights decay linearly with
//! window age (the newest window counts `depth×`, the oldest `1×`), so
//! a trigger reacts to where the traffic is now, not where it was a
//! week ago.

use std::collections::VecDeque;

use blockpart_graph::{Csr, GraphBuilder, Interaction};
use blockpart_types::{Address, Duration, ShardCount, ShardId, Timestamp};

use crate::state::load_balance;

/// Assembles the reduced graph every windowed repartition partitions,
/// offline ([`ShardSimulator`](crate::ShardSimulator) under
/// `RepartitionScope::Window`) and live ([`WindowedGraph::build`]).
///
/// Each interaction's weight is scaled by its multiplier (1 offline, the
/// decay factor live). Returns the [`Csr`] with the address of every
/// vertex, in first-touch order, and its stable id; `None` when there
/// are no interactions.
pub(crate) fn reduced_graph<'a>(
    events: impl IntoIterator<Item = (&'a Interaction, u64)>,
) -> Option<(Csr, Vec<Address>, Vec<u64>)> {
    let mut builder = GraphBuilder::new();
    for (e, multiplier) in events {
        builder.add_interaction(e.from, e.to, e.weight * multiplier);
    }
    let graph = builder.build();
    if graph.is_empty() {
        return None;
    }
    let order: Vec<Address> = graph.nodes().map(|n| n.address).collect();
    let ids = order.iter().map(|a| a.stable_hash()).collect();
    Some((graph.to_csr(), order, ids))
}

/// The traffic of one measurement window under some assignment: the
/// per-window dynamic edge-cut and activity balance that the paper plots
/// and that a threshold trigger compares against its thresholds.
#[derive(Default)]
pub(crate) struct WindowAccum {
    pub(crate) events: usize,
    cut_weight: u64,
    total_weight: u64,
    shard_activity: Vec<u64>,
}

impl WindowAccum {
    pub(crate) fn new(k: ShardCount) -> Self {
        WindowAccum {
            shard_activity: vec![0; k.as_usize()],
            ..WindowAccum::default()
        }
    }

    /// Adds one interaction of weight `w` between endpoints on shards
    /// `su` and `sv`; a self-interaction adds activity only.
    pub(crate) fn add(&mut self, su: ShardId, sv: ShardId, self_loop: bool, w: u64) {
        self.events += 1;
        self.shard_activity[su.as_usize()] += w;
        if !self_loop {
            self.shard_activity[sv.as_usize()] += w;
            self.total_weight += w;
            if su != sv {
                self.cut_weight += w;
            }
        }
    }

    pub(crate) fn reset(&mut self) {
        self.events = 0;
        self.cut_weight = 0;
        self.total_weight = 0;
        self.shard_activity.iter_mut().for_each(|a| *a = 0);
    }

    pub(crate) fn dynamic_edge_cut(&self) -> f64 {
        if self.total_weight == 0 {
            0.0
        } else {
            self.cut_weight as f64 / self.total_weight as f64
        }
    }

    pub(crate) fn dynamic_balance(&self) -> f64 {
        load_balance(self.shard_activity.iter().copied())
    }
}

/// A sliding multi-window buffer of interactions with per-window decay.
///
/// # Examples
///
/// ```
/// use blockpart_graph::Interaction;
/// use blockpart_shard::WindowedGraph;
/// use blockpart_types::{Address, Duration, Timestamp};
///
/// let mut wg = WindowedGraph::new(Duration::hours(4), 7);
/// wg.record(Interaction::new(
///     Timestamp::from_secs(60),
///     Address::from_index(1),
///     Address::from_index(2),
/// ));
/// assert_eq!(wg.event_count(), 1);
/// let (csr, order, _ids) = wg.build().expect("non-empty");
/// assert_eq!(order.len(), 2);
/// assert_eq!(csr.node_count(), 2);
/// ```
#[derive(Debug)]
pub struct WindowedGraph {
    window: Duration,
    depth: usize,
    /// `(window start, events)` buckets in ascending time order.
    buckets: VecDeque<(Timestamp, Vec<Interaction>)>,
}

impl WindowedGraph {
    /// Creates a buffer of `depth` windows of length `window` (the
    /// R-METIS `window=7` configuration is `depth = 7`).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `depth` is zero.
    pub fn new(window: Duration, depth: usize) -> Self {
        assert!(!window.is_zero(), "window must be non-zero");
        assert!(depth > 0, "depth must be non-zero");
        WindowedGraph {
            window,
            depth,
            buckets: VecDeque::new(),
        }
    }

    /// The window length.
    pub fn window(&self) -> Duration {
        self.window
    }

    /// How many windows the buffer retains.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Buffered events across all retained windows.
    pub fn event_count(&self) -> usize {
        self.buckets.iter().map(|(_, b)| b.len()).sum()
    }

    /// Appends one interaction. Events must arrive in non-decreasing
    /// time order; crossing a window boundary opens a new bucket and
    /// expires buckets older than `depth` windows.
    pub fn record(&mut self, event: Interaction) {
        let start = event.time.align_down(self.window);
        match self.buckets.back_mut() {
            Some((bucket_start, bucket)) if *bucket_start == start => bucket.push(event),
            _ => {
                self.buckets.push_back((start, vec![event]));
                self.expire(start);
            }
        }
    }

    /// Expires windows that fell out of the retained span as of the
    /// window starting at `newest`. [`record`](Self::record) calls this
    /// automatically; explicit calls let a driver advance over idle gaps.
    pub fn expire(&mut self, newest: Timestamp) {
        let span = Duration::from_secs(self.window.as_secs() * (self.depth as u64 - 1));
        let cutoff = newest - span;
        while self.buckets.front().is_some_and(|(s, _)| *s < cutoff) {
            self.buckets.pop_front();
        }
    }

    /// Builds the decayed reduced graph: CSR plus the address of every
    /// vertex (in deterministic first-touch order) and its stable id.
    /// Returns `None` when the buffer holds no events.
    pub fn build(&self) -> Option<(Csr, Vec<Address>, Vec<u64>)> {
        let newest = self.buckets.back()?.0;
        reduced_graph(self.buckets.iter().flat_map(|(start, bucket)| {
            // linear decay: a window `age` windows old contributes
            // weight × (depth − age)
            let age = (newest.since(*start).as_secs() / self.window.as_secs()) as usize;
            let decay = (self.depth.saturating_sub(age)).max(1) as u64;
            bucket.iter().map(move |e| (e, decay))
        }))
    }

    /// Dynamic edge-cut and activity balance of the newest window's
    /// traffic under `shard_of` — the quantities a
    /// [`RepartitionPolicy::Threshold`](crate::RepartitionPolicy) trigger
    /// compares against its thresholds.
    pub fn newest_window_metrics(
        &self,
        k: ShardCount,
        shard_of: impl Fn(Address) -> ShardId,
    ) -> (f64, f64) {
        let mut accum = WindowAccum::new(k);
        for e in self.buckets.back().map_or(&[][..], |(_, bucket)| bucket) {
            accum.add(shard_of(e.from), shard_of(e.to), e.from == e.to, e.weight);
        }
        (accum.dynamic_edge_cut(), accum.dynamic_balance())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(i: u64) -> Address {
        Address::from_index(i)
    }

    fn at(hours: u64, from: u64, to: u64) -> Interaction {
        Interaction::new(Timestamp::from_secs(hours * 3_600), addr(from), addr(to))
    }

    #[test]
    fn expires_windows_beyond_depth() {
        let mut wg = WindowedGraph::new(Duration::hours(1), 3);
        for h in 0..10 {
            wg.record(at(h, h, h + 1));
        }
        // only hours 7, 8, 9 remain (depth 3)
        assert_eq!(wg.event_count(), 3);
        let (_, order, _) = wg.build().unwrap();
        assert!(order.contains(&addr(7)));
        assert!(!order.contains(&addr(5)));
    }

    #[test]
    fn decay_weights_newer_windows_heavier() {
        let mut wg = WindowedGraph::new(Duration::hours(1), 2);
        wg.record(at(0, 1, 2)); // old window: decay 1
        wg.record(at(1, 3, 4)); // new window: decay 2
        let (csr, order, _) = wg.build().unwrap();
        let w_of = |a: Address| {
            let v = order.iter().position(|&x| x == a).unwrap();
            csr.weighted_degree(v)
        };
        assert_eq!(w_of(addr(1)), 1);
        assert_eq!(w_of(addr(3)), 2);
    }

    #[test]
    fn newest_window_metrics_track_assignment() {
        let mut wg = WindowedGraph::new(Duration::hours(1), 4);
        wg.record(at(0, 1, 2));
        wg.record(at(0, 3, 4));
        let k = ShardCount::TWO;
        // all on one shard: zero cut, maximally imbalanced activity
        let (cut, bal) = wg.newest_window_metrics(k, |_| ShardId::new(0));
        assert_eq!(cut, 0.0);
        assert_eq!(bal, 2.0);
        // split every edge: full cut, balanced
        let (cut, bal) = wg.newest_window_metrics(k, |a| ShardId::new((a.index() % 2) as u16));
        assert_eq!(cut, 1.0);
        assert_eq!(bal, 1.0);
    }

    #[test]
    fn empty_buffer_builds_nothing() {
        let wg = WindowedGraph::new(Duration::hours(1), 2);
        assert!(wg.build().is_none());
        let (cut, bal) = wg.newest_window_metrics(ShardCount::TWO, |_| ShardId::new(0));
        assert_eq!((cut, bal), (0.0, 1.0));
    }
}
