//! The deterministic event clock.
//!
//! All engine activity flows through one queue ordered by
//! `(virtual time, sequence number)`: a heap for the events the engine
//! schedules as it runs, beside a presorted list of the arrivals known
//! up front. Sequence numbers are handed out in a deterministic order by
//! the engine loop, so two runs with the same inputs process events
//! identically.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use blockpart_types::ShardId;

use crate::event::{Event, TxId};

/// Virtual time in microseconds since the start of the replay.
pub type Micros = u64;

struct Scheduled {
    time: Micros,
    seq: u64,
    shard: ShardId,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // reversed: BinaryHeap is a max-heap, we want the earliest first
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// The engine's event queue.
///
/// Arrivals are known before the loop starts, so they sit in a
/// time-sorted list beside the heap instead of inside it and are merged
/// in at pop time. They own sequence numbers `0..n`, so at equal times
/// they precede every event pushed later: the merged order is exactly
/// the order a heap holding everything would produce.
///
/// # Examples
///
/// ```
/// use blockpart_runtime::clock::EventQueue;
/// use blockpart_runtime::event::{Event, TxId};
/// use blockpart_types::ShardId;
///
/// let mut q = EventQueue::with_arrivals([(20, ShardId::new(1), TxId(0))]);
/// q.push(10, ShardId::new(0), Event::Arrival(TxId(1)));
/// let mut batch = Vec::new();
/// assert_eq!(q.pop_batch_into(&mut batch), Some(10));
/// assert_eq!(batch.len(), 1);
/// assert_eq!(q.pop_batch_into(&mut batch), Some(20));
/// assert_eq!(q.pop_batch_into(&mut batch), None);
/// ```
#[derive(Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    /// Arrivals in (time, sequence) order; the first `next_arrival` have
    /// been popped.
    arrivals: Vec<(Micros, ShardId, TxId)>,
    next_arrival: usize,
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Creates a queue holding one `Arrival` per `(time, shard, tx)`.
    /// Arrivals at equal times keep their iteration order, and every
    /// arrival precedes any event [`push`](Self::push)ed later for the
    /// same instant.
    pub fn with_arrivals(arrivals: impl IntoIterator<Item = (Micros, ShardId, TxId)>) -> Self {
        let mut arrivals: Vec<_> = arrivals.into_iter().collect();
        // stable: equal times stay in sequence order
        arrivals.sort_by_key(|&(time, _, _)| time);
        EventQueue {
            heap: BinaryHeap::new(),
            seq: arrivals.len() as u64,
            arrivals,
            next_arrival: 0,
        }
    }

    /// Schedules `event` on `shard` at absolute virtual time `time`.
    /// Insertion order breaks ties at equal times.
    pub fn push(&mut self, time: Micros, shard: ShardId, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled {
            time,
            seq,
            shard,
            event,
        });
    }

    /// Replaces the contents of `batch` with every event scheduled at the
    /// earliest pending instant, in sequence order, and returns that
    /// instant. Returns `None` (leaving `batch` empty) when nothing is
    /// pending.
    pub fn pop_batch_into(&mut self, batch: &mut Vec<(ShardId, Event)>) -> Option<Micros> {
        batch.clear();
        let pending = &self.arrivals[self.next_arrival..];
        let time = match (pending.first(), self.heap.peek()) {
            (None, None) => return None,
            (Some(&(a, _, _)), None) => a,
            (None, Some(h)) => h.time,
            (Some(&(a, _, _)), Some(h)) => a.min(h.time),
        };
        // arrivals own the lowest sequence numbers, so they lead the batch
        let due = pending.iter().take_while(|&&(t, _, _)| t == time).count();
        batch.extend(
            pending[..due]
                .iter()
                .map(|&(_, shard, tx)| (shard, Event::Arrival(tx))),
        );
        self.next_arrival += due;
        while self.heap.peek().is_some_and(|next| next.time == time) {
            let next = self.heap.pop().expect("peeked");
            batch.push((next.shard, next.event));
        }
        Some(time)
    }

    /// Number of pending events, arrivals included.
    pub fn len(&self) -> usize {
        self.heap.len() + self.arrivals.len() - self.next_arrival
    }

    /// Returns `true` when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_group_equal_times_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, ShardId::new(1), Event::Arrival(TxId(1)));
        q.push(5, ShardId::new(0), Event::Arrival(TxId(0)));
        q.push(9, ShardId::new(0), Event::Arrival(TxId(2)));
        let mut batch = Vec::new();
        assert_eq!(q.pop_batch_into(&mut batch), Some(5));
        let ids: Vec<u16> = batch.iter().map(|(s, _)| s.as_u16()).collect();
        assert_eq!(ids, vec![1, 0]); // insertion order, not shard order
        assert_eq!(q.pop_batch_into(&mut batch), Some(9));
        assert_eq!(batch.len(), 1);
        assert_eq!(q.pop_batch_into(&mut batch), None);
        assert!(batch.is_empty());
    }

    #[test]
    fn len_tracks_pushes() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, ShardId::new(0), Event::Arrival(TxId(0)));
        assert_eq!(q.len(), 1);
    }
}
