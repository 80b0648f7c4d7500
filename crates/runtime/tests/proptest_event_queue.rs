//! Property test: the event queue's arrival merge is invisible.
//!
//! [`EventQueue::with_arrivals`] keeps arrivals in a sorted list beside
//! the heap and merges them in at pop time. Whatever the arrival times
//! (ties included) and however pushes interleave with pops, the queue
//! must pop the same `(time, shard, event)` sequence, in the same
//! same-instant batches, as a reference model that holds every event in
//! one list and always takes the earliest time, ordered by sequence
//! number, where arrivals own the sequence numbers `0..n`.

use blockpart_runtime::clock::{EventQueue, Micros};
use blockpart_runtime::event::{Event, TxId};
use blockpart_types::ShardId;
use proptest::collection::vec;
use proptest::prelude::*;

/// What a popped event is, comparably: shard, then the arrival's tx id,
/// or the push's id offset past every arrival.
type Popped = (u16, u32);

/// One popped batch: its instant and its events in order.
type Batch = (Micros, Vec<Popped>);

fn popped(shard: ShardId, event: &Event, arrivals: u32) -> Popped {
    match event {
        Event::Arrival(tx) => (shard.as_u16(), tx.0),
        Event::Retry(tx) => (shard.as_u16(), arrivals + tx.0),
        _ => unreachable!("the test queues only arrivals and retries"),
    }
}

/// Every pending event as `(time, seq, popped)`; a pop takes the earliest
/// time's events in sequence order.
struct Reference {
    pending: Vec<(Micros, u64, Popped)>,
    seq: u64,
}

impl Reference {
    fn pop(&mut self) -> Option<Batch> {
        let time = self.pending.iter().map(|&(t, _, _)| t).min()?;
        let mut due: Vec<(u64, Popped)> = self
            .pending
            .iter()
            .filter(|&&(t, _, _)| t == time)
            .map(|&(_, seq, p)| (seq, p))
            .collect();
        self.pending.retain(|&(t, _, _)| t != time);
        due.sort_unstable_by_key(|&(seq, _)| seq);
        Some((time, due.into_iter().map(|(_, p)| p).collect()))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn merged_arrivals_pop_like_one_heap(
        arrivals in vec((0u64..24, 0u16..4), 0..40),
        pushes in vec(vec((0u64..12, 0u16..4), 0..4), 0..60),
    ) {
        let n = arrivals.len() as u32;
        let mut queue = EventQueue::with_arrivals(
            arrivals
                .iter()
                .enumerate()
                .map(|(i, &(t, s))| (t, ShardId::new(s), TxId(i as u32))),
        );
        let mut reference = Reference {
            pending: arrivals
                .iter()
                .enumerate()
                .map(|(i, &(t, s))| (t, i as u64, (s, i as u32)))
                .collect(),
            seq: u64::from(n),
        };
        prop_assert_eq!(queue.len(), arrivals.len());

        let mut batch = Vec::new();
        let mut script = pushes.iter();
        let mut next_push = 0u32;
        loop {
            let got = queue.pop_batch_into(&mut batch).map(|time| {
                let events = batch.iter().map(|(s, e)| popped(*s, e, n)).collect();
                (time, events)
            });
            let want = reference.pop();
            prop_assert_eq!(&got, &want);
            let Some((now, _)) = got else { break };
            // schedule as the engine does: never before the current instant
            for &(delay, shard) in script.next().into_iter().flatten() {
                let event = Event::Retry(TxId(next_push));
                reference.pending.push((now + delay, reference.seq, (shard, n + next_push)));
                reference.seq += 1;
                queue.push(now + delay, ShardId::new(shard), event);
                next_push += 1;
            }
            prop_assert_eq!(queue.len(), reference.pending.len());
        }
        prop_assert!(queue.is_empty());
        prop_assert!(batch.is_empty());
    }
}
