//! Property tests for the out-of-core segment store.
//!
//! The segment round-trip property pins the BPSG on-disk format: write →
//! read → re-write is lossless, including the per-segment min/max time
//! and block metadata in each segment header; a truncated tail segment
//! surfaces as a named error, never a panic. That spilled and resident
//! runs produce the same reports is checked by
//! `spill_backend_matches_in_memory_backend` in
//! `crates/core/src/experiment.rs` and by the `--spill-dir` cases of
//! `tests/cli.rs`.

use blockpart::graph::Interaction;
use blockpart::storage::{SegmentError, SegmentStore, SpillSession};
use blockpart::types::{AccountKind, Address, BlockNumber, Timestamp};
use proptest::prelude::*;

/// Random time-ordered interaction streams over a small address space,
/// with runs of equal timestamps and both account kinds.
fn events_strategy(max_events: usize) -> impl Strategy<Value = Vec<Interaction>> {
    let event = (
        0u64..4,
        0u64..24,
        0u64..24,
        1u64..9,
        any::<bool>(),
        any::<bool>(),
    );
    proptest::collection::vec(event, 1..max_events).prop_map(|raw| {
        let mut time = 0u64;
        raw.into_iter()
            .map(|(dt, from, to, weight, from_contract, to_contract)| {
                time += dt;
                let kind = |c: bool| {
                    if c {
                        AccountKind::Contract
                    } else {
                        AccountKind::ExternallyOwned
                    }
                };
                Interaction {
                    time: Timestamp::from_secs(time),
                    from: Address::from_index(from),
                    to: Address::from_index(to),
                    weight,
                    from_kind: kind(from_contract),
                    to_kind: kind(to_contract),
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Segment round-trip (write → read → re-write) is lossless,
    // including the per-segment min/max time and block metadata.
    #[test]
    fn segment_roundtrip_is_lossless(
        events in events_strategy(120),
        per_segment in 1usize..16,
        txs_per_block in 1u64..8,
    ) {
        let session = SpillSession::create(std::env::temp_dir()).unwrap();
        let block_of = |i: usize| BlockNumber::new(i as u64 / txs_per_block);

        let mut w = SegmentStore::writer(session.path().join("a"), per_segment).unwrap();
        for (i, &e) in events.iter().enumerate() {
            w.push(e, block_of(i)).unwrap();
        }
        let first = w.finish().unwrap();

        let read: Vec<Interaction> =
            first.iter().unwrap().collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(&read, &events);

        // the metadata matches the events each segment actually holds
        prop_assert_eq!(first.event_count(), events.len() as u64);
        for (s, meta) in first.segments().enumerate() {
            let lo = s * per_segment;
            let hi = (lo + per_segment).min(events.len());
            let slice = &events[lo..hi];
            prop_assert_eq!(meta.count, slice.len() as u64);
            prop_assert_eq!(meta.min_time, slice.iter().map(|e| e.time).min().unwrap());
            prop_assert_eq!(meta.max_time, slice.iter().map(|e| e.time).max().unwrap());
            prop_assert_eq!(meta.min_block, block_of(lo));
            prop_assert_eq!(meta.max_block, block_of(hi - 1));
        }

        // re-writing what was read reproduces the store exactly
        let mut w = SegmentStore::writer(session.path().join("b"), per_segment).unwrap();
        for (i, &e) in read.iter().enumerate() {
            w.push(e, block_of(i)).unwrap();
        }
        let second = w.finish().unwrap();
        let metas = |s: &SegmentStore| s.segments().copied().collect::<Vec<_>>();
        prop_assert_eq!(metas(&second), metas(&first));
        let rewritten: Vec<Interaction> =
            second.iter().unwrap().collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(rewritten, events);

        session.finish().unwrap();
    }
}

/// A truncated tail segment — the signature of a writer killed
/// mid-flush — is detected with a named error, not a panic.
#[test]
fn truncated_tail_segment_is_a_named_error() {
    let session = SpillSession::create(std::env::temp_dir()).unwrap();
    let dir = session.path().join("store");
    let mut w = SegmentStore::writer(&dir, 8).unwrap();
    for t in 0..20u64 {
        let e = Interaction::new(
            Timestamp::from_secs(t),
            Address::from_index(t % 5),
            Address::from_index((t + 1) % 5),
        );
        w.push(e, BlockNumber::new(t / 4)).unwrap();
    }
    drop(w.finish().unwrap());

    // chop bytes off the last segment file
    let mut segs: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segs.sort();
    let tail = segs.last().unwrap();
    let len = std::fs::metadata(tail).unwrap().len();
    std::fs::File::options()
        .write(true)
        .open(tail)
        .unwrap()
        .set_len(len - 7)
        .unwrap();

    let err = match SegmentStore::open(&dir) {
        Ok(store) => store
            .iter()
            .and_then(|rows| rows.collect::<Result<Vec<_>, _>>())
            .expect_err("truncated tail must not read back cleanly"),
        Err(e) => e,
    };
    assert!(
        matches!(
            err,
            SegmentError::Truncated { .. } | SegmentError::Corrupt { .. }
        ),
        "want a named truncation/corruption error, got: {err}"
    );
    session.finish().unwrap();
}
