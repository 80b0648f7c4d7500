//! Directory-level segment store: append, scan, stream.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

use blockpart_graph::Interaction;
use blockpart_types::{BlockNumber, Timestamp};

use crate::segment::{read_segment, read_segment_meta, write_segment, SegmentError, SegmentMeta};

/// Default number of events per segment: large enough to amortize framing,
/// small enough that one decoded segment is a few MiB resident.
pub const DEFAULT_SEGMENT_EVENTS: usize = 64 * 1024;

fn segment_file_name(index: usize) -> String {
    format!("seg-{index:06}.bpsg")
}

/// A disk-resident, append-only interaction log: an ordered sequence of
/// columnar segments (see [`crate::segment`]) under one directory.
///
/// The store is the out-of-core replacement for a resident
/// [`InteractionLog`](blockpart_graph::InteractionLog): the generator
/// appends block batches through a [`SegmentStoreWriter`], and consumers
/// stream events back one segment at a time.
///
/// Memory contract: reading holds one decoded segment resident at a time
/// (`O(segment)`, not `O(log)`).
///
/// # Examples
///
/// ```
/// use blockpart_storage::SegmentStore;
/// use blockpart_graph::Interaction;
/// use blockpart_types::{Address, BlockNumber, Timestamp};
///
/// let dir = std::env::temp_dir().join("bpsg-doc-store");
/// let mut w = SegmentStore::writer(&dir, 4).unwrap();
/// for t in 0..10u64 {
///     w.push(
///         Interaction::new(
///             Timestamp::from_secs(t),
///             Address::from_index(t),
///             Address::from_index(t + 1),
///         ),
///         BlockNumber::new(t),
///     ).unwrap();
/// }
/// let store = w.finish().unwrap();
/// assert_eq!(store.event_count(), 10);
/// assert_eq!(store.segment_count(), 3); // 4 + 4 + 2
/// let total: usize = store.iter().unwrap().map(|e| e.map(|_| 1).unwrap()).sum();
/// assert_eq!(total, 10);
/// # std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    segments: Vec<(PathBuf, SegmentMeta)>,
    event_count: u64,
}

impl SegmentStore {
    /// Opens an existing store, scanning segment headers (not columns).
    ///
    /// Fails with the underlying [`SegmentError`] if any segment header
    /// is unreadable — a truncated tail segment surfaces here by name.
    pub fn open(dir: impl Into<PathBuf>) -> Result<SegmentStore, SegmentError> {
        let dir = dir.into();
        let mut names: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(SegmentError::Io)?
            .filter_map(|entry| {
                let path = entry.ok()?.path();
                let name = path.file_name()?.to_str()?;
                (name.starts_with("seg-") && name.ends_with(".bpsg")).then_some(path)
            })
            .collect();
        names.sort();
        let mut segments = Vec::with_capacity(names.len());
        let mut event_count = 0;
        for path in names {
            let meta = read_segment_meta(&path)?;
            event_count += meta.count;
            segments.push((path, meta));
        }
        Ok(SegmentStore {
            dir,
            segments,
            event_count,
        })
    }

    /// Starts writing a fresh store into `dir` (created if absent,
    /// existing segments removed), cutting segments every
    /// `events_per_segment` events.
    pub fn writer(
        dir: impl Into<PathBuf>,
        events_per_segment: usize,
    ) -> Result<SegmentStoreWriter, SegmentError> {
        SegmentStoreWriter::create(dir.into(), events_per_segment)
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Total events across all segments.
    pub fn event_count(&self) -> u64 {
        self.event_count
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Per-segment metadata, in log order.
    pub fn segments(&self) -> impl Iterator<Item = &SegmentMeta> {
        self.segments.iter().map(|(_, m)| m)
    }

    /// Streams every event in log order, one decoded segment resident at
    /// a time.
    pub fn iter(&self) -> Result<EventStream<'_>, SegmentError> {
        Ok(EventStream {
            segments: &self.segments,
            at: 0,
            current: Vec::new().into_iter(),
        })
    }
}

/// A streaming cursor over a [`SegmentStore`]: decodes one segment at a
/// time and yields its events.
pub struct EventStream<'a> {
    segments: &'a [(PathBuf, SegmentMeta)],
    at: usize,
    current: std::vec::IntoIter<Interaction>,
}

impl Iterator for EventStream<'_> {
    type Item = Result<Interaction, SegmentError>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(e) = self.current.next() {
                return Some(Ok(e));
            }
            let (path, _) = self.segments.get(self.at)?;
            self.at += 1;
            let file = match File::open(path) {
                Ok(f) => f,
                Err(e) => return Some(Err(SegmentError::Io(e))),
            };
            match read_segment(BufReader::new(file)) {
                Ok((_, events)) => self.current = events.into_iter(),
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// Incremental writer producing a [`SegmentStore`]: buffers up to one
/// segment's worth of events (`O(segment)` resident), flushing each full
/// segment to disk with its min/max time and block metadata.
#[derive(Debug)]
pub struct SegmentStoreWriter {
    dir: PathBuf,
    events_per_segment: usize,
    buffer: Vec<Interaction>,
    min_block: BlockNumber,
    max_block: BlockNumber,
    next_index: usize,
    last_time: Option<Timestamp>,
}

/// A [`SegmentStoreWriter`] is a generator sink: each executed block's
/// events land in the store as they are produced, so chain generation at
/// any `--scale` keeps only one block plus one partial segment resident.
impl blockpart_ethereum::gen::BlockSink for SegmentStoreWriter {
    type Error = SegmentError;

    fn block(
        &mut self,
        summary: &blockpart_ethereum::BlockSummary,
        events: &[Interaction],
        _txs: &[blockpart_ethereum::ExecutedTx],
    ) -> Result<(), SegmentError> {
        self.push_block(summary.number, events)
    }
}

impl SegmentStoreWriter {
    fn create(dir: PathBuf, events_per_segment: usize) -> Result<SegmentStoreWriter, SegmentError> {
        std::fs::create_dir_all(&dir).map_err(SegmentError::Io)?;
        for entry in std::fs::read_dir(&dir).map_err(SegmentError::Io)? {
            let path = entry.map_err(SegmentError::Io)?.path();
            let stale = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".bpsg"));
            if stale {
                std::fs::remove_file(&path).map_err(SegmentError::Io)?;
            }
        }
        Ok(SegmentStoreWriter {
            dir,
            events_per_segment: events_per_segment.max(1),
            buffer: Vec::new(),
            min_block: BlockNumber::new(u64::MAX),
            max_block: BlockNumber::new(0),
            next_index: 0,
            last_time: None,
        })
    }

    /// Appends one event attributed to `block`.
    ///
    /// # Panics
    ///
    /// Panics if `event.time` regresses — the same time-order contract as
    /// [`InteractionLog::push`](blockpart_graph::InteractionLog::push).
    pub fn push(&mut self, event: Interaction, block: BlockNumber) -> Result<(), SegmentError> {
        if let Some(last) = self.last_time {
            assert!(
                event.time >= last,
                "segment store must be appended in time order ({} < {})",
                event.time,
                last
            );
        }
        self.last_time = Some(event.time);
        if self.min_block > block {
            self.min_block = block;
        }
        if self.max_block < block {
            self.max_block = block;
        }
        self.buffer.push(event);
        if self.buffer.len() >= self.events_per_segment {
            self.flush_segment()?;
        }
        Ok(())
    }

    /// Appends a whole block's events.
    pub fn push_block(
        &mut self,
        block: BlockNumber,
        events: &[Interaction],
    ) -> Result<(), SegmentError> {
        for &e in events {
            self.push(e, block)?;
        }
        Ok(())
    }

    fn flush_segment(&mut self) -> Result<(), SegmentError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let path = self.dir.join(segment_file_name(self.next_index));
        let tmp = self
            .dir
            .join(format!("{}.tmp", segment_file_name(self.next_index)));
        let file = File::create(&tmp).map_err(SegmentError::Io)?;
        let mut out = std::io::BufWriter::new(file);
        let min_block = if self.min_block.get() == u64::MAX {
            BlockNumber::new(0)
        } else {
            self.min_block
        };
        write_segment(&mut out, &self.buffer, min_block, self.max_block)
            .map_err(SegmentError::Io)?;
        out.into_inner()
            .map_err(|e| SegmentError::Io(e.into()))?
            .sync_data()
            .map_err(SegmentError::Io)?;
        // Rename-into-place keeps a crashed writer from leaving a
        // half-written `seg-*.bpsg` that a later open would misread.
        std::fs::rename(&tmp, &path).map_err(SegmentError::Io)?;
        self.next_index += 1;
        self.buffer.clear();
        self.min_block = BlockNumber::new(u64::MAX);
        self.max_block = BlockNumber::new(0);
        Ok(())
    }

    /// Flushes the tail segment and reopens the directory as a store.
    pub fn finish(mut self) -> Result<SegmentStore, SegmentError> {
        self.flush_segment()?;
        SegmentStore::open(self.dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpart_types::Address;

    fn ev(t: u64) -> Interaction {
        Interaction::new(
            Timestamp::from_secs(t),
            Address::from_index(t % 13),
            Address::from_index((t + 1) % 13),
        )
    }

    fn temp_store(name: &str, n: u64, per_segment: usize) -> SegmentStore {
        let dir = std::env::temp_dir().join(format!("bpsg-store-{name}"));
        let mut w = SegmentStore::writer(&dir, per_segment).unwrap();
        for t in 0..n {
            w.push(ev(t), BlockNumber::new(t / 10)).unwrap();
        }
        w.finish().unwrap()
    }

    fn cleanup(store: SegmentStore) {
        std::fs::remove_dir_all(store.dir()).unwrap();
    }

    #[test]
    fn write_read_roundtrip() {
        let store = temp_store("roundtrip", 1000, 128);
        assert_eq!(store.event_count(), 1000);
        assert_eq!(store.segment_count(), 8); // ceil(1000/128)
        let events: Vec<Interaction> = store.iter().unwrap().map(|e| e.unwrap()).collect();
        assert_eq!(events.len(), 1000);
        assert_eq!(events, (0..1000).map(ev).collect::<Vec<_>>());
        cleanup(store);
    }

    #[test]
    fn reopen_matches_writer_view() {
        let store = temp_store("reopen", 300, 64);
        let reopened = SegmentStore::open(store.dir()).unwrap();
        assert_eq!(reopened.event_count(), 300);
        assert_eq!(reopened.segment_count(), store.segment_count());
        cleanup(store);
    }

    #[test]
    fn rewrite_of_read_store_is_lossless() {
        let store = temp_store("rewrite-src", 500, 64);
        let dir2 = std::env::temp_dir().join("bpsg-store-rewrite-dst");
        let mut w = SegmentStore::writer(&dir2, 90).unwrap();
        // Re-attribute blocks from segment metadata bounds: re-writing
        // what we read must preserve every event and the time metadata.
        for e in store.iter().unwrap() {
            let e = e.unwrap();
            w.push(e, BlockNumber::new(e.time.as_secs() / 10)).unwrap();
        }
        let copy = w.finish().unwrap();
        let a: Vec<Interaction> = store.iter().unwrap().map(|e| e.unwrap()).collect();
        let b: Vec<Interaction> = copy.iter().unwrap().map(|e| e.unwrap()).collect();
        assert_eq!(a, b);
        let last_time = |s: &SegmentStore| s.segments().last().map(|m| m.max_time);
        assert_eq!(last_time(&store), last_time(&copy));
        cleanup(copy);
        cleanup(store);
    }

    #[test]
    fn truncated_tail_segment_detected_on_open() {
        let store = temp_store("truncate", 200, 50);
        let dir = store.dir().to_path_buf();
        let last = dir.join(segment_file_name(3));
        let bytes = std::fs::read(&last).unwrap();
        std::fs::write(&last, &bytes[..bytes.len() / 2]).unwrap();
        // Header still intact: open() succeeds, the read names the error.
        let reopened = SegmentStore::open(&dir).unwrap();
        let err = reopened
            .iter()
            .unwrap()
            .find_map(|r| r.err())
            .expect("truncated segment must surface an error");
        assert!(matches!(err, SegmentError::Truncated { .. }), "got {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let dir = std::env::temp_dir().join("bpsg-store-order");
        let mut w = SegmentStore::writer(&dir, 10).unwrap();
        w.push(ev(10), BlockNumber::new(0)).unwrap();
        let result = w.push(ev(5), BlockNumber::new(0));
        let _ = result;
    }
}
