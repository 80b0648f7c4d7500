//! The on-disk columnar segment format (`BPSG`).
//!
//! A segment is one chunk of an interaction stream, laid out column-major
//! so sequential scans touch only the bytes they need:
//!
//! ```text
//! header   magic "BPSG" · version u32 · count u64
//!          min_time u64 · max_time u64 · min_block u64 · max_block u64
//! columns  time   u64  × count
//!          from   [u8; 20] × count
//!          to     [u8; 20] × count
//!          weight u64  × count
//!          kinds  u8   × count   (bit 0: from is contract, bit 1: to is)
//! trailer  fnv1a-64 checksum over header + columns
//! ```
//!
//! All integers are little-endian. The `min/max` header fields describe a
//! segment's time and block span without touching the columns
//! ([`read_segment_meta`]). Truncation and corruption are detected as *named errors*
//! ([`SegmentError::Truncated`], [`SegmentError::Corrupt`]) — never a
//! panic — so a crashed writer's tail segment is diagnosable.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::Path;

use blockpart_graph::Interaction;
use blockpart_types::{AccountKind, BlockNumber, Timestamp};

/// File magic for segment files.
pub const SEGMENT_MAGIC: [u8; 4] = *b"BPSG";

/// Current format version.
pub const SEGMENT_VERSION: u32 = 1;

const HEADER_BYTES: usize = 4 + 4 + 8 + 8 + 8 + 8 + 8;
/// Per-event payload bytes: time + from + to + weight + kind byte.
const EVENT_BYTES: usize = 8 + 20 + 20 + 8 + 1;

/// What went wrong reading a segment.
#[derive(Debug)]
pub enum SegmentError {
    /// The file does not start with the `BPSG` magic.
    BadMagic,
    /// The file's format version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file ends before the byte count its header promises — the
    /// signature of a writer killed mid-segment.
    Truncated {
        /// Bytes the header implies the file should hold.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The checksum over header and columns does not match the trailer.
    Corrupt {
        /// Checksum recorded in the trailer.
        stored: u64,
        /// Checksum recomputed from the bytes read.
        computed: u64,
    },
    /// An underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::BadMagic => write!(f, "not a BPSG segment (bad magic)"),
            SegmentError::UnsupportedVersion(v) => {
                write!(f, "unsupported segment version {v}")
            }
            SegmentError::Truncated { expected, actual } => write!(
                f,
                "truncated segment: header promises {expected} bytes, file has {actual}"
            ),
            SegmentError::Corrupt { stored, computed } => write!(
                f,
                "corrupt segment: checksum {computed:#018x} != stored {stored:#018x}"
            ),
            SegmentError::Io(e) => write!(f, "segment i/o error: {e}"),
        }
    }
}

impl std::error::Error for SegmentError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SegmentError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SegmentError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            // Reported with byte counts by the framing layer where known;
            // a bare EOF is still a truncation, not a generic I/O fault.
            SegmentError::Truncated {
                expected: 0,
                actual: 0,
            }
        } else {
            SegmentError::Io(e)
        }
    }
}

/// Per-segment metadata, readable without scanning the columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Number of events in the segment.
    pub count: u64,
    /// Earliest event timestamp (seconds); 0 when the segment is empty.
    pub min_time: Timestamp,
    /// Latest event timestamp (seconds); 0 when the segment is empty.
    pub max_time: Timestamp,
    /// Lowest block index covered by the segment.
    pub min_block: BlockNumber,
    /// Highest block index covered by the segment.
    pub max_block: BlockNumber,
}

fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A checksumming byte sink.
struct HashedWriter<W: Write> {
    inner: W,
    hash: u64,
}

impl<W: Write> HashedWriter<W> {
    fn new(inner: W) -> Self {
        HashedWriter {
            inner,
            hash: FNV_OFFSET,
        }
    }

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.hash = fnv1a(self.hash, bytes);
        self.inner.write_all(bytes)
    }
}

/// Serializes one segment: `events` paired with the block range
/// `[min_block, max_block]` it came from. Events must be time-ordered
/// (the writer asserts the min/max metadata it derives).
pub fn write_segment<W: Write>(
    out: W,
    events: &[Interaction],
    min_block: BlockNumber,
    max_block: BlockNumber,
) -> io::Result<()> {
    let mut w = HashedWriter::new(out);
    let min_time = events.first().map_or(0, |e| e.time.as_secs());
    let max_time = events.last().map_or(0, |e| e.time.as_secs());
    debug_assert!(
        events.windows(2).all(|p| p[0].time <= p[1].time),
        "segment events must be time-ordered"
    );
    w.put(&SEGMENT_MAGIC)?;
    w.put(&SEGMENT_VERSION.to_le_bytes())?;
    w.put(&(events.len() as u64).to_le_bytes())?;
    w.put(&min_time.to_le_bytes())?;
    w.put(&max_time.to_le_bytes())?;
    w.put(&min_block.get().to_le_bytes())?;
    w.put(&max_block.get().to_le_bytes())?;
    for e in events {
        w.put(&e.time.as_secs().to_le_bytes())?;
    }
    for e in events {
        w.put(e.from.as_bytes())?;
    }
    for e in events {
        w.put(e.to.as_bytes())?;
    }
    for e in events {
        w.put(&e.weight.to_le_bytes())?;
    }
    for e in events {
        let kinds = (e.from_kind.is_contract() as u8) | ((e.to_kind.is_contract() as u8) << 1);
        w.put(&[kinds])?;
    }
    let hash = w.hash;
    w.inner.write_all(&hash.to_le_bytes())?;
    w.inner.flush()
}

fn kind_of(bit: bool) -> AccountKind {
    if bit {
        AccountKind::Contract
    } else {
        AccountKind::ExternallyOwned
    }
}

/// Deserializes one segment, verifying framing and checksum. Returns the
/// metadata and the decoded events.
pub fn read_segment<R: Read>(
    mut input: R,
) -> Result<(SegmentMeta, Vec<Interaction>), SegmentError> {
    // Reading the whole file up front lets truncation be reported with
    // exact byte counts instead of a bare EOF mid-column.
    let mut bytes = Vec::new();
    input.read_to_end(&mut bytes).map_err(SegmentError::Io)?;
    if bytes.len() < 8 || bytes[..4] != SEGMENT_MAGIC {
        if bytes.len() >= 4 && bytes[..4] != SEGMENT_MAGIC {
            return Err(SegmentError::BadMagic);
        }
        return Err(SegmentError::Truncated {
            expected: (HEADER_BYTES + 8) as u64,
            actual: bytes.len() as u64,
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != SEGMENT_VERSION {
        return Err(SegmentError::UnsupportedVersion(version));
    }
    if bytes.len() < HEADER_BYTES {
        return Err(SegmentError::Truncated {
            expected: (HEADER_BYTES + 8) as u64,
            actual: bytes.len() as u64,
        });
    }
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let count = word(8);
    let meta = SegmentMeta {
        count,
        min_time: Timestamp::from_secs(word(16)),
        max_time: Timestamp::from_secs(word(24)),
        min_block: BlockNumber::new(word(32)),
        max_block: BlockNumber::new(word(40)),
    };
    let payload = (count as usize)
        .checked_mul(EVENT_BYTES)
        .and_then(|p| p.checked_add(HEADER_BYTES + 8));
    let Some(expected) = payload else {
        return Err(SegmentError::Corrupt {
            stored: 0,
            computed: count,
        });
    };
    if bytes.len() < expected {
        return Err(SegmentError::Truncated {
            expected: expected as u64,
            actual: bytes.len() as u64,
        });
    }
    let body = &bytes[..expected - 8];
    let stored = u64::from_le_bytes(bytes[expected - 8..expected].try_into().expect("8 bytes"));
    let computed = fnv1a(FNV_OFFSET, body);
    if stored != computed {
        return Err(SegmentError::Corrupt { stored, computed });
    }

    let n = count as usize;
    let times = HEADER_BYTES;
    let froms = times + 8 * n;
    let tos = froms + 20 * n;
    let weights = tos + 20 * n;
    let kinds = weights + 8 * n;
    let mut events = Vec::with_capacity(n);
    for i in 0..n {
        let addr = |at: usize| {
            blockpart_types::Address::from_bytes(bytes[at..at + 20].try_into().expect("20 bytes"))
        };
        let kind_byte = bytes[kinds + i];
        events.push(Interaction {
            time: Timestamp::from_secs(word(times + 8 * i)),
            from: addr(froms + 20 * i),
            to: addr(tos + 20 * i),
            weight: word(weights + 8 * i),
            from_kind: kind_of(kind_byte & 1 != 0),
            to_kind: kind_of(kind_byte & 2 != 0),
        });
    }
    Ok((meta, events))
}

/// Reads only a segment's header metadata without decoding or
/// checksumming the columns.
pub fn read_segment_meta(path: &Path) -> Result<SegmentMeta, SegmentError> {
    let mut f = std::fs::File::open(path).map_err(SegmentError::Io)?;
    let mut header = [0u8; HEADER_BYTES];
    f.read_exact(&mut header).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            SegmentError::Truncated {
                expected: (HEADER_BYTES + 8) as u64,
                actual: std::fs::metadata(path).map(|m| m.len()).unwrap_or(0),
            }
        } else {
            SegmentError::Io(e)
        }
    })?;
    if header[..4] != SEGMENT_MAGIC {
        return Err(SegmentError::BadMagic);
    }
    let version = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if version != SEGMENT_VERSION {
        return Err(SegmentError::UnsupportedVersion(version));
    }
    let word = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    Ok(SegmentMeta {
        count: word(8),
        min_time: Timestamp::from_secs(word(16)),
        max_time: Timestamp::from_secs(word(24)),
        min_block: BlockNumber::new(word(32)),
        max_block: BlockNumber::new(word(40)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockpart_types::Address;

    fn sample(n: u64) -> Vec<Interaction> {
        (0..n)
            .map(|i| {
                let mut e = Interaction::new(
                    Timestamp::from_secs(100 + i),
                    Address::from_index(i),
                    Address::from_index(i + 1),
                );
                e.weight = i + 1;
                if i % 3 == 0 {
                    e.to_kind = AccountKind::Contract;
                }
                e
            })
            .collect()
    }

    fn encode(events: &[Interaction]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_segment(&mut buf, events, BlockNumber::new(5), BlockNumber::new(9)).unwrap();
        buf
    }

    #[test]
    fn roundtrip_preserves_events_and_meta() {
        let events = sample(17);
        let buf = encode(&events);
        let (meta, decoded) = read_segment(&buf[..]).unwrap();
        assert_eq!(decoded, events);
        assert_eq!(meta.count, 17);
        assert_eq!(meta.min_time, Timestamp::from_secs(100));
        assert_eq!(meta.max_time, Timestamp::from_secs(116));
        assert_eq!(meta.min_block, BlockNumber::new(5));
        assert_eq!(meta.max_block, BlockNumber::new(9));
    }

    #[test]
    fn empty_segment_roundtrips() {
        let buf = encode(&[]);
        let (meta, decoded) = read_segment(&buf[..]).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(meta.count, 0);
    }

    #[test]
    fn truncated_tail_is_named_error() {
        let buf = encode(&sample(8));
        for cut in [buf.len() - 1, buf.len() / 2, HEADER_BYTES, 3] {
            let err = read_segment(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, SegmentError::Truncated { .. }),
                "cut at {cut} gave {err}"
            );
        }
    }

    #[test]
    fn corrupted_byte_is_named_error() {
        let mut buf = encode(&sample(8));
        let mid = buf.len() / 2;
        buf[mid] ^= 0xff;
        let err = read_segment(&buf[..]).unwrap_err();
        assert!(matches!(err, SegmentError::Corrupt { .. }), "got {err}");
        assert!(err.to_string().contains("corrupt"));
    }

    #[test]
    fn bad_magic_is_named_error() {
        let mut buf = encode(&sample(2));
        buf[0] = b'X';
        assert!(matches!(
            read_segment(&buf[..]).unwrap_err(),
            SegmentError::BadMagic
        ));
    }

    #[test]
    fn future_version_is_refused() {
        let mut buf = encode(&sample(2));
        buf[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            read_segment(&buf[..]).unwrap_err(),
            SegmentError::UnsupportedVersion(99)
        ));
    }
}
