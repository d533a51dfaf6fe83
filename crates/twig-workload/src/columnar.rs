//! The columnar on-disk trace format `.twgc` v2: out-of-core event
//! streams in checksummed chunks, with per-chunk branch-density summaries
//! in a trailing directory for macro-block fast-forward.
//!
//! Plays the role of the paper's Intel Processor Trace captures (§4.1): a
//! trace stores only the *dynamic control-flow decisions* — like real PT
//! packets, static information (block geometry, direct-branch targets) is
//! reconstructed from the binary, so traces are small and layout-independent.
//! Events are split into fixed-size chunks and each chunk is stored *by
//! column*. Every part of the file is one `twig_sched::durable` frame with
//! magic `"TWGC"` and version 2, so one decoder checks every byte:
//!
//! ```text
//! file    := head chunk* dir tail
//! head    := frame(empty)
//! chunk   := frame(count u32 | blocks_len u32
//!                  | taken_bits ⌈count/8⌉ | target_bits ⌈count/8⌉
//!                  | blocks (count × LEB128) | targets (LEB128 each))
//! dir     := frame(dirent*)
//! dirent  := offset u64 | count u32 | taken u32 | targets u32
//! tail    := frame(total u64 | dir_offset u64)      fixed size
//! ```
//!
//! Every multi-byte integer is little-endian. A bit flip or a torn write
//! fails exactly the frame it touches; the head carries the version, and
//! the fixed-size tail locates the directory, so a torn tail or an old
//! version is rejected at open.
//!
//! Design properties the streaming engine relies on:
//!
//! * **Bounded residency** — the reader ([`ColumnarReader`]) maps the file
//!   ([`crate::MappedBytes`]) and decodes one chunk at a time into a
//!   reusable buffer; consumed pages are returned to the OS, so a
//!   sequential scan of a multi-GB trace holds one chunk (~64Ki events)
//!   plus one mapped window resident. Opening reads only the head, the
//!   directory and the tail; a chunk's CRC is checked when it is decoded.
//! * **Macro-block fast-forward** — each directory entry repeats the
//!   chunk's event count and branch-density summary (taken / has-target
//!   counts), so [`crate::ColumnarSource`]'s `nth` (hence `.skip(n)`)
//!   leaps whole chunks without touching their pages — the trace-level
//!   analogue of the simulator's batched idle stepping.
//! * **Streamed writes** — [`ColumnarWriter`] emits chunks as events
//!   arrive and appends the directory at the end, so a trace larger than
//!   RAM is written through `twig_sched::durable::publish_atomic_with`
//!   without ever being resident ([`write_columnar_file`]).

use std::io::{self, Write};
use std::path::Path;

use twig_sched::durable::{
    decode_record, get_varint, publish_atomic_with, put_varint, write_frame, FrameError,
    FRAME_OVERHEAD,
};
use twig_types::BlockId;

use crate::mapped::MappedBytes;
use crate::walker::BlockEvent;

const MAGIC: &[u8; 4] = b"TWGC";
const VERSION: u8 = 2;

const DIRENT_LEN: usize = 8 + 3 * 4;
const TAIL_LEN: usize = FRAME_OVERHEAD + 2 * 8;

/// Default nominal events per chunk. 64Ki events ≈ 200–300 KB encoded:
/// large enough that chunk overhead vanishes, small enough that the
/// reader's decode buffer stays far below the documented RSS bound.
pub const DEFAULT_CHUNK_EVENTS: u32 = 64 * 1024;

/// Errors produced when opening or decoding a `.twgc` trace.
#[derive(Debug)]
pub enum TraceError {
    /// A frame of the file (its head, a chunk, the directory or the tail)
    /// failed to decode: a foreign file, another format version, a torn
    /// write or a flipped bit.
    Frame {
        /// Absolute byte offset of the frame.
        offset: u64,
        /// What the frame decoder rejected.
        error: FrameError,
    },
    /// A checksummed frame holds an impossible structure (bad directory,
    /// short column, out-of-range block id); `what` names the violated
    /// invariant.
    Corrupt {
        /// Absolute byte offset of the frame that holds it.
        offset: u64,
        /// The violated invariant.
        what: &'static str,
    },
    /// Underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Frame { offset, error } => {
                write!(f, "trace frame at byte {offset}: {error}")
            }
            TraceError::Corrupt { offset, what } => {
                write!(f, "corrupt trace at byte {offset}: {what}")
            }
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
        }
    }
}

/// The message already names the frame error or I/O error behind it, so
/// no `source` repeats it in a printed cause chain.
impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Decodes the frame that fills `bytes[start..end]` exactly.
fn frame_at(bytes: &[u8], start: usize, end: usize) -> Result<&[u8], TraceError> {
    decode_record(&bytes[start..end], MAGIC, VERSION).map_err(|error| TraceError::Frame {
        offset: start as u64,
        error,
    })
}

/// Splits `N` bytes off the front of `bytes`.
fn take<const N: usize>(bytes: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = bytes.split_first_chunk::<N>()?;
    *bytes = rest;
    Some(*head)
}

/// Branch-density summary of one chunk, replicated in its directory entry
/// so consumers can reason about a region without decoding it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChunkSummary {
    /// Absolute file offset of the chunk.
    pub offset: u64,
    /// Events in the chunk.
    pub events: u32,
    /// Events whose terminator was taken.
    pub taken: u32,
    /// Events carrying a target (taken branches).
    pub targets: u32,
}

/// Streaming `.twgc` encoder over any [`Write`] sink.
///
/// Push events one at a time; chunks are emitted as they fill, and
/// [`ColumnarWriter::finish`] appends the directory and tail. Nothing
/// larger than one chunk is ever buffered.
pub struct ColumnarWriter<W: Write> {
    out: W,
    written: u64,
    chunk_target: u32,
    dir: Vec<ChunkSummary>,
    total: u64,
    // Pending chunk state.
    count: u32,
    taken: u32,
    targets: u32,
    taken_bits: Vec<u8>,
    target_bits: Vec<u8>,
    blocks: Vec<u8>,
    target_col: Vec<u8>,
}

impl<W: Write> ColumnarWriter<W> {
    /// Starts a columnar stream with the default chunk size, writing the
    /// file head immediately.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn new(out: W) -> io::Result<Self> {
        Self::with_chunk_events(out, DEFAULT_CHUNK_EVENTS)
    }

    /// Starts a columnar stream with an explicit nominal chunk size
    /// (clamped to at least 1; tests use tiny chunks to exercise many
    /// boundaries).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn with_chunk_events(mut out: W, chunk_target: u32) -> io::Result<Self> {
        let written = write_frame(&mut out, MAGIC, VERSION, &[])? as u64;
        Ok(ColumnarWriter {
            out,
            written,
            chunk_target: chunk_target.max(1),
            dir: Vec::new(),
            total: 0,
            count: 0,
            taken: 0,
            targets: 0,
            taken_bits: Vec::new(),
            target_bits: Vec::new(),
            blocks: Vec::new(),
            target_col: Vec::new(),
        })
    }

    /// Appends one event, flushing a chunk when full.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn push(&mut self, ev: BlockEvent) -> io::Result<()> {
        let bit = self.count as usize;
        if bit.is_multiple_of(8) {
            self.taken_bits.push(0);
            self.target_bits.push(0);
        }
        if ev.taken {
            self.taken_bits[bit / 8] |= 1 << (bit % 8);
            self.taken += 1;
        }
        put_varint(&mut self.blocks, u64::from(ev.block.raw()));
        if let Some(t) = ev.target {
            self.target_bits[bit / 8] |= 1 << (bit % 8);
            self.targets += 1;
            put_varint(&mut self.target_col, u64::from(t.raw()));
        }
        self.count += 1;
        self.total += 1;
        if self.count >= self.chunk_target {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.count == 0 {
            return Ok(());
        }
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&self.count.to_le_bytes());
        header[4..].copy_from_slice(&(self.blocks.len() as u32).to_le_bytes());
        let parts: [&[u8]; 5] = [
            &header,
            &self.taken_bits,
            &self.target_bits,
            &self.blocks,
            &self.target_col,
        ];
        let len = write_frame(&mut self.out, MAGIC, VERSION, &parts)?;
        self.dir.push(ChunkSummary {
            offset: self.written,
            events: self.count,
            taken: self.taken,
            targets: self.targets,
        });
        self.written += len as u64;
        self.count = 0;
        self.taken = 0;
        self.targets = 0;
        self.taken_bits.clear();
        self.target_bits.clear();
        self.blocks.clear();
        self.target_col.clear();
        Ok(())
    }

    /// Flushes the final partial chunk, writes the directory and tail,
    /// and returns the total number of events written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the sink.
    pub fn finish(mut self) -> io::Result<u64> {
        self.flush_chunk()?;
        let mut dir = Vec::with_capacity(self.dir.len() * DIRENT_LEN);
        for entry in &self.dir {
            dir.extend_from_slice(&entry.offset.to_le_bytes());
            dir.extend_from_slice(&entry.events.to_le_bytes());
            dir.extend_from_slice(&entry.taken.to_le_bytes());
            dir.extend_from_slice(&entry.targets.to_le_bytes());
        }
        write_frame(&mut self.out, MAGIC, VERSION, &[&dir])?;
        let tail = [self.total.to_le_bytes(), self.written.to_le_bytes()];
        write_frame(&mut self.out, MAGIC, VERSION, &[&tail[0], &tail[1]])?;
        Ok(self.total)
    }
}

/// Encodes events into an in-memory `.twgc` buffer (tests, benches).
pub fn encode_columnar(events: &[BlockEvent]) -> Vec<u8> {
    encode_columnar_chunked(events, DEFAULT_CHUNK_EVENTS)
}

/// [`encode_columnar`] with an explicit chunk size.
pub fn encode_columnar_chunked(events: &[BlockEvent], chunk_events: u32) -> Vec<u8> {
    let mut out = Vec::new();
    let mut writer =
        ColumnarWriter::with_chunk_events(&mut out, chunk_events).expect("vec write is infallible");
    for ev in events {
        writer.push(*ev).expect("vec write is infallible");
    }
    writer.finish().expect("vec write is infallible");
    out
}

/// Decodes a full in-memory `.twgc` buffer.
///
/// # Errors
///
/// Returns [`TraceError`] on malformed input.
pub fn decode_columnar(bytes: &[u8]) -> Result<Vec<BlockEvent>, TraceError> {
    ColumnarReader::from_bytes(bytes.to_vec())?.read_all()
}

/// Streams events into a `.twgc` file published atomically (temp +
/// `fsync` + rename via `twig_sched::durable`), without materializing the
/// event stream or the encoded bytes; returns the event count.
///
/// # Errors
///
/// Propagates I/O failures from staging or publishing the file.
pub fn write_columnar_file(
    path: &Path,
    events: impl IntoIterator<Item = BlockEvent>,
) -> io::Result<u64> {
    publish_atomic_with(path, None, None, |out| {
        let mut writer = ColumnarWriter::new(out)?;
        for ev in events {
            writer.push(ev)?;
        }
        writer.finish()
    })
}

/// Zero-copy `.twgc` reader over a mapped file (or owned buffer).
///
/// Opening decodes the head, tail and directory frames (rejecting torn
/// tails and other versions outright); chunk frames are decoded lazily,
/// CRC-checked as each chunk is first decoded, so corruption is detected
/// exactly when it would be consumed and untouched regions never cost a
/// page fault.
#[derive(Debug)]
pub struct ColumnarReader {
    map: MappedBytes,
    dir: Vec<ChunkSummary>,
    /// Where the directory frame starts (the last chunk ends there).
    dir_offset: u64,
    /// Index of each chunk's first event, then the total.
    first_events: Vec<u64>,
    total: u64,
}

impl ColumnarReader {
    /// Opens and validates a `.twgc` file.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the file cannot be mapped, otherwise the
    /// structural error the validation found.
    pub fn open(path: &Path) -> Result<Self, TraceError> {
        Self::from_map(MappedBytes::open(path)?)
    }

    /// Wraps an in-memory buffer (tests; identical validation).
    ///
    /// # Errors
    ///
    /// The structural error the validation found, if any.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, TraceError> {
        Self::from_map(MappedBytes::from_vec(bytes))
    }

    fn from_map(map: MappedBytes) -> Result<Self, TraceError> {
        let bytes = map.bytes();
        let len = bytes.len();
        frame_at(bytes, 0, FRAME_OVERHEAD.min(len))?;
        let tail_at = len
            .checked_sub(TAIL_LEN)
            .filter(|&at| at >= FRAME_OVERHEAD)
            .ok_or(TraceError::Frame {
                offset: len as u64,
                error: FrameError::Truncated,
            })?;
        let corrupt = |offset: usize, what| TraceError::Corrupt {
            offset: offset as u64,
            what,
        };
        let mut tail = frame_at(bytes, tail_at, len)?;
        let (Some(total), Some(dir_offset)) = (take::<8>(&mut tail), take::<8>(&mut tail)) else {
            return Err(corrupt(tail_at, "short tail"));
        };
        let total = u64::from_le_bytes(total);
        let dir_offset = u64::from_le_bytes(dir_offset);
        let dir_at = usize::try_from(dir_offset)
            .ok()
            .filter(|at| (FRAME_OVERHEAD..=tail_at).contains(at))
            .ok_or(corrupt(tail_at, "directory offset out of bounds"))?;
        let entries = frame_at(bytes, dir_at, tail_at)?;
        if entries.len() % DIRENT_LEN != 0 {
            return Err(corrupt(dir_at, "directory holds a partial entry"));
        }
        let chunk_count = entries.len() / DIRENT_LEN;
        let mut dir = Vec::with_capacity(chunk_count);
        let mut first_events = Vec::with_capacity(chunk_count + 1);
        let mut summed = 0u64;
        for entry in entries.chunks_exact(DIRENT_LEN) {
            let word = |at: usize| {
                u32::from_le_bytes([entry[at], entry[at + 1], entry[at + 2], entry[at + 3]])
            };
            let offset = u64::from(word(0)) | u64::from(word(4)) << 32;
            let (events, taken, targets) = (word(8), word(12), word(16));
            // Chunks follow the head in file order, each at least a frame
            // long; the frame itself is checked when the chunk is decoded.
            let in_order = dir
                .last()
                .map_or(offset == FRAME_OVERHEAD as u64, |prev: &ChunkSummary| {
                    offset >= prev.offset + FRAME_OVERHEAD as u64
                });
            if !in_order
                || offset > dir_offset - FRAME_OVERHEAD as u64
                || events == 0
                || taken > events
                || targets > events
            {
                return Err(corrupt(dir_at, "inconsistent directory entry"));
            }
            first_events.push(summed);
            summed += u64::from(events);
            dir.push(ChunkSummary {
                offset,
                events,
                taken,
                targets,
            });
        }
        if dir.is_empty() && dir_at != FRAME_OVERHEAD {
            return Err(corrupt(dir_at, "bytes between head and directory"));
        }
        if summed != total {
            return Err(corrupt(tail_at, "tail total disagrees with directory"));
        }
        first_events.push(total);
        Ok(ColumnarReader {
            map,
            dir,
            dir_offset,
            first_events,
            total,
        })
    }

    /// Total events in the trace (exact).
    pub fn total_events(&self) -> u64 {
        self.total
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> usize {
        self.dir.len()
    }

    /// Index of chunk `index`'s first event in the trace; `chunk_count()`
    /// gives the total.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`chunk_count`](Self::chunk_count).
    pub(crate) fn first_event(&self, index: usize) -> u64 {
        self.first_events[index]
    }

    /// Per-chunk branch-density summaries, in file order — readable
    /// without faulting in any chunk payload.
    pub fn summaries(&self) -> &[ChunkSummary] {
        &self.dir
    }

    /// The byte range of chunk `index`'s frame: up to the next chunk, or
    /// to the directory for the last one.
    fn span(&self, index: usize) -> (usize, usize) {
        let next = self.dir.get(index + 1);
        let end = next.map_or(self.dir_offset, |n| n.offset);
        (self.dir[index].offset as usize, end as usize)
    }

    /// Decodes chunk `index` into `out` (cleared first), CRC-checking the
    /// frame.
    ///
    /// # Errors
    ///
    /// [`TraceError::Frame`] on a corrupt chunk frame, or
    /// [`TraceError::Corrupt`] if its columns disagree with its counts.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn decode_chunk_into(
        &self,
        index: usize,
        out: &mut Vec<BlockEvent>,
    ) -> Result<(), TraceError> {
        out.clear();
        let (start, end) = self.span(index);
        let corrupt = |what| TraceError::Corrupt {
            offset: start as u64,
            what,
        };
        let mut payload = frame_at(self.map.bytes(), start, end)?;
        let (Some(count), Some(blocks_len)) = (take::<4>(&mut payload), take::<4>(&mut payload))
        else {
            return Err(corrupt("chunk shorter than its header"));
        };
        let count = u32::from_le_bytes(count);
        if count != self.dir[index].events {
            return Err(corrupt("chunk/directory event count mismatch"));
        }
        let count = count as usize;
        let bits_len = count.div_ceil(8);
        let (taken_bits, payload) = payload
            .split_at_checked(bits_len)
            .ok_or(corrupt("chunk shorter than its bitmaps"))?;
        let (target_bits, payload) = payload
            .split_at_checked(bits_len)
            .ok_or(corrupt("chunk shorter than its bitmaps"))?;
        let (mut blocks, mut targets) = payload
            .split_at_checked(u32::from_le_bytes(blocks_len) as usize)
            .ok_or(corrupt("block column overruns the chunk"))?;
        let block_id = |column: &mut &[u8]| {
            let raw = get_varint(column).ok_or(corrupt("column ended mid-varint"))?;
            u32::try_from(raw)
                .ok()
                .and_then(BlockId::try_new)
                .ok_or(corrupt("block id out of range"))
        };
        out.reserve(count);
        for i in 0..count {
            let bit = 1u8 << (i % 8);
            let block = block_id(&mut blocks)?;
            let target = if target_bits[i / 8] & bit != 0 {
                Some(block_id(&mut targets)?)
            } else {
                None
            };
            out.push(BlockEvent {
                block,
                taken: taken_bits[i / 8] & bit != 0,
                target,
            });
        }
        if !blocks.is_empty() || !targets.is_empty() {
            return Err(corrupt("column lengths disagree with event count"));
        }
        Ok(())
    }

    /// Returns consumed chunk pages to the OS (best-effort) — called by
    /// the sequential reader after it moves past a chunk.
    pub fn release_chunk(&self, index: usize) {
        let (start, end) = self.span(index);
        self.map.advise_dont_need(start, end);
    }

    /// Decodes the entire trace (validation helper; defeats the bounded-
    /// residency design on purpose).
    ///
    /// # Errors
    ///
    /// The first chunk-level error encountered.
    pub fn read_all(&self) -> Result<Vec<BlockEvent>, TraceError> {
        let mut events = Vec::with_capacity((self.total as usize).min(1 << 24));
        let mut chunk = Vec::new();
        for i in 0..self.dir.len() {
            self.decode_chunk_into(i, &mut chunk)?;
            events.extend_from_slice(&chunk);
        }
        Ok(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InputConfig, ProgramGenerator, Walker, WorkloadSpec};

    fn sample_events(n: usize) -> Vec<BlockEvent> {
        let p = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        Walker::new(&p, InputConfig::numbered(0)).take(n).collect()
    }

    #[test]
    fn roundtrip_across_chunk_sizes() {
        let events = sample_events(10_000);
        for chunk in [1u32, 7, 256, 4096, DEFAULT_CHUNK_EVENTS] {
            let bytes = encode_columnar_chunked(&events, chunk);
            assert_eq!(decode_columnar(&bytes).unwrap(), events, "chunk={chunk}");
        }
    }

    #[test]
    fn roundtrip_empty() {
        let bytes = encode_columnar(&[]);
        assert_eq!(decode_columnar(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn rejects_bad_version() {
        let version = |bytes: Vec<u8>| match ColumnarReader::from_bytes(bytes) {
            Err(TraceError::Frame {
                offset: 0,
                error: FrameError::BadVersion(v),
            }) => Some(v),
            _ => None,
        };
        let mut bytes = encode_columnar(&sample_events(10));
        bytes[4] = 0x63;
        assert_eq!(version(bytes), Some(0x63));
        // A version-1 file: magic, version, the chunk-size word, then its
        // first chunk header. No v1 reader is kept.
        let mut v1 = b"TWGC\x01".to_vec();
        v1.extend_from_slice(&DEFAULT_CHUNK_EVENTS.to_le_bytes());
        v1.extend_from_slice(&[0; 64]);
        assert_eq!(version(v1), Some(1));
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = encode_columnar(&sample_events(10));
        bytes[..4].copy_from_slice(b"NOPE");
        assert!(matches!(
            ColumnarReader::from_bytes(bytes),
            Err(TraceError::Frame {
                error: FrameError::BadMagic,
                ..
            })
        ));
    }

    /// Block ids on both sides of every LEB128 length boundary round-trip
    /// through the block and target columns.
    #[test]
    fn varint_boundaries() {
        let ids: Vec<u32> = (1..5)
            .flat_map(|width| [(1 << (7 * width)) - 1, 1 << (7 * width)])
            .chain([0, u32::MAX - 1])
            .collect();
        let events: Vec<BlockEvent> = ids
            .iter()
            .zip(ids.iter().rev())
            .map(|(&block, &target)| BlockEvent {
                block: BlockId::new(block),
                taken: true,
                target: Some(BlockId::new(target)),
            })
            .collect();
        let decoded = decode_columnar(&encode_columnar_chunked(&events, 4)).unwrap();
        assert_eq!(decoded, events);
    }

    #[test]
    fn summaries_report_branch_density() {
        let events = sample_events(5_000);
        let bytes = encode_columnar_chunked(&events, 512);
        let reader = ColumnarReader::from_bytes(bytes).unwrap();
        assert_eq!(reader.total_events(), events.len() as u64);
        let mut at = 0usize;
        for summary in reader.summaries() {
            let window = &events[at..at + summary.events as usize];
            let taken = window.iter().filter(|e| e.taken).count() as u32;
            let targets = window.iter().filter(|e| e.target.is_some()).count() as u32;
            assert_eq!((summary.taken, summary.targets), (taken, targets));
            at += summary.events as usize;
        }
        assert_eq!(at, events.len());
    }

    #[test]
    fn rejects_torn_tail() {
        let events = sample_events(3_000);
        let bytes = encode_columnar_chunked(&events, 256);
        for cut in [bytes.len() - 1, bytes.len() - 20, bytes.len() / 2, 10] {
            let torn = bytes[..cut].to_vec();
            assert!(
                ColumnarReader::from_bytes(torn).is_err(),
                "accepted torn tail at {cut}"
            );
        }
    }

    #[test]
    fn rejects_every_single_bit_flip_in_a_chunk() {
        let events = sample_events(300);
        let bytes = encode_columnar_chunked(&events, 128);
        // Every bit of the file is inside a frame: either open or a chunk
        // decode must reject each flip.
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[at] ^= 1 << bit;
                let rejected = match ColumnarReader::from_bytes(mutated) {
                    Err(_) => true,
                    Ok(r) => r.read_all().is_err(),
                };
                assert!(rejected, "bit {bit} flip at byte {at} went undetected");
            }
        }
    }

    /// A chunk whose CRC is valid but whose block column holds `u32::MAX`
    /// (which no `BlockId` represents) is a typed error, not a panic.
    #[test]
    fn out_of_range_block_id_is_a_typed_error() {
        let ev = |block| BlockEvent {
            block: BlockId::new(block),
            taken: false,
            target: None,
        };
        // `u32::MAX - 1` and `u32::MAX` both take five LEB128 bytes, so
        // patching the last byte keeps every length; then re-seal the CRC.
        let mut bytes = encode_columnar(&[ev(3), ev(u32::MAX - 1)]);
        let reader = ColumnarReader::from_bytes(bytes.clone()).unwrap();
        let at = reader.summaries()[0].offset as usize;
        let payload_at = at + twig_sched::durable::FRAME_HEAD;
        let paylen = u32::from_le_bytes(bytes[at + 5..payload_at].try_into().unwrap()) as usize;
        // count, blocks_len, one byte per bitmap, then the first id.
        let id_at = payload_at + 8 + 2 + 1;
        assert_eq!(bytes[id_at..id_at + 5], [0xfe, 0xff, 0xff, 0xff, 0x0f]);
        bytes[id_at] = 0xff;
        let crc = twig_sched::durable::crc32(&[&bytes[payload_at..payload_at + paylen]]);
        bytes[payload_at + paylen..payload_at + paylen + 4].copy_from_slice(&crc.to_le_bytes());
        let reader = ColumnarReader::from_bytes(bytes).unwrap();
        assert!(matches!(
            reader.read_all(),
            Err(TraceError::Corrupt {
                what: "block id out of range",
                ..
            })
        ));
    }

    #[test]
    fn first_events_index_every_chunk() {
        let events = sample_events(1_000);
        let reader = ColumnarReader::from_bytes(encode_columnar_chunked(&events, 300)).unwrap();
        let starts: Vec<u64> = (0..=reader.chunk_count()).map(|i| reader.first_event(i)).collect();
        assert_eq!(starts, [0, 300, 600, 900, 1_000]);
    }

    #[test]
    fn release_chunk_does_not_corrupt_reads() {
        let events = sample_events(4_000);
        let bytes = encode_columnar_chunked(&events, 512);
        let reader = ColumnarReader::from_bytes(bytes).unwrap();
        let mut buf = Vec::new();
        let mut replay = Vec::new();
        for i in 0..reader.chunk_count() {
            reader.decode_chunk_into(i, &mut buf).unwrap();
            replay.extend_from_slice(&buf);
            reader.release_chunk(i);
        }
        assert_eq!(replay, events);
    }

    #[test]
    fn file_roundtrip_via_atomic_publish() {
        let dir = std::env::temp_dir().join(format!("twig-columnar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.twgc");
        let events = sample_events(20_000);
        let written = write_columnar_file(&path, events.iter().copied()).unwrap();
        assert_eq!(written, events.len() as u64);
        let reader = ColumnarReader::open(&path).unwrap();
        assert_eq!(reader.read_all().unwrap(), events);
        // No temp residue.
        let residue: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().to_string_lossy().ends_with(".twig-tmp"))
            .collect();
        assert!(residue.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
