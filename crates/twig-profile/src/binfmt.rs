//! Compact binary serialization for [`Profile`]s.
//!
//! A JSON profile of a 2M-instruction run weighs tens of megabytes (every
//! miss sample carries a 32-deep history); this varint-packed format is
//! roughly 20× smaller and is what the `twig` CLI writes for `.twpf`
//! files. Each sample's history window is written in full; the decoder
//! rebuilds the profile's shared log through [`Profile::push_sample`].
//! Layout (little-endian, varint = LEB128):
//!
//! ```text
//! magic   "TWPF"           4 bytes
//! version u8               currently 1
//! period  varint           sampling period
//! instrs  varint           instructions profiled
//! nblocks varint           block-execution array length
//! execs   nblocks × varint
//! nsamp   varint
//! samples nsamp × sample
//!
//! sample:
//!   branch  varint         block id
//!   kind    u8             BranchKind index
//!   cycle   varint
//!   nhist   u8
//!   history nhist × (varint block, varint cycle-delta-from-previous)
//! ```

use twig_bytes::{Buf, BufMut, Bytes, BytesMut};
use twig_types::{BlockId, BranchKind};

use crate::profile::Profile;

const MAGIC: &[u8; 4] = b"TWPF";
const VERSION: u8 = 1;

/// Errors produced when decoding a binary profile.
#[derive(Debug)]
pub enum ProfileCodecError {
    /// Not a binary profile (bad magic).
    BadMagic,
    /// Unsupported version.
    BadVersion(u8),
    /// Stream ended mid-structure.
    Truncated,
    /// Invalid enum encoding.
    BadKind(u8),
    /// A declared collection length exceeds what the remaining bytes
    /// could possibly encode — a corrupt or hostile header. Rejected
    /// *before* allocating, so no input can over-allocate the decoder.
    Oversized {
        /// Which length field was implausible.
        field: &'static str,
        /// The declared element count.
        declared: u64,
        /// The maximum count the remaining bytes could hold.
        budget: u64,
    },
    /// A value field exceeds its target type's range (e.g. a block id
    /// above `u32::MAX`); previously these were silently truncated.
    Overflow {
        /// Which field overflowed.
        field: &'static str,
        /// The decoded raw value.
        value: u64,
    },
}

impl std::fmt::Display for ProfileCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileCodecError::BadMagic => write!(f, "not a twig binary profile"),
            ProfileCodecError::BadVersion(v) => write!(f, "unsupported profile version {v}"),
            ProfileCodecError::Truncated => write!(f, "profile ended unexpectedly"),
            ProfileCodecError::BadKind(k) => write!(f, "invalid branch kind {k}"),
            ProfileCodecError::Oversized {
                field,
                declared,
                budget,
            } => write!(
                f,
                "declared {field} count {declared} exceeds what the remaining \
                 bytes could encode ({budget})"
            ),
            ProfileCodecError::Overflow { field, value } => {
                write!(f, "{field} value {value} out of range")
            }
        }
    }
}

impl std::error::Error for ProfileCodecError {}

/// Encodes a profile into the compact binary format.
///
/// # Examples
///
/// ```
/// use twig_profile::{decode_profile, encode_profile, Profile};
///
/// let profile = Profile::new(16, 1);
/// let bytes = encode_profile(&profile);
/// assert_eq!(decode_profile(&bytes).unwrap(), profile);
/// ```
pub fn encode_profile(profile: &Profile) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + profile.num_samples() * 48);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    put_varint(&mut buf, u64::from(profile.sample_period));
    put_varint(&mut buf, profile.instructions);
    put_varint(&mut buf, profile.block_executions.len() as u64);
    for &e in &profile.block_executions {
        put_varint(&mut buf, e);
    }
    put_varint(&mut buf, profile.num_samples() as u64);
    for s in profile.samples() {
        let history = profile.history(s);
        put_varint(&mut buf, u64::from(s.branch_block.raw()));
        buf.put_u8(s.kind.index() as u8);
        put_varint(&mut buf, s.cycle);
        buf.put_u8(history.len() as u8);
        let mut prev_cycle = 0u64;
        for &(block, cycle) in history {
            put_varint(&mut buf, u64::from(block.raw()));
            put_varint(&mut buf, cycle.saturating_sub(prev_cycle));
            prev_cycle = cycle;
        }
    }
    buf.freeze()
}

/// Decodes a binary profile.
///
/// # Errors
///
/// Returns [`ProfileCodecError`] on malformed input.
pub fn decode_profile(mut buf: &[u8]) -> Result<Profile, ProfileCodecError> {
    if buf.len() < 5 || &buf[..4] != MAGIC {
        return Err(ProfileCodecError::BadMagic);
    }
    let version = buf[4];
    if version != VERSION {
        return Err(ProfileCodecError::BadVersion(version));
    }
    buf.advance(5);
    let sample_period = get_u32(&mut buf, "sample period")?;
    let instructions = get_varint(&mut buf)?;
    // Every declared count is validated against the bytes actually left
    // before any allocation sized by it: each block execution is at least
    // one varint byte, each sample at least four bytes (block, kind,
    // cycle, history length), each history entry at least two. A header
    // claiming more than that is corrupt — reject it with a typed error
    // instead of reserving gigabytes.
    let nblocks = get_count(&mut buf, "block execution", 1)?;
    let mut block_executions = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        block_executions.push(get_varint(&mut buf)?);
    }
    let nsamples = get_count(&mut buf, "sample", 4)?;
    let mut profile = Profile::new(0, sample_period);
    profile.block_executions = block_executions;
    profile.instructions = instructions;
    let mut history = Vec::with_capacity(u8::MAX as usize);
    for _ in 0..nsamples {
        let branch_block = get_block(&mut buf, "branch block id")?;
        if !buf.has_remaining() {
            return Err(ProfileCodecError::Truncated);
        }
        let kind_idx = buf.get_u8();
        let kind = *BranchKind::ALL
            .get(kind_idx as usize)
            .ok_or(ProfileCodecError::BadKind(kind_idx))?;
        let cycle = get_varint(&mut buf)?;
        if !buf.has_remaining() {
            return Err(ProfileCodecError::Truncated);
        }
        let nhist = buf.get_u8() as usize;
        if buf.remaining() < nhist * 2 {
            return Err(ProfileCodecError::Truncated);
        }
        history.clear();
        let mut prev_cycle = 0u64;
        for _ in 0..nhist {
            let block = get_block(&mut buf, "history block id")?;
            let delta = get_varint(&mut buf)?;
            prev_cycle = prev_cycle.saturating_add(delta);
            history.push((block, prev_cycle));
        }
        profile.push_sample(branch_block, kind, cycle, &history);
    }
    profile.shrink_to_fit();
    Ok(profile)
}

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Decodes a varint that must fit in `u32` (block ids, sample period).
fn get_u32(buf: &mut &[u8], field: &'static str) -> Result<u32, ProfileCodecError> {
    let value = get_varint(buf)?;
    u32::try_from(value).map_err(|_| ProfileCodecError::Overflow { field, value })
}

/// Decodes a block id; `u32::MAX` has no [`BlockId`] and overflows too.
fn get_block(buf: &mut &[u8], field: &'static str) -> Result<BlockId, ProfileCodecError> {
    let raw = get_u32(buf, field)?;
    BlockId::try_new(raw).ok_or(ProfileCodecError::Overflow {
        field,
        value: u64::from(raw),
    })
}

/// Decodes a collection length and validates it against the remaining
/// byte budget (`min_bytes` per element) before the caller allocates.
fn get_count(
    buf: &mut &[u8],
    field: &'static str,
    min_bytes: u64,
) -> Result<usize, ProfileCodecError> {
    let declared = get_varint(buf)?;
    let budget = buf.remaining() as u64 / min_bytes;
    if declared > budget {
        return Err(ProfileCodecError::Oversized {
            field,
            declared,
            budget,
        });
    }
    Ok(declared as usize)
}

fn get_varint(buf: &mut &[u8]) -> Result<u64, ProfileCodecError> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        if !buf.has_remaining() {
            return Err(ProfileCodecError::Truncated);
        }
        let byte = buf.get_u8();
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(ProfileCodecError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LbrRecorder;
    use twig_sim::{PlainBtb, SimConfig, Simulator};
    use twig_workload::{InputConfig, ProgramGenerator, Walker, WorkloadSpec};

    fn real_profile() -> Profile {
        let program = ProgramGenerator::new(WorkloadSpec::tiny_test()).generate();
        let config = SimConfig::default().with_btb_entries(64);
        let events = Walker::new(&program, InputConfig::numbered(0)).run_instructions(80_000);
        let mut recorder = LbrRecorder::new(&program, 1);
        recorder.observe_events(&program, events.iter().copied());
        let mut sim = Simulator::new(&program, config, PlainBtb::new(&config));
        sim.run_observed(events, 80_000, &mut recorder);
        recorder.into_profile()
    }

    #[test]
    fn roundtrip_real_profile() {
        let profile = real_profile();
        assert!(profile.num_samples() > 100);
        let bytes = encode_profile(&profile);
        let decoded = decode_profile(&bytes).expect("decode");
        assert_eq!(decoded, profile);
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let profile = real_profile();
        let bin = encode_profile(&profile).len();
        // The binary format must beat the JSON form by a wide margin.
        let json = twig_serde_json::to_string(&profile).unwrap().len();
        assert!(bin * 4 < json, "binary {bin} bytes vs JSON {json} bytes");
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(matches!(
            decode_profile(b"NOPE\x01"),
            Err(ProfileCodecError::BadMagic)
        ));
        assert!(matches!(
            decode_profile(b"TWPF\x07\x00"),
            Err(ProfileCodecError::BadVersion(7))
        ));
        let bytes = encode_profile(&real_profile());
        for cut in [5, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_profile(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn empty_profile_roundtrips() {
        let p = Profile::new(0, 3);
        let decoded = decode_profile(&encode_profile(&p)).unwrap();
        assert_eq!(decoded.sample_period, 3);
        assert_eq!(decoded, p);
    }

    #[test]
    fn oversized_counts_rejected_before_allocating() {
        // Header declaring u64::MAX blocks with no bytes behind it: must
        // fail with the typed error, instantly, without reserving memory.
        let mut bytes = b"TWPF\x01\x01\x00".to_vec();
        bytes.extend_from_slice(&[0xff; 9]);
        bytes.push(0x01); // varint u64::MAX-ish block count
        assert!(matches!(
            decode_profile(&bytes),
            Err(ProfileCodecError::Oversized {
                field: "block execution",
                ..
            })
        ));
        // Same for the sample count after a valid empty block array.
        let mut bytes = b"TWPF\x01\x01\x00\x00".to_vec();
        bytes.extend_from_slice(&[0xff; 9]);
        bytes.push(0x01);
        assert!(matches!(
            decode_profile(&bytes),
            Err(ProfileCodecError::Oversized {
                field: "sample",
                ..
            })
        ));
    }

    #[test]
    fn out_of_range_values_are_typed_errors_not_truncations() {
        // period=1, instrs=0, nblocks=0, nsamples=1, branch block id
        // 2^40 — above u32::MAX, which the old decoder truncated silently.
        let mut bytes = b"TWPF\x01\x01\x00\x00\x01".to_vec();
        bytes.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x40]); // varint 2^40
        bytes.extend_from_slice(&[0x00, 0x00, 0x00]); // kind, cycle, nhist
        assert!(matches!(
            decode_profile(&bytes),
            Err(ProfileCodecError::Overflow {
                field: "branch block id",
                ..
            })
        ));
    }

    /// The format writes every window in full, shared log or not: these
    /// are the bytes of the format's first version.
    #[test]
    fn golden_bytes_are_unchanged() {
        const GOLDEN: [u8; 36] = [
            84, 87, 80, 70, 1, 2, 232, 7, 3, 5, 0, 130, 1, 2, 2, 2, 40, 3, 0, 10, 1, 15, 2, 15, 1,
            0, 172, 2, 3, 1, 25, 2, 15, 1, 132, 2,
        ];
        let profile = crate::profile::tests::hand_built();
        assert_eq!(encode_profile(&profile).to_vec(), GOLDEN);
        assert_eq!(decode_profile(&GOLDEN).unwrap(), profile);
    }

    #[test]
    fn u32_max_block_id_is_a_typed_error() {
        // period=1, instrs=0, nblocks=0, nsamples=1, branch block u32::MAX.
        let mut bytes = b"TWPF\x01\x01\x00\x00\x01".to_vec();
        bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x0f]);
        bytes.extend_from_slice(&[0x00, 0x00, 0x00]); // kind, cycle, nhist
        assert!(matches!(
            decode_profile(&bytes),
            Err(ProfileCodecError::Overflow {
                field: "branch block id",
                value: 0xffff_ffff,
            })
        ));
        // The same id inside a history.
        let mut bytes = b"TWPF\x01\x01\x00\x00\x01\x00\x00\x00\x01".to_vec();
        bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x0f, 0x00]);
        assert!(matches!(
            decode_profile(&bytes),
            Err(ProfileCodecError::Overflow {
                field: "history block id",
                ..
            })
        ));
    }

    #[test]
    fn bad_kind_detected() {
        let mut p = Profile::new(1, 1);
        p.push_sample(
            BlockId::new(0),
            BranchKind::Return,
            5,
            &[(BlockId::new(0), 5)],
        );
        let mut bytes = encode_profile(&p).to_vec();
        // Tail layout: kind, cycle, nhist, hist-block, hist-delta — each
        // one byte for this tiny profile, so the kind sits 5 from the end.
        let kind_pos = bytes.len() - 5;
        bytes[kind_pos] = 99;
        assert!(matches!(
            decode_profile(&bytes),
            Err(ProfileCodecError::BadKind(99))
        ));
    }
}
