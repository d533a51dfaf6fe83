//! Compact binary serialization for [`Profile`]s.
//!
//! A JSON profile of a 2M-instruction run weighs tens of megabytes (every
//! miss sample carries a 32-deep history); this varint-packed format is
//! roughly 20× smaller and is what the `twig` CLI writes for `.twpf`
//! files. Each sample's history window is written in full; the decoder
//! rebuilds the profile's shared log through [`Profile::push_sample`].
//!
//! A `.twpf` file is one `twig_sched::durable` frame (magic `"TWPF"`,
//! version 2), so a flipped bit or a torn write fails its checksum. The
//! payload is (varint = LEB128):
//!
//! ```text
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

use twig_sched::durable::{decode_record, get_varint, put_varint, write_frame, FrameError};
use twig_types::{BlockId, BranchKind};

use crate::profile::Profile;

const MAGIC: &[u8; 4] = b"TWPF";
const VERSION: u8 = 2;

/// Errors produced when decoding a binary profile.
#[derive(Debug)]
pub enum ProfileCodecError {
    /// The bytes are not one intact profile frame: another file kind,
    /// another format version, a torn write or a flipped bit.
    Frame(FrameError),
    /// The payload ended mid-structure.
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
            ProfileCodecError::Frame(e) => write!(f, "not an intact twig binary profile: {e}"),
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
pub fn encode_profile(profile: &Profile) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + profile.num_samples() * 48);
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
        buf.push(s.kind.index() as u8);
        put_varint(&mut buf, s.cycle);
        buf.push(history.len() as u8);
        let mut prev_cycle = 0u64;
        for &(block, cycle) in history {
            put_varint(&mut buf, u64::from(block.raw()));
            put_varint(&mut buf, cycle.saturating_sub(prev_cycle));
            prev_cycle = cycle;
        }
    }
    let mut out = Vec::with_capacity(buf.len() + twig_sched::durable::FRAME_OVERHEAD);
    write_frame(&mut out, MAGIC, VERSION, &[&buf]).expect("writing to a Vec cannot fail");
    out
}

/// Decodes a binary profile.
///
/// # Errors
///
/// Returns [`ProfileCodecError`] on malformed input.
pub fn decode_profile(bytes: &[u8]) -> Result<Profile, ProfileCodecError> {
    let buf = &mut decode_record(bytes, MAGIC, VERSION).map_err(ProfileCodecError::Frame)?;
    let sample_period = get_u32(buf, "sample period")?;
    let instructions = get_u64(buf)?;
    // Every declared count is validated against the bytes actually left
    // before any allocation sized by it: each block execution is at least
    // one varint byte, each sample at least four bytes (block, kind,
    // cycle, history length), each history entry at least two. A header
    // claiming more than that is corrupt — reject it with a typed error
    // instead of reserving gigabytes.
    let nblocks = get_count(buf, "block execution", 1)?;
    let mut block_executions = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        block_executions.push(get_u64(buf)?);
    }
    let nsamples = get_count(buf, "sample", 4)?;
    let mut profile = Profile::new(0, sample_period);
    profile.block_executions = block_executions;
    profile.instructions = instructions;
    let mut history = Vec::with_capacity(u8::MAX as usize);
    for _ in 0..nsamples {
        let branch_block = get_block(buf, "branch block id")?;
        let kind_idx = get_u8(buf)?;
        let kind = *BranchKind::ALL
            .get(kind_idx as usize)
            .ok_or(ProfileCodecError::BadKind(kind_idx))?;
        let cycle = get_u64(buf)?;
        let nhist = get_u8(buf)? as usize;
        if buf.len() < nhist * 2 {
            return Err(ProfileCodecError::Truncated);
        }
        history.clear();
        let mut prev_cycle = 0u64;
        for _ in 0..nhist {
            let block = get_block(buf, "history block id")?;
            let delta = get_u64(buf)?;
            prev_cycle = prev_cycle.saturating_add(delta);
            history.push((block, prev_cycle));
        }
        profile.push_sample(branch_block, kind, cycle, &history);
    }
    profile.shrink_to_fit();
    Ok(profile)
}

/// Splits one byte off the front of `buf`.
fn get_u8(buf: &mut &[u8]) -> Result<u8, ProfileCodecError> {
    let (&byte, rest) = buf.split_first().ok_or(ProfileCodecError::Truncated)?;
    *buf = rest;
    Ok(byte)
}

/// Decodes a varint.
fn get_u64(buf: &mut &[u8]) -> Result<u64, ProfileCodecError> {
    get_varint(buf).ok_or(ProfileCodecError::Truncated)
}

/// Decodes a varint that must fit in `u32` (block ids, sample period).
fn get_u32(buf: &mut &[u8], field: &'static str) -> Result<u32, ProfileCodecError> {
    let value = get_u64(buf)?;
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
    let declared = get_u64(buf)?;
    let budget = buf.len() as u64 / min_bytes;
    if declared > budget {
        return Err(ProfileCodecError::Oversized {
            field,
            declared,
            budget,
        });
    }
    Ok(declared as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LbrRecorder;
    use twig_sched::durable::FRAME_HEAD;
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

    /// One `.twpf` frame around a hand-written payload.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, MAGIC, VERSION, &[body]).unwrap();
        out
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(matches!(
            decode_profile(b"NOPE\x01"),
            Err(ProfileCodecError::Frame(FrameError::BadMagic))
        ));
        assert!(matches!(
            decode_profile(b"TWPF\x07\x00"),
            Err(ProfileCodecError::Frame(FrameError::BadVersion(7)))
        ));
        // A version-1 profile (the bare varint body, no checksum): no v1
        // reader is kept.
        assert!(matches!(
            decode_profile(b"TWPF\x01\x01\x00\x00\x00"),
            Err(ProfileCodecError::Frame(FrameError::BadVersion(1)))
        ));
        let bytes = encode_profile(&real_profile());
        for cut in [5, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_profile(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    /// Every single-bit flip anywhere in an encoded profile is rejected:
    /// the frame's checksum covers the whole payload, so no flip decodes
    /// to a different profile.
    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = encode_profile(&crate::profile::tests::hand_built());
        for at in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[at] ^= 1 << bit;
                assert!(
                    decode_profile(&flipped).is_err(),
                    "bit {bit} flip at byte {at} decoded"
                );
            }
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
        let mut body = b"\x01\x00".to_vec();
        body.extend_from_slice(&[0xff; 9]);
        body.push(0x01); // varint u64::MAX block count
        assert!(matches!(
            decode_profile(&framed(&body)),
            Err(ProfileCodecError::Oversized {
                field: "block execution",
                ..
            })
        ));
        // Same for the sample count after a valid empty block array.
        let mut body = b"\x01\x00\x00".to_vec();
        body.extend_from_slice(&[0xff; 9]);
        body.push(0x01);
        assert!(matches!(
            decode_profile(&framed(&body)),
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
        let mut body = b"\x01\x00\x00\x01".to_vec();
        body.extend_from_slice(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x40]); // varint 2^40
        body.extend_from_slice(&[0x00, 0x00, 0x00]); // kind, cycle, nhist
        assert!(matches!(
            decode_profile(&framed(&body)),
            Err(ProfileCodecError::Overflow {
                field: "branch block id",
                ..
            })
        ));
    }

    /// The format writes every window in full, shared log or not. The
    /// payload bytes are those of the format's first version; version 2
    /// wraps them in a frame.
    #[test]
    fn golden_bytes_are_unchanged() {
        const GOLDEN: [u8; 44] = [
            84, 87, 80, 70, 2, 31, 0, 0, 0, 2, 232, 7, 3, 5, 0, 130, 1, 2, 2, 2, 40, 3, 0, 10, 1,
            15, 2, 15, 1, 0, 172, 2, 3, 1, 25, 2, 15, 1, 132, 2, 130, 78, 1, 82,
        ];
        let profile = crate::profile::tests::hand_built();
        assert_eq!(encode_profile(&profile), GOLDEN);
        assert_eq!(decode_profile(&GOLDEN).unwrap(), profile);
    }

    #[test]
    fn u32_max_block_id_is_a_typed_error() {
        // period=1, instrs=0, nblocks=0, nsamples=1, branch block u32::MAX.
        let mut body = b"\x01\x00\x00\x01".to_vec();
        body.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x0f]);
        body.extend_from_slice(&[0x00, 0x00, 0x00]); // kind, cycle, nhist
        assert!(matches!(
            decode_profile(&framed(&body)),
            Err(ProfileCodecError::Overflow {
                field: "branch block id",
                value: 0xffff_ffff,
            })
        ));
        // The same id inside a history.
        let mut body = b"\x01\x00\x00\x01\x00\x00\x00\x01".to_vec();
        body.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0x0f, 0x00]);
        assert!(matches!(
            decode_profile(&framed(&body)),
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
        let bytes = encode_profile(&p);
        let mut body = bytes[FRAME_HEAD..bytes.len() - 4].to_vec();
        // Tail layout: kind, cycle, nhist, hist-block, hist-delta — each
        // one byte for this tiny profile, so the kind sits 5 from the end.
        let kind_pos = body.len() - 5;
        body[kind_pos] = 99;
        assert!(matches!(
            decode_profile(&framed(&body)),
            Err(ProfileCodecError::BadKind(99))
        ));
    }
}
