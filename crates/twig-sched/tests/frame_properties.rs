//! Property tests for the one frame decoder that guards every byte read
//! back from disk. Under each of the four magics (journal, checkpoint,
//! trace, profile), truncations, single-bit flips and arbitrary bytes
//! decode to the exact payload that was framed or to a typed
//! [`FrameError`] — never to other bytes, and never a panic. A record
//! that must fill its bytes exactly refuses anything after its frame.

use twig_proptest::prelude::*;
use twig_sched::durable::{decode_frame, decode_record, write_frame, FrameError};

const MAGICS: [&[u8; 4]; 4] = [b"TWJL", b"TWCK", b"TWGC", b"TWPF"];

fn framed(magic: &[u8; 4], version: u8, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::new();
    let len = write_frame(&mut frame, magic, version, &[payload]).unwrap();
    assert_eq!(len, frame.len());
    frame
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A frame decodes to its payload and leaves what follows it; every
    /// strict prefix is `Truncated`; every single-bit flip is rejected.
    #[test]
    fn frames_roundtrip_and_reject_truncation_and_flips(
        which in 0usize..4,
        version in any::<u8>(),
        payload in prop::collection::vec(any::<u8>(), 0..200),
        suffix in prop::collection::vec(any::<u8>(), 0..8),
        cut_sel in any::<usize>(),
        flip_sel in any::<usize>(),
    ) {
        let magic = MAGICS[which];
        let frame = framed(magic, version, &payload);
        let mut stream = frame.clone();
        stream.extend_from_slice(&suffix);
        prop_assert_eq!(
            decode_frame(&stream, magic, version),
            Ok((&payload[..], &suffix[..]))
        );
        let whole = if suffix.is_empty() { Ok(&payload[..]) } else { Err(FrameError::Trailing) };
        prop_assert_eq!(decode_record(&stream, magic, version), whole);
        let cut = cut_sel % frame.len();
        prop_assert_eq!(decode_frame(&frame[..cut], magic, version), Err(FrameError::Truncated));
        let mut flipped = frame.clone();
        flipped[flip_sel % frame.len()] ^= 1 << (flip_sel / frame.len() % 8);
        prop_assert!(decode_frame(&flipped, magic, version).is_err(), "a flip decoded");
        // Another kind's or another version's frame is refused up front.
        let other = MAGICS[(which + 1) % 4];
        prop_assert_eq!(decode_frame(&frame, other, version), Err(FrameError::BadMagic));
        prop_assert_eq!(
            decode_frame(&frame, magic, version.wrapping_add(1)),
            Err(FrameError::BadVersion(version))
        );
    }

    /// Arbitrary bytes, bare or behind a valid magic and version, decode
    /// only as an exact frame of themselves, or fail typed.
    #[test]
    fn arbitrary_bytes_decode_exactly_or_fail_typed(
        which in 0usize..4,
        bytes in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let magic = MAGICS[which];
        let mut prefixed = magic.to_vec();
        prefixed.push(2);
        prefixed.extend_from_slice(&bytes);
        for input in [&bytes[..], &prefixed[..]] {
            if let Ok((payload, rest)) = decode_frame(input, magic, 2) {
                let mut again = framed(magic, 2, payload);
                again.extend_from_slice(rest);
                prop_assert_eq!(&again[..], input, "a decode must be an exact frame");
            }
        }
    }
}
