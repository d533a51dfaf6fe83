//! Property tests for the columnar `.twgc` trace format: lossless
//! round-trips on arbitrary event streams and chunk sizes, rejection of
//! torn tails and single-bit flips anywhere in the file,
//! and clone-replay determinism of the chunked reader behind
//! [`ColumnarSource`].

use std::sync::Arc;

use twig_proptest::prelude::*;
use twig_types::BlockId;
use twig_workload::{
    decode_columnar, encode_columnar_chunked, BlockEvent, ColumnarReader, ColumnarSource,
};

fn arb_event() -> impl Strategy<Value = BlockEvent> {
    (0u32..100_000, any::<bool>(), prop::option::of(0u32..100_000)).prop_map(
        |(block, taken, target)| BlockEvent {
            block: BlockId::new(block),
            taken,
            target: target.map(BlockId::new),
        },
    )
}

fn arb_events() -> impl Strategy<Value = Vec<BlockEvent>> {
    prop::collection::vec(arb_event(), 0..600)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Columnar encode/decode is lossless for arbitrary events at any
    /// chunk size.
    #[test]
    fn columnar_roundtrip_is_lossless(events in arb_events(), chunk in 1u32..300) {
        let columnar = encode_columnar_chunked(&events, chunk);
        prop_assert_eq!(decode_columnar(&columnar).expect("decode"), events);
    }

    /// Every strict prefix of a columnar file is rejected at open — the
    /// fixed-size tail frame catches torn tails of any length.
    #[test]
    fn torn_tail_is_rejected(events in arb_events(), frac in 0.0f64..1.0) {
        let bytes = encode_columnar_chunked(&events, 64);
        #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
        let cut = ((bytes.len() as f64) * frac) as usize;
        let torn = bytes[..cut.min(bytes.len() - 1)].to_vec();
        prop_assert!(
            ColumnarReader::from_bytes(torn).is_err(),
            "accepted a {cut}-byte prefix of a {}-byte file",
            bytes.len()
        );
    }

    /// Flipping any single bit of the file is detected: every byte is in
    /// a frame, so either open fails, or decoding the touched chunk does.
    #[test]
    fn single_bit_flip_is_detected(
        events in prop::collection::vec(arb_event(), 1..400),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let bytes = encode_columnar_chunked(&events, 64);
        let at = pos % bytes.len();
        let mut mutated = bytes;
        mutated[at] ^= 1 << bit;
        let rejected = match ColumnarReader::from_bytes(mutated) {
            Err(_) => true,
            Ok(reader) => reader.read_all().is_err(),
        };
        prop_assert!(rejected, "bit {bit} flip at byte {at} went undetected");
    }

    /// The chunked reader is deterministic under replay: a clone of an
    /// unread source re-yields the identical stream, a clone taken after
    /// `n` events replays the same suffix, and skipping `n` events (a
    /// chunk leap) lands exactly where iterate-and-drop would.
    #[test]
    fn clone_replay_is_deterministic(
        events in arb_events(),
        chunk in 1u32..300,
        skip in any::<usize>(),
    ) {
        let bytes = encode_columnar_chunked(&events, chunk);
        let reader = Arc::new(ColumnarReader::from_bytes(bytes).expect("open"));
        let mut source = ColumnarSource::from_reader(reader);
        let replay = source.clone();
        let first: Vec<BlockEvent> = source.by_ref().collect();
        prop_assert_eq!(&first, &events);
        let second: Vec<BlockEvent> = replay.clone().collect();
        prop_assert_eq!(&second, &events);
        let n = skip % (events.len() + 1);
        let tail: Vec<BlockEvent> = replay.clone().skip(n).collect();
        prop_assert_eq!(&tail[..], &events[n..]);
        let mut stepped = replay;
        for _ in 0..n {
            stepped.next();
        }
        let suffix: Vec<BlockEvent> = stepped.clone().collect();
        prop_assert_eq!(&suffix[..], &events[n..]);
    }
}
