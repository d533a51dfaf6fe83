//! Property-based integration tests (proptest) over the core data
//! structures and cross-crate invariants.

use twig_proptest::prelude::*;
use twig_sim::{Btb, BtbGeometry, PrefetchBuffer, Ras};
use twig_types::{Addr, BlockId, BranchKind};
use twig_workload::{
    decode_columnar, encode_columnar, BlockEvent, InputConfig, ProgramGenerator, Span, Walker,
    WorkloadSpec,
};

fn arb_kind() -> impl Strategy<Value = BranchKind> {
    prop::sample::select(BranchKind::ALL.to_vec())
}

fn arb_event() -> impl Strategy<Value = BlockEvent> {
    (0u32..100_000, any::<bool>(), prop::option::of(0u32..100_000)).prop_map(
        |(block, taken, target)| BlockEvent {
            block: BlockId::new(block),
            taken,
            target: target.map(BlockId::new),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Trace encode/decode is a lossless round trip for arbitrary events.
    #[test]
    fn trace_roundtrip(events in prop::collection::vec(arb_event(), 0..500)) {
        let bytes = encode_columnar(&events);
        let decoded = decode_columnar(&bytes).expect("decode");
        prop_assert_eq!(decoded, events);
    }

    /// Truncating an encoded trace never panics and never decodes: the
    /// footer is written last, so every strict prefix is rejected.
    #[test]
    fn trace_truncation_is_detected(
        events in prop::collection::vec(arb_event(), 1..100),
        cut_fraction in 0.0f64..1.0,
    ) {
        let bytes = encode_columnar(&events);
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assert!(decode_columnar(&bytes[..cut]).is_err());
    }

    /// The BTB never exceeds capacity and always returns the most recent
    /// insertion for a resident PC.
    #[test]
    fn btb_capacity_and_freshness(
        ops in prop::collection::vec((0u64..4096, 0u64..1_000_000, arb_kind()), 1..300),
    ) {
        let mut btb = Btb::new(BtbGeometry::new(64, 4));
        let mut last = std::collections::HashMap::new();
        for (pc_seed, target, kind) in ops {
            let pc = Addr::new(0x1000 + pc_seed * 2);
            btb.insert(pc, Addr::new(target), kind);
            last.insert(pc, Addr::new(target));
            prop_assert!(btb.occupancy() <= btb.capacity());
        }
        for (pc, target) in last {
            if let Some(entry) = btb.probe(pc) {
                prop_assert_eq!(entry.target, target);
            }
        }
    }

    /// RAS behaves as a bounded LIFO: any push/pop sequence matches a
    /// reference stack whose bottom entries are corrupted by overflow.
    #[test]
    fn ras_matches_reference_stack(
        ops in prop::collection::vec(prop::option::of(0u64..1_000_000), 1..200),
        capacity in 1usize..32,
    ) {
        let mut ras = Ras::new(capacity);
        let mut reference: Vec<Addr> = Vec::new();
        for op in ops {
            match op {
                Some(v) => {
                    let addr = Addr::new(v);
                    ras.push(addr);
                    reference.push(addr);
                    if reference.len() > capacity {
                        reference.remove(0);
                    }
                }
                None => {
                    prop_assert_eq!(ras.pop(), reference.pop());
                }
            }
            prop_assert_eq!(ras.depth(), reference.len());
        }
    }

    /// The prefetch buffer's stats identity holds under arbitrary traffic:
    /// inserted == used + evicted_unused + still-resident.
    #[test]
    fn prefetch_buffer_conservation(
        ops in prop::collection::vec((0u64..200, any::<bool>(), 0u64..50), 1..400),
        capacity in 1usize..64,
    ) {
        let mut buf = PrefetchBuffer::new(capacity);
        for (pc_seed, is_take, ready) in ops {
            let pc = Addr::new(0x100 + pc_seed * 4);
            if is_take {
                let _ = buf.take(pc, 1_000);
            } else {
                buf.insert(pc, Addr::new(1), BranchKind::Conditional, ready);
            }
            let s = buf.stats();
            prop_assert_eq!(
                s.inserted,
                s.used + s.evicted_unused + buf.len() as u64
            );
            prop_assert!(buf.len() <= capacity);
        }
    }

    /// Generated programs satisfy the structural invariants the simulator
    /// and the coalesce table rely on, for arbitrary seeds and sizes.
    #[test]
    fn generated_programs_are_well_formed(
        seed in 0u64..1_000_000,
        app_funcs in 30u32..120,
        handlers in 2u32..10,
        blocks_hi in 6u32..16,
    ) {
        let spec = WorkloadSpec {
            seed,
            app_funcs,
            handlers,
            blocks_per_func: Span::new(3, blocks_hi),
            ..WorkloadSpec::tiny_test()
        };
        prop_assume!(spec.validate().is_ok());
        let program = ProgramGenerator::new(spec).generate();
        // Addresses strictly increase with block id.
        let mut prev_end = 0u64;
        for (_, block) in program.blocks() {
            prop_assert!(block.addr.raw() >= prev_end);
            prop_assert!(block.size_bytes() > 0);
            prev_end = block.end_addr().raw();
        }
        // A short walk executes without panics and respects bounds.
        for ev in Walker::new(&program, InputConfig::numbered(0)).take(2_000) {
            prop_assert!(ev.block.index() < program.num_blocks());
            if ev.taken {
                prop_assert!(ev.target.is_some());
            }
        }
    }

    /// Offset bit-width computation is monotone: wider fields always fit
    /// whatever narrower fields fit.
    #[test]
    fn offset_bits_monotone(v in -(1i64 << 40)..(1i64 << 40)) {
        let a = Addr::new(1 << 45);
        let b = Addr::new(((1i64 << 45) + v) as u64);
        let bits = a.offset_bits_to(b);
        prop_assert!(bits <= 48);
        for w in bits..=48 {
            let min = -(1i64 << (w - 1));
            let max = (1i64 << (w - 1)) - 1;
            prop_assert!((min..=max).contains(&v));
        }
    }
}

// ---------------------------------------------------------------------------
// Binary profile (.twpf) decoder robustness: no input may panic the decoder
// or make it over-allocate; every well-formed encoding round-trips.

use twig_profile::{decode_profile, encode_profile, Profile, ProfileCodecError};

fn arb_profile() -> impl Strategy<Value = Profile> {
    // A history is either drawn on its own or a window of one shared
    // stream, so consecutive samples overlap the way LBR windows do and
    // the shared log's reuse path is exercised too.
    let sample = (
        (0u32..1_000_000, arb_kind(), 0u64..u64::MAX / 2),
        prop::collection::vec((0u32..1_000_000, 0u64..1_000_000), 0..8),
        prop::option::of((0usize..48, 0usize..16)),
    );
    (
        (
            prop::collection::vec(0u64..1_000_000, 0..64),
            prop::collection::vec((0u32..1_000_000, 0u64..1_000_000), 64..65),
        ),
        prop::collection::vec(sample, 0..32),
        1u32..10_000,
        0u64..u64::MAX / 2,
    )
        .prop_map(
            |((block_executions, mut stream), samples, sample_period, instructions)| {
                // The format delta-encodes history cycles, which assumes the
                // recorder's nondecreasing order; sort to match.
                stream.sort_by_key(|&(_, c)| c);
                let mut profile = Profile::new(0, sample_period);
                profile.block_executions = block_executions;
                profile.instructions = instructions;
                for ((block, kind, cycle), mut own, window) in samples {
                    own.sort_by_key(|&(_, c)| c);
                    let history: Vec<(BlockId, u64)> = match window {
                        Some((at, len)) => &stream[at..at + len],
                        None => &own[..],
                    }
                    .iter()
                    .map(|&(b, c)| (BlockId::new(b), c))
                    .collect();
                    profile.push_sample(BlockId::new(block), kind, cycle, &history);
                }
                profile
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every encodable profile decodes back bit-identically.
    #[test]
    fn profile_roundtrip(profile in arb_profile()) {
        let bytes = encode_profile(&profile);
        let decoded = decode_profile(&bytes).expect("well-formed encoding decodes");
        prop_assert_eq!(decoded, profile);
    }

    /// Arbitrary bytes never panic the decoder: they decode or fail with a
    /// typed error, and declared-length checks mean no input can make the
    /// decoder reserve more memory than the input's own size justifies.
    #[test]
    fn profile_decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_profile(&bytes);
        // Magic-prefixed garbage exercises the post-header paths.
        let mut with_magic = b"TWPF\x01".to_vec();
        with_magic.extend_from_slice(&bytes);
        let _ = decode_profile(&with_magic);
    }

    /// Corrupting one byte of a valid encoding never panics and never
    /// yields an unclassified failure.
    #[test]
    fn profile_decoder_survives_single_byte_corruption(
        profile in arb_profile(),
        pos_fraction in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let mut bytes = encode_profile(&profile).to_vec();
        prop_assume!(!bytes.is_empty());
        let pos = ((bytes.len() - 1) as f64 * pos_fraction) as usize;
        bytes[pos] ^= xor;
        match decode_profile(&bytes) {
            Ok(_) => {}
            Err(
                ProfileCodecError::BadMagic
                | ProfileCodecError::BadVersion(_)
                | ProfileCodecError::Truncated
                | ProfileCodecError::BadKind(_)
                | ProfileCodecError::Oversized { .. }
                | ProfileCodecError::Overflow { .. },
            ) => {}
        }
    }

    /// Truncating a valid encoding at any point is either an error or (at
    /// byte boundaries that happen to be self-delimiting) a valid decode —
    /// never a panic.
    #[test]
    fn profile_decoder_survives_truncation(
        profile in arb_profile(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let bytes = encode_profile(&profile);
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        if cut < bytes.len() {
            let _ = decode_profile(&bytes[..cut]);
        }
    }
}
