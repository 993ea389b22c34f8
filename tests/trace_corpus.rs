//! Trace-corpus contracts for the block v3 format, end to end:
//!
//! * **v2→v3→v2 bit-equality** — for every registry scenario × seed, the
//!   v3 block codec round-trips the exact stream the chunked v2 codec
//!   records: decoding the v3 bytes and re-encoding them as v2 yields
//!   the original v2 bytes, byte for byte (proptest-pinned).
//! * **Seek ≡ scan** — `seek_to_step(k)` followed by a drain is
//!   bit-equal to replay-from-start for arbitrary `k`, including block
//!   boundaries and `k == horizon`.
//! * **Corruption matrix** — a v3 file truncated at every byte offset,
//!   or bit-flipped at every byte of the index trailer and of one data
//!   block, is either rejected loudly (`Corrupt`) or decodes to the
//!   bit-exact original; salvage always returns a bit-equal prefix of
//!   the true step sequence. Never a silently wrong replay.
//! * **Block-parallel diff ≡ sequential diff** — `diff_block_traces`
//!   returns exactly what the sequential `diff_streams` returns for
//!   every thread count (1, 2, pool default), the `executor_semantics`
//!   pinning pattern applied to the corpus tier.
//! * **Encoder byte pin** — the v3 bytes of a fixed fixture (delta
//!   blocks, a raw fallback after delta bytes, empty steps, a short last
//!   block) keep the length and hashes recorded from the original
//!   encoder.
//! * **Mid-frame EOF classification** — a dedicated regression per
//!   format version for `TraceReader::read_valid_prefix` (and the v3
//!   salvage counterpart): a frame cut mid-read is reported as
//!   `Corrupt`, never as a bare I/O error.
//!
//! The CI job `tests-2t` re-runs this suite with `MSP_THREADS=2`, so the
//! parallel paths see real worker contention.

use mobile_server::core::model::{Instance, Step};
use mobile_server::prelude::*;
use mobile_server::scenarios::corpus::diff_block_traces;
use mobile_server::scenarios::registry::{registry, ScenarioKnobs, ScenarioSpec};
use mobile_server::scenarios::trace::{
    diff_streams, read_trace, record_to_vec, salvage_trace, BlockTraceReader, StreamDiff,
    TraceError, TraceFormat, TraceReader,
};
use mobile_server::scenarios::InstanceStream;
use proptest::prelude::*;
use std::io::Cursor;

fn bits2(p: &P2) -> [u64; 2] {
    [p[0].to_bits(), p[1].to_bits()]
}

/// Steps of two instances are bit-identical.
fn assert_steps_bit_equal<const N: usize>(a: &Instance<N>, b: &Instance<N>) {
    assert_eq!(a.horizon(), b.horizon());
    for (sa, sb) in a.steps.iter().zip(&b.steps) {
        assert_eq!(sa.requests.len(), sb.requests.len());
        for (va, vb) in sa.requests.iter().zip(&sb.requests) {
            for i in 0..N {
                assert_eq!(va[i].to_bits(), vb[i].to_bits());
            }
        }
    }
}

/// Records one registry scenario as chunked v2 and block v3, decodes the
/// v3 bytes, re-encodes the decoded instance as v2, and demands the two
/// v2 recordings be byte-identical — v3 cannot lose or perturb a single
/// bit anywhere in the registry.
fn v2_v3_v2_round_trip<const N: usize>(spec: &ScenarioSpec, seed: u64, horizon: usize) {
    let knobs = ScenarioKnobs::horizon(horizon);
    let mut stream = spec.stream_with::<N>(seed, &knobs).unwrap();
    let v2 = record_to_vec(stream.as_mut(), TraceFormat::ChunkedV2 { chunk: 5 }).unwrap();
    let v3 = record_to_vec(stream.as_mut(), TraceFormat::BlockV3 { block: 3 }).unwrap();
    let from_v2: Instance<N> = read_trace(&v2).unwrap();
    let from_v3: Instance<N> = read_trace(&v3).unwrap();
    assert_steps_bit_equal(&from_v2, &from_v3);
    let re_encoded = record_to_vec(
        &mut InstanceStream::new(from_v3),
        TraceFormat::ChunkedV2 { chunk: 5 },
    )
    .unwrap();
    assert_eq!(v2, re_encoded, "{}: v2→v3→v2 changed bytes", spec.name);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// v2→v3→v2 bit-equality across every registry scenario × seeds.
    #[test]
    fn v3_round_trips_every_registry_scenario(
        which in 0usize..15,
        seed in 0u64..200,
        horizon in 4usize..28,
    ) {
        let specs = registry();
        let spec = &specs[which % specs.len()];
        match spec.dim {
            1 => v2_v3_v2_round_trip::<1>(spec, seed, horizon),
            2 => v2_v3_v2_round_trip::<2>(spec, seed, horizon),
            other => panic!("{}: unexpected dimension {other}", spec.name),
        }
    }

    /// `seek_to_step(k)` then drain is bit-equal to replay-from-start,
    /// for arbitrary k (block boundaries and k == horizon included) and
    /// arbitrary block sizes.
    #[test]
    fn seek_resume_is_bit_equal_to_full_replay(
        seed in 0u64..200,
        horizon in 1usize..40,
        block in 1usize..9,
        k_frac in 0.0f64..1.25,
    ) {
        let spec = mobile_server::scenarios::registry::must_lookup("edge-drift");
        let mut stream = spec
            .stream_with::<2>(seed, &ScenarioKnobs::horizon(horizon))
            .unwrap();
        let bytes = record_to_vec(stream.as_mut(), TraceFormat::BlockV3 { block }).unwrap();
        let mut reader = BlockTraceReader::<2>::open(&bytes).unwrap();
        let total = reader.total_steps();
        prop_assert_eq!(total, horizon);

        let mut full: Vec<Vec<[u64; 2]>> = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            full.push(frame.iter().map(bits2).collect());
        }
        prop_assert_eq!(full.len(), total);

        // k ranges over the whole horizon inclusive; k_frac >= 1 clamps
        // to exactly k == total (seek-to-end, empty tail).
        let k = (((total as f64) * k_frac).round() as usize).min(total);
        reader.seek_to_step(k).unwrap();
        let mut tail: Vec<Vec<[u64; 2]>> = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            tail.push(frame.iter().map(bits2).collect());
        }
        prop_assert_eq!(&tail, &full[k..].to_vec());

        // And seeking exactly onto a block boundary behaves the same.
        let boundary = (k / block) * block;
        reader.seek_to_step(boundary).unwrap();
        let mut tail_b: Vec<Vec<[u64; 2]>> = Vec::new();
        while let Some(frame) = reader.next_frame().unwrap() {
            tail_b.push(frame.iter().map(bits2).collect());
        }
        prop_assert_eq!(&tail_b, &full[boundary..].to_vec());
    }

    /// Block-parallel diff returns exactly the sequential diff for every
    /// thread count — identical traces, a tweaked coordinate, and a
    /// truncated second stream.
    #[test]
    fn block_parallel_diff_equals_sequential_diff(
        seed in 0u64..200,
        horizon in 1usize..30,
        block_a in 1usize..7,
        block_b in 1usize..7,
        tweak_frac in 0.0f64..1.0,
        mode in 0usize..3,
    ) {
        let spec = mobile_server::scenarios::registry::must_lookup("walk-plane");
        let mut stream = spec
            .stream_with::<2>(seed, &ScenarioKnobs::horizon(horizon))
            .unwrap();
        let bytes_a = record_to_vec(stream.as_mut(), TraceFormat::BlockV3 { block: block_a }).unwrap();
        let inst: Instance<2> = read_trace(&bytes_a).unwrap();

        let other = match mode {
            0 => inst.clone(),
            1 => {
                let mut tweaked = inst.clone();
                let at = ((horizon - 1) as f64 * tweak_frac) as usize;
                if tweaked.steps[at].requests.is_empty() {
                    tweaked.steps[at].requests.push(P2::xy(1.0, 1.0));
                } else {
                    tweaked.steps[at].requests[0][0] += 0.5;
                }
                tweaked
            }
            _ => inst.prefix(((horizon as f64) * tweak_frac) as usize),
        };
        let bytes_b = record_to_vec(
            &mut InstanceStream::new(other.clone()),
            TraceFormat::BlockV3 { block: block_b },
        )
        .unwrap();

        let sequential = diff_streams(
            &mut InstanceStream::new(inst),
            &mut InstanceStream::new(other),
        );
        for threads in [1usize, 2, 0] {
            let parallel = diff_block_traces::<2>(&bytes_a, &bytes_b, threads).unwrap();
            prop_assert_eq!(&parallel, &sequential, "threads={}", threads);
        }
    }
}

/// A deterministic multi-block v3 fixture with its decoded truth.
fn corruption_fixture() -> (Vec<u8>, Instance<2>) {
    let spec = mobile_server::scenarios::registry::must_lookup("edge-drift");
    let mut stream = spec
        .stream_with::<2>(11, &ScenarioKnobs::horizon(18))
        .unwrap();
    let bytes = record_to_vec(stream.as_mut(), TraceFormat::BlockV3 { block: 4 }).unwrap();
    let inst: Instance<2> = read_trace(&bytes).unwrap();
    (bytes, inst)
}

/// The salvaged steps must be a bit-equal prefix of the truth — damage
/// may shorten the replay, never alter it.
fn assert_prefix_of(salvaged: &[Step<2>], truth: &Instance<2>) {
    assert!(salvaged.len() <= truth.horizon());
    for (a, b) in salvaged.iter().zip(&truth.steps) {
        assert_eq!(a.requests.len(), b.requests.len());
        for (va, vb) in a.requests.iter().zip(&b.requests) {
            assert_eq!(bits2(va), bits2(vb));
        }
    }
}

/// Truncation matrix: a v3 file lopped at every byte offset is loud or
/// (at full length) exact — and salvage always yields a valid prefix.
#[test]
fn v3_truncation_at_every_byte_is_loud_or_exact() {
    let (bytes, truth) = corruption_fixture();
    for len in 0..=bytes.len() {
        let cut = &bytes[..len];
        match read_trace::<2>(cut) {
            Ok(decoded) => {
                assert_eq!(len, bytes.len(), "truncation at {len} read back clean");
                assert_steps_bit_equal(&decoded, &truth);
            }
            Err(_) => assert!(len < bytes.len()),
        }
        // Salvage: header damage is a hard error; with a valid header the
        // recovered steps must be a bit-equal prefix, and only the intact
        // file may report clean.
        if let Ok(salvaged) = salvage_trace::<2>(cut) {
            assert_prefix_of(&salvaged.steps, &truth);
            if salvaged.is_clean() {
                assert_eq!(len, bytes.len(), "truncation at {len} salvaged clean");
                assert_eq!(salvaged.steps.len(), truth.horizon());
            }
        } else {
            assert!(len < bytes.len());
        }
    }
}

/// Bit-flip matrix over the index trailer and one data block: every
/// single-byte flip is rejected loudly or decodes bit-exactly (a flip in
/// ignored padding does not exist in this format — every byte is load
/// bearing), and salvage still returns a bit-equal prefix.
#[test]
fn v3_bit_flips_in_trailer_and_block_are_loud_or_exact() {
    let (bytes, truth) = corruption_fixture();
    let reader = BlockTraceReader::<2>::open(&bytes).unwrap();
    let blocks = reader.blocks();
    assert!(blocks >= 2, "fixture must span multiple blocks");
    drop(reader);

    // The trailer spans from after the last block to EOF; rather than
    // re-deriving offsets, flip every byte of the final 24 + 8·blocks + 4
    // trailer bytes plus the whole second block (bytes 100..240 cover it
    // comfortably for this fixture; clamp to the file).
    let trailer_len = 24 + 8 * blocks + 4;
    let trailer_range = bytes.len() - trailer_len..bytes.len();
    let block_range = 100..240.min(bytes.len() - trailer_len);

    for at in trailer_range.chain(block_range) {
        for bit in [0x01u8, 0x80u8] {
            let mut flipped = bytes.clone();
            flipped[at] ^= bit;
            if let Ok(decoded) = read_trace::<2>(&flipped) {
                assert_steps_bit_equal(&decoded, &truth);
            }
            if let Ok(salvaged) = salvage_trace::<2>(&flipped) {
                assert_prefix_of(&salvaged.steps, &truth);
                if salvaged.is_clean() {
                    assert_eq!(salvaged.steps.len(), truth.horizon());
                }
            }
        }
    }
}

/// Mid-frame EOF must classify as `Corrupt` — one regression per format
/// version, pinning `TraceReader::read_valid_prefix` (and the v3 salvage
/// path) directly rather than through the salvage round-trip tests.
#[test]
fn mid_frame_eof_classifies_as_corrupt_per_format() {
    let inst = Instance::new(
        3.0,
        1.0,
        P2::xy(0.0, 0.0),
        vec![
            Step::new(vec![P2::xy(1.25, -2.5)]),
            Step::new(vec![P2::xy(0.5, 4.0), P2::xy(-1.0, 0.125)]),
            Step::new(vec![P2::xy(2.0, 2.0)]),
        ],
    );

    // Text v1: cut between the two coordinates of the last point — the
    // truncated line still parses as a `step` directive but with a
    // 1-field point, which must be corruption, not a short clean trace.
    let v1 = record_to_vec(&mut InstanceStream::new(inst.clone()), TraceFormat::TextV1).unwrap();
    let text = String::from_utf8(v1).unwrap();
    let cut = text.rfind(' ').unwrap();
    let mut reader = TraceReader::<2, _>::open(Cursor::new(&text.as_bytes()[..cut])).unwrap();
    let salvaged = reader.read_valid_prefix();
    assert!(
        matches!(salvaged.error, Some(TraceError::Corrupt { .. })),
        "v1: {:?}",
        salvaged.error
    );

    // Chunked v2: strip the `end` trailer — a clean-looking EOF in the
    // middle of the stream section must be corruption.
    let v2 = record_to_vec(
        &mut InstanceStream::new(inst.clone()),
        TraceFormat::ChunkedV2 { chunk: 2 },
    )
    .unwrap();
    let text = String::from_utf8(v2).unwrap();
    let cut = text.rfind("end").unwrap();
    let mut reader = TraceReader::<2, _>::open(Cursor::new(&text.as_bytes()[..cut])).unwrap();
    let salvaged = reader.read_valid_prefix();
    match &salvaged.error {
        Some(TraceError::Corrupt { message, .. }) => {
            assert!(message.contains("missing `end` trailer"), "{message}");
        }
        other => panic!("v2: expected Corrupt, got {other:?}"),
    }

    // Binary: cut inside the last frame — the reader's raw
    // `UnexpectedEof` must be reclassified as Corrupt by
    // `read_valid_prefix`, with the valid prefix intact.
    let bin = record_to_vec(&mut InstanceStream::new(inst.clone()), TraceFormat::Binary).unwrap();
    let torn = &bin[..bin.len() - 20];
    let mut reader = TraceReader::<2, _>::open(Cursor::new(torn)).unwrap();
    let salvaged = reader.read_valid_prefix();
    match &salvaged.error {
        Some(TraceError::Corrupt { message, .. }) => {
            assert!(message.contains("truncated mid-frame"), "{message}");
        }
        other => panic!("binary: expected Corrupt, got {other:?}"),
    }
    assert_prefix_of(&salvaged.steps, &inst);

    // Block v3: cut inside the last block — salvage keeps the whole
    // blocks before it and reports Corrupt, never Io.
    let v3 = record_to_vec(
        &mut InstanceStream::new(inst.clone()),
        TraceFormat::BlockV3 { block: 2 },
    )
    .unwrap();
    let torn = &v3[..v3.len() - 40];
    let salvaged = salvage_trace::<2>(torn).unwrap();
    assert!(
        matches!(salvaged.error, Some(TraceError::Corrupt { .. })),
        "v3: {:?}",
        salvaged.error
    );
    assert_prefix_of(&salvaged.steps, &inst);
}

/// The ended-early diffs agree across the sequential and block-parallel
/// paths on the exact boundary step (a unit pin complementing the
/// proptest above).
#[test]
fn diff_reports_ended_early_at_the_boundary() {
    let spec = mobile_server::scenarios::registry::must_lookup("car-fleet");
    let mut stream = spec
        .stream_with::<2>(3, &ScenarioKnobs::horizon(11))
        .unwrap();
    let full = record_to_vec(stream.as_mut(), TraceFormat::BlockV3 { block: 4 }).unwrap();
    let inst: Instance<2> = read_trace(&full).unwrap();
    let short = record_to_vec(
        &mut InstanceStream::new(inst.prefix(7)),
        TraceFormat::BlockV3 { block: 4 },
    )
    .unwrap();
    for threads in [1usize, 2, 0] {
        match diff_block_traces::<2>(&full, &short, threads).unwrap() {
            Some(StreamDiff::Step { index: 7, detail }) => {
                assert!(detail.contains("second stream ended early"), "{detail}");
            }
            other => panic!("expected early-end at 7, got {other:?}"),
        }
    }
}

/// Block modes of a v3 file, read by walking the block framing from the
/// end of the file header (`28 + 8·N` bytes) to the index trailer.
fn v3_block_modes(bytes: &[u8], n: usize) -> Vec<u8> {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let mut modes = Vec::new();
    let mut at = 28 + 8 * n;
    while &bytes[at..at + 4] == b"BLK3" {
        modes.push(bytes[at + 4]);
        at += 13 + u32_at(at + 9) + 4;
    }
    assert_eq!(
        &bytes[at..at + 4],
        b"IDX3",
        "block framing ends at the trailer"
    );
    modes
}

/// The v3 byte-pin fixture: block size 4 over 18 steps.
///
/// * block 0 — delta-coded, with an empty step and 1–3 requests a step;
/// * block 1 — two delta-exact steps, then `-0.0`, which forces the raw
///   fallback after delta bytes were already produced;
/// * block 2 — a `+0.1` jump no `f32` delta reproduces, mid-block;
/// * block 3 — only empty steps (delta mode against an origin base);
/// * block 4 — a short final block of two steps.
fn byte_pin_fixture() -> Instance<2> {
    let steps: Vec<Vec<P2>> = vec![
        vec![P2::xy(1.0, 2.0), P2::xy(1.5, 2.25)],
        vec![],
        vec![P2::xy(0.75, -3.5)],
        vec![P2::xy(2.0, 2.0), P2::xy(2.5, 1.0), P2::xy(3.0, 0.5)],
        vec![P2::xy(1.0, 1.0)],
        vec![P2::xy(1.25, 1.5)],
        vec![P2::xy(-0.0, 1.5)],
        vec![],
        vec![P2::xy(10.0, 10.0)],
        vec![P2::xy(10.5, 9.75)],
        vec![P2::xy(10.6, 9.75), P2::xy(-7.0, 3.0)],
        vec![P2::xy(-6.875, 3.125)],
        vec![],
        vec![],
        vec![],
        vec![],
        vec![P2::xy(4.0, -4.0)],
        vec![P2::xy(4.5, -3.75), P2::xy(5.0, 1.0e6)],
    ];
    Instance::new(
        4.0,
        1.0,
        P2::xy(0.5, -0.5),
        steps.into_iter().map(Step::new).collect(),
    )
}

/// 64-bit FNV-1a: a content hash for the byte pin below.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The v3 encoder's bytes are pinned: the fixture's length, CRC-32 and
/// FNV-1a hash were recorded from the earlier encoder (one `Vec` per
/// payload, bytewise CRC) and must never move. Any change to the wire bytes — block framing, mode
/// choice, the raw fallback's rewind, payload lengths or CRC placement —
/// shows here.
///
/// The CRC-32 of the whole file alone would not be enough: every block
/// ends with its own CRC, and a CRC register fed a segment followed by
/// that segment's CRC ends in a state that depends on the segment's
/// length but not its content. So the file CRC pins the header, the
/// framing and the trailer, and the FNV-1a hash pins the payload bytes.
#[test]
fn v3_encoding_bytes_are_pinned() {
    use mobile_server::scenarios::journal::crc32;
    let inst = byte_pin_fixture();
    let bytes = record_to_vec(
        &mut InstanceStream::new(inst.clone()),
        TraceFormat::BlockV3 { block: 4 },
    )
    .unwrap();
    assert_eq!(v3_block_modes(&bytes, 2), vec![1, 0, 0, 1, 1]);
    assert_eq!((bytes.len(), crc32(&bytes)), (517, 0xA4B6_4F60));
    assert_eq!(fnv1a64(&bytes), 0xC78B_C31B_B6B1_85A8);
    let decoded: Instance<2> = read_trace(&bytes).unwrap();
    assert_steps_bit_equal(&decoded, &inst);
}
