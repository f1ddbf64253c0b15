//! Property tests for [`rbruntime::wal::FrameScan`] tail
//! classification: over random multi-frame logs damaged by random
//! truncation offsets and single-bit flips, every outcome is either
//! truncate-and-recover (an exact prefix of the original payloads) or
//! a checksum refusal — never a decoded garbage frame.
//!
//! This is the property the whole recovery stack leans on: the result
//! cache trusts that replaying "the intact prefix"
//! of a damaged file can only under-deliver (cells re-run), never
//! mis-deliver (cells served from corrupted bytes).

use proptest::prelude::*;
use rbruntime::wal::{write_frame, FrameScan, TailState, FRAME_OVERHEAD};

fn log_of(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = Vec::new();
    for p in payloads {
        write_frame(&mut out, p);
    }
    out
}

/// Byte offsets where each frame starts, plus the end offset.
fn frame_boundaries(payloads: &[Vec<u8>]) -> Vec<usize> {
    let mut offsets = vec![0];
    for p in payloads {
        offsets.push(offsets.last().unwrap() + FRAME_OVERHEAD + p.len());
    }
    offsets
}

fn payload_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 1..12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Truncating a log anywhere yields exactly the frames that fit
    /// before the cut — and the tail is `Clean` only when the cut
    /// landed on a frame boundary.
    #[test]
    fn any_truncation_recovers_an_exact_prefix(
        payloads in payload_strategy(),
        cut_raw in 0usize..100_000,
    ) {
        let log = log_of(&payloads);
        let cut = cut_raw % (log.len() + 1); // 0..=len inclusive
        let damaged = &log[..cut];

        let mut scan = FrameScan::new(damaged);
        let yielded: Vec<Vec<u8>> = scan.by_ref().map(<[u8]>::to_vec).collect();

        let boundaries = frame_boundaries(&payloads);
        // k = frames wholly inside the cut.
        let k = boundaries.iter().filter(|&&b| b > 0 && b <= cut).count();
        prop_assert_eq!(&yielded, &payloads[..k], "must replay exactly the intact prefix");
        prop_assert_eq!(scan.offset(), boundaries[k], "truncation point is the k-th boundary");
        if boundaries.contains(&cut) {
            prop_assert!(scan.tail_is_clean(), "boundary cut leaves no tail");
            prop_assert_eq!(scan.tail_state(), TailState::Clean);
        } else {
            prop_assert!(!scan.tail_is_clean());
            prop_assert_eq!(scan.tail_state(), TailState::Torn,
                "a mid-frame cut is a torn tail, cut={} boundaries={:?}", cut, &boundaries);
        }
    }

    /// Flipping any single bit anywhere in the log stops the scan at
    /// the damaged frame: every frame before it is replayed intact,
    /// the damaged frame is never yielded (in any form), and the tail
    /// is not `Clean`.
    #[test]
    fn any_single_bit_flip_is_refused_never_decoded(
        payloads in payload_strategy(),
        offset_raw in 0usize..100_000,
        bit in 0u8..8,
    ) {
        let log = log_of(&payloads);
        let offset = offset_raw % log.len();
        let mut damaged = log.clone();
        damaged[offset] ^= 1 << bit;

        let boundaries = frame_boundaries(&payloads);
        // The frame the flipped byte belongs to.
        let j = boundaries.iter().filter(|&&b| b > 0 && b <= offset).count();

        let mut scan = FrameScan::new(&damaged);
        let yielded: Vec<Vec<u8>> = scan.by_ref().map(<[u8]>::to_vec).collect();

        prop_assert_eq!(&yielded, &payloads[..j],
            "frames before the damage replay intact; the damaged frame never decodes");
        // A flipped bit must never scan clean.
        prop_assert_ne!(scan.tail_state(), TailState::Clean);
        match scan.tail_state() {
            // A flip in a length field can masquerade as a longer
            // frame overrunning the buffer (torn) or as a bogus frame
            // whose checksum cannot match (refused); a flip in the
            // checksum or payload is always refused. All acceptable —
            // both policies re-run the affected cells.
            TailState::Torn | TailState::ChecksumMismatch => {}
            TailState::Clean => unreachable!(),
        }
        prop_assert_eq!(scan.offset(), boundaries[j],
            "the truncation point is the damaged frame's start");
    }

    /// Truncation *and* a bit flip in the surviving prefix: recovery
    /// still yields an exact (shorter) prefix — damage never compounds
    /// into decoded garbage.
    #[test]
    fn flip_then_truncate_still_yields_an_exact_prefix(
        payloads in payload_strategy(),
        cut_raw in 0usize..100_000,
        offset_raw in 0usize..100_000,
        bit in 0u8..8,
    ) {
        let log = log_of(&payloads);
        let cut = 1 + cut_raw % log.len(); // 1..=len: keep ≥ 1 byte
        let mut damaged = log[..cut].to_vec();
        let offset = offset_raw % damaged.len();
        damaged[offset] ^= 1 << bit;

        let mut scan = FrameScan::new(&damaged);
        let yielded: Vec<Vec<u8>> = scan.by_ref().map(<[u8]>::to_vec).collect();

        let n = yielded.len();
        prop_assert!(n <= payloads.len());
        prop_assert_eq!(&yielded, &payloads[..n], "whatever survives is an exact prefix");
        prop_assert!(scan.offset() <= damaged.len());
    }
}
