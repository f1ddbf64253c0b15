//! Write-ahead-log record framing: length-prefixed, checksummed frames.
//!
//! The paper's recovery-block model assumes checkpoints that survive a
//! failure and can be trusted on restart; [`crate::checkpoint`] is the
//! in-memory form of that discipline, and this module is its on-disk
//! counterpart — the framing a durable log needs so that a process
//! killed mid-write leaves a log that is still *exactly replayable up
//! to its last intact record*:
//!
//! * every record is framed as `[len: u32 LE][checksum: u64 LE][payload]`
//!   where the checksum is [`fnv1a64`] of the payload bytes;
//! * a reader ([`FrameScan`]) walks frames front to back and stops at
//!   the first frame that is incomplete (torn tail) or whose checksum
//!   does not match (corruption) — everything before that offset is
//!   intact, everything after it is discarded by the owner;
//! * frames carry opaque payloads: what they mean (sweep cells,
//!   checkpoint snapshots, …) is the owner's concern, which keeps the
//!   torn-tail rule identical across every log in the workspace.
//!
//! The checksum is FNV-1a — an integrity check against torn writes and
//! bit rot, not an authenticity mechanism.
//!
//! ```
//! use rbruntime::wal::{write_frame, FrameScan};
//!
//! let mut log = Vec::new();
//! write_frame(&mut log, b"record one");
//! write_frame(&mut log, b"record two");
//! let cut = log.len() - 3; // torn tail: last record half-written
//! let mut scan = FrameScan::new(&log[..cut]);
//! assert_eq!(scan.next(), Some(&b"record one"[..]));
//! assert_eq!(scan.next(), None);
//! assert!(!scan.tail_is_clean()); // the torn bytes are detectable
//! ```

/// Bytes of framing around every payload: a `u32` length prefix plus a
/// `u64` checksum.
pub const FRAME_OVERHEAD: usize = 12;

/// 64-bit FNV-1a over `bytes` — the frame checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Appends one framed record (`len | checksum | payload`) to `out`.
///
/// # Panics
/// Panics if the payload exceeds `u32::MAX` bytes.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32::MAX bytes");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&fnv1a64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Why a [`FrameScan`] stopped before the end of its input.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TailState {
    /// Every byte belonged to an intact frame.
    Clean,
    /// The remaining bytes are shorter than one complete frame — the
    /// classic torn tail of a killed writer.
    Torn,
    /// A complete frame was present but its checksum did not match its
    /// payload.
    ChecksumMismatch,
}

/// Iterator over the intact frames of a byte slice.
///
/// Yields each payload in order and stops at the first torn or corrupt
/// frame; [`FrameScan::offset`] then gives the length of the valid
/// prefix (the truncation point for recovery) and
/// [`FrameScan::tail_state`] says why the scan ended.
pub struct FrameScan<'a> {
    bytes: &'a [u8],
    pos: usize,
    tail: TailState,
    done: bool,
}

impl<'a> FrameScan<'a> {
    /// A scan over `bytes` starting at offset 0.
    pub fn new(bytes: &'a [u8]) -> Self {
        FrameScan {
            bytes,
            pos: 0,
            tail: TailState::Clean,
            done: false,
        }
    }

    /// Byte offset of the end of the last intact frame yielded so far
    /// (the safe truncation point once the scan has ended).
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Whether the scan consumed its input exactly (no torn or corrupt
    /// tail). Only meaningful after the iterator has returned `None`.
    pub fn tail_is_clean(&self) -> bool {
        self.tail == TailState::Clean && self.pos == self.bytes.len()
    }

    /// Why the scan stopped.
    pub fn tail_state(&self) -> TailState {
        self.tail
    }
}

impl<'a> Iterator for FrameScan<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.done {
            return None;
        }
        let rest = &self.bytes[self.pos..];
        if rest.is_empty() {
            self.done = true;
            return None;
        }
        if rest.len() < FRAME_OVERHEAD {
            self.tail = TailState::Torn;
            self.done = true;
            return None;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        let crc = u64::from_le_bytes(rest[4..12].try_into().unwrap());
        let Some(payload) = rest.get(FRAME_OVERHEAD..FRAME_OVERHEAD + len) else {
            self.tail = TailState::Torn;
            self.done = true;
            return None;
        };
        if fnv1a64(payload) != crc {
            self.tail = TailState::ChecksumMismatch;
            self.done = true;
            return None;
        }
        self.pos += FRAME_OVERHEAD + len;
        Some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            write_frame(&mut out, p);
        }
        out
    }

    #[test]
    fn frames_round_trip_in_order() {
        let log = log_of(&[b"alpha", b"", b"gamma gamma"]);
        let mut scan = FrameScan::new(&log);
        assert_eq!(scan.next(), Some(&b"alpha"[..]));
        assert_eq!(scan.next(), Some(&b""[..]));
        assert_eq!(scan.next(), Some(&b"gamma gamma"[..]));
        assert_eq!(scan.next(), None);
        assert!(scan.tail_is_clean());
        assert_eq!(scan.offset(), log.len());
    }

    #[test]
    fn torn_tail_is_cut_at_the_last_intact_frame() {
        let intact = log_of(&[b"first", b"second"]);
        let mut log = intact.clone();
        let mut partial = Vec::new();
        write_frame(&mut partial, b"half-written third record");
        log.extend_from_slice(&partial[..partial.len() / 2]);

        let mut scan = FrameScan::new(&log);
        assert_eq!(scan.by_ref().count(), 2);
        assert_eq!(scan.tail_state(), TailState::Torn);
        assert_eq!(scan.offset(), intact.len());
    }

    #[test]
    fn flipped_byte_stops_the_scan_with_checksum_mismatch() {
        let clean = log_of(&[b"aaaa", b"bbbb", b"cccc"]);
        let first_len = FRAME_OVERHEAD + 4;
        // Flip one payload byte of the middle record.
        let mut log = clean.clone();
        log[first_len + FRAME_OVERHEAD] ^= 0x40;
        let mut scan = FrameScan::new(&log);
        assert_eq!(scan.by_ref().count(), 1);
        assert_eq!(scan.tail_state(), TailState::ChecksumMismatch);
        assert_eq!(scan.offset(), first_len);

        // Flip one *checksum* byte instead: same verdict.
        let mut log = clean;
        log[first_len + 5] ^= 0x01;
        let mut scan = FrameScan::new(&log);
        assert_eq!(scan.by_ref().count(), 1);
        assert_eq!(scan.tail_state(), TailState::ChecksumMismatch);
    }

    #[test]
    fn oversized_length_prefix_reads_as_torn() {
        let mut log = log_of(&[b"ok"]);
        let keep = log.len();
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&[0u8; 8]);
        log.extend_from_slice(b"not nearly u32::MAX bytes");
        let mut scan = FrameScan::new(&log);
        assert_eq!(scan.by_ref().count(), 1);
        assert_eq!(scan.tail_state(), TailState::Torn);
        assert_eq!(scan.offset(), keep);
    }

    #[test]
    fn empty_input_is_clean() {
        let mut scan = FrameScan::new(&[]);
        assert_eq!(scan.next(), None);
        assert!(scan.tail_is_clean());
    }

    #[test]
    fn fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
