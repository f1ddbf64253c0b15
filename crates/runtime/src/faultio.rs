//! Deterministic fault injection under the durable-I/O seam.
//!
//! The paper's subject is surviving faults — primary attempt,
//! acceptance test, retry on an alternate — and the workspace's own
//! durability layers ([`crate::wal`] framing, `rbbench`'s result
//! cache) claim exactly that discipline: every write either
//! lands intact, is truncated away as a torn tail, or is *refused* with
//! a named error. Until this module, those claims were tested against
//! one fault shape (SIGKILL at a lucky moment). `faultio` makes the
//! fault space sweepable:
//!
//! * [`Fs`] / [`FileIo`] — the seam: the exact open/read/write/flush/
//!   truncate surface the result cache needs, as object-safe
//!   traits. [`RealFs`] is the production implementation (plain
//!   `std::fs`).
//! * [`FaultPlan`] — a seeded schedule of injected faults, derived from
//!   `(master seed, schedule index)` with the same SplitMix64 mixing as
//!   `rbsim::derive_seed`, so a fault schedule is as reproducible as a
//!   sweep cell. Each write operation rolls against the plan and may be
//!   hit with a [`FaultKind`].
//! * [`FaultyFs`] — [`RealFs`] plus a [`FaultPlan`]: short writes that
//!   leave a torn prefix on disk, silent single-bit flips (caught later
//!   by the WAL checksum, never at write time), transient
//!   `WouldBlock`-style errors that write nothing (the owner may retry
//!   them — see the contract on [`FaultKind::Transient`]), and
//!   disk-full errors.
//! * [`Mangle`] / [`apply_mangle`] / [`derive_mangle`] — deterministic
//!   *post-hoc* corruption of files already on disk (truncate, flip a
//!   bit, append garbage), for sweeping the recovery policies over
//!   at-rest damage instead of two hand-picked byte offsets.
//!
//! Faults are injected on **writes** (and, via an explicit budget, on
//! **flushes** — see [`FaultPlan::with_flush_transients`]); reads,
//! truncations, renames and syncs pass through. Read-side damage is
//! exercised by [`Mangle`] plus the [`crate::wal::FrameScan`]
//! classification, and keeping `set_len` reliable keeps the *recovery*
//! path (truncating a torn tail) from failing in ways no real
//! filesystem exhibits during a replay-only open.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// SplitMix64 finaliser — the same avalanche-quality mixer
/// `rbsim::derive_seed` is built on (duplicated here because
/// `rbruntime` sits below `rbsim` in the crate graph). Public so the
/// layers above (chaos harnesses, rbserve's worker-fault schedule) can
/// derive decisions from one convention.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The fault-schedule seed for `(master, index)` — the `derive_seed`
/// convention, reproduced at this layer: distinct schedule indices give
/// statistically unrelated fault sequences.
pub fn derive_fault_seed(master: u64, index: u64) -> u64 {
    mix64(master ^ mix64(index.wrapping_add(0x9e37_79b9_7f4a_7c15)))
}

// --- the I/O seam ------------------------------------------------------

/// One open file under the seam: exactly the operations the durable
/// layers (the result cache and its compaction) perform, object-safe
/// so a faulty implementation can stand in for the real one.
pub trait FileIo: Send {
    /// Reads the remainder of the file into `buf` (the replay scan).
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize>;
    /// Writes all of `buf` at the current position (an append).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes buffered writes.
    fn flush(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Moves the cursor to absolute offset `pos`.
    fn seek_to(&mut self, pos: u64) -> io::Result<()>;
    /// Durably syncs content and metadata to the device (fsync) — the
    /// barrier a compactor needs before an atomic rename, stronger
    /// than [`FileIo::flush`] (which only drains userspace buffers).
    fn sync_all(&mut self) -> io::Result<()>;
}

/// A filesystem under the seam: opens files for the append-mode WAL
/// discipline and creates directories.
pub trait Fs: Send + Sync {
    /// Opens (or creates) `path` read+write without truncation.
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn FileIo>>;
    /// Creates `path` and its parents (the cache-directory case).
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Atomically replaces `to` with `from` (same directory) — the
    /// publish step of a write-temp-then-rename protocol. A crash
    /// before the rename leaves `to` untouched; after it, fully
    /// replaced; never a hybrid.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file; missing is not an error (stale-temp cleanup).
    fn remove_file(&self, path: &Path) -> io::Result<()>;
}

/// The production filesystem: plain `std::fs`, no faults.
#[derive(Clone, Copy, Debug, Default)]
pub struct RealFs;

/// A real [`File`] behind the [`FileIo`] seam.
struct DiskFile(File);

impl FileIo for DiskFile {
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        self.0.read_to_end(buf)
    }
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.0.seek(SeekFrom::Start(pos)).map(|_| ())
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
}

impl Fs for RealFs {
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn FileIo>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(Box::new(DiskFile(file)))
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }
}

// --- the fault plan ----------------------------------------------------

/// The shapes of injected write fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A prefix of the buffer lands on disk, then the write errors —
    /// the torn tail of a power cut mid-append.
    ShortWrite,
    /// One bit of the buffer is flipped and the write *succeeds* —
    /// silent corruption, detectable only by the WAL checksum on the
    /// next scan.
    BitFlip,
    /// Nothing is written and the write fails with a
    /// [`io::ErrorKind::WouldBlock`]-style error. **Contract: a
    /// transient fault writes zero bytes**, so the owner may safely
    /// retry the whole buffer (the result cache does, bounded).
    Transient,
    /// Nothing is written and the write fails with
    /// [`io::ErrorKind::StorageFull`].
    DiskFull,
}

/// One concrete injected fault (a [`FaultKind`] plus its parameters),
/// decided by [`FaultPlan::decide`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Write only the first `keep` bytes, then fail.
    ShortWrite {
        /// Bytes of the buffer that land before the failure.
        keep: usize,
    },
    /// Flip bit `bit` of byte `offset` (both reduced modulo the buffer)
    /// and report success.
    BitFlip {
        /// Byte offset into the buffer (pre-modulo).
        offset: u64,
        /// Bit index 0–7.
        bit: u8,
    },
    /// Fail with `WouldBlock`, writing nothing.
    Transient,
    /// Fail with `StorageFull`, writing nothing.
    DiskFull,
}

/// A seeded, deterministic schedule of write faults: write operation
/// `k` (a process-global counter per [`FaultyFs`]) faults iff
/// `mix64(seed, k)` lands under the configured per-mille rate, and the
/// same hash picks the [`FaultKind`] and its parameters. Two
/// [`FaultyFs`] instances built from the same plan inject byte-for-byte
/// identical damage.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    /// Per-mille probability that any single write operation faults.
    pub fault_per_mille: u16,
    /// The fault shapes this plan may inject (picked uniformly by
    /// hash). Empty means no faults regardless of the rate.
    pub kinds: Vec<FaultKind>,
    /// Inject a transient (`WouldBlock`-style) failure on each of the
    /// first this-many `flush` calls, then let flushes succeed. This
    /// models an fsync-path hiccup *after* the write itself landed —
    /// the case where retrying the whole buffer would duplicate it, so
    /// the owner must retry only the flush.
    pub flush_transients: u64,
}

impl FaultPlan {
    /// The plan for fault schedule `index` under `master`, at the
    /// default rate (250 ‰) over every [`FaultKind`].
    pub fn new(master: u64, index: u64) -> FaultPlan {
        FaultPlan {
            seed: derive_fault_seed(master, index),
            fault_per_mille: 250,
            kinds: vec![
                FaultKind::ShortWrite,
                FaultKind::BitFlip,
                FaultKind::Transient,
                FaultKind::DiskFull,
            ],
            flush_transients: 0,
        }
    }

    /// This plan with a different per-mille fault rate.
    pub fn with_rate(mut self, per_mille: u16) -> FaultPlan {
        self.fault_per_mille = per_mille;
        self
    }

    /// This plan restricted to the given fault kinds.
    pub fn with_kinds(mut self, kinds: &[FaultKind]) -> FaultPlan {
        self.kinds = kinds.to_vec();
        self
    }

    /// This plan with a transient failure injected on each of the
    /// first `n` flush calls (see [`FaultPlan::flush_transients`]).
    pub fn with_flush_transients(mut self, n: u64) -> FaultPlan {
        self.flush_transients = n;
        self
    }

    /// The fault (if any) for write operation `op` over a buffer of
    /// `len` bytes. Pure in `(self, op, len)`.
    pub fn decide(&self, op: u64, len: usize) -> Option<Fault> {
        if self.kinds.is_empty() || len == 0 {
            return None;
        }
        let h = mix64(self.seed ^ mix64(op.wrapping_add(0x5EED_FA17)));
        if (h % 1000) as u16 >= self.fault_per_mille {
            return None;
        }
        let params = mix64(h);
        let kind = self.kinds[(h >> 32) as usize % self.kinds.len()];
        Some(match kind {
            // Keep strictly less than `len`: a "short" write that lands
            // every byte would be indistinguishable from success.
            FaultKind::ShortWrite => Fault::ShortWrite {
                keep: params as usize % len,
            },
            FaultKind::BitFlip => Fault::BitFlip {
                offset: params,
                bit: ((params >> 48) % 8) as u8,
            },
            FaultKind::Transient => Fault::Transient,
            FaultKind::DiskFull => Fault::DiskFull,
        })
    }
}

/// Shared mutable state of one [`FaultyFs`]: the write-op counter (the
/// plan's clock) and how many faults actually fired.
#[derive(Debug, Default)]
struct FaultState {
    ops: AtomicU64,
    injected: AtomicU64,
    /// Flush calls seen so far — the clock for
    /// [`FaultPlan::flush_transients`] (flushes do not advance `ops`,
    /// so arming flush faults never perturbs a write schedule).
    flushes: AtomicU64,
}

/// [`RealFs`] plus a [`FaultPlan`]: every file it opens shares one
/// write-op counter, so the fault sequence is a deterministic function
/// of the plan and the order of writes.
#[derive(Debug)]
pub struct FaultyFs {
    plan: FaultPlan,
    state: Arc<FaultState>,
}

impl FaultyFs {
    /// A faulty filesystem executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultyFs {
        FaultyFs {
            plan,
            state: Arc::new(FaultState::default()),
        }
    }

    /// Write operations seen so far (faulted or not).
    pub fn writes_seen(&self) -> u64 {
        self.state.ops.load(Ordering::SeqCst)
    }

    /// Faults actually injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.state.injected.load(Ordering::SeqCst)
    }
}

impl Fs for FaultyFs {
    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn FileIo>> {
        let inner = RealFs.open_rw(path)?;
        Ok(Box::new(FaultFile {
            inner,
            plan: self.plan.clone(),
            state: Arc::clone(&self.state),
        }))
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealFs.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealFs.remove_file(path)
    }
}

struct FaultFile {
    inner: Box<dyn FileIo>,
    plan: FaultPlan,
    state: Arc<FaultState>,
}

fn injected_err(kind: io::ErrorKind, msg: String) -> io::Error {
    io::Error::new(kind, msg)
}

impl FileIo for FaultFile {
    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        self.inner.read_to_end(buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let op = self.state.ops.fetch_add(1, Ordering::SeqCst);
        let Some(fault) = self.plan.decide(op, buf.len()) else {
            return self.inner.write_all(buf);
        };
        self.state.injected.fetch_add(1, Ordering::SeqCst);
        match fault {
            Fault::ShortWrite { keep } => {
                self.inner.write_all(&buf[..keep])?;
                self.inner.flush()?;
                Err(injected_err(
                    io::ErrorKind::WriteZero,
                    format!("injected short write: {keep} of {} bytes landed", buf.len()),
                ))
            }
            Fault::BitFlip { offset, bit } => {
                let mut copy = buf.to_vec();
                let at = (offset % copy.len() as u64) as usize;
                copy[at] ^= 1 << bit;
                // Silent: the caller sees success; only the WAL
                // checksum can catch this, on the next scan.
                self.inner.write_all(&copy)
            }
            Fault::Transient => Err(injected_err(
                io::ErrorKind::WouldBlock,
                "injected transient error (nothing written)".into(),
            )),
            Fault::DiskFull => Err(injected_err(
                io::ErrorKind::StorageFull,
                "injected disk full (nothing written)".into(),
            )),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.state.flushes.fetch_add(1, Ordering::SeqCst) < self.plan.flush_transients {
            self.state.injected.fetch_add(1, Ordering::SeqCst);
            // The write already landed; only the flush hiccups. An
            // owner that reacts by rewriting the buffer duplicates it.
            return Err(injected_err(
                io::ErrorKind::WouldBlock,
                "injected transient flush failure (bytes already written)".into(),
            ));
        }
        self.inner.flush()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.inner.seek_to(pos)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.inner.sync_all()
    }
}

/// Whether `err` is one of the seam's transient, nothing-was-written
/// failures — the only write errors an owner may retry without risking
/// duplicated bytes.
pub fn is_transient(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted | io::ErrorKind::TimedOut
    )
}

/// Appends `bytes` and flushes, absorbing up to `retries` transient
/// failures **per stage, independently**: while the write itself fails
/// transiently the whole buffer is retried (safe — the transient
/// contract is that nothing landed), but once `write_all` has
/// succeeded only the *flush* is retried. Collapsing the two stages
/// into one retried closure is the classic double-append bug: a
/// transient flush failure after a successful write would re-issue the
/// buffer and leave the frame on disk twice.
pub fn append_durably(file: &mut dyn FileIo, bytes: &[u8], retries: u32) -> io::Result<()> {
    let mut budget = retries;
    loop {
        match file.write_all(bytes) {
            Ok(()) => break,
            Err(e) if is_transient(&e) && budget > 0 => budget -= 1,
            Err(e) => return Err(e),
        }
    }
    let mut budget = retries;
    loop {
        match file.flush() {
            Ok(()) => return Ok(()),
            Err(e) if is_transient(&e) && budget > 0 => budget -= 1,
            Err(e) => return Err(e),
        }
    }
}

// --- post-hoc mangling -------------------------------------------------

/// One deterministic at-rest corruption of a file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mangle {
    /// Truncate the file to `len` bytes (a crash that lost the tail).
    Truncate {
        /// The surviving prefix length.
        len: u64,
    },
    /// Flip bit `bit` of byte `offset` (bit rot; offset reduced modulo
    /// the file length, no-op on an empty file).
    FlipBit {
        /// Byte offset into the file (pre-modulo).
        offset: u64,
        /// Bit index 0–7.
        bit: u8,
    },
    /// Append `bytes` (a foreign or half-written tail).
    Append {
        /// The appended garbage.
        bytes: Vec<u8>,
    },
}

impl fmt::Display for Mangle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mangle::Truncate { len } => write!(f, "truncate to {len} bytes"),
            Mangle::FlipBit { offset, bit } => write!(f, "flip bit {bit} of byte {offset}"),
            Mangle::Append { bytes } => write!(f, "append {} garbage bytes", bytes.len()),
        }
    }
}

/// Applies `mangle` to the file at `path`.
pub fn apply_mangle(path: &Path, mangle: &Mangle) -> io::Result<()> {
    match mangle {
        Mangle::Truncate { len } => OpenOptions::new().write(true).open(path)?.set_len(*len),
        Mangle::FlipBit { offset, bit } => {
            let mut bytes = std::fs::read(path)?;
            if !bytes.is_empty() {
                let at = (offset % bytes.len() as u64) as usize;
                bytes[at] ^= 1 << bit;
            }
            std::fs::write(path, &bytes)
        }
        Mangle::Append { bytes } => {
            let mut file = OpenOptions::new().append(true).open(path)?;
            file.write_all(bytes)
        }
    }
}

/// The mangle for schedule `seed` against a file of `file_len` bytes —
/// uniformly one of truncate-at-a-random-offset, flip-a-random-bit, or
/// append-random-garbage, with every parameter derived from `seed`.
/// Pure in `(seed, file_len)`.
pub fn derive_mangle(seed: u64, file_len: u64) -> Mangle {
    let h = mix64(seed);
    let p1 = mix64(h);
    match h % 3 {
        0 => Mangle::Truncate {
            len: p1 % (file_len + 1),
        },
        1 => Mangle::FlipBit {
            offset: p1,
            bit: ((p1 >> 48) % 8) as u8,
        },
        _ => {
            let n = 1 + (p1 % 31) as usize;
            let bytes = (0..n)
                .map(|i| (mix64(p1 ^ i as u64) & 0xFF) as u8)
                .collect();
            Mangle::Append { bytes }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rbruntime-faultio-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn real_fs_round_trips_append_truncate_seek() {
        let dir = scratch("real");
        let path = dir.join("f.bin");
        let mut file = RealFs.open_rw(&path).unwrap();
        file.write_all(b"hello world").unwrap();
        file.flush().unwrap();
        file.set_len(5).unwrap();
        file.seek_to(5).unwrap();
        file.write_all(b"!").unwrap();
        file.flush().unwrap();
        drop(file);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello!");
        let mut file = RealFs.open_rw(&path).unwrap();
        let mut buf = Vec::new();
        file.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"hello!");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_plans_are_deterministic_and_schedule_dependent() {
        let plan = FaultPlan::new(0xC4A05, 7);
        let a: Vec<_> = (0..200).map(|op| plan.decide(op, 64)).collect();
        let b: Vec<_> = (0..200).map(|op| plan.decide(op, 64)).collect();
        assert_eq!(a, b, "same plan, same ops, same faults");
        assert!(a.iter().any(Option::is_some), "default rate injects");
        assert!(a.iter().any(Option::is_none), "default rate spares");
        let other = FaultPlan::new(0xC4A05, 8);
        let c: Vec<_> = (0..200).map(|op| other.decide(op, 64)).collect();
        assert_ne!(a, c, "distinct schedules inject differently");
    }

    #[test]
    fn every_kind_appears_under_the_default_plan() {
        let plan = FaultPlan::new(1, 1).with_rate(1000);
        let mut seen = [false; 4];
        for op in 0..400 {
            match plan.decide(op, 64) {
                Some(Fault::ShortWrite { keep }) => {
                    assert!(keep < 64, "short write must be short");
                    seen[0] = true;
                }
                Some(Fault::BitFlip { .. }) => seen[1] = true,
                Some(Fault::Transient) => seen[2] = true,
                Some(Fault::DiskFull) => seen[3] = true,
                None => panic!("rate 1000 faults every op"),
            }
        }
        assert_eq!(seen, [true; 4], "all four kinds exercised");
    }

    #[test]
    fn short_write_leaves_exactly_the_prefix() {
        let dir = scratch("short");
        let path = dir.join("f.bin");
        let fs = FaultyFs::new(
            FaultPlan::new(3, 3)
                .with_rate(1000)
                .with_kinds(&[FaultKind::ShortWrite]),
        );
        let mut file = fs.open_rw(&path).unwrap();
        let payload = vec![0xAB; 100];
        let err = file.write_all(&payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        let on_disk = std::fs::read(&path).unwrap();
        assert!(on_disk.len() < payload.len(), "strictly short");
        assert_eq!(on_disk, payload[..on_disk.len()], "prefix, not garbage");
        assert_eq!(fs.faults_injected(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_is_silent_and_flips_exactly_one_bit() {
        let dir = scratch("flip");
        let path = dir.join("f.bin");
        let fs = FaultyFs::new(
            FaultPlan::new(4, 4)
                .with_rate(1000)
                .with_kinds(&[FaultKind::BitFlip]),
        );
        let mut file = fs.open_rw(&path).unwrap();
        let payload = vec![0u8; 64];
        file.write_all(&payload).expect("bit flips report success");
        file.flush().unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len(), payload.len());
        let flipped: u32 = on_disk
            .iter()
            .zip(&payload)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(flipped, 1, "exactly one bit differs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_and_disk_full_write_nothing() {
        let dir = scratch("transient");
        for (kind, want) in [
            (FaultKind::Transient, io::ErrorKind::WouldBlock),
            (FaultKind::DiskFull, io::ErrorKind::StorageFull),
        ] {
            let path = dir.join(format!("{kind:?}.bin"));
            let fs = FaultyFs::new(FaultPlan::new(5, 5).with_rate(1000).with_kinds(&[kind]));
            let mut file = fs.open_rw(&path).unwrap();
            let err = file.write_all(b"should not land").unwrap_err();
            assert_eq!(err.kind(), want);
            assert_eq!(std::fs::read(&path).unwrap().len(), 0, "nothing written");
            assert_eq!(
                is_transient(&err),
                kind == FaultKind::Transient,
                "only WouldBlock-style errors are retryable"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn flush_transients_fault_only_the_flush_and_only_n_times() {
        let dir = scratch("flushfault");
        let path = dir.join("f.bin");
        let fs = FaultyFs::new(FaultPlan::new(6, 6).with_rate(0).with_flush_transients(2));
        let mut file = fs.open_rw(&path).unwrap();
        file.write_all(b"landed").unwrap();
        let err = file.flush().unwrap_err();
        assert!(is_transient(&err), "{err}");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"landed",
            "the write itself was untouched"
        );
        assert!(file.flush().is_err(), "budget of 2 faults twice");
        file.flush().expect("third flush passes through");
        assert_eq!(fs.faults_injected(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_durably_retries_flush_without_rewriting_the_buffer() {
        let dir = scratch("durable");
        let path = dir.join("f.bin");
        let fs = FaultyFs::new(FaultPlan::new(7, 7).with_rate(0).with_flush_transients(2));
        let mut file = fs.open_rw(&path).unwrap();
        append_durably(file.as_mut(), b"once", 3).unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"once",
            "flush hiccups must not duplicate the appended bytes"
        );
        // Exhausting the budget surfaces the transient error instead.
        let fs = FaultyFs::new(FaultPlan::new(7, 8).with_rate(0).with_flush_transients(9));
        let mut file = fs.open_rw(&path).unwrap();
        let err = append_durably(file.as_mut(), b"more", 3).unwrap_err();
        assert!(is_transient(&err), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rename_is_atomic_publish_and_remove_tolerates_missing() {
        let dir = scratch("rename");
        let (from, to) = (dir.join("a"), dir.join("b"));
        std::fs::write(&from, b"new").unwrap();
        std::fs::write(&to, b"old").unwrap();
        RealFs.rename(&from, &to).unwrap();
        assert_eq!(std::fs::read(&to).unwrap(), b"new");
        assert!(!from.exists());
        RealFs.remove_file(&to).unwrap();
        RealFs
            .remove_file(&to)
            .expect("removing a missing file is fine");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mangles_apply_and_derive_deterministically() {
        let dir = scratch("mangle");
        let path = dir.join("f.bin");
        std::fs::write(&path, [0u8; 32]).unwrap();

        apply_mangle(&path, &Mangle::FlipBit { offset: 37, bit: 2 }).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes[37 % 32], 1 << 2);

        apply_mangle(&path, &Mangle::Truncate { len: 10 }).unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 10);

        apply_mangle(
            &path,
            &Mangle::Append {
                bytes: vec![1, 2, 3],
            },
        )
        .unwrap();
        assert_eq!(std::fs::read(&path).unwrap().len(), 13);

        assert_eq!(derive_mangle(42, 100), derive_mangle(42, 100));
        let kinds: std::collections::HashSet<_> = (0..60)
            .map(|s| match derive_mangle(s, 100) {
                Mangle::Truncate { .. } => 0,
                Mangle::FlipBit { .. } => 1,
                Mangle::Append { .. } => 2,
            })
            .collect();
        assert_eq!(kinds.len(), 3, "all mangle shapes reachable");
        if let Mangle::Truncate { len } = derive_mangle(0, 0) {
            assert_eq!(len, 0, "empty file truncates to 0");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
