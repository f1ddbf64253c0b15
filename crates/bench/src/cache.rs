//! The content-addressed result cache: the one durable store behind
//! cached sweeps, resumed sweeps and `rbserve`.
//!
//! Because [`Workload::run`](crate::sweep::Workload::run) is pure in
//! `(self, seed)` (the sweep contract), a cell's [`CellReport`] is a
//! pure function of the triple `(label, canonical params, seed)` — so a
//! finished report can be stored once and served forever, bit-exactly.
//! Repeated cells cost a hash lookup, not a solve, and a killed sweep
//! **resumes** by re-running through the same cache: every cell that
//! finished before the kill is a hit, only the rest are solved, and the
//! reassembled report is byte-identical to an uninterrupted `spec.run(1)`
//! (the kill gate in `tests/sweep_resume.rs` diffs the artifact bytes).
//!
//! ## Cache keys
//!
//! [`cache_key`] builds self-describing **key material**:
//!
//! ```text
//! [CACHE_FORMAT_VERSION: u16 LE]
//! [label length: u64 LE][label bytes]
//! [params length: u64 LE][params bytes]
//! [seed: u64 LE]
//! ```
//!
//! and its FNV-1a-64 hash. Length-prefixing makes the material
//! injective (`("ab","c")` ≠ `("a","bc")`); the params string comes
//! from [`Workload::cache_params`](crate::sweep::Workload::cache_params),
//! which renders floats as raw IEEE-754 bits so no two distinct
//! configurations collide. Every production workload is cacheable; a
//! workload whose `cache_params` is `None` (test probes) simply re-runs
//! every time.
//!
//! Hashes address the in-memory index, but a **hit requires full key
//! material equality** — a 64-bit hash collision can never serve the
//! wrong payload. Because the key binds every parameter, the seed and
//! the format version, an edited spec (a changed parameter, master
//! seed, or seed index) is a clean **miss**, never a stale replay: the
//! store has no notion of "the sweep", only of computations.
//!
//! ## On-disk format
//!
//! One append-only file (`results.wal`) of [`rbruntime::wal`] frames:
//! a header frame binding the cache format and code version, then one
//! frame per entry (`[tag][material length: u32][material][payload]`)
//! where the payload is the bit-exact report codec below (`f64`s as
//! raw bits — NaN quantiles round-trip). Entries are appended and
//! flushed as produced.
//!
//! ## Recovery rules
//!
//! One policy for every reader that opens the file:
//!
//! * a **torn tail** (killed mid-write) or a checksum-mismatched frame
//!   ends the scan: the file is truncated at the last intact frame and
//!   the cells it covered simply re-solve and re-append;
//! * an **intact but undecodable or self-contradictory** record (two
//!   payloads under one key) **refuses** the cache with an error naming
//!   the file and frame — re-running "around" it could mask a real
//!   fault;
//! * a header written by a different format or code version is refused
//!   rather than misread;
//! * a byte-identical duplicate frame (two workers racing one key) is
//!   benign: replay keeps the first.
//!
//! One writer at a time: the cache has no inter-process lock, so drive
//! a given cache directory from a single process — including two figure
//! binaries pointed at one `--cache` dir, which must run one after the
//! other. [`entry_count`] / [`wal_stats`] are the read-only exception —
//! they scan the framing without opening for append, so tests (and
//! humans) can poll a live process's cache file.
//!
//! ## Lifecycle
//!
//! The WAL only ever appends during serving, so it accretes benign
//! duplicate frames that replay skips but disk keeps.
//! [`ResultCache::compact`] reclaims them: it writes a fresh image —
//! header plus exactly one frame per distinct key, in first-seen order —
//! to a temp file ([`compact_temp_path`]), fsyncs it, and **atomically
//! renames** it over `results.wal`. A crash anywhere mid-compaction
//! therefore leaves either the old file (rename not reached; the stale
//! temp is inert — never read at open) or the new one (rename landed),
//! never a hybrid, and both replay under the same refuse-don't-guess
//! rules.
//!
//! In front of the byte store sits an optional **hot tier**
//! ([`ResultCache::set_hot_capacity`]): a bounded LRU of decoded
//! [`CellReport`]s, so repeated lookups of a hot key skip the payload
//! decode entirely. [`ResultCache::lookup_tiered`] reports which tier
//! served a hit ([`HitTier`]); the byte store ("warm") and the WAL on
//! disk stay the source of truth — the hot tier is a pure
//! derived-data cache and never changes what bytes a lookup returns.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

use rbcore::metrics::{DistSummary, Metric, Quantile};
use rbruntime::faultio::{append_durably, FileIo, Fs, RealFs};
use rbruntime::wal::{fnv1a64, write_frame, FrameScan, FRAME_OVERHEAD};

use crate::sweep::{CellReport, SweepCell};

/// Version of the cache's key derivation **and** on-disk entry layout;
/// bumped together (a key from an old derivation must never hit a new
/// store). Part of both the key material and the file header.
pub const CACHE_FORMAT_VERSION: u16 = 1;

/// Transient write failures absorbed per append stage before an
/// insert surfaces as [`CacheError::Io`] — the store's own small
/// recovery block.
pub const TRANSIENT_RETRIES: u32 = 3;

/// File name of the cache WAL inside the cache directory.
pub const CACHE_FILE: &str = "results.wal";

const MAGIC: &[u8; 8] = b"rbcache\0";
const TAG_CACHE_HEADER: u8 = 0x10;
const TAG_CACHE_ENTRY: u8 = 0x11;

/// A derived cache key: the self-describing key material plus its
/// FNV-1a-64 hash. Build one with [`cache_key`] (or [`cell_key`] for a
/// sweep cell).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    material: Vec<u8>,
    hash: u64,
}

impl CacheKey {
    /// The full key material (version, length-prefixed label and
    /// params, seed).
    pub fn material(&self) -> &[u8] {
        &self.material
    }

    /// The FNV-1a-64 hash of the material (the index address; equality
    /// is always verified against the full material).
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// Derives the cache key for `(label, params, seed)` under
/// [`CACHE_FORMAT_VERSION`]. `params` must be the workload's canonical
/// [`Workload::cache_params`](crate::sweep::Workload::cache_params) rendering.
pub fn cache_key(label: &str, params: &str, seed: u64) -> CacheKey {
    let mut m = Vec::with_capacity(2 + 8 + label.len() + 8 + params.len() + 8);
    m.extend_from_slice(&CACHE_FORMAT_VERSION.to_le_bytes());
    m.extend_from_slice(&(label.len() as u64).to_le_bytes());
    m.extend_from_slice(label.as_bytes());
    m.extend_from_slice(&(params.len() as u64).to_le_bytes());
    m.extend_from_slice(params.as_bytes());
    m.extend_from_slice(&seed.to_le_bytes());
    CacheKey {
        hash: fnv1a64(&m),
        material: m,
    }
}

/// The cache key of a sweep cell under its derived seed, or `None` if
/// the cell's workload is not cacheable (its
/// [`Workload::cache_params`](crate::sweep::Workload::cache_params) is
/// `None`).
pub fn cell_key(cell: &SweepCell, seed: u64) -> Option<CacheKey> {
    cell.workload
        .cache_params()
        .map(|params| cache_key(&cell.workload.label(), &params, seed))
}

/// Why a cache could not be opened, read or appended to.
#[derive(Debug)]
pub enum CacheError {
    /// Filesystem-level failure.
    Io {
        /// The cache file path.
        path: PathBuf,
        /// What was being attempted.
        op: &'static str,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The cache cannot be trusted: wrong magic/version, an intact
    /// (checksummed) record that contradicts itself, or two entries
    /// under one key with different payloads (a purity violation).
    /// Delete the cache directory to start fresh.
    Refused {
        /// The cache file path.
        path: PathBuf,
        /// The offending frame when the refusal came from scanning the
        /// file (0 is the header, `k ≥ 1` the `k`-th entry); `None` for
        /// refusals of a new insert (nothing on disk is wrong yet).
        frame: Option<u64>,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::Io { path, op, source } => {
                write!(f, "result cache {}: {op}: {source}", path.display())
            }
            CacheError::Refused {
                path,
                frame,
                reason,
            } => {
                write!(f, "result cache {}: ", path.display())?;
                if let Some(frame) = frame {
                    write!(f, "frame {frame}: ")?;
                }
                write!(
                    f,
                    "{reason} — refusing to serve from it; delete the cache to start fresh"
                )
            }
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn encode_cache_header() -> Vec<u8> {
    let code = env!("CARGO_PKG_VERSION").as_bytes();
    let mut out = Vec::with_capacity(1 + MAGIC.len() + 2 + 4 + code.len());
    out.push(TAG_CACHE_HEADER);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&CACHE_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(code.len() as u32).to_le_bytes());
    out.extend_from_slice(code);
    out
}

fn decode_cache_header(payload: &[u8]) -> Result<(), String> {
    let want = encode_cache_header();
    if payload.first() != Some(&TAG_CACHE_HEADER) {
        return Err(format!(
            "first record has tag {:?}, not a cache header",
            payload.first()
        ));
    }
    if payload.len() < 1 + MAGIC.len() + 2 || &payload[1..1 + MAGIC.len()] != MAGIC {
        return Err("cache header magic mismatch (not a result-cache file)".into());
    }
    let at = 1 + MAGIC.len();
    let version = u16::from_le_bytes([payload[at], payload[at + 1]]);
    if version != CACHE_FORMAT_VERSION {
        return Err(format!(
            "cache format version {version}, this build writes {CACHE_FORMAT_VERSION}"
        ));
    }
    if payload != want {
        return Err(format!(
            "cache header written by a different code version than {}",
            env!("CARGO_PKG_VERSION")
        ));
    }
    Ok(())
}

fn encode_entry(material: &[u8], payload_bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 4 + material.len() + payload_bytes.len());
    out.push(TAG_CACHE_ENTRY);
    out.extend_from_slice(&(material.len() as u32).to_le_bytes());
    out.extend_from_slice(material);
    out.extend_from_slice(payload_bytes);
    out
}

fn decode_entry(frame: &[u8]) -> Result<(Vec<u8>, Vec<u8>), String> {
    if frame.first() != Some(&TAG_CACHE_ENTRY) {
        return Err(format!(
            "unexpected record tag {:?} (wanted cache entry)",
            frame.first()
        ));
    }
    if frame.len() < 5 {
        return Err("cache entry truncated before key material".into());
    }
    let mat_len = u32::from_le_bytes(frame[1..5].try_into().unwrap()) as usize;
    let body = &frame[5..];
    if body.len() < mat_len {
        return Err(format!(
            "cache entry claims {mat_len} key-material bytes but carries {}",
            body.len()
        ));
    }
    let (material, payload) = body.split_at(mat_len);
    // Validate the payload decodes now, at open/insert time, so lookup
    // can trust stored bytes unconditionally.
    decode_report_payload(payload)?;
    Ok((material.to_vec(), payload.to_vec()))
}

// --- report payload codec ---------------------------------------------
//
// Little-endian throughout; strings are u32-length-prefixed UTF-8;
// f64s are stored as raw IEEE-754 bits so a hit is bit-exact.

struct Enc(Vec<u8>);

impl Enc {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(u32::try_from(s.len()).expect("string exceeds u32::MAX bytes"));
        self.0.extend_from_slice(s.as_bytes());
    }
}

struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| format!("record truncated at byte {}", self.pos))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 in record string".into())
    }

    fn finish(self) -> Result<(), String> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after record body",
                self.bytes.len() - self.pos
            ))
        }
    }
}

fn encode_metric(enc: &mut Enc, m: &Metric) {
    match m {
        Metric::Scalar {
            name,
            value,
            std_err,
            count,
            ok,
        } => {
            enc.u8(0);
            enc.str(name);
            enc.f64(*value);
            enc.f64(*std_err);
            enc.u64(*count);
            enc.u8(*ok as u8);
        }
        Metric::Distribution { name, dist, ok } => {
            enc.u8(1);
            enc.str(name);
            enc.u8(*ok as u8);
            enc.f64(dist.lo);
            enc.f64(dist.hi);
            enc.u32(dist.counts.len() as u32);
            for &c in &dist.counts {
                enc.u64(c);
            }
            enc.u64(dist.underflow);
            enc.u64(dist.overflow);
            enc.u64(dist.count);
            enc.f64(dist.mean);
            enc.u32(dist.quantiles.len() as u32);
            for q in &dist.quantiles {
                enc.f64(q.p);
                enc.f64(q.x);
            }
        }
    }
}

fn decode_metric(dec: &mut Dec) -> Result<Metric, String> {
    match dec.u8()? {
        0 => Ok(Metric::Scalar {
            name: dec.str()?,
            value: dec.f64()?,
            std_err: dec.f64()?,
            count: dec.u64()?,
            ok: dec.u8()? != 0,
        }),
        1 => {
            let name = dec.str()?;
            let ok = dec.u8()? != 0;
            let lo = dec.f64()?;
            let hi = dec.f64()?;
            let n_counts = dec.u32()? as usize;
            let mut counts = Vec::with_capacity(n_counts.min(1 << 20));
            for _ in 0..n_counts {
                counts.push(dec.u64()?);
            }
            let underflow = dec.u64()?;
            let overflow = dec.u64()?;
            let count = dec.u64()?;
            let mean = dec.f64()?;
            let n_q = dec.u32()? as usize;
            let mut quantiles = Vec::with_capacity(n_q.min(1 << 20));
            for _ in 0..n_q {
                quantiles.push(Quantile {
                    p: dec.f64()?,
                    x: dec.f64()?,
                });
            }
            Ok(Metric::Distribution {
                name,
                ok,
                dist: DistSummary {
                    lo,
                    hi,
                    counts,
                    underflow,
                    overflow,
                    count,
                    mean,
                    quantiles,
                },
            })
        }
        tag => Err(format!("unknown metric tag {tag}")),
    }
}

/// Encodes a [`CellReport`] — id, seed, metric vector with `f64`s as
/// raw bits — as the payload of a cache entry.
pub(crate) fn encode_report_payload(report: &CellReport) -> Vec<u8> {
    let mut enc = Enc(Vec::new());
    enc.str(&report.id);
    enc.u64(report.seed);
    enc.u32(report.metrics.len() as u32);
    for m in &report.metrics {
        encode_metric(&mut enc, m);
    }
    enc.0
}

/// Decodes a payload written by [`encode_report_payload`], rejecting
/// trailing bytes.
pub(crate) fn decode_report_payload(payload: &[u8]) -> Result<CellReport, String> {
    let mut dec = Dec::new(payload);
    let id = dec.str()?;
    let seed = dec.u64()?;
    let n = dec.u32()? as usize;
    let mut metrics = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        metrics.push(decode_metric(&mut dec)?);
    }
    dec.finish()?;
    Ok(CellReport { id, seed, metrics })
}

/// Validates that `report` survives the payload codec bit-exactly:
/// encode → decode → re-encode must reproduce the same bytes. This is
/// the *acceptance test* the recovery-block layers run on a freshly
/// solved cell before committing it (rbserve's cell-retry loop, chaos
/// harnesses): a report this check rejects could never be cached or
/// replayed faithfully.
pub fn validate_report_roundtrip(report: &CellReport) -> Result<(), String> {
    let bytes = encode_report_payload(report);
    let back = decode_report_payload(&bytes)?;
    if encode_report_payload(&back) != bytes {
        return Err("payload codec round-trip diverged".into());
    }
    Ok(())
}

/// Which tier served a [`ResultCache::lookup_tiered`] hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HitTier {
    /// The decoded-report LRU: no decode work at all.
    Hot,
    /// The in-memory byte store: the payload was decoded on the way
    /// out (and the entry promoted into the hot tier).
    Warm,
}

/// A bounded LRU of decoded reports keyed by entry index (stable: the
/// byte store is append-ordered and deduped, and compaction preserves
/// first-seen order). Recency is a monotonic tick per touch; eviction
/// scans for the stalest resident — O(capacity), which is noise next
/// to the payload decode it saves at the capacities this tier runs at.
struct HotTier {
    cap: usize,
    tick: u64,
    /// entry index → (decoded report, last-touched tick).
    resident: HashMap<usize, (CellReport, u64)>,
    evictions: u64,
}

impl HotTier {
    fn new(cap: usize) -> HotTier {
        HotTier {
            cap,
            tick: 0,
            resident: HashMap::new(),
            evictions: 0,
        }
    }

    fn get(&mut self, idx: usize) -> Option<CellReport> {
        self.tick += 1;
        let (report, touched) = self.resident.get_mut(&idx)?;
        *touched = self.tick;
        Some(report.clone())
    }

    fn put(&mut self, idx: usize, report: CellReport) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        if !self.resident.contains_key(&idx) {
            while self.resident.len() >= self.cap {
                self.evict_stalest();
            }
        }
        self.resident.insert(idx, (report, self.tick));
    }

    fn resize(&mut self, cap: usize) {
        self.cap = cap;
        while self.resident.len() > cap {
            self.evict_stalest();
        }
    }

    fn evict_stalest(&mut self) {
        let stale = self
            .resident
            .iter()
            .min_by_key(|&(_, &(_, touched))| touched)
            .map(|(&idx, _)| idx);
        if let Some(idx) = stale {
            self.resident.remove(&idx);
            self.evictions += 1;
        }
    }
}

/// What one [`ResultCache::compact`] pass did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactStats {
    /// File length before, in bytes.
    pub bytes_before: u64,
    /// File length after: header plus one frame per distinct key.
    /// Strictly smaller than `bytes_before` iff duplicates existed.
    pub bytes_after: u64,
    /// Distinct entries carried over (always all of them).
    pub entries: usize,
}

/// An open, append-mode result cache over one WAL file (see the module
/// docs for format and recovery rules). Create with
/// [`ResultCache::open`] (or [`ResultCache::open_in`] to inject the
/// filesystem); serve with [`ResultCache::lookup`] (or
/// [`ResultCache::lookup_tiered`]); fill with [`ResultCache::insert`];
/// reclaim duplicate frames with [`ResultCache::compact`].
pub struct ResultCache {
    path: PathBuf,
    file: Box<dyn FileIo>,
    /// hash → indices into `entries` (collision candidates).
    index: HashMap<u64, Vec<usize>>,
    /// `(key material, payload bytes)` in append order.
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    /// Current on-disk length (intact prefix at open, then maintained
    /// across appends and compactions).
    file_len: u64,
    /// Decoded-report LRU in front of the byte store; capacity 0
    /// (the default) disables it.
    hot: HotTier,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResultCache")
            .field("path", &self.path)
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl ResultCache {
    /// [`ResultCache::open_in`] on the real filesystem.
    pub fn open(dir: &Path) -> Result<ResultCache, CacheError> {
        ResultCache::open_in(&RealFs, dir)
    }

    /// Opens (or creates) the cache under directory `dir` on the
    /// filesystem `fs`, replaying every intact entry into the in-memory
    /// index. A fresh or empty file gets a header immediately; an
    /// existing file is validated (magic, cache format version, code
    /// version) and its torn tail — if any — truncated away.
    ///
    /// `fs` is the [`rbruntime::faultio`] seam: production callers pass
    /// [`RealFs`]; chaos harnesses pass a
    /// [`rbruntime::faultio::FaultyFs`] to sweep these recovery rules
    /// over seeded fault schedules.
    pub fn open_in(fs: &dyn Fs, dir: &Path) -> Result<ResultCache, CacheError> {
        let path = dir.join(CACHE_FILE);
        let io = |op: &'static str| {
            let path = path.clone();
            move |source: std::io::Error| CacheError::Io { path, op, source }
        };
        fs.create_dir_all(dir).map_err(io("create cache dir"))?;
        let mut file = fs.open_rw(&path).map_err(io("open"))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io("read"))?;

        let mut cache = ResultCache {
            path: path.clone(),
            file,
            index: HashMap::new(),
            entries: Vec::new(),
            file_len: 0,
            hot: HotTier::new(0),
        };
        if bytes.is_empty() {
            cache.write_all(&framed(&encode_cache_header()), "write header")?;
            return Ok(cache);
        }

        let refuse = |frame: u64, reason: String| CacheError::Refused {
            path: path.clone(),
            frame: Some(frame),
            reason,
        };
        let mut scan = FrameScan::new(&bytes);
        scan.next()
            .ok_or_else(|| refuse(0, "unreadable cache header (torn or corrupt)".into()))
            .and_then(|payload| decode_cache_header(payload).map_err(|r| refuse(0, r)))?;
        let mut frame_idx: u64 = 0;
        for frame in scan.by_ref() {
            frame_idx += 1;
            let (material, payload) = decode_entry(frame).map_err(|r| refuse(frame_idx, r))?;
            let hash = fnv1a64(&material);
            if let Some(existing) = cache.find(hash, &material) {
                if existing != payload.as_slice() {
                    return Err(refuse(
                        frame_idx,
                        "two intact entries under one key carry different payloads \
                         (purity violation or foreign file)"
                            .into(),
                    ));
                }
                continue; // benign duplicate (two workers raced); keep the first
            }
            cache.index_entry(hash, material, payload);
        }

        // Discard the torn (or checksum-mismatched) tail, if any: the
        // cells it covered will simply re-solve and re-append.
        let valid = scan.offset();
        if valid < bytes.len() {
            cache
                .file
                .set_len(valid as u64)
                .map_err(io("truncate torn tail"))?;
        }
        cache.file.seek_to(valid as u64).map_err(io("seek"))?;
        cache.file_len = valid as u64;
        Ok(cache)
    }

    /// The cached report under `key`, decoded, or `None` on a miss.
    /// Hash collisions are resolved by full material equality, so a hit
    /// is always the payload stored for exactly this key.
    pub fn lookup(&self, key: &CacheKey) -> Option<CellReport> {
        self.lookup_raw(key).map(|payload| {
            decode_report_payload(payload).expect("cache payloads are validated at open/insert")
        })
    }

    /// The raw stored payload bytes under `key` (the bit-exact report
    /// encoding), or `None` on a miss.
    pub fn lookup_raw(&self, key: &CacheKey) -> Option<&[u8]> {
        self.find(key.hash, &key.material)
    }

    /// The cached report under `key` plus the tier that served it:
    /// [`HitTier::Hot`] skipped the decode (the report came out of the
    /// decoded-report LRU), [`HitTier::Warm`] decoded the stored bytes
    /// and promoted the entry into the hot tier. Both tiers return the
    /// same report bit-for-bit — the hot tier caches decode work, not
    /// different data. `None` on a miss.
    pub fn lookup_tiered(&mut self, key: &CacheKey) -> Option<(CellReport, HitTier)> {
        let idx = self.find_idx(key.hash, &key.material)?;
        if let Some(report) = self.hot.get(idx) {
            return Some((report, HitTier::Hot));
        }
        let report = decode_report_payload(&self.entries[idx].1)
            .expect("cache payloads are validated at open/insert");
        self.hot.put(idx, report.clone());
        Some((report, HitTier::Warm))
    }

    /// Sets the hot-tier capacity (decoded reports kept resident); `0`
    /// disables the tier. Shrinking below the current residency evicts
    /// (and counts) the stalest entries immediately.
    pub fn set_hot_capacity(&mut self, cap: usize) {
        self.hot.resize(cap);
    }

    /// Total hot-tier evictions so far (monotonic).
    pub fn hot_evictions(&self) -> u64 {
        self.hot.evictions
    }

    /// Decoded reports currently resident in the hot tier.
    pub fn hot_len(&self) -> usize {
        self.hot.resident.len()
    }

    /// Whether `key` has an entry.
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.lookup_raw(key).is_some()
    }

    /// Stores `report` under `key`, appending (and flushing) one WAL
    /// frame. Idempotent: re-inserting the identical payload is a
    /// no-op; re-inserting a **different** payload under the same key
    /// is refused — it means the workload was not pure in
    /// `(self, seed)` and serving either payload would be wrong.
    pub fn insert(&mut self, key: &CacheKey, report: &CellReport) -> Result<(), CacheError> {
        let payload = encode_report_payload(report);
        if let Some(existing) = self.find(key.hash, &key.material) {
            if existing == payload.as_slice() {
                return Ok(());
            }
            return Err(CacheError::Refused {
                path: self.path.clone(),
                frame: None,
                reason: "insert under an existing key with a different payload \
                         (workload is not pure in (self, seed))"
                    .into(),
            });
        }
        self.write_all(
            &framed(&encode_entry(&key.material, &payload)),
            "append entry",
        )?;
        self.index_entry(key.hash, key.material.clone(), payload);
        // The report is already decoded — seed the hot tier for free.
        self.hot.put(self.entries.len() - 1, report.clone());
        Ok(())
    }

    /// [`ResultCache::compact_in`] on the real filesystem.
    pub fn compact(&mut self) -> Result<CompactStats, CacheError> {
        self.compact_in(&RealFs)
    }

    /// Rewrites the WAL to its minimal equivalent — the header plus
    /// exactly one frame per distinct key, in first-seen order — by
    /// writing a temp file ([`compact_temp_path`]), fsyncing it, and
    /// atomically renaming it over the live file. Lookups are
    /// unchanged byte-for-byte; only benign duplicate frames (racing
    /// workers re-appending a key replay already skips) are dropped.
    ///
    /// Crash-safe at every point: until the rename the old file is
    /// untouched (a stale temp is inert — open never reads it), and
    /// the rename itself is atomic, so a killed compaction recovers as
    /// either the old or the new file, never a hybrid. On an injected
    /// or real I/O error the cache keeps serving from the old file.
    pub fn compact_in(&mut self, fs: &dyn Fs) -> Result<CompactStats, CacheError> {
        let dir = self
            .path
            .parent()
            .map(Path::to_path_buf)
            .unwrap_or_default();
        let tmp = compact_temp_path(&dir);
        let bytes_before = self.file_len;
        // The compacted image, built from the deduped in-memory state
        // (which is exactly what a replay of the old file yields).
        let mut image = framed(&encode_cache_header());
        for (material, payload) in &self.entries {
            write_frame(&mut image, &encode_entry(material, payload));
        }

        let io = |op: &'static str, path: &Path| {
            let path = path.to_path_buf();
            move |source: std::io::Error| CacheError::Io { path, op, source }
        };
        let mut tmp_file = fs.open_rw(&tmp).map_err(io("open compaction temp", &tmp))?;
        let written = tmp_file
            .set_len(0)
            .and_then(|()| tmp_file.seek_to(0))
            .and_then(|()| append_durably(tmp_file.as_mut(), &image, TRANSIENT_RETRIES))
            .and_then(|()| tmp_file.sync_all());
        drop(tmp_file);
        if let Err(source) = written {
            let _ = fs.remove_file(&tmp);
            return Err(CacheError::Io {
                path: tmp,
                op: "write compacted image",
                source,
            });
        }
        // Publish. Between dropping the old handle and installing the
        // new one the live handle must not be written — an append
        // would land on the unlinked pre-compaction inode and vanish
        // silently — so park a poisoned handle that fails loudly if
        // anything below errors out.
        self.file = Box::new(PoisonedFile);
        fs.rename(&tmp, &self.path)
            .map_err(io("publish compacted file (rename)", &self.path))?;
        let mut file = fs
            .open_rw(&self.path)
            .map_err(io("reopen after compaction", &self.path))?;
        file.seek_to(image.len() as u64)
            .map_err(io("seek after compaction", &self.path))?;
        self.file = file;
        self.file_len = image.len() as u64;
        Ok(CompactStats {
            bytes_before,
            bytes_after: self.file_len,
            entries: self.entries.len(),
        })
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cache file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current on-disk file length in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    fn find(&self, hash: u64, material: &[u8]) -> Option<&[u8]> {
        self.find_idx(hash, material)
            .map(|i| self.entries[i].1.as_slice())
    }

    fn find_idx(&self, hash: u64, material: &[u8]) -> Option<usize> {
        self.index.get(&hash).and_then(|candidates| {
            candidates
                .iter()
                .find(|&&i| self.entries[i].0 == material)
                .copied()
        })
    }

    fn index_entry(&mut self, hash: u64, material: Vec<u8>, payload: Vec<u8>) {
        self.entries.push((material, payload));
        self.index
            .entry(hash)
            .or_default()
            .push(self.entries.len() - 1);
    }

    fn write_all(&mut self, bytes: &[u8], op: &'static str) -> Result<(), CacheError> {
        // Write and flush retry independently (`append_durably`): a
        // transient *write* failure landed nothing and may retry the
        // whole buffer, but once the write succeeded only the flush
        // may retry — re-issuing the buffer there appends it twice.
        append_durably(self.file.as_mut(), bytes, TRANSIENT_RETRIES).map_err(|source| {
            CacheError::Io {
                path: self.path.clone(),
                op,
                source,
            }
        })?;
        self.file_len += bytes.len() as u64;
        Ok(())
    }
}

/// Stands in for the live file handle during the compaction publish
/// window: if installing the post-rename handle fails, later appends
/// fail loudly instead of landing on the unlinked old inode.
struct PoisonedFile;

impl PoisonedFile {
    fn err() -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::NotConnected,
            "cache file handle was lost mid-compaction; reopen the cache",
        )
    }
}

impl FileIo for PoisonedFile {
    fn read_to_end(&mut self, _buf: &mut Vec<u8>) -> std::io::Result<usize> {
        Err(PoisonedFile::err())
    }
    fn write_all(&mut self, _buf: &[u8]) -> std::io::Result<()> {
        Err(PoisonedFile::err())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Err(PoisonedFile::err())
    }
    fn set_len(&mut self, _len: u64) -> std::io::Result<()> {
        Err(PoisonedFile::err())
    }
    fn seek_to(&mut self, _pos: u64) -> std::io::Result<()> {
        Err(PoisonedFile::err())
    }
    fn sync_all(&mut self) -> std::io::Result<()> {
        Err(PoisonedFile::err())
    }
}

/// The temp file a [`ResultCache::compact`] writes before atomically
/// renaming it over [`CACHE_FILE`]. Present only mid-compaction or
/// after a crash there; never read at open, so a stale one is inert.
pub fn compact_temp_path(dir: &Path) -> PathBuf {
    dir.join("results.wal.compact")
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    write_frame(&mut out, payload);
    out
}

/// A read-only structural summary of the cache WAL under `dir` — no
/// truncation, no header write, so it is safe to poll while another
/// process appends (a torn tail just doesn't count yet). A missing
/// file summarizes as all-zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalStats {
    /// Intact post-header entry frames, duplicates included.
    pub frames: usize,
    /// Distinct keys among those frames — what [`ResultCache::len`]
    /// reports after replay dedups. `frames - entries` is the byte
    /// debt a [`ResultCache::compact`] would reclaim.
    pub entries: usize,
    /// Total file length in bytes.
    pub file_len: u64,
}

/// The [`WalStats`] of the cache under `dir`. Read-only and tolerant:
/// scanning stops at the first torn, corrupt, or undecodable frame
/// (an opener would refuse some of those; a poll just doesn't count
/// them).
pub fn wal_stats(dir: &Path) -> Result<WalStats, CacheError> {
    let path = dir.join(CACHE_FILE);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok(WalStats {
                frames: 0,
                entries: 0,
                file_len: 0,
            })
        }
        Err(source) => {
            return Err(CacheError::Io {
                path,
                op: "read",
                source,
            })
        }
    };
    let file_len = bytes.len() as u64;
    let mut stats = WalStats {
        frames: 0,
        entries: 0,
        file_len,
    };
    let mut scan = FrameScan::new(&bytes);
    if scan.next().is_none() {
        return Ok(stats);
    }
    let mut seen = std::collections::HashSet::new();
    for frame in scan {
        // Light structural parse (no payload validation — this is a
        // poll, not an open): tag, then length-prefixed key material.
        let material = (frame.first() == Some(&TAG_CACHE_ENTRY) && frame.len() >= 5)
            .then(|| {
                let mat_len = u32::from_le_bytes(frame[1..5].try_into().unwrap()) as usize;
                frame.get(5..5 + mat_len)
            })
            .flatten();
        let Some(material) = material else { break };
        stats.frames += 1;
        if seen.insert(material.to_vec()) {
            stats.entries += 1;
        }
    }
    Ok(stats)
}

/// Counts the **distinct** intact entries in the cache under `dir`,
/// read-only (see [`wal_stats`]) — the same number
/// [`ResultCache::len`] reports after a replay, so benign duplicate
/// frames (which replay skips) never inflate it. A missing file
/// counts as zero.
pub fn entry_count(dir: &Path) -> Result<usize, CacheError> {
    Ok(wal_stats(dir)?.entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rbbench-cache-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn weird_report() -> CellReport {
        CellReport {
            id: "n3/mu1/lam0.5".into(),
            seed: u64::MAX - 17,
            metrics: vec![
                Metric::exact("EX", 2.598_712_3e-9),
                Metric::Scalar {
                    name: "weird".into(),
                    value: f64::NAN,
                    std_err: f64::INFINITY,
                    count: u64::MAX,
                    ok: true,
                },
                Metric::Distribution {
                    name: "X_hist".into(),
                    ok: true,
                    dist: DistSummary {
                        lo: -0.0,
                        hi: 4.5,
                        counts: vec![3, 0, 7],
                        underflow: 1,
                        overflow: 9,
                        count: 20,
                        mean: 1.75,
                        quantiles: vec![Quantile {
                            p: 0.99,
                            x: f64::NAN,
                        }],
                    },
                },
            ],
        }
    }

    #[test]
    fn hit_returns_bit_exact_payload_across_reopen() {
        let dir = scratch("roundtrip");
        let key = cache_key("w", "p=1", 7);
        let report = weird_report();
        {
            let mut cache = ResultCache::open(&dir).unwrap();
            assert!(cache.lookup(&key).is_none());
            cache.insert(&key, &report).unwrap();
            assert_eq!(cache.len(), 1);
        }
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        let got = cache.lookup(&key).expect("hit after reopen");
        assert_eq!(got.id, report.id);
        assert_eq!(got.seed, report.seed);
        assert_eq!(
            cache.lookup_raw(&key).unwrap(),
            encode_report_payload(&report).as_slice(),
            "stored bytes are the exact encoding"
        );
        for (a, b) in report.metrics.iter().zip(&got.metrics) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.value().to_bits(), b.value().to_bits(), "{}", a.name());
            assert_eq!(a.std_err().to_bits(), b.std_err().to_bits());
            assert_eq!(a.count(), b.count());
        }
        let (a, b) = (
            report.metrics[2].dist().unwrap(),
            got.metrics[2].dist().unwrap(),
        );
        assert_eq!(a.lo.to_bits(), b.lo.to_bits(), "-0.0 support survives");
        assert_eq!(a.quantiles[0].x.to_bits(), b.quantiles[0].x.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_decode_rejects_trailing_bytes_truncation_and_bad_tags() {
        let bytes = encode_report_payload(&weird_report());
        let mut trailing = bytes.clone();
        trailing.push(0xAB);
        assert!(decode_report_payload(&trailing)
            .unwrap_err()
            .contains("trailing"));
        assert!(decode_report_payload(&bytes[..bytes.len() - 3])
            .unwrap_err()
            .contains("truncated"));
        // The first metric's tag sits right after id, seed and count.
        let mut bad_tag = bytes.clone();
        bad_tag[4 + "n3/mu1/lam0.5".len() + 8 + 4] = 0x77;
        assert!(decode_report_payload(&bad_tag)
            .unwrap_err()
            .contains("unknown metric tag"));
        assert!(validate_report_roundtrip(&weird_report()).is_ok());
    }

    #[test]
    fn insert_is_idempotent_but_refuses_impure_payloads() {
        let dir = scratch("idempotent");
        let mut cache = ResultCache::open(&dir).unwrap();
        let key = cache_key("w", "p", 1);
        let report = weird_report();
        cache.insert(&key, &report).unwrap();
        cache.insert(&key, &report).unwrap(); // no-op, no error
        assert_eq!(cache.len(), 1);
        let mut different = report.clone();
        different.metrics[0] = Metric::exact("EX", 3.0);
        let err = cache.insert(&key, &different).unwrap_err();
        assert!(matches!(err, CacheError::Refused { .. }), "{err}");
        assert!(err.to_string().contains("not pure"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_resolved_by_rerun() {
        let dir = scratch("torn");
        let (key_a, key_b) = (cache_key("w", "a", 1), cache_key("w", "b", 2));
        {
            let mut cache = ResultCache::open(&dir).unwrap();
            cache.insert(&key_a, &weird_report()).unwrap();
            cache.insert(&key_b, &weird_report()).unwrap();
        }
        let path = dir.join(CACHE_FILE);
        let bytes = std::fs::read(&path).unwrap();
        // Chop into the middle of the last frame.
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let cache = ResultCache::open(&dir).unwrap();
        assert!(cache.contains(&key_a));
        assert!(!cache.contains(&key_b), "torn entry is gone, not served");
        assert!(
            std::fs::metadata(&path).unwrap().len() < bytes.len() as u64,
            "tail truncated"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_header_is_refused_with_a_clear_message() {
        let dir = scratch("header");
        let _ = ResultCache::open(&dir).unwrap();
        let path = dir.join(CACHE_FILE);
        // Forge a file whose first frame is not a cache header.
        let mut forged = Vec::new();
        write_frame(&mut forged, &[0x77, 1, 2, 3]);
        std::fs::write(&path, &forged).unwrap();
        let err = ResultCache::open(&dir).unwrap_err();
        assert!(matches!(err, CacheError::Refused { .. }), "{err}");
        assert!(err.to_string().contains("delete the cache"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_bump_in_header_is_refused() {
        let dir = scratch("version");
        let _ = ResultCache::open(&dir).unwrap();
        let path = dir.join(CACHE_FILE);
        let mut header = encode_cache_header();
        let at = 1 + MAGIC.len();
        let bumped = (CACHE_FORMAT_VERSION + 1).to_le_bytes();
        header[at..at + 2].copy_from_slice(&bumped);
        let mut forged = Vec::new();
        write_frame(&mut forged, &header);
        std::fs::write(&path, &forged).unwrap();
        let err = ResultCache::open(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("format version"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Appends a byte-for-byte copy of the cache's first entry frame —
    /// the on-disk shape left by two workers racing the same key.
    fn duplicate_first_entry_frame(dir: &Path) {
        let path = dir.join(CACHE_FILE);
        let bytes = std::fs::read(&path).unwrap();
        let mut scan = FrameScan::new(&bytes);
        scan.next().expect("header");
        let start = scan.offset();
        scan.next().expect("an entry to duplicate");
        let end = scan.offset();
        let dup = bytes[start..end].to_vec();
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(&dup)
            .unwrap();
    }

    #[test]
    fn transient_flush_failure_appends_exactly_one_frame() {
        use rbruntime::faultio::{FaultPlan, FaultyFs};
        let dir = scratch("flush-retry");
        drop(ResultCache::open(&dir).unwrap()); // header via the real fs
        let fs = FaultyFs::new(FaultPlan::new(0, 0).with_rate(0).with_flush_transients(1));
        let mut cache = ResultCache::open_in(&fs, &dir).unwrap();
        let key = cache_key("w", "p", 3);
        cache
            .insert(&key, &weird_report())
            .expect("append absorbs the flush fault");
        assert_eq!(fs.faults_injected(), 1, "the flush fault fired");
        let stats = wal_stats(&dir).unwrap();
        assert_eq!(
            (stats.frames, stats.entries),
            (1, 1),
            "one frame on disk — a flush retry must not re-append"
        );
        let reopened = ResultCache::open(&dir).unwrap();
        assert_eq!(reopened.len(), 1);
        assert_eq!(
            reopened.lookup_raw(&key).unwrap(),
            encode_report_payload(&weird_report()).as_slice()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_count_matches_len_after_a_duplicate_frame() {
        let dir = scratch("dup-count");
        {
            let mut cache = ResultCache::open(&dir).unwrap();
            cache
                .insert(&cache_key("w", "a", 1), &weird_report())
                .unwrap();
            cache
                .insert(&cache_key("w", "b", 2), &weird_report())
                .unwrap();
        }
        duplicate_first_entry_frame(&dir);
        let stats = wal_stats(&dir).unwrap();
        assert_eq!(stats.frames, 3, "the duplicate frame is on disk");
        assert_eq!(stats.entries, 2, "but it is not a distinct entry");
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(
            entry_count(&dir).unwrap(),
            cache.len(),
            "entry_count must agree with what replay dedups to"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_drops_duplicates_preserves_lookups_and_shrinks() {
        let dir = scratch("compact");
        let keys = [
            cache_key("w", "a", 1),
            cache_key("w", "b", 2),
            cache_key("w", "c", 3),
        ];
        {
            let mut cache = ResultCache::open(&dir).unwrap();
            for key in &keys {
                cache.insert(key, &weird_report()).unwrap();
            }
        }
        duplicate_first_entry_frame(&dir);
        let mut cache = ResultCache::open(&dir).unwrap();
        let before: Vec<Vec<u8>> = keys
            .iter()
            .map(|k| cache.lookup_raw(k).unwrap().to_vec())
            .collect();
        let stats = cache.compact().unwrap();
        assert!(
            stats.bytes_after < stats.bytes_before,
            "duplicates existed, so the file strictly shrinks ({stats:?})"
        );
        assert_eq!(stats.entries, 3);
        assert!(
            !compact_temp_path(&dir).exists(),
            "the temp was renamed away"
        );
        let on_disk = wal_stats(&dir).unwrap();
        assert_eq!((on_disk.frames, on_disk.entries), (3, 3));
        assert_eq!(on_disk.file_len, stats.bytes_after);
        for (key, want) in keys.iter().zip(&before) {
            assert_eq!(cache.lookup_raw(key).unwrap(), want.as_slice());
        }
        // The compacted cache still appends, and a reopen replays it.
        let extra = cache_key("w", "d", 4);
        cache.insert(&extra, &weird_report()).unwrap();
        drop(cache);
        let cache = ResultCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 4);
        for (key, want) in keys.iter().zip(&before) {
            assert_eq!(cache.lookup_raw(key).unwrap(), want.as_slice());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_compaction_leaves_the_old_file_serving() {
        use rbruntime::faultio::{FaultKind, FaultPlan, FaultyFs};
        let dir = scratch("compact-fail");
        let key = cache_key("w", "a", 1);
        {
            let mut cache = ResultCache::open(&dir).unwrap();
            cache.insert(&key, &weird_report()).unwrap();
        }
        duplicate_first_entry_frame(&dir);
        let mut cache = ResultCache::open(&dir).unwrap();
        let fs = FaultyFs::new(
            FaultPlan::new(11, 11)
                .with_rate(1000)
                .with_kinds(&[FaultKind::DiskFull]),
        );
        let err = cache.compact_in(&fs).unwrap_err();
        assert!(matches!(err, CacheError::Io { .. }), "{err}");
        // The old file is untouched (duplicate and all) and the cache
        // keeps serving and appending through its original handle.
        assert_eq!(wal_stats(&dir).unwrap().frames, 2);
        assert!(cache.contains(&key));
        cache
            .insert(&cache_key("w", "b", 2), &weird_report())
            .unwrap();
        // A later compaction on a healthy filesystem succeeds.
        let stats = cache.compact_in(&RealFs).unwrap();
        assert_eq!(stats.entries, 2);
        assert_eq!(ResultCache::open(&dir).unwrap().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hot_tier_skips_decode_and_evicts_least_recently_used() {
        let dir = scratch("hot");
        let keys = [
            cache_key("w", "a", 1),
            cache_key("w", "b", 2),
            cache_key("w", "c", 3),
        ];
        let mut cache = ResultCache::open(&dir).unwrap();
        cache.set_hot_capacity(2);
        for key in &keys {
            cache.insert(key, &weird_report()).unwrap();
        }
        // Inserts seed the tier; capacity 2 evicted the oldest (a).
        assert_eq!(cache.hot_len(), 2);
        assert_eq!(cache.hot_evictions(), 1);
        let (hot, tier) = cache.lookup_tiered(&keys[2]).unwrap();
        assert_eq!(tier, HitTier::Hot);
        assert_eq!(
            encode_report_payload(&hot).as_slice(),
            cache.lookup_raw(&keys[2]).unwrap(),
            "hot tier returns the stored report bit-for-bit"
        );
        // `a` fell out: served warm, promoted back, evicting the
        // now-least-recent `b`.
        assert_eq!(cache.lookup_tiered(&keys[0]).unwrap().1, HitTier::Warm);
        assert_eq!(cache.hot_evictions(), 2);
        assert_eq!(cache.lookup_tiered(&keys[0]).unwrap().1, HitTier::Hot);
        assert_eq!(cache.lookup_tiered(&keys[1]).unwrap().1, HitTier::Warm);
        // Capacity 0 disables the tier entirely.
        cache.set_hot_capacity(0);
        assert_eq!(cache.hot_len(), 0);
        assert_eq!(cache.lookup_tiered(&keys[2]).unwrap().1, HitTier::Warm);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_count_is_read_only_and_tail_tolerant() {
        let dir = scratch("count");
        assert_eq!(entry_count(&dir).unwrap(), 0, "missing file counts 0");
        {
            let mut cache = ResultCache::open(&dir).unwrap();
            cache
                .insert(&cache_key("w", "a", 1), &weird_report())
                .unwrap();
            cache
                .insert(&cache_key("w", "b", 2), &weird_report())
                .unwrap();
        }
        assert_eq!(entry_count(&dir).unwrap(), 2);
        let path = dir.join(CACHE_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert_eq!(entry_count(&dir).unwrap(), 1, "torn tail not counted");
        assert_eq!(
            std::fs::read(&path).unwrap().len(),
            bytes.len() - 3,
            "entry_count must not truncate"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
