//! Durable log-structured design-cache store: crash-safe appends,
//! torn-write recovery, generation stamps and online compaction.
//!
//! Where [`snapshot`](crate::snapshot) persists the cache as a
//! whole-file image written once at clean exit, this module keeps an
//! **append log** that grows by one record per computed design while
//! the process serves. A `kill -9` loses at most the appends since the
//! last fsync (bounded by [`StoreConfig::flush_every`] /
//! [`StoreConfig::flush_interval`]), not the whole session.
//!
//! # File format (log version 1)
//!
//! All integers are little-endian.
//!
//! ```text
//! header   := magic (8 bytes, "FSMFARML") version (u32) reserved (u32)
//! record   := fingerprint (u64) verify (u64) generation (u32)
//!             payload_len (u32) payload (payload_len bytes) checksum (u64)
//! checksum := FNV-1a over fingerprint_le ‖ verify_le ‖ generation_le(u64) ‖ payload
//! ```
//!
//! The payload is the same self-contained [`Design`] encoding the
//! snapshot format uses ([`encode_design`](crate::encode_design)), so
//! both formats share one validating codec. The generation stamp
//! records which store *session* (one [`DesignStore::open`] to the next)
//! wrote the record; compaction can drop generations older than a TTL.
//!
//! # Recovery
//!
//! [`DesignStore::open`] replays the log front to back:
//!
//! - a record whose framing is intact but whose checksum or payload
//!   decode fails is **skipped and counted** ([`StoreStats::skipped`]) —
//!   the classic snapshot corruption policy, never a panic;
//! - when the bytes run out mid-record — a torn tail from a crash
//!   between `write` and `fsync` — the file is **truncated back to the
//!   end of the last framed record** ([`StoreStats::truncated`] counts
//!   truncation events) and appending resumes from there;
//! - a legacy [`SNAPSHOT_MAGIC`](crate::SNAPSHOT_MAGIC) file is migrated
//!   in place: its records are replayed oldest-first into a fresh log
//!   (written atomically, temp + rename) and counted in
//!   [`StoreStats::migrated`]. PR 4 snapshot files therefore keep
//!   loading, once, after which the file is a log.
//!
//! # Compaction
//!
//! [`DesignStore::compact`] rewrites the log atomically keeping, per
//! fingerprint, only the newest record, optionally bounded by a maximum
//! record count ([`CompactPolicy::keep`], newest win) and a generation
//! TTL ([`CompactPolicy::max_generations`]). The append handle is
//! reopened on the rewritten file, so compaction is safe on a live
//! store between appends. It streams the log twice (index, then copy)
//! and never holds more than one decoded design, so its memory follows
//! the record count rather than the log's size.

use crate::fnv::Fnv1a;
use crate::snapshot::{
    decode_design, decode_snapshot, encode_design, SnapshotError, SNAPSHOT_MAGIC,
};
use fsmgen::Design;
use std::fmt;
use std::fs;
use std::io::{BufReader, BufWriter, Read, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Magic bytes identifying a log-structured design store.
pub const STORE_MAGIC: [u8; 8] = *b"FSMFARML";

/// The log format version this build writes and reads.
pub const STORE_VERSION: u32 = 1;

/// Fixed byte length of the log header (magic + version + reserved).
const STORE_HEADER_LEN: usize = 16;

/// Fixed byte length of a record's frame prefix
/// (fingerprint + verify + generation + payload_len).
const FRAME_PREFIX_LEN: usize = 8 + 8 + 4 + 4;

/// Tuning knobs for append durability.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Fsync after this many unflushed appends (0 behaves as 1: every
    /// append syncs).
    pub flush_every: usize,
    /// Fsync when the oldest unflushed append is at least this old,
    /// checked on the next append or explicit [`DesignStore::flush`].
    pub flush_interval: Duration,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            flush_every: 8,
            flush_interval: Duration::from_millis(200),
        }
    }
}

/// What compaction keeps. The default policy only deduplicates
/// (newest record per fingerprint wins).
#[derive(Debug, Clone, Copy, Default)]
pub struct CompactPolicy {
    /// Keep at most this many records (the newest ones).
    pub keep: Option<usize>,
    /// Drop records more than this many generations older than the
    /// current session's generation (`0` keeps only records written by
    /// the current session).
    pub max_generations: Option<u32>,
}

/// Cumulative durability counters for one store handle. Mirrored into
/// the farm metrics JSON as the `store` block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Records appended through this handle.
    pub appends: u64,
    /// Fsync batches issued (every append is written immediately; this
    /// counts the durability points).
    pub flushes: u64,
    /// Valid records replayed from the log on open.
    pub recovered: u64,
    /// Corrupt-but-framed records skipped on open or re-read.
    pub skipped: u64,
    /// Torn-tail truncation events (crash recovery cut the file back to
    /// the last framed record).
    pub truncated: u64,
    /// Records dropped by compaction (stale generations, over-budget
    /// cold entries, superseded duplicates and corrupt frames).
    pub compacted: u64,
    /// Records migrated from a legacy snapshot-format file.
    pub migrated: u64,
}

/// A whole-store failure: the file cannot serve as a log at all.
/// Per-record corruption is *not* an error — see the module docs.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// The file could not be read, written or renamed.
    Io(std::io::Error),
    /// The file is neither a log ([`STORE_MAGIC`]) nor a legacy
    /// snapshot ([`SNAPSHOT_MAGIC`](crate::SNAPSHOT_MAGIC)).
    BadMagic,
    /// The file declares a format version this build does not understand.
    UnsupportedVersion(u32),
    /// The file ends before its header does (and does not look like a
    /// torn store header, which would be recovered instead).
    TruncatedHeader,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::BadMagic => f.write_str("not a design store (bad magic)"),
            StoreError::UnsupportedVersion(v) => write!(
                f,
                "unsupported store version {v} (this build reads version {STORE_VERSION})"
            ),
            StoreError::TruncatedHeader => f.write_str("store file shorter than its header"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io(io) => StoreError::Io(io),
            SnapshotError::BadMagic => StoreError::BadMagic,
            SnapshotError::UnsupportedVersion(v) => StoreError::UnsupportedVersion(v),
            _ => StoreError::TruncatedHeader,
        }
    }
}

/// One successfully replayed store record.
#[derive(Debug, Clone)]
pub struct StoreRecord {
    /// The job fingerprint the design was cached under.
    pub fingerprint: u64,
    /// The independent verification digest of the producing job.
    pub verify: u64,
    /// The store session that wrote the record (0 for records read out
    /// of a legacy snapshot file).
    pub generation: u32,
    /// The design itself.
    pub design: Arc<Design>,
}

/// What one compaction pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Records surviving in the rewritten log.
    pub kept: usize,
    /// Records dropped (duplicates, stale generations, over-budget
    /// entries and corrupt frames).
    pub dropped: usize,
}

/// Which on-disk format [`read_design_file`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreFormat {
    /// A legacy one-shot snapshot (`FSMFARMS`).
    SnapshotV1,
    /// A log-structured store (`FSMFARML`).
    LogV1,
}

impl fmt::Display for StoreFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreFormat::SnapshotV1 => f.write_str("snapshot v1"),
            StoreFormat::LogV1 => f.write_str("log v1"),
        }
    }
}

/// The result of a read-only decode of either persistence format.
#[derive(Debug, Clone)]
pub struct DecodedStore {
    /// Records that replayed cleanly, oldest first.
    pub records: Vec<StoreRecord>,
    /// Corrupt-but-framed records that were skipped.
    pub skipped: usize,
    /// Torn tails found (0 or 1; the file is *not* modified).
    pub truncated: usize,
    /// The format the file was in.
    pub format: StoreFormat,
}

/// The FNV-1a digest guarding one log record. It covers the frame
/// fields as well as the payload, so a flipped byte anywhere inside a
/// record — including its length field, which changes the hashed
/// payload slice — is detected.
fn store_checksum(fingerprint: u64, verify: u64, generation: u32, payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(fingerprint);
    h.write_u64(verify);
    h.write_u64(u64::from(generation));
    h.write(payload);
    h.finish()
}

fn encode_record(fingerprint: u64, verify: u64, generation: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_PREFIX_LEN + payload.len() + 8);
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&verify.to_le_bytes());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&store_checksum(fingerprint, verify, generation, payload).to_le_bytes());
    out
}

fn store_header() -> [u8; STORE_HEADER_LEN] {
    let mut h = [0u8; STORE_HEADER_LEN];
    h[..8].copy_from_slice(&STORE_MAGIC);
    h[8..12].copy_from_slice(&STORE_VERSION.to_le_bytes());
    h
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(a)
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(a)
}

/// What replaying a log body found.
struct Replay {
    records: Vec<StoreRecord>,
    skipped: usize,
    /// Byte offset just past the last framed record: everything beyond
    /// is a torn tail.
    good_end: usize,
    max_generation: u32,
}

/// One framed log record as read back from a log.
struct Frame {
    fingerprint: u64,
    verify: u64,
    generation: u32,
    payload: Vec<u8>,
    /// `false` when the stored checksum does not match the frame.
    intact: bool,
}

impl Frame {
    /// Bytes the frame occupies in the log.
    fn framed_len(&self) -> usize {
        FRAME_PREFIX_LEN + self.payload.len() + 8
    }

    /// Reads the next frame from `log`, or `None` where the log ends:
    /// cleanly, or in a torn tail (bytes running out mid-prefix or
    /// mid-payload, which a corrupted length looks like too).
    fn read(log: &mut impl Read) -> std::io::Result<Option<Frame>> {
        let mut prefix = [0u8; FRAME_PREFIX_LEN];
        if let Err(e) = log.read_exact(&mut prefix) {
            return match e.kind() {
                std::io::ErrorKind::UnexpectedEof => Ok(None),
                _ => Err(e),
            };
        }
        let payload_len = u64::from(read_u32(&prefix, 20));
        // `take` allocates only as bytes arrive, so a corrupted length
        // cannot ask for more memory than the log holds.
        let mut payload = Vec::new();
        log.take(payload_len + 8).read_to_end(&mut payload)?;
        if payload.len() as u64 != payload_len + 8 {
            return Ok(None);
        }
        let stored = read_u64(&payload, payload_len as usize);
        payload.truncate(payload_len as usize);
        let (fingerprint, verify, generation) = (
            read_u64(&prefix, 0),
            read_u64(&prefix, 8),
            read_u32(&prefix, 16),
        );
        Ok(Some(Frame {
            intact: stored == store_checksum(fingerprint, verify, generation, &payload),
            fingerprint,
            verify,
            generation,
            payload,
        }))
    }
}

/// Replays log `bytes` (which must carry a valid header) front to back.
/// Framed-but-corrupt records are skipped and counted; the first
/// out-of-bytes condition ends the replay with `good_end` marking the
/// torn-tail boundary.
fn replay_log(bytes: &[u8]) -> Result<Replay, StoreError> {
    debug_assert!(bytes.len() >= STORE_HEADER_LEN);
    let version = read_u32(bytes, 8);
    if version != STORE_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let mut replay = Replay {
        records: Vec::new(),
        skipped: 0,
        good_end: STORE_HEADER_LEN,
        max_generation: 0,
    };
    let mut log = &bytes[STORE_HEADER_LEN..];
    while let Some(frame) = Frame::read(&mut log)? {
        replay.good_end += frame.framed_len();
        if !frame.intact {
            replay.skipped += 1;
            continue;
        }
        match decode_design(&frame.payload) {
            Ok(design) => {
                replay.max_generation = replay.max_generation.max(frame.generation);
                replay.records.push(StoreRecord {
                    fingerprint: frame.fingerprint,
                    verify: frame.verify,
                    generation: frame.generation,
                    design: Arc::new(design),
                });
            }
            Err(_) => replay.skipped += 1,
        }
    }
    Ok(replay)
}

/// Writes a complete log (header + `records` in order) atomically: a
/// sibling temporary file is fsync'd and renamed over `path`.
fn write_log_atomic(path: &Path, records: &[StoreRecord]) -> Result<(), StoreError> {
    write_frames_atomic(
        path,
        records.iter().map(|rec| {
            Ok(encode_record(
                rec.fingerprint,
                rec.verify,
                rec.generation,
                &encode_design(&rec.design),
            ))
        }),
    )
}

/// Writes a log header and the encoded `frames` to a sibling temporary
/// file, fsyncs it, renames it over `path` and fsyncs the directory so
/// the rename itself survives a crash.
fn write_frames_atomic(
    path: &Path,
    frames: impl Iterator<Item = Result<Vec<u8>, StoreError>>,
) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = BufWriter::new(fs::File::create(&tmp)?);
        f.write_all(&store_header())?;
        for frame in frames {
            f.write_all(&frame?)?;
        }
        f.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// An open, appendable design store.
///
/// Obtained from [`DesignStore::open`], which also returns the records
/// recovered from disk (oldest first — insert them in order and the
/// newest record ends up most recently used).
#[derive(Debug)]
pub struct DesignStore {
    path: PathBuf,
    file: fs::File,
    config: StoreConfig,
    /// The generation stamped onto this session's appends.
    generation: u32,
    stats: StoreStats,
    pending: usize,
    last_flush: Instant,
}

impl DesignStore {
    /// Opens (or creates) the store at `path`, running crash recovery,
    /// and returns the handle plus the recovered records oldest-first.
    ///
    /// A missing or empty file becomes a fresh generation-1 log. A
    /// legacy snapshot file is migrated (see the module docs). A log
    /// with a torn tail is truncated back to its last framed record.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] for I/O failures and files that are
    /// neither format (the caller should fall back to a cold cache,
    /// never overwrite the file).
    pub fn open(
        path: &Path,
        config: StoreConfig,
    ) -> Result<(DesignStore, Vec<StoreRecord>), StoreError> {
        let mut stats = StoreStats::default();
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };

        let (records, generation) = if bytes.is_empty() {
            // Fresh store (or an empty file left by `touch`).
            write_log_atomic(path, &[])?;
            (Vec::new(), 1)
        } else if bytes.len() < STORE_HEADER_LEN {
            if STORE_MAGIC.starts_with(&bytes[..bytes.len().min(8)]) {
                // A header torn mid-write: recover to a fresh log.
                write_log_atomic(path, &[])?;
                stats.truncated += 1;
                (Vec::new(), 1)
            } else {
                return Err(StoreError::TruncatedHeader);
            }
        } else if bytes[..8] == SNAPSHOT_MAGIC {
            // Legacy one-shot snapshot: migrate to a log. Snapshot
            // records are saved most-recently-used first; the log wants
            // oldest first, so reverse.
            let decoded = decode_snapshot(&bytes)?;
            let mut records: Vec<StoreRecord> = decoded
                .records
                .into_iter()
                .rev()
                .map(|r| StoreRecord {
                    fingerprint: r.fingerprint,
                    verify: r.verify,
                    generation: 1,
                    design: r.design,
                })
                .collect();
            stats.skipped += decoded.skipped as u64;
            stats.migrated += records.len() as u64;
            write_log_atomic(path, &records)?;
            records.shrink_to_fit();
            (records, 2)
        } else if bytes[..8] == STORE_MAGIC {
            let replay = replay_log(&bytes)?;
            if replay.good_end < bytes.len() {
                // Torn tail: cut the file back to the last framed record.
                let f = fs::OpenOptions::new().write(true).open(path)?;
                f.set_len(replay.good_end as u64)?;
                f.sync_all()?;
                stats.truncated += 1;
            }
            stats.recovered += replay.records.len() as u64;
            stats.skipped += replay.skipped as u64;
            (replay.records, replay.max_generation.saturating_add(1))
        } else {
            return Err(StoreError::BadMagic);
        };

        let file = fs::OpenOptions::new().append(true).open(path)?;
        Ok((
            DesignStore {
                path: path.to_path_buf(),
                file,
                config,
                generation,
                stats,
                pending: 0,
                last_flush: Instant::now(),
            },
            records,
        ))
    }

    /// The generation stamped onto this session's appends.
    #[must_use]
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Cumulative durability counters for this handle.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The path the store lives at.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one design record. The bytes are written immediately;
    /// the fsync is batched per [`StoreConfig`] so an unclean death
    /// loses at most one flush interval of appends.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the write or fsync fails. The
    /// in-memory cache is unaffected either way.
    pub fn append(
        &mut self,
        fingerprint: u64,
        verify: u64,
        design: &Design,
    ) -> Result<(), StoreError> {
        let payload = encode_design(design);
        let record = encode_record(fingerprint, verify, self.generation, &payload);
        self.file.write_all(&record)?;
        self.stats.appends += 1;
        self.pending += 1;
        if self.pending >= self.config.flush_every.max(1)
            || self.last_flush.elapsed() >= self.config.flush_interval
        {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces any unflushed appends to disk.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the fsync fails.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if self.pending > 0 {
            self.sync()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_all()?;
        self.pending = 0;
        self.last_flush = Instant::now();
        self.stats.flushes += 1;
        Ok(())
    }

    /// Compacts the log: flushes, re-reads the file, keeps the newest
    /// record per fingerprint subject to `policy`, rewrites the log
    /// atomically and reopens the append handle on the new file.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] when the re-read, rewrite or reopen
    /// fails; the original log is intact unless the final rename
    /// happened, so a crash mid-compaction never loses records.
    pub fn compact(&mut self, policy: &CompactPolicy) -> Result<CompactReport, StoreError> {
        self.flush()?;
        // Two streaming passes, so memory follows the record count, not
        // the log's size: the first indexes every record that replays
        // cleanly (decoding each design only to validate it), the second
        // copies the kept ones.
        let open_log = || -> Result<BufReader<fs::File>, StoreError> {
            let mut log = BufReader::new(fs::File::open(&self.path)?);
            let mut header = [0u8; STORE_HEADER_LEN];
            match log.read_exact(&mut header) {
                Ok(()) if header[..8] == STORE_MAGIC => {}
                Err(e) if e.kind() != std::io::ErrorKind::UnexpectedEof => return Err(e.into()),
                _ => return Err(StoreError::BadMagic),
            }
            match read_u32(&header, 8) {
                STORE_VERSION => Ok(log),
                version => Err(StoreError::UnsupportedVersion(version)),
            }
        };
        let mut log = open_log()?;
        // (fingerprint, generation) per record, `None` for a corrupt one.
        let mut records: Vec<Option<(u64, u32)>> = Vec::new();
        while let Some(frame) = Frame::read(&mut log)? {
            let clean = frame.intact && decode_design(&frame.payload).is_ok();
            records.push(clean.then_some((frame.fingerprint, frame.generation)));
        }

        // Newest record per fingerprint wins; then the generation TTL;
        // then the size budget (newest kept).
        let min_generation = policy
            .max_generations
            .map(|ttl| self.generation.saturating_sub(ttl));
        let mut seen = std::collections::HashSet::new();
        let mut keep = vec![false; records.len()];
        let mut kept = 0;
        for (i, record) in records.iter().enumerate().rev() {
            let Some((fingerprint, generation)) = *record else {
                continue;
            };
            if policy.keep.is_some_and(|limit| kept >= limit) {
                break;
            }
            if !seen.insert(fingerprint) {
                continue;
            }
            if min_generation.is_some_and(|min| generation < min) {
                continue;
            }
            keep[i] = true;
            kept += 1;
        }

        let mut log = open_log()?;
        let mut keep = keep.into_iter();
        let frames = std::iter::from_fn(|| loop {
            match Frame::read(&mut log) {
                Err(e) => return Some(Err(e.into())),
                Ok(None) => return None,
                Ok(Some(frame)) if keep.next() == Some(true) => {
                    return Some(Ok(encode_record(
                        frame.fingerprint,
                        frame.verify,
                        frame.generation,
                        &frame.payload,
                    )));
                }
                Ok(Some(_)) => {}
            }
        });
        write_frames_atomic(&self.path, frames)?;
        self.file = fs::OpenOptions::new().append(true).open(&self.path)?;
        self.pending = 0;

        let report = CompactReport {
            kept,
            dropped: records.len() - kept,
        };
        self.stats.compacted += report.dropped as u64;
        Ok(report)
    }
}

/// Read-only decode of a persistence file in either format (sniffed by
/// magic), for `fsmgen cache info` / `verify`. The file is never
/// modified — torn tails are *reported*, not truncated.
///
/// # Errors
///
/// Returns [`StoreError`] for I/O failures and whole-file format
/// problems; per-record corruption is reported through
/// [`DecodedStore::skipped`] / [`DecodedStore::truncated`].
pub fn read_design_file(path: &Path) -> Result<DecodedStore, StoreError> {
    let bytes = fs::read(path)?;
    if bytes.len() < STORE_HEADER_LEN {
        return Err(StoreError::TruncatedHeader);
    }
    if bytes[..8] == SNAPSHOT_MAGIC {
        let decoded = decode_snapshot(&bytes)?;
        return Ok(DecodedStore {
            records: decoded
                .records
                .into_iter()
                .map(|r| StoreRecord {
                    fingerprint: r.fingerprint,
                    verify: r.verify,
                    generation: 0,
                    design: r.design,
                })
                .collect(),
            skipped: decoded.skipped,
            truncated: 0,
            format: StoreFormat::SnapshotV1,
        });
    }
    if bytes[..8] != STORE_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let replay = replay_log(&bytes)?;
    Ok(DecodedStore {
        truncated: usize::from(replay.good_end < bytes.len()),
        records: replay.records,
        skipped: replay.skipped,
        format: StoreFormat::LogV1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::write_snapshot_file;
    use fsmgen::Designer;
    use fsmgen_traces::BitTrace;

    fn sample_design(history: usize) -> Design {
        let t: BitTrace = "0000 1000 1011 1101 1110 1111".parse().unwrap();
        Designer::new(history).design_from_trace(&t).unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fsmgen-store-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn eager() -> StoreConfig {
        StoreConfig {
            flush_every: 1,
            flush_interval: Duration::from_millis(0),
        }
    }

    #[test]
    fn fresh_store_round_trips_across_reopen() {
        let path = tmp("roundtrip.flog");
        let _ = fs::remove_file(&path);
        let design = sample_design(2);
        {
            let (mut store, recovered) = DesignStore::open(&path, eager()).unwrap();
            assert!(recovered.is_empty());
            assert_eq!(store.generation(), 1);
            store.append(7, 11, &design).unwrap();
            store.append(13, 17, &design).unwrap();
            let stats = store.stats();
            assert_eq!(stats.appends, 2);
            assert!(stats.flushes >= 2);
        }
        let (store, recovered) = DesignStore::open(&path, eager()).unwrap();
        assert_eq!(store.generation(), 2, "generation advances per open");
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[0].fingerprint, 7);
        assert_eq!(recovered[1].fingerprint, 13);
        assert_eq!(recovered[0].generation, 1);
        assert_eq!(*recovered[1].design, design);
        assert_eq!(store.stats().recovered, 2);
        assert_eq!(store.stats().truncated, 0);
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let path = tmp("torn.flog");
        let _ = fs::remove_file(&path);
        let design = sample_design(2);
        {
            let (mut store, _) = DesignStore::open(&path, eager()).unwrap();
            store.append(1, 2, &design).unwrap();
            store.append(3, 4, &design).unwrap();
        }
        // Tear the last record: chop 5 bytes off the tail.
        let len = fs::metadata(&path).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);

        let (store, recovered) = DesignStore::open(&path, eager()).unwrap();
        assert_eq!(recovered.len(), 1, "the torn record is gone");
        assert_eq!(recovered[0].fingerprint, 1);
        assert_eq!(store.stats().truncated, 1);
        assert_eq!(store.stats().skipped, 0);
        // The file was physically cut: a re-read sees no torn tail.
        let decoded = read_design_file(&path).unwrap();
        assert_eq!(decoded.truncated, 0);
        assert_eq!(decoded.records.len(), 1);
    }

    #[test]
    fn appends_resume_after_torn_tail_recovery() {
        let path = tmp("resume.flog");
        let _ = fs::remove_file(&path);
        let design = sample_design(2);
        {
            let (mut store, _) = DesignStore::open(&path, eager()).unwrap();
            store.append(1, 2, &design).unwrap();
        }
        // Simulate a crash mid-append: garbage half-record at the tail.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB; 13]).unwrap();
        drop(f);
        {
            let (mut store, recovered) = DesignStore::open(&path, eager()).unwrap();
            assert_eq!(recovered.len(), 1);
            assert_eq!(store.stats().truncated, 1);
            store.append(5, 6, &design).unwrap();
        }
        let (_, recovered) = DesignStore::open(&path, eager()).unwrap();
        assert_eq!(recovered.len(), 2);
        assert_eq!(recovered[1].fingerprint, 5);
    }

    #[test]
    fn bitflip_is_skipped_not_fatal() {
        let path = tmp("bitflip.flog");
        let _ = fs::remove_file(&path);
        let design = sample_design(2);
        {
            let (mut store, _) = DesignStore::open(&path, eager()).unwrap();
            store.append(1, 2, &design).unwrap();
            store.append(3, 4, &design).unwrap();
        }
        // Flip one payload byte inside the first record.
        let mut bytes = fs::read(&path).unwrap();
        bytes[STORE_HEADER_LEN + FRAME_PREFIX_LEN + 2] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let (store, recovered) = DesignStore::open(&path, eager()).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].fingerprint, 3);
        assert_eq!(store.stats().skipped, 1);
        assert_eq!(store.stats().truncated, 0);
    }

    #[test]
    fn legacy_snapshot_migrates_once() {
        let path = tmp("legacy.flog");
        let _ = fs::remove_file(&path);
        let design = sample_design(2);
        // A PR 4 snapshot, MRU-first: 9 was used more recently than 7.
        write_snapshot_file(&path, [(9u64, 10u64, &design), (7u64, 8u64, &design)]).unwrap();

        let (store, recovered) = DesignStore::open(&path, eager()).unwrap();
        assert_eq!(store.stats().migrated, 2);
        assert_eq!(recovered.len(), 2);
        // Oldest first: the log order reverses the snapshot's MRU-first.
        assert_eq!(recovered[0].fingerprint, 7);
        assert_eq!(recovered[1].fingerprint, 9);
        assert_eq!(recovered[0].generation, 1);
        assert_eq!(store.generation(), 2);
        drop(store);

        // The file is now a log; a second open is a plain recovery.
        let decoded = read_design_file(&path).unwrap();
        assert_eq!(decoded.format, StoreFormat::LogV1);
        let (store, recovered) = DesignStore::open(&path, eager()).unwrap();
        assert_eq!(store.stats().migrated, 0);
        assert_eq!(store.stats().recovered, 2);
        assert_eq!(recovered.len(), 2);
    }

    #[test]
    fn compaction_dedups_and_bounds() {
        let path = tmp("compact.flog");
        let _ = fs::remove_file(&path);
        let d2 = sample_design(2);
        let d3 = sample_design(3);
        let (mut store, _) = DesignStore::open(&path, eager()).unwrap();
        store.append(1, 2, &d2).unwrap();
        store.append(1, 2, &d3).unwrap(); // supersedes fingerprint 1
        store.append(3, 4, &d2).unwrap();
        store.append(5, 6, &d2).unwrap();

        let report = store.compact(&CompactPolicy::default()).unwrap();
        assert_eq!(
            report,
            CompactReport {
                kept: 3,
                dropped: 1
            }
        );
        assert_eq!(store.stats().compacted, 1);
        let decoded = read_design_file(&path).unwrap();
        assert_eq!(decoded.records.len(), 3);
        assert_eq!(*decoded.records[0].design, d3, "newest duplicate wins");

        // Size budget: keep the newest two.
        let report = store
            .compact(&CompactPolicy {
                keep: Some(2),
                ..CompactPolicy::default()
            })
            .unwrap();
        assert_eq!(report.kept, 2);
        let decoded = read_design_file(&path).unwrap();
        let fps: Vec<u64> = decoded.records.iter().map(|r| r.fingerprint).collect();
        assert_eq!(fps, vec![3, 5]);

        // The store stays appendable after compaction.
        store.append(7, 8, &d2).unwrap();
        drop(store);
        let (_, recovered) = DesignStore::open(&path, eager()).unwrap();
        assert_eq!(recovered.len(), 3);
    }

    #[test]
    fn compaction_generation_ttl_drops_stale_sessions() {
        let path = tmp("ttl.flog");
        let _ = fs::remove_file(&path);
        let design = sample_design(2);
        {
            let (mut store, _) = DesignStore::open(&path, eager()).unwrap();
            store.append(1, 2, &design).unwrap(); // generation 1
        }
        let (mut store, _) = DesignStore::open(&path, eager()).unwrap();
        assert_eq!(store.generation(), 2);
        store.append(3, 4, &design).unwrap(); // generation 2

        // ttl 0: only the current session survives.
        let report = store
            .compact(&CompactPolicy {
                max_generations: Some(0),
                ..CompactPolicy::default()
            })
            .unwrap();
        assert_eq!(
            report,
            CompactReport {
                kept: 1,
                dropped: 1
            }
        );
        let decoded = read_design_file(&path).unwrap();
        assert_eq!(decoded.records.len(), 1);
        assert_eq!(decoded.records[0].fingerprint, 3);
        assert_eq!(decoded.records[0].generation, 2);
    }

    #[test]
    fn compaction_drops_corrupt_frames() {
        let path = tmp("compact-corrupt.flog");
        let _ = fs::remove_file(&path);
        let design = sample_design(2);
        {
            let (mut store, _) = DesignStore::open(&path, eager()).unwrap();
            store.append(1, 2, &design).unwrap();
            store.append(3, 4, &design).unwrap();
        }
        let mut bytes = fs::read(&path).unwrap();
        bytes[STORE_HEADER_LEN + FRAME_PREFIX_LEN + 2] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let (mut store, _) = DesignStore::open(&path, eager()).unwrap();
        assert_eq!(store.stats().skipped, 1);
        let report = store.compact(&CompactPolicy::default()).unwrap();
        assert_eq!(
            report,
            CompactReport {
                kept: 1,
                dropped: 1
            }
        );
        // After compaction the log verifies clean.
        let decoded = read_design_file(&path).unwrap();
        assert_eq!(decoded.skipped, 0);
        assert_eq!(decoded.records.len(), 1);
    }

    #[test]
    fn batched_flush_accounting() {
        let path = tmp("flush.flog");
        let _ = fs::remove_file(&path);
        let design = sample_design(2);
        let (mut store, _) = DesignStore::open(
            &path,
            StoreConfig {
                flush_every: 100,
                flush_interval: Duration::from_secs(3600),
            },
        )
        .unwrap();
        for i in 0..5 {
            store.append(i, i, &design).unwrap();
        }
        assert_eq!(
            store.stats().flushes,
            0,
            "under both thresholds: no fsync yet"
        );
        store.flush().unwrap();
        assert_eq!(store.stats().flushes, 1);
        store.flush().unwrap();
        assert_eq!(
            store.stats().flushes,
            1,
            "flush with nothing pending is a no-op"
        );
    }

    #[test]
    fn empty_and_garbage_files() {
        let path = tmp("empty.flog");
        fs::write(&path, b"").unwrap();
        let (store, recovered) = DesignStore::open(&path, eager()).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(store.generation(), 1);
        drop(store);

        let garbage = tmp("garbage.flog");
        fs::write(&garbage, b"definitely not a store file").unwrap();
        assert!(matches!(
            DesignStore::open(&garbage, eager()),
            Err(StoreError::BadMagic)
        ));
        // The garbage file is left untouched.
        assert_eq!(fs::read(&garbage).unwrap(), b"definitely not a store file");

        let torn_header = tmp("torn-header.flog");
        fs::write(&torn_header, &STORE_MAGIC[..5]).unwrap();
        let (store, recovered) = DesignStore::open(&torn_header, eager()).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(store.stats().truncated, 1);
    }

    #[test]
    fn read_design_file_reports_torn_tail_without_mutating() {
        let path = tmp("readonly.flog");
        let _ = fs::remove_file(&path);
        let design = sample_design(2);
        {
            let (mut store, _) = DesignStore::open(&path, eager()).unwrap();
            store.append(1, 2, &design).unwrap();
        }
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0x77; 9]).unwrap();
        drop(f);
        let len_before = fs::metadata(&path).unwrap().len();
        let decoded = read_design_file(&path).unwrap();
        assert_eq!(decoded.truncated, 1);
        assert_eq!(decoded.records.len(), 1);
        assert_eq!(decoded.format, StoreFormat::LogV1);
        assert_eq!(fs::metadata(&path).unwrap().len(), len_before, "read-only");
    }
}
