//! Durable, replayable, fault-tolerant ingest: rotated per-shard WAL
//! segments + periodic snapshots + compaction + deterministic recovery.
//!
//! The streaming pipeline of the parent module is lossless while the
//! process lives; this module makes it lossless across a `kill -9` and
//! honest about its losses across disk failure. Artifacts per shard, all
//! in one directory guarded by a single-writer lock ([`lock`]):
//!
//! * **WAL segments** (`wal-<shard>-<first_seq>.seg`) — rotated,
//!   length-bounded append-only logs of every report the shard *consumes*,
//!   written before the state transition it causes. Each segment header
//!   names the shard, the configuration fingerprint, the first global
//!   sequence number inside and `records_before` — how many records this
//!   shard appended to *earlier* segments (including counted losses), the
//!   stitch line recovery audits against. Records are length-prefixed and
//!   CRC32-checksummed, so a torn tail is detected and truncated, never
//!   misparsed. Logging consumed rather than merely accepted reports is
//!   deliberate: drop classification (late / duplicate / future-jump) is a
//!   *function of state*, so replaying the same consumed sequence
//!   reproduces the same drops, counters and windows bit for bit.
//! * **Snapshot** (`snap-<shard>.bin`, atomic tmp+rename) — the full
//!   [`ShardState`] plus its [`ShardCounts`] ledger, written every
//!   [`DurableConfig::snapshot_every_reports`] consumed reports. A
//!   checksummed-valid snapshot is trusted as self-contained state: it
//!   records the last consumed sequence (`coverage_seq`), how many records
//!   it covers and the shard's total appended count, and recovery replays
//!   only records beyond `coverage_seq`.
//! * **Compaction** — after a snapshot publishes, every sealed segment
//!   whose records all fall at or below `coverage_seq` is deleted
//!   ([`MetricsSnapshot::wal_segments_compacted`]), so disk usage stays
//!   bounded by the snapshot cadence plus the segment size instead of
//!   growing with the stream.
//! * **Fault tolerance** — every file operation goes through the
//!   [`WalFs`] abstraction ([`fs`]); transient failures (EIO, ENOSPC,
//!   interrupted syscalls) are retried under a bounded
//!   exponential-backoff [`IoPolicy`] (counted `wal_io_retries`). When the
//!   budget is exhausted (`wal_io_gave_up`) the shard **degrades instead
//!   of panicking**: it keeps computing with durability off, counting
//!   every record it can no longer log as `wal_gap_records`, and the run
//!   completes with [`Durability::Degraded`]. Recovery likewise never
//!   invents data: records that were logged but are no longer replayable
//!   (compacted segments whose snapshot died) surface as counted
//!   `wal_lost_records`, and the conservation laws
//!   ([`MetricsSnapshot::fully_accounted`],
//!   [`MetricsSnapshot::durably_accounted`]) still balance.
//!
//! **Recovery invariants** (tested in `tests/durable.rs` and below):
//!
//! 1. *Bit-identical state or a typed gap*: after recovery, each shard's
//!    canonical state encoding equals a fresh fold of
//!    [`ShardState::consume`] over its durably-logged record sequence —
//!    or, when loss was injected, the books report exactly how many
//!    records are gone ([`MetricsSnapshot::durability_gap`]).
//! 2. *Bit-identical completion*: crash at any point, recover, re-feed the
//!    stream, and the final [`IngestSummary`], pre-finish state digest and
//!    deterministic metrics projection equal an uninterrupted run's.
//! 3. *Conservation*: `ingested + dropped + wal_lost_records == offered`
//!    and `wal_records + wal_gap_records + wal_lost_records == offered`
//!    at quiescence, under any seeded fault schedule — with the other
//!    declared laws, [`MetricsSnapshot::check_laws`] finds none broken.
//!
//! Sequence numbers are global (1-based, assigned by the producer in
//! stream order), so each shard's log holds a strictly increasing
//! subsequence and `min` over shards of the last logged seq is a safe
//! resume point ([`DurablePipeline::resume_seq`]); re-feeding the full
//! stream is always correct and is what [`DurablePipeline::run`] expects.
//!
//! Durability of the files themselves is `fsync`-gated
//! ([`DurableConfig::fsync`], default off): without it a *machine* crash
//! can lose buffered bytes, but recovery still lands on a valid
//! checksummed prefix — the guarantee degrades to "replayable from an
//! earlier point", never to corruption. [`FaultyFs::machine_crash`]
//! simulates exactly that power cut (including an fsync that lied).

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::{
    GatewayLane, IngestConfig, IngestMetrics, IngestPipeline, IngestReport, IngestSummary,
    KillSwitch, PendingMinute, RunEnd, ShardCounts, ShardState,
};
use crate::streaming::{MotifTemplate, OnlinePearson, WindowAccumulator};
use wtts_timeseries::Minute;

pub mod fs;
pub mod lock;

pub use fs::{FaultKind, FaultSpec, FaultyFs, IoPolicy, StdFs, WalFile, WalFs};
pub use lock::{LockError, LOCK_FILE};

use fs::with_retry;
use lock::{Acquired, LockGuard};

// ---------------------------------------------------------------------------
// Checksums and digests (no external deps: CRC32/IEEE and FNV-1a by hand)
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables for [`crc32`]: `CRC_TABLES[0]` is the classic
/// bytewise table of the reflected IEEE polynomial, and `CRC_TABLES[k][i]`
/// is the CRC of byte `i` followed by `k` zero bytes, so one lookup per
/// byte folds eight input bytes per step.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC32 (IEEE 802.3, reflected, init/final xor `0xFFFF_FFFF`) — the
/// polynomial every torn-tail detector speaks. Slicing-by-8: eight bytes
/// per step through [`CRC_TABLES`], bytewise over the tail; the bits equal
/// the one-table bytewise CRC.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// FNV-1a offset basis (the seed of every digest fold in this module).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64_bytes(mut acc: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        acc = (acc ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    acc
}

/// Folds one `u64` into an FNV-1a accumulator (little-endian bytes).
pub(crate) fn fnv1a64_u64(acc: u64, v: u64) -> u64 {
    fnv1a64_bytes(acc, &v.to_le_bytes())
}

// ---------------------------------------------------------------------------
// Little-endian encode/decode helpers
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("durable ingest: {what}"),
    )
}

/// A bounds-checked little-endian reader over a byte slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| corrupt("length overflow"))?;
        if end > self.buf.len() {
            return Err(corrupt("truncated record"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length prefix that must be satisfiable by the remaining bytes
    /// (each element at least `min_width` bytes) — rejects hostile lengths
    /// before any allocation.
    fn len(&mut self, min_width: usize) -> io::Result<usize> {
        let n = self.u64()? as usize;
        if n.saturating_mul(min_width.max(1)) > self.buf.len() - self.pos {
            return Err(corrupt("implausible length prefix"));
        }
        Ok(n)
    }

    fn done(&self) -> io::Result<()> {
        if self.pos != self.buf.len() {
            return Err(corrupt("trailing bytes"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Canonical state encoding
// ---------------------------------------------------------------------------

/// Fingerprint of everything that determines state semantics: a snapshot
/// or WAL written under one configuration must not be replayed under
/// another (different thresholds or shard routing would silently diverge).
pub(crate) fn config_fingerprint(config: &IngestConfig, n_templates: usize) -> u64 {
    let mut acc = FNV_OFFSET;
    acc = fnv1a64_u64(acc, config.window as u64);
    acc = fnv1a64_u64(acc, config.bin_minutes as u64);
    acc = fnv1a64_u64(acc, config.lateness_horizon as u64);
    acc = fnv1a64_u64(acc, config.max_future_jump as u64);
    acc = fnv1a64_u64(acc, config.dominance_phi.to_bits());
    acc = fnv1a64_u64(acc, config.motif_threshold.to_bits());
    acc = fnv1a64_u64(acc, n_templates as u64);
    acc = fnv1a64_u64(acc, config.shards.max(1) as u64);
    acc
}

fn encode_baseline(buf: &mut Vec<u8>, b: Option<(Minute, u64, u64)>) {
    match b {
        None => buf.push(0),
        Some((at, cin, cout)) => {
            buf.push(1);
            put_u32(buf, at.0);
            put_u64(buf, cin);
            put_u64(buf, cout);
        }
    }
}

fn decode_baseline(cur: &mut Cursor) -> io::Result<Option<(Minute, u64, u64)>> {
    match cur.u8()? {
        0 => Ok(None),
        1 => Ok(Some((Minute(cur.u32()?), cur.u64()?, cur.u64()?))),
        _ => Err(corrupt("bad baseline tag")),
    }
}

fn encode_lane(buf: &mut Vec<u8>, lane: &GatewayLane) {
    put_u64(buf, lane.gateway);
    put_u64(buf, lane.reports);
    put_u64(buf, lane.sealed);
    put_u64(buf, lane.matched);
    put_u64(buf, lane.novel);
    put_u64(buf, lane.insufficient);
    put_u32(buf, lane.watermark);
    put_u32(buf, lane.max_seen);
    put_u64(buf, lane.support.len() as u64);
    for &s in &lane.support {
        put_u64(buf, s);
    }
    let (current_start, bins, seen) = lane.accumulator.raw_parts();
    put_u32(buf, current_start);
    put_u64(buf, bins.len() as u64);
    for &b in bins {
        put_f64(buf, b);
    }
    for &s in seen {
        buf.push(s as u8);
    }
    put_u64(buf, lane.pending.len() as u64);
    for pm in &lane.pending {
        put_u32(buf, pm.minute);
        put_u64(buf, pm.contributions.len() as u64);
        for &(device, bytes) in &pm.contributions {
            put_u32(buf, device);
            put_f64(buf, bytes);
        }
    }
    put_u64(buf, lane.devices.len() as u64);
    for (&id, d) in &lane.devices {
        put_u32(buf, id);
        encode_baseline(buf, d.last);
        encode_baseline(buf, d.suspect);
        let (n, parts) = d.dominance.raw_parts();
        put_u64(buf, n);
        for p in parts {
            put_f64(buf, p);
        }
    }
}

fn decode_lane(
    cur: &mut Cursor,
    config: &IngestConfig,
    n_templates: usize,
) -> io::Result<GatewayLane> {
    let gateway = cur.u64()?;
    let mut lane = GatewayLane::new(gateway, config, n_templates);
    lane.reports = cur.u64()?;
    lane.sealed = cur.u64()?;
    lane.matched = cur.u64()?;
    lane.novel = cur.u64()?;
    lane.insufficient = cur.u64()?;
    lane.watermark = cur.u32()?;
    lane.max_seen = cur.u32()?;
    let n_support = cur.len(8)?;
    if n_support != n_templates {
        return Err(corrupt("support width mismatch"));
    }
    for s in lane.support.iter_mut() {
        *s = cur.u64()?;
    }
    let current_start = cur.u32()?;
    let n_bins = cur.len(8)?;
    let mut bins = Vec::with_capacity(n_bins);
    for _ in 0..n_bins {
        bins.push(cur.f64()?);
    }
    let mut seen = Vec::with_capacity(n_bins);
    for _ in 0..n_bins {
        seen.push(match cur.u8()? {
            0 => false,
            1 => true,
            _ => return Err(corrupt("bad seen flag")),
        });
    }
    // Geometry is validated by from_raw_parts against (window, bin_minutes);
    // reject mismatches as corruption rather than panicking.
    if n_bins != lane.accumulator.raw_parts().1.len() {
        return Err(corrupt("window geometry mismatch"));
    }
    lane.accumulator = WindowAccumulator::from_raw_parts(
        config.window,
        config.bin_minutes,
        current_start,
        bins,
        seen,
    );
    let n_pending = cur.len(12)?;
    for _ in 0..n_pending {
        let minute = cur.u32()?;
        let n_contrib = cur.len(12)?;
        let mut contributions = Vec::with_capacity(n_contrib);
        for _ in 0..n_contrib {
            contributions.push((cur.u32()?, cur.f64()?));
        }
        lane.pending.push_back(PendingMinute {
            minute,
            contributions,
        });
    }
    let n_devices = cur.len(4)?;
    for _ in 0..n_devices {
        let id = cur.u32()?;
        let last = decode_baseline(cur)?;
        let suspect = decode_baseline(cur)?;
        let n = cur.u64()?;
        let mut parts = [0.0f64; 5];
        for p in parts.iter_mut() {
            *p = cur.f64()?;
        }
        lane.devices.insert(
            id,
            super::DeviceState {
                last,
                suspect,
                dominance: OnlinePearson::from_raw_parts(n, parts),
            },
        );
    }
    Ok(lane)
}

/// Canonical byte encoding of a full shard state (lanes sorted by gateway,
/// devices by id, floats as IEEE-754 bits). Two states are bit-identical
/// iff their encodings are equal — the comparison primitive of every
/// recovery test.
pub(crate) fn encode_state(state: &ShardState) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u64(&mut buf, state.last_seq);
    put_u64(&mut buf, state.processed);
    for v in state.counts.values() {
        put_u64(&mut buf, v);
    }
    put_u64(&mut buf, state.lanes.len() as u64);
    for lane in state.lanes.values() {
        encode_lane(&mut buf, lane);
    }
    buf
}

fn decode_state(bytes: &[u8], config: &IngestConfig, n_templates: usize) -> io::Result<ShardState> {
    let mut cur = Cursor::new(bytes);
    let last_seq = cur.u64()?;
    let processed = cur.u64()?;
    let counts = ShardCounts::try_from_values(|| cur.u64())?;
    let n_lanes = cur.len(64)?;
    let mut lanes = BTreeMap::new();
    for _ in 0..n_lanes {
        let lane = decode_lane(&mut cur, config, n_templates)?;
        lanes.insert(lane.gateway, lane);
    }
    cur.done()?;
    Ok(ShardState {
        lanes,
        counts,
        last_seq,
        processed,
    })
}

/// FNV-1a digest of the canonical state encoding. Cheap to combine across
/// shards and stable across processes (no address-dependent iteration
/// order leaks into it).
pub(crate) fn state_digest(state: &ShardState) -> u64 {
    fnv1a64_bytes(FNV_OFFSET, &encode_state(state))
}

// ---------------------------------------------------------------------------
// Segment and snapshot formats
// ---------------------------------------------------------------------------

const SEG_MAGIC: &[u8; 8] = b"WTTSSEG1";
const SNAP_MAGIC: &[u8; 8] = b"WTTSSNAP";
const SNAP_VERSION: u32 = 2;
/// Segment header: magic + fingerprint + shard + first_seq + records_before.
const SEG_HEADER_LEN: usize = 36;
/// Fixed payload width of a WAL record (seq, gateway, device, at, cum_in,
/// cum_out); the length prefix exists for forward evolution.
const WAL_PAYLOAD_LEN: usize = 40;
/// On-disk bytes of one record: u32 length + u32 CRC + payload.
const RECORD_LEN: usize = 8 + WAL_PAYLOAD_LEN;
/// Flush the append buffer once it exceeds this many bytes (and always
/// before a snapshot, on segment rotation, and at stream end).
const WAL_FLUSH_BYTES: usize = 64 * 1024;

/// Segment file name: the sequence number is zero-padded so lexical order
/// equals numeric order for any directory listing a human reads.
fn seg_path(dir: &Path, shard: usize, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{shard}-{first_seq:020}.seg"))
}

/// Parses `wal-<shard>-<first_seq>.seg` back into its parts.
fn parse_seg_name(name: &str) -> Option<(usize, u64)> {
    let rest = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    let (shard, seq) = rest.split_once('-')?;
    Some((shard.parse().ok()?, seq.parse().ok()?))
}

fn snap_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("snap-{shard}.bin"))
}

fn encode_seg_header(
    shard: usize,
    fingerprint: u64,
    first_seq: u64,
    records_before: u64,
) -> [u8; SEG_HEADER_LEN] {
    let mut h = [0u8; SEG_HEADER_LEN];
    h[0..8].copy_from_slice(SEG_MAGIC);
    h[8..16].copy_from_slice(&fingerprint.to_le_bytes());
    h[16..20].copy_from_slice(&(shard as u32).to_le_bytes());
    h[20..28].copy_from_slice(&first_seq.to_le_bytes());
    h[28..36].copy_from_slice(&records_before.to_le_bytes());
    h
}

fn encode_wal_payload(seq: u64, r: &IngestReport) -> [u8; WAL_PAYLOAD_LEN] {
    let mut p = [0u8; WAL_PAYLOAD_LEN];
    p[0..8].copy_from_slice(&seq.to_le_bytes());
    p[8..16].copy_from_slice(&r.gateway.to_le_bytes());
    p[16..20].copy_from_slice(&r.device.to_le_bytes());
    p[20..24].copy_from_slice(&r.at.0.to_le_bytes());
    p[24..32].copy_from_slice(&r.cum_in.to_le_bytes());
    p[32..40].copy_from_slice(&r.cum_out.to_le_bytes());
    p
}

fn decode_wal_payload(p: &[u8]) -> io::Result<(u64, IngestReport)> {
    let mut cur = Cursor::new(p);
    let seq = cur.u64()?;
    let report = IngestReport {
        gateway: cur.u64()?,
        device: cur.u32()?,
        at: Minute(cur.u32()?),
        cum_in: cur.u64()?,
        cum_out: cur.u64()?,
    };
    cur.done()?;
    Ok((seq, report))
}

/// Result of scanning one WAL segment.
struct SegScan {
    /// Whether the segment had a complete, matching header. A headerless
    /// shell (the process died inside the header write) carries nothing.
    header_ok: bool,
    /// The shard's appended-record count (durable + counted losses) when
    /// this segment was opened — the stitch line recovery audits.
    records_before: u64,
    /// Decoded records in append order.
    records: Vec<(u64, IngestReport)>,
    /// File length of the valid checksummed prefix (header included).
    valid_len: u64,
    /// 1 if a torn/corrupt tail was found (and everything after the valid
    /// prefix discarded), else 0.
    torn: u64,
}

/// Reads a segment, stopping at the first torn or corrupt record. A bad
/// checksum anywhere truncates the view at the last valid record — a torn
/// tail must never be half-applied. Header mismatches (magic, fingerprint,
/// shard) are hard errors: that is configuration confusion, not disk wear.
fn scan_segment(
    fs: &dyn WalFs,
    path: &Path,
    shard: usize,
    fingerprint: u64,
) -> io::Result<SegScan> {
    let bytes = fs.read(path)?;
    if bytes.len() < SEG_HEADER_LEN {
        return Ok(SegScan {
            header_ok: false,
            records_before: 0,
            records: Vec::new(),
            valid_len: 0,
            torn: 1,
        });
    }
    if &bytes[0..8] != SEG_MAGIC {
        return Err(corrupt("bad segment magic"));
    }
    let fp = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if fp != fingerprint {
        return Err(corrupt("segment written under a different configuration"));
    }
    let sh = u32::from_le_bytes(bytes[16..20].try_into().unwrap());
    if sh as usize != shard {
        return Err(corrupt("segment shard mismatch"));
    }
    let records_before = u64::from_le_bytes(bytes[28..36].try_into().unwrap());
    let mut records = Vec::new();
    let mut pos = SEG_HEADER_LEN;
    let mut torn = 0u64;
    while pos < bytes.len() {
        if bytes.len() - pos < 8 {
            torn = 1;
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len != WAL_PAYLOAD_LEN || bytes.len() - pos - 8 < len {
            torn = 1;
            break;
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            torn = 1;
            break;
        }
        records.push(decode_wal_payload(payload)?);
        pos += 8 + len;
    }
    Ok(SegScan {
        header_ok: true,
        records_before,
        records,
        valid_len: pos as u64,
        torn,
    })
}

/// Outcome of loading a shard snapshot.
enum SnapLoad {
    /// No snapshot file.
    Absent,
    /// A file exists but fails its checksum (torn or bit-rotted) — counted
    /// `snapshots_discarded`; recovery proceeds from the segments alone.
    Discarded,
    /// A checksummed-valid snapshot: trusted as self-contained state.
    Loaded {
        /// Last consumed global sequence number ("C"): replay only
        /// records with seq > C.
        coverage_seq: u64,
        /// `state.processed` at snapshot time ("S"): how many records the
        /// snapshot covers.
        covered_records: u64,
        /// The shard's total appended-record count at snapshot time
        /// (durable + previously counted losses, "T"); `T - S` is the
        /// inherited durability gap carried across recoveries.
        total_records: u64,
        /// The decoded shard state.
        state: ShardState,
    },
}

fn load_snapshot(
    fs: &dyn WalFs,
    path: &Path,
    shard: usize,
    fingerprint: u64,
    config: &IngestConfig,
    n_templates: usize,
) -> io::Result<SnapLoad> {
    let bytes = match fs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(SnapLoad::Absent),
        Err(e) => return Err(e),
    };
    if bytes.len() < 4 {
        return Ok(SnapLoad::Discarded);
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let crc = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc32(body) != crc {
        return Ok(SnapLoad::Discarded);
    }
    // Past the checksum, mismatches mean configuration confusion, not
    // disk damage: refuse loudly instead of silently starting over.
    let mut cur = Cursor::new(body);
    if cur.take(8)? != SNAP_MAGIC {
        return Err(corrupt("bad snapshot magic"));
    }
    if cur.u32()? != SNAP_VERSION {
        return Err(corrupt("unsupported snapshot version"));
    }
    if cur.u32()? != shard as u32 {
        return Err(corrupt("snapshot shard mismatch"));
    }
    if cur.u64()? != fingerprint {
        return Err(corrupt("snapshot written under a different configuration"));
    }
    let coverage_seq = cur.u64()?;
    let covered_records = cur.u64()?;
    let total_records = cur.u64()?;
    let state_len = cur.len(1)?;
    let state = decode_state(cur.take(state_len)?, config, n_templates)?;
    cur.done()?;
    Ok(SnapLoad::Loaded {
        coverage_seq,
        covered_records,
        total_records,
        state,
    })
}

// ---------------------------------------------------------------------------
// Configuration and typed outcomes
// ---------------------------------------------------------------------------

/// Durable-run configuration.
#[derive(Clone)]
pub struct DurableConfig {
    /// Directory holding the per-shard segments, snapshots and lock.
    pub dir: PathBuf,
    /// Snapshot cadence: write a shard snapshot after this many consumed
    /// reports since the last one (checked at batch boundaries).
    pub snapshot_every_reports: u64,
    /// `fsync` WAL flushes and snapshot files. Off by default: crash
    /// consistency against *process* death never needs it, and the CI
    /// smoke runs both ways.
    pub fsync: bool,
    /// Rotate the active WAL segment once it would exceed this many bytes.
    /// Together with the snapshot cadence this bounds disk usage: sealed
    /// segments below snapshot coverage are compacted away.
    pub segment_bytes: u64,
    /// Fence a stale (dead-owner) or corrupt lock instead of refusing.
    /// A live owner or a fingerprint mismatch is refused regardless.
    pub takeover: bool,
    /// Retry policy for transient I/O faults (EIO, ENOSPC, interrupts).
    pub io: IoPolicy,
    /// The filesystem to run against: [`StdFs`] in production,
    /// [`FaultyFs`] under fault injection.
    pub fs: Arc<dyn WalFs>,
}

impl std::fmt::Debug for DurableConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableConfig")
            .field("dir", &self.dir)
            .field("snapshot_every_reports", &self.snapshot_every_reports)
            .field("fsync", &self.fsync)
            .field("segment_bytes", &self.segment_bytes)
            .field("takeover", &self.takeover)
            .field("io", &self.io)
            .finish_non_exhaustive()
    }
}

impl DurableConfig {
    /// A configuration with default cadence (64k reports), 8 MiB
    /// segments, no fsync, no takeover, the default retry policy and the
    /// real filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> DurableConfig {
        DurableConfig {
            dir: dir.into(),
            snapshot_every_reports: 64 * 1024,
            fsync: false,
            segment_bytes: 8 * 1024 * 1024,
            takeover: false,
            io: IoPolicy::default(),
            fs: Arc::new(StdFs),
        }
    }
}

/// Why a durable pipeline could not be created or recovered.
#[derive(Debug)]
pub enum DurableError {
    /// The single-writer lock was not acquired (held, stale without
    /// takeover, fingerprint mismatch, or corrupt).
    Lock(LockError),
    /// An I/O or data-integrity error outside the lock protocol.
    Io(io::Error),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Lock(e) => write!(f, "durable ingest lock: {e}"),
            DurableError::Io(e) => write!(f, "durable ingest i/o: {e}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<LockError> for DurableError {
    fn from(e: LockError) -> DurableError {
        DurableError::Lock(e)
    }
}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> DurableError {
        DurableError::Io(e)
    }
}

/// The durability status of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Every consumed report is durably logged (or already covered by a
    /// snapshot): recovery reproduces this run bit for bit.
    Durable,
    /// I/O faults exhausted the retry budget at some point: the pipeline
    /// kept computing, but `gap` consumed records are not replayable from
    /// disk. The books still balance — the gap is exactly
    /// `wal_gap_records + wal_lost_records`.
    Degraded {
        /// Number of consumed-but-not-durable records.
        gap: u64,
    },
}

/// Internal typed give-up: a buffered flush (or segment open) failed after
/// retries, losing `lost_records` buffered records. Callers feed the count
/// into degraded-mode gap accounting instead of dropping it silently.
struct WalGaveUp {
    lost_records: u64,
    error: io::Error,
}

impl std::fmt::Display for WalGaveUp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wal i/o gave up after retries ({} buffered records lost): {}",
            self.lost_records, self.error
        )
    }
}

// ---------------------------------------------------------------------------
// Per-shard durability hooks (owned by the shard worker)
// ---------------------------------------------------------------------------

/// A sealed (rotated, fully flushed) segment still on disk.
struct SegmentInfo {
    path: PathBuf,
    /// Last global sequence number inside — compacted once a snapshot's
    /// coverage reaches it.
    last_seq: u64,
}

/// The segment currently receiving appends.
struct ActiveSegment {
    file: Box<dyn WalFile>,
    path: PathBuf,
    /// Last sequence number appended (buffered or flushed).
    last_seq: u64,
    /// Bytes flushed to the file, header included (rotation bound).
    flushed_len: u64,
    /// Records flushed to the file.
    records: u64,
}

/// The durable side of one shard worker: its active segment, sealed
/// segments awaiting compaction and snapshot cadence. Created by
/// [`DurablePipeline`] and moved into the worker thread; every method is
/// called from that one thread. All methods are infallible from the
/// worker's perspective — exhausted I/O retries flip the hook into
/// degraded mode (counted, typed) instead of surfacing errors that would
/// kill the shard.
pub(crate) struct ShardDurability {
    shard: usize,
    dir: PathBuf,
    fs: Arc<dyn WalFs>,
    io: IoPolicy,
    metrics: Arc<IngestMetrics>,
    fingerprint: u64,
    fsync: bool,
    segment_bytes: u64,
    snapshot_every: u64,
    last_snapshot_processed: u64,
    snap: PathBuf,
    snap_tmp: PathBuf,
    /// Records appended over the shard's lifetime: durable + counted
    /// losses. Stamped as `records_before` into each new segment header
    /// and as `total_records` into snapshots.
    total_records: u64,
    active: Option<ActiveSegment>,
    sealed: Vec<SegmentInfo>,
    /// Appended-but-unflushed record bytes; a crash drops these.
    buf: Vec<u8>,
    buf_records: u64,
    degraded: bool,
}

impl ShardDurability {
    fn new(
        shard: usize,
        durable: &DurableConfig,
        fingerprint: u64,
        metrics: Arc<IngestMetrics>,
    ) -> ShardDurability {
        let snap = snap_path(&durable.dir, shard);
        ShardDurability {
            shard,
            dir: durable.dir.clone(),
            fs: Arc::clone(&durable.fs),
            io: durable.io.clone(),
            metrics,
            fingerprint,
            fsync: durable.fsync,
            // A segment must at least fit its header and one record.
            segment_bytes: durable
                .segment_bytes
                .max((SEG_HEADER_LEN + RECORD_LEN) as u64),
            snapshot_every: durable.snapshot_every_reports.max(1),
            last_snapshot_processed: 0,
            snap_tmp: snap.with_extension("tmp"),
            snap,
            total_records: 0,
            active: None,
            sealed: Vec::new(),
            buf: Vec::new(),
            buf_records: 0,
            degraded: false,
        }
    }

    fn note_gap(&self, n: u64) {
        if n > 0 {
            self.metrics.wal_gap_records.add(n);
        }
    }

    /// Flips the hook into degraded mode: `lost` already-counted flush
    /// losses plus any straggler buffered records become the durability
    /// gap; the active segment and compaction queue are abandoned (their
    /// durable prefix stays on disk for recovery).
    fn enter_degraded(&mut self, lost: u64) {
        self.degraded = true;
        let gap = lost + self.buf_records;
        self.note_gap(gap);
        self.buf.clear();
        self.buf_records = 0;
        self.active = None;
        self.sealed.clear();
    }

    /// Appends a batch of reports about to be consumed, in order. Each
    /// record is buffered exactly as a one-at-a-time append would buffer
    /// it, so flush, rotation and every file operation land on the same
    /// record boundaries whatever the batch size. Infallible: exhausted
    /// retries degrade the shard instead of erroring.
    pub(crate) fn append(&mut self, batch: &[(u64, IngestReport)]) {
        for (seq, report) in batch {
            self.append_one(*seq, report);
        }
    }

    /// Appends one report (buffered; flushed on threshold, before
    /// snapshots, on rotation, and at stream end).
    fn append_one(&mut self, seq: u64, report: &IngestReport) {
        self.total_records += 1;
        if self.degraded {
            self.note_gap(1);
            return;
        }
        // Rotate when this record would push the active segment past its
        // bound (never rotate an empty segment: one oversized record per
        // segment beats an infinite rotation loop).
        if let Some(a) = &self.active {
            let projected = a.flushed_len + (self.buf.len() + RECORD_LEN) as u64;
            if projected > self.segment_bytes && (a.records > 0 || self.buf_records > 0) {
                self.seal_active();
            }
        }
        if !self.degraded && self.active.is_none() {
            self.open_segment(seq);
        }
        if self.degraded {
            self.note_gap(1);
            return;
        }
        let payload = encode_wal_payload(seq, report);
        self.buf
            .extend_from_slice(&(WAL_PAYLOAD_LEN as u32).to_le_bytes());
        self.buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        self.buf.extend_from_slice(&payload);
        self.buf_records += 1;
        self.active
            .as_mut()
            .expect("active segment after open")
            .last_seq = seq;
        if self.buf.len() >= WAL_FLUSH_BYTES {
            if let Err(gave) = self.flush_inner() {
                self.enter_degraded(gave.lost_records);
            }
        }
    }

    /// Opens a fresh segment whose first record will carry `first_seq`.
    /// On give-up the shard degrades (the record count lost here is zero —
    /// nothing was buffered against the new segment yet).
    fn open_segment(&mut self, first_seq: u64) {
        let path = seg_path(&self.dir, self.shard, first_seq);
        // The current record was already counted into total_records by
        // append_one(); everything before it belongs to earlier segments.
        let header = encode_seg_header(
            self.shard,
            self.fingerprint,
            first_seq,
            self.total_records - 1,
        );
        let io = self.io.clone();
        let fs = Arc::clone(&self.fs);
        let (created, retries) = with_retry(&io, || fs.create(&path));
        self.metrics.wal_io_retries.add(retries);
        let mut file = match created {
            Ok(f) => f,
            Err(_) => {
                self.metrics.wal_io_gave_up.incr();
                self.enter_degraded(0);
                return;
            }
        };
        let mut off = 0usize;
        while off < header.len() {
            let chunk = &header[off..];
            let (res, retries) = with_retry(&io, || match file.append(chunk) {
                Ok(0) => Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "segment header write made no progress",
                )),
                other => other,
            });
            self.metrics.wal_io_retries.add(retries);
            match res {
                Ok(n) => off += n,
                Err(_) => {
                    self.metrics.wal_io_gave_up.incr();
                    let _ = fs.remove(&path);
                    self.enter_degraded(0);
                    return;
                }
            }
        }
        self.metrics.wal_segments_created.incr();
        self.active = Some(ActiveSegment {
            file,
            path,
            last_seq: first_seq,
            flushed_len: SEG_HEADER_LEN as u64,
            records: 0,
        });
    }

    /// Flushes and retires the active segment into the compaction queue.
    fn seal_active(&mut self) {
        if let Err(gave) = self.flush_inner() {
            self.enter_degraded(gave.lost_records);
            return;
        }
        if let Some(a) = self.active.take() {
            if a.records > 0 {
                self.sealed.push(SegmentInfo {
                    path: a.path,
                    last_seq: a.last_seq,
                });
            } else {
                // An empty shell (header only) carries nothing.
                let _ = self.fs.remove(&a.path);
            }
        }
    }

    /// Writes the append buffer to the active segment, resubmitting short
    /// writes and retrying transients. On give-up, whole records already
    /// on disk stay durable (counted `wal_records`); the remainder of the
    /// buffer is returned as the typed loss.
    fn flush_inner(&mut self) -> Result<(), WalGaveUp> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let io = self.io.clone();
        let mut off = 0usize;
        while off < self.buf.len() {
            let Some(active) = self.active.as_mut() else {
                let lost = self.buf_records;
                self.buf.clear();
                self.buf_records = 0;
                return Err(WalGaveUp {
                    lost_records: lost,
                    error: io::Error::new(io::ErrorKind::NotFound, "no active segment"),
                });
            };
            let chunk = &self.buf[off..];
            let (res, retries) = with_retry(&io, || match active.file.append(chunk) {
                Ok(0) => Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "wal append made no progress",
                )),
                other => other,
            });
            self.metrics.wal_io_retries.add(retries);
            match res {
                Ok(n) => off += n,
                Err(error) => {
                    // Whole records below the write point are durable; the
                    // partial tail (if any) is a torn record recovery will
                    // truncate away.
                    let whole = (off / RECORD_LEN) as u64;
                    let lost = self.buf_records.saturating_sub(whole);
                    let a = self.active.as_mut().expect("active segment");
                    a.flushed_len += off as u64;
                    a.records += whole;
                    self.metrics.wal_records.add(whole);
                    self.metrics.wal_io_gave_up.incr();
                    self.buf.clear();
                    self.buf_records = 0;
                    return Err(WalGaveUp {
                        lost_records: lost,
                        error,
                    });
                }
            }
        }
        let flushed_records = self.buf_records;
        let flushed_bytes = self.buf.len() as u64;
        {
            let a = self.active.as_mut().expect("active segment");
            a.flushed_len += flushed_bytes;
            a.records += flushed_records;
        }
        self.metrics.wal_records.add(flushed_records);
        self.buf.clear();
        self.buf_records = 0;
        if self.fsync {
            let active = self.active.as_mut().expect("active segment");
            let (res, retries) = with_retry(&io, || active.file.sync());
            self.metrics.wal_io_retries.add(retries);
            if let Err(error) = res {
                self.metrics.wal_io_gave_up.incr();
                return Err(WalGaveUp {
                    lost_records: 0,
                    error,
                });
            }
        }
        Ok(())
    }

    /// Simulated process death: unflushed bytes are gone. (Used by the
    /// in-process kill switch; a real SIGKILL gets this for free.)
    pub(crate) fn crash(&mut self) {
        self.buf.clear();
        self.buf_records = 0;
    }

    /// Whether the snapshot cadence has elapsed. Degraded shards stop
    /// snapshotting: a snapshot would stamp a total it cannot cover.
    pub(crate) fn snapshot_due(&self, processed: u64) -> bool {
        !self.degraded && processed - self.last_snapshot_processed >= self.snapshot_every
    }

    /// Flushes the WAL, then writes the snapshot atomically (tmp+rename)
    /// and compacts sealed segments the snapshot now covers. Ordering
    /// matters: the snapshot claims coverage, so the flush must land
    /// first. A failed snapshot is *not* a durability gap — the segments
    /// still hold everything; the cadence is simply skipped.
    pub(crate) fn write_snapshot(&mut self, state: &ShardState) {
        if self.degraded {
            return;
        }
        if let Err(gave) = self.flush_inner() {
            self.enter_degraded(gave.lost_records);
            return;
        }
        let body = encode_state(state);
        let mut buf = Vec::with_capacity(body.len() + 64);
        buf.extend_from_slice(SNAP_MAGIC);
        put_u32(&mut buf, SNAP_VERSION);
        put_u32(&mut buf, self.shard as u32);
        put_u64(&mut buf, self.fingerprint);
        put_u64(&mut buf, state.last_seq);
        put_u64(&mut buf, state.processed);
        put_u64(&mut buf, self.total_records);
        put_u64(&mut buf, body.len() as u64);
        buf.extend_from_slice(&body);
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());

        let io = self.io.clone();
        let fs = Arc::clone(&self.fs);
        let tmp = self.snap_tmp.clone();
        let fsync = self.fsync;
        // The whole tmp write is one retryable unit: a retry restarts from
        // a truncating create, so partial attempts never compose.
        let (res, retries) = with_retry(&io, || {
            let mut f = fs.create(&tmp)?;
            let mut off = 0usize;
            while off < buf.len() {
                match f.append(&buf[off..]) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "snapshot write made no progress",
                        ))
                    }
                    Ok(n) => off += n,
                    Err(e) => return Err(e),
                }
            }
            if fsync {
                f.sync()?;
            }
            Ok(())
        });
        self.metrics.wal_io_retries.add(retries);
        if res.is_err() {
            self.metrics.wal_io_gave_up.incr();
            let _ = fs.remove(&tmp);
            return;
        }
        let (res, retries) = with_retry(&io, || fs.rename(&tmp, &self.snap));
        self.metrics.wal_io_retries.add(retries);
        if res.is_err() {
            self.metrics.wal_io_gave_up.incr();
            let _ = fs.remove(&tmp);
            return;
        }
        self.last_snapshot_processed = state.processed;
        self.metrics.snapshots_written.incr();
        self.compact(state.last_seq);
    }

    /// Deletes sealed segments whose records all fall at or below the
    /// published snapshot coverage. A segment that refuses to die stays
    /// queued for the next cadence.
    fn compact(&mut self, coverage_seq: u64) {
        let io = self.io.clone();
        let fs = Arc::clone(&self.fs);
        let metrics = Arc::clone(&self.metrics);
        self.sealed.retain(|seg| {
            if seg.last_seq > coverage_seq {
                return true;
            }
            let (res, retries) = with_retry(&io, || match fs.remove(&seg.path) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
                other => other,
            });
            metrics.wal_io_retries.add(retries);
            match res {
                Ok(()) => {
                    metrics.wal_segments_compacted.incr();
                    false
                }
                Err(_) => {
                    metrics.wal_io_gave_up.incr();
                    true
                }
            }
        });
    }

    /// Final flush at stream end. Infallible like every worker-facing
    /// method: a last-moment give-up degrades (and is counted) rather than
    /// erroring the shard.
    pub(crate) fn finish(&mut self) {
        if self.degraded {
            return;
        }
        if let Err(gave) = self.flush_inner() {
            self.enter_degraded(gave.lost_records);
        }
    }
}

// ---------------------------------------------------------------------------
// Durable pipeline
// ---------------------------------------------------------------------------

/// Crash injection for durable runs.
#[derive(Debug, Clone, Copy)]
pub struct KillPoint {
    /// Fire after this many reports have been offered by the run.
    pub after_offered: u64,
    /// How to die.
    pub mode: KillMode,
}

impl KillPoint {
    /// An in-process abort after `after_offered` offered reports.
    pub fn after(after_offered: u64) -> KillPoint {
        KillPoint {
            after_offered,
            mode: KillMode::Abort,
        }
    }
}

/// How a [`KillPoint`] kills the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillMode {
    /// Cooperative in-process abort: workers stop without finishing and
    /// unflushed WAL bytes are discarded — a faithful crash simulation
    /// that leaves the process (and the test harness) alive. The
    /// single-writer lock is released, because within one process the
    /// simulated corpse cannot be told apart from a live owner by PID.
    Abort,
    /// `std::process::abort()` — the process dies for real, no unwinding,
    /// no flushing, and the lock file stays behind (stale): recovery needs
    /// [`DurableConfig::takeover`]. For the crash-recovery CI smoke.
    SigKill,
}

/// How a durable run ended.
#[derive(Debug)]
pub enum DurableRun {
    /// The stream was fully consumed and every shard finished.
    Completed {
        /// The merged fleet summary (same type as the in-memory pipeline;
        /// boxed so the enum stays small next to `Killed`).
        summary: Box<IngestSummary>,
        /// Combined pre-finish state digest across shards — equal for an
        /// uninterrupted run and any crash/recover/re-feed of the same
        /// stream (absent injected loss).
        state_digest: u64,
        /// Whether every consumed record is durably logged, or the typed,
        /// counted gap if I/O faults defeated the retry budget.
        durability: Durability,
    },
    /// The kill switch fired; the on-disk segments/snapshots hold the
    /// durable prefix and [`DurablePipeline::recover`] picks it up.
    Killed,
}

impl DurableRun {
    /// The summary of a completed run, if it completed.
    pub fn summary(&self) -> Option<&IngestSummary> {
        match self {
            DurableRun::Completed { summary, .. } => Some(summary),
            DurableRun::Killed => None,
        }
    }

    /// The durability status of a completed run, if it completed.
    pub fn durability(&self) -> Option<Durability> {
        match self {
            DurableRun::Completed { durability, .. } => Some(*durability),
            DurableRun::Killed => None,
        }
    }
}

/// A [`IngestPipeline`] with rotated-segment WAL + snapshot durability,
/// fault-tolerant I/O and single-writer locking. Create a fresh one with
/// [`DurablePipeline::create`], or load the durable state of a crashed run
/// with [`DurablePipeline::recover`]; then feed the stream with
/// [`DurablePipeline::run`]. Each instance runs once.
pub struct DurablePipeline {
    pipeline: IngestPipeline,
    durable: DurableConfig,
    fingerprint: u64,
    lock: LockGuard,
    /// Recovered/fresh shard states and their open durability hooks;
    /// consumed by `run`.
    armed: Option<(Vec<ShardState>, Vec<ShardDurability>)>,
}

impl DurablePipeline {
    /// Starts a fresh durable pipeline: acquires the single-writer lock
    /// and removes any leftover segments, snapshots and tmp files in
    /// `durable.dir`.
    pub fn create(
        config: IngestConfig,
        templates: Vec<MotifTemplate>,
        durable: DurableConfig,
    ) -> Result<DurablePipeline, DurableError> {
        let fs = Arc::clone(&durable.fs);
        fs.create_dir_all(&durable.dir)?;
        let pipeline = IngestPipeline::new(config, templates);
        let shards = pipeline.config().shards.max(1);
        let fingerprint = config_fingerprint(pipeline.config(), pipeline.templates.len());
        let (lock, acquired) =
            LockGuard::acquire(Arc::clone(&fs), &durable.dir, fingerprint, durable.takeover)?;
        let metrics = pipeline.metrics();
        if acquired == Acquired::TookOver {
            metrics.lock_takeovers.incr();
        }
        // A fresh run owns the directory: clear every durable artifact
        // (never the lock we just wrote).
        for name in fs.list(&durable.dir)? {
            let stale = parse_seg_name(&name).is_some()
                || (name.starts_with("snap-") && name.ends_with(".bin"))
                || name.ends_with(".tmp");
            if stale {
                match fs.remove(&durable.dir.join(&name)) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(DurableError::Io(e)),
                }
            }
        }
        let mut states = Vec::with_capacity(shards);
        let mut hooks = Vec::with_capacity(shards);
        for shard in 0..shards {
            states.push(ShardState::new());
            hooks.push(ShardDurability::new(
                shard,
                &durable,
                fingerprint,
                Arc::clone(&metrics),
            ));
        }
        Ok(DurablePipeline {
            pipeline,
            durable,
            fingerprint,
            lock,
            armed: Some((states, hooks)),
        })
    }

    /// Recovers the durable state of a previous run from `durable.dir`:
    /// per shard, sweep orphaned tmp files, load the snapshot (discarding
    /// a checksum-failed one), stitch the surviving segments by sequence
    /// range, replay records past the snapshot's coverage through the live
    /// consume path, heal torn tails, compact segments the snapshot
    /// covers, account any unreplayable hole as `wal_lost_records`, and
    /// restore the metrics books. The resulting instance is ready to
    /// [`DurablePipeline::run`] the stream again.
    pub fn recover(
        config: IngestConfig,
        templates: Vec<MotifTemplate>,
        durable: DurableConfig,
    ) -> Result<DurablePipeline, DurableError> {
        let fs = Arc::clone(&durable.fs);
        let pipeline = IngestPipeline::new(config, templates);
        let shards = pipeline.config().shards.max(1);
        let fingerprint = config_fingerprint(pipeline.config(), pipeline.templates.len());
        let (lock, acquired) =
            LockGuard::acquire(Arc::clone(&fs), &durable.dir, fingerprint, durable.takeover)?;
        let metrics = pipeline.metrics();
        if acquired == Acquired::TookOver {
            metrics.lock_takeovers.incr();
        }

        // Sweep tmp orphans (a crash between snapshot write and rename).
        let names = fs.list(&durable.dir)?;
        for name in &names {
            if name.ends_with(".tmp") {
                match fs.remove(&durable.dir.join(name)) {
                    Ok(()) => {
                        metrics.snapshot_tmp_swept.incr();
                    }
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(DurableError::Io(e)),
                }
            }
        }

        // Group segment files by shard, ordered by first sequence.
        let mut by_shard: Vec<Vec<(u64, String)>> = vec![Vec::new(); shards];
        for name in &names {
            if let Some((shard, first_seq)) = parse_seg_name(name) {
                if shard >= shards {
                    return Err(DurableError::Io(corrupt(
                        "segment for an out-of-range shard",
                    )));
                }
                by_shard[shard].push((first_seq, name.clone()));
            }
        }

        let mut states = Vec::with_capacity(shards);
        let mut hooks = Vec::with_capacity(shards);
        for (shard, mut segs) in by_shard.into_iter().enumerate() {
            segs.sort_unstable_by_key(|(first_seq, _)| *first_seq);
            let snap = snap_path(&durable.dir, shard);
            let (mut state, coverage_seq, covered, mut gap) = match load_snapshot(
                fs.as_ref(),
                &snap,
                shard,
                fingerprint,
                pipeline.config(),
                pipeline.templates.len(),
            )
            .map_err(DurableError::Io)?
            {
                SnapLoad::Loaded {
                    coverage_seq,
                    covered_records,
                    total_records,
                    state,
                } => {
                    // The inherited gap: losses already counted by the run
                    // that wrote this snapshot.
                    let gap = total_records.saturating_sub(covered_records);
                    (state, coverage_seq, covered_records, gap)
                }
                SnapLoad::Discarded => {
                    metrics.snapshots_discarded.incr();
                    (ShardState::new(), 0, 0, 0)
                }
                SnapLoad::Absent => (ShardState::new(), 0, 0, 0),
            };

            // Stitch segments in sequence order, auditing each header's
            // records_before against what is accounted for so far; any
            // shortfall is a hole — records logged once (compacted away)
            // whose snapshot coverage died with the snapshot.
            let mut above = 0u64; // records replayed past the snapshot
            let mut sealed = Vec::new();
            {
                let _span = metrics.replay.enter();
                for (_first_seq, name) in &segs {
                    let path = durable.dir.join(name);
                    let scan = scan_segment(fs.as_ref(), &path, shard, fingerprint)
                        .map_err(DurableError::Io)?;
                    if !scan.header_ok {
                        // A shell without a whole header carries nothing.
                        metrics.wal_torn_records.add(scan.torn);
                        match fs.remove(&path) {
                            Ok(()) | Err(_) => {}
                        }
                        continue;
                    }
                    let accounted = covered + above + gap;
                    if scan.records_before > accounted {
                        let hole = scan.records_before - accounted;
                        gap += hole;
                    }
                    for (seq, report) in &scan.records {
                        if *seq <= coverage_seq {
                            continue;
                        }
                        state.consume(*seq, report, pipeline.config(), &pipeline.templates);
                        above += 1;
                    }
                    metrics.wal_torn_records.add(scan.torn);
                    if scan.torn > 0 {
                        // Heal the torn tail so future scans are clean.
                        fs.set_len(&path, scan.valid_len)
                            .map_err(DurableError::Io)?;
                    }
                    match scan.records.last() {
                        Some((last_seq, _)) if *last_seq > coverage_seq => {
                            sealed.push(SegmentInfo {
                                path,
                                last_seq: *last_seq,
                            });
                        }
                        _ => {
                            // Empty, or fully covered by the snapshot:
                            // compact it now.
                            match fs.remove(&path) {
                                Ok(()) => {
                                    metrics.wal_segments_compacted.incr();
                                }
                                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                                Err(e) => return Err(DurableError::Io(e)),
                            }
                        }
                    }
                }
            }

            // Restore the books: everything consumed was offered, and the
            // hole is a typed, counted loss — never silent.
            metrics.offered.add(state.processed + gap);
            metrics.wal_records.add(state.processed);
            metrics.wal_lost_records.add(gap);
            metrics.apply(&state.counts);
            metrics.shards[shard]
                .processed
                .store(state.processed, Ordering::Relaxed);

            let mut hook = ShardDurability::new(shard, &durable, fingerprint, Arc::clone(&metrics));
            hook.total_records = state.processed + gap;
            hook.last_snapshot_processed = state.processed;
            hook.sealed = sealed;
            states.push(state);
            hooks.push(hook);
        }
        metrics.recoveries.incr();
        Ok(DurablePipeline {
            pipeline,
            durable,
            fingerprint,
            lock,
            armed: Some((states, hooks)),
        })
    }

    /// The live metrics registry (restored books after a recovery).
    pub fn metrics(&self) -> Arc<IngestMetrics> {
        self.pipeline.metrics()
    }

    /// The underlying pipeline configuration.
    pub fn config(&self) -> &IngestConfig {
        self.pipeline.config()
    }

    /// Combined digest of the current (recovered) shard states — equals
    /// the digest of a fresh [`ShardState::consume`] fold over each
    /// shard's durably-logged records.
    pub fn state_digest(&self) -> u64 {
        let (states, _) = self
            .armed
            .as_ref()
            .expect("durable pipeline already consumed by run()");
        states
            .iter()
            .fold(FNV_OFFSET, |acc, s| fnv1a64_u64(acc, state_digest(s)))
    }

    /// The earliest global sequence number NOT yet durable in every shard:
    /// feeding the stream suffix starting here (via
    /// [`DurablePipeline::run_from`]) loses nothing. Re-feeding from the
    /// beginning is always correct too — already-durable reports are
    /// skipped per shard.
    pub fn resume_seq(&self) -> u64 {
        let (states, _) = self
            .armed
            .as_ref()
            .expect("durable pipeline already consumed by run()");
        states.iter().map(|s| s.last_seq).min().unwrap_or(0) + 1
    }

    /// Runs the full stream (global sequence numbers assigned from 1),
    /// skipping reports each shard already holds durably. `kill` arms the
    /// crash switch.
    pub fn run<I>(&mut self, reports: I, kill: Option<KillPoint>) -> io::Result<DurableRun>
    where
        I: IntoIterator<Item = IngestReport>,
    {
        self.run_from(reports, 1, kill)
    }

    /// Like [`DurablePipeline::run`], but `reports` is the stream suffix
    /// whose first element carries global sequence number `first_seq`
    /// (obtain a safe value from [`DurablePipeline::resume_seq`]).
    pub fn run_from<I>(
        &mut self,
        reports: I,
        first_seq: u64,
        kill: Option<KillPoint>,
    ) -> io::Result<DurableRun>
    where
        I: IntoIterator<Item = IngestReport>,
    {
        let (states, hooks) = self
            .armed
            .take()
            .expect("a durable pipeline instance runs once; recover() a new one");
        let cutoffs = states.iter().map(|s| s.last_seq).collect();
        let durability = hooks.into_iter().map(Some).collect();
        let kill = kill.map(|k| KillSwitch {
            after_offered: k.after_offered,
            hard: k.mode == KillMode::SigKill,
        });
        match self
            .pipeline
            .run_inner(reports, first_seq, cutoffs, states, durability, kill)?
        {
            RunEnd::Completed(summary, digest) => {
                let m = &self.pipeline.metrics;
                let gap = m.wal_gap_records.get() + m.wal_lost_records.get();
                Ok(DurableRun::Completed {
                    summary,
                    state_digest: digest.expect("durable run always yields a digest"),
                    durability: if gap == 0 {
                        Durability::Durable
                    } else {
                        Durability::Degraded { gap }
                    },
                })
            }
            RunEnd::Killed => {
                // A cooperative kill simulates a dead process; within this
                // process the PID stays alive, so the corpse must release
                // the lock for recovery to proceed without takeover.
                self.lock.release();
                Ok(DurableRun::Killed)
            }
        }
    }

    /// The durable directory this pipeline reads and writes.
    pub fn dir(&self) -> &Path {
        &self.durable.dir
    }

    /// The configuration fingerprint stamped on segments and snapshots.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

// ---------------------------------------------------------------------------
// Offline inspection helpers (no lock, real filesystem)
// ---------------------------------------------------------------------------

/// Total bytes of WAL segment files in a durable directory — the quantity
/// the compaction invariant bounds. Reads the real filesystem.
pub fn wal_disk_usage(dir: &Path) -> io::Result<u64> {
    let mut total = 0u64;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if parse_seg_name(name).is_some() {
                total += entry.metadata()?.len();
            }
        }
    }
    Ok(total)
}

/// The segment files of one shard, sorted by first sequence number.
pub fn segment_files(dir: &Path, shard: usize) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if let Some((s, first_seq)) = parse_seg_name(name) {
                if s == shard {
                    out.push((first_seq, entry.path()));
                }
            }
        }
    }
    out.sort_unstable_by_key(|(first_seq, _)| *first_seq);
    Ok(out)
}

/// The coverage sequence of a shard's snapshot, if a checksummed-valid one
/// exists. Reads the real filesystem; does not validate the fingerprint
/// (inspection must work without knowing the run's configuration).
pub fn snapshot_coverage(dir: &Path, shard: usize) -> io::Result<Option<u64>> {
    let bytes = match std::fs::read(snap_path(dir, shard)) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if bytes.len() < 4 {
        return Ok(None);
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
        return Ok(None);
    }
    let mut cur = Cursor::new(body);
    if cur.take(8)? != SNAP_MAGIC || cur.u32()? != SNAP_VERSION {
        return Ok(None);
    }
    let _shard = cur.u32()?;
    let _fingerprint = cur.u64()?;
    Ok(Some(cur.u64()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wtts_timeseries::WindowKind;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wtts-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn report(gateway: u64, device: u32, at: u32, cum: u64) -> IngestReport {
        IngestReport {
            gateway,
            device,
            at: Minute(at),
            cum_in: cum,
            cum_out: cum / 2,
        }
    }

    fn config(shards: usize) -> IngestConfig {
        IngestConfig {
            shards,
            batch_reports: 16,
            queue_batches: 2,
            window: WindowKind::Daily,
            bin_minutes: 180,
            lateness_horizon: 3,
            ..IngestConfig::default()
        }
    }

    fn flat_stream(gateway: u64, n: u32) -> Vec<IngestReport> {
        (0..n)
            .map(|m| report(gateway, 0, m, (m as u64 + 1) * 10))
            .collect()
    }

    /// A messy but deterministic stream: several gateways/devices, with
    /// duplicates, late arrivals and an uncorroborated future jump mixed
    /// in so recovery has non-trivial drop state to reproduce.
    fn stream() -> Vec<IngestReport> {
        let mut out = Vec::new();
        for m in 0..2_000u32 {
            for gw in 0..5u64 {
                for dev in 0..2u32 {
                    if (m + gw as u32 * 3 + dev * 7).is_multiple_of(13) {
                        continue; // loss
                    }
                    let cum = (m as u64 + 1) * (50 + gw * 11 + dev as u64 * 5);
                    out.push(report(gw, dev, m, cum));
                    if (m + gw as u32).is_multiple_of(97) {
                        out.push(report(gw, dev, m, cum)); // duplicate
                    }
                }
            }
            if m == 700 {
                out.push(report(1, 0, 90_000, 1)); // wild future jump
            }
            if m == 800 {
                out.push(report(2, 1, 100, 1)); // very late straggler
            }
        }
        out
    }

    #[test]
    fn crc32_known_vectors() {
        // Canonical check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// Bit-at-a-time CRC32/IEEE: the reference the sliced tables must match.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xEDB8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Every length from empty through several 8-byte strides plus each
    /// possible tail, over seeded bytes: the sliced CRC equals the
    /// reference, so nothing on disk changes.
    #[test]
    fn crc32_matches_bitwise_reference_at_every_length() {
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..300)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect();
        for len in 0..=bytes.len() {
            for start in [0, 3] {
                let s = &bytes[start.min(len)..len];
                assert_eq!(crc32(s), crc32_bitwise(s), "len {} at {start}", s.len());
            }
        }
    }

    /// The on-disk format, pinned: a fixed two-shard stream with segment
    /// rotation, snapshots and compaction leaves segment and snapshot bytes
    /// whose FNV-1a digest (file names included) is recorded here, as is
    /// the run's state digest. A change to the record checksum, the record
    /// layout or the canonical state encoding moves one of them.
    #[test]
    fn wal_and_snapshot_bytes_are_pinned() {
        let dir = tmp_dir("golden");
        let dcfg = DurableConfig {
            snapshot_every_reports: 3_000,
            segment_bytes: 16 * 1024,
            ..DurableConfig::new(dir.clone())
        };
        let mut p = DurablePipeline::create(config(2), Vec::new(), dcfg).unwrap();
        let state_digest = match p.run(stream(), None).unwrap() {
            DurableRun::Completed {
                state_digest,
                durability,
                ..
            } => {
                assert_eq!(durability, Durability::Durable);
                state_digest
            }
            DurableRun::Killed => panic!("no kill point was armed"),
        };
        let m = p.metrics().snapshot();
        drop(p);
        assert!(m.snapshots_written >= 4 && m.wal_segments_compacted > 0);

        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name != LOCK_FILE)
            .collect();
        names.sort_unstable();
        assert!(names.iter().any(|n| n.starts_with("snap-")));
        assert!(names.iter().any(|n| n.starts_with("wal-")));
        let mut bytes_digest = FNV_OFFSET;
        for name in &names {
            bytes_digest = fnv1a64_bytes(bytes_digest, name.as_bytes());
            bytes_digest = fnv1a64_bytes(bytes_digest, &std::fs::read(dir.join(name)).unwrap());
        }
        assert_eq!(
            (bytes_digest, state_digest),
            (0xbe42_a096_5962_6bae, 0x73cd_2584_6a5b_fa83),
            "on-disk bytes or state encoding changed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_payload_roundtrip() {
        let r = report(42, 7, 1234, 99_999);
        let p = encode_wal_payload(567, &r);
        let (seq, back) = decode_wal_payload(&p).unwrap();
        assert_eq!(seq, 567);
        assert_eq!(back, r);
    }

    #[test]
    fn seg_name_roundtrip() {
        let p = seg_path(Path::new("/x"), 3, 42);
        let name = p.file_name().unwrap().to_str().unwrap();
        assert_eq!(parse_seg_name(name), Some((3, 42)));
        // Zero-padding keeps lexical order numeric.
        let a = seg_path(Path::new("/x"), 0, 9);
        let b = seg_path(Path::new("/x"), 0, 10);
        assert!(a.file_name().unwrap() < b.file_name().unwrap());
        assert_eq!(parse_seg_name("wal-0.log"), None);
        assert_eq!(parse_seg_name("snap-0.bin"), None);
    }

    /// Snapshot encode/decode is the identity on states reached through
    /// real ingest (lanes with pending minutes, suspects, dominance data).
    #[test]
    fn state_encoding_roundtrip() {
        let cfg = config(1);
        let mut state = ShardState::new();
        for (i, r) in stream().into_iter().enumerate() {
            state.consume(i as u64 + 1, &r, &cfg, &[]);
        }
        let bytes = encode_state(&state);
        let back = decode_state(&bytes, &cfg, 0).unwrap();
        assert_eq!(encode_state(&back), bytes);
        assert_eq!(state_digest(&back), state_digest(&state));
        assert_eq!(back.counts, state.counts);
        assert_eq!(back.last_seq, state.last_seq);
    }

    /// The WAL append stage times whole batches: at quiescence each shard's
    /// stage is balanced with one latency sample per batch that logged
    /// records, the log covers every offered report, and a plain run opens
    /// no append span at all.
    #[test]
    fn wal_append_spans_one_batch_each() {
        let dir = tmp_dir("batch-span");
        let cfg = config(2);
        let stream = stream();
        let mut p =
            DurablePipeline::create(cfg.clone(), Vec::new(), DurableConfig::new(dir.clone()))
                .unwrap();
        let mut routed = [0u64; 2];
        for r in &stream {
            routed[p.pipeline.shard_of(r.gateway)] += 1;
        }
        let end = p.run(stream.iter().copied(), None).unwrap();
        assert_eq!(end.durability(), Some(Durability::Durable));
        let m = p.metrics().snapshot();
        assert_eq!(m.wal_records, m.offered);
        assert_eq!(m.offered, stream.len() as u64);
        for (shard, s) in m.per_shard.iter().enumerate() {
            let batches = routed[shard].div_ceil(cfg.batch_reports as u64);
            assert!(batches > 1, "shard {shard} must see several batches");
            assert!(s.wal_append.quiescent(), "shard {shard}");
            assert_eq!(s.wal_append.entered, batches, "shard {shard}");
            assert_eq!(s.wal_append.latency_ns.total(), batches, "shard {shard}");
            assert_eq!(s.batch_stage.entered, batches, "shard {shard}");
        }

        let plain = IngestPipeline::new(cfg, Vec::new()).run(stream);
        for s in &plain.metrics.per_shard {
            assert_eq!(s.wal_append.entered, 0);
            assert_eq!(s.wal_append.latency_ns.total(), 0);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Recovery with snapshots equals a pure fold over the logged records:
    /// snapshots are an optimization, not a second source of truth. The
    /// reference fold reads the segments *before* recovery runs — recovery
    /// itself compacts fully-covered segments, so the fold input must be
    /// captured from the exact disk state recovery sees.
    #[test]
    fn recovered_state_equals_wal_fold_at_many_kill_points() {
        let stream = stream();
        for kill_after in [1u64, 17, 900, 2_500, 7_000, stream.len() as u64 / 2] {
            let dir = tmp_dir(&format!("fold-{kill_after}"));
            let cfg = config(2);
            let dcfg = DurableConfig {
                snapshot_every_reports: 300,
                ..DurableConfig::new(dir.clone())
            };
            let mut p = DurablePipeline::create(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
            let fingerprint = p.fingerprint();
            let end = p
                .run(stream.iter().copied(), Some(KillPoint::after(kill_after)))
                .unwrap();
            assert!(matches!(end, DurableRun::Killed));
            drop(p);

            // Reference: fold every durably-logged record from an empty
            // state, straight off the post-crash disk.
            let mut reference = FNV_OFFSET;
            for shard in 0..2 {
                let mut state = ShardState::new();
                for (_first, path) in segment_files(&dir, shard).unwrap() {
                    let scan = scan_segment(&StdFs, &path, shard, fingerprint).unwrap();
                    assert_eq!(scan.torn, 0, "clean abort leaves no torn tail");
                    for (seq, r) in &scan.records {
                        state.consume(*seq, r, &cfg, &[]);
                    }
                }
                reference = fnv1a64_u64(reference, state_digest(&state));
            }

            let recovered =
                DurablePipeline::recover(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
            assert_eq!(
                recovered.state_digest(),
                reference,
                "kill_after={kill_after}"
            );

            let m = recovered.metrics().snapshot();
            assert!(m.fully_accounted(), "recovered books must balance");
            assert!(m.durably_accounted());
            assert_eq!(m.durability_gap(), 0);
            assert_eq!(m.recoveries, 1);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// A segment truncated mid-record recovers to the last valid
    /// checksummed record, heals the file, and counts the tear.
    #[test]
    fn torn_segment_tail_is_truncated_and_counted() {
        let dir = tmp_dir("torn");
        let cfg = config(1);
        let dcfg = DurableConfig {
            snapshot_every_reports: u64::MAX,
            ..DurableConfig::new(dir.clone())
        };
        let mut p = DurablePipeline::create(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        match p.run(flat_stream(9, 100), None).unwrap() {
            DurableRun::Completed { durability, .. } => assert_eq!(durability, Durability::Durable),
            DurableRun::Killed => panic!("no kill point was armed"),
        }
        drop(p);

        // Tear the file mid-record: keep the header, 40 full records, and
        // 13 bytes of the 41st.
        let segs = segment_files(&dir, 0).unwrap();
        assert_eq!(segs.len(), 1, "default segment size holds 100 records");
        let path = segs[0].1.clone();
        let full = std::fs::metadata(&path).unwrap().len();
        assert_eq!(full, (SEG_HEADER_LEN + 100 * RECORD_LEN) as u64);
        let torn_len = (SEG_HEADER_LEN + 40 * RECORD_LEN + 13) as u64;
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(torn_len)
            .unwrap();

        let recovered = DurablePipeline::recover(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        let m = recovered.metrics().snapshot();
        assert_eq!(m.wal_torn_records, 1);
        assert_eq!(m.offered, 40, "only the valid prefix survives");
        assert_eq!(m.wal_records, 40);
        assert!(m.fully_accounted());
        // The file was healed back to the valid prefix.
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            (SEG_HEADER_LEN + 40 * RECORD_LEN) as u64
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A corrupted byte inside a record fails its checksum and truncates
    /// the view there — a bad record never half-applies.
    #[test]
    fn checksum_mismatch_truncates_at_last_valid_record() {
        let dir = tmp_dir("crc");
        let cfg = config(1);
        let dcfg = DurableConfig {
            snapshot_every_reports: u64::MAX,
            ..DurableConfig::new(dir.clone())
        };
        let mut p = DurablePipeline::create(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        p.run(flat_stream(3, 50), None).unwrap();
        drop(p);

        let path = segment_files(&dir, 0).unwrap()[0].1.clone();
        // Flip one payload byte of record 20 (0-based).
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = SEG_HEADER_LEN + 20 * RECORD_LEN + 8 + 5;
        bytes[victim] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let recovered = DurablePipeline::recover(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        let m = recovered.metrics().snapshot();
        assert_eq!(m.offered, 20);
        assert_eq!(m.wal_torn_records, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checksummed-valid snapshot is trusted as self-contained state:
    /// truncating the WAL below its coverage does not discard it (v2
    /// semantics — the snapshot is not a claim about WAL bytes).
    #[test]
    fn snapshot_is_trusted_beyond_truncated_wal() {
        let dir = tmp_dir("trusted");
        let cfg = config(1);
        let dcfg = DurableConfig {
            snapshot_every_reports: 30,
            ..DurableConfig::new(dir.clone())
        };
        let mut p = DurablePipeline::create(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        p.run(flat_stream(4, 100), None).unwrap();
        drop(p);

        let coverage = snapshot_coverage(&dir, 0)
            .unwrap()
            .expect("snapshot written");
        assert!(coverage >= 60, "cadence of 30 over 100 reports snapshots");

        // Truncate the (single) segment far below the snapshot coverage.
        let path = segment_files(&dir, 0).unwrap()[0].1.clone();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len((SEG_HEADER_LEN + 10 * RECORD_LEN) as u64)
            .unwrap();

        let recovered = DurablePipeline::recover(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        let m = recovered.metrics().snapshot();
        assert_eq!(m.offered, coverage, "the snapshot's coverage survives");
        assert_eq!(m.wal_records, coverage);
        assert_eq!(m.durability_gap(), 0);
        assert!(m.fully_accounted());
        assert!(m.durably_accounted());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Config fingerprint mismatches are refused loudly instead of
    /// replaying a log under rules it was not written for.
    #[test]
    fn mismatched_configuration_is_refused() {
        let dir = tmp_dir("fingerprint");
        let cfg = config(1);
        let dcfg = DurableConfig::new(dir.clone());
        let mut p = DurablePipeline::create(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        p.run((0..10u32).map(|m| report(1, 0, m, m as u64 + 1)), None)
            .unwrap();
        drop(p);
        let other_cfg = IngestConfig {
            motif_threshold: 0.9,
            ..cfg
        };
        let err = match DurablePipeline::recover(other_cfg, Vec::new(), dcfg) {
            Ok(_) => panic!("mismatched config must be refused"),
            Err(e) => e,
        };
        match err {
            DurableError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData),
            e => panic!("expected an Io error, got {e:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// While a live pipeline holds the directory, a second create or
    /// recover fails with a typed lock error — with or without takeover.
    #[test]
    fn second_writer_is_refused_while_lock_held() {
        let dir = tmp_dir("second");
        let cfg = config(1);
        let dcfg = DurableConfig::new(dir.clone());
        let _p = DurablePipeline::create(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        for takeover in [false, true] {
            let attempt = DurableConfig {
                takeover,
                ..dcfg.clone()
            };
            match DurablePipeline::create(cfg.clone(), Vec::new(), attempt.clone()) {
                Err(DurableError::Lock(LockError::Held { .. })) => {}
                Ok(_) => panic!("second create must be refused"),
                Err(e) => panic!("expected Held, got {e:?}"),
            }
            match DurablePipeline::recover(cfg.clone(), Vec::new(), attempt) {
                Err(DurableError::Lock(LockError::Held { .. })) => {}
                Ok(_) => panic!("recover under a live writer must be refused"),
                Err(e) => panic!("expected Held, got {e:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rotation seals length-bounded segments and compaction deletes the
    /// snapshot-covered ones, keeping disk usage bounded by cadence +
    /// segment size rather than stream length.
    #[test]
    fn segments_rotate_and_compact_bounded_disk() {
        let dir = tmp_dir("rotate");
        let cfg = config(1);
        let seg_bytes = (SEG_HEADER_LEN + 10 * RECORD_LEN) as u64;
        let dcfg = DurableConfig {
            snapshot_every_reports: 25,
            segment_bytes: seg_bytes,
            ..DurableConfig::new(dir.clone())
        };
        let mut p = DurablePipeline::create(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        let end = p.run(flat_stream(7, 200), None).unwrap();
        assert_eq!(end.durability(), Some(Durability::Durable));
        let fingerprint = p.fingerprint();
        let m = p.metrics().snapshot();
        drop(p);

        assert!(m.wal_segments_created >= 15, "10-record segments rotate");
        assert!(m.wal_segments_compacted >= 10, "covered segments die");
        assert!(m.snapshots_written >= 3);

        let usage = wal_disk_usage(&dir).unwrap();
        assert!(
            usage <= seg_bytes * 6,
            "disk stays bounded: {usage} bytes vs {} written",
            200 * RECORD_LEN
        );
        let coverage = snapshot_coverage(&dir, 0).unwrap().expect("snapshot");
        assert!(coverage >= 150);
        // Compaction invariant: every surviving segment except the newest
        // holds at least one record past the snapshot coverage.
        let segs = segment_files(&dir, 0).unwrap();
        assert!(!segs.is_empty());
        for (_, path) in &segs[..segs.len() - 1] {
            let scan = scan_segment(&StdFs, path, 0, fingerprint).unwrap();
            let last = scan.records.last().map(|(seq, _)| *seq).unwrap_or(0);
            assert!(
                last > coverage,
                "covered segment {} survived compaction",
                path.display()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An orphaned snapshot tmp file (crash between write and rename) is
    /// swept and counted on recovery.
    #[test]
    fn orphan_snapshot_tmp_is_swept() {
        let dir = tmp_dir("tmp-sweep");
        let cfg = config(1);
        let dcfg = DurableConfig::new(dir.clone());
        let mut p = DurablePipeline::create(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        let end = p
            .run(flat_stream(2, 100), Some(KillPoint::after(20)))
            .unwrap();
        assert!(matches!(end, DurableRun::Killed));
        drop(p);

        std::fs::write(dir.join("snap-0.tmp"), b"half-written snapshot").unwrap();
        let recovered = DurablePipeline::recover(cfg, Vec::new(), dcfg).unwrap();
        let m = recovered.metrics().snapshot();
        assert_eq!(m.snapshot_tmp_swept, 1);
        assert!(!dir.join("snap-0.tmp").exists());
        assert!(m.fully_accounted());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An unrecoverable I/O storm (ENOSPC past the retry budget) degrades
    /// the shard instead of panicking: the run completes, and every
    /// consumed-but-unlogged record is a typed, counted gap.
    #[test]
    fn flush_give_up_reports_lost_count_and_degrades() {
        let dir = tmp_dir("degrade");
        let cfg = config(1);
        let storm: Vec<FaultSpec> = (0..2_000)
            .map(|op| FaultSpec {
                op,
                kind: FaultKind::WriteEnospc,
            })
            .collect();
        let dcfg = DurableConfig {
            io: IoPolicy::no_backoff(1),
            fs: Arc::new(FaultyFs::new(&storm)),
            ..DurableConfig::new(dir.clone())
        };
        let mut p = DurablePipeline::create(cfg, Vec::new(), dcfg).unwrap();
        let end = p.run(flat_stream(6, 50), None).unwrap();
        match end {
            DurableRun::Completed { durability, .. } => {
                assert_eq!(durability, Durability::Degraded { gap: 50 });
            }
            DurableRun::Killed => panic!("no kill point was armed"),
        }
        let m = p.metrics().snapshot();
        assert_eq!(m.offered, 50);
        assert_eq!(m.wal_records, 0, "nothing could be logged");
        assert_eq!(m.wal_gap_records, 50);
        assert_eq!(m.durability_gap(), 50);
        assert!(m.wal_io_gave_up >= 1);
        assert!(m.wal_io_retries >= 1);
        assert!(m.fully_accounted());
        assert!(m.durably_accounted());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Compaction deleted segments a snapshot covered; if that snapshot
    /// later dies (checksum failure), the hole is a typed, counted loss —
    /// the books still balance, nothing is silently invented.
    #[test]
    fn dead_snapshot_after_compaction_is_a_counted_gap() {
        let dir = tmp_dir("dead-snap");
        let cfg = config(1);
        let dcfg = DurableConfig {
            snapshot_every_reports: 25,
            segment_bytes: (SEG_HEADER_LEN + 10 * RECORD_LEN) as u64,
            ..DurableConfig::new(dir.clone())
        };
        let mut p = DurablePipeline::create(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        p.run(flat_stream(8, 100), None).unwrap();
        drop(p);

        // Corrupt the snapshot so its checksum fails.
        let snap = dir.join("snap-0.bin");
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();

        let recovered = DurablePipeline::recover(cfg, Vec::new(), dcfg).unwrap();
        let m = recovered.metrics().snapshot();
        assert_eq!(m.snapshots_discarded, 1);
        assert!(
            m.wal_lost_records > 0,
            "compacted records are a counted hole"
        );
        assert_eq!(m.offered, 100, "every record is accounted: durable or lost");
        assert_eq!(m.wal_records + m.wal_lost_records, 100);
        assert!(m.fully_accounted());
        assert!(m.durably_accounted());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An fsync that lies is indistinguishable live, but a machine crash
    /// (power cut) truncates to the honestly-synced prefix — and recovery
    /// lands exactly there, books balanced.
    #[test]
    fn lying_fsync_then_machine_crash_recovers_to_synced_prefix() {
        let dir = tmp_dir("liar");
        let cfg = config(1);
        // Single shard op sequence: 0 = header write, 1 = first flush
        // append (64 KiB threshold at 1366 records), 2 = its honest sync,
        // 3 = final flush append, 4 = the lying sync.
        let faulty = Arc::new(FaultyFs::new(&[FaultSpec {
            op: 4,
            kind: FaultKind::SyncLies,
        }]));
        let dcfg = DurableConfig {
            fsync: true,
            snapshot_every_reports: u64::MAX,
            fs: faulty.clone(),
            ..DurableConfig::new(dir.clone())
        };
        let mut p = DurablePipeline::create(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        let end = p.run(flat_stream(5, 2_000), None).unwrap();
        // The lie is invisible live: the run believes it is durable.
        assert_eq!(end.durability(), Some(Durability::Durable));
        drop(p);

        faulty.machine_crash().unwrap();

        let flush_at = WAL_FLUSH_BYTES.div_ceil(RECORD_LEN) as u64;
        let recovered = DurablePipeline::recover(cfg, Vec::new(), dcfg).unwrap();
        let m = recovered.metrics().snapshot();
        assert_eq!(m.offered, flush_at, "the honestly-synced prefix survives");
        assert_eq!(m.wal_records, flush_at);
        assert_eq!(m.wal_torn_records, 0, "truncation lands on a record edge");
        assert!(m.fully_accounted());
        assert!(m.durably_accounted());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
