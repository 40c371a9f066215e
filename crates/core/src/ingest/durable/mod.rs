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
//!   stitch line recovery audits against. Each popped batch is one frame:
//!   a length prefix, one CRC32 and the records as varint deltas against
//!   the previous record of the frame (format v2, `WTTSSEG2`), so a torn
//!   tail is detected and truncated at a frame boundary, never misparsed,
//!   and a frame decodes on its own. Logging consumed rather than merely
//!   accepted reports is deliberate: drop classification (late /
//!   duplicate / future-jump) is a
//!   *function of state*, so replaying the same consumed sequence
//!   reproduces the same drops, counters and windows bit for bit.
//! * **Snapshot** (`snap-<shard>.bin`, atomic tmp+rename) — the full
//!   `ShardState` plus its [`ShardCounts`] ledger, written every
//!   [`DurableConfig::snapshot_every_reports`] consumed reports. A
//!   checksummed-valid snapshot is trusted as self-contained state: it
//!   records the last consumed sequence (`coverage_seq`), how many records
//!   it covers and the shard's total appended count, and recovery replays
//!   only records beyond `coverage_seq`.
//! * **Compaction** — after a snapshot publishes, and as a segment seals,
//!   every sealed segment whose records all fall at or below the published
//!   `coverage_seq` is deleted
//!   ([`MetricsSnapshot::wal_segments_compacted`](super::MetricsSnapshot::wal_segments_compacted)),
//!   so disk usage stays
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
//!   ([`MetricsSnapshot::fully_accounted`](super::MetricsSnapshot::fully_accounted),
//!   [`MetricsSnapshot::durably_accounted`](super::MetricsSnapshot::durably_accounted))
//!   still balance.
//!
//! **Recovery invariants** (tested in `tests/durable.rs` and below):
//!
//! 1. *Bit-identical state or a typed gap*: after recovery, each shard's
//!    canonical state encoding equals a fresh fold of
//!    `ShardState::consume` over its durably-logged record sequence —
//!    or, when loss was injected, the books report exactly how many
//!    records are gone
//!    ([`MetricsSnapshot::durability_gap`](super::MetricsSnapshot::durability_gap)).
//! 2. *Bit-identical completion*: crash at any point, recover, re-feed the
//!    stream, and the final [`IngestSummary`], pre-finish state digest and
//!    deterministic metrics projection equal an uninterrupted run's.
//! 3. *Conservation*: `ingested + dropped + wal_lost_records == offered`
//!    and `wal_records + wal_gap_records + wal_lost_records == offered`
//!    at quiescence, under any seeded fault schedule — with the other
//!    declared laws,
//!    [`MetricsSnapshot::check_laws`](super::MetricsSnapshot::check_laws)
//!    finds none broken.
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

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use super::{
    GatewayLane, IngestConfig, IngestMetrics, IngestPipeline, IngestReport, IngestSummary,
    PendingMinute, ShardCounts, ShardState,
};
use crate::streaming::{MotifTemplate, OnlinePearson, WindowAccumulator};
use wtts_timeseries::Minute;

pub mod fs;
pub mod lock;

pub use fs::{FaultKind, FaultSpec, FaultyFs, IoPolicy, StdFs, WalFile, WalFs};
pub use lock::{LockError, LOCK_FILE};

use fs::{remove_existing, with_retry};
use lock::{Acquired, LockGuard};

// ---------------------------------------------------------------------------
// Checksums and digests (no external deps: CRC32/IEEE and FNV-1a by hand)
// ---------------------------------------------------------------------------

/// Slicing-by-16 tables for [`crc32`]: `CRC_TABLES[0]` is the classic
/// bytewise table of the reflected IEEE polynomial, and `CRC_TABLES[k][i]`
/// is the CRC of byte `i` followed by `k` zero bytes, so one lookup per
/// byte folds sixteen input bytes per step.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
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
    while k < 16 {
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
/// polynomial every torn-tail detector speaks. Slicing-by-16: sixteen
/// bytes per step through `CRC_TABLES`, bytewise over the tail; the bits
/// equal the one-table bytewise CRC.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    // The four table lookups of the little-endian word `w`, whose lowest
    // byte has `k + 3` bytes after it in the step.
    let fold = |w: u32, k: usize| {
        t[k + 3][(w & 0xFF) as usize]
            ^ t[k + 2][((w >> 8) & 0xFF) as usize]
            ^ t[k + 1][((w >> 16) & 0xFF) as usize]
            ^ t[k][(w >> 24) as usize]
    };
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for c in &mut chunks {
        let word = |i: usize| u32::from_le_bytes([c[i], c[i + 1], c[i + 2], c[i + 3]]);
        crc = fold(crc ^ word(0), 12) ^ fold(word(4), 8) ^ fold(word(8), 4) ^ fold(word(12), 0);
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
    acc = fnv1a64_u64(acc, config.shards as u64);
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
        for &(slot, bytes) in &pm.contributions {
            put_u32(buf, lane.devices[slot as usize].id);
            put_f64(buf, bytes);
        }
    }
    put_u64(buf, lane.devices.len() as u64);
    for d in lane.devices_by_id() {
        put_u32(buf, d.id);
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
    let mut pending = Vec::with_capacity(n_pending);
    for _ in 0..n_pending {
        let minute = cur.u32()?;
        let n_contrib = cur.len(12)?;
        let mut contributions = Vec::with_capacity(n_contrib);
        for _ in 0..n_contrib {
            contributions.push((cur.u32()?, cur.f64()?));
        }
        pending.push(PendingMinute {
            minute,
            contributions,
        });
    }
    let n_devices = cur.len(4)?;
    for _ in 0..n_devices {
        let id = cur.u32()?;
        if lane.slots.contains_key(&id) {
            return Err(corrupt("duplicate device"));
        }
        let last = decode_baseline(cur)?;
        let suspect = decode_baseline(cur)?;
        let n = cur.u64()?;
        let mut parts = [0.0f64; 5];
        for p in parts.iter_mut() {
            *p = cur.f64()?;
        }
        let slot = lane.slot(id);
        let device = &mut lane.devices[slot];
        device.last = last;
        device.suspect = suspect;
        device.dominance = OnlinePearson::from_raw_parts(n, parts);
    }
    // Contributions are stored by device id; the recovered lane numbers
    // its slots in id order, which may differ from the live lane's.
    for mut pm in pending {
        for c in &mut pm.contributions {
            c.0 = *lane
                .slots
                .get(&c.0)
                .ok_or_else(|| corrupt("contribution from an unknown device"))?;
        }
        lane.pending.push_back(pm);
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
    let lanes = state.lanes_by_gateway();
    put_u64(&mut buf, lanes.len() as u64);
    for lane in lanes {
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
    let mut state = ShardState::new();
    for _ in 0..n_lanes {
        let lane = decode_lane(&mut cur, config, n_templates)?;
        if state.lane_slots.contains_key(&lane.gateway) {
            return Err(corrupt("duplicate lane"));
        }
        state.lane_slot(lane.gateway, || lane);
    }
    cur.done()?;
    Ok(ShardState {
        counts,
        last_seq,
        processed,
        ..state
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

/// Segment format v2: one checksummed frame per appended batch. A v1
/// segment (`WTTSSEG1`, one 48-byte record per report) fails the magic
/// check; no v1 reader is kept.
const SEG_MAGIC: &[u8; 8] = b"WTTSSEG2";
const SNAP_MAGIC: &[u8; 8] = b"WTTSSNAP";
const SNAP_VERSION: u32 = 2;
/// Segment header: magic + fingerprint + shard + first_seq + records_before.
const SEG_HEADER_LEN: usize = 36;
/// Frame prefix: u32 body length + u32 CRC32 of the body.
const FRAME_PREFIX_LEN: usize = 8;
/// Frame body header: u32 record count + u64 first sequence number.
const FRAME_BODY_HEADER_LEN: usize = 12;
/// The shortest record: six one-byte varints.
const MIN_RECORD_LEN: usize = 6;
/// The longest record: six ten-byte varints.
const MAX_RECORD_LEN: usize = 60;
/// A batch longer than this is logged as several frames, so a frame's
/// length always fits its `u32` prefix.
const MAX_FRAME_RECORDS: usize = 1 << 20;
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

/// Maps a signed delta onto an unsigned varint value, small magnitudes to
/// small values (0, -1, 1, -2, … → 0, 1, 2, 3, …).
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

/// Writes `v` as an LEB128 varint at `out[n..]`, advancing `n`.
fn put_varint(out: &mut [u8; MAX_RECORD_LEN], n: &mut usize, mut v: u64) {
    while v >= 0x80 {
        out[*n] = v as u8 | 0x80;
        *n += 1;
        v >>= 7;
    }
    out[*n] = v as u8;
    *n += 1;
}

/// Reads an LEB128 varint at `bytes[*pos..]`; `None` when it runs off the
/// end or past ten bytes.
fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..70).step_by(7) {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            return Some(v);
        }
    }
    None
}

/// The fields a record codes as deltas against the previous record of its
/// frame: seq, gateway, device, minute. A frame starts from its first seq
/// and zeros, so it decodes on its own.
type DeltaBase = (u64, u64, u32, u32);

/// Appends one frame holding `batch` (non-empty, at most
/// [`MAX_FRAME_RECORDS`]) to `buf`: the body length and its CRC32, then
/// the body — record count, first seq, and per record the zigzag varint
/// deltas of seq, gateway, device and minute against the previous record
/// followed by both counters as plain varints.
fn encode_frame(buf: &mut Vec<u8>, batch: &[(u64, IngestReport)]) {
    let start = buf.len();
    buf.reserve(FRAME_PREFIX_LEN + FRAME_BODY_HEADER_LEN + batch.len() * MAX_RECORD_LEN);
    buf.extend_from_slice(&[0; FRAME_PREFIX_LEN]);
    put_u32(buf, batch.len() as u32);
    put_u64(buf, batch[0].0);
    let mut prev: DeltaBase = (batch[0].0, 0, 0, 0);
    let mut rec = [0u8; MAX_RECORD_LEN];
    for &(seq, r) in batch {
        let mut n = 0;
        put_varint(&mut rec, &mut n, zigzag(seq.wrapping_sub(prev.0) as i64));
        put_varint(
            &mut rec,
            &mut n,
            zigzag(r.gateway.wrapping_sub(prev.1) as i64),
        );
        put_varint(
            &mut rec,
            &mut n,
            zigzag(r.device.wrapping_sub(prev.2) as i32 as i64),
        );
        put_varint(
            &mut rec,
            &mut n,
            zigzag(r.at.0.wrapping_sub(prev.3) as i32 as i64),
        );
        put_varint(&mut rec, &mut n, r.cum_in);
        put_varint(&mut rec, &mut n, r.cum_out);
        buf.extend_from_slice(&rec[..n]);
        prev = (seq, r.gateway, r.device, r.at.0);
    }
    let body = start + FRAME_PREFIX_LEN;
    let len = (buf.len() - body) as u32;
    let crc = crc32(&buf[body..]);
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
    buf[start + 4..body].copy_from_slice(&crc.to_le_bytes());
}

/// Decodes a checksummed frame body into `out` (cleared first). `None`
/// when the body does not parse — a count its bytes cannot hold, a varint
/// running off the end, or trailing bytes — and `out` is then to be
/// discarded.
fn decode_frame(body: &[u8], out: &mut Vec<(u64, IngestReport)>) -> Option<()> {
    out.clear();
    let header = body.get(..FRAME_BODY_HEADER_LEN)?;
    let count = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let first_seq = u64::from_le_bytes(header[4..12].try_into().unwrap());
    if count == 0 || count > (body.len() - FRAME_BODY_HEADER_LEN) / MIN_RECORD_LEN {
        return None;
    }
    let mut pos = FRAME_BODY_HEADER_LEN;
    let mut prev: DeltaBase = (first_seq, 0, 0, 0);
    out.reserve(count);
    for _ in 0..count {
        let seq = prev
            .0
            .wrapping_add(unzigzag(get_varint(body, &mut pos)?) as u64);
        let gateway = prev
            .1
            .wrapping_add(unzigzag(get_varint(body, &mut pos)?) as u64);
        let device = prev
            .2
            .wrapping_add(unzigzag(get_varint(body, &mut pos)?) as u32);
        let at = prev
            .3
            .wrapping_add(unzigzag(get_varint(body, &mut pos)?) as u32);
        let report = IngestReport {
            gateway,
            device,
            at: Minute(at),
            cum_in: get_varint(body, &mut pos)?,
            cum_out: get_varint(body, &mut pos)?,
        };
        out.push((seq, report));
        prev = (seq, gateway, device, at);
    }
    (pos == body.len()).then_some(())
}

/// What a scan of a segment's frames found.
struct FrameScan {
    /// File length of the valid prefix of whole frames (header included).
    valid_len: u64,
    /// Last sequence number in the valid prefix.
    last_seq: Option<u64>,
    /// 1 if a torn/corrupt tail was found (and everything after the valid
    /// prefix discarded), else 0.
    torn: u64,
}

/// Walks the frames after a segment header and stops at the first torn or
/// corrupt one: a torn tail is never half-applied. Every frame's checksum
/// is verified, but a frame is decoded, and its records handed to
/// `on_record` in append order, only when it can hold a seq past
/// `after_seq`: seqs rise through a segment, so a frame whose successor
/// starts at or below `after_seq + 1` holds none, and recovery does not
/// decode what its snapshot covers. One frame is decoded at a time, so
/// replay holds one frame of records, not a segment's.
fn scan_frames(
    bytes: &[u8],
    after_seq: u64,
    mut on_record: impl FnMut(u64, &IngestReport),
) -> FrameScan {
    // The whole, checksummed frames: where each body starts, and its first seq.
    let mut frames = Vec::new();
    let mut pos = SEG_HEADER_LEN;
    let mut torn = 0;
    while pos < bytes.len() {
        let Some(prefix) = bytes.get(pos..pos + FRAME_PREFIX_LEN) else {
            torn = 1;
            break;
        };
        let len = u32::from_le_bytes(prefix[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(prefix[4..8].try_into().unwrap());
        let body_start = pos + FRAME_PREFIX_LEN;
        match bytes.get(body_start..body_start.saturating_add(len)) {
            Some(body) if body.len() >= FRAME_BODY_HEADER_LEN && crc32(body) == crc => {
                frames.push((
                    body_start,
                    u64::from_le_bytes(body[4..12].try_into().unwrap()),
                ));
                pos = body_start + len;
            }
            _ => {
                torn = 1;
                break;
            }
        }
    }
    let mut scan = FrameScan {
        valid_len: pos as u64,
        last_seq: None,
        torn,
    };
    let mut frame = Vec::new();
    for (k, &(body_start, _)) in frames.iter().enumerate() {
        let next = frames.get(k + 1);
        if next.is_some_and(|&(_, first_seq)| first_seq <= after_seq.saturating_add(1)) {
            continue;
        }
        let body_end = next.map_or(pos, |&(next_start, _)| next_start - FRAME_PREFIX_LEN);
        if decode_frame(&bytes[body_start..body_end], &mut frame).is_none() {
            scan.valid_len = (body_start - FRAME_PREFIX_LEN) as u64;
            scan.torn = 1;
            break;
        }
        for (seq, report) in &frame {
            on_record(*seq, report);
        }
        scan.last_seq = frame.last().map(|&(seq, _)| seq);
    }
    scan
}

/// Checks a segment's length and magic and returns its header fields
/// `(fingerprint, shard, records_before)` — `records_before` is the
/// shard's appended-record count when the segment opened, the stitch line
/// recovery audits; `None` for a shell without a whole header (the process
/// died inside the header write), which carries nothing. A wrong magic is
/// a hard error: a segment of another format version, not disk wear.
fn seg_header(bytes: &[u8]) -> io::Result<Option<(u64, u32, u64)>> {
    if bytes.len() < SEG_HEADER_LEN {
        return Ok(None);
    }
    let mut cur = Cursor::new(&bytes[..SEG_HEADER_LEN]);
    if cur.take(8)? != SEG_MAGIC {
        return Err(corrupt("bad segment magic"));
    }
    let (fingerprint, shard, _first_seq) = (cur.u64()?, cur.u32()?, cur.u64()?);
    Ok(Some((fingerprint, shard, cur.u64()?)))
}

/// Reads a segment file and checks its header against the shard and the
/// configuration, returning its bytes and `records_before` ([`seg_header`];
/// `None` for a shell). A fingerprint or shard mismatch is configuration
/// confusion, a hard error like a wrong magic.
fn read_segment(
    fs: &dyn WalFs,
    path: &Path,
    shard: usize,
    fingerprint: u64,
) -> io::Result<Option<(Vec<u8>, u64)>> {
    let bytes = fs.read(path)?;
    let Some((fp, sh, records_before)) = seg_header(&bytes)? else {
        return Ok(None);
    };
    if fp != fingerprint {
        return Err(corrupt("segment written under a different configuration"));
    }
    if sh as usize != shard {
        return Err(corrupt("segment shard mismatch"));
    }
    Ok(Some((bytes, records_before)))
}

/// A snapshot file past its checksum: the header fields and the encoded
/// shard state.
struct SnapFile<'a> {
    shard: u32,
    fingerprint: u64,
    /// Last consumed global sequence number ("C"): replay only records
    /// with seq > C.
    coverage_seq: u64,
    /// `state.processed` at snapshot time ("S"): how many records the
    /// snapshot covers.
    covered_records: u64,
    /// The shard's total appended-record count at snapshot time (durable +
    /// previously counted losses, "T"); `T - S` is the inherited
    /// durability gap carried across recoveries.
    total_records: u64,
    state: &'a [u8],
}

/// Parses a snapshot file; `None` when it fails its checksum (torn or
/// bit-rotted). Past the checksum, a wrong magic or version is a hard
/// error: configuration confusion, not disk damage.
fn parse_snapshot(bytes: &[u8]) -> io::Result<Option<SnapFile<'_>>> {
    if bytes.len() < 4 {
        return Ok(None);
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    if crc32(body) != u32::from_le_bytes(crc_bytes.try_into().unwrap()) {
        return Ok(None);
    }
    let mut cur = Cursor::new(body);
    if cur.take(8)? != SNAP_MAGIC {
        return Err(corrupt("bad snapshot magic"));
    }
    if cur.u32()? != SNAP_VERSION {
        return Err(corrupt("unsupported snapshot version"));
    }
    let snap = SnapFile {
        shard: cur.u32()?,
        fingerprint: cur.u64()?,
        coverage_seq: cur.u64()?,
        covered_records: cur.u64()?,
        total_records: cur.u64()?,
        state: {
            let len = cur.len(1)?;
            cur.take(len)?
        },
    };
    cur.done()?;
    Ok(Some(snap))
}

/// Outcome of loading a shard snapshot.
enum SnapLoad {
    /// No snapshot file.
    Absent,
    /// A file exists but fails its checksum (torn or bit-rotted) — counted
    /// `snapshots_discarded`; recovery proceeds from the segments alone.
    Discarded,
    /// A checksummed-valid snapshot, trusted as self-contained state: the
    /// coverage fields of [`SnapFile`] and the decoded shard state (boxed:
    /// it dwarfs the other variants).
    Loaded {
        coverage_seq: u64,
        covered_records: u64,
        total_records: u64,
        state: Box<ShardState>,
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
    let Some(snap) = parse_snapshot(&bytes)? else {
        return Ok(SnapLoad::Discarded);
    };
    if snap.shard != shard as u32 {
        return Err(corrupt("snapshot shard mismatch"));
    }
    if snap.fingerprint != fingerprint {
        return Err(corrupt("snapshot written under a different configuration"));
    }
    Ok(SnapLoad::Loaded {
        coverage_seq: snap.coverage_seq,
        covered_records: snap.covered_records,
        total_records: snap.total_records,
        state: Box::new(decode_state(snap.state, config, n_templates)?),
    })
}

// ---------------------------------------------------------------------------
// Configuration and typed outcomes
// ---------------------------------------------------------------------------

/// Durable-run configuration.
#[derive(Debug, Clone)]
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

// ---------------------------------------------------------------------------
// Per-shard durability hooks (owned by the shard worker)
// ---------------------------------------------------------------------------

/// One retried, counted I/O call: `op` under the retry budget of `policy`,
/// its retries counted `wal_io_retries` and an exhausted budget one
/// `wal_io_gave_up`.
fn retried<T>(
    policy: &IoPolicy,
    metrics: &IngestMetrics,
    op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let (res, retries) = with_retry(policy, op);
    metrics.wal_io_retries.add(retries);
    if res.is_err() {
        metrics.wal_io_gave_up.incr();
    }
    res
}

/// Appends all of `buf` to `file`, resubmitting short writes; a write that
/// makes no progress fails with `WriteZero`. `attempt` runs each append
/// call: through [`retried`] on its own, or as is inside a larger retried
/// unit. On failure, returns how many bytes landed, with the error.
fn append_all(
    file: &mut dyn WalFile,
    buf: &[u8],
    attempt: impl Fn(&mut dyn FnMut() -> io::Result<usize>) -> io::Result<usize>,
) -> Result<(), (usize, io::Error)> {
    let mut off = 0;
    while off < buf.len() {
        let mut append = || match file.append(&buf[off..]) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "write made no progress",
            )),
            other => other,
        };
        match attempt(&mut append) {
            Ok(n) => off += n,
            Err(e) => return Err((off, e)),
        }
    }
    Ok(())
}

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
    /// Coverage seq of the snapshot known to be on disk (0: none). A
    /// segment sealed at or below it is compacted at once.
    published_coverage: u64,
    snap: PathBuf,
    snap_tmp: PathBuf,
    /// Records appended over the shard's lifetime: durable + counted
    /// losses. Stamped as `records_before` into each new segment header
    /// and as `total_records` into snapshots.
    total_records: u64,
    active: Option<ActiveSegment>,
    sealed: Vec<SegmentInfo>,
    /// Appended-but-unflushed frames; a crash drops these.
    buf: Vec<u8>,
    /// Records in `buf`.
    buf_records: u64,
    /// Where each frame in `buf` ends, with its record count: a short
    /// write leaves the whole frames before the write point durable.
    buf_frames: Vec<(usize, u64)>,
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
            segment_bytes: durable.segment_bytes,
            snapshot_every: durable.snapshot_every_reports.max(1),
            last_snapshot_processed: 0,
            published_coverage: 0,
            snap_tmp: snap.with_extension("tmp"),
            snap,
            total_records: 0,
            active: None,
            sealed: Vec::new(),
            buf: Vec::new(),
            buf_records: 0,
            buf_frames: Vec::new(),
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
        self.clear_buf();
        self.active = None;
        self.sealed.clear();
    }

    /// Drops every buffered frame.
    fn clear_buf(&mut self) {
        self.buf.clear();
        self.buf_records = 0;
        self.buf_frames.clear();
    }

    /// Appends a batch of reports about to be consumed, in order, as one
    /// frame (a batch beyond [`MAX_FRAME_RECORDS`] takes several). Frames
    /// are buffered; flush and rotation decide at frame boundaries.
    /// Infallible: exhausted retries degrade the shard instead of erroring.
    pub(crate) fn append(&mut self, batch: &[(u64, IngestReport)]) {
        for frame in batch.chunks(MAX_FRAME_RECORDS) {
            self.append_frame(frame);
        }
    }

    /// Appends one frame (buffered; flushed on threshold, before
    /// snapshots, on rotation, and at stream end).
    fn append_frame(&mut self, batch: &[(u64, IngestReport)]) {
        let records = batch.len() as u64;
        let records_before = self.total_records;
        self.total_records += records;
        if self.degraded {
            self.note_gap(records);
            return;
        }
        let frame_start = self.buf.len();
        encode_frame(&mut self.buf, batch);
        // Rotate when this frame would push the active segment past its
        // bound (never rotate an empty segment: one oversized frame per
        // segment beats an infinite rotation loop). The frames before it
        // seal the old segment; it opens the new one.
        if let Some(a) = &self.active {
            let projected = a.flushed_len + self.buf.len() as u64;
            if projected > self.segment_bytes && (a.records > 0 || self.buf_records > 0) {
                let frame = self.buf.split_off(frame_start);
                self.seal_active();
                self.buf.extend_from_slice(&frame);
            }
        }
        if !self.degraded && self.active.is_none() {
            self.open_segment(batch[0].0, records_before);
        }
        if self.degraded {
            self.buf.clear();
            self.note_gap(records);
            return;
        }
        self.buf_records += records;
        self.buf_frames.push((self.buf.len(), records));
        self.active
            .as_mut()
            .expect("active segment after open")
            .last_seq = batch[batch.len() - 1].0;
        if self.buf.len() >= WAL_FLUSH_BYTES {
            self.flush();
        }
    }

    /// Opens a fresh segment whose first record will carry `first_seq`,
    /// after `records_before` records of earlier segments. On give-up the
    /// shard degrades (the record count lost here is zero — nothing was
    /// buffered against the new segment yet).
    fn open_segment(&mut self, first_seq: u64, records_before: u64) {
        let path = seg_path(&self.dir, self.shard, first_seq);
        let header = encode_seg_header(self.shard, self.fingerprint, first_seq, records_before);
        let (policy, metrics) = (&self.io, &*self.metrics);
        let Ok(mut file) = retried(policy, metrics, || self.fs.create(&path)) else {
            self.enter_degraded(0);
            return;
        };
        if append_all(&mut *file, &header, |op| retried(policy, metrics, op)).is_err() {
            let _ = self.fs.remove(&path);
            self.enter_degraded(0);
            return;
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
    /// Rotation and snapshots both fall on batch boundaries, so a segment
    /// often seals right after a snapshot covered all of it; it is
    /// compacted then rather than at the next snapshot.
    fn seal_active(&mut self) {
        if !self.flush() {
            return;
        }
        if let Some(a) = self.active.take() {
            if a.records > 0 {
                self.sealed.push(SegmentInfo {
                    path: a.path,
                    last_seq: a.last_seq,
                });
                self.compact(self.published_coverage);
            } else {
                // An empty shell (header only) carries nothing.
                let _ = self.fs.remove(&a.path);
            }
        }
    }

    /// Writes the append buffer to the active segment, resubmitting short
    /// writes and retrying each append, then syncs it when `fsync` is on.
    /// On give-up, whole frames already on disk stay durable (counted
    /// `wal_records`), the remainder of the buffer is the durability gap
    /// and the shard degrades. Returns whether the flush held. A degraded
    /// shard buffers nothing, so flushing it is a no-op that holds.
    pub(crate) fn flush(&mut self) -> bool {
        if self.buf.is_empty() {
            return true;
        }
        let Some(active) = self.active.as_mut() else {
            self.enter_degraded(0);
            return false;
        };
        let written = append_all(&mut *active.file, &self.buf, |op| {
            retried(&self.io, &self.metrics, op)
        });
        let (bytes, records) = match written {
            Ok(()) => (self.buf.len(), self.buf_records),
            // Whole frames below the write point are durable; the partial
            // tail (if any) is a torn frame recovery will truncate away.
            Err((off, _)) => (
                off,
                self.buf_frames
                    .iter()
                    .take_while(|&&(end, _)| end <= off)
                    .map(|&(_, records)| records)
                    .sum(),
            ),
        };
        active.flushed_len += bytes as u64;
        active.records += records;
        self.metrics.wal_records.add(records);
        let lost = self.buf_records - records;
        self.clear_buf();
        if written.is_err() {
            self.enter_degraded(lost);
            return false;
        }
        if self.fsync {
            let active = self.active.as_mut().expect("active segment");
            if retried(&self.io, &self.metrics, || active.file.sync()).is_err() {
                self.enter_degraded(0);
                return false;
            }
        }
        true
    }

    /// Simulated process death: unflushed bytes are gone. (Used by the
    /// in-process kill switch; a real SIGKILL gets this for free.)
    pub(crate) fn crash(&mut self) {
        self.clear_buf();
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
        if self.degraded || !self.flush() {
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

        let (fs, tmp) = (&self.fs, &self.snap_tmp);
        // The whole tmp write is one retryable unit: a retry restarts from
        // a truncating create, so partial attempts never compose.
        let written = retried(&self.io, &self.metrics, || {
            let mut f = fs.create(tmp)?;
            append_all(&mut *f, &buf, |op| op()).map_err(|(_, e)| e)?;
            if self.fsync {
                f.sync()?;
            }
            Ok(())
        });
        if written.is_err() {
            let _ = fs.remove(tmp);
            return;
        }
        if retried(&self.io, &self.metrics, || fs.rename(tmp, &self.snap)).is_err() {
            let _ = fs.remove(tmp);
            // A torn rename may have unlinked the published snapshot.
            self.published_coverage = 0;
            return;
        }
        self.last_snapshot_processed = state.processed;
        self.published_coverage = state.last_seq;
        self.metrics.snapshots_written.incr();
        self.compact(state.last_seq);
    }

    /// Deletes sealed segments whose records all fall at or below the
    /// published snapshot coverage. A segment that refuses to die stays
    /// queued for the next cadence.
    fn compact(&mut self, coverage_seq: u64) {
        self.sealed.retain(|seg| {
            if seg.last_seq > coverage_seq {
                return true;
            }
            let removed = retried(&self.io, &self.metrics, || {
                remove_existing(self.fs.as_ref(), &seg.path)
            });
            if removed.is_ok() {
                self.metrics.wal_segments_compacted.incr();
            }
            removed.is_err()
        });
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
    fingerprint: u64,
    lock: LockGuard,
    /// Each shard's fresh or recovered state and its open durability hook;
    /// consumed by `run`.
    armed: Option<Vec<(ShardState, ShardDurability)>>,
}

impl DurablePipeline {
    /// What [`DurablePipeline::create`] and [`DurablePipeline::recover`]
    /// share: the pipeline, its configuration fingerprint, the
    /// single-writer lock (a takeover counted), and per shard an empty
    /// state with a fresh durability hook.
    fn open(
        config: IngestConfig,
        templates: Vec<MotifTemplate>,
        durable: &DurableConfig,
    ) -> Result<DurablePipeline, DurableError> {
        let pipeline = IngestPipeline::new(config, templates);
        let fingerprint = config_fingerprint(pipeline.config(), pipeline.templates.len());
        let (lock, acquired) = LockGuard::acquire(
            Arc::clone(&durable.fs),
            &durable.dir,
            fingerprint,
            durable.takeover,
        )?;
        let metrics = pipeline.metrics();
        if acquired == Acquired::TookOver {
            metrics.lock_takeovers.incr();
        }
        let armed = (0..pipeline.config().shards)
            .map(|shard| {
                let hook = ShardDurability::new(shard, durable, fingerprint, Arc::clone(&metrics));
                (ShardState::new(), hook)
            })
            .collect();
        Ok(DurablePipeline {
            pipeline,
            fingerprint,
            lock,
            armed: Some(armed),
        })
    }

    /// Starts a fresh durable pipeline: acquires the single-writer lock
    /// and removes any leftover segments, snapshots and tmp files in
    /// `durable.dir`.
    pub fn create(
        config: IngestConfig,
        templates: Vec<MotifTemplate>,
        durable: DurableConfig,
    ) -> Result<DurablePipeline, DurableError> {
        let fs = durable.fs.as_ref();
        fs.create_dir_all(&durable.dir)?;
        let pipeline = DurablePipeline::open(config, templates, &durable)?;
        // A fresh run owns the directory: clear every durable artifact
        // (never the lock we just wrote).
        for name in fs.list(&durable.dir)? {
            let stale = parse_seg_name(&name).is_some()
                || (name.starts_with("snap-") && name.ends_with(".bin"))
                || name.ends_with(".tmp");
            if stale {
                remove_existing(fs, &durable.dir.join(&name))?;
            }
        }
        Ok(pipeline)
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
        let mut p = DurablePipeline::open(config, templates, &durable)?;
        let (fs, dir, pipeline) = (durable.fs.as_ref(), &durable.dir, &p.pipeline);
        let metrics = &pipeline.metrics;

        // Sweep tmp orphans (a crash between snapshot write and rename).
        let names = fs.list(dir)?;
        for name in names.iter().filter(|name| name.ends_with(".tmp")) {
            if remove_existing(fs, &dir.join(name))? {
                metrics.snapshot_tmp_swept.incr();
            }
        }

        // Group segment files by shard, ordered by first sequence.
        let shards = pipeline.config().shards;
        let mut by_shard: Vec<Vec<(u64, &String)>> = vec![Vec::new(); shards];
        for name in &names {
            if let Some((shard, first_seq)) = parse_seg_name(name) {
                if shard >= shards {
                    return Err(corrupt("segment for an out-of-range shard").into());
                }
                by_shard[shard].push((first_seq, name));
            }
        }

        let armed = p.armed.as_mut().expect("a fresh instance is armed");
        for (shard, (mut segs, (state, hook))) in by_shard.into_iter().zip(armed).enumerate() {
            segs.sort_unstable_by_key(|(first_seq, _)| *first_seq);
            let snap = snap_path(dir, shard);
            let loaded = load_snapshot(
                fs,
                &snap,
                shard,
                p.fingerprint,
                pipeline.config(),
                pipeline.templates.len(),
            )?;
            let (coverage_seq, covered, mut gap) = match loaded {
                SnapLoad::Loaded {
                    coverage_seq,
                    covered_records,
                    total_records,
                    state: loaded,
                } => {
                    *state = *loaded;
                    // The inherited gap: losses already counted by the run
                    // that wrote this snapshot.
                    let gap = total_records.saturating_sub(covered_records);
                    (coverage_seq, covered_records, gap)
                }
                SnapLoad::Discarded => {
                    metrics.snapshots_discarded.incr();
                    (0, 0, 0)
                }
                SnapLoad::Absent => (0, 0, 0),
            };

            // Stitch segments in sequence order, auditing each header's
            // records_before against what is accounted for so far; any
            // shortfall is a hole — records logged once (compacted away)
            // whose snapshot coverage died with the snapshot.
            let mut above = 0u64; // records replayed past the snapshot
            let replay = metrics.replay.enter();
            for (_first_seq, name) in segs {
                let path = dir.join(name);
                let Some((bytes, records_before)) = read_segment(fs, &path, shard, p.fingerprint)?
                else {
                    // A shell without a whole header carries nothing.
                    metrics.wal_torn_records.incr();
                    let _ = fs.remove(&path);
                    continue;
                };
                let accounted = covered + above + gap;
                if records_before > accounted {
                    gap += records_before - accounted;
                }
                let scan = scan_frames(&bytes, coverage_seq, |seq, report| {
                    if seq > coverage_seq {
                        state.consume(seq, report, pipeline.config(), &pipeline.templates);
                        above += 1;
                    }
                });
                metrics.wal_torn_records.add(scan.torn);
                if scan.torn > 0 {
                    // Heal the torn tail so future scans are clean.
                    fs.set_len(&path, scan.valid_len)?;
                }
                match scan.last_seq {
                    Some(last_seq) if last_seq > coverage_seq => {
                        hook.sealed.push(SegmentInfo { path, last_seq });
                    }
                    // Empty, or fully covered by the snapshot: compact it
                    // now.
                    _ => {
                        if remove_existing(fs, &path)? {
                            metrics.wal_segments_compacted.incr();
                        }
                    }
                }
            }
            drop(replay);

            // Restore the books: everything consumed was offered, and the
            // hole is a typed, counted loss — never silent.
            metrics.offered.add(state.processed + gap);
            metrics.wal_records.add(state.processed);
            metrics.wal_lost_records.add(gap);
            metrics.apply(&state.counts);
            metrics.shards[shard]
                .processed
                .store(state.processed, Ordering::Relaxed);

            hook.total_records = state.processed + gap;
            hook.last_snapshot_processed = state.processed;
            hook.published_coverage = coverage_seq;
        }
        metrics.recoveries.incr();
        Ok(p)
    }

    /// The live metrics registry (restored books after a recovery).
    pub fn metrics(&self) -> Arc<IngestMetrics> {
        self.pipeline.metrics()
    }

    /// The underlying pipeline configuration.
    pub fn config(&self) -> &IngestConfig {
        self.pipeline.config()
    }

    /// The armed shards, before `run` consumes them.
    fn armed(&self) -> &[(ShardState, ShardDurability)] {
        self.armed
            .as_deref()
            .expect("durable pipeline already consumed by run()")
    }

    /// Combined digest of the current (recovered) shard states — equals
    /// the digest of a fresh `ShardState::consume` fold over each shard's
    /// durably-logged records.
    pub fn state_digest(&self) -> u64 {
        self.armed()
            .iter()
            .fold(FNV_OFFSET, |acc, (s, _)| fnv1a64_u64(acc, state_digest(s)))
    }

    /// The earliest global sequence number NOT yet durable in every shard:
    /// feeding the stream suffix starting here (via
    /// [`DurablePipeline::run_from`]) loses nothing. Re-feeding from the
    /// beginning is always correct too — already-durable reports are
    /// skipped per shard.
    pub fn resume_seq(&self) -> u64 {
        self.armed()
            .iter()
            .map(|(s, _)| s.last_seq)
            .min()
            .unwrap_or(0)
            + 1
    }

    /// Runs the full stream (global sequence numbers assigned from 1),
    /// skipping reports each shard already holds durably. `kill` arms the
    /// crash switch.
    ///
    /// # Panics
    /// A shard worker's panic is resumed on the calling thread.
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
        let shards = self
            .armed
            .take()
            .expect("a durable pipeline instance runs once; recover() a new one")
            .into_iter()
            .map(|(state, hook)| (state, Some(hook)))
            .collect();
        let Some((summary, digest)) = self.pipeline.run_inner(reports, first_seq, shards, kill)
        else {
            // A cooperative kill simulates a dead process; within this
            // process the PID stays alive, so the corpse must release the
            // lock for recovery to proceed without takeover.
            self.lock.release();
            return Ok(DurableRun::Killed);
        };
        let gap = summary.metrics.durability_gap();
        Ok(DurableRun::Completed {
            summary: Box::new(summary),
            state_digest: digest.expect("durable run always yields a digest"),
            durability: if gap == 0 {
                Durability::Durable
            } else {
                Durability::Degraded { gap }
            },
        })
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

/// The last sequence number in a segment's valid prefix of whole frames
/// (`None` when it holds none). Reads the real filesystem; checks the
/// header's length and magic as recovery does but, like
/// [`snapshot_coverage`], not its fingerprint or shard.
pub fn segment_last_seq(path: &Path) -> io::Result<Option<u64>> {
    let bytes = std::fs::read(path)?;
    Ok(seg_header(&bytes)?.and_then(|_| scan_frames(&bytes, u64::MAX, |_, _| {}).last_seq))
}

/// The coverage sequence of a shard's snapshot, if a checksummed-valid one
/// exists. Reads the real filesystem and parses the file as recovery does
/// (a wrong magic or version is an `InvalidData` error), but does not
/// validate the fingerprint: inspection must work without knowing the
/// run's configuration.
pub fn snapshot_coverage(dir: &Path, shard: usize) -> io::Result<Option<u64>> {
    let bytes = match std::fs::read(snap_path(dir, shard)) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    Ok(parse_snapshot(&bytes)?.map(|snap| snap.coverage_seq))
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

    /// Where each frame of a segment file ends, in file order, walking the
    /// length prefixes.
    fn frame_ends(bytes: &[u8]) -> Vec<usize> {
        let mut ends = Vec::new();
        let mut pos = SEG_HEADER_LEN;
        while pos < bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
            pos += FRAME_PREFIX_LEN + len as usize;
            ends.push(pos);
        }
        ends
    }

    /// Four-report batches into segments that fit about two of their
    /// frames, so a short stream rotates through many segments.
    fn rotating(dir: &Path, snapshot_every: u64) -> (IngestConfig, DurableConfig) {
        let cfg = IngestConfig {
            batch_reports: 4,
            ..config(1)
        };
        let dcfg = DurableConfig {
            snapshot_every_reports: snapshot_every,
            segment_bytes: (SEG_HEADER_LEN + 120) as u64,
            ..DurableConfig::new(dir)
        };
        (cfg, dcfg)
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

    /// Every length from empty through several 16-byte strides plus each
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
    /// rotation, snapshots and compaction leaves snapshot files and segment
    /// files whose FNV-1a digests (file names included) are recorded here
    /// one kind at a time, as is the run's state digest. A change to the
    /// canonical state encoding moves the snapshot digest and the state
    /// digest; a change to the frame layout or its checksum moves only the
    /// segment digest.
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
        let files_digest = |prefix: &str| {
            let mut digest = FNV_OFFSET;
            for name in names.iter().filter(|n| n.starts_with(prefix)) {
                digest = fnv1a64_bytes(digest, name.as_bytes());
                digest = fnv1a64_bytes(digest, &std::fs::read(dir.join(name)).unwrap());
            }
            digest
        };
        assert_eq!(names.iter().filter(|n| n.starts_with("snap-")).count(), 2);
        assert!(names.iter().any(|n| n.starts_with("wal-")));
        assert_eq!(
            files_digest("snap-"),
            0x9df1_c02c_a14b_425a,
            "snapshot bytes changed"
        );
        assert_eq!(
            state_digest, 0x73cd_2584_6a5b_fa83,
            "state encoding changed"
        );
        assert_eq!(
            files_digest("wal-"),
            0x759e_608a_1815_2b1e,
            "segment bytes changed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A frame decodes to the batch it encodes, through deltas of every
    /// sign and width: gateways and devices jumping down and up across
    /// their whole ranges, minutes running backwards (a reordered report),
    /// seq gaps, and counters at zero and at their maximum.
    #[test]
    fn wal_payload_roundtrip() {
        let batch = vec![
            (567, report(42, 7, 1234, 99_999)),
            (
                568,
                IngestReport {
                    cum_out: u64::MAX,
                    ..report(u64::MAX, u32::MAX, u32::MAX, u64::MAX)
                },
            ),
            (990, report(0, 0, 0, 0)),
            (991, report(42, 9, 1200, 1 << 40)),
            (u64::MAX, report(1 << 63, 1 << 31, 1, 7)),
        ];
        let mut buf = Vec::new();
        encode_frame(&mut buf, &batch);
        let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - FRAME_PREFIX_LEN);
        let body = &buf[FRAME_PREFIX_LEN..];
        assert_eq!(
            crc32(body),
            u32::from_le_bytes(buf[4..8].try_into().unwrap())
        );
        let mut back = Vec::new();
        assert!(decode_frame(body, &mut back).is_some());
        assert_eq!(back, batch);

        // A body cut short or padded does not parse.
        assert!(decode_frame(&body[..body.len() - 1], &mut back).is_none());
        let mut padded = body.to_vec();
        padded.push(0);
        assert!(decode_frame(&padded, &mut back).is_none());
    }

    /// Recovery reads whatever a crash or a bad disk left: a frame cut
    /// anywhere, flipped bits, or bytes that were never a frame. The scan
    /// never panics and never reaches past the bytes it was given.
    #[test]
    fn corrupt_frames_never_panic() {
        let batch: Vec<(u64, IngestReport)> = (1..50u64)
            .map(|i| (i, report(i % 3, (i % 5) as u32, i as u32, i * 1000)))
            .collect();
        let mut frame = Vec::new();
        encode_frame(&mut frame, &batch);
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x as usize
        };
        for round in 0..20_000 {
            let mut bytes = vec![0u8; SEG_HEADER_LEN];
            if round % 2 == 0 {
                bytes.extend_from_slice(&frame);
                for _ in 0..next() % 4 {
                    let i = SEG_HEADER_LEN + next() % frame.len();
                    bytes[i] ^= next() as u8;
                }
                bytes.truncate(SEG_HEADER_LEN + next() % (frame.len() + 1));
            } else {
                let len = next() % 300;
                bytes.extend((0..len).map(|_| next() as u8));
            }
            let scan = scan_frames(&bytes, 0, |_, _| {});
            assert!(scan.valid_len as usize <= bytes.len());
            assert_eq!(scan.torn == 0, scan.valid_len as usize == bytes.len());
        }
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
                    let (bytes, _) = read_segment(&StdFs, &path, shard, fingerprint)
                        .unwrap()
                        .expect("a whole header");
                    let scan = scan_frames(&bytes, 0, |seq, r| state.consume(seq, r, &cfg, &[]));
                    assert_eq!(scan.torn, 0, "clean abort leaves no torn tail");
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

    /// A segment truncated mid-frame recovers to the last valid
    /// checksummed frame, heals the file, and counts the tear.
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

        // Tear the file mid-frame: keep the header, the first two frames
        // (16-report batches: 32 records) and 13 bytes of the third.
        let segs = segment_files(&dir, 0).unwrap();
        assert_eq!(segs.len(), 1, "default segment size holds 100 records");
        let path = segs[0].1.clone();
        let ends = frame_ends(&std::fs::read(&path).unwrap());
        assert_eq!(ends.len(), 7, "one frame per batch");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), ends[6] as u64);
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len((ends[1] + 13) as u64)
            .unwrap();

        let recovered = DurablePipeline::recover(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        let m = recovered.metrics().snapshot();
        assert_eq!(m.wal_torn_records, 1);
        assert_eq!(m.offered, 32, "only the valid prefix survives");
        assert_eq!(m.wal_records, 32);
        assert!(m.fully_accounted());
        // The file was healed back to the valid prefix.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), ends[1] as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A corrupted byte inside a frame fails its checksum and truncates
    /// the view there — a bad frame never half-applies.
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
        // Flip one byte in the middle of the second frame (records 16–31
        // of 16-report batches): only the first frame's records survive.
        let mut bytes = std::fs::read(&path).unwrap();
        let ends = frame_ends(&bytes);
        bytes[(ends[0] + ends[1]) / 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let recovered = DurablePipeline::recover(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        let m = recovered.metrics().snapshot();
        assert_eq!(m.offered, 16);
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

        // Truncate the (single) segment far below the snapshot coverage:
        // its first frame of 16 records only.
        let path = segment_files(&dir, 0).unwrap()[0].1.clone();
        let first_frame_end = frame_ends(&std::fs::read(&path).unwrap())[0];
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(first_frame_end as u64)
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

    /// A segment of the v1 format (one 48-byte record per report) is
    /// refused with the typed "bad segment magic" error: no v1 reader is
    /// kept, and replaying v1 bytes as frames would misparse them.
    #[test]
    fn v1_segment_is_refused() {
        let dir = tmp_dir("v1");
        let cfg = config(1);
        let dcfg = DurableConfig::new(dir.clone());
        let mut p = DurablePipeline::create(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        let fingerprint = p.fingerprint();
        p.run(flat_stream(1, 10), None).unwrap();
        drop(p);
        for (_, path) in segment_files(&dir, 0).unwrap() {
            std::fs::remove_file(path).unwrap();
        }
        // A v1 segment: its header, then one record (u32 length 40, CRC32,
        // then seq, gateway, device, minute and both counters).
        let mut v1 = encode_seg_header(0, fingerprint, 1, 0).to_vec();
        v1[0..8].copy_from_slice(b"WTTSSEG1");
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        put_u64(&mut payload, 1);
        put_u32(&mut payload, 0);
        put_u32(&mut payload, 0);
        put_u64(&mut payload, 10);
        put_u64(&mut payload, 5);
        put_u32(&mut v1, payload.len() as u32);
        put_u32(&mut v1, crc32(&payload));
        v1.extend_from_slice(&payload);
        let path = seg_path(&dir, 0, 1);
        std::fs::write(&path, &v1).unwrap();

        match DurablePipeline::recover(cfg, Vec::new(), dcfg) {
            Err(DurableError::Io(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                assert!(e.to_string().contains("bad segment magic"), "{e}");
            }
            Ok(_) => panic!("a v1 segment must be refused"),
            Err(e) => panic!("expected an Io error, got {e:?}"),
        }
        assert!(matches!(
            segment_last_seq(&path),
            Err(e) if e.kind() == io::ErrorKind::InvalidData
        ));
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
        let (cfg, dcfg) = rotating(&dir, 25);
        let seg_bytes = dcfg.segment_bytes;
        let mut p = DurablePipeline::create(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        let end = p.run(flat_stream(7, 200), None).unwrap();
        assert_eq!(end.durability(), Some(Durability::Durable));

        let m = p.metrics().snapshot();
        drop(p);

        assert!(m.wal_segments_created >= 15, "two-frame segments rotate");
        assert!(m.wal_segments_compacted >= 10, "covered segments die");
        assert!(m.snapshots_written >= 3);

        let usage = wal_disk_usage(&dir).unwrap();
        assert!(
            usage <= seg_bytes * 6,
            "disk stays bounded: {usage} bytes vs {} segments written",
            m.wal_segments_created
        );
        let coverage = snapshot_coverage(&dir, 0).unwrap().expect("snapshot");
        assert!(coverage >= 150);
        // Compaction invariant: every surviving segment except the newest
        // holds at least one record past the snapshot coverage.
        let segs = segment_files(&dir, 0).unwrap();
        assert!(!segs.is_empty());
        for (_, path) in &segs[..segs.len() - 1] {
            let last = segment_last_seq(path).unwrap().unwrap_or(0);
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
        let (cfg, dcfg) = rotating(&dir, 25);
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
        // append (the frame that crosses the 64 KiB threshold), 2 = its
        // honest sync, 3 = final flush append, 4 = the lying sync.
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
        let stream = flat_stream(5, 10_000);
        let mut p = DurablePipeline::create(cfg.clone(), Vec::new(), dcfg.clone()).unwrap();
        let end = p.run(stream.iter().copied(), None).unwrap();
        // The lie is invisible live: the run believes it is durable.
        assert_eq!(end.durability(), Some(Durability::Durable));
        drop(p);

        faulty.machine_crash().unwrap();

        // The first flush carries the whole frames (one per batch, seqs from
        // 1) up to the one that fills the buffer past the threshold.
        let mut buf = Vec::new();
        let mut flush_at = 0u64;
        for chunk in stream.chunks(cfg.batch_reports) {
            let batch: Vec<(u64, IngestReport)> =
                (flush_at + 1..).zip(chunk.iter().copied()).collect();
            encode_frame(&mut buf, &batch);
            flush_at += batch.len() as u64;
            if buf.len() >= WAL_FLUSH_BYTES {
                break;
            }
        }
        assert!(
            flush_at < stream.len() as u64,
            "the stream outgrows one flush"
        );
        let recovered = DurablePipeline::recover(cfg, Vec::new(), dcfg).unwrap();
        let m = recovered.metrics().snapshot();
        assert_eq!(m.offered, flush_at, "the honestly-synced prefix survives");
        assert_eq!(m.wal_records, flush_at);
        assert_eq!(m.wal_torn_records, 0, "truncation lands on a frame edge");
        assert!(m.fully_accounted());
        assert!(m.durably_accounted());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
