//! The segmented, append-only write-ahead log of the record stream.
//!
//! # Frame format
//!
//! One frame per record, fixed header then payload (all little-endian):
//!
//! ```text
//! len      u32          payload length in bytes
//! crc      u32          CRC-32C of the payload
//! payload:
//!   id     u64
//!   t      f64          raw bits (timestamps are load-bearing)
//!   nnz    u32
//!   dims   u32 × nnz    strictly increasing
//!   ws     f64 × nnz    raw weights
//! ```
//!
//! The payload is deliberately **fixed-width** (unlike the checkpoint
//! aux blob's delta+varint coding): the append sits on the per-record hot
//! path with a 15 % overhead budget (`wal_overhead` bench), and
//! fixed-width fields encode as bulk copies — no per-byte varint loops
//! — while the horizon GC keeps total disk usage bounded by the live
//! window anyway, so the ~25 % size saving varints would buy is not
//! worth the cycles.
//!
//! A reader accepts a frame only if the header is complete, `len` is
//! sane, the CRC matches and the decoded record passes the same
//! untrusted-input validation as the checkpoint aux reader (dimensions
//! strictly increasing and ≤ [`MAX_SNAPSHOT_DIM`], weights finite in
//! `(0, 1]`, timestamps finite and non-decreasing across the log).
//! Anything else is treated as a torn tail: the log is truncated at the
//! last good frame and every later segment is deleted, which is exactly
//! the contract crash recovery needs — a `kill -9` mid-write loses at
//! most the torn frame, never the prefix.
//!
//! # Segments
//!
//! Frames are grouped into segment files `wal/seg-<first_seq:016x>.wal`,
//! each opening with a 16-byte header (`b"SSSJWAL1"` + the absolute
//! sequence number of its first record). A new segment starts every
//! [`DurableOptions::segment_records`](crate::DurableOptions) records.
//! Sequence numbers are absolute stream positions, so
//! [`Wal::next_seq`] equals the total number of records ever ingested
//! even after old segments are garbage-collected.
//!
//! # Horizon-aware GC
//!
//! A segment whose **newest** record is older than `now − horizon` can
//! never pair again (the engines' own forgetting horizon), and once a
//! checkpoint covers its last record the aux state it contributed is
//! persisted too — [`Wal::gc`] deletes exactly the sealed segments
//! satisfying both conditions, oldest first.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use sssj_core::MAX_SNAPSHOT_DIM;
use sssj_metrics::registry::{Counter, Registry};
use sssj_types::{SparseVectorBuilder, StreamRecord, Timestamp};

/// Registry handles for the WAL hot paths, resolved once per process.
struct WalMetrics {
    appends: &'static Counter,
    bytes: &'static Counter,
    fsyncs: &'static Counter,
    gc_batches: &'static Counter,
    gc_segments: &'static Counter,
}

fn wal_metrics() -> &'static WalMetrics {
    static M: OnceLock<WalMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let reg = Registry::global();
        WalMetrics {
            appends: reg.counter(
                "sssj_store_wal_appends_total",
                "records appended to the WAL",
            ),
            bytes: reg.counter("sssj_store_wal_bytes_total", "WAL frame bytes encoded"),
            fsyncs: reg.counter(
                "sssj_store_wal_fsyncs_total",
                "fsyncs forced by checkpoints",
            ),
            gc_batches: reg.counter(
                "sssj_store_gc_batches_total",
                "horizon-GC sweeps that retired segments",
            ),
            gc_segments: reg.counter(
                "sssj_store_gc_segments_total",
                "WAL segments retired by horizon GC",
            ),
        }
    })
}

use crate::crc::crc32c;

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: &[u8; 8] = b"SSSJWAL1";
const SEGMENT_HEADER_LEN: u64 = 16;
/// Sanity cap on one frame's payload; a record beyond this is treated as
/// corruption (the bound implies ≤ ~5M coordinates, far above
/// [`MAX_SNAPSHOT_DIM`]-constrained realistic vectors).
const MAX_FRAME_LEN: u32 = 64 << 20;
/// Frames accumulate in an in-process buffer and go to the file in one
/// write(2) when it fills — the per-record file cost is one amortized
/// syscall per 256 KiB, not a `BufWriter` copy plus a call per frame.
const WRITE_BUFFER: usize = 1 << 18;

/// One segment's bookkeeping.
#[derive(Clone, Debug)]
struct Segment {
    first_seq: u64,
    records: u64,
    first_t: f64,
    newest_t: f64,
    path: PathBuf,
}

/// Metadata of one sealed segment the horizon GC is about to retire:
/// its records are older than the forgetting horizon *and* fully
/// covered by a published checkpoint, so the live join will never read
/// them again.
#[derive(Clone, Debug)]
pub struct RetiredSegment {
    /// The segment file (still present when the sink runs).
    pub path: PathBuf,
    /// Absolute sequence number of the segment's first record.
    pub first_seq: u64,
    /// Records in the segment.
    pub records: u64,
    /// Timestamp of the oldest record.
    pub first_t: f64,
    /// Timestamp of the newest record.
    pub newest_t: f64,
}

/// Where retired WAL segments go. The GC hands each retirable segment
/// to the sink *instead of* deleting it inline, which is the attachment
/// point for the historical tier's compactor (`sssj-segments`) and for
/// retention policies (archive to cold storage, sample, …).
///
/// Contract: when `retire` returns `Ok`, the sink has taken full
/// responsibility for the segment — including removing the file once
/// (and only once) its contents are safe elsewhere. On `Err` the GC
/// stops immediately and the segment stays accounted in the log, so a
/// failed hand-off never loses records; the same segment is offered
/// again at the next GC cycle.
pub trait GcSink: Send {
    /// Takes ownership of one retirable segment (oldest first).
    fn retire(&mut self, segment: &RetiredSegment) -> io::Result<()>;

    /// Runs right before every checkpoint publish, after the WAL sync.
    /// Sinks that buffer state derived from the live join (the
    /// compactor's expired-edge queue) must make it durable here: a
    /// crash after the checkpoint would otherwise strand state that the
    /// checkpoint no longer carries. The default does nothing.
    fn before_publish(&mut self, _watermark: f64) -> io::Result<()> {
        Ok(())
    }
}

/// The default sink: deletes retired segments, exactly as the GC did
/// before sinks existed.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeleteSink;

impl GcSink for DeleteSink {
    fn retire(&mut self, segment: &RetiredSegment) -> io::Result<()> {
        fs::remove_file(&segment.path)
    }
}

/// The write half of the log plus the metadata of every retained
/// segment. Construct with [`Wal::create`] (fresh directory) or
/// [`Wal::open_existing`] (recovery: replays and self-repairs the log).
pub struct Wal {
    wal_dir: PathBuf,
    file: File,
    /// Encoded frames not yet written to `file` (see [`WRITE_BUFFER`]).
    buf: Vec<u8>,
    cur: Segment,
    sealed: Vec<Segment>,
    next_seq: u64,
    last_t: f64,
    segment_records: u64,
    sync_appends: bool,
    /// Segments deleted by GC over this handle's lifetime.
    gc_deleted: u64,
}

fn segment_path(wal_dir: &Path, first_seq: u64) -> PathBuf {
    wal_dir.join(format!("seg-{first_seq:016x}.wal"))
}

fn open_segment(wal_dir: &Path, first_seq: u64) -> io::Result<(File, Segment)> {
    let path = segment_path(wal_dir, first_seq);
    let mut file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&path)?;
    let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
    header[..8].copy_from_slice(SEGMENT_MAGIC);
    header[8..].copy_from_slice(&first_seq.to_le_bytes());
    file.write_all(&header)?;
    Ok((
        file,
        Segment {
            first_seq,
            records: 0,
            first_t: f64::INFINITY,
            newest_t: f64::NEG_INFINITY,
            path,
        },
    ))
}

/// Exposes [`encode_frame`] for the `enc_profile` example (not part of
/// the public API surface).
#[doc(hidden)]
pub fn encode_frame_for_profile(record: &StreamRecord, buf: &mut Vec<u8>) {
    encode_frame(record, buf);
}

/// Appends the raw little-endian bytes of a numeric slice to `buf` in
/// one memcpy. On little-endian targets (every platform this workspace
/// ships on) the in-memory layout *is* the wire layout, so the encode
/// loop disappears; big-endian targets fall back to the per-element
/// path.
#[inline]
fn extend_le_bytes<T: Copy>(buf: &mut Vec<u8>, values: &[T], write_one: impl Fn(&mut Vec<u8>, &T)) {
    #[cfg(target_endian = "little")]
    {
        let _ = &write_one;
        // SAFETY: any initialized numeric slice is readable as bytes
        // (u8 has no validity or alignment requirements), and on a
        // little-endian target the byte order matches the wire format.
        let bytes = unsafe {
            std::slice::from_raw_parts(values.as_ptr() as *const u8, std::mem::size_of_val(values))
        };
        buf.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    {
        for v in values {
            write_one(buf, v);
        }
    }
}

/// Appends one record's frame to `buf`. This is the per-record hot
/// path (the `wal_overhead` bench budget): every field is fixed-width
/// and the dimension/weight columns go in as two bulk memcpys.
fn encode_frame(record: &StreamRecord, buf: &mut Vec<u8>) {
    let v = &record.vector;
    let nnz = v.nnz();
    let payload_len = 8 + 8 + 4 + 12 * nnz;
    let start = buf.len();
    buf.reserve(8 + payload_len);
    // One extend for the fixed-width head (frame header + scalar
    // fields): five capacity checks fold into one.
    let mut head = [0u8; 28];
    head[0..4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    // head[4..8] = crc, patched below.
    head[8..16].copy_from_slice(&record.id.to_le_bytes());
    head[16..24].copy_from_slice(&record.t.seconds().to_le_bytes());
    head[24..28].copy_from_slice(&(nnz as u32).to_le_bytes());
    buf.extend_from_slice(&head);
    extend_le_bytes(buf, v.dims(), |b, d| b.extend_from_slice(&d.to_le_bytes()));
    extend_le_bytes(buf, v.weights(), |b, x| {
        b.extend_from_slice(&x.to_le_bytes())
    });
    let crc = crc32c(&buf[start + 8..]);
    buf[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Decodes and validates one frame payload. `last_t` enforces the
/// cross-frame timestamp monotonicity the engines rely on. The `nnz`
/// count is cross-checked against the payload length *before* any
/// allocation is sized from it.
fn decode_payload(payload: &[u8], last_t: f64) -> Result<StreamRecord, String> {
    if payload.len() < 20 {
        return Err(format!("payload too short ({} bytes)", payload.len()));
    }
    let id = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
    let t = f64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
    if !t.is_finite() || t < last_t {
        return Err(format!("bad timestamp {t} (watermark {last_t})"));
    }
    let nnz = u32::from_le_bytes(payload[16..20].try_into().expect("4 bytes")) as usize;
    if nnz as u64 > MAX_SNAPSHOT_DIM as u64 {
        return Err(format!("absurd nnz {nnz}"));
    }
    // A lying nnz must fail here, before it sizes any allocation.
    if payload.len() != 20 + 12 * nnz {
        return Err(format!(
            "payload length {} does not match nnz {nnz}",
            payload.len()
        ));
    }
    let (dims_bytes, ws_bytes) = payload[20..].split_at(4 * nnz);
    let mut b = SparseVectorBuilder::with_capacity(nnz);
    let mut prev: Option<u32> = None;
    for (db, wb) in dims_bytes.chunks_exact(4).zip(ws_bytes.chunks_exact(8)) {
        let d = u32::from_le_bytes(db.try_into().expect("4 bytes"));
        if d > MAX_SNAPSHOT_DIM {
            return Err(format!("dimension {d} too large"));
        }
        if prev.is_some_and(|p| d <= p) {
            return Err("dims not increasing".into());
        }
        prev = Some(d);
        let x = f64::from_le_bytes(wb.try_into().expect("8 bytes"));
        if !x.is_finite() || x <= 0.0 || x > 1.0 + 1e-9 {
            return Err(format!("bad weight {x}"));
        }
        b.push(d, x);
    }
    let vector = b.build().map_err(|e| format!("bad vector: {e}"))?;
    Ok(StreamRecord::new(id, Timestamp::new(t), vector))
}

/// The outcome of scanning an existing log.
pub struct WalScan {
    /// The surviving write handle, positioned to append.
    pub wal: Wal,
    /// Every record replayable from the retained segments, in order.
    /// Absolute sequence numbers are `wal.next_seq() - records.len()`
    /// onwards.
    pub records: Vec<StreamRecord>,
    /// Whether corruption was found (and the log truncated at the last
    /// good frame).
    pub truncated: bool,
}

impl Wal {
    /// Creates a fresh log under `dir/wal`.
    pub fn create(dir: &Path, segment_records: u64, sync_appends: bool) -> io::Result<Wal> {
        let wal_dir = dir.join("wal");
        fs::create_dir_all(&wal_dir)?;
        let (file, cur) = open_segment(&wal_dir, 0)?;
        Ok(Wal {
            wal_dir,
            file,
            buf: Vec::with_capacity(2 * WRITE_BUFFER),
            cur,
            sealed: Vec::new(),
            next_seq: 0,
            last_t: f64::NEG_INFINITY,
            segment_records: segment_records.max(1),
            sync_appends,
            gc_deleted: 0,
        })
    }

    /// Opens an existing log under `dir/wal`: reads every segment in
    /// sequence order, stops at the first corruption, truncates the log
    /// there (deleting any later segments), and returns the surviving
    /// records together with a write handle positioned at the end.
    pub fn open_existing(
        dir: &Path,
        segment_records: u64,
        sync_appends: bool,
    ) -> io::Result<WalScan> {
        let wal_dir = dir.join("wal");
        fs::create_dir_all(&wal_dir)?;
        let mut paths: Vec<PathBuf> = fs::read_dir(&wal_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("seg-") && n.ends_with(".wal"))
            })
            .collect();
        paths.sort(); // hex-padded names sort by first_seq

        let mut records = Vec::new();
        let mut segments: Vec<Segment> = Vec::new();
        let mut truncated = false;
        let mut expected_seq: Option<u64> = None;
        let mut last_t = f64::NEG_INFINITY;
        for (i, path) in paths.iter().enumerate() {
            match Self::scan_segment(path, expected_seq, &mut last_t, &mut records) {
                Ok(seg) => {
                    expected_seq = Some(seg.first_seq + seg.records);
                    segments.push(seg);
                }
                Err(keep_bytes) => {
                    // Torn or corrupt: cut the log here. `keep_bytes`
                    // is how much of this segment survives (0 = the
                    // header itself is bad → drop the whole file).
                    truncated = true;
                    match keep_bytes {
                        Some((seg, good_len)) => {
                            let f = OpenOptions::new().write(true).open(path)?;
                            f.set_len(good_len)?;
                            f.sync_all()?;
                            segments.push(seg);
                        }
                        None => {
                            fs::remove_file(path)?;
                        }
                    }
                    for later in &paths[i + 1..] {
                        fs::remove_file(later)?;
                    }
                    break;
                }
            }
        }

        let next_seq = segments
            .last()
            .map(|s| s.first_seq + s.records)
            .unwrap_or(0);
        // Reopen the last surviving segment for appending; if nothing
        // survived, start a fresh one at the recovered sequence.
        let (file, cur) = match segments.pop() {
            Some(seg) => {
                let mut file = OpenOptions::new().write(true).open(&seg.path)?;
                file.seek(SeekFrom::End(0))?;
                (file, seg)
            }
            None => open_segment(&wal_dir, next_seq)?,
        };
        Ok(WalScan {
            wal: Wal {
                wal_dir,
                file,
                buf: Vec::with_capacity(2 * WRITE_BUFFER),
                cur,
                sealed: segments,
                next_seq,
                last_t,
                segment_records: segment_records.max(1),
                sync_appends,
                gc_deleted: 0,
            },
            records,
            truncated,
        })
    }

    /// Scans one segment. `Ok(segment)` when it reads cleanly to EOF;
    /// `Err(Some((segment, good_len)))` when a later frame is corrupt
    /// but a good prefix survives; `Err(None)` when the header itself is
    /// unusable.
    #[allow(clippy::type_complexity)]
    fn scan_segment(
        path: &Path,
        expected_seq: Option<u64>,
        last_t: &mut f64,
        records: &mut Vec<StreamRecord>,
    ) -> Result<Segment, Option<(Segment, u64)>> {
        let mut file = match File::open(path) {
            Ok(f) => f,
            Err(_) => return Err(None),
        };
        let mut header = [0u8; SEGMENT_HEADER_LEN as usize];
        if file.read_exact(&mut header).is_err() || &header[..8] != SEGMENT_MAGIC {
            return Err(None);
        }
        let first_seq = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        if expected_seq.is_some_and(|e| e != first_seq) {
            // A gap or overlap in the sequence space: everything from
            // here on is unusable.
            return Err(None);
        }
        let mut seg = Segment {
            first_seq,
            records: 0,
            first_t: f64::INFINITY,
            newest_t: f64::NEG_INFINITY,
            path: path.to_path_buf(),
        };
        let mut good_len = SEGMENT_HEADER_LEN;
        let mut frame_header = [0u8; 8];
        let mut payload = Vec::new();
        loop {
            match file.read_exact(&mut frame_header) {
                Ok(()) => {}
                Err(_) => {
                    // Clean EOF (file ends exactly at the last good
                    // frame) is the common case and is not corruption; a
                    // torn header means the tail must be cut.
                    let clean = file.metadata().ok().is_some_and(|m| m.len() == good_len);
                    if clean {
                        return Ok(seg);
                    }
                    return Err(Some((seg, good_len)));
                }
            }
            let len = u32::from_le_bytes(frame_header[0..4].try_into().expect("4 bytes"));
            let crc = u32::from_le_bytes(frame_header[4..8].try_into().expect("4 bytes"));
            if len == 0 || len > MAX_FRAME_LEN {
                return Err(Some((seg, good_len)));
            }
            payload.clear();
            payload.resize(len as usize, 0);
            if file.read_exact(&mut payload).is_err() || crc32c(&payload) != crc {
                return Err(Some((seg, good_len)));
            }
            match decode_payload(&payload, *last_t) {
                Ok(record) => {
                    let t = record.t.seconds();
                    *last_t = t;
                    if seg.records == 0 {
                        seg.first_t = t;
                    }
                    seg.newest_t = t;
                    seg.records += 1;
                    good_len += 8 + len as u64;
                    records.push(record);
                }
                Err(_) => return Err(Some((seg, good_len))),
            }
        }
    }

    /// Appends one record, returning its absolute sequence number.
    /// Rejects non-finite or backwards-in-time timestamps up front: the
    /// engines require monotone streams anyway, and a logged bad frame
    /// would otherwise read as corruption on the next open — truncating
    /// every record after it.
    pub fn append(&mut self, record: &StreamRecord) -> io::Result<u64> {
        let t = record.t.seconds();
        if !t.is_finite() || t < self.last_t {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "out-of-order timestamp {t} (watermark {}): the WAL only \
                     accepts non-decreasing streams",
                    self.last_t
                ),
            ));
        }
        if self.cur.records >= self.segment_records {
            self.seal()?;
        }
        let mut span =
            sssj_metrics::trace::span_with(sssj_metrics::trace::Stage::WalAppend, record.id, 0);
        let buffered = self.buf.len();
        encode_frame(record, &mut self.buf);
        let m = wal_metrics();
        m.appends.inc();
        m.bytes.add((self.buf.len() - buffered) as u64);
        span.set_args(record.id, (self.buf.len() - buffered) as u64);
        if self.sync_appends || self.buf.len() >= WRITE_BUFFER {
            self.flush()?;
        }
        if self.cur.records == 0 {
            self.cur.first_t = t;
        }
        self.cur.newest_t = t;
        self.cur.records += 1;
        self.last_t = t;
        let seq = self.next_seq;
        self.next_seq += 1;
        Ok(seq)
    }

    /// Seals the current segment and opens the next one.
    fn seal(&mut self) -> io::Result<()> {
        self.flush()?;
        let (file, cur) = open_segment(&self.wal_dir, self.next_seq)?;
        let old = std::mem::replace(&mut self.cur, cur);
        self.file = file; // the old file was flushed above
        self.sealed.push(old);
        Ok(())
    }

    /// Flushes buffered frames to the OS.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Flushes the open segment to the OS and, with `fsync`, forces it
    /// to stable storage — called before a checkpoint is published, so
    /// the manifest never references state the OS has not seen. The
    /// fsync is the machine-crash half of the durability contract; a
    /// plain flush already survives any process crash.
    pub fn sync(&mut self, fsync: bool) -> io::Result<()> {
        self.flush()?;
        if fsync {
            let _span = sssj_metrics::trace::span(sssj_metrics::trace::Stage::WalFsync);
            self.file.sync_all()?;
            wal_metrics().fsyncs.inc();
        }
        Ok(())
    }

    /// The next sequence number to be assigned — equal to the total
    /// number of records ever appended (GC does not move it).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Timestamp of the newest appended record.
    pub fn last_t(&self) -> f64 {
        self.last_t
    }

    /// Timestamp of the oldest *retained* record, `None` when empty.
    /// Emitted pairs older than this can never be regenerated by replay
    /// (their members are gone from the log), so the checkpoint's
    /// suppression set is pruned against it.
    pub fn oldest_t(&self) -> Option<f64> {
        if let Some(seg) = self.sealed.first() {
            if seg.records > 0 {
                return Some(seg.first_t);
            }
        }
        (self.cur.records > 0).then_some(self.cur.first_t)
    }

    /// Retires sealed segments that (a) can never pair again — newest
    /// record older than `floor_t` — and (b) are fully covered by the
    /// checkpoint at `ckpt_seq`, handing each to `sink` oldest first.
    /// Returns how many were retired. A sink error stops the sweep with
    /// the failing segment still retained (see [`GcSink`]).
    pub fn gc(&mut self, floor_t: f64, ckpt_seq: u64, sink: &mut dyn GcSink) -> io::Result<usize> {
        let mut retired = 0;
        while let Some(seg) = self.sealed.first() {
            if seg.newest_t < floor_t && seg.first_seq + seg.records <= ckpt_seq {
                sink.retire(&RetiredSegment {
                    path: seg.path.clone(),
                    first_seq: seg.first_seq,
                    records: seg.records,
                    first_t: seg.first_t,
                    newest_t: seg.newest_t,
                })?;
                self.sealed.remove(0);
                retired += 1;
            } else {
                break;
            }
        }
        self.gc_deleted += retired as u64;
        if retired > 0 {
            let m = wal_metrics();
            m.gc_batches.inc();
            m.gc_segments.add(retired as u64);
        }
        Ok(retired)
    }

    /// Segments deleted by GC over this handle's lifetime.
    pub fn gc_deleted(&self) -> u64 {
        self.gc_deleted
    }

    /// Retained segments (sealed + the open one).
    pub fn segments(&self) -> usize {
        self.sealed.len() + 1
    }
}

/// Appends one record's WAL frame (header + CRC + payload) to `buf`.
/// Public for the historical tier, whose record segments reuse the WAL
/// frame format byte for byte.
pub fn encode_frame_into(record: &StreamRecord, buf: &mut Vec<u8>) {
    encode_frame(record, buf);
}

/// Decodes a byte run of concatenated WAL frames, strictly: any torn,
/// corrupt or trailing partial frame is an error (callers hold
/// *published* immutable bytes, where a bad frame is corruption, not a
/// crash tail). `last_t` seeds the cross-frame timestamp monotonicity
/// check, `f64::NEG_INFINITY` to accept any start.
pub fn decode_frames(bytes: &[u8], mut last_t: f64) -> Result<Vec<StreamRecord>, String> {
    let mut records = Vec::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        if rest.len() < 8 {
            return Err(format!("torn frame header ({} trailing bytes)", rest.len()));
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(format!("absurd frame length {len}"));
        }
        // Length check before any slicing sized from the header.
        if rest.len() - 8 < len as usize {
            return Err(format!(
                "frame length {len} overruns the remaining {} bytes",
                rest.len() - 8
            ));
        }
        let payload = &rest[8..8 + len as usize];
        if crc32c(payload) != crc {
            return Err("frame CRC mismatch".into());
        }
        let record = decode_payload(payload, last_t)?;
        last_t = record.t.seconds();
        records.push(record);
        rest = &rest[8 + len as usize..];
    }
    Ok(records)
}

/// Reads every record of one sealed segment file, strictly: sealed
/// segments are immutable, so a torn or corrupt frame is an error here
/// (unlike recovery's self-truncating scan). This is the compactor's
/// read path at retire time.
pub fn read_segment_records(path: &Path) -> io::Result<Vec<StreamRecord>> {
    let mut records = Vec::new();
    let mut last_t = f64::NEG_INFINITY;
    match Wal::scan_segment(path, None, &mut last_t, &mut records) {
        Ok(seg) if seg.path == *path => Ok(records),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "WAL segment {} is torn or corrupt; refusing to compact it",
                path.display()
            ),
        )),
    }
}

impl Drop for Wal {
    /// Best-effort flush: a *graceful* drop hands every appended frame
    /// to the OS (a `kill -9` still loses the in-process buffer — the
    /// torn-tail path recovery is built for).
    fn drop(&mut self) {
        let _ = self.flush();
    }
}
