//! The crash-safe storage layer.
//!
//! Every byte of persistent state in the pipeline — the special-row and
//! special-column logs and the combined Stage-1 checkpoint — goes through
//! this module. At paper scale, Stage 1 keeps the GPU busy for 18.5 hours
//! while streaming rows to a disk area: at that horizon a torn write, a
//! bit-flip or a full disk are not exceptional, they are expected, and
//! each must *degrade* the run (fewer special rows, larger partitions, a
//! lost snapshot) rather than corrupt the alignment.
//!
//! Three mechanisms deliver that:
//!
//! * **Framing.** Each special line is a frame: magic, job fingerprint,
//!   index, origin, length, CRC32 over header fields and payload, then
//!   the payload. A store appends its frames to one [`FrameLog`] file and
//!   reads them back by offset. Readers verify all of it before a single
//!   cell is decoded, so a truncated, bit-flipped, misplaced or *stale*
//!   frame (from a different sequence pair, scoring or grid) is detected
//!   and rejected as a typed [`StorageError`] — never fed into Stage 2's
//!   goal-based matching as plausible `H`/`F` values.
//! * **Atomicity.** The checkpoint envelope and log compaction write a
//!   `.tmp` sibling first and `rename` it into place, so a crash leaves
//!   the old file or the new one, never a half-written one under the real
//!   name. Log appends never move earlier frames; a crash mid-append
//!   leaves a torn tail that the recovery scan truncates. Transient errors
//!   are retried with a short backoff; persistent ones surface as
//!   [`StorageError::Io`].
//! * **Fault injection.** The [`fault`] hook (mirroring
//!   `gpu_sim::exec::fault`) lets integration tests inject torn writes,
//!   `ENOSPC`, transient failures, corrupt reads and a simulated
//!   kill-at-diagonal into a real pipeline run, which is how the
//!   crash-recovery torture suite exercises every degradation path.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Magic prefix of a line frame.
pub const FRAME_MAGIC: [u8; 8] = *b"CAL2SRF1";
/// Magic prefix of a checksummed checkpoint envelope.
pub const CKPT_MAGIC: [u8; 8] = *b"CAL2CKP1";
/// Bytes of a frame header: magic, fingerprint, index, origin, len, CRC.
pub const FRAME_HEADER_BYTES: usize = 8 + 8 + 8 + 8 + 8 + 4;
/// Bytes of a checkpoint envelope header: magic, fingerprint, len, CRC.
pub const CKPT_HEADER_BYTES: usize = 8 + 8 + 8 + 4;

/// Attempts per write (1 initial + retries) before giving up.
const WRITE_ATTEMPTS: u32 = 4;
/// Backoff before the first retry (doubled each time, capped).
const BACKOFF: Duration = Duration::from_millis(1);
/// Upper bound on the doubling base: however many attempts a future
/// retry budget allows, no single sleep exceeds this plus its jitter.
const BACKOFF_CAP: Duration = Duration::from_millis(16);

/// A storage failure, typed so callers can choose a reaction: `Io` means
/// the backend refused us (retry exhausted / disk full), `Corrupt` means
/// the bytes on disk are not what we wrote (drop the line and continue),
/// `ForeignFingerprint` means the frame or envelope belongs to a
/// *different job* and adopting it would silently corrupt the alignment.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// The operating system failed the operation after retries.
    Io {
        /// File the operation targeted.
        path: PathBuf,
        /// Operation name (`"write"`, `"rename"`, `"read"`, ...).
        op: &'static str,
        /// The underlying error text.
        msg: String,
    },
    /// The file exists but fails structural or checksum validation.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What check failed.
        reason: String,
    },
    /// The file carries a valid frame for a different job (other
    /// sequences, scoring or grid) — e.g. stale state from a crashed run
    /// with different inputs in the same directory.
    ForeignFingerprint {
        /// Offending file.
        path: PathBuf,
        /// Fingerprint of the current job.
        expected: u64,
        /// Fingerprint found in the file.
        found: u64,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io { path, op, msg } => {
                write!(f, "storage {op} failed on {}: {msg}", path.display())
            }
            StorageError::Corrupt { path, reason } => {
                write!(f, "corrupt storage file {}: {reason}", path.display())
            }
            StorageError::ForeignFingerprint { path, expected, found } => write!(
                f,
                "stale storage file {}: job fingerprint {found:#018x} != expected {expected:#018x}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StorageError {}

impl StorageError {
    fn io(path: &Path, op: &'static str, e: &io::Error) -> Self {
        StorageError::Io { path: path.to_path_buf(), op, msg: e.to_string() }
    }

    fn corrupt(path: &Path, reason: impl Into<String>) -> Self {
        StorageError::Corrupt { path: path.to_path_buf(), reason: reason.into() }
    }
}

/// Little-endian `u64` at byte offset `at`. Reads past the end are
/// zero-filled instead of panicking; every caller validates the buffer
/// length first, this just keeps header decoding panic-free.
fn le_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    for (d, s) in b.iter_mut().zip(bytes.iter().skip(at)) {
        *d = *s;
    }
    u64::from_le_bytes(b)
}

/// Little-endian `u32` at byte offset `at`; see [`le_u64`].
fn le_u32(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    for (d, s) in b.iter_mut().zip(bytes.iter().skip(at)) {
        *d = *s;
    }
    u32::from_le_bytes(b)
}

// ---------------------------------------------------------------------------
// Filesystem access for the rest of the crate
// ---------------------------------------------------------------------------
//
// All persistent state flows through this module (the `fs-isolation` lint
// enforces it), so the few directory-level operations other modules need
// live here as thin, typed wrappers.

/// Create `dir` and any missing parents.
pub fn ensure_dir(dir: &Path) -> Result<(), StorageError> {
    std::fs::create_dir_all(dir).map_err(|e| StorageError::io(dir, "create_dir_all", &e))
}

/// Delete `path`, reporting whether a file was actually removed. Failures
/// (already gone, permissions) are swallowed: callers use this for sweeps
/// and cleanups where the only interesting outcome is the sweep count.
pub fn remove_file_quiet(path: &Path) -> bool {
    std::fs::remove_file(path).is_ok()
}

/// Size of `path` in bytes, or `None` if it cannot be stat'ed.
fn file_len(path: &Path) -> Option<u64> {
    std::fs::metadata(path).map(|m| m.len()).ok()
}

// ---------------------------------------------------------------------------
// CRC32 (ISO-HDLC, the zlib polynomial), slice-by-8
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight table lookups
/// advance the register over eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32/ISO-HDLC of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_parts(&[bytes])
}

/// CRC-32/ISO-HDLC of the concatenation of `parts`, without materializing
/// it. Frames checksum header-fields-plus-payload this way.
fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    for part in parts {
        let mut words = part.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
    }
    !crc
}

// ---------------------------------------------------------------------------
// Job fingerprint
// ---------------------------------------------------------------------------

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Fingerprint of one alignment job: sequence lengths, scoring and both
/// grid shapes (everything that determines which `H`/`F`/`E` values a
/// special line may legally contain). Every frame and checkpoint envelope
/// carries it in its header; a reopen under any other job rejects them.
pub fn job_fingerprint(
    m: usize,
    n: usize,
    scoring: &sw_core::Scoring,
    grid1: &gpu_sim::GridSpec,
    grid23: &gpu_sim::GridSpec,
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, &(m as u64).to_le_bytes());
    fnv(&mut h, &(n as u64).to_le_bytes());
    for v in [scoring.match_score, scoring.mismatch_score, scoring.gap_first, scoring.gap_ext] {
        fnv(&mut h, &v.to_le_bytes());
    }
    for g in [grid1, grid23] {
        for v in [g.blocks, g.threads, g.alpha] {
            fnv(&mut h, &(v as u64).to_le_bytes());
        }
    }
    h
}

// ---------------------------------------------------------------------------
// The frame log: one append-only file of line frames per store
// ---------------------------------------------------------------------------

/// Header of a line frame (a special row or column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameMeta {
    /// Job fingerprint the line belongs to.
    pub fingerprint: u64,
    /// Line index (DP row or column number).
    pub index: u64,
    /// First absolute coordinate covered by the payload.
    pub origin: u64,
    /// Number of 8-byte cells in the payload.
    pub len: u64,
}

/// Bytes a frame of `cells` cells occupies in the log, header included.
pub fn frame_bytes(cells: u64) -> u64 {
    (FRAME_HEADER_BYTES as u64).saturating_add(cells.saturating_mul(crate::sra::CELL_BYTES))
}

/// An empty frame buffer for `cells` cells: zeroed header space followed
/// by room for the payload. Callers append the encoded cells and hand the
/// buffer to [`FrameLog::append`], which fills in the header.
pub fn frame_buffer(cells: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(frame_bytes(cells as u64) as usize);
    buf.resize(FRAME_HEADER_BYTES, 0);
    buf
}

/// Write `meta` and the CRC into the header of `frame` (header space plus
/// payload). The CRC covers the header fields too, so a bit flip in the
/// index or origin cannot pair silently with an intact payload.
pub fn seal_frame(frame: &mut [u8], meta: &FrameMeta) {
    frame[..8].copy_from_slice(&FRAME_MAGIC);
    frame[8..16].copy_from_slice(&meta.fingerprint.to_le_bytes());
    frame[16..24].copy_from_slice(&meta.index.to_le_bytes());
    frame[24..32].copy_from_slice(&meta.origin.to_le_bytes());
    frame[32..40].copy_from_slice(&meta.len.to_le_bytes());
    let crc = crc32_parts(&[&frame[..40], &frame[FRAME_HEADER_BYTES..]]);
    frame[40..FRAME_HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
}

/// The header fields of a frame (no validation).
fn frame_meta(frame: &[u8]) -> FrameMeta {
    FrameMeta {
        fingerprint: le_u64(frame, 8),
        index: le_u64(frame, 16),
        origin: le_u64(frame, 24),
        len: le_u64(frame, 32),
    }
}

/// Whether the stored CRC of a whole frame matches its contents.
fn frame_crc_ok(frame: &[u8]) -> bool {
    frame.len() >= FRAME_HEADER_BYTES
        && le_u32(frame, 40) == crc32_parts(&[&frame[..40], &frame[FRAME_HEADER_BYTES..]])
}

/// Bytes of the log read per step while searching for the next frame
/// after a damaged one.
const RESYNC_CHUNK: usize = 1 << 16;

/// What [`FrameLog::recover`] found in a log left behind by a prior run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogScan {
    /// Valid frames of this job, in log order: `(header, offset)`.
    pub frames: Vec<(FrameMeta, u64)>,
    /// Frames rejected by the scan: damaged ones (bad magic, length past
    /// the end of the log, CRC mismatch — a torn tail counts once) and
    /// intact ones that carry another job's fingerprint.
    pub rejected: u64,
}

/// One store's special lines as a single append-only file of frames,
/// `<dir>/<prefix>.log`.
///
/// Frames are the 44-byte header of [`FRAME_HEADER_BYTES`] followed by
/// the payload, laid end to end. The caller owns the index (which frame
/// holds which line) and reads frames back by offset with positional
/// reads, so [`FrameLog::read_frame`] takes `&self` and serves parallel
/// readers. Appends always advance the end by the full frame length —
/// even when a torn write landed only part of it — so offsets are a pure
/// function of the append sequence and a torn frame leaves a hole instead
/// of shifting its successors.
pub struct FrameLog {
    path: PathBuf,
    file: std::fs::File,
    fingerprint: u64,
    end: u64,
}

impl FrameLog {
    /// The log file of store `prefix` in `dir`.
    pub fn path_for(dir: &Path, prefix: &str) -> PathBuf {
        dir.join(format!("{prefix}.log"))
    }

    /// Delete the log of `prefix` in `dir` and its compaction tmp sibling,
    /// returning how many files were removed (state a crashed run left).
    pub fn sweep(dir: &Path, prefix: &str) -> u64 {
        let path = Self::path_for(dir, prefix);
        u64::from(remove_file_quiet(&tmp_sibling(&path))) + u64::from(remove_file_quiet(&path))
    }

    fn open_file(path: &Path, truncate: bool) -> Result<std::fs::File, StorageError> {
        std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(truncate)
            .open(path)
            .map_err(|e| StorageError::io(path, "open", &e))
    }

    /// Create an empty log (truncating any file under its name).
    pub fn create(dir: &Path, prefix: &str, fingerprint: u64) -> Result<Self, StorageError> {
        let path = Self::path_for(dir, prefix);
        let file = Self::open_file(&path, true)?;
        Ok(FrameLog { path, file, fingerprint, end: 0 })
    }

    /// Reopen the log a prior run left in `dir` and scan it from offset 0
    /// (`None` when there is no log). Every frame is validated — magic,
    /// length within the file, CRC, fingerprint — before it is reported;
    /// no payload is decoded. A damaged frame is counted and the scan
    /// resumes at the next offset that starts a valid frame; a foreign
    /// frame (valid CRC, other job) is counted and skipped by its length.
    /// Whatever follows the last valid frame is a torn tail and is
    /// truncated away, so the next append lands right after it.
    pub fn recover(
        dir: &Path,
        prefix: &str,
        fingerprint: u64,
    ) -> Result<Option<(Self, LogScan)>, StorageError> {
        let path = Self::path_for(dir, prefix);
        if file_len(&path).is_none() {
            return Ok(None);
        }
        let file = Self::open_file(&path, false)?;
        let mut log = FrameLog { path, file, fingerprint, end: 0 };
        let size = log.len()?;
        let mut scan = LogScan::default();
        let mut buf = Vec::new();
        let mut pos = 0u64;
        while pos < size {
            match log.probe(pos, size, &mut buf)? {
                Some(meta) => {
                    if meta.fingerprint == fingerprint {
                        scan.frames.push((meta, pos));
                    } else {
                        scan.rejected += 1;
                    }
                    pos += frame_bytes(meta.len);
                    log.end = pos;
                }
                None => {
                    scan.rejected += 1;
                    match log.next_magic(pos + 1, size)? {
                        Some(next) => pos = next,
                        None => break,
                    }
                }
            }
        }
        if log.end < size {
            log.file.set_len(log.end).map_err(|e| StorageError::io(&log.path, "truncate", &e))?;
        }
        Ok(Some((log, scan)))
    }

    /// The log's file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Offset the next frame will be appended at.
    pub fn end(&self) -> u64 {
        self.end
    }

    fn len(&self) -> Result<u64, StorageError> {
        self.file.metadata().map(|m| m.len()).map_err(|e| StorageError::io(&self.path, "stat", &e))
    }

    /// The frame starting at `pos` if it is whole and intact (magic,
    /// length within `size`, CRC), read into `buf`; `None` if damaged.
    fn probe(
        &self,
        pos: u64,
        size: u64,
        buf: &mut Vec<u8>,
    ) -> Result<Option<FrameMeta>, StorageError> {
        let room = size - pos;
        if room < FRAME_HEADER_BYTES as u64 {
            return Ok(None);
        }
        buf.resize(FRAME_HEADER_BYTES, 0);
        self.read_exact(pos, buf)?;
        if buf[..8] != FRAME_MAGIC {
            return Ok(None);
        }
        let meta = frame_meta(buf);
        let want = frame_bytes(meta.len);
        if want > room {
            return Ok(None);
        }
        buf.resize(want as usize, 0);
        self.read_exact(pos, buf)?;
        fault::corrupt_if_armed(buf);
        Ok(frame_crc_ok(buf).then_some(meta))
    }

    /// The first offset at or after `from` where [`FRAME_MAGIC`] begins.
    fn next_magic(&self, mut from: u64, size: u64) -> Result<Option<u64>, StorageError> {
        let mut buf = vec![0u8; RESYNC_CHUNK + FRAME_MAGIC.len() - 1];
        while from + FRAME_MAGIC.len() as u64 <= size {
            let n = (size - from).min(buf.len() as u64) as usize;
            self.read_exact(from, &mut buf[..n])?;
            if let Some(k) = buf[..n].windows(FRAME_MAGIC.len()).position(|w| w == FRAME_MAGIC) {
                return Ok(Some(from + k as u64));
            }
            // Overlap by magic-1 bytes so a magic split across steps is seen.
            from += (n + 1 - FRAME_MAGIC.len()) as u64;
        }
        Ok(None)
    }

    fn read_exact(&self, at: u64, buf: &mut [u8]) -> Result<(), StorageError> {
        use std::os::unix::fs::FileExt;
        self.file.read_exact_at(buf, at).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                StorageError::corrupt(&self.path, format!("frame at {at} runs past end of log"))
            } else {
                StorageError::io(&self.path, "read", &e)
            }
        })
    }

    /// Seal `frame` (a [`frame_buffer`] with the payload appended) as line
    /// `index` at `origin` and append it, retrying transient failures with
    /// backoff. Returns the frame's offset and the retries used. On error
    /// the end does not move, so nothing ever refers to the failed bytes.
    pub fn append(
        &mut self,
        index: u64,
        origin: u64,
        frame: &mut [u8],
    ) -> Result<(u64, u32), StorageError> {
        let cells =
            (frame.len().saturating_sub(FRAME_HEADER_BYTES) as u64) / crate::sra::CELL_BYTES;
        let meta = FrameMeta { fingerprint: self.fingerprint, index, origin, len: cells };
        seal_frame(frame, &meta);
        let at = self.end;
        let retries = write_with_retry(&self.path, frame, self.fingerprint, |bytes, _torn| {
            use std::os::unix::fs::FileExt;
            self.file
                .write_all_at(bytes, at)
                .map_err(|e| AttemptError::from_io(&self.path, "write", &e))
        })?;
        self.end += frame.len() as u64;
        Ok((at, retries))
    }

    /// Read the frame of `cells` cells at offset `at` and validate it
    /// against the line the caller expects there, in order: magic, job
    /// fingerprint, header index and origin, length, CRC. Returns the
    /// whole frame; the payload is `&frame[FRAME_HEADER_BYTES..]` and no
    /// cell of it should be decoded unless this returned `Ok`.
    pub fn read_frame(
        &self,
        at: u64,
        index: u64,
        origin: u64,
        cells: u64,
    ) -> Result<Vec<u8>, StorageError> {
        let mut frame = vec![0u8; frame_bytes(cells) as usize];
        self.read_exact(at, &mut frame)?;
        fault::corrupt_if_armed(&mut frame);
        if frame[..8] != FRAME_MAGIC {
            return Err(StorageError::corrupt(&self.path, format!("bad magic at {at}")));
        }
        let meta = frame_meta(&frame);
        if meta.fingerprint != self.fingerprint {
            return Err(StorageError::ForeignFingerprint {
                path: self.path.clone(),
                expected: self.fingerprint,
                found: meta.fingerprint,
            });
        }
        if meta.index != index || meta.origin != origin {
            return Err(StorageError::corrupt(
                &self.path,
                format!(
                    "frame at {at} names line {}@{}, store expected {index}@{origin}",
                    meta.index, meta.origin
                ),
            ));
        }
        if meta.len != cells {
            return Err(StorageError::corrupt(
                &self.path,
                format!("frame at {at} holds {} cells, store expected {cells}", meta.len),
            ));
        }
        if !frame_crc_ok(&frame) {
            return Err(StorageError::corrupt(&self.path, format!("checksum mismatch at {at}")));
        }
        Ok(frame)
    }

    /// Rewrite the log with only the `live` frames (`(offset, bytes)`, in
    /// log order) packed from offset 0, returning their new offsets. The
    /// copy is staged in a tmp sibling and renamed over the log, so a
    /// crash leaves the old log or the new one, never a mix. Frames are
    /// copied as stored, holes included: validation stays with the reader.
    pub fn compact(&mut self, live: &[(u64, u64)]) -> Result<Vec<u64>, StorageError> {
        let tmp = tmp_sibling(&self.path);
        let copied = self.copy_live(&tmp, live);
        let renamed = copied.and_then(|(file, offsets, end)| {
            std::fs::rename(&tmp, &self.path)
                .map_err(|e| StorageError::io(&self.path, "rename", &e))
                .map(|()| (file, offsets, end))
        });
        match renamed {
            Ok((file, offsets, end)) => {
                self.file = file;
                self.end = end;
                Ok(offsets)
            }
            Err(e) => {
                remove_file_quiet(&tmp);
                Err(e)
            }
        }
    }

    fn copy_live(
        &self,
        tmp: &Path,
        live: &[(u64, u64)],
    ) -> Result<(std::fs::File, Vec<u64>, u64), StorageError> {
        use std::os::unix::fs::FileExt;
        let out = Self::open_file(tmp, true)?;
        let mut offsets = Vec::with_capacity(live.len());
        let mut buf = Vec::new();
        let mut at = 0u64;
        for &(off, bytes) in live {
            buf.clear();
            buf.resize(bytes as usize, 0);
            // A torn frame at the tail may run past the end of the file;
            // its missing bytes copy as the zeros a hole would read as.
            let mut got = 0;
            while got < buf.len() {
                match self.file.read_at(&mut buf[got..], off + got as u64) {
                    Ok(0) => break,
                    Ok(k) => got += k,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(StorageError::io(&self.path, "read", &e)),
                }
            }
            out.write_all_at(&buf, at).map_err(|e| StorageError::io(tmp, "write", &e))?;
            offsets.push(at);
            at += bytes;
        }
        Ok((out, offsets, at))
    }

    /// Delete the log file.
    pub fn delete(self) -> bool {
        remove_file_quiet(&self.path)
    }
}

// ---------------------------------------------------------------------------
// Checksummed checkpoint envelopes
// ---------------------------------------------------------------------------

/// Atomically write `payload` under a checksummed envelope (magic +
/// fingerprint + length + CRC). Used for the Stage-1 combined checkpoint,
/// whose inner format has structure but no integrity check of its own — a
/// bit-flipped bus value would otherwise decode cleanly and poison the
/// resumed wavefront. Returns the number of retries used.
pub fn write_checksummed(
    path: &Path,
    fingerprint: u64,
    payload: &[u8],
) -> Result<u32, StorageError> {
    let mut out = Vec::with_capacity(CKPT_HEADER_BYTES + payload.len());
    out.extend_from_slice(&CKPT_MAGIC);
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32_parts(&[&out, payload]).to_le_bytes());
    out.extend_from_slice(payload);
    let tmp = tmp_sibling(path);
    let written = write_with_retry(path, &out, fingerprint, |bytes, torn| {
        if torn {
            // A torn write the OS acknowledged lands its partial bytes
            // under the *final* name; readers must catch it.
            return std::fs::write(path, bytes)
                .map_err(|e| AttemptError::from_io(path, "write", &e));
        }
        std::fs::write(&tmp, bytes).map_err(|e| AttemptError::from_io(&tmp, "write", &e))?;
        std::fs::rename(&tmp, path).map_err(|e| AttemptError::from_io(path, "rename", &e))
    });
    if written.is_err() {
        // No orphan survives a *reported* error.
        remove_file_quiet(&tmp);
    }
    written
}

/// Read and validate a checksummed envelope written by
/// [`write_checksummed`], returning the payload.
pub fn read_checksummed(path: &Path, expected_fp: u64) -> Result<Vec<u8>, StorageError> {
    let mut bytes = std::fs::read(path).map_err(|e| StorageError::io(path, "read", &e))?;
    fault::corrupt_if_armed(&mut bytes);
    if bytes.len() < CKPT_HEADER_BYTES {
        return Err(StorageError::corrupt(path, "truncated envelope header"));
    }
    if bytes[..8] != CKPT_MAGIC {
        return Err(StorageError::corrupt(path, "bad envelope magic"));
    }
    let found = le_u64(&bytes, 8);
    if found != expected_fp {
        return Err(StorageError::ForeignFingerprint {
            path: path.to_path_buf(),
            expected: expected_fp,
            found,
        });
    }
    let len = le_u64(&bytes, 16);
    if (bytes.len() - CKPT_HEADER_BYTES) as u64 != len {
        return Err(StorageError::corrupt(path, "payload length mismatch"));
    }
    let stored_crc = le_u32(&bytes, 24);
    let actual = crc32_parts(&[&bytes[..24], &bytes[CKPT_HEADER_BYTES..]]);
    let payload = bytes.split_off(CKPT_HEADER_BYTES);
    if actual != stored_crc {
        return Err(StorageError::corrupt(path, "envelope checksum mismatch"));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------------
// Atomic write with bounded retry
// ---------------------------------------------------------------------------

/// The tmp sibling a path is staged under before the atomic rename.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A failed write attempt, tagged with whether retrying can help.
struct AttemptError {
    err: StorageError,
    transient: bool,
}

impl AttemptError {
    fn from_io(path: &Path, op: &'static str, e: &io::Error) -> Self {
        AttemptError { err: StorageError::io(path, op, e), transient: is_transient(e) }
    }
}

/// One write attempt: the fault hook, then `put`. An armed torn write
/// hands `put` only the first `keep_bytes` bytes with `torn` set and
/// reports success — hardware that acknowledged a write it only half
/// performed (e.g. power loss after a lying fsync).
fn attempt_write(
    path: &Path,
    frame: &[u8],
    put: &mut impl FnMut(&[u8], bool) -> Result<(), AttemptError>,
) -> Result<(), AttemptError> {
    match fault::take_write_fault() {
        Some(fault::WriteFault::Torn { keep_bytes }) => {
            put(&frame[..keep_bytes.min(frame.len())], true)
        }
        Some(fault::WriteFault::Enospc) => Err(AttemptError {
            err: StorageError::Io {
                path: path.to_path_buf(),
                op: "write",
                msg: "injected: no space left on device".into(),
            },
            transient: false,
        }),
        Some(fault::WriteFault::Transient) => {
            Err(AttemptError::from_io(path, "write", &io::Error::from(io::ErrorKind::Interrupted)))
        }
        None => put(frame, false),
    }
}

/// Deterministic backoff before retry `attempt` (0-based) of a write to
/// `path`: a doubling base capped at [`BACKOFF_CAP`], plus a jitter of up
/// to half the base seeded from the path, the attempt, and the caller's
/// `salt` (the job fingerprint) so concurrent strips flushing into one
/// directory — and concurrent *jobs* retrying the same shared path —
/// don't wake in lockstep and re-collide. A pure function of its inputs —
/// fault tests assert the exact schedule.
fn backoff_delay(path: &Path, attempt: u32, salt: u64) -> Duration {
    let base_us =
        ((BACKOFF.as_micros() as u64) << attempt.min(31)).min(BACKOFF_CAP.as_micros() as u64);
    // FNV-1a over the path bytes, folded with the salt and attempt number.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.to_string_lossy().as_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    for b in salt.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h = (h ^ u64::from(attempt)).wrapping_mul(0x0000_0100_0000_01b3);
    let jitter_us = if base_us == 0 { 0 } else { h % (base_us / 2 + 1) };
    Duration::from_micros(base_us + jitter_us)
}

/// Write `frame` to `path` through `put`, retrying transient failures up
/// to [`WRITE_ATTEMPTS`] times with capped, jittered doubling backoff (see
/// [`backoff_delay`]). Sleeps route through [`fault::backoff_sleep`] so
/// fault tests observe the schedule without real wall-clock sleeps.
fn write_with_retry(
    path: &Path,
    frame: &[u8],
    salt: u64,
    mut put: impl FnMut(&[u8], bool) -> Result<(), AttemptError>,
) -> Result<u32, StorageError> {
    for attempt in 0..WRITE_ATTEMPTS {
        match attempt_write(path, frame, &mut put) {
            Ok(()) => return Ok(attempt),
            Err(AttemptError { err, transient }) => {
                if !transient || attempt + 1 == WRITE_ATTEMPTS {
                    return Err(err);
                }
                fault::backoff_sleep(backoff_delay(path, attempt, salt));
            }
        }
    }
    unreachable!("retry loop returns on the last attempt");
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Runtime fault-injection hooks, mirroring `gpu_sim::exec::fault`.
///
/// `cfg(test)` does not cross crates, so the crash-recovery torture tests
/// (the `tests/tests/` crate) need runtime switches to make disk failures
/// and mid-run kills happen on demand inside a real pipeline run. All
/// state is process-global; tests that arm anything must serialize behind
/// a shared mutex and disarm on exit. Disarmed, the cost per operation is
/// one mutex lock on writes and one relaxed atomic load elsewhere.
#[doc(hidden)]
pub mod fault {
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// What an armed write does when its countdown fires.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum WriteFault {
        /// Write only the first `keep_bytes` bytes under the final name
        /// and report success (a torn write the OS never surfaced).
        Torn {
            /// Bytes of the frame that actually reach the disk.
            keep_bytes: usize,
        },
        /// Fail with a non-transient "no space left on device" error.
        Enospc,
        /// Fail with a transient (retryable) error.
        Transient,
    }

    struct WritePlan {
        /// Write attempts left before the fault fires.
        countdown: u64,
        fault: WriteFault,
        /// How many consecutive attempts the fault affects (lets a
        /// transient plan outlast — or not — the retry budget).
        hits_left: u32,
    }

    static WRITE_PLAN: Mutex<Option<WritePlan>> = Mutex::new(None);

    /// The write plan, recovering from poisoning: a panicking test must
    /// not wedge every later storage write behind a poisoned lock.
    fn write_plan() -> std::sync::MutexGuard<'static, Option<WritePlan>> {
        WRITE_PLAN.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Replacement for the real backoff sleep. Tests that arm write
    /// faults install one to record the retry schedule (and skip the
    /// wall-clock wait); `None` means sleep for real.
    type SleepHook = Arc<dyn Fn(Duration) + Send + Sync>;
    static SLEEP_HOOK: Mutex<Option<SleepHook>> = Mutex::new(None);

    /// The sleep hook, recovering from poisoning like [`write_plan`].
    fn sleep_hook() -> std::sync::MutexGuard<'static, Option<SleepHook>> {
        SLEEP_HOOK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Install a replacement for the retry backoff sleep. Cleared by
    /// [`disarm_all`].
    pub fn set_sleep_hook(hook: impl Fn(Duration) + Send + Sync + 'static) {
        *sleep_hook() = Some(Arc::new(hook));
    }

    /// Sleep `d` before a write retry — through the installed hook when
    /// one is armed, else for real. The `std::thread::sleep` here is the
    /// single sanctioned backoff sleep in this crate (see the
    /// `sleep-injection` lint).
    pub(crate) fn backoff_sleep(d: Duration) {
        let hook = sleep_hook().clone();
        match hook {
            Some(h) => h(d),
            None => std::thread::sleep(d),
        }
    }

    /// `< 0`: disarmed. Otherwise the read that decrements it to exactly
    /// zero gets a bit flipped.
    static READ_CORRUPT: AtomicI64 = AtomicI64::new(-1);
    /// `< 0`: disarmed. Otherwise Stage 1 aborts (simulated process kill)
    /// at the first block whose external diagonal reaches this value.
    static STAGE1_KILL: AtomicI64 = AtomicI64::new(-1);

    /// Arm a write fault: the `nth` write attempt from now (0-based)
    /// applies `fault`, and so do the `times - 1` attempts after it.
    pub fn arm_write(nth: u64, fault: WriteFault, times: u32) {
        *write_plan() = Some(WritePlan { countdown: nth, fault, hits_left: times.max(1) });
    }

    /// Arm a corrupt read: the `nth` storage read from now (0-based) has
    /// one payload bit flipped before validation.
    pub fn arm_read_corrupt(nth: u64) {
        READ_CORRUPT.store(nth as i64, Ordering::SeqCst);
    }

    /// Arm a simulated kill: Stage 1 aborts with a typed error at the
    /// first block of external diagonal `>= diagonal`.
    pub fn arm_stage1_kill(diagonal: usize) {
        STAGE1_KILL.store(diagonal as i64, Ordering::SeqCst);
    }

    /// The armed kill diagonal, if any.
    pub fn stage1_kill() -> Option<usize> {
        let v = STAGE1_KILL.load(Ordering::Relaxed);
        (v >= 0).then_some(v as usize)
    }

    /// Serialize tests that arm faults (or perform disk I/O that an armed
    /// fault could affect). All fault state is process-global, so two
    /// concurrently running tests would otherwise steal each other's
    /// injections. Poisoning is ignored: a failed test must not cascade.
    pub fn test_guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Disarm every hook.
    pub fn disarm_all() {
        *write_plan() = None;
        *sleep_hook() = None;
        READ_CORRUPT.store(-1, Ordering::SeqCst);
        STAGE1_KILL.store(-1, Ordering::SeqCst);
    }

    pub(crate) fn take_write_fault() -> Option<WriteFault> {
        let mut plan = write_plan();
        let p = plan.as_mut()?;
        if p.countdown > 0 {
            p.countdown -= 1;
            return None;
        }
        let fault = p.fault;
        p.hits_left -= 1;
        if p.hits_left == 0 {
            *plan = None;
        }
        Some(fault)
    }

    pub(crate) fn corrupt_if_armed(bytes: &mut [u8]) {
        if READ_CORRUPT.load(Ordering::Relaxed) < 0 {
            return;
        }
        if READ_CORRUPT.fetch_sub(1, Ordering::SeqCst) == 0 && !bytes.is_empty() {
            // Flip a bit past the header when possible so the corruption
            // lands in the payload (the CRC-guarded region).
            let at = if bytes.len() > super::FRAME_HEADER_BYTES {
                super::FRAME_HEADER_BYTES + (bytes.len() - super::FRAME_HEADER_BYTES) / 2
            } else {
                bytes.len() / 2
            };
            bytes[at] ^= 0x10;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cudalign-storage-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// An unsealed frame holding `payload`; `FrameLog::append` seals it.
    fn frame_of(payload: &[u8]) -> Vec<u8> {
        let mut f = frame_buffer(payload.len() / 8);
        f.extend_from_slice(payload);
        f
    }

    /// The bytewise table-driven CRC the slice-by-8 version replaced.
    fn crc32_bytewise(parts: &[&[u8]]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for part in parts {
            for &b in *part {
                crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard CRC-32/ISO-HDLC check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_slice_by_8_matches_the_bytewise_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in (0..80).chain([255, 256, 1000, 4099]) {
            let buf: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let want = crc32_bytewise(&[&buf]);
            assert_eq!(crc32(&buf), want, "len {len}");
            // Every split into two parts, then three uneven parts.
            for cut in 0..=len {
                assert_eq!(crc32_parts(&[&buf[..cut], &buf[cut..]]), want, "len {len} cut {cut}");
            }
            if len > 2 {
                let (a, b) = (len / 3, len / 3 + len / 5 + 1);
                assert_eq!(crc32_parts(&[&buf[..a], &buf[a..b], &buf[b..]]), want);
            }
        }
    }

    #[test]
    fn frame_roundtrip_and_validation() {
        let _guard = fault::test_guard();
        let dir = tmpdir("frame");
        let payload = [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16];
        let mut log = FrameLog::create(&dir, "row", 0xABCD).unwrap();
        let (at, retries) = log.append(5, 0, &mut frame_of(&payload)).unwrap();
        assert_eq!((at, retries), (0, 0));
        assert_eq!(log.end(), frame_bytes(2));
        let frame = log.read_frame(0, 5, 0, 2).unwrap();
        assert_eq!(&frame[FRAME_HEADER_BYTES..], payload);

        // The expected line must match the header.
        assert!(matches!(log.read_frame(0, 6, 0, 2), Err(StorageError::Corrupt { .. })));
        assert!(matches!(log.read_frame(0, 5, 1, 2), Err(StorageError::Corrupt { .. })));
        assert!(matches!(log.read_frame(0, 5, 0, 1), Err(StorageError::Corrupt { .. })));

        // Foreign fingerprint: the same log read by another job.
        let foreign = FrameLog {
            path: log.path.clone(),
            file: std::fs::File::open(log.path()).unwrap(),
            fingerprint: 0x1234,
            end: log.end,
        };
        match foreign.read_frame(0, 5, 0, 2) {
            Err(StorageError::ForeignFingerprint { expected, found, .. }) => {
                assert_eq!(expected, 0x1234);
                assert_eq!(found, 0xABCD);
            }
            other => panic!("expected ForeignFingerprint, got {other:?}"),
        }

        // Truncation at every byte boundary must be Corrupt, never a panic.
        let full = std::fs::read(log.path()).unwrap();
        for cut in 0..full.len() {
            std::fs::write(log.path(), &full[..cut]).unwrap();
            assert!(
                matches!(log.read_frame(0, 5, 0, 2), Err(StorageError::Corrupt { .. })),
                "cut at {cut} must be detected"
            );
        }

        // Single bit-flips anywhere in the frame are detected.
        for at in 0..full.len() {
            let mut bad = full.clone();
            bad[at] ^= 0x01;
            std::fs::write(log.path(), &bad).unwrap();
            assert!(log.read_frame(0, 5, 0, 2).is_err(), "bit flip at {at} must be detected");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recover_scans_frames_and_truncates_a_torn_tail() {
        let _guard = fault::test_guard();
        let dir = tmpdir("recover");
        let mut log = FrameLog::create(&dir, "row", 7).unwrap();
        for i in 0..3u64 {
            log.append(i, 10 * i, &mut frame_of(&[i as u8; 24])).unwrap();
        }
        let whole = log.end();
        // Half of a fourth frame: a crash mid-append.
        let torn = log.end() + frame_bytes(3) / 2;
        log.append(3, 30, &mut frame_of(&[3u8; 24])).unwrap();
        log.file.set_len(torn).unwrap();
        drop(log);

        let (log, scan) = FrameLog::recover(&dir, "row", 7).unwrap().unwrap();
        let found: Vec<(u64, u64, u64)> =
            scan.frames.iter().map(|(m, at)| (m.index, m.origin, *at)).collect();
        let step = frame_bytes(3);
        assert_eq!(found, vec![(0, 0, 0), (1, 10, step), (2, 20, 2 * step)]);
        assert_eq!(scan.rejected, 1, "the torn tail counts once");
        assert_eq!(log.end(), whole);
        assert_eq!(file_len(log.path()), Some(whole), "torn tail truncated");
        assert!(FrameLog::recover(&dir, "absent", 7).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_packs_live_frames_and_keeps_them_readable() {
        let _guard = fault::test_guard();
        let dir = tmpdir("compact");
        let mut log = FrameLog::create(&dir, "col", 3).unwrap();
        let mut at = Vec::new();
        for i in 0..4u64 {
            at.push(log.append(i, 0, &mut frame_of(&[i as u8; 16])).unwrap().0);
        }
        let live = [(at[1], frame_bytes(2)), (at[3], frame_bytes(2))];
        let moved = log.compact(&live).unwrap();
        assert_eq!(moved, vec![0, frame_bytes(2)]);
        assert_eq!(log.end(), 2 * frame_bytes(2));
        assert_eq!(file_len(log.path()), Some(2 * frame_bytes(2)));
        assert!(!tmp_sibling(log.path()).exists());
        for (i, off) in [(1u64, moved[0]), (3, moved[1])] {
            let f = log.read_frame(off, i, 0, 2).unwrap();
            assert_eq!(&f[FRAME_HEADER_BYTES..], &[i as u8; 16]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_envelope_roundtrip() {
        let _guard = fault::test_guard();
        let dir = tmpdir("ckpt");
        let path = dir.join("stage1.ckpt");
        let payload = b"CKS1-some-inner-bytes".to_vec();
        write_checksummed(&path, 7, &payload).unwrap();
        assert_eq!(read_checksummed(&path, 7).unwrap(), payload);
        assert!(matches!(read_checksummed(&path, 8), Err(StorageError::ForeignFingerprint { .. })));
        let mut bad = std::fs::read(&path).unwrap();
        let last = bad.len() - 1;
        bad[last] ^= 0x80;
        std::fs::write(&path, &bad).unwrap();
        assert!(matches!(read_checksummed(&path, 7), Err(StorageError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_write_faults_are_retried() {
        let _guard = fault::test_guard();
        let dir = tmpdir("retry");
        let mut log = FrameLog::create(&dir, "row", 1).unwrap();
        fault::arm_write(0, fault::WriteFault::Transient, 2);
        fault::set_sleep_hook(|_| {});
        let (at, retries) = log.append(1, 0, &mut frame_of(&[0u8; 8])).unwrap();
        fault::disarm_all();
        assert_eq!(retries, 2, "two transient failures then success");
        assert!(log.read_frame(at, 1, 0, 1).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_schedule_is_deterministic_capped_and_routed_through_hook() {
        let _guard = fault::test_guard();
        let dir = tmpdir("backoff");
        let mut log = FrameLog::create(&dir, "row", 9).unwrap();

        // Three transient failures exhaust every sleep the budget allows;
        // the hook records them instead of stalling on real wall-clock.
        let slept = std::sync::Arc::new(std::sync::Mutex::new(Vec::<Duration>::new()));
        let rec = std::sync::Arc::clone(&slept);
        fault::set_sleep_hook(move |d| rec.lock().unwrap().push(d));
        fault::arm_write(0, fault::WriteFault::Transient, 3);
        let (_, retries) = log.append(9, 0, &mut frame_of(&[0u8; 8])).unwrap();
        fault::disarm_all();
        assert_eq!(retries, 3);

        let path = log.path().to_path_buf();
        let slept = slept.lock().unwrap().clone();
        let expect: Vec<Duration> = (0..3).map(|k| backoff_delay(&path, k, 9)).collect();
        assert_eq!(slept, expect, "recorded sleeps match the pure schedule");

        for (k, d) in expect.iter().enumerate() {
            let base = Duration::from_millis(1 << k).min(BACKOFF_CAP);
            assert!(*d >= base, "attempt {k}: jitter only adds");
            assert!(*d <= base + base / 2, "attempt {k}: jitter bounded by half the base");
        }
        // The doubling base saturates at the cap, jitter included.
        let worst = backoff_delay(&path, 40, 9);
        assert!(worst <= BACKOFF_CAP + BACKOFF_CAP / 2);
        assert!(worst >= BACKOFF_CAP);
        // Different paths decorrelate: at least one attempt differs.
        let other = FrameLog::path_for(&dir, "col");
        assert!(
            (0..4).any(|k| backoff_delay(&path, k, 9) != backoff_delay(&other, k, 9)),
            "jitter must depend on the path"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_schedules_of_two_jobs_on_one_path_diverge() {
        // Two concurrent jobs (distinct fingerprints) retrying the *same*
        // shared path must not wake in lockstep: the fingerprint salt has
        // to decorrelate their jitter. Also pins the full-schedule case:
        // no attempt-by-attempt equality across every retry the budget
        // allows.
        let path = Path::new("shared/special-row.log");
        let (fp_a, fp_b) = (0x1111_2222_3333_4444u64, 0x5555_6666_7777_8888u64);
        let a: Vec<Duration> = (0..WRITE_ATTEMPTS).map(|k| backoff_delay(path, k, fp_a)).collect();
        let b: Vec<Duration> = (0..WRITE_ATTEMPTS).map(|k| backoff_delay(path, k, fp_b)).collect();
        assert_ne!(a, b, "same path, different jobs: schedules must diverge");
        // Each job's schedule stays a pure function of its inputs.
        let again: Vec<Duration> =
            (0..WRITE_ATTEMPTS).map(|k| backoff_delay(path, k, fp_a)).collect();
        assert_eq!(a, again, "schedule is deterministic per job");
    }

    #[test]
    fn enospc_is_not_retried_and_leaves_no_tmp() {
        let _guard = fault::test_guard();
        let dir = tmpdir("enospc");
        // A log append: nothing lands and the end does not move.
        let mut log = FrameLog::create(&dir, "row", 1).unwrap();
        fault::arm_write(0, fault::WriteFault::Enospc, 1);
        let err = log.append(2, 0, &mut frame_of(&[0u8; 8])).unwrap_err();
        fault::disarm_all();
        assert!(matches!(err, StorageError::Io { .. }), "{err}");
        assert_eq!(log.end(), 0);
        assert_eq!(file_len(log.path()), Some(0));
        // A checkpoint envelope: no file and no tmp sibling.
        let path = dir.join("stage1.ckpt");
        fault::arm_write(0, fault::WriteFault::Enospc, 1);
        let err = write_checksummed(&path, 1, b"snapshot").unwrap_err();
        fault::disarm_all();
        assert!(matches!(err, StorageError::Io { .. }), "{err}");
        assert!(!path.exists());
        assert!(!tmp_sibling(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_is_caught_by_the_reader() {
        let _guard = fault::test_guard();
        let dir = tmpdir("torn");
        let mut log = FrameLog::create(&dir, "row", 1).unwrap();
        fault::arm_write(0, fault::WriteFault::Torn { keep_bytes: 17 }, 1);
        // The write itself reports success — the lie torn writes tell.
        let (at, _) = log.append(3, 0, &mut frame_of(&[7u8; 32])).unwrap();
        fault::disarm_all();
        assert_eq!(log.end(), frame_bytes(4), "the end still advances by the whole frame");
        assert!(matches!(log.read_frame(at, 3, 0, 4), Err(StorageError::Corrupt { .. })));
        // The next frame lands after the hole and reads back intact,
        // while the hole (now zero-filled) still fails validation.
        let (next, _) = log.append(4, 0, &mut frame_of(&[8u8; 32])).unwrap();
        assert_eq!(next, frame_bytes(4));
        assert!(log.read_frame(next, 4, 0, 4).is_ok());
        assert!(matches!(log.read_frame(at, 3, 0, 4), Err(StorageError::Corrupt { .. })));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_read_corruption_is_caught() {
        let _guard = fault::test_guard();
        let dir = tmpdir("readflip");
        let mut log = FrameLog::create(&dir, "row", 1).unwrap();
        let (at, _) = log.append(4, 0, &mut frame_of(&[3u8; 32])).unwrap();
        fault::arm_read_corrupt(0);
        let err = log.read_frame(at, 4, 0, 4).unwrap_err();
        fault::disarm_all();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        // The log itself is intact; only the in-flight read was corrupted.
        assert!(log.read_frame(at, 4, 0, 4).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_separates_jobs() {
        let sc = sw_core::Scoring::paper();
        let sc2 = sw_core::Scoring::new(2, -1, 4, 1);
        let g1 = gpu_sim::GridSpec { blocks: 4, threads: 4, alpha: 2 };
        let g2 = gpu_sim::GridSpec { blocks: 2, threads: 4, alpha: 2 };
        let base = job_fingerprint(100, 200, &sc, &g1, &g2);
        assert_eq!(base, job_fingerprint(100, 200, &sc, &g1, &g2), "deterministic");
        assert_ne!(base, job_fingerprint(101, 200, &sc, &g1, &g2), "length m");
        assert_ne!(base, job_fingerprint(100, 201, &sc, &g1, &g2), "length n");
        assert_ne!(base, job_fingerprint(100, 200, &sc2, &g1, &g2), "scoring");
        assert_ne!(base, job_fingerprint(100, 200, &sc, &g2, &g2), "grid");
    }
}
