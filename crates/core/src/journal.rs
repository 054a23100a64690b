//! Crash-safe persistence primitives: atomic run snapshots and an
//! append-only, CRC-framed write-ahead round journal.
//!
//! These are the byte-level building blocks of the durability layer
//! (DESIGN.md §11). The orchestration logic — what goes *into* a
//! snapshot, how a journal tail is replayed — lives in
//! `nebula-sim::durability`; this module only guarantees that whatever
//! bytes are handed to it either come back intact or fail loudly:
//!
//! * [`SnapshotStore`] writes sequence-numbered snapshot files with
//!   write-temp-then-rename atomicity and a CRC32 trailer, and at load
//!   time selects the **newest valid** snapshot, skipping torn, flipped,
//!   or foreign files without panicking.
//! * [`JournalWriter`] appends one CRC-framed record per completed
//!   round. A crash mid-append leaves a torn tail; reopening truncates
//!   the file back to its longest valid prefix so the journal is always
//!   a clean sequence of intact records.
//!
//! Every failure mode is a [`DurabilityError`]; no input, however
//! corrupted, panics a reader.

use nebula_wire::crc32;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Why a snapshot or journal could not be written, read, or trusted.
#[derive(Debug, Clone, PartialEq)]
pub enum DurabilityError {
    /// Underlying filesystem error (message-only so the error stays
    /// `Clone`/`PartialEq` for tests).
    Io(String),
    /// The file does not start with the snapshot magic.
    NotASnapshot,
    /// The file does not start with the journal magic.
    NotAJournal,
    /// Format version this build does not understand.
    UnsupportedVersion(u32),
    /// The file ends before its declared contents do.
    Truncated { expected: usize, available: usize },
    /// CRC32 trailer mismatch — a flipped bit or a torn write.
    ChecksumMismatch { stored: u32, computed: u32 },
    /// Structurally valid container holding an inconsistent payload
    /// (e.g. a journal bound to a different run).
    Malformed(String),
    /// No snapshot file in the directory survived validation.
    NoValidSnapshot,
}

impl fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "durability I/O error: {e}"),
            Self::NotASnapshot => write!(f, "not a Nebula run snapshot"),
            Self::NotAJournal => write!(f, "not a Nebula round journal"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported durability format version {v}"),
            Self::Truncated { expected, available } => {
                write!(f, "truncated file: expected {expected} more bytes, found {available}")
            }
            Self::ChecksumMismatch { stored, computed } => {
                write!(f, "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}")
            }
            Self::Malformed(e) => write!(f, "malformed durability payload: {e}"),
            Self::NoValidSnapshot => write!(f, "no valid snapshot found"),
        }
    }
}

impl std::error::Error for DurabilityError {}

impl From<std::io::Error> for DurabilityError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

/// Current snapshot container format version.
const SNAPSHOT_VERSION: u32 = 1;
/// Current journal format version.
const JOURNAL_VERSION: u32 = 1;

const SNAPSHOT_MAGIC: &[u8; 4] = b"NBRS";
const JOURNAL_MAGIC: &[u8; 4] = b"NBLJ";
/// Snapshot fixed header: magic + version + u64 seq + u32 payload len.
const SNAPSHOT_FIXED: usize = 4 + 4 + 8 + 4;
/// Journal file header: magic + version + u64 run id.
const JOURNAL_HEADER: usize = 4 + 4 + 8;
/// Per-record framing: u32 payload len before, u32 CRC after.
const RECORD_OVERHEAD: usize = 8;

/// Writes `bytes` to `path` atomically: the data lands in a same-directory
/// temp file first, is fsynced, and only then renamed over the target, so
/// a crash at any instant leaves either the old file or the new one —
/// never a half-written hybrid under the final name.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), DurabilityError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    // Persist the rename itself. Directory fsync is best-effort: not
    // every platform allows opening a directory for sync.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Encodes a snapshot container:
/// `NBRS ‖ u32 version ‖ u64 seq ‖ u32 payload-len ‖ payload ‖ u32 crc32`.
pub fn encode_snapshot(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(SNAPSHOT_FIXED + payload.len() + 4);
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// Decodes a snapshot container, returning `(seq, payload)`. The CRC is
/// verified over the whole body before the payload is handed out.
pub fn decode_snapshot(data: &[u8]) -> Result<(u64, Vec<u8>), DurabilityError> {
    if data.len() < SNAPSHOT_FIXED || &data[..4] != SNAPSHOT_MAGIC {
        return Err(DurabilityError::NotASnapshot);
    }
    let version = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(DurabilityError::UnsupportedVersion(version));
    }
    let seq = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
    let payload_len = u32::from_le_bytes(data[16..20].try_into().expect("4 bytes")) as usize;
    let expected_total = SNAPSHOT_FIXED + payload_len + 4;
    if data.len() < expected_total {
        return Err(DurabilityError::Truncated {
            expected: expected_total - data.len(),
            available: data.len(),
        });
    }
    let body = &data[..expected_total - 4];
    let stored = u32::from_le_bytes(data[expected_total - 4..expected_total].try_into().expect("4 bytes"));
    let computed = crc32(body);
    if stored != computed {
        return Err(DurabilityError::ChecksumMismatch { stored, computed });
    }
    Ok((seq, body[SNAPSHOT_FIXED..].to_vec()))
}

/// A snapshot that survived validation, plus the files that did not.
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// Sequence number (monotone per run; the round index in practice).
    pub seq: u64,
    /// The application payload stored at save time.
    pub payload: Vec<u8>,
    /// Files that were present but rejected, with the reason — surfaced
    /// so callers can log/report corruption instead of silently skipping.
    pub rejected: Vec<(PathBuf, DurabilityError)>,
}

/// Directory of sequence-numbered snapshot files (`snap-<seq>.nbrs`).
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
}

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot directory.
    pub fn open(dir: &Path) -> Result<Self, DurabilityError> {
        fs::create_dir_all(dir)?;
        Ok(Self { dir: dir.to_path_buf() })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the snapshot file for sequence number `seq`.
    fn path_for(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("snap-{seq:012}.nbrs"))
    }

    /// Atomically writes the snapshot for `seq`.
    pub fn save(&self, seq: u64, payload: &[u8]) -> Result<(), DurabilityError> {
        write_atomic(&self.path_for(seq), &encode_snapshot(seq, payload))
    }

    /// All snapshot sequence numbers present on disk (sorted ascending),
    /// judged by file name only — validity is checked at load.
    pub fn list(&self) -> Result<Vec<u64>, DurabilityError> {
        let mut seqs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_prefix("snap-").and_then(|s| s.strip_suffix(".nbrs")) {
                if let Ok(seq) = stem.parse::<u64>() {
                    seqs.push(seq);
                }
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Loads the newest snapshot that passes validation, skipping (and
    /// reporting) torn or corrupted files. A snapshot whose in-file
    /// sequence number disagrees with its file name is treated as
    /// corrupt too. Errors with [`DurabilityError::NoValidSnapshot`] if
    /// nothing survives.
    pub fn load_newest_valid(&self) -> Result<LoadedSnapshot, DurabilityError> {
        let mut rejected = Vec::new();
        for seq in self.list()?.into_iter().rev() {
            let path = self.path_for(seq);
            let data = match fs::read(&path) {
                Ok(d) => d,
                Err(e) => {
                    rejected.push((path, DurabilityError::from(e)));
                    continue;
                }
            };
            match decode_snapshot(&data) {
                Ok((stored_seq, payload)) if stored_seq == seq => {
                    return Ok(LoadedSnapshot { seq, payload, rejected });
                }
                Ok((stored_seq, _)) => {
                    let why = format!("file named seq {seq} holds seq {stored_seq}");
                    rejected.push((path, DurabilityError::Malformed(why)));
                }
                Err(e) => rejected.push((path, e)),
            }
        }
        Err(DurabilityError::NoValidSnapshot)
    }

    /// Deletes all but the `keep` newest snapshot files. Called after a
    /// successful save, so the newest file is known-valid; `keep >= 2`
    /// preserves a fallback in case the newest is later corrupted.
    pub fn prune(&self, keep: usize) -> Result<(), DurabilityError> {
        let seqs = self.list()?;
        if seqs.len() <= keep {
            return Ok(());
        }
        for &seq in &seqs[..seqs.len() - keep] {
            fs::remove_file(self.path_for(seq))?;
        }
        Ok(())
    }
}

/// Fully parsed journal contents.
#[derive(Debug)]
pub struct JournalContents {
    /// Run identity stamped into the header at create time.
    pub run_id: u64,
    /// Every intact record payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// True when trailing bytes after the last intact record had to be
    /// ignored — the signature of a crash mid-append.
    pub torn_tail: bool,
    /// Byte length of the valid prefix (header + intact records).
    pub valid_len: u64,
}

/// Parses journal bytes, stopping at the first record that is torn or
/// fails its CRC. Corruption *before* the tail cannot be distinguished
/// from a torn append by a prefix scan, and both are handled the same
/// way: the valid prefix wins, the rest is reported via `torn_tail`.
fn parse_journal(data: &[u8]) -> Result<JournalContents, DurabilityError> {
    if data.len() < JOURNAL_HEADER || &data[..4] != JOURNAL_MAGIC {
        return Err(DurabilityError::NotAJournal);
    }
    let version = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
    if version != JOURNAL_VERSION {
        return Err(DurabilityError::UnsupportedVersion(version));
    }
    let run_id = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
    let mut records = Vec::new();
    let mut pos = JOURNAL_HEADER;
    loop {
        let rest = &data[pos..];
        if rest.is_empty() {
            return Ok(JournalContents { run_id, records, torn_tail: false, valid_len: pos as u64 });
        }
        if rest.len() < 4 {
            break; // torn length prefix
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if rest.len() < RECORD_OVERHEAD + len {
            break; // torn payload or trailer
        }
        let stored = u32::from_le_bytes(rest[4 + len..8 + len].try_into().expect("4 bytes"));
        if stored != crc32(&rest[..4 + len]) {
            break; // flipped bits in this record
        }
        records.push(rest[4..4 + len].to_vec());
        pos += RECORD_OVERHEAD + len;
    }
    Ok(JournalContents { run_id, records, torn_tail: true, valid_len: pos as u64 })
}

/// Reads and parses a journal file.
pub fn read_journal(path: &Path) -> Result<JournalContents, DurabilityError> {
    let data = fs::read(path)?;
    parse_journal(&data)
}

/// Append-only writer for the round journal. Records are CRC-framed
/// (`u32 len ‖ payload ‖ u32 crc32(len ‖ payload)`) and fsynced per
/// append, so a completed round is durable the moment `append` returns.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Creates (truncating any previous file) a fresh journal bound to
    /// `run_id`.
    pub fn create(path: &Path, run_id: u64) -> Result<Self, DurabilityError> {
        let mut file = File::create(path)?;
        file.write_all(JOURNAL_MAGIC)?;
        file.write_all(&JOURNAL_VERSION.to_le_bytes())?;
        file.write_all(&run_id.to_le_bytes())?;
        file.sync_all()?;
        Ok(Self { file })
    }

    /// Reopens an existing journal for appending. The file is scanned,
    /// any torn tail is truncated away, and the run identity must match
    /// `run_id` — appending this run's rounds to another run's journal
    /// would poison a later replay. Returns the writer plus the intact
    /// records found.
    pub fn open_append(path: &Path, run_id: u64) -> Result<(Self, JournalContents), DurabilityError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let contents = parse_journal(&data)?;
        if contents.run_id != run_id {
            return Err(DurabilityError::Malformed(format!(
                "journal belongs to run {:#018x}, expected {:#018x}",
                contents.run_id, run_id
            )));
        }
        if contents.torn_tail {
            file.set_len(contents.valid_len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(contents.valid_len))?;
        Ok((Self { file }, contents))
    }

    /// Appends one record and fsyncs it to disk.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), DurabilityError> {
        let mut rec = Vec::with_capacity(RECORD_OVERHEAD + payload.len());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(payload);
        let crc = crc32(&rec);
        rec.extend_from_slice(&crc.to_le_bytes());
        self.file.write_all(&rec)?;
        self.file.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nebula-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_roundtrip() {
        let payload = b"round state".to_vec();
        let encoded = encode_snapshot(17, &payload);
        let (seq, decoded) = decode_snapshot(&encoded).unwrap();
        assert_eq!(seq, 17);
        assert_eq!(decoded, payload);
    }

    #[test]
    fn snapshot_rejects_corruption_and_truncation() {
        let encoded = encode_snapshot(3, b"abcdefgh");
        for cut in 0..encoded.len() {
            assert!(decode_snapshot(&encoded[..cut]).is_err(), "prefix {cut} must not decode");
        }
        for pos in 0..encoded.len() {
            let mut flipped = encoded.clone();
            flipped[pos] ^= 0x20;
            assert!(decode_snapshot(&flipped).is_err(), "flip at {pos} must not decode");
        }
        assert_eq!(decode_snapshot(b"what").unwrap_err(), DurabilityError::NotASnapshot);
    }

    #[test]
    fn store_selects_newest_valid_and_reports_rejects() {
        let dir = tmp_dir("newest");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(1, b"one").unwrap();
        store.save(2, b"two").unwrap();
        store.save(3, b"three").unwrap();
        // Corrupt the newest file in place.
        let newest = store.path_for(3);
        let mut bytes = fs::read(&newest).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&newest, &bytes).unwrap();

        let loaded = store.load_newest_valid().unwrap();
        assert_eq!(loaded.seq, 2);
        assert_eq!(loaded.payload, b"two");
        assert_eq!(loaded.rejected.len(), 1);
        assert!(matches!(loaded.rejected[0].1, DurabilityError::ChecksumMismatch { .. }));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_errors_when_nothing_valid() {
        let dir = tmp_dir("none");
        let store = SnapshotStore::open(&dir).unwrap();
        assert_eq!(store.load_newest_valid().unwrap_err(), DurabilityError::NoValidSnapshot);
        fs::write(store.path_for(5), b"garbage that is not a snapshot").unwrap();
        assert_eq!(store.load_newest_valid().unwrap_err(), DurabilityError::NoValidSnapshot);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_rejects_renamed_snapshot() {
        // A valid snapshot file copied under a different sequence name
        // must not be trusted as that sequence.
        let dir = tmp_dir("renamed");
        let store = SnapshotStore::open(&dir).unwrap();
        store.save(1, b"one").unwrap();
        fs::copy(store.path_for(1), store.path_for(9)).unwrap();
        let loaded = store.load_newest_valid().unwrap();
        assert_eq!(loaded.seq, 1);
        assert!(matches!(loaded.rejected[0].1, DurabilityError::Malformed(_)));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prune_keeps_newest() {
        let dir = tmp_dir("prune");
        let store = SnapshotStore::open(&dir).unwrap();
        for seq in 0..5 {
            store.save(seq, b"x").unwrap();
        }
        store.prune(2).unwrap();
        assert_eq!(store.list().unwrap(), vec![3, 4]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_roundtrip_and_reopen() {
        let dir = tmp_dir("journal");
        let path = dir.join("rounds.nblj");
        let mut w = JournalWriter::create(&path, 0xABCD).unwrap();
        w.append(b"round 0").unwrap();
        w.append(b"round 1").unwrap();
        drop(w);

        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.run_id, 0xABCD);
        assert_eq!(contents.records, vec![b"round 0".to_vec(), b"round 1".to_vec()]);
        assert!(!contents.torn_tail);

        let (mut w, contents) = JournalWriter::open_append(&path, 0xABCD).unwrap();
        assert_eq!(contents.records.len(), 2);
        w.append(b"round 2").unwrap();
        drop(w);
        assert_eq!(read_journal(&path).unwrap().records.len(), 3);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_truncates_torn_tail_on_reopen() {
        let dir = tmp_dir("torn");
        let path = dir.join("rounds.nblj");
        let mut w = JournalWriter::create(&path, 7).unwrap();
        w.append(b"complete record").unwrap();
        drop(w);
        // Simulate a crash mid-append: half a record at the tail.
        let mut bytes = fs::read(&path).unwrap();
        let full = bytes.len();
        bytes.extend_from_slice(&(100u32).to_le_bytes());
        bytes.extend_from_slice(b"only part of the payl");
        fs::write(&path, &bytes).unwrap();

        let contents = read_journal(&path).unwrap();
        assert!(contents.torn_tail);
        assert_eq!(contents.records.len(), 1);
        assert_eq!(contents.valid_len, full as u64);

        let (mut w, _) = JournalWriter::open_append(&path, 7).unwrap();
        w.append(b"next").unwrap();
        drop(w);
        let contents = read_journal(&path).unwrap();
        assert!(!contents.torn_tail);
        assert_eq!(contents.records, vec![b"complete record".to_vec(), b"next".to_vec()]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_rejects_bit_flips_and_wrong_run() {
        let dir = tmp_dir("flips");
        let path = dir.join("rounds.nblj");
        let mut w = JournalWriter::create(&path, 1).unwrap();
        w.append(b"payload bytes here").unwrap();
        drop(w);

        let clean = fs::read(&path).unwrap();
        // Flip every byte of the record region: the record must drop out.
        for pos in JOURNAL_HEADER..clean.len() {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x40;
            let contents = parse_journal(&bytes).unwrap();
            assert!(contents.torn_tail, "flip at {pos} must mark the tail torn");
            assert!(contents.records.is_empty());
        }
        // Wrong run id on reopen.
        assert!(matches!(JournalWriter::open_append(&path, 2).unwrap_err(), DurabilityError::Malformed(_)));
        // Garbage header.
        assert_eq!(parse_journal(b"????????????????").unwrap_err(), DurabilityError::NotAJournal);
        fs::remove_dir_all(&dir).ok();
    }
}
