//! The persistent whole-job result cache shared by `migopt` runs and
//! the `migd` daemon.
//!
//! [`ResultStore`] holds whole-job results keyed by a hash of (input
//! circuit structure, pipeline), so a repeated job — at any thread
//! count — skips the pipeline entirely.
//!
//! The file follows the `npndb` persistence idiom — plain read/write,
//! no mmap, validation on load — but is binary for compactness, and it
//! is an append-only journal: a versioned header, then one frame per
//! record. Each frame carries its own length and its own FNV-1a
//! checksum, so a record is valid on its own and a writer adds what it
//! learned with one append ([`append_path`]); [`save_path`] rewrites
//! the whole file only to merge or heal it. A load keeps every record
//! before the first defect — a truncated frame, a length past the end
//! of the file, a checksum mismatch, a malformed field — and
//! [`load_or_cold`] counts that defect once in `cache.rejected`, so a
//! crash in the middle of an append loses that one record. A later
//! record for a key replaces an earlier one. A foreign magic or version
//! rejects the file wholesale. A result is re-verified against the
//! job's input by random simulation before it is served.
//!
//! The store remembers the keys put since it was last written out
//! ([`ResultStore::take_pending`]), and both writers return a
//! [`FileStamp`] of the file they leave: together they let a writer
//! append just its new records, or skip a flush that has nothing new.

use obs::Metric;
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::RwLock;

/// Bumped whenever the serialized layout or the meaning of a key
/// changes; files with any other version are rejected wholesale
/// (graceful cold start, no migration). Version 2 keyed results by the
/// input graph's structure instead of its BLIF text; version 3 dropped
/// the NPN memo and signature sections; version 4 replaced the record
/// count and payload checksum with self-checked record frames.
pub const FORMAT_VERSION: u32 = 4;

const MAGIC: &[u8; 8] = b"MIGFCACH";
const HEADER_LEN: usize = 8 + 4;
/// Bytes a frame adds to its record: the length word before the record
/// and the checksum after it.
const FRAME_LEN: usize = 4 + 8;
/// Fixed-size record fields: key, check, size, depth and the two string
/// lengths.
const FIXED_FIELDS_LEN: usize = 8 + 8 + 4 + 4 + 4 + 4;

/// FNV-1a over `bytes`, continuing from `h`. Zero-dependency and stable
/// across platforms — the record checksums and the result-tier keys.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis — the starting `h` for [`fnv1a`].
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
/// A second, independent starting point for the result-tier check hash.
pub const FNV_CHECK_BASIS: u64 = FNV_BASIS ^ 0x9e37_79b9_7f4a_7c15;

// ---------------------------------------------------------------------
// Result tier
// ---------------------------------------------------------------------

/// One cached whole-job result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResRecord {
    /// FNV-1a over the job key material (input structure, pipeline,
    /// threads).
    pub key: u64,
    /// Independent second hash over the same material (collision check).
    pub check: u64,
    /// The resolved pipeline rendering the result was produced by,
    /// including the default thread count — compared verbatim on reuse.
    pub pipeline: String,
    /// Result gate count.
    pub size: u32,
    /// Result depth.
    pub depth: u32,
    /// The serialized result circuit (BLIF text).
    pub circuit: String,
}

impl ResRecord {
    /// The bytes this record takes in a cache file, frame included.
    pub fn encoded_len(&self) -> usize {
        FRAME_LEN + FIXED_FIELDS_LEN + self.pipeline.len() + self.circuit.len()
    }
}

/// The records and the keys put since the last write-out.
#[derive(Default)]
struct Entries {
    map: HashMap<u64, ResRecord>,
    /// Keys put ([`ResultStore::put`]) since the last take, in put
    /// order; a key put twice appears twice.
    pending: Vec<u64>,
}

/// Whole-job results under a read-mostly lock: daemon workers read
/// concurrently, a completed job takes the write lock briefly to
/// insert.
#[derive(Default)]
pub struct ResultStore {
    entries: RwLock<Entries>,
}

impl ResultStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a job result; both hashes and the pipeline rendering
    /// must match (the caller still semantically verifies the returned
    /// circuit against its input before serving it).
    pub fn get(&self, key: u64, check: u64, pipeline: &str) -> Option<ResRecord> {
        let entries = self.entries.read().expect("result store poisoned");
        entries
            .map
            .get(&key)
            .filter(|r| r.check == check && r.pipeline == pipeline)
            .cloned()
    }

    /// Inserts (or replaces) a job result; its key is pending until the
    /// next take.
    pub fn put(&self, rec: ResRecord) {
        let mut entries = self.entries.write().expect("result store poisoned");
        entries.pending.push(rec.key);
        entries.map.insert(rec.key, rec);
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries
            .read()
            .expect("result store poisoned")
            .map
            .len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clones out the records put since the last take, in put order,
    /// each key once with its current record, and clears the pending
    /// keys.
    pub fn take_pending(&self) -> Vec<ResRecord> {
        let mut entries = self.entries.write().expect("result store poisoned");
        let Entries { map, pending } = &mut *entries;
        let mut seen = HashSet::with_capacity(pending.len());
        pending
            .drain(..)
            .filter(|k| seen.insert(*k))
            .map(|k| map[&k].clone())
            .collect()
    }

    /// Clones out every record, key-sorted so the file bytes are
    /// deterministic, and clears the pending keys, whose records are
    /// among them.
    pub fn take_all(&self) -> Vec<ResRecord> {
        let mut entries = self.entries.write().expect("result store poisoned");
        entries.pending.clear();
        let mut out: Vec<ResRecord> = entries.map.values().cloned().collect();
        out.sort_by_key(|r| r.key);
        out
    }

    /// Installs records that decode cleanly; existing keys win. Installed
    /// records came from the file, so none of them is pending.
    pub fn install(&self, records: Vec<ResRecord>) -> usize {
        let mut entries = self.entries.write().expect("result store poisoned");
        let mut n = 0;
        for r in records {
            entries.map.entry(r.key).or_insert_with(|| {
                n += 1;
                r
            });
        }
        n
    }
}

// ---------------------------------------------------------------------
// On-disk file
// ---------------------------------------------------------------------

/// The deserialized contents of a cache file.
#[derive(Default, Debug)]
pub struct CacheData {
    /// Every record before the first defect, one per key: a later record
    /// for a key replaced an earlier one in place.
    pub results: Vec<ResRecord>,
    /// The defect that ended the read, if the file has one.
    pub defect: Option<LoadError>,
}

impl CacheData {
    /// Number of results.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether there are no results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Why a cache file, or the rest of it, was rejected.
#[derive(Debug)]
pub enum LoadError {
    /// Filesystem error (missing file is a normal first-run cold start).
    Io(std::io::Error),
    /// The file ends inside its header or inside a record frame.
    Truncated,
    /// The magic bytes are not ours.
    BadMagic,
    /// Known magic, unknown version.
    Version(u32),
    /// A record frame's checksum does not match its bytes.
    Checksum,
    /// A checksummed record does not decode.
    Malformed(&'static str),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "io error: {e}"),
            LoadError::Truncated => write!(f, "truncated file"),
            LoadError::BadMagic => write!(f, "not a cache file (bad magic)"),
            LoadError::Version(v) => {
                write!(f, "unsupported version {v} (expected {FORMAT_VERSION})")
            }
            LoadError::Checksum => write!(f, "record checksum mismatch"),
            LoadError::Malformed(what) => write!(f, "malformed record: {what}"),
        }
    }
}

impl std::error::Error for LoadError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Appends one record frame to `out`: the record's length, the record,
/// then FNV-1a over both.
fn put_record(out: &mut Vec<u8>, r: &ResRecord) {
    let start = out.len();
    let len = u32::try_from(r.encoded_len() - FRAME_LEN).expect("a cache record is under 4 GiB");
    put_u32(out, len);
    put_u64(out, r.key);
    put_u64(out, r.check);
    put_u32(out, r.size);
    put_u32(out, r.depth);
    put_str(out, &r.pipeline);
    put_str(out, &r.circuit);
    let sum = fnv1a(FNV_BASIS, &out[start..]);
    put_u64(out, sum);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        let end = self.pos.checked_add(n).ok_or(LoadError::Truncated)?;
        if end > self.buf.len() {
            return Err(LoadError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u32(&mut self) -> Result<u32, LoadError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, LoadError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self, what: &'static str) -> Result<String, LoadError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| LoadError::Malformed(what))
    }
}

/// Reads the record frame at the reader's position.
fn read_record(r: &mut Reader<'_>) -> Result<ResRecord, LoadError> {
    let start = r.pos;
    let len = r.u32()? as usize;
    let record = r.take(len)?;
    if fnv1a(FNV_BASIS, &r.buf[start..r.pos]) != r.u64()? {
        return Err(LoadError::Checksum);
    }
    decode_record(record).map_err(|e| match e {
        // Past the checksum, a field that overruns the record is
        // malformed, not truncated.
        LoadError::Truncated => LoadError::Malformed("field overruns the record"),
        e => e,
    })
}

/// Decodes the fields of one checksummed record.
fn decode_record(buf: &[u8]) -> Result<ResRecord, LoadError> {
    let mut f = Reader { buf, pos: 0 };
    let rec = ResRecord {
        key: f.u64()?,
        check: f.u64()?,
        size: f.u32()?,
        depth: f.u32()?,
        pipeline: f.str("result pipeline")?,
        circuit: f.str("result circuit")?,
    };
    if f.pos != buf.len() {
        return Err(LoadError::Malformed("trailing bytes in a record"));
    }
    Ok(rec)
}

/// Serializes records to the on-disk byte format, in the given order.
pub fn to_bytes(records: &[ResRecord]) -> Vec<u8> {
    let mut out =
        Vec::with_capacity(HEADER_LEN + records.iter().map(ResRecord::encoded_len).sum::<usize>());
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    for r in records {
        put_record(&mut out, r);
    }
    out
}

/// Deserializes the on-disk byte format, keeping every record before
/// the first defect (see [`CacheData::defect`]).
///
/// # Errors
///
/// A file too short for its header, or with a foreign magic or version,
/// is rejected whole; nothing panics.
pub fn from_bytes(bytes: &[u8]) -> Result<CacheData, LoadError> {
    if bytes.len() < HEADER_LEN {
        return Err(LoadError::Truncated);
    }
    if &bytes[..8] != MAGIC {
        return Err(LoadError::BadMagic);
    }
    let mut r = Reader { buf: bytes, pos: 8 };
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(LoadError::Version(version));
    }
    let mut data = CacheData::default();
    let mut slot_of: HashMap<u64, usize> = HashMap::new();
    while r.pos < bytes.len() {
        match read_record(&mut r) {
            Ok(rec) => match slot_of.get(&rec.key) {
                Some(&slot) => data.results[slot] = rec,
                None => {
                    slot_of.insert(rec.key, data.results.len());
                    data.results.push(rec);
                }
            },
            Err(e) => {
                data.defect = Some(e);
                break;
            }
        }
    }
    Ok(data)
}

/// Reads a cache file (see [`from_bytes`]).
///
/// # Errors
///
/// [`LoadError::Io`] on filesystem failures (including a missing file),
/// otherwise the defect that rejects the whole file.
pub fn load_path(path: &Path) -> Result<CacheData, LoadError> {
    let bytes = std::fs::read(path).map_err(LoadError::Io)?;
    from_bytes(&bytes)
}

/// [`load_path`] with the graceful-degradation policy: a missing file
/// is a silent first-run cold start; a defect bumps `cache.rejected`
/// once and keeps the records before it (none when the whole file is
/// rejected), leaving the file in place for post-mortem. Never panics.
pub fn load_or_cold(path: &Path) -> CacheData {
    match load_path(path) {
        Ok(data) => {
            if data.defect.is_some() {
                obs::metrics::add(Metric::CacheRejected, 1);
            }
            data
        }
        Err(LoadError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => CacheData::default(),
        Err(e) => {
            obs::metrics::add(Metric::CacheRejected, 1);
            CacheData {
                results: Vec::new(),
                defect: Some(e),
            }
        }
    }
}

/// Identifies one written version of a cache file without reading it
/// whole: its length, modification time and last eight bytes. A file
/// ends with its last record's checksum, so an append changes the
/// length and a same-length rewrite changes the tail, short of a
/// checksum collision within one modification-time tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStamp {
    len: u64,
    modified: std::time::SystemTime,
    tail: [u8; 8],
}

impl FileStamp {
    /// The stamp of the file at `path` as it is now; `None` when the
    /// file cannot be read or is shorter than a header.
    pub fn read(path: &Path) -> Option<FileStamp> {
        FileStamp::of(&mut File::open(path).ok()?).ok()
    }

    /// The stamp of an open, readable file.
    fn of(file: &mut File) -> std::io::Result<FileStamp> {
        let meta = file.metadata()?;
        if meta.len() < HEADER_LEN as u64 {
            return Err(std::io::ErrorKind::InvalidData.into());
        }
        let mut tail = [0u8; 8];
        file.seek(SeekFrom::End(-8))?;
        file.read_exact(&mut tail)?;
        Ok(FileStamp {
            len: meta.len(),
            modified: meta.modified()?,
            tail,
        })
    }
}

/// Atomically rewrites a cache file with `records` (sibling temp file +
/// rename), bumps `cache.flushed` by their count and returns the stamp
/// of the file written.
///
/// # Errors
///
/// Propagates filesystem errors; the destination is never left
/// half-written.
pub fn save_path(path: &Path, records: &[ResRecord]) -> std::io::Result<FileStamp> {
    let tmp = path.with_extension("tmp");
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    file.write_all(&to_bytes(records))?;
    // Renaming keeps the length, modification time and bytes, so this
    // is the stamp the destination will carry.
    let stamp = FileStamp::of(&mut file)?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    obs::metrics::add(Metric::CacheFlushed, records.len() as u64);
    Ok(stamp)
}

/// Appends `records` to the cache file at `path` in one write, bumps
/// `cache.flushed` by their count and returns the stamp of the file
/// left. The caller vouches that the file is a cache file of this
/// version: the one its last [`save_path`] or [`append_path`] stamped.
///
/// # Errors
///
/// Propagates filesystem errors. A failed append can leave a torn last
/// frame, which a load then drops; rewrite the file with [`save_path`]
/// before appending to it again.
pub fn append_path(path: &Path, records: &[ResRecord]) -> std::io::Result<FileStamp> {
    let mut bytes = Vec::with_capacity(records.iter().map(ResRecord::encoded_len).sum());
    for r in records {
        put_record(&mut bytes, r);
    }
    let mut file = OpenOptions::new().read(true).append(true).open(path)?;
    file.write_all(&bytes)?;
    let stamp = FileStamp::of(&mut file)?;
    obs::metrics::add(Metric::CacheFlushed, records.len() as u64);
    Ok(stamp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<ResRecord> {
        vec![ResRecord {
            key: 0xdead_beef_cafe_f00d,
            check: 0x0123_4567_89ab_cdef,
            pipeline: "fhash!:T@1 #j1".into(),
            size: 42,
            depth: 7,
            circuit: ".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n".into(),
        }]
    }

    /// Three records of different keys and lengths.
    fn three_records() -> Vec<ResRecord> {
        let mut records = sample_records();
        records.push(ResRecord {
            key: 7,
            check: 9,
            pipeline: "strash; fhash!:TFD #j2".into(),
            size: 3,
            depth: 2,
            circuit: ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n".into(),
        });
        records.push(ResRecord {
            key: 1,
            check: 2,
            pipeline: "fhash!:B #j1".into(),
            size: 0,
            depth: 0,
            circuit: String::new(),
        });
        records
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("fcache_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn result_store_checks_both_hashes_and_pipeline() {
        let s = ResultStore::new();
        let r = sample_records().remove(0);
        s.put(r.clone());
        assert_eq!(s.get(r.key, r.check, &r.pipeline), Some(r.clone()));
        assert_eq!(s.get(r.key, r.check ^ 1, &r.pipeline), None);
        assert_eq!(s.get(r.key, r.check, "other"), None);
        assert_eq!(s.get(r.key ^ 1, r.check, &r.pipeline), None);
    }

    #[test]
    fn file_roundtrips() {
        let records = three_records();
        let bytes = to_bytes(&records);
        assert_eq!(
            bytes.len(),
            HEADER_LEN + records.iter().map(ResRecord::encoded_len).sum::<usize>()
        );
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back.results, records);
        assert!(back.defect.is_none());
        // Empty data round-trips too.
        let empty = from_bytes(&to_bytes(&[])).unwrap();
        assert!(empty.is_empty() && empty.defect.is_none());
    }

    #[test]
    fn truncated_corrupt_and_version_bumped_files_cold_start() {
        let bytes = to_bytes(&sample_records());

        // Truncation inside the header rejects the file; truncation
        // inside the only record keeps nothing and names the defect.
        for cut in [0, 4, HEADER_LEN - 1] {
            assert!(
                matches!(from_bytes(&bytes[..cut]), Err(LoadError::Truncated)),
                "cut at {cut}"
            );
        }
        for cut in [HEADER_LEN + 3, HEADER_LEN + 20, bytes.len() - 1] {
            let data = from_bytes(&bytes[..cut]).unwrap();
            assert!(data.is_empty(), "cut at {cut}");
            assert!(
                matches!(data.defect, Some(LoadError::Truncated)),
                "cut at {cut}"
            );
        }

        // A single corrupted byte -> checksum mismatch.
        let mut corrupt = bytes.clone();
        corrupt[HEADER_LEN + 30] ^= 0x40;
        let data = from_bytes(&corrupt).unwrap();
        assert!(data.is_empty() && matches!(data.defect, Some(LoadError::Checksum)));

        // Version bump -> rejected with the found version.
        let mut bumped = bytes.clone();
        bumped[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(
            from_bytes(&bumped),
            Err(LoadError::Version(v)) if v == FORMAT_VERSION + 1
        ));

        // Foreign magic.
        let mut foreign = bytes.clone();
        foreign[0] = b'X';
        assert!(matches!(from_bytes(&foreign), Err(LoadError::BadMagic)));

        // A frame length past the end of the file.
        let mut lying = bytes.clone();
        lying[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let data = from_bytes(&lying).unwrap();
        assert!(data.is_empty() && matches!(data.defect, Some(LoadError::Truncated)));

        // A field that overruns its checksummed record is malformed.
        let rec = &sample_records()[0];
        let mut overrun = bytes.clone();
        let pipeline_len = HEADER_LEN + 4 + 24;
        overrun[pipeline_len..pipeline_len + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let frame_end = HEADER_LEN + rec.encoded_len() - 8;
        let sum = fnv1a(FNV_BASIS, &overrun[HEADER_LEN..frame_end]);
        overrun[frame_end..].copy_from_slice(&sum.to_le_bytes());
        let data = from_bytes(&overrun).unwrap();
        assert!(data.is_empty() && matches!(data.defect, Some(LoadError::Malformed(_))));
    }

    /// Rewrites the checksum of every record frame that still parses as
    /// a frame, so a mutant reaches the record decoder.
    fn rechecksum(bytes: &mut [u8]) {
        let mut pos = HEADER_LEN;
        while pos + 4 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            let Some(end) = (pos + 4).checked_add(len).filter(|&e| e + 8 <= bytes.len()) else {
                return;
            };
            let sum = fnv1a(FNV_BASIS, &bytes[pos..end]);
            bytes[end..end + 8].copy_from_slice(&sum.to_le_bytes());
            pos = end + 8;
        }
    }

    #[test]
    fn mutated_files_never_panic() {
        let original = to_bytes(&three_records());
        let mut rng = testrand::Rng::new(0xFCAC_4E03);
        let (mut parsed, mut malformed) = (0, 0);
        for case in 0..10_000 {
            let mut bytes = rng.mutate(&original, |r| r.next_u64() as u8);
            // Half the mutants carry valid frame checksums, so they reach
            // the record decoder instead of stopping at a checksum.
            if case % 2 == 0 {
                rechecksum(&mut bytes);
            }
            match std::panic::catch_unwind(|| from_bytes(&bytes)) {
                Ok(Ok(data)) => match data.defect {
                    None => parsed += 1,
                    Some(LoadError::Malformed(_)) => malformed += 1,
                    Some(_) => {}
                },
                Ok(Err(_)) => {}
                Err(_) => panic!("mutant {case} panicked: {bytes:?}"),
            }
        }
        // Some mutants parse whole and some fail inside a record, so the
        // edits reach past the header and the frames.
        assert!(parsed > 0, "no mutant parsed");
        assert!(malformed > 0, "no mutant reached the record decoder");
    }

    #[test]
    fn truncation_anywhere_in_the_last_record_keeps_the_earlier_ones() {
        let records = three_records();
        let bytes = to_bytes(&records);
        let last = records.last().unwrap();
        let last_start = bytes.len() - last.encoded_len();
        let dir = temp_dir("torn");
        let path = dir.join("torn.migcache");
        for cut in last_start + 1..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (data, d) = obs::metrics::scoped(|| load_or_cold(&path));
            assert_eq!(data.results, records[..2], "cut at {cut}");
            assert!(
                matches!(data.defect, Some(LoadError::Truncated)),
                "cut at {cut}"
            );
            assert_eq!(d.get(Metric::CacheRejected), 1, "cut at {cut}");
        }
        // A whole frame is no defect.
        std::fs::write(&path, &bytes[..last_start]).unwrap();
        let (data, d) = obs::metrics::scoped(|| load_or_cold(&path));
        assert_eq!(data.results, records[..2]);
        assert!(data.defect.is_none());
        assert_eq!(d.get(Metric::CacheRejected), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_later_record_for_a_key_replaces_an_earlier_one() {
        let records = three_records();
        let newer = ResRecord {
            size: 41,
            circuit: "newer".into(),
            ..records[0].clone()
        };
        let mut journal = records.clone();
        journal.push(newer.clone());
        let data = from_bytes(&to_bytes(&journal)).unwrap();
        assert!(data.defect.is_none());
        assert_eq!(
            data.results,
            [newer.clone(), records[1].clone(), records[2].clone()]
        );

        // The same through an append to a saved file.
        let dir = temp_dir("dup");
        let path = dir.join("dup.migcache");
        save_path(&path, &records).unwrap();
        append_path(&path, std::slice::from_ref(&newer)).unwrap();
        assert_eq!(load_path(&path).unwrap().results[0], newer);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_or_cold_counts_rejections_but_not_first_runs() {
        let dir = temp_dir("test");
        let missing = dir.join("never_written.migcache");
        let ((), d) = obs::metrics::scoped(|| {
            assert!(load_or_cold(&missing).is_empty());
        });
        assert_eq!(d.get(Metric::CacheRejected), 0);

        let broken = dir.join("broken.migcache");
        let mut bytes = to_bytes(&sample_records());
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&broken, &bytes).unwrap();
        let ((), d) = obs::metrics::scoped(|| {
            assert!(load_or_cold(&broken).is_empty());
        });
        assert_eq!(d.get(Metric::CacheRejected), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_load_path_roundtrip_and_flush_metric() {
        let dir = temp_dir("save");
        let path = dir.join("cache.migcache");
        let records = three_records();
        let ((), d) = obs::metrics::scoped(|| {
            save_path(&path, &records[..2]).unwrap();
            append_path(&path, &records[2..]).unwrap();
        });
        assert_eq!(d.get(Metric::CacheFlushed), records.len() as u64);
        let back = load_path(&path).unwrap();
        assert_eq!(back.results, records);
        // The temp file was renamed away.
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pending_keys_follow_puts_not_installs() {
        let s = ResultStore::new();
        let rec = sample_records().remove(0);
        s.put(rec.clone());
        assert_eq!(s.take_pending(), std::slice::from_ref(&rec));
        assert!(s.take_pending().is_empty());
        // A key put twice is taken once, at its first position, with its
        // current record.
        let newer = ResRecord {
            size: 41,
            ..rec.clone()
        };
        let other = ResRecord {
            key: 2,
            ..rec.clone()
        };
        s.put(rec.clone());
        s.put(other.clone());
        s.put(newer.clone());
        assert_eq!(s.take_pending(), [newer.clone(), other.clone()]);
        // Installing keeps resident records and marks nothing pending.
        assert_eq!(s.install(vec![rec.clone()]), 0);
        assert_eq!(s.get(rec.key, rec.check, &rec.pipeline).unwrap().size, 41);
        let installed = ResRecord { key: 1, ..rec };
        assert_eq!(s.install(vec![installed.clone()]), 1);
        assert!(s.take_pending().is_empty());
        // Taking everything clears the pending keys too.
        s.put(ResRecord {
            key: 3,
            ..other.clone()
        });
        let all = s.take_all();
        assert_eq!(
            all.iter().map(|r| r.key).collect::<Vec<_>>(),
            [1, 2, 3, newer.key]
        );
        assert!(s.take_pending().is_empty());
    }

    #[test]
    fn save_path_stamp_matches_the_file_until_it_is_rewritten() {
        let dir = temp_dir("stamp");
        let path = dir.join("cache.migcache");
        assert_eq!(FileStamp::read(&path), None);
        let records = three_records();
        let stamp = save_path(&path, &records[..1]).unwrap();
        assert_eq!(FileStamp::read(&path), Some(stamp.clone()));
        // Different bytes of the same length, likely within one clock
        // tick: the last record's checksum differs.
        let mut other = records[..1].to_vec();
        other[0].size ^= 0x100;
        let rewritten = save_path(&path, &other).unwrap();
        assert_ne!(rewritten, stamp);
        assert_eq!(FileStamp::read(&path), Some(rewritten.clone()));
        // An append changes the stamp too, and returns the new one.
        let appended = append_path(&path, &records[1..2]).unwrap();
        assert_ne!(appended, rewritten);
        assert_eq!(FileStamp::read(&path), Some(appended));
        std::fs::remove_dir_all(&dir).ok();
    }
}
