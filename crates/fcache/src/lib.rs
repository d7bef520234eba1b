//! The persistent whole-job result cache shared by `migopt` runs and
//! the `migd` daemon.
//!
//! [`ResultStore`] holds whole-job results keyed by a hash of (input
//! circuit structure, resolved pipeline, thread count), so a repeated
//! job skips the pipeline entirely.
//!
//! The file format follows the `npndb` persistence idiom — plain
//! read/write, no mmap, validation on load — but is binary for
//! compactness: a versioned header, an explicit record count and an
//! FNV-1a checksum over the payload. *Any* structural failure
//! (truncation, bit rot, version bump) makes [`load_or_cold`] start
//! cold and bump `cache.rejected`; it never panics and never installs a
//! partially-read file. A result is re-verified against the job's input
//! by random simulation before it is served.
//!
//! The store counts what it learns in a generation
//! ([`ResultStore::generation`]), and [`save_path`] returns a
//! [`FileStamp`] of the bytes it wrote: together they let a writer skip
//! a flush that would rewrite the file it already holds.

use obs::Metric;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

/// Bumped whenever the serialized layout or the meaning of a key
/// changes; files with any other version are rejected wholesale
/// (graceful cold start, no migration). Version 2 keyed results by the
/// input graph's structure instead of its BLIF text; version 3 dropped
/// the NPN memo and signature sections.
pub const FORMAT_VERSION: u32 = 3;

const MAGIC: &[u8; 8] = b"MIGFCACH";
const HEADER_LEN: usize = 8 + 4 + 4 + 8;
/// Sanity bound on the result count.
const MAX_RESULTS: u32 = 1 << 20;

/// FNV-1a over `bytes`, continuing from `h`. Zero-dependency and stable
/// across platforms — the payload checksum and the result-tier keys.
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

/// Whole-job results under a read-mostly lock: daemon workers read
/// concurrently, a completed job takes the write lock briefly to
/// insert.
#[derive(Default)]
pub struct ResultStore {
    map: RwLock<HashMap<u64, ResRecord>>,
    /// Inserted or replaced records (see [`ResultStore::generation`]).
    /// Bumped with `Release` after the map update and read with
    /// `Acquire`, so a reader that sees a count also sees the records it
    /// counts.
    changes: AtomicU64,
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
        let map = self.map.read().expect("result store poisoned");
        map.get(&key)
            .filter(|r| r.check == check && r.pipeline == pipeline)
            .cloned()
    }

    /// Inserts (or replaces) a job result.
    pub fn put(&self, rec: ResRecord) {
        let mut map = self.map.write().expect("result store poisoned");
        map.insert(rec.key, rec);
        self.changes.fetch_add(1, Ordering::Release);
    }

    /// A counter that grows whenever a record is inserted or replaced
    /// (a count of records would miss a replacement). Read it before
    /// [`ResultStore::export`]: an equal later reading means the export
    /// still holds every record.
    pub fn generation(&self) -> u64 {
        self.changes.load(Ordering::Acquire)
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.map.read().expect("result store poisoned").len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clones out every record (export order is key-sorted so the file
    /// bytes are deterministic).
    pub fn export(&self) -> Vec<ResRecord> {
        let map = self.map.read().expect("result store poisoned");
        let mut out: Vec<ResRecord> = map.values().cloned().collect();
        out.sort_by_key(|r| r.key);
        out
    }

    /// Installs records that decode cleanly; existing keys win.
    pub fn install(&self, records: Vec<ResRecord>) -> usize {
        let mut map = self.map.write().expect("result store poisoned");
        let mut n = 0;
        for r in records {
            map.entry(r.key).or_insert_with(|| {
                n += 1;
                r
            });
        }
        self.changes.fetch_add(n as u64, Ordering::Release);
        n
    }
}

// ---------------------------------------------------------------------
// On-disk file
// ---------------------------------------------------------------------

/// The deserialized contents of a cache file (or the data to serialize
/// into one).
#[derive(Default, Debug, Clone)]
pub struct CacheData {
    /// Whole-job results.
    pub results: Vec<ResRecord>,
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

/// Why a cache file was rejected.
#[derive(Debug)]
pub enum LoadError {
    /// Filesystem error (missing file is a normal first-run cold start).
    Io(std::io::Error),
    /// The file is shorter than its header or counts claim.
    Truncated,
    /// The magic bytes are not ours.
    BadMagic,
    /// Known magic, unknown version.
    Version(u32),
    /// The payload checksum does not match the header.
    Checksum,
    /// A section is internally inconsistent.
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
            LoadError::Checksum => write!(f, "payload checksum mismatch"),
            LoadError::Malformed(what) => write!(f, "malformed section: {what}"),
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

/// Serializes cache data to the on-disk byte format.
pub fn to_bytes(data: &CacheData) -> Vec<u8> {
    let mut payload = Vec::new();
    for r in &data.results {
        put_u64(&mut payload, r.key);
        put_u64(&mut payload, r.check);
        put_u32(&mut payload, r.size);
        put_u32(&mut payload, r.depth);
        put_str(&mut payload, &r.pipeline);
        put_str(&mut payload, &r.circuit);
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, data.results.len() as u32);
    put_u64(&mut out, fnv1a(FNV_BASIS, &payload));
    out.extend_from_slice(&payload);
    out
}

/// Deserializes and validates the on-disk byte format.
///
/// # Errors
///
/// Every structural defect maps to a [`LoadError`]; nothing panics and
/// nothing is partially returned.
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
    let res_count = r.u32()?;
    let checksum = r.u64()?;
    if res_count > MAX_RESULTS {
        return Err(LoadError::Malformed("result count out of bounds"));
    }
    if fnv1a(FNV_BASIS, &bytes[HEADER_LEN..]) != checksum {
        return Err(LoadError::Checksum);
    }
    let mut data = CacheData::default();
    for _ in 0..res_count {
        data.results.push(ResRecord {
            key: r.u64()?,
            check: r.u64()?,
            size: r.u32()?,
            depth: r.u32()?,
            pipeline: r.str("result pipeline")?,
            circuit: r.str("result circuit")?,
        });
    }
    if r.pos != bytes.len() {
        return Err(LoadError::Malformed("trailing bytes after last section"));
    }
    Ok(data)
}

/// Reads and validates a cache file.
///
/// # Errors
///
/// [`LoadError::Io`] on filesystem failures (including a missing file),
/// otherwise the structural defect found.
pub fn load_path(path: &Path) -> Result<CacheData, LoadError> {
    let bytes = std::fs::read(path).map_err(LoadError::Io)?;
    from_bytes(&bytes)
}

/// [`load_path`] with the graceful-degradation policy: a missing file
/// is a silent first-run cold start; any *defective* file bumps
/// `cache.rejected` (and is left in place for post-mortem) and starts
/// cold. Never panics, never returns partial data.
pub fn load_or_cold(path: &Path) -> CacheData {
    match load_path(path) {
        Ok(data) => data,
        Err(LoadError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => CacheData::default(),
        Err(_) => {
            obs::metrics::add(Metric::CacheRejected, 1);
            CacheData::default()
        }
    }
}

/// Identifies one written version of a cache file: its length,
/// modification time and header. The header holds the record count and
/// the payload checksum, so two versions with equal stamps hold the
/// same entries, short of a same-length rewrite with a colliding
/// checksum in the same modification-time tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileStamp {
    len: u64,
    modified: std::time::SystemTime,
    header: [u8; HEADER_LEN],
}

impl FileStamp {
    /// The stamp of the file at `path` as it is now; `None` when the
    /// file cannot be read or is shorter than a header.
    pub fn read(path: &Path) -> Option<FileStamp> {
        let mut file = std::fs::File::open(path).ok()?;
        let meta = file.metadata().ok()?;
        let mut header = [0u8; HEADER_LEN];
        file.read_exact(&mut header).ok()?;
        Some(FileStamp {
            len: meta.len(),
            modified: meta.modified().ok()?,
            header,
        })
    }
}

/// Atomically writes a cache file (sibling temp file + rename), bumps
/// `cache.flushed` by the result count and returns the stamp of the
/// bytes written.
///
/// # Errors
///
/// Propagates filesystem errors; the destination is never left
/// half-written.
pub fn save_path(path: &Path, data: &CacheData) -> std::io::Result<FileStamp> {
    let tmp = path.with_extension("tmp");
    let bytes = to_bytes(data);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(&bytes)?;
    // Renaming keeps the modification time, so this is the stamp the
    // destination will carry.
    let modified = file.metadata()?.modified()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    obs::metrics::add(Metric::CacheFlushed, data.len() as u64);
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&bytes[..HEADER_LEN]);
    Ok(FileStamp {
        len: bytes.len() as u64,
        modified,
        header,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> CacheData {
        CacheData {
            results: vec![ResRecord {
                key: 0xdead_beef_cafe_f00d,
                check: 0x0123_4567_89ab_cdef,
                pipeline: "fhash!:T@1 #j1".into(),
                size: 42,
                depth: 7,
                circuit: ".model t\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n".into(),
            }],
        }
    }

    #[test]
    fn result_store_checks_both_hashes_and_pipeline() {
        let s = ResultStore::new();
        let r = sample_data().results.remove(0);
        s.put(r.clone());
        assert_eq!(s.get(r.key, r.check, &r.pipeline), Some(r.clone()));
        assert_eq!(s.get(r.key, r.check ^ 1, &r.pipeline), None);
        assert_eq!(s.get(r.key, r.check, "other"), None);
        assert_eq!(s.get(r.key ^ 1, r.check, &r.pipeline), None);
    }

    #[test]
    fn file_roundtrips() {
        let data = sample_data();
        let back = from_bytes(&to_bytes(&data)).unwrap();
        assert_eq!(back.results, data.results);
        // Empty data round-trips too.
        assert!(from_bytes(&to_bytes(&CacheData::default()))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn truncated_corrupt_and_version_bumped_files_cold_start() {
        let bytes = to_bytes(&sample_data());

        // Truncation at every prefix length: never a panic, never Ok.
        for cut in [0, 4, HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }

        // Single corrupted payload byte -> checksum mismatch.
        let mut corrupt = bytes.clone();
        *corrupt.last_mut().unwrap() ^= 0x40;
        assert!(matches!(from_bytes(&corrupt), Err(LoadError::Checksum)));

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

        // A count that claims more than the payload holds.
        let mut lying = bytes.clone();
        lying[12..16].copy_from_slice(&(MAX_RESULTS + 1).to_le_bytes());
        assert!(matches!(from_bytes(&lying), Err(LoadError::Malformed(_))));
        lying[12..16].copy_from_slice(&2u32.to_le_bytes());
        assert!(from_bytes(&lying).is_err());
    }

    #[test]
    fn mutated_files_never_panic() {
        let mut data = sample_data();
        data.results.push(ResRecord {
            key: 7,
            check: 9,
            pipeline: "strash; fhash!:TFD #j2".into(),
            size: 3,
            depth: 2,
            circuit: ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n.end\n".into(),
        });
        let original = to_bytes(&data);
        let mut rng = testrand::Rng::new(0xFCAC_4E03);
        let mut parsed = 0;
        for case in 0..10_000 {
            let mut bytes = rng.mutate(&original, |r| r.next_u64() as u8);
            // Half the mutants carry a valid checksum, so they reach the
            // record parser instead of stopping at the header.
            if case % 2 == 0 && bytes.len() >= HEADER_LEN {
                let sum = fnv1a(FNV_BASIS, &bytes[HEADER_LEN..]);
                bytes[16..24].copy_from_slice(&sum.to_le_bytes());
            }
            match std::panic::catch_unwind(|| from_bytes(&bytes)) {
                Ok(r) => parsed += usize::from(r.is_ok()),
                Err(_) => panic!("mutant {case} panicked: {bytes:?}"),
            }
        }
        // Some mutants still parse, so the edits reach past the header.
        assert!(parsed > 0, "no mutant parsed");
    }

    #[test]
    fn load_or_cold_counts_rejections_but_not_first_runs() {
        let dir = std::env::temp_dir().join(format!("fcache_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("never_written.migcache");
        let ((), d) = obs::metrics::scoped(|| {
            assert!(load_or_cold(&missing).is_empty());
        });
        assert_eq!(d.get(Metric::CacheRejected), 0);

        let broken = dir.join("broken.migcache");
        let mut bytes = to_bytes(&sample_data());
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
        let dir = std::env::temp_dir().join(format!("fcache_save_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.migcache");
        let data = sample_data();
        let ((), d) = obs::metrics::scoped(|| {
            save_path(&path, &data).unwrap();
        });
        assert_eq!(d.get(Metric::CacheFlushed), data.len() as u64);
        let back = load_path(&path).unwrap();
        assert_eq!(back.results, data.results);
        // The temp file was renamed away.
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn generations_grow_with_every_change() {
        let s = ResultStore::new();
        let rec = sample_data().results.remove(0);
        s.put(rec.clone());
        assert_eq!(s.generation(), 1);
        // A replacement keeps the record count but is still a change.
        s.put(ResRecord {
            size: 41,
            ..rec.clone()
        });
        assert_eq!((s.len(), s.generation()), (1, 2));
        // Installing a record under a key the store holds keeps the
        // resident one and learns nothing.
        assert_eq!(s.install(vec![rec.clone()]), 0);
        assert_eq!(s.get(rec.key, rec.check, &rec.pipeline).unwrap().size, 41);
        assert_eq!(s.generation(), 2);
        assert_eq!(s.install(vec![ResRecord { key: 1, ..rec }]), 1);
        assert_eq!(s.generation(), 3);
    }

    #[test]
    fn save_path_stamp_matches_the_file_until_it_is_rewritten() {
        let dir = std::env::temp_dir().join(format!("fcache_stamp_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.migcache");
        assert_eq!(FileStamp::read(&path), None);
        let stamp = save_path(&path, &sample_data()).unwrap();
        assert_eq!(FileStamp::read(&path), Some(stamp.clone()));
        // Different bytes of the same length: the header differs.
        let mut other = sample_data();
        other.results[0].size ^= 0x100;
        let rewritten = save_path(&path, &other).unwrap();
        assert_ne!(rewritten, stamp);
        assert_eq!(FileStamp::read(&path), Some(rewritten));
        std::fs::remove_dir_all(&dir).ok();
    }
}
